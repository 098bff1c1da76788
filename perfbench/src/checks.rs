//! The service-level checks every run ends with: the exact billing
//! partition and the post-teardown audit.

use crate::metrics::Report;
use fsd_comm::MeterSnapshot;
use fsd_core::{FsdService, WarmPoolStats};
use fsd_faas::LambdaSnapshot;

/// A service's meters at the start of a measured phase.
pub struct Baseline {
    comm: MeterSnapshot,
    lambda: LambdaSnapshot,
    failed_comm: MeterSnapshot,
    failed_lambda: LambdaSnapshot,
    pub pool: WarmPoolStats,
}

impl Baseline {
    pub fn take(svc: &FsdService) -> Baseline {
        let failed = svc.failed_attempt_bill();
        Baseline {
            comm: svc.env().meter().snapshot(),
            lambda: svc.platform().lambda_meter().snapshot(),
            failed_comm: failed.comm,
            failed_lambda: failed.lambda,
            pool: svc.warm_pool_stats().unwrap_or_default(),
        }
    }

    /// What the global meters grew by since the baseline, less what the
    /// failed-attempt bill grew by. By the billing partition this is
    /// exactly Σ the successful requests' own reports.
    pub fn billed_since(&self, svc: &FsdService) -> (MeterSnapshot, LambdaSnapshot) {
        let failed = svc.failed_attempt_bill();
        let comm = svc
            .env()
            .meter()
            .snapshot()
            .since(&self.comm)
            .since(&failed.comm.since(&self.failed_comm));
        let now = svc.platform().lambda_meter().snapshot();
        let lambda = LambdaSnapshot {
            invocations: now.invocations
                - self.lambda.invocations
                - (failed.lambda.invocations - self.failed_lambda.invocations),
            mb_ms: now.mb_ms - self.lambda.mb_ms - (failed.lambda.mb_ms - self.failed_lambda.mb_ms),
        };
        (comm, lambda)
    }
}

/// The post-run audit: no tracked billing flows and no per-request cloud
/// residue once warm capacity is released.
pub fn audit(svc: &FsdService, report: &mut Report) {
    let flows = svc.env().meter().tracked_flows();
    report.check(flows == 0, || {
        format!("{flows} comm billing flow(s) still tracked")
    });
    let lambda_flows = svc.platform().lambda_meter().tracked_flows();
    report.check(lambda_flows == 0, || {
        format!("{lambda_flows} Lambda billing flow(s) still tracked")
    });
    let residue = svc.env().residue_report();
    report.check(residue.is_empty(), || {
        format!("cloud residue after teardown: {}", residue.join("; "))
    });
}
