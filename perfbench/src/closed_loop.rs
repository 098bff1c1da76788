//! The two closed-loop workloads: one client submits single-batch
//! requests back to back through `FsdService::submit_batched`.
//!
//! A run builds its inputs from the seed (model, a pool of input columns,
//! request widths and windows), runs the serial oracle once over the pool,
//! sets the service up several times, then measures. The first pass over
//! the request list gives the virtual metrics, so they are a pure function
//! of the seed; the untraced phase repeats the list until `--seconds` have
//! passed, for the host metrics. The traced run adds a shorter traced
//! phase, the `sparse` probes and the exported trace.

use crate::checks::{audit, Baseline};
use crate::cols::{output_digest, slice_cols, sub_seed, SplitMix};
use crate::metrics::{write_outputs, Report};
use crate::probes::{FullLayers, Probes};
use crate::spans::{Tracer, PROBE_IDS};
use crate::stats::{self, percentile};
use crate::{pin, sys};
use fsd_comm::MeterSnapshot;
use fsd_core::{
    BatchedRequest, ChannelStatsSnapshot, FsdService, InferenceReport, LaunchPath, ServiceBuilder,
    Variant,
};
use fsd_faas::LambdaSnapshot;
use fsd_model::{generate_dnn, generate_inputs, DnnSpec, InputSpec, SparseDnn};
use fsd_partition::{CommPlan, Hypergraph};
use fsd_sparse::SparseRows;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Per-worker memory (one vCPU).
const MEMORY_MB: u32 = 1769;
/// Service set-ups before measuring; `setup_s` is the median of these and
/// of the samples taken between windows.
const SETUP_REPS: usize = 3;
/// Seconds between the further set-up samples taken between host-time
/// windows: set-up time drifts with the host's state over seconds, so its
/// median samples the whole run, not only its start.
const SETUP_EVERY_S: f64 = 4.0;
/// Requests per host-time window; host metrics are window medians.
const WINDOW: usize = 10;

pub struct ClosedLoop {
    name: &'static str,
    neurons: usize,
    workers: u32,
    variant: Variant,
    /// Batch width range (inclusive), varied per request.
    widths: (usize, usize),
    /// Columns in the shared input pool the request windows come from.
    pool_cols: usize,
    /// Requests per pass; the virtual metrics come from the first pass.
    requests: usize,
    /// Every request is a cold start: streamed weights, warm trees and
    /// the weight cache invalidated before each submit. Otherwise one tree
    /// is pre-warmed during set-up and every request is a warm hit.
    cold: bool,
}

/// The payload path under load: ~2.7 MB per query before compression
/// through `sparse` encode/compress and the SNS/SQS queue channel, on a
/// pre-warmed tree (no launch, no weight loading, no scheduler).
pub const BULK_QUEUE: ClosedLoop = ClosedLoop {
    name: "bulk-queue",
    neurons: 4096,
    workers: 8,
    variant: Variant::Queue,
    widths: (64, 128),
    pool_cols: 1024,
    requests: 100,
    cold: false,
};

/// The cold path under load: every request launches a two-level tree,
/// rank 0 re-fetches every weight block and relays stream it down, and
/// layer data goes through object storage (PUT/LIST/GET).
pub const COLD_OBJECT: ClosedLoop = ClosedLoop {
    name: "cold-object",
    neurons: 1024,
    workers: 8,
    variant: Variant::Object,
    widths: (32, 64),
    pool_cols: 512,
    requests: 100,
    cold: true,
};

struct Request {
    batch: BatchedRequest,
    expected: SparseRows,
}

/// The virtual footprint of one completed request of the first pass.
struct Record {
    width: usize,
    latency_us: u64,
    usd: f64,
    comm: MeterSnapshot,
    lambda: LambdaSnapshot,
    client: ChannelStatsSnapshot,
    rank_skew_us: u64,
    rank_busy: f64,
    peak_mem_bytes: usize,
    work_done: u64,
    warm: bool,
    output_fnv: u64,
}

/// Everything the measured phases accumulate.
#[derive(Default)]
struct Ledger {
    records: Vec<Record>,
    billed_comm: MeterSnapshot,
    billed_lambda: LambdaSnapshot,
}

/// Timings of each set-up sample (s).
#[derive(Default)]
struct SetupTimes {
    total: Vec<f64>,
    prepare: Vec<f64>,
    prewarm: Vec<f64>,
}

/// A per-layer metric averaged over the first pass's requests.
type PerQuery = (&'static str, fn(&Record) -> f64);

/// `(requests, wall s, cpu s)` of one host-time window.
type Window = (usize, f64, f64);

impl ClosedLoop {
    fn build_requests(&self, dnn: &SparseDnn, seed: u64) -> Vec<Request> {
        let pool = generate_inputs(
            self.neurons,
            &InputSpec::scaled(self.pool_cols, sub_seed(seed, 2)),
        );
        let pool_out = dnn.serial_inference(&pool);
        // Widths are stratified over the range, then shuffled: every seed
        // serves the same width mix in its own order, so seeds differ in
        // content (model, samples, order) but not in the amount of work.
        let (min, max) = self.widths;
        let mut widths: Vec<usize> = (0..self.requests)
            .map(|i| min + i * (max - min + 1) / self.requests)
            .collect();
        let mut rng = SplitMix::new(sub_seed(seed, 3));
        for i in (1..widths.len()).rev() {
            widths.swap(i, rng.range(0, i));
        }
        widths
            .into_iter()
            .map(|width| {
                let lo = rng.range(0, self.pool_cols - width);
                Request {
                    batch: BatchedRequest {
                        variant: self.variant,
                        workers: self.workers,
                        memory_mb: MEMORY_MB,
                        batches: vec![slice_cols(&pool, lo, lo + width)],
                    },
                    expected: slice_cols(&pool_out, lo, lo + width),
                }
            })
            .collect()
    }

    fn build_service(&self, dnn: &Arc<SparseDnn>) -> FsdService {
        ServiceBuilder::new(dnn.clone())
            .config(pin::scaled_engine())
            .weight_streaming(self.cold)
            .warm_pool(2, u64::MAX)
            .build()
    }

    /// Builds, stages and (for the warm workload) pre-warms one service,
    /// timing each step.
    fn set_up(
        &self,
        dnn: &Arc<SparseDnn>,
        tracer: &mut Tracer,
        id: u64,
        times: &mut SetupTimes,
    ) -> Result<FsdService, String> {
        let started = Instant::now();
        let svc = tracer.span("setup", id, |t| {
            let svc = t.span("core.build", id, |_| self.build_service(dnn));
            let t0 = Instant::now();
            t.span("partition.prepare", id, |_| svc.prepare(self.workers));
            times.prepare.push(t0.elapsed().as_secs_f64());
            if !self.cold {
                let t0 = Instant::now();
                t.span("core.prewarm_tree", id, |_| {
                    svc.prewarm_tree(self.variant, self.workers, MEMORY_MB)
                })
                .map_err(|e| format!("prewarm_tree: {e}"))?;
                times.prewarm.push(t0.elapsed().as_secs_f64());
            }
            Ok::<_, String>(svc)
        })?;
        times.total.push(started.elapsed().as_secs_f64());
        Ok(svc)
    }

    /// Runs the workload.
    pub fn run(&self, seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
        let mut report = Report::default();
        let dnn = Arc::new(generate_dnn(&DnnSpec::scaled(
            self.neurons,
            sub_seed(seed, 1),
        )));
        let requests = self.build_requests(&dnn, seed);
        // The pool shortcut must agree with a direct oracle call.
        report.check(
            dnn.serial_inference(&requests[0].batch.batches[0]) == requests[0].expected,
            || "sliced pool oracle differs from the direct oracle".into(),
        );

        let mut tracer = Tracer::new(trace);
        let mut times = SetupTimes::default();
        let mut service = None;
        for rep in 0..SETUP_REPS {
            // Drop the previous service first: its parked tree is torn
            // down outside the timed span.
            drop(service.take());
            service = Some(self.set_up(&dnn, &mut tracer, rep as u64, &mut times)?);
        }
        let svc = service.expect("SETUP_REPS >= 1");
        if let Err(e) = pin::check(self.name, svc.config()) {
            report.failures.push(e);
        }

        let mut s = Runner {
            spec: self,
            svc: &svc,
            requests: &requests,
            ledger: Ledger::default(),
            report,
        };
        let mut untraced = Tracer::new(false);
        // One untimed request before the baseline: a pre-warmed tree's
        // workers load their weights in the background, billed to the
        // unattributed flow, after `prewarm_tree` returns; the first
        // request waits for them, so the meters are quiescent after it.
        s.phase(&mut untraced, WARMUP, 1, 0.0, &mut || Ok(()))?;
        s.ledger = Ledger::default();
        let base = Baseline::take(&svc);
        // The untraced phase: at least one full pass and `seconds` of wall
        // time (a traced run makes exactly one pass, its reference).
        let min_seconds = if trace { 0.0 } else { seconds };
        let (mut last_setup, mut id) = (Instant::now(), SETUP_REPS as u64);
        let mut sample_setup = || {
            if last_setup.elapsed().as_secs_f64() >= SETUP_EVERY_S {
                // Timed, then dropped (joining its threads) untimed.
                self.set_up(&dnn, &mut Tracer::new(false), id, &mut times)?;
                (last_setup, id) = (Instant::now(), id + 1);
            }
            Ok(())
        };
        let untraced_windows = s.phase(
            &mut untraced,
            MEASURED,
            self.requests,
            min_seconds,
            &mut sample_setup,
        )?;
        let pool = svc.warm_pool_stats().unwrap_or_default();
        let traced_windows = if trace {
            s.phase(&mut tracer, TRACED, self.requests / 2, 0.0, &mut || Ok(()))?
        } else {
            Vec::new()
        };
        let Runner {
            ledger, mut report, ..
        } = s;

        // Billing partition over the measured phases, then teardown audit.
        let billed = base.billed_since(&svc);
        report.check(billed == (ledger.billed_comm, ledger.billed_lambda), || {
            format!(
                "global meters less the failed-attempt bill {billed:?} != Σ request \
                 reports {:?}",
                (ledger.billed_comm, ledger.billed_lambda)
            )
        });
        svc.invalidate_warm_trees();
        audit(&svc, &mut report);

        self.report_end_to_end(&ledger, &untraced_windows, &times.total, &mut report)?;
        if trace {
            report.set(
                "partition.prepare_s",
                stats::median(&times.prepare),
                times.prepare.len(),
            );
            if !times.prewarm.is_empty() {
                report.set(
                    "core.prewarm_s",
                    stats::median(&times.prewarm),
                    times.prewarm.len(),
                );
            }
            self.report_layers(&dnn, &svc, &ledger, &mut report);
            report.set(
                "core.pool_misses",
                (pool.misses - base.pool.misses) as f64,
                self.requests,
            );
            let traced: usize = traced_windows.iter().map(|w| w.0).sum();
            report.set(
                "core.submit_host_ms_per_query",
                tracer.total_us("core.submit_batched") / 1e3 / traced as f64,
                traced,
            );
            let overhead =
                100.0 * (window_rps(&untraced_windows) / window_rps(&traced_windows) - 1.0);
            report.set("trace.overhead_pct", overhead, traced_windows.len());

            let layers = FullLayers::new(&dnn);
            let mut probes = Probes::default();
            for (i, req) in requests.iter().enumerate() {
                let id = PROBE_IDS + i as u64;
                let probed = tracer.span("probe", id, |t| {
                    probes.probe(t, id, &layers, &req.batch.batches[0], &req.expected)
                });
                if let Err(e) = probed {
                    report.failures.push(e);
                }
            }
            probes.report(&tracer, &mut report);
        }
        write_outputs(
            self.name,
            seed,
            &tracer,
            &self.digest(seed, &ledger),
            &mut report,
        )?;
        Ok(report)
    }

    fn report_end_to_end(
        &self,
        ledger: &Ledger,
        windows: &[Window],
        setup_s: &[f64],
        report: &mut Report,
    ) -> Result<(), String> {
        let recs = &ledger.records;
        let n = recs.len();
        let latency_ms: Vec<f64> = recs.iter().map(|r| r.latency_us as f64 / 1e3).collect();
        let p50 = percentile(&latency_ms, 50.0)?;
        let p90 = percentile(&latency_ms, 90.0)?;
        report.set("virt_latency_p50_ms", p50.value, p50.n);
        report.set("virt_latency_p90_ms", p90.value, p90.n);
        // One client, closed loop: a single slot, every request ready when
        // the previous one finishes.
        let groups: Vec<stats::Group> = recs
            .iter()
            .map(|r| stats::Group {
                members: vec![(0, r.latency_us)],
            })
            .collect();
        let schedule = stats::list_schedule(&groups, 1);
        report.set(
            "virt_throughput_rps",
            n as f64 / (schedule.makespan_us as f64 / 1e6),
            n,
        );
        let usd: f64 = recs.iter().map(|r| r.usd).sum();
        report.set("usd_per_1k_queries", 1000.0 * usd / n as f64, n);
        report.set(
            "success_pct",
            100.0 * (report.attempted - report.failed) as f64 / report.attempted.max(1) as f64,
            report.attempted as usize,
        );
        report.set("host_rps", window_rps(windows), windows.len());
        let cpu: Vec<f64> = windows.iter().map(|w| 1e3 * w.2 / w.0 as f64).collect();
        report.set("host_cpu_ms_per_query", stats::median(&cpu), cpu.len());
        report.set("setup_s", stats::median(setup_s), setup_s.len());
        report.notes.push(format!(
            "virtual metrics over the first pass: {n} requests, widths {}..={}; host metrics \
             over {} windows of {WINDOW} requests (req/s {:.2?}); set-up s {setup_s:.3?}",
            self.widths.0,
            self.widths.1,
            windows.len(),
            windows.iter().map(|w| w.0 as f64 / w.1).collect::<Vec<_>>(),
        ));
        Ok(())
    }

    fn report_layers(
        &self,
        dnn: &SparseDnn,
        svc: &FsdService,
        ledger: &Ledger,
        report: &mut Report,
    ) {
        let part = svc.partition(self.workers);
        let plan = CommPlan::build(dnn, &part);
        report.set("partition.row_sends", plan.total_row_sends() as f64, 1);
        report.set("partition.pairs", plan.total_pairs() as f64, 1);
        let weights = Hypergraph::from_dnn(dnn);
        report.set(
            "partition.imbalance",
            part.imbalance(weights.vertex_weights()),
            1,
        );

        let recs = &ledger.records;
        let n = recs.len();
        let per_query: [PerQuery; 14] = [
            ("comm.wire_mb_per_query", |r| {
                (r.client.bytes_sent + r.client.s3_bytes_put + r.client.direct_bytes) as f64 / 1e6
            }),
            ("comm.sns_publishes_per_query", |r| {
                r.comm.sns_publish_requests as f64
            }),
            ("comm.sqs_calls_per_query", |r| r.comm.sqs_api_calls as f64),
            ("comm.s3_puts_per_query", |r| r.comm.s3_put_requests as f64),
            ("comm.s3_gets_per_query", |r| r.comm.s3_get_requests as f64),
            ("comm.s3_lists_per_query", |r| {
                r.comm.s3_list_requests as f64
            }),
            ("comm.weight_mb_per_query", |r| {
                r.comm.weight_bytes as f64 / 1e6
            }),
            ("comm.retries_per_query", |r| r.client.retries as f64),
            ("faas.invocations_per_query", |r| {
                r.lambda.invocations as f64
            }),
            ("faas.gb_s_per_query", |r| {
                r.lambda.mb_ms as f64 / 1024.0 / 1000.0
            }),
            ("core.rank_skew_ms", |r| r.rank_skew_us as f64 / 1e3),
            ("core.rank_busy_pct", |r| 100.0 * r.rank_busy),
            ("core.warm_hit_pct", |r| if r.warm { 100.0 } else { 0.0 }),
            ("core.work_units_per_query", |r| r.work_done as f64),
        ];
        for (name, f) in per_query {
            report.set(name, recs.iter().map(f).sum::<f64>() / n.max(1) as f64, n);
        }
        let peak = recs.iter().map(|r| r.peak_mem_bytes).max().unwrap_or(0);
        report.set("faas.peak_mem_mb", peak as f64 / (1024.0 * 1024.0), n);
        let (empty, calls) = recs.iter().fold((0, 0), |(e, c), r| {
            (e + r.comm.sqs_empty_polls, c + r.comm.sqs_api_calls)
        });
        report.set(
            "comm.sqs_empty_poll_pct",
            100.0 * empty as f64 / calls.max(1) as f64,
            n,
        );
    }

    /// One line per first-pass request: its virtual footprint, for exact
    /// diffs between runs.
    fn digest(&self, seed: u64, ledger: &Ledger) -> String {
        let mut out = String::from(
            "# seed\tindex\twidth\tlatency_us\tsqs_calls\tsns_publishes\ts3_puts\ts3_gets\t\
             s3_lists\tinvocations\toutput_fnv\n",
        );
        for (i, r) in ledger.records.iter().enumerate() {
            let _ = writeln!(
                out,
                "{seed}\t{i}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:016x}",
                r.width,
                r.latency_us,
                r.comm.sqs_api_calls,
                r.comm.sns_publish_requests,
                r.comm.s3_put_requests,
                r.comm.s3_get_requests,
                r.comm.s3_list_requests,
                r.lambda.invocations,
                r.output_fnv
            );
        }
        out
    }
}

/// Span-id namespaces (high 32 bits) of the phases of a run.
const MEASURED: u64 = 0;
const TRACED: u64 = 1;
const WARMUP: u64 = 2;

/// A measured service and what its requests have produced so far.
struct Runner<'a> {
    spec: &'a ClosedLoop,
    svc: &'a FsdService,
    requests: &'a [Request],
    ledger: Ledger,
    report: Report,
}

impl Runner<'_> {
    /// Submits requests in list order (cycling) until at least `count`
    /// are done and `min_seconds` have passed, ending on a window
    /// boundary. Returns the host-time windows; `between` runs after each
    /// window, outside every window's timing. Requests of the first pass
    /// of the `MEASURED` phase are recorded.
    fn phase(
        &mut self,
        tracer: &mut Tracer,
        phase: u64,
        count: usize,
        min_seconds: f64,
        between: &mut dyn FnMut() -> Result<(), String>,
    ) -> Result<Vec<Window>, String> {
        let started = Instant::now();
        let mut windows = Vec::new();
        let mut window_start = (Instant::now(), sys::cpu_seconds());
        let (mut done, mut in_window) = (0usize, 0usize);
        loop {
            let index = done % self.requests.len();
            let record = phase == MEASURED && done < self.requests.len();
            self.submit(tracer, (phase << 32) | done as u64, index, record);
            done += 1;
            in_window += 1;
            if in_window < WINDOW && done != count {
                continue;
            }
            let now = (Instant::now(), sys::cpu_seconds());
            windows.push((
                in_window,
                now.0.duration_since(window_start.0).as_secs_f64(),
                now.1 - window_start.1,
            ));
            if done >= count && started.elapsed().as_secs_f64() >= min_seconds {
                return Ok(windows);
            }
            between()?;
            (window_start, in_window) = ((Instant::now(), sys::cpu_seconds()), 0);
        }
    }

    fn submit(&mut self, tracer: &mut Tracer, id: u64, index: usize, record: bool) {
        let (svc, req, cold) = (self.svc, &self.requests[index], self.spec.cold);
        let outcome = tracer.span("request", id, |t| {
            if cold {
                t.span("core.invalidate_warm_trees", id, |_| {
                    svc.invalidate_warm_trees()
                });
            }
            t.span("core.submit_batched", id, |_| {
                svc.submit_batched(&req.batch)
            })
        });
        self.report.attempted += 1;
        match outcome {
            Ok(r) => self.account(r, index, record),
            Err(e) => {
                self.report.failed += 1;
                self.report
                    .notes
                    .push(format!("request {index} failed: {e}"));
            }
        }
    }

    fn account(&mut self, r: InferenceReport, index: usize, record: bool) {
        let req = &self.requests[index];
        let want = if self.spec.cold {
            LaunchPath::ColdStart
        } else {
            LaunchPath::WarmHit
        };
        self.report.check(r.launch == want, || {
            format!(
                "request {index}: launch path {} instead of {want}",
                r.launch
            )
        });
        self.report
            .check(r.outputs.len() == 1 && r.outputs[0] == req.expected, || {
                format!("request {index}: output differs from the serial oracle")
            });
        let ledger = &mut self.ledger;
        ledger.billed_comm = ledger.billed_comm.plus(&r.comm);
        ledger.billed_lambda.invocations += r.lambda.invocations;
        ledger.billed_lambda.mb_ms += r.lambda.mb_ms;
        if !record {
            return;
        }
        let finished = r.per_worker.iter().map(|w| w.finished.as_micros());
        let rank_skew_us = finished.clone().max().unwrap_or(0) - finished.min().unwrap_or(0);
        let busy_us: u64 = r
            .per_worker
            .iter()
            .map(|w| w.finished.as_micros() - w.started.as_micros())
            .sum();
        let latency_us = r.latency.as_micros();
        ledger.records.push(Record {
            width: req.batch.batches[0].width(),
            latency_us,
            usd: r.cost_actual.total(),
            comm: r.comm,
            lambda: r.lambda,
            client: r.client,
            rank_skew_us,
            rank_busy: busy_us as f64
                / (r.per_worker.len().max(1) as f64 * latency_us.max(1) as f64),
            peak_mem_bytes: r
                .per_worker
                .iter()
                .map(|w| w.peak_mem_bytes)
                .max()
                .unwrap_or(0),
            work_done: r.work_done,
            warm: r.launch == LaunchPath::WarmHit,
            output_fnv: output_digest(&r.outputs),
        });
    }
}

/// Median requests per wall second over the windows.
pub fn window_rps(windows: &[Window]) -> f64 {
    let rps: Vec<f64> = windows.iter().map(|w| w.0 as f64 / w.1).collect();
    stats::median(&rps)
}
