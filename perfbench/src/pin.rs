//! The pinned simulated cloud.
//!
//! A virtual-time gain must come from the system, not from retuning the
//! modeled cloud. Each workload fingerprints the `EngineConfig` its
//! services were built with (latency model, compute model, channel
//! options, branching, partition scheme, seeds) together with the default
//! price book, and the run fails if the fingerprint differs from the one
//! recorded in `perfbench/cloud.pin`.

use crate::cols::fnv1a;
use fsd_core::cost::PriceBook;
use fsd_core::EngineConfig;
use fsd_faas::ComputeModel;

const PINNED: &str = include_str!("../cloud.pin");

/// Seed of the pinned simulated cloud (jitter stream and partitioner).
/// The run seed varies the model and the inputs, never the cloud.
pub const ENGINE_SEED: u64 = 42;

/// The engine configuration of the reduced-scale grid the bench bins use:
/// jitter-free region, and a compute rate lowered with the model size so
/// compute and communication keep the paper's proportions.
pub fn scaled_engine() -> EngineConfig {
    let mut cfg = EngineConfig::deterministic(ENGINE_SEED);
    cfg.compute = ComputeModel {
        units_per_sec_per_vcpu: 2.5e6,
        ..ComputeModel::default()
    };
    cfg
}

/// The fleet's cloud: the jitter-free region with the default compute
/// rate, as the `scheduler_throughput` bench's fleet axis uses.
pub fn fleet_engine() -> EngineConfig {
    EngineConfig::deterministic(ENGINE_SEED)
}

/// The fingerprinted text and its 64-bit FNV-1a digest.
pub fn fingerprint(cfg: &EngineConfig) -> (String, u64) {
    let text = format!("{cfg:?} {:?}", PriceBook::default());
    let digest = fnv1a(0xcbf2_9ce4_8422_2325, text.as_bytes());
    (text, digest)
}

/// Checks `cfg` against the digest pinned for `workload`.
pub fn check(workload: &str, cfg: &EngineConfig) -> Result<(), String> {
    let (text, digest) = fingerprint(cfg);
    let pinned = PINNED
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .find_map(|l| {
            let (name, hex) = l.split_once(char::is_whitespace)?;
            (name == workload).then(|| hex.trim().to_string())
        })
        .ok_or_else(|| format!("no cloud fingerprint pinned for {workload}"))?;
    let got = format!("{digest:016x}");
    if got == pinned {
        Ok(())
    } else {
        Err(format!(
            "{workload}: simulated cloud changed (fingerprint {got}, pinned {pinned}): {text}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_workloads_clouds_match_the_pinned_fingerprints() {
        check("bulk-queue", &scaled_engine()).unwrap();
        let mut cold = scaled_engine();
        cold.stream_weights = true;
        check("cold-object", &cold).unwrap();
        check("fleet-serving", &fleet_engine()).unwrap();
    }

    #[test]
    fn a_retuned_cloud_is_refused() {
        let mut cfg = scaled_engine();
        cfg.cloud.latency.sqs_poll_us += 1;
        let err = check("bulk-queue", &cfg).unwrap_err();
        assert!(err.contains("simulated cloud changed"), "{err}");
        assert!(check("no-such-workload", &scaled_engine()).is_err());
    }
}
