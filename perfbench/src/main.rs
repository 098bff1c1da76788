//! Two-clock benchmark of the FSD-Inference serving stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload bulk-queue --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Every run checks each output against the serial oracle, the billing
//! partition and the post-run residue audit, then prints a report and, as
//! its last stdout line, one JSON object. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer metrics. Every run writes
//! a per-request virtual digest under `perfbench/out/`; a traced run also
//! writes a Chrome trace-event file there. Metric names, units and the
//! layer → end-to-end mapping are documented in `perfbench/METRICS.md`.

mod checks;
mod closed_loop;
mod cols;
mod fleet;
mod metrics;
mod pin;
mod probes;
mod spans;
mod stats;
mod sys;

use metrics::Report;
use std::process::ExitCode;

/// The workloads, by the name `--workload` takes.
const WORKLOADS: [&str; 3] = ["bulk-queue", "cold-object", "fleet-serving"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&s) {
                    return Err(format!("--seconds {s} is outside 0..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(25.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report: Result<Report, String> = match args.workload.as_str() {
        "bulk-queue" => closed_loop::BULK_QUEUE.run(args.seed, args.seconds, args.trace),
        "cold-object" => closed_loop::COLD_OBJECT.run(args.seed, args.seconds, args.trace),
        "fleet-serving" => fleet::run(args.seed, args.seconds, args.trace),
        _ => unreachable!("workload names are validated by parse_args"),
    };
    let mut report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    report.set("peak_rss_mb", sys::peak_rss_mib(), 1);
    report.print(&args.workload, args.seed, args.trace);
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
