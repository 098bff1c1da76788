//! The metric registry, the run report and the files a run writes.
//!
//! The two tables below are the benchmark's contract with
//! `BENCHMARK.json`; a unit test keeps them in step. A workload sets the
//! metrics that apply to it; a per-layer metric of a layer the workload
//! does not exercise reads 0.

use crate::spans::{self, Tracer};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`. The `virt_` ones are on the
/// modeled cloud's virtual clock, the `host_` ones and `setup_s`,
/// `peak_rss_mb` on the host.
pub const END_TO_END: &[(&str, &str)] = &[
    ("virt_latency_p50_ms", "ms"),
    ("virt_latency_p90_ms", "ms"),
    ("virt_throughput_rps", "1/s"),
    ("usd_per_1k_queries", "usd"),
    ("success_pct", "%"),
    ("host_rps", "1/s"),
    ("host_cpu_ms_per_query", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, prefixed by the crate they describe: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sparse.encode_mib_s", "MiB/s"),
    ("sparse.compress_mib_s", "MiB/s"),
    ("sparse.decompress_mib_s", "MiB/s"),
    ("sparse.decode_mib_s", "MiB/s"),
    ("sparse.accumulate_ms_per_query", "ms"),
    ("sparse.compress_ratio", "ratio"),
    ("partition.prepare_s", "s"),
    ("partition.row_sends", "count"),
    ("partition.pairs", "count"),
    ("partition.imbalance", "ratio"),
    ("comm.wire_mb_per_query", "MB"),
    ("comm.sns_publishes_per_query", "count"),
    ("comm.sqs_calls_per_query", "count"),
    ("comm.sqs_empty_poll_pct", "%"),
    ("comm.s3_puts_per_query", "count"),
    ("comm.s3_gets_per_query", "count"),
    ("comm.s3_lists_per_query", "count"),
    ("comm.weight_mb_per_query", "MB"),
    ("comm.retries_per_query", "count"),
    ("faas.invocations_per_query", "count"),
    ("faas.gb_s_per_query", "GB-s"),
    ("faas.peak_mem_mb", "MiB"),
    ("core.prewarm_s", "s"),
    ("core.submit_host_ms_per_query", "ms"),
    ("core.rank_skew_ms", "ms"),
    ("core.rank_busy_pct", "%"),
    ("core.warm_hit_pct", "%"),
    ("core.pool_misses", "count"),
    ("core.work_units_per_query", "count"),
    ("sched.coalitions", "count"),
    ("sched.coalition_size_mean", "count"),
    ("sched.cold_starts", "count"),
    ("sched.cold_starts_wobble", "count"),
    ("sched.rejected_pct", "%"),
    ("sched.slot_busy_pct", "%"),
    ("sched.queue_wait_p50_ms", "ms"),
    ("sched.replay_host_ms_per_query", "ms"),
    ("trace.overhead_pct", "%"),
];

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    /// `name → (value, sample count)`.
    values: BTreeMap<&'static str, (f64, usize)>,
    /// Correctness failures (wrong output, broken billing partition,
    /// residue, changed cloud). Any entry fails the run.
    pub failures: Vec<String>,
    /// Requests attempted and failed (errored or rejected).
    pub attempted: u64,
    pub failed: u64,
    /// Free-form lines printed with the report (sample counts, files).
    pub notes: Vec<String>,
}

impl Report {
    /// Records metric `name` from `n` samples.
    ///
    /// # Panics
    /// If `name` is not registered: a typo must not become a silent 0.
    pub fn set(&mut self, name: &'static str, value: f64, n: usize) {
        assert!(unit_of(name).is_some(), "unregistered metric {name}");
        self.values.insert(name, (value, n));
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Prints the human-readable report, then the JSON result line.
    pub fn print(&self, workload: &str, seed: u64, trace: bool) {
        println!(
            "# perfbench {workload} seed={seed} trace={}",
            u8::from(trace)
        );
        for note in &self.notes {
            println!("# {note}");
        }
        for f in &self.failures {
            println!("# FAILED CHECK: {f}");
        }
        for (title, table) in [("end-to-end", END_TO_END), ("per-layer", PER_LAYER)] {
            println!("# {title}:");
            for (name, unit) in table {
                match self.values.get(name) {
                    Some((v, n)) => println!("#   {name:<34} {v:>14.4} {unit:<6} n={n}"),
                    None => println!("#   {name:<34} {:>14} {unit:<6} (not measured)", "-"),
                }
            }
        }
        let table = if trace { PER_LAYER } else { END_TO_END };
        println!("{}", self.json(table));
    }

    fn json(&self, table: &[(&str, &str)]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = self.values.get(name).map_or(0.0, |v| v.0);
            let value = if value.is_finite() { value } else { 0.0 };
            let _ = write!(
                out,
                "{}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " }
            );
        }
        out.push_str("}}");
        out
    }
}

/// Writes the per-request virtual digest and, for a traced run, the
/// Chrome trace under `perfbench/out/`.
pub fn write_outputs(
    workload: &str,
    seed: u64,
    tracer: &Tracer,
    digest: &str,
    report: &mut Report,
) -> Result<(), String> {
    let dir = std::path::Path::new("perfbench/out");
    let write = |name: String, contents: &str| {
        let path = dir.join(name);
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, contents))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        Ok::<_, String>(path.display().to_string())
    };
    let digest_path = write(format!("digest-{workload}-seed{seed}.tsv"), digest)?;
    report.notes.push(format!("wrote {digest_path}"));
    if tracer.spans().is_empty() {
        return Ok(());
    }
    let trace_path = write(
        format!("trace-{workload}-seed{seed}.json"),
        &spans::chrome_trace_json(tracer.spans(), workload),
    )?;
    let mut self_times: Vec<(&str, f64)> = spans::self_time_by_name(tracer.spans())
        .into_iter()
        .collect();
    self_times.sort_by(|a, b| b.1.total_cmp(&a.1));
    let listed: Vec<String> = self_times
        .iter()
        .map(|(name, us)| format!("{name} {:.1} ms", us / 1e3))
        .collect();
    report
        .notes
        .push(format!("span self time: {}", listed.join(", ")));
    report.notes.push(format!(
        "wrote {trace_path} ({} spans)",
        tracer.spans().len()
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn registry_matches_benchmark_json() {
        for (section, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let start = BENCHMARK_JSON
                .find(&format!("\"{section}\""))
                .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
            let body = &BENCHMARK_JSON[start..];
            let body = &body[..body.find(']').expect("section is a list")];
            for (name, unit) in table {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(body.contains(&entry), "{section} lacks {entry}");
            }
            assert_eq!(
                body.matches("\"name\"").count(),
                table.len(),
                "{section} lists metrics the benchmark does not report"
            );
        }
    }

    #[test]
    fn json_line_reports_every_metric_of_the_table() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.set("setup_s", 0.25, 3);
        let line = r.json(END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
        r.check(false, || "broken".into());
        assert!(r.json(PER_LAYER).starts_with("{\"correct\": false"));
    }

    #[test]
    #[should_panic(expected = "unregistered metric")]
    fn unknown_metric_names_are_refused() {
        Report::default().set("virt_latency_p99_ms", 1.0, 1);
    }
}
