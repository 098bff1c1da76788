//! The fleet-serving workload: a virtual-time replay of a seeded
//! multi-model burst trace through a manual-dispatch, continuously
//! batching `Scheduler` (`harness::replay_fleet`).
//!
//! Each pass builds four fresh services (warm pools, no pre-warm, so the
//! first request per shape takes the default cascade cold path) and
//! replays the same trace; the first pass gives the virtual metrics,
//! every pass one host-time sample and one set-up sample. The passes
//! repeat until `--seconds` have passed, which also shows how far the
//! launch path wobbles between identical replays.

use crate::checks::{audit, Baseline};
use crate::cols::{hstack, output_digest, slice_cols, sub_seed};
use crate::metrics::{write_outputs, Report};
use crate::probes::{FullLayers, Probes};
use crate::spans::{Tracer, PROBE_IDS};
use crate::stats::{self, percentile};
use crate::{pin, sys};
use fsd_comm::MeterSnapshot;
use fsd_core::cost::CostModel;
use fsd_core::{FsdService, ServiceBuilder};
use fsd_faas::LambdaSnapshot;
use fsd_model::{generate_dnn, generate_inputs, DnnSpec, InputSpec, SparseDnn};
use fsd_sched::harness::{self, FleetReplayReport};
use fsd_sched::{trace, BatchingConfig, Scheduler, SchedulerBuilder, SchedulerConfig};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

const MODELS: usize = 4;
const NEURONS: usize = 1024;
const ROUNDS: usize = 25;
const BURST: usize = 8;
const GAP_US: u64 = 400_000;
const GLOBAL_CAP: usize = 2;
/// Requests of the first pass the `sparse` probes run on.
const PROBED: usize = 100;
const MODEL_NAMES: [&str; MODELS] = ["m0", "m1", "m2", "m3"];

/// What the successful requests of one pass were billed, all models.
#[derive(Default)]
struct Billed {
    comm: MeterSnapshot,
    lambda: LambdaSnapshot,
    pool_hits: u64,
    pool_misses: u64,
}

fn build(dnns: &[Arc<SparseDnn>], prepare_s: &mut f64) -> (Scheduler, Vec<Arc<FsdService>>) {
    let mut builder = SchedulerBuilder::new(
        SchedulerConfig::default()
            .global_cap(GLOBAL_CAP)
            // Room for the whole trace: this workload measures coalescing,
            // not backpressure, so no request is refused.
            .queue_capacity(MODELS * ROUNDS * BURST)
            .manual()
            .batched(BatchingConfig::default()),
    );
    let mut services = Vec::new();
    for (name, dnn) in MODEL_NAMES.iter().zip(dnns) {
        let svc = Arc::new(
            ServiceBuilder::new(dnn.clone())
                .config(pin::fleet_engine())
                .warm_pool(16, u64::MAX)
                .build(),
        );
        // Offline staging for both tree shapes of the trace (P = 1, 2),
        // kept out of the replay as the paper stages a priori.
        let t0 = Instant::now();
        svc.prepare(2);
        svc.partition(1);
        *prepare_s += t0.elapsed().as_secs_f64();
        services.push(svc.clone());
        builder = builder.model(*name, svc);
    }
    (builder.build(), services)
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let mut report = Report::default();
    let dnns: Vec<Arc<SparseDnn>> = (0..MODELS)
        .map(|m| {
            Arc::new(generate_dnn(&DnnSpec::scaled(
                NEURONS,
                sub_seed(seed, 10 + m as u64),
            )))
        })
        .collect();
    let arrivals = trace::fleet(MODELS, ROUNDS, BURST, GAP_US, sub_seed(seed, 20));

    // The oracle: the replay harness generates each request's batch from
    // its (width, input seed); rebuild them, run each model's oracle once
    // over its requests side by side, and slice the outputs back.
    let inputs: Vec<_> = arrivals
        .iter()
        .map(|fa| {
            generate_inputs(
                NEURONS,
                &InputSpec::scaled(fa.arrival.width, fa.arrival.input_seed),
            )
        })
        .collect();
    let mut expected = vec![None; arrivals.len()];
    for (m, dnn) in dnns.iter().enumerate() {
        let mine: Vec<usize> = (0..arrivals.len())
            .filter(|&i| arrivals[i].model == m)
            .collect();
        let parts: Vec<_> = mine.iter().map(|&i| inputs[i].clone()).collect();
        let (stacked, offsets) = hstack(&parts);
        let out = dnn.serial_inference(&stacked);
        for (k, &i) in mine.iter().enumerate() {
            expected[i] = Some(slice_cols(&out, offsets[k], offsets[k] + parts[k].width()));
        }
    }
    let expected: Vec<_> = expected
        .into_iter()
        .map(|e| e.expect("every arrival targets a model"))
        .collect();
    report.check(
        dnns[arrivals[0].model].serial_inference(&inputs[0]) == expected[0],
        || "stacked oracle differs from the direct oracle".into(),
    );
    let expected_fnv: Vec<u64> = expected.iter().map(|e| output_digest([e])).collect();

    let mut tracer = Tracer::new(trace);
    let mut untraced = Tracer::new(false);
    let mut setup_s = Vec::new();
    let mut prepare_s = Vec::new();
    let mut windows: Vec<(usize, f64, f64)> = Vec::new();
    let mut cold_starts = Vec::new();
    let mut first: Option<(FleetReplayReport, Billed)> = None;
    let started = Instant::now();
    for pass in 0u64.. {
        let traced = trace && pass == 1;
        let tr = if traced { &mut tracer } else { &mut untraced };
        let t0 = Instant::now();
        let mut prepare = 0.0;
        let (sched, services) = tr.span("setup", pass, |_| build(&dnns, &mut prepare));
        setup_s.push(t0.elapsed().as_secs_f64());
        prepare_s.push(prepare);
        if pass == 0 {
            for svc in &services {
                if let Err(e) = pin::check("fleet-serving", svc.config()) {
                    report.failures.push(e);
                }
            }
        }
        let baselines: Vec<Baseline> = services.iter().map(|s| Baseline::take(s)).collect();

        let cpu0 = sys::cpu_seconds();
        let t0 = Instant::now();
        let replay = tr.span("sched.replay_fleet", pass, |_| {
            harness::replay_fleet(&sched, &MODEL_NAMES, &arrivals)
        });
        let wall = t0.elapsed().as_secs_f64();
        let cpu = sys::cpu_seconds() - cpu0;

        let completed = check_pass(&replay, &expected_fnv, &mut report);
        windows.push((completed, wall, cpu));
        cold_starts.push(replay.stats.cold_starts);
        let billed = check_billing(&replay, &services, &baselines, &mut report);
        drop(sched);
        for svc in &services {
            svc.invalidate_warm_trees();
            audit(svc, &mut report);
        }
        if pass == 0 {
            first = Some((replay, billed));
        }
        let enough = if trace {
            pass >= 1
        } else {
            started.elapsed().as_secs_f64() >= seconds
        };
        if enough {
            break;
        }
    }
    let (replay, billed) = first.expect("at least one pass");

    // End to end, virtual (first pass).
    let by_seq: HashMap<u64, (u64, u64)> = replay
        .outcomes
        .iter()
        .filter_map(|o| {
            let d = o.result.as_ref().ok()?;
            Some((o.seq, (o.arrival_us, d.latency_us)))
        })
        .collect();
    let completed = by_seq.len();
    let latency_ms: Vec<f64> = by_seq.values().map(|v| v.1 as f64 / 1e3).collect();
    let p50 = percentile(&latency_ms, 50.0)?;
    let p90 = percentile(&latency_ms, 90.0)?;
    report.set("virt_latency_p50_ms", p50.value, p50.n);
    report.set("virt_latency_p90_ms", p90.value, p90.n);
    let groups: Vec<stats::Group> = replay
        .admission_groups
        .iter()
        .map(|g| stats::Group {
            members: g.iter().filter_map(|s| by_seq.get(s).copied()).collect(),
        })
        .collect();
    let schedule = stats::list_schedule(&groups, GLOBAL_CAP);
    report.set(
        "virt_throughput_rps",
        completed as f64 / (schedule.makespan_us as f64 / 1e6),
        completed,
    );
    let usd = CostModel::default()
        .actual(&billed.lambda, &billed.comm)
        .total();
    report.set(
        "usd_per_1k_queries",
        1000.0 * usd / completed as f64,
        completed,
    );
    report.set(
        "success_pct",
        100.0 * (report.attempted - report.failed) as f64 / report.attempted.max(1) as f64,
        report.attempted as usize,
    );
    // End to end, host (one sample per pass).
    let rps: Vec<f64> = windows.iter().map(|w| w.0 as f64 / w.1).collect();
    let cpu_ms: Vec<f64> = windows.iter().map(|w| 1e3 * w.2 / w.0 as f64).collect();
    report.set("host_rps", stats::median(&rps), rps.len());
    report.set(
        "host_cpu_ms_per_query",
        stats::median(&cpu_ms),
        cpu_ms.len(),
    );
    report.set("setup_s", stats::median(&setup_s), setup_s.len());
    report.notes.push(format!(
        "{} requests per pass ({MODELS} models x {ROUNDS} rounds x burst {BURST}, \
         {} ms gap, cap {GLOBAL_CAP}); virtual metrics over the first pass's {completed} \
         completions; {} passes (req/s {:.2?}); cold starts per pass {cold_starts:?}",
        arrivals.len(),
        GAP_US / 1000,
        windows.len(),
        rps
    ));

    if trace {
        let n = completed.max(1) as f64;
        let c = &billed.comm;
        report.set(
            "partition.prepare_s",
            stats::median(&prepare_s),
            prepare_s.len(),
        );
        let per_query = [
            (
                "comm.wire_mb_per_query",
                (c.sns_delivered_bytes + c.s3_put_bytes + c.direct_bytes) as f64 / 1e6,
            ),
            (
                "comm.sns_publishes_per_query",
                c.sns_publish_requests as f64,
            ),
            ("comm.sqs_calls_per_query", c.sqs_api_calls as f64),
            ("comm.s3_puts_per_query", c.s3_put_requests as f64),
            ("comm.s3_gets_per_query", c.s3_get_requests as f64),
            ("comm.s3_lists_per_query", c.s3_list_requests as f64),
            ("comm.weight_mb_per_query", c.weight_bytes as f64 / 1e6),
            (
                "faas.invocations_per_query",
                billed.lambda.invocations as f64,
            ),
            (
                "faas.gb_s_per_query",
                billed.lambda.mb_ms as f64 / 1024.0 / 1000.0,
            ),
        ];
        for (name, total) in per_query {
            report.set(name, total / n, completed);
        }
        report.set(
            "comm.sqs_empty_poll_pct",
            100.0 * c.sqs_empty_polls as f64 / c.sqs_api_calls.max(1) as f64,
            completed,
        );
        let lookups = (billed.pool_hits + billed.pool_misses).max(1);
        report.set(
            "core.warm_hit_pct",
            100.0 * billed.pool_hits as f64 / lookups as f64,
            completed,
        );
        report.set("core.pool_misses", billed.pool_misses as f64, completed);

        let stats = &replay.stats;
        let groups = replay.admission_groups.len().max(1);
        report.set("sched.coalitions", stats.coalitions as f64, groups);
        report.set(
            "sched.coalition_size_mean",
            replay.admission_order.len() as f64 / groups as f64,
            groups,
        );
        report.set("sched.cold_starts", stats.cold_starts as f64, 1);
        let wobble =
            cold_starts.iter().max().unwrap_or(&0) - cold_starts.iter().min().unwrap_or(&0);
        report.set("sched.cold_starts_wobble", wobble as f64, cold_starts.len());
        report.set(
            "sched.rejected_pct",
            100.0 * replay.rejected.len() as f64 / arrivals.len() as f64,
            arrivals.len(),
        );
        report.set(
            "sched.slot_busy_pct",
            schedule.slot_busy_pct(GLOBAL_CAP),
            groups,
        );
        let waits_ms: Vec<f64> = schedule
            .queue_wait_us
            .iter()
            .map(|&w| w as f64 / 1e3)
            .collect();
        let wait = percentile(&waits_ms, 50.0)?;
        report.set("sched.queue_wait_p50_ms", wait.value, wait.n);
        report.set(
            "sched.replay_host_ms_per_query",
            tracer.total_us("sched.replay_fleet") / 1e3 / n,
            completed,
        );
        report.set("trace.overhead_pct", 100.0 * (rps[0] / rps[1] - 1.0), 2);

        let layers: Vec<FullLayers> = dnns.iter().map(|d| FullLayers::new(d)).collect();
        let mut probes = Probes::default();
        for (i, fa) in arrivals.iter().enumerate().take(PROBED) {
            let id = PROBE_IDS + i as u64;
            let probed = tracer.span("probe", id, |t| {
                probes.probe(t, id, &layers[fa.model], &inputs[i], &expected[i])
            });
            if let Err(e) = probed {
                report.failures.push(e);
            }
        }
        probes.report(&tracer, &mut report);
    }
    write_outputs(
        "fleet-serving",
        seed,
        &tracer,
        &digest(seed, &replay, &cold_starts),
        &mut report,
    )?;
    Ok(report)
}

/// Counts attempts and failures of one pass and checks every output
/// digest against the oracle's. Returns the completed count.
fn check_pass(replay: &FleetReplayReport, expected_fnv: &[u64], report: &mut Report) -> usize {
    report.attempted += (replay.outcomes.len() + replay.rejected.len()) as u64;
    report.failed += replay.rejected.len() as u64;
    let mut completed = 0;
    for o in &replay.outcomes {
        match &o.result {
            Ok(d) => {
                completed += 1;
                report.check(d.output_digest == expected_fnv[o.trace_index], || {
                    format!(
                        "fleet request {}: output differs from the serial oracle",
                        o.trace_index
                    )
                });
            }
            Err(e) => {
                report.failed += 1;
                report
                    .notes
                    .push(format!("fleet request {} failed: {e}", o.trace_index));
            }
        }
    }
    completed
}

/// Checks, per model, that the global meters grew by exactly the
/// per-request digests plus the failed-attempt bill, and returns the
/// successful requests' bill summed over the models.
fn check_billing(
    replay: &FleetReplayReport,
    services: &[Arc<FsdService>],
    baselines: &[Baseline],
    report: &mut Report,
) -> Billed {
    let mut billed = Billed::default();
    for (m, (svc, base)) in services.iter().zip(baselines).enumerate() {
        let (comm, lambda) = base.billed_since(svc);
        let mut digests = [0u64; 5];
        for o in replay.outcomes.iter().filter(|o| o.model == m) {
            if let Ok(d) = &o.result {
                digests[0] += d.sqs_api_calls;
                digests[1] += d.sns_publish_requests;
                digests[2] += d.s3_get_requests;
                digests[3] += d.s3_put_requests;
                digests[4] += d.invocations;
            }
        }
        let global = [
            comm.sqs_api_calls,
            comm.sns_publish_requests,
            comm.s3_get_requests,
            comm.s3_put_requests,
            lambda.invocations,
        ];
        report.check(digests == global, || {
            format!(
                "model {m}: global meters [sqs, sns, s3 get, s3 put, invocations] {global:?} \
                 != Σ request digests {digests:?} + failed-attempt bill"
            )
        });
        let pool = svc.warm_pool_stats().unwrap_or_default();
        billed.comm = billed.comm.plus(&comm);
        billed.lambda.invocations += lambda.invocations;
        billed.lambda.mb_ms += lambda.mb_ms;
        billed.pool_hits += pool.hits - base.pool.hits;
        billed.pool_misses += pool.misses - base.pool.misses;
    }
    billed
}

fn digest(seed: u64, replay: &FleetReplayReport, cold_starts: &[u64]) -> String {
    let mut out = format!(
        "# cold starts per pass: {cold_starts:?}\n\
         # seed\ttrace_index\tmodel\tseq\tarrival_us\tlaunch\tlatency_us\tsqs_calls\t\
         sns_publishes\ts3_puts\ts3_gets\tinvocations\toutput_fnv\n"
    );
    for o in &replay.outcomes {
        match &o.result {
            Ok(d) => {
                let _ = writeln!(
                    out,
                    "{seed}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:016x}",
                    o.trace_index,
                    o.model,
                    o.seq,
                    o.arrival_us,
                    d.launch,
                    d.latency_us,
                    d.sqs_api_calls,
                    d.sns_publish_requests,
                    d.s3_put_requests,
                    d.s3_get_requests,
                    d.invocations,
                    d.output_digest
                );
            }
            Err(e) => {
                let _ = writeln!(
                    out,
                    "{seed}\t{}\t{}\t{}\terror: {e}",
                    o.trace_index, o.model, o.seq
                );
            }
        }
    }
    out
}
