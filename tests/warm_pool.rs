//! Warm-tree pool acceptance: warm hits must skip the launch bill while
//! producing byte-identical outputs; the pool must evict on TTL, bound its
//! shelf, survive worker death without wedging the scheduler, and keep
//! per-flow billing disjoint across tree reuse.

use fsd_inference::core::{FsdService, InferenceRequest, LaunchPath, ServiceBuilder, Variant};
use fsd_inference::model::{generate_dnn, generate_inputs, DnnSpec, InputSpec};
use fsd_inference::sched::{Priority, Scheduler, SchedulerConfig};
use fsd_sparse::SparseRows;
use std::sync::{Arc, Mutex, MutexGuard};

/// Serialized with the other engine suites: every request spawns real
/// worker threads.
static ENGINE_LOCK: Mutex<()> = Mutex::new(());

fn engine_guard() -> MutexGuard<'static, ()> {
    ENGINE_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn spec(seed: u64) -> DnnSpec {
    DnnSpec {
        neurons: 64,
        layers: 3,
        nnz_per_row: 8,
        bias: -0.25,
        clip: 32.0,
        seed,
    }
}

/// A pooled service plus one input batch and its serial ground truth.
fn pooled_service(
    seed: u64,
    max_trees: usize,
    idle_ttl: u64,
) -> (Arc<FsdService>, SparseRows, SparseRows) {
    let spec = spec(seed);
    let dnn = Arc::new(generate_dnn(&spec));
    let inputs = generate_inputs(spec.neurons, &InputSpec::scaled(10, seed));
    let expected = dnn.serial_inference(&inputs);
    let service = Arc::new(
        ServiceBuilder::new(dnn)
            .deterministic(seed)
            .warm_pool(max_trees, idle_ttl)
            .build(),
    );
    (service, inputs, expected)
}

fn request(inputs: &SparseRows, variant: Variant, workers: u32) -> InferenceRequest {
    InferenceRequest {
        variant,
        workers,
        memory_mb: 1769,
        inputs: inputs.clone(),
    }
}

#[test]
fn warm_hits_skip_launch_and_match_cold_outputs_on_both_channels() {
    let _guard = engine_guard();
    for (variant, seed) in [(Variant::Queue, 41), (Variant::Object, 42)] {
        let (service, inputs, expected) = pooled_service(seed, 4, u64::MAX);
        // Reference: the same request on an identically seeded pool-less
        // service, which launches a tree, runs it once and shuts it down.
        let poolless = {
            let dnn = Arc::new(generate_dnn(&spec(seed)));
            let service = ServiceBuilder::new(dnn).deterministic(seed).build();
            service
                .submit(&request(&inputs, variant, 3))
                .expect("pool-less run")
        };
        let cold = service
            .submit(&request(&inputs, variant, 3))
            .expect("cold run");
        let warm = service
            .submit(&request(&inputs, variant, 3))
            .expect("warm run");

        assert_eq!(cold.launch, LaunchPath::ColdStart, "{variant}");
        assert_eq!(warm.launch, LaunchPath::WarmHit, "{variant}");
        // Identical outputs across all three paths, equal to ground truth.
        assert_eq!(cold.first_output(), &expected, "{variant}");
        assert_eq!(warm.outputs, cold.outputs, "{variant}");
        // A pool-less request is a pooled cold start that is shut down
        // instead of parked: its report is the cold report, field by field.
        assert_eq!(poolless.launch, LaunchPath::ColdStart, "{variant}");
        assert_eq!(poolless.latency, cold.latency, "{variant}");
        assert_eq!(poolless.per_worker, cold.per_worker, "{variant}");
        assert_eq!(poolless.comm, cold.comm, "{variant}");
        assert_eq!(poolless.lambda, cold.lambda, "{variant}");
        assert_eq!(poolless.client, cold.client, "{variant}");
        assert_eq!(poolless.cost_actual, cold.cost_actual, "{variant}");
        assert_eq!(poolless.cost_predicted, cold.cost_predicted, "{variant}");
        assert_eq!(poolless.work_done, cold.work_done, "{variant}");
        assert_eq!(poolless.outputs, cold.outputs, "{variant}");
        // The cold path pays the launch bill (coordinator + P workers); the
        // warm path invokes nothing.
        assert_eq!(cold.lambda.invocations, 4, "{variant}");
        assert_eq!(warm.lambda.invocations, 0, "{variant}");
        assert!(warm.lambda.mb_ms > 0, "{variant}: execution still bills");
        // And skips its latency: launch-to-first-output strictly below.
        assert!(
            warm.latency < cold.latency,
            "{variant}: warm {} must beat cold {}",
            warm.latency,
            cold.latency
        );
        // No leaked per-request resources on either path.
        assert_eq!(service.env().queue_count(), 0, "{variant}");
        assert_eq!(service.env().meter().tracked_flows(), 0, "{variant}");
        assert_eq!(
            service.platform().lambda_meter().tracked_flows(),
            0,
            "{variant}"
        );
    }
}

#[test]
fn warm_p50_is_strictly_below_cold_p50_under_the_deterministic_clock() {
    let _guard = engine_guard();
    let (service, inputs, _) = pooled_service(43, 2, u64::MAX);
    let req = request(&inputs, Variant::Queue, 3);
    let mut cold_us = Vec::new();
    let mut warm_us = Vec::new();
    for _ in 0..5 {
        // Invalidation forces the next request back onto the cold path.
        service.invalidate_warm_trees();
        let cold = service.submit(&req).expect("cold");
        assert_eq!(cold.launch, LaunchPath::ColdStart);
        cold_us.push(cold.latency.as_micros());
        let warm = service.submit(&req).expect("warm");
        assert_eq!(warm.launch, LaunchPath::WarmHit);
        warm_us.push(warm.latency.as_micros());
    }
    cold_us.sort_unstable();
    warm_us.sort_unstable();
    let (cold_p50, warm_p50) = (cold_us[cold_us.len() / 2], warm_us[warm_us.len() / 2]);
    assert!(
        warm_p50 < cold_p50,
        "warm p50 {warm_p50}µs must be strictly below cold p50 {cold_p50}µs"
    );
    // The deterministic clock makes every sample of a path identical.
    assert_eq!(cold_us.first(), cold_us.last());
    assert_eq!(warm_us.first(), warm_us.last());
}

#[test]
fn idle_ttl_evicts_parked_trees() {
    let _guard = engine_guard();
    // TTL of 2 pool ticks (checkout attempts).
    let (service, inputs, _) = pooled_service(44, 4, 2);
    let queue_req = request(&inputs, Variant::Queue, 2);
    let object_req = request(&inputs, Variant::Object, 2);
    assert_eq!(
        service
            .submit(&queue_req)
            .expect("parks a queue tree")
            .launch,
        LaunchPath::ColdStart
    );
    // Three other-shape requests age the parked queue tree past its TTL.
    for _ in 0..3 {
        service.submit(&object_req).expect("object runs");
    }
    let stats = service.warm_pool_stats().expect("pool enabled");
    assert!(stats.evicted_ttl >= 1, "queue tree must age out: {stats:?}");
    assert_eq!(
        service.submit(&queue_req).expect("re-launches").launch,
        LaunchPath::ColdStart,
        "an evicted tree cannot serve a warm hit"
    );
}

#[test]
fn full_shelf_evicts_the_lru_shape_instead_of_rejecting_the_checkin() {
    let _guard = engine_guard();
    // Shelf of one: a checkin on a full shelf evicts the
    // least-recently-used shape to park the (hotter) incoming tree.
    let (service, inputs, _) = pooled_service(45, 1, u64::MAX);
    let queue_req = request(&inputs, Variant::Queue, 2);
    let object_req = request(&inputs, Variant::Object, 2);
    service.submit(&queue_req).expect("queue parks");
    // The object tree's checkin finds the shelf full: the parked queue
    // tree (LRU shape) is evicted and the object tree parks.
    service.submit(&object_req).expect("object cold");
    let stats = service.warm_pool_stats().expect("pool enabled");
    assert_eq!(stats.evicted_lru, 1, "{stats:?}");
    assert_eq!(stats.idle, 1);
    // …so the recently used shape is warm and the evicted one is cold.
    assert_eq!(
        service.submit(&object_req).expect("object again").launch,
        LaunchPath::WarmHit
    );
    assert_eq!(
        service.submit(&queue_req).expect("queue again").launch,
        LaunchPath::ColdStart
    );
}

#[test]
fn lru_under_pressure_evicts_the_least_recently_used_shape() {
    let _guard = engine_guard();
    // Shelf of two, three shapes. Use order: Q2, O2, then Q3. At Q3's
    // checkin the shelf holds {Q2, O2}; Q2 is the least recently used
    // shape, so it is the victim — O2 and Q3 stay warm.
    let (service, inputs, _) = pooled_service(48, 2, u64::MAX);
    let q2 = request(&inputs, Variant::Queue, 2);
    let o2 = request(&inputs, Variant::Object, 2);
    let q3 = request(&inputs, Variant::Queue, 3);
    service.submit(&q2).expect("q2 parks");
    service.submit(&o2).expect("o2 parks");
    service.submit(&q3).expect("q3 evicts the LRU shape");
    let stats = service.warm_pool_stats().expect("pool enabled");
    assert_eq!(stats.evicted_lru, 1, "{stats:?}");
    assert_eq!(stats.idle, 2);
    assert_eq!(service.warm_idle_trees(Variant::Queue, 2, 1769), 0);
    assert_eq!(service.warm_idle_trees(Variant::Object, 2, 1769), 1);
    assert_eq!(service.warm_idle_trees(Variant::Queue, 3, 1769), 1);
    assert_eq!(
        service.submit(&o2).expect("o2 again").launch,
        LaunchPath::WarmHit
    );
    assert_eq!(
        service.submit(&q3).expect("q3 again").launch,
        LaunchPath::WarmHit
    );
    assert_eq!(
        service.submit(&q2).expect("q2 again").launch,
        LaunchPath::ColdStart,
        "the LRU shape was evicted"
    );
}

#[test]
fn wall_clock_reaper_evicts_by_real_idle_time_with_an_injected_clock() {
    let _guard = engine_guard();
    use fsd_inference::core::ManualClock;
    let spec = spec(49);
    let dnn = Arc::new(generate_dnn(&spec));
    let inputs = generate_inputs(spec.neurons, &InputSpec::scaled(10, 49));
    let clock = Arc::new(ManualClock::new());
    let service = ServiceBuilder::new(dnn)
        .deterministic(49)
        .warm_pool(4, u64::MAX)
        .warm_pool_wall_ttl(1_000)
        .warm_pool_clock(clock.clone())
        .build();
    let req = request(&inputs, Variant::Queue, 2);
    service.submit(&req).expect("parks a tree");
    // Young tree: a reaper pass keeps it, and it still serves warm.
    assert_eq!(service.reap_warm_trees(), 0);
    assert_eq!(
        service.submit(&req).expect("warm").launch,
        LaunchPath::WarmHit
    );
    // Idle past the wall TTL: the reaper evicts it. The tick TTL is
    // u64::MAX, so only the wall-clock path can be responsible.
    clock.advance_ms(1_500);
    assert_eq!(service.reap_warm_trees(), 1);
    let stats = service.warm_pool_stats().expect("pool enabled");
    assert_eq!(stats.evicted_wall, 1, "{stats:?}");
    assert_eq!(stats.idle, 0);
    assert_eq!(
        service.submit(&req).expect("re-launches").launch,
        LaunchPath::ColdStart
    );
}

#[test]
fn background_reaper_evicts_without_explicit_reap_calls() {
    let _guard = engine_guard();
    use fsd_inference::core::ManualClock;
    use std::time::Duration;
    let spec = spec(50);
    let dnn = Arc::new(generate_dnn(&spec));
    let inputs = generate_inputs(spec.neurons, &InputSpec::scaled(10, 50));
    // The injected manual clock controls *aging*; the background thread
    // only controls *when passes run*, so the test is timing-tolerant:
    // nothing can be evicted before the clock is advanced, and after it
    // is, some pass within the polling horizon must evict.
    let clock = Arc::new(ManualClock::new());
    let service = ServiceBuilder::new(dnn)
        .deterministic(50)
        .warm_pool(4, u64::MAX)
        .warm_pool_wall_ttl(100)
        .warm_pool_clock(clock.clone())
        .background_reaper(Duration::from_millis(5))
        .build();
    let req = request(&inputs, Variant::Queue, 2);
    service.submit(&req).expect("parks a tree");
    std::thread::sleep(Duration::from_millis(30));
    assert_eq!(
        service.warm_pool_stats().expect("pool").evicted_wall,
        0,
        "a frozen clock must never age trees"
    );
    clock.advance_ms(500);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        if service.warm_pool_stats().expect("pool").evicted_wall >= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "background reaper never ran: {:?}",
            service.warm_pool_stats()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(service.warm_pool_stats().expect("pool").idle, 0);
}

#[test]
fn dead_worker_evicts_the_tree_without_wedging_the_scheduler() {
    let _guard = engine_guard();
    let (service, inputs, expected) = pooled_service(46, 4, u64::MAX);
    let sched = Scheduler::wrap(service.clone(), SchedulerConfig::default().global_cap(2));
    let req = || fsd_inference::core::BatchedRequest {
        variant: Variant::Queue,
        workers: 3,
        memory_mb: 1769,
        batches: vec![inputs.clone()],
    };
    // Park a tree, then arm a mid-request kill on one of its workers.
    sched
        .enqueue_default(Priority::Interactive, req())
        .expect("accepted")
        .wait()
        .expect("cold run parks the tree");
    assert!(
        service.inject_fault(FsdService::warm_worker_fault(Variant::Queue, 3, 1769, 1)),
        "a parked tree must match the injection shape"
    );
    // The next matching request loses worker 1 mid-request: the request
    // fails, the tree is evicted (not checked back in)…
    let err = sched
        .enqueue_default(Priority::Interactive, req())
        .expect("accepted")
        .wait()
        .expect_err("a dying instance must fail the request");
    let msg = err.to_string();
    assert!(
        msg.contains("terminated") || msg.contains("poisoned") || msg.contains("abort"),
        "unexpected failure detail: {msg}"
    );
    let stats = service.warm_pool_stats().expect("pool enabled");
    assert_eq!(stats.discarded_poisoned, 1, "{stats:?}");
    assert_eq!(stats.idle, 0, "the poisoned tree must not be re-shelved");
    // …the slot is released and the scheduler keeps serving: a fresh
    // request cold-launches a replacement tree and succeeds.
    assert_eq!(sched.inflight(), 0, "failure must release its slot");
    let recovered = sched
        .enqueue_default(Priority::Interactive, req())
        .expect("accepted")
        .wait()
        .expect("scheduler must keep serving after the eviction");
    assert_eq!(recovered.launch, LaunchPath::ColdStart);
    assert_eq!(recovered.first_output(), &expected);
    let sstats = sched.stats();
    assert_eq!(sstats.failed, 1);
    assert_eq!(sstats.completed, 2);
    assert_eq!(sstats.inflight, 0);
    // Even the failed request released its billing windows.
    assert_eq!(service.env().meter().tracked_flows(), 0);
    assert_eq!(service.platform().lambda_meter().tracked_flows(), 0);
    sched.shutdown();
    sched.drain();
}

#[test]
fn billing_stays_per_flow_disjoint_across_tree_reuse() {
    let _guard = engine_guard();
    let spec = spec(47);
    let dnn = Arc::new(generate_dnn(&spec));
    let inputs = generate_inputs(spec.neurons, &InputSpec::scaled(10, 47));
    let expected = dnn.serial_inference(&inputs);
    // Two pre-warmed trees: both concurrent requests hit warm.
    let service = Arc::new(
        ServiceBuilder::new(dnn)
            .deterministic(47)
            .warm_pool(2, u64::MAX)
            .prewarm_tree(Variant::Queue, 2, 1769)
            .prewarm_tree(Variant::Queue, 2, 1769)
            .build(),
    );
    let concurrent_round = || {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let service = service.clone();
                let inputs = inputs.clone();
                std::thread::spawn(move || {
                    service
                        .submit(&request(&inputs, Variant::Queue, 2))
                        .expect("warm run")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no panic"))
            .collect::<Vec<_>>()
    };
    // Warm-up round: two concurrent checkouts necessarily take distinct
    // trees, so afterwards both launch cascades have fully completed and
    // the invocation counter is quiescent.
    for report in concurrent_round() {
        assert_eq!(report.launch, LaunchPath::WarmHit);
    }
    let before = service.platform().lambda_snapshot();
    let reports = concurrent_round();
    let after = service.platform().lambda_snapshot();
    let mut windows_mb_ms = 0;
    for report in &reports {
        assert_eq!(report.launch, LaunchPath::WarmHit);
        assert_eq!(report.first_output(), &expected);
        assert_eq!(report.lambda.invocations, 0);
        assert!(report.lambda.mb_ms > 0, "request window bills to its flow");
        assert!(report.comm.sqs_api_calls > 0, "comm bills request-locally");
        windows_mb_ms += report.lambda.mb_ms;
    }
    // Warm hits add no invocations, and the global duration billing grew
    // by exactly the two disjoint request windows.
    assert_eq!(after.invocations, before.invocations);
    assert_eq!(after.mb_ms - before.mb_ms, windows_mb_ms);
    // Nothing leaked: all flow windows were released at teardown.
    assert_eq!(service.env().meter().tracked_flows(), 0);
    assert_eq!(service.platform().lambda_meter().tracked_flows(), 0);
    let stats = service.warm_pool_stats().expect("pool enabled");
    assert_eq!(stats.hits, 4);
    assert_eq!(stats.misses, 0);
    assert_eq!(stats.idle, 2, "both trees were checked back in");
}
