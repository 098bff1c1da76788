//! Cross-crate integration tests: every FSD-Inference variant must produce
//! the exact serial ground truth, limits must bind the way the paper
//! describes, and reports must be internally consistent.

use fsd_inference::comm::{CloudEnv, VirtualTime};
use fsd_inference::core::{
    ChannelOptions, ChannelProvider, ChannelRegistry, ChannelStats, FsdError, FsdService,
    FsiChannel, InferenceRequest, RecvTracker, ServiceBuilder, Tag, Variant,
};
use fsd_inference::faas::{FaasError, WorkerCtx};
use fsd_inference::model::{generate_dnn, generate_inputs, DnnSpec, InputSpec};
use fsd_inference::partition::PartitionScheme;
use fsd_inference::sparse::SparseRows;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

mod common;

/// Engine runs spawn many threads and rely on short real-time grace
/// periods inside the simulated services; running them concurrently with
/// other engine tests starves producers and inflates (virtual) waiting.
/// Serialize them.
static ENGINE_LOCK: Mutex<()> = Mutex::new(());

fn engine_guard() -> MutexGuard<'static, ()> {
    ENGINE_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn small_spec(seed: u64) -> DnnSpec {
    DnnSpec {
        neurons: 96,
        layers: 5,
        nnz_per_row: 8,
        bias: -0.25,
        clip: 32.0,
        seed,
    }
}

fn service_for(spec: &DnnSpec, seed: u64) -> (FsdService, fsd_inference::sparse::SparseRows) {
    let dnn = Arc::new(generate_dnn(spec));
    let inputs = generate_inputs(spec.neurons, &InputSpec::scaled(24, seed));
    (ServiceBuilder::new(dnn).deterministic(seed).build(), inputs)
}

#[test]
fn serial_variant_matches_ground_truth() {
    let _guard = engine_guard();
    let spec = small_spec(1);
    let (service, inputs) = service_for(&spec, 1);
    let expected = service.dnn().serial_inference(&inputs);
    let report = service
        .submit(&InferenceRequest {
            variant: Variant::Serial,
            workers: 1,
            memory_mb: 2048,
            inputs,
        })
        .expect("serial runs");
    assert_eq!(report.first_output(), &expected);
    assert_eq!(report.workers, 1);
    // Serial has no communication charges.
    assert_eq!(report.comm.sns_publish_requests, 0);
    assert_eq!(report.comm.sqs_api_calls, 0);
    assert_eq!(report.comm.s3_put_requests, 0);
}

#[test]
fn queue_variant_matches_ground_truth_at_various_p() {
    let _guard = engine_guard();
    let spec = small_spec(2);
    let (service, inputs) = service_for(&spec, 2);
    let expected = service.dnn().serial_inference(&inputs);
    for p in [2u32, 3, 6] {
        let report = service
            .submit(&InferenceRequest {
                variant: Variant::Queue,
                workers: p,
                memory_mb: 1536,
                inputs: inputs.clone(),
            })
            .unwrap_or_else(|e| panic!("queue P={p}: {e}"));
        assert_eq!(
            report.first_output(),
            &expected,
            "queue P={p} output mismatch"
        );
        assert_eq!(report.per_worker.len(), p as usize, "one report per worker");
        assert!(
            report.comm.sns_publish_requests > 0,
            "queue run must publish"
        );
        assert!(report.comm.sqs_api_calls > 0, "queue run must poll");
    }
}

#[test]
fn object_variant_matches_ground_truth_at_various_p() {
    let _guard = engine_guard();
    let spec = small_spec(3);
    let (service, inputs) = service_for(&spec, 3);
    let expected = service.dnn().serial_inference(&inputs);
    for p in [2u32, 4, 7] {
        let report = service
            .submit(&InferenceRequest {
                variant: Variant::Object,
                workers: p,
                memory_mb: 1536,
                inputs: inputs.clone(),
            })
            .unwrap_or_else(|e| panic!("object P={p}: {e}"));
        assert_eq!(
            report.first_output(),
            &expected,
            "object P={p} output mismatch"
        );
        assert!(report.comm.s3_put_requests > 0, "object run must PUT");
        assert!(report.comm.s3_list_requests > 0, "object run must LIST");
        // Queue services untouched by the object channel.
        assert_eq!(report.comm.sns_publish_requests, 0);
    }
}

#[test]
fn hybrid_variant_matches_ground_truth_at_various_p() {
    let _guard = engine_guard();
    let spec = small_spec(14);
    let (service, inputs) = service_for(&spec, 14);
    let expected = service.dnn().serial_inference(&inputs);
    for p in [2u32, 3, 5] {
        let report = service
            .submit(&InferenceRequest {
                variant: Variant::Hybrid,
                workers: p,
                memory_mb: 1536,
                inputs: inputs.clone(),
            })
            .unwrap_or_else(|e| panic!("hybrid P={p}: {e}"));
        assert_eq!(
            report.first_output(),
            &expected,
            "hybrid P={p} output mismatch"
        );
        assert_eq!(report.variant, Variant::Hybrid);
        assert!(
            report.comm.sns_publish_requests > 0,
            "hybrid control plane must publish"
        );
        assert_eq!(
            report.comm.s3_list_requests, 0,
            "hybrid receivers poll queues, never LIST"
        );
    }
}

/// The CI channel matrix runs this suite once per transport, selecting the
/// variant with `FSD_TEST_VARIANT` — ground truth, per-worker reporting
/// and flow-scoped cleanup must hold identically on every channel.
#[test]
fn env_selected_variant_matches_ground_truth() {
    let _guard = engine_guard();
    let variant = common::test_variant();
    let spec = small_spec(15);
    let (service, inputs) = service_for(&spec, 15);
    let expected = service.dnn().serial_inference(&inputs);
    for p in [2u32, 4] {
        let report = service
            .submit(&InferenceRequest {
                variant,
                workers: p,
                memory_mb: 1536,
                inputs: inputs.clone(),
            })
            .unwrap_or_else(|e| panic!("{variant} P={p}: {e}"));
        assert_eq!(
            report.first_output(),
            &expected,
            "{variant} P={p} output mismatch"
        );
        assert_eq!(report.per_worker.len(), p as usize);
        assert_eq!(report.variant, variant);
    }
    // Whatever the transport held on the region is gone after teardown.
    assert_eq!(service.env().queue_count(), 0, "{variant} leaked queues");
    assert_eq!(service.env().pubsub().subscription_count(0), 0);
    for i in 0..service.env().config().n_buckets {
        assert_eq!(
            service
                .env()
                .object_store()
                .object_count(&fsd_inference::comm::bucket_name(i)),
            0,
            "{variant} leaked objects in bucket {i}"
        );
    }
}

#[test]
fn all_variants_agree_with_each_other() {
    let _guard = engine_guard();
    let spec = small_spec(4);
    let (service, inputs) = service_for(&spec, 4);
    let serial = service
        .submit(&InferenceRequest {
            variant: Variant::Serial,
            workers: 1,
            memory_mb: 2048,
            inputs: inputs.clone(),
        })
        .expect("serial");
    let queue = service
        .submit(&InferenceRequest {
            variant: Variant::Queue,
            workers: 4,
            memory_mb: 1536,
            inputs: inputs.clone(),
        })
        .expect("queue");
    let object = service
        .submit(&InferenceRequest {
            variant: Variant::Object,
            workers: 4,
            memory_mb: 1536,
            inputs,
        })
        .expect("object");
    assert_eq!(serial.first_output(), queue.first_output());
    assert_eq!(queue.first_output(), object.first_output());
}

#[test]
fn random_partitioning_still_correct_but_ships_more() {
    let _guard = engine_guard();
    let spec = small_spec(5);
    let dnn = Arc::new(generate_dnn(&spec));
    let inputs = generate_inputs(spec.neurons, &InputSpec::scaled(24, 5));
    let expected = dnn.serial_inference(&inputs);

    let hgp_service = ServiceBuilder::new(dnn.clone()).deterministic(5).build();
    let rp_service = ServiceBuilder::new(dnn)
        .deterministic(5)
        .partition_scheme(PartitionScheme::Random)
        .build();

    let req = InferenceRequest {
        variant: Variant::Object,
        workers: 4,
        memory_mb: 1536,
        inputs,
    };
    let hgp = hgp_service.submit(&req).expect("hgp");
    let rp = rp_service.submit(&req).expect("rp");
    assert_eq!(hgp.first_output(), &expected);
    assert_eq!(rp.first_output(), &expected);
    assert!(
        hgp.client.s3_bytes_put < rp.client.s3_bytes_put,
        "HGP bytes {} should undercut RP bytes {}",
        hgp.client.s3_bytes_put,
        rp.client.s3_bytes_put
    );
}

#[test]
fn serial_oom_on_oversized_model() {
    let _guard = engine_guard();
    // A model whose CSR footprint (~170 MB) exceeds the serial instance's
    // memory — the paper's N=65536 case, where neither FSD-Inf-Serial nor
    // Sage-SL-Inf could load the model. The service's serial memory is
    // lowered to Lambda's 128 MB floor to keep the test fast; the model is
    // built structurally (diagonal layers) so the test stays cheap.
    use fsd_inference::model::SparseDnn;
    use fsd_inference::sparse::CsrMatrix;
    let n: usize = 1 << 21;
    let spec = DnnSpec {
        neurons: n,
        layers: 5,
        nnz_per_row: 1,
        bias: -0.3,
        clip: 32.0,
        seed: 6,
    };
    let layers: Vec<CsrMatrix> = (0..spec.layers)
        .map(|_| {
            CsrMatrix::new(
                n,
                n,
                (0..=n).collect(),
                (0..n as u32).collect(),
                vec![0.5f32; n],
            )
            .expect("diagonal layer is valid CSR")
        })
        .collect();
    let dnn = Arc::new(SparseDnn::new(spec, layers));
    let inputs = generate_inputs(64, &InputSpec::scaled(4, 6));
    let service = ServiceBuilder::new(dnn)
        .deterministic(6)
        .serial_memory_mb(128)
        .build();
    let res = service.submit(&InferenceRequest {
        variant: Variant::Serial,
        workers: 1,
        memory_mb: 128,
        inputs,
    });
    match res {
        Err(FsdError::OutOfMemory {
            used_bytes,
            limit_bytes,
        }) => {
            assert!(used_bytes > limit_bytes);
        }
        other => panic!("expected OOM, got {other:?}"),
    }
}

#[test]
fn timeout_kills_underprovisioned_runs() {
    let _guard = engine_guard();
    // Extremely slow compute model → the 15-minute virtual limit binds
    // (the paper hit this with FSD-Inf-Queue, N = 65536, P = 8).
    let spec = small_spec(7);
    let dnn = Arc::new(generate_dnn(&spec));
    let inputs = generate_inputs(spec.neurons, &InputSpec::scaled(24, 7));
    let compute = fsd_inference::faas::ComputeModel {
        units_per_sec_per_vcpu: 50.0, // pathologically slow
        ..Default::default()
    };
    let service = ServiceBuilder::new(dnn)
        .deterministic(7)
        .compute(compute)
        .build();
    let res = service.submit(&InferenceRequest {
        variant: Variant::Queue,
        workers: 2,
        memory_mb: 1536,
        inputs,
    });
    match res {
        Err(FsdError::Timeout { .. }) => {}
        other => panic!("expected timeout, got {other:?}"),
    }
}

#[test]
fn cost_model_validation_predicted_vs_actual() {
    let _guard = engine_guard();
    // §VI-F: application-side predicted charges vs service-side metered
    // charges must agree tightly for both channels.
    let spec = small_spec(8);
    let (service, inputs) = service_for(&spec, 8);
    for variant in [Variant::Queue, Variant::Object] {
        let report = service
            .submit(&InferenceRequest {
                variant,
                workers: 4,
                memory_mb: 1536,
                inputs: inputs.clone(),
            })
            .expect("runs");
        let err = report.cost_actual.relative_error(&report.cost_predicted);
        assert!(
            err < 0.02,
            "{variant}: predicted {:.6} vs actual {:.6} ({err:.3} rel err)",
            report.cost_predicted.total(),
            report.cost_actual.total()
        );
    }
}

#[test]
fn report_latency_covers_all_workers() {
    let _guard = engine_guard();
    let spec = small_spec(9);
    let (service, inputs) = service_for(&spec, 9);
    let report = service
        .submit(&InferenceRequest {
            variant: Variant::Object,
            workers: 3,
            memory_mb: 1536,
            inputs,
        })
        .expect("runs");
    for w in &report.per_worker {
        assert!(
            w.finished <= report.latency,
            "worker {} finished after latency",
            w.rank
        );
        assert!(w.started < w.finished);
        assert!(w.billed_ms > 0);
    }
    assert!(report.per_sample_ms() > 0.0);
    assert!(report.avg_worker_runtime_s() > 0.0);
    assert!(report.work_done > 0);
    // Latency is anchored at the request's explicit arrival time.
    assert_eq!(report.arrival, fsd_inference::comm::VirtualTime::ZERO);
}

/// Wraps a built-in channel and records, per sending rank, the latest
/// send fence it handed back.
struct FenceRecorder {
    inner: Arc<dyn FsiChannel>,
    fences: Arc<Mutex<HashMap<u32, VirtualTime>>>,
}

impl FsiChannel for FenceRecorder {
    fn stats(&self) -> &ChannelStats {
        self.inner.stats()
    }

    fn teardown(&self) {
        self.inner.teardown();
    }

    fn send_layer(
        &self,
        ctx: &mut WorkerCtx,
        tag: Tag,
        src: u32,
        sends: &[(u32, SparseRows)],
    ) -> Result<VirtualTime, FaasError> {
        let fence = self.inner.send_layer(ctx, tag, src, sends)?;
        let mut fences = self.fences.lock().unwrap_or_else(|p| p.into_inner());
        let last = fences.entry(src).or_insert(fence);
        *last = (*last).max(fence);
        Ok(fence)
    }

    fn receive_round(
        &self,
        ctx: &mut WorkerCtx,
        tag: Tag,
        me: u32,
        tracker: &mut RecvTracker,
    ) -> Result<Vec<(u32, SparseRows)>, FaasError> {
        self.inner.receive_round(ctx, tag, me, tracker)
    }
}

/// Provides [`FenceRecorder`]s over the built-in provider of the same name.
struct FenceRecorderProvider {
    inner: Arc<dyn ChannelProvider>,
    fences: Arc<Mutex<HashMap<u32, VirtualTime>>>,
}

impl ChannelProvider for FenceRecorderProvider {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn provision(
        &self,
        env: &Arc<CloudEnv>,
        n_workers: u32,
        opts: ChannelOptions,
        flow: u64,
    ) -> Arc<dyn FsiChannel> {
        Arc::new(FenceRecorder {
            inner: self.inner.provision(env, n_workers, opts, flow),
            fences: self.fences.clone(),
        })
    }
}

/// Sends overlap the local product, but no worker may finish before the
/// lanes of its last send have: every rank joins its fence before it
/// receives or returns.
#[test]
fn no_worker_finishes_before_its_last_send_fence() {
    let _guard = engine_guard();
    let variant = common::test_variant();
    let spec = small_spec(16);
    let dnn = Arc::new(generate_dnn(&spec));
    let inputs = generate_inputs(spec.neurons, &InputSpec::scaled(24, 16));
    let fences = Arc::new(Mutex::new(HashMap::new()));
    let name = variant.channel_name().expect("channel variant");
    let service = ServiceBuilder::new(dnn)
        .deterministic(16)
        .register_channel(Arc::new(FenceRecorderProvider {
            inner: ChannelRegistry::with_builtins()
                .get(name)
                .expect("built-in provider")
                .clone(),
            fences: fences.clone(),
        }))
        .build();
    let report = service
        .submit(&InferenceRequest {
            variant,
            workers: 4,
            memory_mb: 1536,
            inputs,
        })
        .unwrap_or_else(|e| panic!("{variant}: {e}"));
    let fences = fences.lock().unwrap_or_else(|p| p.into_inner());
    assert_eq!(report.per_worker.len(), 4);
    for w in &report.per_worker {
        let fence = fences
            .get(&w.rank)
            .unwrap_or_else(|| panic!("{variant}: rank {} never sent", w.rank));
        assert!(
            w.finished >= *fence,
            "{variant}: rank {} finished at {:?}, before its send fence {:?}",
            w.rank,
            w.finished,
            fence
        );
    }
}

#[test]
fn deterministic_reruns_under_deterministic_config() {
    let _guard = engine_guard();
    // Latency components driven by virtual time must reproduce across runs
    // (thread scheduling may alter poll batching; outputs and core compute
    // must not change).
    let spec = small_spec(10);
    let (service, inputs) = service_for(&spec, 10);
    let r1 = service
        .submit(&InferenceRequest {
            variant: Variant::Object,
            workers: 4,
            memory_mb: 1536,
            inputs: inputs.clone(),
        })
        .expect("first run");
    let r2 = service
        .submit(&InferenceRequest {
            variant: Variant::Object,
            workers: 4,
            memory_mb: 1536,
            inputs,
        })
        .expect("second run");
    assert_eq!(r1.first_output(), r2.first_output());
    assert_eq!(r1.work_done, r2.work_done);
    assert_eq!(r1.client.s3_puts, r2.client.s3_puts);
}

#[test]
fn service_recommendation_follows_model_size() {
    let _guard = engine_guard();
    // A small model that fits one instance comfortably -> Serial.
    let (service, _) = service_for(&small_spec(12), 12);
    let rec = service.recommend(4, 8);
    assert_eq!(rec.variant, Variant::Serial);
    assert!(rec.profile.model_bytes < 1024 * 1024);
    // Serial is forced for P <= 1 regardless of size.
    let rec1 = service.recommend(1, 8);
    assert_eq!(rec1.variant, Variant::Serial);
}

#[test]
fn auto_variant_runs_the_recommended_path() {
    let _guard = engine_guard();
    // §IV-C end to end: an Auto request on a small model resolves to
    // Serial, runs, and reports the resolved variant.
    let spec = small_spec(13);
    let (service, inputs) = service_for(&spec, 13);
    let expected = service.dnn().serial_inference(&inputs);
    let report = service
        .submit(&InferenceRequest {
            variant: Variant::Auto,
            workers: 4,
            memory_mb: 1536,
            inputs,
        })
        .expect("auto runs");
    assert_eq!(report.variant, service.recommend(4, 8).variant);
    assert_eq!(report.first_output(), &expected);
}

#[test]
fn larger_batches_cost_more_but_amortize_per_sample() {
    let _guard = engine_guard();
    let spec = small_spec(11);
    let dnn = Arc::new(generate_dnn(&spec));
    let small_in = generate_inputs(spec.neurons, &InputSpec::scaled(8, 11));
    let big_in = generate_inputs(spec.neurons, &InputSpec::scaled(64, 11));
    let service = ServiceBuilder::new(dnn).deterministic(11).build();
    let small = service
        .submit(&InferenceRequest {
            variant: Variant::Queue,
            workers: 3,
            memory_mb: 1536,
            inputs: small_in,
        })
        .expect("small");
    let big = service
        .submit(&InferenceRequest {
            variant: Variant::Queue,
            workers: 3,
            memory_mb: 1536,
            inputs: big_in,
        })
        .expect("big");
    // Cost comparison uses the byte-driven components only: empty-poll
    // counts can wobble by a few calls with real-thread timing, while byte
    // volumes are deterministic functions of the workload.
    assert!(
        big.client.bytes_sent > small.client.bytes_sent,
        "bigger batches must ship more bytes"
    );
    assert!(
        big.per_sample_ms() < small.per_sample_ms(),
        "batching must amortize: big {:.2} ms vs small {:.2} ms",
        big.per_sample_ms(),
        small.per_sample_ms()
    );
}
