//! [`FsdService`]: the thread-safe serving front end.
//!
//! Every request method takes `&self`, so one `Arc<FsdService>` can be
//! driven concurrently from many threads (λScale-style request-level
//! serving). The shared pieces are synchronized explicitly:
//!
//! * partition/staging caches live behind an `RwLock` (staged artifacts are
//!   immutable once written — concurrent requests only ever read them);
//! * the request counter is atomic and doubles as the **flow id** that
//!   namespaces all per-request service resources — input keys, queues,
//!   filter policies and object prefixes — so requests never share mutable
//!   channel state and nothing ever needs the old global
//!   `env.reset_channels()` wipe (which was a shared-state bug under
//!   concurrency);
//! * channels are provisioned per request through the
//!   [`ChannelRegistry`](crate::ChannelRegistry) and torn down when the
//!   request's worker tree has run its item.

use crate::artifacts::{stage_full_model, stage_inputs, stage_partitioned_model, ARTIFACT_BUCKET};
use crate::channel::FsiChannel;
use crate::cost::CostModel;
use crate::engine::{
    BatchedRequest, EngineConfig, InferenceReport, InferenceRequest, LaunchPath, Variant,
    WorkerReport,
};
use crate::error::FsdError;
use crate::health::{HealthBoard, HealthSnapshot};
use crate::pool::{SystemClock, TreePool, WallClock, WarmPoolConfig, WarmPoolStats};
use crate::provider::ChannelRegistry;
use crate::recommend::{self, Recommendation, WorkloadProfile};
use crate::stats::ChannelStatsSnapshot;
use crate::warm::{TreeKey, TreeParams, TreeRunOutput, WorkItem, WorkerTree};
use crate::weight_cache::WeightCache;
use crate::worker::run_serial;
use fsd_comm::{ApiClass, CloudEnv, FaultKind, MeterSnapshot, TargetedFault, VirtualTime};
use fsd_faas::{FaasError, FaasPlatform, FunctionConfig, LambdaSnapshot};
use fsd_model::SparseDnn;
use fsd_partition::{partition_model, CommPlan, Partition};
use fsd_sparse::codec;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Offline staging state shared by all requests (read-mostly).
#[derive(Default)]
struct StagedState {
    /// Whether the unpartitioned model artifacts are staged (Serial path).
    full_staged: bool,
    /// Partitions (and their communication plans) staged per worker
    /// count `P`.
    partitions: HashMap<u32, StagedPartition>,
}

/// One staged `P`-way partitioning: the partition plus the communication
/// plan built from it (cached so the recommender never rebuilds it on the
/// request path).
#[derive(Clone)]
struct StagedPartition {
    partition: Arc<Partition>,
    plan: Arc<CommPlan>,
}

/// The serving front end: owns the simulated region, the FaaS platform and
/// the staged model artifacts; accepts concurrent requests through `&self`.
///
/// Build one with [`ServiceBuilder`](crate::ServiceBuilder):
///
/// ```
/// use fsd_core::{InferenceRequest, ServiceBuilder, Variant};
/// use fsd_model::{generate_dnn, generate_inputs, DnnSpec, InputSpec};
/// use std::sync::Arc;
///
/// let spec = DnnSpec { neurons: 64, layers: 3, nnz_per_row: 8,
///                      bias: -0.2, clip: 32.0, seed: 1 };
/// let dnn = Arc::new(generate_dnn(&spec));
/// let inputs = generate_inputs(64, &InputSpec::scaled(8, 1));
/// let expected = dnn.serial_inference(&inputs);
///
/// let service = Arc::new(ServiceBuilder::new(dnn).deterministic(1).build());
/// let report = service
///     .submit(&InferenceRequest { variant: Variant::Queue, workers: 3, memory_mb: 1024, inputs })
///     .unwrap();
/// assert_eq!(report.first_output(), &expected);
/// ```
pub struct FsdService {
    env: Arc<CloudEnv>,
    platform: Arc<FaasPlatform>,
    dnn: Arc<SparseDnn>,
    cfg: EngineConfig,
    cost: CostModel,
    model_key: String,
    registry: ChannelRegistry,
    state: RwLock<StagedState>,
    /// Serializes offline staging so a (model, P) pair is partitioned and
    /// written exactly once; requests that find it staged never take this.
    stage_lock: Mutex<()>,
    /// Request counter; its successor is the request's flow id.
    requests: AtomicU64,
    /// The warm-tree pool (`ServiceBuilder::warm_pool`); `None` launches a
    /// tree per request and shuts it down after its one run. `Arc` so the
    /// background reaper thread can hold the pool without borrowing the
    /// service.
    pool: Option<Arc<TreePool>>,
    /// Per-transport error-rate scoreboard + circuit breakers; drives
    /// graceful degradation of [`Variant::Auto`] routing.
    health: HealthBoard,
    /// Whether a pool tree poisoned mid-request is immediately relaunched
    /// and re-parked (`ServiceBuilder::regenerate_poisoned`), billed to the
    /// unattributed flow like a pre-warm.
    regenerate_poisoned: bool,
    /// Process-wide weight-block cache for streamed cold starts
    /// (`EngineConfig::stream_weights`); idle — and never consulted —
    /// otherwise. Invalidated alongside the warm pool.
    weight_cache: Arc<WeightCache>,
    /// Bills accrued by request attempts that *failed* (AWS semantics:
    /// failed calls are billed). `finalize_report` folds each failed
    /// attempt's flow-scoped meters in here when it releases the flow, so
    /// the exact partition `global == Σ successful reports + failed bill`
    /// holds even under retries.
    failed_bill: Mutex<FailedAttemptBill>,
    /// The background wall-clock reaper, if one was requested; held only
    /// for its `Drop` (stop + join).
    _reaper: Option<Reaper>,
}

/// What failed request attempts have been billed service-wide: the comm
/// and Lambda meter totals harvested from failed attempts' flows. Together
/// with the per-request digests of successful reports this partitions the
/// global meters exactly — "failed attempts are billed; retries may add
/// calls but never double-count billing".
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FailedAttemptBill {
    /// Comm-service billing harvested from failed attempts' flows.
    pub comm: MeterSnapshot,
    /// Lambda billing harvested from failed attempts' flows.
    pub lambda: LambdaSnapshot,
}

/// A background thread that periodically [`TreePool::reap`]s idle trees
/// by wall-clock TTL. Stopped (condvar-signalled, then joined) when the
/// service drops, so a service never leaks its reaper.
struct Reaper {
    stop: Arc<(Mutex<bool>, parking_lot::Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Reaper {
    fn spawn(pool: Arc<TreePool>, interval: std::time::Duration) -> Reaper {
        let stop = Arc::new((Mutex::new(false), parking_lot::Condvar::new()));
        let stop_c = stop.clone();
        let handle = std::thread::spawn(move || loop {
            let (lock, cvar) = &*stop_c;
            let mut stopped = lock.lock();
            if !*stopped {
                cvar.wait_for(&mut stopped, interval);
            }
            if *stopped {
                return;
            }
            drop(stopped);
            pool.reap();
        });
        Reaper {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for Reaper {
    fn drop(&mut self) {
        let (lock, cvar) = &*self.stop;
        *lock.lock() = true;
        cvar.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl FsdService {
    pub(crate) fn assemble(
        dnn: Arc<SparseDnn>,
        cfg: EngineConfig,
        registry: ChannelRegistry,
        warm: Option<WarmPoolConfig>,
        clock: Option<Arc<dyn WallClock>>,
        reap_interval: Option<std::time::Duration>,
        regenerate_poisoned: bool,
    ) -> FsdService {
        let env = CloudEnv::new(cfg.cloud);
        let platform = FaasPlatform::new(env.clone(), cfg.compute);
        let clock = clock.unwrap_or_else(|| Arc::new(SystemClock::new()));
        let pool = warm
            .filter(|w| w.max_trees > 0)
            .map(|w| Arc::new(TreePool::new(w, clock)));
        let reaper = match (&pool, reap_interval) {
            (Some(pool), Some(interval)) => Some(Reaper::spawn(pool.clone(), interval)),
            _ => None,
        };
        FsdService {
            env,
            platform,
            dnn,
            cfg,
            cost: CostModel::default(),
            model_key: "model".to_string(),
            registry,
            state: RwLock::new(StagedState::default()),
            stage_lock: Mutex::new(()),
            requests: AtomicU64::new(0),
            pool,
            health: HealthBoard::new(),
            weight_cache: Arc::new(WeightCache::new()),
            failed_bill: Mutex::new(FailedAttemptBill::default()),
            regenerate_poisoned,
            _reaper: reaper,
        }
    }

    /// The simulated environment (inspection/tests).
    pub fn env(&self) -> &Arc<CloudEnv> {
        &self.env
    }

    /// The FaaS platform this service launches workers on
    /// (inspection/tests: lambda billing meters, flow leak checks).
    pub fn platform(&self) -> &Arc<FaasPlatform> {
        &self.platform
    }

    /// The model being served.
    pub fn dnn(&self) -> &Arc<SparseDnn> {
        &self.dnn
    }

    /// The configuration the service was built with.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The channel providers this service can route to.
    pub fn channel_names(&self) -> Vec<&'static str> {
        self.registry.names()
    }

    /// Requests accepted so far (diagnostics).
    pub fn requests_served(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// The service-wide weight-block cache streamed cold starts read
    /// through (inspection/tests; empty and idle unless
    /// [`EngineConfig::stream_weights`] is on).
    pub fn weight_cache(&self) -> &Arc<WeightCache> {
        &self.weight_cache
    }

    /// The request-independent launch parameters of a persistent tree of
    /// `n_workers × memory_mb` instances — the single construction point,
    /// so every launch path agrees on streaming mode and shares the one
    /// weight cache.
    fn tree_params(&self, n_workers: u32, memory_mb: u32) -> TreeParams {
        TreeParams {
            n_workers,
            branching: self.cfg.branching,
            memory_mb,
            model_key: self.model_key.clone(),
            spec: *self.dnn.spec(),
            stream: self.cfg.stream_weights,
            cache: self.weight_cache.clone(),
        }
    }

    /// The partition used for `P` workers (staging it if needed). `P ≤ 1`
    /// returns the degenerate 1-way partition.
    pub fn partition(&self, p: u32) -> Arc<Partition> {
        let p = p.max(1);
        self.ensure_partition(p);
        self.state.read().partitions[&p].partition.clone()
    }

    /// Offline step: partition for `P` workers and stage the artifacts.
    /// Idempotent and safe under concurrency; done "a priori, not per
    /// request" (paper §III). `p <= 1` stages the unpartitioned model
    /// (the Serial path).
    pub fn prepare(&self, p: u32) {
        if p <= 1 {
            if self.state.read().full_staged {
                return;
            }
            let _staging = self.stage_lock.lock();
            if self.state.read().full_staged {
                return;
            }
            stage_full_model(&self.env, &self.model_key, &self.dnn);
            self.state.write().full_staged = true;
            return;
        }
        self.ensure_partition(p);
    }

    /// Stages the `P`-way partition (any `P ≥ 1`) — the distributed paths
    /// need per-worker artifacts even for a degenerate one-worker tree.
    fn ensure_partition(&self, p: u32) {
        let p = p.max(1);
        if self.state.read().partitions.contains_key(&p) {
            return;
        }
        let _staging = self.stage_lock.lock();
        if self.state.read().partitions.contains_key(&p) {
            return;
        }
        let part = partition_model(&self.dnn, p as usize, self.cfg.scheme, self.cfg.seed);
        let plan = CommPlan::build(&self.dnn, &part);
        stage_partitioned_model(&self.env, &self.model_key, &self.dnn, &part, &plan);
        self.state.write().partitions.insert(
            p,
            StagedPartition {
                partition: Arc::new(part),
                plan: Arc::new(plan),
            },
        );
    }

    /// Recommends a variant for this model at parallelism `p`, from the
    /// Section IV-C rules: whether the model fits this service's Serial
    /// instance (`EngineConfig::serial_memory_mb`, Lambda's maximum by
    /// default), then estimated per-pair payload volume (plan rows ×
    /// typical row bytes) against the publish-quota bands
    /// (Queue → Hybrid → Object). Models that fit one instance skip the
    /// partitioning step entirely.
    pub fn recommend(&self, p: u32, est_bytes_per_row: usize) -> Recommendation {
        let model_bytes = self.dnn.mem_bytes();
        if p <= 1 || recommend::fits_instance(model_bytes, self.cfg.serial_memory_mb) {
            return Recommendation {
                variant: Variant::Serial,
                profile: WorkloadProfile {
                    model_bytes,
                    workers: p.max(1),
                    bytes_per_pair_layer: 0,
                },
            };
        }
        self.ensure_partition(p);
        let plan = self.state.read().partitions[&p].plan.clone();
        let pairs = plan.total_pairs().max(1);
        let bytes_per_pair_layer =
            (plan.total_row_sends() as usize * est_bytes_per_row) / pairs as usize;
        let profile = WorkloadProfile {
            model_bytes,
            workers: p,
            bytes_per_pair_layer,
        };
        // Serial eligibility was decided above against *this service's*
        // instance size; what remains is the volume-band choice.
        Recommendation {
            variant: recommend::channel_variant(bytes_per_pair_layer),
            profile,
        }
    }

    /// Runs one single-batch inference request end to end.
    pub fn submit(&self, req: &InferenceRequest) -> Result<InferenceReport, FsdError> {
        self.submit_batched(&BatchedRequest {
            variant: req.variant,
            workers: req.workers,
            memory_mb: req.memory_mb,
            batches: vec![req.inputs.clone()],
        })
    }

    /// Runs several successive batches through one worker tree (paper
    /// Fig. 1): the tree is launched once, weights are loaded once, and a
    /// barrier + reduce closes each batch.
    pub fn submit_batched(&self, req: &BatchedRequest) -> Result<InferenceReport, FsdError> {
        if req.batches.is_empty() {
            return Err(FsdError::EmptyRequest);
        }
        let resolved = self.resolve_variant(req);
        let p = if resolved == Variant::Serial {
            1
        } else {
            req.workers.max(1)
        };
        if resolved == Variant::Serial {
            self.prepare(1);
        } else {
            // Distributed paths read per-worker artifacts even when the
            // tree degenerates to one worker, so stage a partition for
            // any P ≥ 1.
            self.ensure_partition(p);
        }

        // The flow id namespaces everything this request touches.
        let flow = self.requests.fetch_add(1, Ordering::Relaxed) + 1;
        let input_key = format!("inputs/req{flow}");
        let partition = if resolved == Variant::Serial {
            None
        } else {
            Some(self.state.read().partitions[&p].partition.clone())
        };
        for (b, batch) in req.batches.iter().enumerate() {
            stage_inputs(
                &self.env,
                &format!("{input_key}/b{b}"),
                batch,
                partition.as_deref(),
            );
        }

        // Requests arrive at the origin of their own virtual timeline. The
        // billing window is the request's *flow*: every worker launched
        // below carries the flow on its clock, so the service meters bucket
        // this request's events separately from concurrent neighbors'
        // (offline staging uses unbilled writes and never shows up).
        let samples: usize = req.batches.iter().map(|b| b.width()).sum();
        let widths: Vec<usize> = req.batches.iter().map(|b| b.width()).collect();

        let launched = self.execute(resolved, p, req.memory_mb, &input_key, &widths, flow);
        self.finalize_report(resolved, p, samples, &input_key, flow, launched)
    }

    /// The shared request-teardown tail of [`FsdService::submit_batched`]
    /// and [`FsdService::submit_coalesced`]: deletes the request's input
    /// artifacts, harvests and releases its flow-scoped billing windows
    /// (success or not — a long-lived service must not accrete per-flow
    /// buckets), and assembles the [`InferenceReport`].
    fn finalize_report(
        &self,
        resolved: Variant,
        p: u32,
        samples: usize,
        input_key: &str,
        flow: u64,
        launched: ExecuteResult,
    ) -> Result<InferenceReport, FsdError> {
        // Feed the transport scoreboard: a communication failure marks the
        // transport unhealthy; compute-side errors (OOM, timeout, missing
        // output) say nothing about it and are not recorded.
        match &launched {
            Ok(_) => self.health.record(resolved, true),
            Err(FsdError::Comm(_)) => self.health.record(resolved, false),
            Err(_) => {}
        }
        let arrival = VirtualTime::ZERO;
        // Per-request input artifacts are dead after the run (success or
        // not); remove them so a long-lived service does not accrete state.
        self.env
            .object_store()
            .delete_prefix(ARTIFACT_BUCKET, &format!("{input_key}/"));
        // Streamed launches close their flow's weight mailboxes after the
        // last rank joins; repeat here unconditionally so an attempt that
        // died before joining cannot leak parked frames past release.
        self.env.weight_net().close_flow(flow);
        let comm = self.env.release_flow(flow);
        let lambda: LambdaSnapshot = self.platform.lambda_meter().release_flow(flow);
        let (out, client, launch_path) = match launched {
            Ok(run) => run,
            Err(e) => {
                // The attempt failed but its calls were made and billed
                // (AWS semantics). Its flow window was just harvested —
                // fold it into the service-wide failed-attempt bill so the
                // global meters stay exactly partitioned between
                // successful reports and this accumulator.
                let mut bill = self.failed_bill.lock();
                bill.comm = bill.comm.plus(&comm);
                bill.lambda.invocations += lambda.invocations;
                bill.lambda.mb_ms += lambda.mb_ms;
                return Err(e);
            }
        };
        let per_worker: Vec<WorkerReport> = out
            .reports
            .iter()
            .map(|(rank, r)| WorkerReport {
                rank: *rank,
                started: r.started,
                finished: r.finished,
                billed_ms: r.billed_ms,
                peak_mem_bytes: r.peak_mem_bytes,
                memory_mb: r.memory_mb,
            })
            .collect();
        let last_finish = per_worker
            .iter()
            .map(|w| w.finished)
            .max()
            .ok_or(FsdError::NoWorkerReports)?;
        let latency =
            VirtualTime::from_micros(last_finish.as_micros().saturating_sub(arrival.as_micros()));
        if out.final_batches.is_empty() {
            return Err(FsdError::MissingOutput);
        }
        let cost_actual = self.cost.actual(&lambda, &comm);
        let cost_predicted = self.cost.predicted(&lambda, &client, out.artifact_gets, 0);
        Ok(InferenceReport {
            variant: resolved,
            workers: p,
            launch: launch_path,
            arrival,
            latency,
            per_worker,
            comm,
            lambda,
            client,
            cost_actual,
            cost_predicted,
            outputs: out.final_batches,
            samples,
            work_done: out.work_done,
        })
    }

    /// Runs several *shape-compatible* requests through **one** worker-tree
    /// pass (cross-request continuous batching): the tree is acquired once
    /// — a warm-pool checkout, or a single cold launch billed to the first
    /// member's flow — and every member then runs as its own flow-scoped
    /// work item on the resident tree. Per-member inputs, data channels,
    /// billing windows and reports stay exactly as disjoint as sequential
    /// [`FsdService::submit_batched`] calls (the meters bucket each
    /// member's events under its own flow id), but members after the first
    /// pay one control-plane hop ([`LaunchPath::WarmHit`]) instead of the
    /// launch bill. Results are returned in member order.
    ///
    /// Members must all resolve (via [`FsdService::resolve_variant`]) to
    /// the same `(variant, workers, memory_mb)` channel shape — the
    /// scheduler's coalition formation guarantees this. If any member does
    /// not, or the shared shape is Serial (which runs no tree), the whole
    /// set falls back to sequential `submit_batched` calls. A member
    /// failure mid-pass discards the (possibly poisoned) tree, reports the
    /// error for that member only, and finishes the remaining members on
    /// the sequential path.
    pub fn submit_coalesced(
        &self,
        reqs: &[BatchedRequest],
    ) -> Vec<Result<InferenceReport, FsdError>> {
        if reqs.len() <= 1 {
            return reqs.iter().map(|r| self.submit_batched(r)).collect();
        }
        let shape_of = |r: &BatchedRequest| -> Option<(Variant, u32, u32)> {
            if r.batches.is_empty() {
                return None;
            }
            let v = self.resolve_variant(r);
            v.channel_name().map(|_| (v, r.workers.max(1), r.memory_mb))
        };
        let Some(shared_shape) = shape_of(&reqs[0]) else {
            return reqs.iter().map(|r| self.submit_batched(r)).collect();
        };
        if reqs[1..].iter().any(|r| shape_of(r) != Some(shared_shape)) {
            return reqs.iter().map(|r| self.submit_batched(r)).collect();
        }
        let (routed, p, memory_mb) = shared_shape;
        let name = routed.channel_name().expect("channel shape checked above");
        let Some(provider) = self.registry.get(name) else {
            // No provider registered: every member fails exactly as its
            // sequential submission would.
            return reqs.iter().map(|r| self.submit_batched(r)).collect();
        };
        self.ensure_partition(p);
        let partition = self.state.read().partitions[&p].partition.clone();
        let key = TreeKey {
            variant: routed,
            workers: p,
            memory_mb,
        };

        let mut results: Vec<Result<InferenceReport, FsdError>> = Vec::with_capacity(reqs.len());
        // Acquired lazily on the first member so a cold launch is billed
        // to that member's flow; the `bool` records a warm checkout.
        let mut tree_slot: Option<(WorkerTree, bool)> = None;
        for (i, req) in reqs.iter().enumerate() {
            let flow = self.requests.fetch_add(1, Ordering::Relaxed) + 1;
            let input_key = format!("inputs/req{flow}");
            for (b, batch) in req.batches.iter().enumerate() {
                stage_inputs(
                    &self.env,
                    &format!("{input_key}/b{b}"),
                    batch,
                    Some(&partition),
                );
            }
            let samples: usize = req.batches.iter().map(|b| b.width()).sum();
            let widths: Vec<usize> = req.batches.iter().map(|b| b.width()).collect();
            if tree_slot.is_none() {
                match self.acquire_tree(key, flow) {
                    Ok(acquired) => tree_slot = Some(acquired),
                    Err(e) => {
                        // The launch failed before any member ran: this
                        // member reports the error, the rest fall back to
                        // sequential execution (each pays its own launch).
                        results.push(self.finalize_report(
                            routed,
                            p,
                            samples,
                            &input_key,
                            flow,
                            Err(e),
                        ));
                        results.extend(reqs[i + 1..].iter().map(|r| self.submit_batched(r)));
                        return results;
                    }
                }
            }
            let (tree, from_warm_checkout) =
                tree_slot.as_mut().expect("coalition tree acquired above");
            // Member 0 of a cold launch pays the launch bill; every other
            // member lands on the already-resident tree: one control-plane
            // hop, billed (begin_request) under its own flow.
            let warm = *from_warm_checkout || i > 0;
            let channel = provider.provision(&self.env, p, self.cfg.channel, flow);
            let ran = self.run_item(tree, warm, flow, &input_key, &widths, channel);
            let failed = ran.is_err();
            if failed {
                // A worker died mid-pass: the tree may be poisoned — never
                // reuse it. This member reports the error; the remaining
                // members run sequentially.
                let (dead, _) = tree_slot.take().expect("coalition tree held");
                self.release_tree(dead, false);
            }
            results.push(self.finalize_report(routed, p, samples, &input_key, flow, ran));
            if failed {
                results.extend(reqs[i + 1..].iter().map(|r| self.submit_batched(r)));
                return results;
            }
        }
        if let Some((tree, _)) = tree_slot {
            // Pass teardown: the tree parks for the next matching request
            // (or coalition), or shuts down without a pool.
            self.release_tree(tree, true);
        }
        results
    }

    /// Acquires the tree a request (or a coalesced pass) runs on: a
    /// warm-pool checkout when a matching tree is parked, otherwise a cold
    /// launch billed to `flow`. Returns the tree and whether it came from
    /// a warm checkout.
    fn acquire_tree(&self, key: TreeKey, flow: u64) -> Result<(WorkerTree, bool), FsdError> {
        if let Some(tree) = self.pool.as_ref().and_then(|pool| pool.checkout(key)) {
            return Ok((tree, true));
        }
        let params = self.tree_params(key.workers, key.memory_mb);
        let generation = self.pool.as_ref().map_or(0, |pool| pool.generation());
        let tree = WorkerTree::launch(&self.platform, key, generation, params, flow)?;
        if let Some(pool) = &self.pool {
            pool.record_created();
            pool.note_in_use(key);
        }
        Ok((tree, false))
    }

    /// Routes one request into `tree` as a work item over its data
    /// `channel`, then harvests the channel's request-local stats and
    /// releases its queues/subscriptions/objects — error or not. `warm`
    /// marks a request that did not launch the tree: it is dispatched one
    /// control-plane hop after arrival instead of riding the launch
    /// timeline.
    fn run_item(
        &self,
        tree: &mut WorkerTree,
        warm: bool,
        flow: u64,
        input_key: &str,
        widths: &[usize],
        channel: Arc<dyn FsiChannel>,
    ) -> ExecuteResult {
        let dispatch_at =
            VirtualTime::from_micros(self.env.jitter().apply(self.env.latency().lambda_invoke_us));
        let ran = tree.run(WorkItem {
            warm,
            flow,
            input_key: input_key.to_string(),
            batch_widths: widths.to_vec(),
            channel: channel.clone(),
            dispatch_at,
        });
        let client = channel.stats().snapshot();
        channel.teardown();
        let path = if warm {
            LaunchPath::WarmHit
        } else {
            LaunchPath::ColdStart
        };
        Ok((ran?, client, path))
    }

    /// Hands a tree back after its pass. Without a pool the tree is
    /// dropped, which shuts it down: a pool-less request is a tree
    /// launched, run once and shut down. With one, a healthy tree is
    /// checked in for the next matching request; a failed one is
    /// discarded (and, under `ServiceBuilder::regenerate_poisoned`,
    /// replaced).
    fn release_tree(&self, tree: WorkerTree, healthy: bool) {
        match &self.pool {
            None => drop(tree),
            Some(pool) if healthy => pool.checkin(tree),
            Some(pool) => {
                let key = tree.key();
                pool.discard(tree);
                if self.regenerate_poisoned {
                    self.regenerate_tree(pool, key);
                }
            }
        }
    }

    /// Launches a warm tree for `(variant, workers, memory_mb)` ahead of
    /// traffic and parks it in the pool, so the *first* matching request
    /// is already a [`LaunchPath::WarmHit`]. The launch runs on the
    /// unattributed flow (0), mirroring offline staging.
    ///
    /// # Panics
    /// If the service was built without `warm_pool`, or `variant` is not a
    /// channel variant (`Queue`/`Object`/`Hybrid`) — both are
    /// configuration bugs.
    pub fn prewarm_tree(
        &self,
        variant: Variant,
        workers: u32,
        memory_mb: u32,
    ) -> Result<(), FsdError> {
        assert!(
            variant.channel_name().is_some(),
            "prewarm_tree needs a channel variant (Queue/Object/Hybrid/Direct), got {variant}"
        );
        let pool = self
            .pool
            .as_ref()
            .expect("prewarm_tree requires ServiceBuilder::warm_pool");
        let p = workers.max(1);
        self.ensure_partition(p);
        let key = TreeKey {
            variant,
            workers: p,
            memory_mb,
        };
        let params = self.tree_params(p, memory_mb);
        let tree = WorkerTree::launch(&self.platform, key, pool.generation(), params, 0)?;
        pool.record_created();
        pool.checkin(tree);
        Ok(())
    }

    /// Warm-pool counters, if a pool is configured.
    pub fn warm_pool_stats(&self) -> Option<WarmPoolStats> {
        self.pool.as_ref().map(|p| p.stats())
    }

    /// Invalidates every warm tree (generation bump + eager shutdown).
    /// Call after re-staging model weights: a warm tree keeps its weights
    /// resident and must never serve requests for newer artifacts.
    /// Returns how many parked trees were dropped; 0 without a pool.
    pub fn invalidate_warm_trees(&self) -> usize {
        // The shared weight cache holds blocks of the same staged model the
        // warm trees loaded: a redeploy that obsoletes the trees obsoletes
        // the cached blocks with them.
        self.weight_cache.invalidate();
        self.pool.as_ref().map_or(0, |p| p.invalidate())
    }

    /// Parked warm trees currently matching `(variant, workers, memory)`.
    /// 0 without a pool.
    pub fn warm_idle_trees(&self, variant: Variant, workers: u32, memory_mb: u32) -> usize {
        let key = TreeKey {
            variant,
            workers: workers.max(1),
            memory_mb,
        };
        self.pool.as_ref().map_or(0, |p| p.idle_of(key))
    }

    /// Warm trees of the shape that exist at all — parked *or* currently
    /// serving a request. 0 without a pool. Predictors top a shape up to
    /// its burst target against this count: a burst's own checkouts must
    /// not read as missing capacity, or every in-flight request would
    /// trigger a redundant pre-warm.
    pub fn warm_live_trees(&self, variant: Variant, workers: u32, memory_mb: u32) -> usize {
        let key = TreeKey {
            variant,
            workers: workers.max(1),
            memory_mb,
        };
        self.pool.as_ref().map_or(0, |p| p.live_of(key))
    }

    /// Evicts every parked warm tree of one shape (predictor decisions:
    /// traffic of this shape has gone quiet). Returns how many trees were
    /// dropped; 0 without a pool.
    pub fn evict_warm_trees(&self, variant: Variant, workers: u32, memory_mb: u32) -> usize {
        let key = TreeKey {
            variant,
            workers: workers.max(1),
            memory_mb,
        };
        self.pool.as_ref().map_or(0, |p| p.evict_shape(key))
    }

    /// Runs one wall-clock reaper pass: evicts parked trees whose real
    /// idle time exceeds `WarmPoolConfig::wall_idle_ms`. Returns how many
    /// trees were dropped; 0 without a pool or without a wall TTL. The
    /// background reaper (`ServiceBuilder::background_reaper`) calls this
    /// on an interval; deterministic harnesses inject a
    /// [`crate::ManualClock`] and call it explicitly.
    pub fn reap_warm_trees(&self) -> usize {
        self.pool.as_ref().map_or(0, |p| p.reap())
    }

    /// Per-transport health scoreboard (error-rate EWMAs and breaker
    /// states) — inspection/tests.
    pub fn health_snapshot(&self) -> HealthSnapshot {
        self.health.snapshot()
    }

    /// What failed request attempts have been billed so far. Failed
    /// attempts are billed (as on AWS); this accumulator plus the digests
    /// of the successful [`InferenceReport`]s partitions the global comm
    /// and Lambda meters exactly — the invariant the chaos gate asserts.
    pub fn failed_attempt_bill(&self) -> FailedAttemptBill {
        *self.failed_bill.lock()
    }

    /// The fault-plane spelling of "kill worker `rank` of a parked warm
    /// tree": a [`TargetedFault`] whose resource predicate
    /// [`FsdService::inject_fault`] recognizes and routes to the pool's
    /// kill switches instead of the comm plane. Build it here, inject it
    /// there — one injection surface for every fault in the system.
    pub fn warm_worker_fault(
        variant: Variant,
        workers: u32,
        memory_mb: u32,
        rank: u32,
    ) -> TargetedFault {
        let name = variant.channel_name().unwrap_or("serial");
        TargetedFault {
            class: ApiClass::InstanceLaunch,
            nth: 1,
            resource_contains: format!("warm:{name}:{}:{memory_mb}:{rank}", workers.max(1)),
            kind: FaultKind::Transient,
        }
    }

    /// Failure injection (tests/chaos), one surface for the whole system:
    /// a `resource_contains` of the form `warm:{variant}:{P}:{mem}:{rank}`
    /// (build it with [`FsdService::warm_worker_fault`]) arms the kill
    /// switch of worker `rank` on one *parked* tree of that shape, so the
    /// next request routed into it loses the instance mid-request; any
    /// other fault is installed on the region's
    /// [`fsd_comm::FaultPlane`] targeted schedule. Returns whether the
    /// fault was armed (a warm target with no matching parked tree, or an
    /// unparseable warm predicate, reports `false`).
    pub fn inject_fault(&self, fault: TargetedFault) -> bool {
        if let Some(spec) = fault.resource_contains.strip_prefix("warm:") {
            let mut parts = spec.split(':');
            let variant = match parts.next() {
                Some("queue") => Variant::Queue,
                Some("object") => Variant::Object,
                Some("hybrid") => Variant::Hybrid,
                Some("direct") => Variant::Direct,
                _ => return false,
            };
            let (Some(workers), Some(memory_mb), Some(rank)) = (
                parts.next().and_then(|s| s.parse::<u32>().ok()),
                parts.next().and_then(|s| s.parse::<u32>().ok()),
                parts.next().and_then(|s| s.parse::<u32>().ok()),
            ) else {
                return false;
            };
            let key = TreeKey {
                variant,
                workers: workers.max(1),
                memory_mb,
            };
            return self
                .pool
                .as_ref()
                .is_some_and(|pool| pool.arm_kill(key, rank));
        }
        self.env.faults().inject(fault);
        true
    }

    /// The single §IV-C resolution point: resolves a (possibly
    /// [`Variant::Auto`]) variant for `workers` ranks and an estimated
    /// wire-bytes-per-row. Explicit variants pass through unchanged. The
    /// execution path ([`FsdService::resolve_variant`]), the scheduler's
    /// admission-cap derivation and its predictor all route through here,
    /// so caps and execution can never disagree on where a request runs.
    pub fn resolve(&self, variant: Variant, workers: u32, est_bytes_per_row: usize) -> Variant {
        match variant {
            // Auto routing consults the circuit breakers: a recommendation
            // whose transport is tripped open degrades to a healthy
            // fallback (direct → hybrid → queue → object; hybrid → queue →
            // object; queue ↔ object). Explicit
            // variants pass through — the caller asked for that transport
            // and gets its errors.
            Variant::Auto => self
                .health
                .degrade(self.recommend(workers.max(1), est_bytes_per_row).variant),
            v @ (Variant::Serial
            | Variant::Queue
            | Variant::Object
            | Variant::Hybrid
            | Variant::Direct) => v,
        }
    }

    /// The a-priori wire-bytes-per-row estimate for this model (each
    /// nonzero costs a column id + value on the wire) — what cap
    /// derivation uses before any request exists. Per-request resolution
    /// refines it with the request's own first batch.
    pub fn est_bytes_per_row(&self) -> usize {
        self.dnn.spec().nnz_per_row.max(1) * 8
    }

    /// Resolves [`Variant::Auto`] into a concrete variant for this request
    /// via [`FsdService::resolve`]; the per-pair volume estimate comes
    /// from the request's own first batch (wire bytes per row as a proxy
    /// for the intermediate activations the layers will exchange). Public
    /// as a planning hook: the scheduler (and tests) can ask where a
    /// request *would* route without executing it.
    pub fn resolve_variant(&self, req: &BatchedRequest) -> Variant {
        match req.variant {
            Variant::Auto => {
                let first = &req.batches[0];
                let est_bytes_per_row = codec::encoded_size(first) / first.n_rows().max(1);
                self.resolve(Variant::Auto, req.workers, est_bytes_per_row)
            }
            v @ (Variant::Serial
            | Variant::Queue
            | Variant::Object
            | Variant::Hybrid
            | Variant::Direct) => v,
        }
    }

    /// Dispatches a resolved request to its execution path. Serial runs on
    /// one instance; every routed variant provisions its data channel,
    /// acquires a tree, runs the request on it as one work item and
    /// releases the tree.
    fn execute(
        &self,
        variant: Variant,
        p: u32,
        memory_mb: u32,
        input_key: &str,
        widths: &[usize],
        flow: u64,
    ) -> ExecuteResult {
        match variant {
            Variant::Serial => {
                let out = self.launch_serial(input_key, widths.len(), flow)?;
                Ok((out, ChannelStatsSnapshot::default(), LaunchPath::ColdStart))
            }
            // fsd_lint::allow(no-unwrap): submit_batched resolves Auto via
            // resolve_variant before calling execute; reaching here is a bug.
            Variant::Auto => unreachable!("Auto resolves before execution"),
            routed @ (Variant::Queue | Variant::Object | Variant::Hybrid | Variant::Direct) => {
                let name = routed
                    .channel_name()
                    .expect("routed variants name a channel");
                let provider = self
                    .registry
                    .get(name)
                    .ok_or_else(|| FsdError::UnknownChannel {
                        name: name.to_string(),
                    })?;
                let channel = provider.provision(&self.env, p, self.cfg.channel, flow);
                let key = TreeKey {
                    variant: routed,
                    workers: p,
                    memory_mb,
                };
                let (mut tree, warm) = match self.acquire_tree(key, flow) {
                    Ok(acquired) => acquired,
                    Err(e) => {
                        channel.teardown();
                        return Err(e);
                    }
                };
                let ran = self.run_item(&mut tree, warm, flow, input_key, widths, channel);
                self.release_tree(tree, ran.is_ok());
                ran
            }
        }
    }

    /// Relaunches and parks a fresh tree of `key`'s shape after a poisoned
    /// one was discarded (`ServiceBuilder::regenerate_poisoned`). Billed to
    /// the unattributed flow exactly like a pre-warm — the failed request
    /// already paid for its own launch, and the replacement serves whoever
    /// comes next. Best-effort: a failed relaunch (e.g. a persistent
    /// injected launch fault) leaves the shape cold rather than erroring
    /// the request a second time.
    fn regenerate_tree(&self, pool: &TreePool, key: TreeKey) {
        let params = self.tree_params(key.workers, key.memory_mb);
        if let Ok(tree) = WorkerTree::launch(&self.platform, key, pool.generation(), params, 0) {
            pool.record_created();
            pool.record_regenerated();
            pool.checkin(tree);
        }
    }

    /// Coordinator (128 MB) + serial worker at the maximum memory.
    fn launch_serial(
        &self,
        input_key: &str,
        n_batches: usize,
        flow: u64,
    ) -> Result<TreeRunOutput, FaasError> {
        let spec = *self.dnn.spec();
        let model_key = self.model_key.clone();
        let input_key = input_key.to_string();
        let platform = self.platform.clone();
        let serial_memory = self.cfg.serial_memory_mb;
        let coordinator = self.platform.invoke(
            FunctionConfig::coordinator().for_flow(flow),
            VirtualTime::ZERO,
            move |ctx| {
                ctx.charge_work(10_000); // request parsing
                let at = ctx.now();
                let inv = platform.invoke(
                    FunctionConfig::worker("fsd-serial", serial_memory).for_flow(flow),
                    at,
                    move |worker_ctx| {
                        run_serial(worker_ctx, &model_key, &input_key, &spec, n_batches)
                    },
                );
                inv.join()
            },
        );
        let ((out, report), _coord_report) = coordinator.join()?;
        Ok(TreeRunOutput {
            final_batches: out.final_batches.unwrap_or_default(),
            reports: vec![(0, report)],
            artifact_gets: out.artifact_gets,
            work_done: out.work_done,
        })
    }
}

/// A successful execution: the run's output, the request-local client
/// channel stats and the launch path it took.
type ExecuteResult = Result<(TreeRunOutput, ChannelStatsSnapshot, LaunchPath), FsdError>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ServiceBuilder;
    use fsd_model::{generate_dnn, generate_inputs, DnnSpec, InputSpec};
    use fsd_sparse::SparseRows;

    fn small_service(seed: u64) -> (Arc<FsdService>, SparseRows, SparseRows) {
        let spec = DnnSpec {
            neurons: 64,
            layers: 3,
            nnz_per_row: 8,
            bias: -0.25,
            clip: 32.0,
            seed,
        };
        let dnn = Arc::new(generate_dnn(&spec));
        let inputs = generate_inputs(spec.neurons, &InputSpec::scaled(12, seed));
        let expected = dnn.serial_inference(&inputs);
        (
            Arc::new(ServiceBuilder::new(dnn).deterministic(seed).build()),
            inputs,
            expected,
        )
    }

    #[test]
    fn empty_request_is_an_error() {
        let (service, ..) = small_service(1);
        let res = service.submit_batched(&BatchedRequest {
            variant: Variant::Serial,
            workers: 1,
            memory_mb: 1769,
            batches: vec![],
        });
        assert_eq!(res.unwrap_err(), FsdError::EmptyRequest);
    }

    #[test]
    fn unknown_channel_is_an_error() {
        let spec = DnnSpec {
            neurons: 48,
            layers: 2,
            nnz_per_row: 6,
            bias: -0.25,
            clip: 32.0,
            seed: 2,
        };
        let dnn = Arc::new(generate_dnn(&spec));
        let inputs = generate_inputs(spec.neurons, &InputSpec::scaled(6, 2));
        let service = ServiceBuilder::new(dnn)
            .deterministic(2)
            .clear_channels()
            .build();
        let res = service.submit(&InferenceRequest {
            variant: Variant::Queue,
            workers: 2,
            memory_mb: 1769,
            inputs,
        });
        assert_eq!(
            res.unwrap_err(),
            FsdError::UnknownChannel {
                name: "queue".into()
            }
        );
    }

    #[test]
    fn requests_get_distinct_flows_and_clean_up() {
        let (service, inputs, expected) = small_service(3);
        for variant in [
            Variant::Queue,
            Variant::Object,
            Variant::Hybrid,
            Variant::Direct,
        ] {
            let report = service
                .submit(&InferenceRequest {
                    variant,
                    workers: 3,
                    memory_mb: 1769,
                    inputs: inputs.clone(),
                })
                .expect("runs");
            assert_eq!(report.first_output(), &expected);
        }
        assert_eq!(service.requests_served(), 4);
        // Queue-channel teardown removed the per-request queues and
        // filter policies.
        assert_eq!(service.env().queue_count(), 0);
        assert_eq!(service.env().pubsub().subscription_count(0), 0);
        // Object-channel teardown removed the flow-namespaced objects.
        for i in 0..service.env().config().n_buckets {
            assert_eq!(
                service
                    .env()
                    .object_store()
                    .object_count(&fsd_comm::bucket_name(i)),
                0,
                "bucket {i} still holds intermediate objects"
            );
        }
    }

    #[test]
    fn hybrid_spilling_requests_stay_correct_and_clean() {
        use crate::queue_channel::ChannelOptions;
        let spec = DnnSpec {
            neurons: 64,
            layers: 3,
            nnz_per_row: 8,
            bias: -0.25,
            clip: 32.0,
            seed: 33,
        };
        let dnn = Arc::new(generate_dnn(&spec));
        let inputs = generate_inputs(spec.neurons, &InputSpec::scaled(12, 33));
        let expected = dnn.serial_inference(&inputs);
        // A 1-byte threshold forces every layer payload through the spill
        // path: control plane on the queues, data plane on the buckets.
        let service = ServiceBuilder::new(dnn)
            .deterministic(33)
            .channel_options(ChannelOptions {
                spill_threshold: 1,
                ..ChannelOptions::default()
            })
            .build();
        let report = service
            .submit(&InferenceRequest {
                variant: Variant::Hybrid,
                workers: 3,
                memory_mb: 1769,
                inputs,
            })
            .expect("hybrid runs");
        assert_eq!(report.first_output(), &expected);
        assert!(report.comm.sns_publish_requests > 0, "pointers publish");
        assert!(report.comm.s3_put_requests > 0, "payloads spill");
        assert!(report.comm.s3_get_requests > 0, "receivers dereference");
        assert_eq!(report.comm.s3_list_requests, 0, "hybrid never LISTs");
        // Predicted vs metered cost agree for the mixed transport too
        // (§VI-F validation extended to the hybrid regime).
        let err = report.cost_actual.relative_error(&report.cost_predicted);
        assert!(err < 0.02, "hybrid cost validation off by {err:.3}");
        // Flow-namespaced cleanup: queues, subscriptions and spilled
        // objects are all gone after teardown.
        assert_eq!(service.env().queue_count(), 0);
        assert_eq!(service.env().pubsub().subscription_count(0), 0);
        for i in 0..service.env().config().n_buckets {
            assert_eq!(
                service
                    .env()
                    .object_store()
                    .object_count(&fsd_comm::bucket_name(i)),
                0,
                "bucket {i} holds residual spilled objects"
            );
        }
    }

    #[test]
    fn auto_routes_small_models_to_serial() {
        let (service, inputs, expected) = small_service(4);
        let report = service
            .submit(&InferenceRequest {
                variant: Variant::Auto,
                workers: 4,
                memory_mb: 1769,
                inputs,
            })
            .expect("auto runs");
        assert_eq!(
            report.variant,
            Variant::Serial,
            "tiny model must route to Serial"
        );
        assert_eq!(report.workers, 1);
        assert_eq!(report.first_output(), &expected);
    }

    #[test]
    fn distributed_variants_run_with_a_single_worker() {
        // A degenerate one-worker tree must still work: the service stages
        // a 1-way partition instead of failing on missing per-worker
        // artifacts.
        let (service, inputs, expected) = small_service(6);
        for variant in [Variant::Queue, Variant::Object] {
            let report = service
                .submit(&InferenceRequest {
                    variant,
                    workers: 0, // clamped to 1
                    memory_mb: 1769,
                    inputs: inputs.clone(),
                })
                .unwrap_or_else(|e| panic!("{variant} with one worker: {e}"));
            assert_eq!(report.workers, 1);
            assert_eq!(report.first_output(), &expected);
        }
    }

    #[test]
    fn partition_accessor_handles_degenerate_counts() {
        let (service, ..) = small_service(7);
        // p <= 1 returns the 1-way partition instead of panicking on a
        // missing map entry.
        let one = service.partition(1);
        assert_eq!(one.n_parts(), 1);
        assert!(Arc::ptr_eq(&one, &service.partition(0)));
        let three = service.partition(3);
        assert_eq!(three.n_parts(), 3);
    }

    #[test]
    fn warm_pool_reuses_trees_and_labels_paths() {
        let spec = DnnSpec {
            neurons: 64,
            layers: 3,
            nnz_per_row: 8,
            bias: -0.25,
            clip: 32.0,
            seed: 21,
        };
        let dnn = Arc::new(generate_dnn(&spec));
        let inputs = generate_inputs(spec.neurons, &InputSpec::scaled(10, 21));
        let expected = dnn.serial_inference(&inputs);
        let service = ServiceBuilder::new(dnn)
            .deterministic(21)
            .warm_pool(2, u64::MAX)
            .build();
        let req = InferenceRequest {
            variant: Variant::Queue,
            workers: 3,
            memory_mb: 1769,
            inputs,
        };
        let cold = service.submit(&req).expect("cold run");
        assert_eq!(cold.launch, crate::LaunchPath::ColdStart);
        assert_eq!(cold.lambda.invocations, 4, "coordinator + 3 workers");
        assert_eq!(cold.first_output(), &expected);

        let warm = service.submit(&req).expect("warm run");
        assert_eq!(warm.launch, crate::LaunchPath::WarmHit);
        assert_eq!(warm.lambda.invocations, 0, "warm hits invoke nothing");
        assert!(warm.lambda.mb_ms > 0, "execution window still bills");
        assert_eq!(warm.first_output(), &expected);
        assert_eq!(
            warm.outputs, cold.outputs,
            "warm and cold paths must produce identical outputs"
        );
        assert!(
            warm.latency < cold.latency,
            "warm hit must skip launch latency: warm {} vs cold {}",
            warm.latency,
            cold.latency
        );
        let stats = service.warm_pool_stats().expect("pool enabled");
        assert_eq!((stats.hits, stats.misses, stats.created), (1, 1, 1));
        assert_eq!(stats.idle, 1);
        // Flow-scoped channel resources were torn down on both paths.
        assert_eq!(service.env().queue_count(), 0);
        assert_eq!(service.env().meter().tracked_flows(), 0);
        assert_eq!(service.platform().lambda_meter().tracked_flows(), 0);
        // Invalidation drops the parked tree; the next request is cold.
        assert_eq!(service.invalidate_warm_trees(), 1);
        let again = service.submit(&req).expect("post-invalidate run");
        assert_eq!(again.launch, crate::LaunchPath::ColdStart);
        assert_eq!(again.outputs, cold.outputs);
    }

    #[test]
    fn latency_derives_from_arrival() {
        let (service, inputs, _) = small_service(5);
        let report = service
            .submit(&InferenceRequest {
                variant: Variant::Object,
                workers: 2,
                memory_mb: 1769,
                inputs,
            })
            .expect("runs");
        assert_eq!(report.arrival, VirtualTime::ZERO);
        let last = report
            .per_worker
            .iter()
            .map(|w| w.finished)
            .max()
            .expect("workers");
        assert_eq!(
            report.latency.as_micros(),
            last.as_micros() - report.arrival.as_micros()
        );
    }
}
