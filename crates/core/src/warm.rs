//! The launcher: worker trees that serve one request or many.
//!
//! Every routed (non-Serial) request runs on a [`WorkerTree`], brought up
//! by one launcher with two strategies:
//!
//! * **cascade** — the paper's `worker_invoke_children` (§III): a
//!   coordinator function invokes rank 0 and every rank invokes its b-ary
//!   children, so the launch costs `1 + P` invocations over
//!   `launch_rounds(P, b)` rounds; each rank then loads its own weight and
//!   map artifacts;
//! * **flat streamed** — [`TreeParams::stream`] (λScale / FaaSNet-style):
//!   the always-on control plane invokes every rank directly, one API
//!   round trip apart (`P` invocations), and the tree topology multicasts
//!   weight blocks from rank 0 instead of invocations.
//!
//! Either way every instance is kept alive ([`FunctionConfig::keep_alive`]):
//! once loaded it parks in a serve loop on a control channel. Requests are
//! routed in as [`WorkItem`]s, each carrying its own flow id, input prefix
//! and a freshly provisioned, flow-namespaced data channel. The request that
//! launched the tree runs on the launch timeline and pays the whole launch
//! bill; a request routed into a parked tree (a warm hit) pays one
//! control-plane hop instead.
//!
//! Without a warm pool a request is a tree launched, run once and shut
//! down — a warm tree with zero TTL. With one, the tree is checked back in
//! and later requests of its shape skip the invokes, the cold starts, the
//! launch rounds *and* the weight loads (λScale-style request routing into
//! model-loaded instances).
//!
//! Billing stays per-flow disjoint across reuse: every work item opens its
//! own metering window on the instance ([`WorkerCtx::begin_request`] /
//! [`WorkerCtx::finish_request`]), and the per-request data channel
//! namespaces all service traffic by the request's flow. Parked (idle) time
//! is never billed, mirroring the fact that idle provisioned instances bill
//! differently from execution and keeping the cost model's request windows
//! comparable between cold and warm requests.
//!
//! Failure containment: a dying instance raises the tree's poison flag and
//! peers observe it at their next limit check and fail fast.
//! [`WorkerTree::run`] then joins every instance and reports the proximate
//! cause deterministically — a real error before an `"abort"` echo, then
//! the lowest rank — and the tree is never reused.

use crate::artifacts::load_worker_artifacts;
use crate::channel::FsiChannel;
use crate::engine::Variant;
use crate::weight_cache::WeightCache;
use crate::worker::{run_batches, WorkerOutput};
use fsd_comm::{CloudEnv, VClock, VirtualTime};
use fsd_faas::{launch, FaasError, FaasPlatform, FunctionConfig, Invocation, InvocationReport};
use fsd_model::DnnSpec;
use fsd_sparse::SparseRows;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel as mpsc_channel, Receiver, Sender};
use std::sync::{Arc, Mutex};

/// The shape a warm tree can serve: requests match on the resolved
/// variant, worker count and per-worker memory. `Ord` gives predictors and
/// pool policies a canonical shape order for deterministic iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TreeKey {
    /// Resolved channel variant (never `Serial`/`Auto` — Serial runs no
    /// tree and Auto resolves before the pool is consulted).
    pub variant: Variant,
    /// Worker count `P`.
    pub workers: u32,
    /// Per-worker memory (MB).
    pub memory_mb: u32,
}

/// The request-independent launch parameters of a tree: its size and
/// launch strategy, and where every rank finds its artifacts.
#[derive(Clone)]
pub(crate) struct TreeParams {
    pub n_workers: u32,
    pub branching: usize,
    pub memory_mb: u32,
    pub model_key: String,
    pub spec: DnnSpec,
    /// The flat streamed launch instead of the cascade: instances are
    /// provisioned flat by the control plane and weights arrive multicast
    /// from rank 0.
    pub stream: bool,
    /// The service-wide weight-block cache streamed loads read through.
    pub cache: Arc<WeightCache>,
}
/// One request routed into a parked tree.
#[derive(Clone)]
pub(crate) struct WorkItem {
    /// `false` for the creating request of an on-demand tree: the workers
    /// continue on their launch timeline (so the creating request pays —
    /// and measures — the full cold-start bill), `true` for every routed
    /// (warm-hit) request.
    pub warm: bool,
    /// The request's flow id (billing + channel namespacing).
    pub flow: u64,
    /// Staged input prefix (batch `b` under `{input_key}/b{b}`).
    pub input_key: String,
    /// Width of each successive batch.
    pub batch_widths: Vec<usize>,
    /// The request-scoped data channel (provisioned for `flow`).
    pub channel: Arc<dyn FsiChannel>,
    /// Virtual instant (on the request's own timeline) at which the parked
    /// workers receive the item — one control-plane hop after arrival.
    pub dispatch_at: VirtualTime,
}

/// What one rank reports back per work item.
type WorkResult = (u32, Result<(WorkerOutput, InvocationReport), FaasError>);

/// Everything the service needs to assemble an `InferenceReport` from one
/// run: a tree's, or the Serial path's single instance.
pub(crate) struct TreeRunOutput {
    pub final_batches: Vec<SparseRows>,
    /// `(rank, report)` sorted by rank.
    pub reports: Vec<(u32, InvocationReport)>,
    pub artifact_gets: u64,
    pub work_done: u64,
}

/// Shared plumbing cloned into every serve-loop instance.
#[derive(Clone)]
struct ServeShared {
    params: TreeParams,
    /// Flow the launch bills to (the creating request, or 0
    /// for build-time pre-warmed trees).
    launch_flow: u64,
    /// Per-rank control receivers, taken exactly once by their rank.
    controls: Arc<Mutex<Vec<Option<Receiver<WorkItem>>>>>,
    results: Sender<WorkResult>,
    handles: Sender<Invocation<()>>,
    /// Per-rank kill switches (failure injection / chaos hooks).
    kills: Arc<Vec<Arc<AtomicBool>>>,
    /// Tree-wide poison flag; raised by the first dying instance.
    poison: Arc<AtomicBool>,
}

impl ServeShared {
    /// Reports `rank` dead: raises the poison flag so peers unwedge at
    /// their next limit check, and hands the error to the collector.
    fn fail(&self, rank: u32, e: FaasError) -> FaasError {
        self.poison.store(true, Ordering::Relaxed);
        let _ = self.results.send((rank, Err(e.clone())));
        e
    }

    /// Rank `rank`'s function: a keep-alive instance whose launch bills to
    /// the launching flow.
    fn instance(&self, rank: u32) -> FunctionConfig {
        FunctionConfig::worker(format!("fsd-worker-{rank}"), self.params.memory_mb)
            .for_flow(self.launch_flow)
            .keep_alive()
    }
}

/// The serve loop every instance of a tree runs: invoke this rank's
/// cascade children, load the artifacts once, then serve work items until
/// the control channel closes.
fn serve_worker(
    ctx: &mut fsd_faas::WorkerCtx,
    rank: u32,
    shared: ServeShared,
) -> Result<(), FaasError> {
    let p = shared.params.n_workers;
    // --- the cascade's `worker_invoke_children` (a flat streamed launch
    // provisions every rank from the control plane instead) --------------
    let children = if shared.params.stream {
        Vec::new()
    } else {
        launch::children_of(rank as usize, shared.params.branching, p as usize)
    };
    for child in children {
        // The (async) Invoke API call costs the parent one round trip.
        let lat = ctx.env().latency().lambda_invoke_us;
        let jittered = ctx.env().jitter().apply(lat);
        ctx.clock_mut().advance_micros(jittered);
        let cfg = shared.instance(child as u32);
        let shared_c = shared.clone();
        let at = ctx.now();
        let inv = ctx.platform().clone().invoke(cfg, at, move |child_ctx| {
            serve_worker(child_ctx, child as u32, shared_c)
        });
        // A refused launch (injected Invoke fault) is known synchronously:
        // the subtree below it will never exist, so poison the tree now
        // rather than let peers poll collectives for it.
        if let Some(e) = inv.launch_error() {
            shared.fail(child as u32, e);
        }
        // Hand the join handle to the tree owner for shutdown.
        let _ = shared.handles.send(inv);
    }
    // A dying peer must be able to unwedge this instance mid-poll.
    ctx.set_abort(shared.poison.clone());

    let control = shared
        .controls
        .lock()
        .expect("control slots lock")
        .get_mut(rank as usize)
        .and_then(Option::take)
        .expect("each rank takes its control receiver exactly once");

    // --- load weights and maps once; they stay resident while parked -----
    let loaded = if shared.params.stream {
        crate::weight_stream::stream_load(
            ctx,
            &shared.params.cache,
            &shared.params.model_key,
            rank,
            p,
            shared.params.spec.layers,
            shared.params.branching,
        )
    } else {
        load_worker_artifacts(
            ctx,
            &shared.params.model_key,
            p,
            rank,
            shared.params.spec.layers,
        )
    };
    let mut art = loaded.map_err(|e| shared.fail(rank, e))?;
    let launch_gets = art.n_gets;

    // --- the serve loop: park until the control channel closes -----------
    while let Ok(item) = control.recv() {
        if shared.kills[rank as usize].load(Ordering::Relaxed) {
            let e = FaasError::comm(
                "instance",
                format!("fsd-worker-{rank}"),
                "keep-alive instance terminated",
            );
            return Err(shared.fail(rank, e));
        }
        if item.warm {
            // A routed request: jump onto its timeline, one control hop in.
            ctx.begin_request(item.flow, item.dispatch_at);
        }
        let mut out = run_batches(
            ctx,
            &item.channel,
            rank,
            p,
            &shared.params.spec,
            &mut art,
            &item.input_key,
            &item.batch_widths,
        )
        .map_err(|e| shared.fail(rank, e))?;
        let report = ctx.finish_request();
        // The launching request also pays the launch-time artifact GETs.
        if !item.warm {
            out.artifact_gets += launch_gets;
        }
        let _ = shared.results.send((rank, Ok((out, report))));
    }
    Ok(())
}

/// The cascade: a coordinator function (billed to the launching flow)
/// invokes rank 0, whose serve loop invokes the rest of the b-ary tree.
/// Fails if rank 0's launch is refused.
fn launch_cascade(platform: &Arc<FaasPlatform>, shared: ServeShared) -> Result<(), FaasError> {
    let platform_c = platform.clone();
    let coordinator = platform.invoke(
        FunctionConfig::coordinator().for_flow(shared.launch_flow),
        VirtualTime::ZERO,
        move |ctx| {
            ctx.charge_work(10_000); // request parsing
            let at = ctx.now();
            let handles = shared.handles.clone();
            let inv = platform_c.invoke(shared.instance(0), at, move |worker_ctx| {
                serve_worker(worker_ctx, 0, shared)
            });
            // The handle goes to the owner for cleanup either way.
            let refused = inv.launch_error();
            let _ = handles.send(inv);
            refused.map_or(Ok(()), Err)
        },
    );
    coordinator.join().map(|_| ())
}

/// The flat streamed launch (FaaSNet-style, controller-driven): the
/// always-on control plane (FaaSNet's "function manager") invokes every
/// rank directly — no coordinator function to cold-start first, so the
/// tree costs `P` invocations where the cascade pays `1 + P` — and the
/// tree topology is used to multicast weights instead of invocations.
/// Fails if rank 0, the multicast source, is refused.
fn launch_flat(platform: &Arc<FaasPlatform>, shared: ServeShared) -> Result<(), FaasError> {
    let env = platform.env();
    let mut dispatch = VClock::default();
    dispatch.set_flow(shared.launch_flow);
    let mut refused_root = None;
    for rank in 0..shared.params.n_workers {
        if rank > 0 {
            // Each async Invoke call costs the controller one sequential
            // API round trip, as it costs a parent in the cascade.
            let lat = env.latency().lambda_invoke_us;
            let jittered = env.jitter().apply(lat);
            dispatch.advance_micros(jittered);
        }
        let shared_r = shared.clone();
        let inv = platform.invoke(shared.instance(rank), dispatch.now(), move |worker_ctx| {
            serve_worker(worker_ctx, rank, shared_r)
        });
        // A refused rank poisons the tree so running peers unwedge from
        // their stream-drain loops instead of waiting for frames that will
        // never arrive.
        if let Some(e) = inv.launch_error() {
            let e = shared.fail(rank, e);
            if rank == 0 {
                refused_root = Some(e);
            }
        }
        let _ = shared.handles.send(inv);
    }
    refused_root.map_or(Ok(()), Err)
}

/// A `P`-worker tree parked in serve loops.
///
/// Launched per request without a pool, or by the pool's cold path and
/// pre-warms; driven with [`WorkerTree::run`], and eventually
/// [`WorkerTree::shutdown`] — also invoked on drop, so a tree that served
/// its one request, or was evicted or discarded, never leaks its instance
/// threads.
pub(crate) struct WorkerTree {
    key: TreeKey,
    generation: u64,
    controls: Vec<Sender<WorkItem>>,
    kills: Vec<Arc<AtomicBool>>,
    poison: Arc<AtomicBool>,
    results: Receiver<WorkResult>,
    handles: Receiver<Invocation<()>>,
    joined: bool,
    /// Region handle + launch flow for stream-mode teardown: once every
    /// instance has joined, any weight frames still parked in the launch
    /// flow's mailboxes (e.g. after an abort) have no receiver left.
    env: Arc<CloudEnv>,
    launch_flow: u64,
    stream: bool,
}

impl WorkerTree {
    /// Launches a tree with the strategy `params.stream` selects (the
    /// cascade, or the flat streamed launch), billed to `flow`. Returns as
    /// soon as the launch is seeded — instances still booting pick queued
    /// work items up when they are ready. A refused rank-0 launch fails
    /// the build; the partial tree is dropped, which joins every instance
    /// that did start.
    pub(crate) fn launch(
        platform: &Arc<FaasPlatform>,
        key: TreeKey,
        generation: u64,
        params: TreeParams,
        flow: u64,
    ) -> Result<WorkerTree, FaasError> {
        let p = params.n_workers;
        let (results, result_rx) = mpsc_channel();
        let (handles, handle_rx) = mpsc_channel();
        let (control_txs, control_rxs): (Vec<_>, Vec<_>) = (0..p)
            .map(|_| {
                let (tx, rx) = mpsc_channel();
                (tx, Some(rx))
            })
            .unzip();
        let kills: Vec<Arc<AtomicBool>> =
            (0..p).map(|_| Arc::new(AtomicBool::new(false))).collect();
        let poison = Arc::new(AtomicBool::new(false));
        let tree = WorkerTree {
            key,
            generation,
            controls: control_txs,
            kills: kills.clone(),
            poison: poison.clone(),
            results: result_rx,
            handles: handle_rx,
            joined: false,
            env: platform.env().clone(),
            launch_flow: flow,
            stream: params.stream,
        };
        let shared = ServeShared {
            params,
            launch_flow: flow,
            controls: Arc::new(Mutex::new(control_rxs)),
            results,
            handles,
            kills: Arc::new(kills),
            poison,
        };
        // Both strategies consume `shared`, so on a refusal every sender
        // the owner's shutdown waits on belongs to a live instance.
        if shared.params.stream {
            launch_flat(platform, shared)?;
        } else {
            launch_cascade(platform, shared)?;
        }
        Ok(tree)
    }

    /// The shape this tree serves.
    pub(crate) fn key(&self) -> TreeKey {
        self.key
    }

    /// The pool generation this tree was created under.
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// Whether an instance of this tree has died (the tree must not be
    /// checked back in).
    pub(crate) fn is_poisoned(&self) -> bool {
        self.poison.load(Ordering::Relaxed)
    }

    /// Arms the kill switch of one rank: the instance terminates at its
    /// next work item, poisoning the tree (failure injection / chaos hook).
    pub(crate) fn kill_worker(&self, rank: u32) {
        if let Some(flag) = self.kills.get(rank as usize) {
            flag.store(true, Ordering::Relaxed);
        }
    }

    /// Routes one request into the tree and collects every rank's result.
    ///
    /// On any failure — a rank's error, or a hung-up control or result
    /// channel — the tree is poisoned and shut down (every instance
    /// joined), and every error is drained, so the reported cause does not
    /// depend on which thread lost a real-time race: a real error wins
    /// over an `"abort"` echo of a peer's death, then the lowest rank
    /// wins. The hung-up error is reported only when no rank reported
    /// anything.
    pub(crate) fn run(&mut self, item: WorkItem) -> Result<TreeRunOutput, FaasError> {
        let n = self.controls.len();
        let mut failed = !self
            .controls
            .iter()
            .all(|control| control.send(item.clone()).is_ok());
        let mut errors: Vec<(u32, FaasError)> = Vec::new();
        let mut reports: Vec<(u32, InvocationReport)> = Vec::with_capacity(n);
        let mut final_batches = None;
        let mut artifact_gets = 0u64;
        let mut work_done = 0u64;
        while !failed && reports.len() < n {
            match self.results.recv() {
                Ok((rank, Ok((out, report)))) => {
                    reports.push((rank, report));
                    artifact_gets += out.artifact_gets;
                    work_done += out.work_done;
                    if rank == 0 {
                        final_batches = out.final_batches;
                    }
                }
                Ok((rank, Err(e))) => {
                    errors.push((rank, e));
                    failed = true;
                }
                Err(_) => failed = true,
            }
        }
        if failed {
            self.shutdown();
            errors.extend(
                self.results
                    .try_iter()
                    .filter_map(|(rank, r)| r.err().map(|e| (rank, e))),
            );
            let is_abort = |e: &FaasError| matches!(e, FaasError::Comm(c) if c.op == "abort");
            return Err(errors
                .into_iter()
                .min_by_key(|(rank, e)| (is_abort(e), *rank))
                .map(|(_, e)| e)
                .unwrap_or_else(|| {
                    FaasError::comm(
                        "tree",
                        format!("fsd-tree-p{}", self.key.workers),
                        "worker tree hung up mid-request",
                    )
                }));
        }
        // Arrival order races across real threads; rank order is canonical.
        reports.sort_unstable_by_key(|(rank, _)| *rank);
        let final_batches = final_batches.ok_or_else(|| {
            FaasError::comm("tree", "rank 0", "root worker returned no final output")
        })?;
        Ok(TreeRunOutput {
            final_batches,
            reports,
            artifact_gets,
            work_done,
        })
    }
    /// Closes the control channels and joins every instance. Safe to call
    /// more than once. A poisoned tree's stragglers exit through the
    /// poison-raised abort in their limit checks, so this returns in real
    /// time even after a failure.
    pub(crate) fn shutdown(&mut self) {
        if self.joined {
            return;
        }
        self.joined = true;
        // Stop serve loops (they exit once queued items are drained)…
        self.controls.clear();
        // …and make sure nothing can park in a poll forever.
        self.poison.store(true, Ordering::Relaxed);
        for _ in 0..self.kills.len() {
            match self.handles.recv() {
                // Poisoned / killed instances legitimately return errors.
                Ok(handle) => {
                    let _ = handle.join();
                }
                Err(_) => break,
            }
        }
        // Every instance has joined: no receiver is left for any weight
        // frame still parked under the launch flow (aborted streams,
        // frames addressed to a rank that died booting) — drop them so
        // the residue audit stays clean.
        if self.stream {
            self.env.weight_net().close_flow(self.launch_flow);
        }
    }
}

impl Drop for WorkerTree {
    fn drop(&mut self) {
        self.shutdown();
    }
}
