//! The FSI worker routine (Algorithms 1 & 2, channel-generic).
//!
//! A worker is one rank of a worker tree, brought up by the launcher
//! (the cascade or the flat streamed launch) with its weight/map
//! artifacts loaded. Per request it runs `run_batches`: per inference
//! batch (paper Fig. 1: "Batch 1 … Batch n, SYNC") and per layer it sends
//! its owed rows, computes the local product to overlap communication with
//! computation, receives and accumulates inbound rows until its receive map
//! is satisfied, and applies the activation. A barrier + reduce per batch
//! delivers that batch's result to rank 0. Launch and weight-load costs
//! amortize across batches — the data-parallel batch processing the paper
//! builds in — and, on a warm tree, across requests.

use crate::artifacts::{load_full_model, load_input_share};
use crate::channel::{barrier, reduce, FsiChannel, RecvTracker, Tag};
use fsd_faas::{FaasError, WorkerCtx};
use fsd_model::DnnSpec;
use fsd_sparse::{codec, layer_forward_reference, LayerAccumulator, SparseRows};
use std::sync::Arc;

/// What one worker produced for one request's batches.
pub struct WorkerOutput {
    /// Rank that produced this output.
    pub rank: u32,
    /// Final activations per batch (root only, after each reduce).
    pub final_batches: Option<Vec<SparseRows>>,
    /// Artifact GETs issued by this worker for the request.
    pub artifact_gets: u64,
    /// Kernel work units this worker charged.
    pub work_done: u64,
}

/// Batch-aware layer tag: tags must be distinct across batches so early
/// arrivals stash correctly and object keys never collide with a previous
/// batch's persisted files.
fn layer_tag(spec: &DnnSpec, batch: usize, k: usize) -> Tag {
    Tag::Layer((batch * spec.layers + k) as u32)
}

/// Runs every batch of one request through an already-loaded worker: per
/// batch, the layer loop of Algorithms 1 & 2 followed by a barrier + reduce
/// to rank 0. A tree's serve loop calls this once per work item, so the
/// request that launched the tree and every warm hit after it run exactly
/// the same code — outputs are bit-identical between them by construction.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_batches(
    ctx: &mut WorkerCtx,
    channel: &Arc<dyn FsiChannel>,
    rank: u32,
    n_workers: u32,
    spec: &DnnSpec,
    art: &mut crate::artifacts::WorkerArtifacts,
    input_key: &str,
    batch_widths: &[usize],
) -> Result<WorkerOutput, FaasError> {
    let mut artifact_gets = 0u64;
    let mut work_done = 0u64;
    let mut final_batches: Vec<SparseRows> = Vec::new();
    for (b, &width) in batch_widths.iter().enumerate() {
        let mut x = load_input_share(ctx, &format!("{input_key}/b{b}"), n_workers, rank)?;
        artifact_gets += 1;
        let mut acc = LayerAccumulator::new(art.owned.len(), width);
        ctx.track_alloc(art.owned.len() * width * 4);
        ctx.check_limits()?;

        // --- the layer loop (Algorithms 1 & 2) --------------------------
        for k in 0..spec.layers {
            // Streamed cold starts leave layers encoded until compute
            // reaches them (execute-while-load); eager loads no-op here.
            art.ensure_layer(ctx, k)?;
            let tag = layer_tag(spec, b, k);
            // Sends: extract and ship the rows each target needs.
            let sends: Vec<(u32, SparseRows)> = art.send[k]
                .iter()
                .map(|(target, rows)| (*target, x.extract(rows)))
                .collect();
            channel.send_layer(ctx, tag, rank, &sends)?;
            drop(sends);

            // Local product overlaps with inbound communication: its
            // compute time is charged *now* (before polling), while the
            // numeric accumulation is deferred and done over the merged,
            // id-sorted input set — so the f32 summation order (and hence
            // the result) is bit-identical to the serial ground truth.
            let local_work = art.weight(k).matched_work(&x);
            ctx.charge_work(local_work);
            work_done += local_work;

            // Receive until every expected source delivered, charging each
            // block's accumulate work as it arrives (still overlapped). The
            // blocks join `x` in one k-way merge once the layer's inputs
            // are all in.
            let mut tracker = RecvTracker::expecting(art.recv[k].iter().map(|(s, _)| *s));
            let mut received: Vec<SparseRows> = Vec::new();
            while !tracker.done() {
                ctx.check_limits()?;
                let blocks = channel.receive_round(ctx, tag, rank, &mut tracker)?;
                for (_, block) in blocks {
                    let w = art.weight(k).matched_work(&block);
                    ctx.charge_work(w);
                    work_done += w;
                    ctx.track_alloc(block.mem_bytes());
                    received.push(block);
                }
            }
            if !received.is_empty() {
                x = SparseRows::merge_all(x.width(), std::iter::once(&x).chain(&received));
            }
            drop(received);

            // One deterministic accumulation over all inputs (work already
            // charged above), then the activation x^k = f(z^k).
            acc.reset(art.owned.len());
            acc.accumulate(art.weight(k), &x);
            let old_mem = x.mem_bytes();
            let (next, fw) = acc.finalize(&art.owned, spec.bias, spec.clip);
            ctx.charge_work(fw);
            work_done += fw;
            ctx.track_free(old_mem);
            ctx.track_alloc(next.mem_bytes());
            x = next;
            ctx.check_limits()?;
        }

        // --- synchronize and reduce this batch to rank 0 ----------------
        barrier(channel.as_ref(), ctx, rank, n_workers, b as u32)?;
        let batch_mem = x.mem_bytes();
        if let Some(out) = reduce(channel.as_ref(), ctx, rank, n_workers, x, b as u32)? {
            final_batches.push(out);
        }
        ctx.track_free(batch_mem + art.owned.len() * width * 4);
    }
    Ok(WorkerOutput {
        rank,
        final_batches: if rank == 0 { Some(final_batches) } else { None },
        artifact_gets,
        work_done,
    })
}

/// FSD-Inf-Serial: one instance, whole model, no communication (Algorithm 1
/// with all communication steps removed), batches processed back to back.
pub fn run_serial(
    ctx: &mut WorkerCtx,
    model_key: &str,
    input_key: &str,
    spec: &DnnSpec,
    n_batches: usize,
) -> Result<WorkerOutput, FaasError> {
    let (layers, mut artifact_gets, _mem) = load_full_model(ctx, model_key, spec.layers)?;
    let mut work_done = 0u64;
    let mut final_batches = Vec::with_capacity(n_batches);
    for b in 0..n_batches {
        let mut x = load_full_inputs(ctx, &format!("{input_key}/b{b}"))?;
        artifact_gets += 1;
        for w in &layers {
            let (next, work) = layer_forward_reference(w, &x, spec.bias, spec.clip);
            ctx.charge_work(work);
            work_done += work;
            let old = x.mem_bytes();
            ctx.track_free(old);
            ctx.track_alloc(next.mem_bytes());
            x = next;
            ctx.check_limits()?;
        }
        final_batches.push(x);
    }
    Ok(WorkerOutput {
        rank: 0,
        final_batches: Some(final_batches),
        artifact_gets,
        work_done,
    })
}

/// Fetches the full (unpartitioned) input block for one batch.
fn load_full_inputs(ctx: &mut WorkerCtx, input_key: &str) -> Result<SparseRows, FaasError> {
    let env = ctx.env().clone();
    let body = env
        .object_store()
        .get(
            crate::artifacts::ARTIFACT_BUCKET,
            &format!("{input_key}/full"),
            ctx.clock_mut(),
        )
        .map_err(|e| FaasError::comm("get", input_key, e))?;
    let inputs = codec::decode(&body).map_err(|e| FaasError::comm("decode", "inputs", e))?;
    ctx.track_alloc(inputs.mem_bytes());
    ctx.check_limits()?;
    Ok(inputs)
}
