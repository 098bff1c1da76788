//! The FSI worker routine (Algorithms 1 & 2, channel-generic).
//!
//! A worker is one rank of a worker tree, brought up by the launcher
//! (the cascade or the flat streamed launch) with its weight/map
//! artifacts loaded. Per request it runs `run_batches`: per inference
//! batch (paper Fig. 1: "Batch 1 … Batch n, SYNC") and per layer it sends
//! its owed rows, computes the local product while the send lanes are still
//! in flight (overlapping communication with computation), joins the send
//! fence, receives and accumulates inbound rows until its receive map is
//! satisfied, and applies the activation. A barrier + reduce per batch
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
            let fence = channel.send_layer(ctx, tag, rank, &sends)?;
            drop(sends);

            // Local product overlaps with the outbound send lanes and the
            // inbound communication: its compute time is charged *now*
            // (before joining the send fence), while the numeric
            // accumulation is deferred and done over the merged, id-sorted
            // input set — so the f32 summation order (and hence the
            // result) is bit-identical to the serial ground truth.
            let local_work = art.weight(k).matched_work(&x);
            ctx.charge_work(local_work);
            work_done += local_work;
            ctx.clock_mut().observe(fence);

            // Receive until every expected source delivered. Every channel
            // hands a tag's blocks back only once the tag is complete, so
            // their accumulate work is charged after the last arrival. The
            // blocks join `x` in one k-way merge; `tracked` is what the
            // memory model holds for `x` and them, freed as one.
            let mut tracker = RecvTracker::expecting(art.recv[k].iter().map(|(s, _)| *s));
            let mut received: Vec<SparseRows> = Vec::new();
            let mut tracked = x.mem_bytes();
            while !tracker.done() {
                ctx.check_limits()?;
                let blocks = channel.receive_round(ctx, tag, rank, &mut tracker)?;
                for (_, block) in blocks {
                    let w = art.weight(k).matched_work(&block);
                    ctx.charge_work(w);
                    work_done += w;
                    tracked += block.mem_bytes();
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
            let (next, fw) = acc.finalize(&art.owned, spec.bias, spec.clip);
            ctx.charge_work(fw);
            work_done += fw;
            ctx.track_free(tracked);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifacts::{load_worker_artifacts, stage_inputs, stage_partitioned_model};
    use crate::queue_channel::{ChannelOptions, QueueChannel};
    use fsd_comm::{CloudConfig, CloudEnv, VirtualTime};
    use fsd_faas::{ComputeModel, FaasPlatform, FunctionConfig};
    use fsd_model::{generate_dnn, generate_inputs, InputSpec};
    use fsd_partition::{partition_model, CommPlan, PartitionScheme};

    #[test]
    fn every_rank_returns_to_its_post_load_memory_after_each_request() {
        let env = CloudEnv::new(CloudConfig::deterministic(3));
        let spec = DnnSpec {
            neurons: 96,
            layers: 4,
            nnz_per_row: 8,
            bias: -0.25,
            clip: 32.0,
            seed: 3,
        };
        let dnn = generate_dnn(&spec);
        let p = 4u32;
        let part = partition_model(&dnn, p as usize, PartitionScheme::Block, 1);
        let plan = CommPlan::build(&dnn, &part);
        stage_partitioned_model(&env, "m", &dnn, &part, &plan);
        let widths = [12usize, 7];
        for (b, &width) in widths.iter().enumerate() {
            let inputs = generate_inputs(spec.neurons, &InputSpec::scaled(width, b as u64 + 1));
            stage_inputs(&env, &format!("i/b{b}"), &inputs, Some(&part));
        }
        // Three requests in a row, each on its own flow-scoped channel, as
        // a warm tree serves them.
        let channels: Vec<Arc<dyn FsiChannel>> = (1..=3u64)
            .map(|flow| {
                let ch: Arc<dyn FsiChannel> =
                    QueueChannel::setup_scoped(env.clone(), p, ChannelOptions::default(), flow);
                ch
            })
            .collect();
        let platform = FaasPlatform::new(env, ComputeModel::default());
        let ranks: Vec<_> = (0..p)
            .map(|rank| {
                let channels = channels.clone();
                platform.invoke(
                    FunctionConfig::worker(format!("w{rank}"), 2048),
                    VirtualTime::ZERO,
                    move |ctx| {
                        let mut art = load_worker_artifacts(ctx, "m", p, rank, spec.layers)?;
                        let loaded = ctx.mem_bytes();
                        for channel in &channels {
                            run_batches(ctx, channel, rank, p, &spec, &mut art, "i", &widths)?;
                            assert_eq!(ctx.mem_bytes(), loaded, "rank {rank} kept memory");
                        }
                        Ok(())
                    },
                )
            })
            .collect();
        for rank in ranks {
            rank.join().expect("rank served every request");
        }
    }
}
