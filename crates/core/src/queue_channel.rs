//! FSD-Inf-Queue: the pub-sub/queueing channel (FSI Algorithm 1).
//!
//! Send path: per-target row blocks are split into byte strings sized by
//! the NNZ heuristic, serialized, compressed, and packed greedily into
//! publish batches (≤ 10 messages, ≤ 256 KiB) to maximize payload
//! utilization — the paper's main cost lever for `S`. Batches are issued to
//! the sender's topic (`topic-{m % T}`) over a modeled thread pool; the
//! service fans each message out to its target's dedicated queue via
//! filter policies.
//!
//! Receive path: long polls against the worker's own queue; each message
//! carries `(source, total_chunks)` attributes so the tracker knows when a
//! source is complete. Early messages for later tags (a fast sender already
//! one layer ahead) are stashed, never dropped.

use crate::channel::{FsiChannel, RecvTracker, Tag};
use crate::stats::ChannelStats;
use fsd_comm::{
    quota, topic_name, CloudEnv, Message, MessageAttributes, SqsQueue, VClock, VirtualTime,
};
use fsd_faas::{FaasError, WorkerCtx};
use fsd_sparse::{codec, compress, SparseRows};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Tuning knobs for both channels.
#[derive(Debug, Clone, Copy)]
pub struct ChannelOptions {
    /// Modeled sender-side thread pool width (the paper multi-threads
    /// message construction and publication).
    pub send_threads: usize,
    /// Long-poll wait `W` in seconds.
    pub long_poll_secs: f64,
    /// Whether payloads are compressed (ablation lever; paper uses ZLIB).
    pub compression: bool,
    /// Target nonzeros per byte string — the NNZ packing heuristic.
    pub chunk_nnz: usize,
    /// Object channel: write 0-byte `.nul` markers for empty sends instead
    /// of `.dat` files the receiver must GET (ablation lever; paper §III-C2).
    pub nul_markers: bool,
    /// Queue channel: pack messages into multi-message publish batches
    /// (ablation lever; `false` = one message per publish, inflating `S`).
    pub packing: bool,
    /// Hybrid channel: per-target payloads whose serialized
    /// (pre-compression) size exceeds this many bytes are spilled to
    /// object storage and replaced in-queue by a pointer record; at or
    /// below it they ride the queue inline. Defaults to one publish quota
    /// — anything that would not fit a single message spills.
    pub spill_threshold: usize,
    /// Retry policy for transient communication faults on the idempotent
    /// operations (publish / PUT / GET). Enabled by default; with no
    /// faults injected it changes nothing.
    pub retry: crate::retry::RetryPolicy,
}

impl Default for ChannelOptions {
    fn default() -> Self {
        ChannelOptions {
            send_threads: 8,
            long_poll_secs: 2.0,
            compression: true,
            chunk_nnz: 28_000,
            nul_markers: true,
            packing: true,
            spill_threshold: quota::MAX_PUBLISH_BYTES,
            retry: crate::retry::RetryPolicy::default(),
        }
    }
}

/// Single-thread payload-processing throughputs (bytes/second on one full
/// vCPU) — the CPU property behind the paper's serialization/compression
/// overheads, independent of the kernel-work compute model.
const ENCODE_BPS: f64 = 150e6;
const COMPRESS_BPS: f64 = 60e6;
const DECODE_BPS: f64 = 140e6;

/// Serializes (and optionally compresses) a block, charging the worker.
/// Returns the wire body. Shared by both channels.
pub(crate) fn encode_payload(
    ctx: &mut WorkerCtx,
    stats: &ChannelStats,
    rows: &SparseRows,
    compression: bool,
) -> Vec<u8> {
    let encoded = codec::encode(rows);
    ctx.charge_bytes(encoded.len() as u64, ENCODE_BPS);
    stats.add(&stats.bytes_precompress, encoded.len() as u64);
    if compression {
        let compressed = compress::compress(&encoded);
        ctx.charge_bytes(encoded.len() as u64, COMPRESS_BPS);
        compressed
    } else {
        encoded
    }
}

/// Decodes a wire body produced by [`encode_payload`], charging the worker.
pub(crate) fn decode_payload(
    ctx: &mut WorkerCtx,
    body: &[u8],
    compression: bool,
) -> Result<SparseRows, FaasError> {
    ctx.charge_bytes(body.len() as u64, DECODE_BPS);
    let encoded = if compression {
        compress::decompress(body).map_err(|e| FaasError::comm("decompress", "", e))?
    } else {
        body.to_vec()
    };
    codec::decode(&encoded).map_err(|e| FaasError::comm("decode", "", e))
}

/// Per-`(receiver, tag)` buffer of raw arrivals awaiting the tag's
/// completion. Physical dequeues land here with **no billing and no clock
/// movement**; when the receiver's tracker completes, the whole set is
/// processed in deterministic stamp order and the billed long-poll
/// sequence is reconstructed from the stamps
/// ([`SqsQueue::settle_receives`]) — so per-request timing and billing
/// never depend on how real threads happened to batch the arrivals.
/// Shared by the queue and hybrid channels (identical control planes).
#[derive(Default)]
pub(crate) struct TagInbox {
    /// `(stamp, source, total_chunks, wire body)` in arrival order.
    pub(crate) raw: Vec<(VirtualTime, u32, u32, Vec<u8>)>,
    /// Chunk announcements not yet applied to the tag's tracker (filled
    /// when messages arrive while another tag is being received).
    pub(crate) unapplied: Vec<(u32, u32)>,
}

/// The shared receive prologue of the queue-fed channels: applies stashed
/// chunk announcements for `(me, want)` to `tracker`, then — while the
/// tag is still incomplete — takes one raw physical batch (attribute
/// parsing only; no billing, no clock movement) and stashes it per tag,
/// or bills one empty long poll when producers have genuinely not shown
/// up within the real-time grace (so a stuck run still walks toward its
/// virtual timeout).
pub(crate) fn poll_and_stash(
    queue: &SqsQueue,
    inboxes: &Mutex<HashMap<(u32, u32), TagInbox>>,
    stats: &ChannelStats,
    ctx: &mut WorkerCtx,
    opts: &ChannelOptions,
    (me, want): (u32, u32),
    tracker: &mut RecvTracker,
) {
    {
        let mut inboxes = inboxes.lock();
        if let Some(inbox) = inboxes.get_mut(&(me, want)) {
            for (source, total) in inbox.unapplied.drain(..) {
                tracker.record_chunk(source, total);
            }
        }
    }
    if tracker.done() {
        return;
    }
    let msgs = queue.take_visible(quota::MAX_BATCH_MESSAGES);
    if msgs.is_empty() {
        queue.empty_poll(ctx.clock_mut(), opts.long_poll_secs);
        stats.add(&stats.sqs_calls, 1);
        return;
    }
    let mut inboxes = inboxes.lock();
    for msg in msgs {
        let attrs = msg.message.attributes;
        if attrs.layer == want {
            tracker.record_chunk(attrs.source, attrs.total_chunks);
        } else {
            inboxes
                .entry((me, attrs.layer))
                .or_default()
                .unapplied
                .push((attrs.source, attrs.total_chunks));
        }
        inboxes.entry((me, attrs.layer)).or_default().raw.push((
            msg.available_at,
            attrs.source,
            attrs.total_chunks,
            msg.message.body,
        ));
    }
}

/// Packs `messages` into publish batches (≤ 10 messages, ≤ 256 KiB — or
/// one message per publish with packing disabled) and issues them to
/// `topic` over the modeled `send_threads` lane pool, every lane starting
/// at `start`, and records client-side stats. Returns the publish fence
/// (the slowest lane's clock); the caller's clock does not move. The
/// shared control-plane send path of the queue and hybrid channels.
pub(crate) fn publish_over_lanes(
    env: &CloudEnv,
    stats: &ChannelStats,
    ctx: &mut WorkerCtx,
    opts: &ChannelOptions,
    topic: usize,
    messages: Vec<Message>,
    start: VirtualTime,
) -> Result<VirtualTime, FaasError> {
    let max_batch = if opts.packing {
        quota::MAX_BATCH_MESSAGES
    } else {
        1
    };
    let mut batches: Vec<Vec<Message>> = Vec::new();
    let mut cur: Vec<Message> = Vec::new();
    let mut cur_bytes = 0usize;
    for msg in messages {
        let too_full = cur.len() == max_batch
            || (!cur.is_empty() && cur_bytes + msg.len() > quota::MAX_PUBLISH_BYTES);
        if too_full {
            batches.push(std::mem::take(&mut cur));
            cur_bytes = 0;
        }
        cur_bytes += msg.len();
        cur.push(msg);
    }
    if !cur.is_empty() {
        batches.push(cur);
    }
    // Lane clocks inherit the worker's flow so publishes bill to the
    // request.
    let lanes = opts.send_threads.max(1);
    let lane0 = VClock::starting_at(start).with_flow(ctx.clock_mut().flow());
    let mut lane_clocks: Vec<VClock> = vec![lane0; lanes];
    for (i, batch) in batches.into_iter().enumerate() {
        let lane = &mut lane_clocks[i % lanes];
        let bytes: u64 = batch.iter().map(|m| m.len() as u64).sum();
        let n_msgs = batch.len() as u64;
        // A faulted publish bills its requests but delivers nothing, so
        // republishing the identical batch is idempotent (no duplicate
        // deliveries); each failed attempt has already advanced the lane.
        let (res, retries) = opts.retry.run(lane, |lane| {
            env.pubsub().publish_batch(topic, lane, batch.clone())
        });
        stats.add(&stats.retries, retries);
        let billed = res.map_err(|e| FaasError::comm("publish", topic_name(topic), e))?;
        stats.add(&stats.sns_billed, billed);
        stats.add(&stats.sns_batches, 1);
        stats.add(&stats.messages, n_msgs);
        stats.add(&stats.bytes_sent, bytes);
    }
    Ok(lane_clocks.iter().map(|c| c.now()).max().expect("≥1 lane"))
}

/// The pub-sub/queueing channel. One instance serves one request flow:
/// its queues and filter-policy subscriptions are namespaced by the flow
/// id, so concurrent requests share the region's topics without
/// cross-delivery or shared mutable state.
pub struct QueueChannel {
    env: Arc<CloudEnv>,
    n_workers: u32,
    flow: u64,
    opts: ChannelOptions,
    queues: Vec<Arc<SqsQueue>>,
    stats: ChannelStats,
    /// Deferred arrivals: `(receiver, tag) → inbox`.
    inboxes: Mutex<HashMap<(u32, u32), TagInbox>>,
}

impl QueueChannel {
    /// Sets up a channel in the default flow (0) — single-request and test
    /// use. Serving code goes through [`QueueChannel::setup_scoped`].
    pub fn setup(env: Arc<CloudEnv>, n_workers: u32, opts: ChannelOptions) -> Arc<QueueChannel> {
        QueueChannel::setup_scoped(env, n_workers, opts, 0)
    }

    /// Pre-creates one queue per worker (named by flow and rank) and
    /// subscribes each to every topic with a `(flow, rank)` filter policy.
    /// Queue/topic infrastructure is pre-created offline in the paper and
    /// carries no idle cost, so setup is not billed.
    pub fn setup_scoped(
        env: Arc<CloudEnv>,
        n_workers: u32,
        opts: ChannelOptions,
        flow: u64,
    ) -> Arc<QueueChannel> {
        let mut queues = Vec::with_capacity(n_workers as usize);
        for m in 0..n_workers {
            let q = env.queue(&queue_name(flow, m));
            for t in 0..env.pubsub().n_topics() {
                env.pubsub()
                    .subscribe(t, flow, m, q.clone())
                    .expect("topic pre-created");
            }
            queues.push(q);
        }
        Arc::new(QueueChannel {
            env,
            n_workers,
            flow,
            opts,
            queues,
            stats: ChannelStats::new(),
            inboxes: Mutex::new(HashMap::new()),
        })
    }

    /// Client-side statistics (cost-model inputs).
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// Worker count this channel was set up for.
    pub fn n_workers(&self) -> u32 {
        self.n_workers
    }

    /// The request flow this channel is scoped to.
    pub fn flow(&self) -> u64 {
        self.flow
    }

    /// Builds the byte-string chunk list for one target.
    fn chunks_for(&self, ctx: &mut WorkerCtx, rows: &SparseRows) -> Vec<Vec<u8>> {
        if rows.is_empty() {
            // An empty send still announces itself with one tiny message so
            // the receiver's tracker can complete the source.
            return vec![encode_payload(
                ctx,
                &self.stats,
                rows,
                self.opts.compression,
            )];
        }
        let mut bodies = Vec::new();
        // NNZ heuristic first, then a hard re-split on the byte cap.
        let mut pending: Vec<SparseRows> = rows.split_by_nnz(self.opts.chunk_nnz);
        while let Some(chunk) = pending.pop() {
            let body = encode_payload(ctx, &self.stats, &chunk, self.opts.compression);
            if body.len() > quota::MAX_PUBLISH_BYTES && chunk.n_rows() > 1 {
                // Rare: compression underperformed the heuristic; halve.
                let halves = chunk.split_by_nnz((chunk.nnz() / 2).max(1));
                pending.extend(halves);
                continue;
            }
            bodies.push(body);
        }
        bodies
    }
}

/// Canonical per-flow queue naming.
fn queue_name(flow: u64, rank: u32) -> String {
    format!("fsd-f{flow}-q{rank}")
}

impl FsiChannel for QueueChannel {
    fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// Unsubscribes this flow's filter policies and removes its queues from
    /// the region.
    fn teardown(&self) {
        for m in 0..self.n_workers {
            for t in 0..self.env.pubsub().n_topics() {
                let _ = self.env.pubsub().unsubscribe(t, self.flow, m);
            }
            if let Some(q) = self.env.remove_queue(&queue_name(self.flow, m)) {
                q.purge();
            }
        }
    }

    fn send_layer(
        &self,
        ctx: &mut WorkerCtx,
        tag: Tag,
        src: u32,
        sends: &[(u32, SparseRows)],
    ) -> Result<VirtualTime, FaasError> {
        if sends.is_empty() {
            return Ok(ctx.now());
        }
        // 1. Build all byte strings (Xsend_list in Algorithm 1).
        let mut messages: Vec<Message> = Vec::new();
        for (target, rows) in sends {
            let bodies = self.chunks_for(ctx, rows);
            let total_chunks = bodies.len() as u32;
            for body in bodies {
                messages.push(Message {
                    attributes: MessageAttributes {
                        flow: self.flow,
                        source: src,
                        target: *target,
                        layer: tag.encode(),
                        total_chunks,
                        batch: 0,
                    },
                    body,
                });
            }
        }
        // 2. Greedy batch packing + lane-clocked publishes (shared with
        //    the hybrid channel's control plane); their fence is ours.
        let topic = src as usize % self.env.pubsub().n_topics();
        let start = ctx.now();
        publish_over_lanes(
            &self.env,
            &self.stats,
            ctx,
            &self.opts,
            topic,
            messages,
            start,
        )
    }

    fn receive_round(
        &self,
        ctx: &mut WorkerCtx,
        tag: Tag,
        me: u32,
        tracker: &mut RecvTracker,
    ) -> Result<Vec<(u32, SparseRows)>, FaasError> {
        let want = tag.encode();
        // Shared prologue: apply early announcements, raw-take one
        // physical batch (every virtual effect — decode charges, poll
        // billing, clock joins — is deferred to the tag's completion so
        // it cannot depend on how the arrivals were batched in real
        // time), or bill one empty long poll on a genuine drought.
        poll_and_stash(
            &self.queues[me as usize],
            &self.inboxes,
            &self.stats,
            ctx,
            &self.opts,
            (me, want),
            tracker,
        );
        if !tracker.done() {
            return Ok(Vec::new());
        }
        // Tag complete: settle the billed poll sequence from the stamps
        // *first* — a body cannot be decoded before it has been received —
        // then decode the arrival set in deterministic stamp order.
        let inbox = self.inboxes.lock().remove(&(me, want)).unwrap_or_default();
        let mut raw = inbox.raw;
        raw.sort_unstable_by_key(|m| (m.0, m.1, m.3.len()));
        let billing: Vec<(VirtualTime, usize)> = raw
            .iter()
            .map(|(stamp, .., body)| (*stamp, body.len()))
            .collect();
        let rounds = self.queues[me as usize].settle_receives(
            ctx.clock_mut(),
            self.opts.long_poll_secs,
            &billing,
        );
        self.stats.add(&self.stats.sqs_calls, rounds);
        let mut out = Vec::new();
        for (_, source, _, body) in raw {
            let rows = decode_payload(ctx, &body, self.opts.compression)?;
            if !rows.is_empty() {
                out.push((source, rows));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsd_comm::CloudConfig;
    use fsd_comm::VirtualTime;
    use fsd_faas::{ComputeModel, FaasPlatform, FunctionConfig};

    fn with_ctx<T: Send + 'static>(
        env: Arc<CloudEnv>,
        body: impl FnOnce(&mut WorkerCtx) -> Result<T, FaasError> + Send + 'static,
    ) -> T {
        let platform = FaasPlatform::new(env, ComputeModel::default());
        platform
            .invoke(FunctionConfig::worker("t", 2048), VirtualTime::ZERO, body)
            .join()
            .expect("test body ok")
            .0
    }

    fn rows(ids: &[u32]) -> SparseRows {
        SparseRows::from_rows(
            4,
            ids.iter().map(|&i| (i, vec![0u32, 2], vec![1.0f32, 2.0])),
        )
    }

    /// `n` rows from id `base` with `width` hash-varied values each, so
    /// wire bodies grow with `n` and compress only a little.
    fn varied_rows(base: u32, n: u32, width: u32) -> SparseRows {
        SparseRows::from_rows(
            width as usize,
            (base..base + n).map(|i| {
                let vals = (0..width)
                    .map(|j| {
                        (i.wrapping_mul(2_654_435_761).wrapping_add(j * 40_503) % 65_521) as f32
                    })
                    .collect();
                (i, (0..width).collect(), vals)
            }),
        )
    }

    #[test]
    fn send_fence_covers_every_publish_lane() {
        let env = CloudEnv::new(CloudConfig::deterministic(8));
        // One message per publish spreads 20 sends over every lane.
        let opts = ChannelOptions {
            packing: false,
            ..ChannelOptions::default()
        };
        let ch = QueueChannel::setup(env.clone(), 21, opts);
        let ch2 = ch.clone();
        let sends: Vec<(u32, SparseRows)> =
            (1..21u32).map(|t| (t, varied_rows(t, 4 * t, 16))).collect();
        let (lanes_start, fence) = with_ctx(env.clone(), move |ctx| {
            let fence = ch2.send_layer(ctx, Tag::Layer(0), 0, &sends)?;
            Ok((ctx.now(), fence))
        });
        let delivery = env.latency().sns_delivery_us;
        let mut slowest = 0u64;
        for q in &ch.queues[1..] {
            for m in q.take_visible(quota::MAX_BATCH_MESSAGES) {
                let published = m.available_at.as_micros() - delivery;
                assert!(published > lanes_start.as_micros());
                assert!(
                    fence.as_micros() >= published,
                    "a lane ends after the fence"
                );
                slowest = slowest.max(published);
            }
        }
        assert_eq!(fence.as_micros(), slowest, "the fence is the slowest lane");
        assert!(fence > lanes_start, "the sender's clock joined its lanes");
    }

    #[test]
    fn decode_is_charged_after_the_receive_that_delivers() {
        let env = CloudEnv::new(CloudConfig::deterministic(9));
        let ch = QueueChannel::setup(env.clone(), 2, ChannelOptions::default());
        let block = varied_rows(0, 64, 64);
        // The block travels as one message; measure its decode charge alone.
        let block2 = block.clone();
        let (body_len, decode_us) = with_ctx(env.clone(), move |ctx| {
            let body = encode_payload(ctx, &ChannelStats::new(), &block2, true);
            let t0 = ctx.now();
            decode_payload(ctx, &body, true)?;
            Ok((body.len(), ctx.now().as_micros() - t0.as_micros()))
        });
        assert!(decode_us > 0);
        let ch2 = ch.clone();
        // The sender publishes 3 s into the receiver's wait.
        let fence = with_ctx(env.clone(), move |ctx| {
            ctx.clock_mut().advance_micros(3_000_000);
            ch2.send_layer(ctx, Tag::Layer(0), 0, &[(1, block)])
        });
        let finished = with_ctx(env.clone(), move |ctx| {
            let mut tracker = RecvTracker::expecting([0u32]);
            let got = ch.receive_all(ctx, Tag::Layer(0), 1, &mut tracker)?;
            assert_eq!(got.len(), 1);
            Ok(ctx.now())
        });
        let lat = env.latency();
        let stamp = fence.as_micros() + lat.sns_delivery_us;
        let round = lat.sqs_poll_total_us(body_len) + lat.sqs_delete_us;
        assert!(
            finished.as_micros() >= stamp + round + decode_us,
            "finished at {finished:?}, before stamp {stamp} µs + round {round} µs + decode \
             {decode_us} µs"
        );
    }

    #[test]
    fn send_receive_roundtrip() {
        let env = CloudEnv::new(CloudConfig::deterministic(1));
        let ch = QueueChannel::setup(env.clone(), 2, ChannelOptions::default());
        let ch2 = ch.clone();
        let sent = rows(&[3, 8]);
        let sent2 = sent.clone();
        with_ctx(env.clone(), move |ctx| {
            ch2.send_layer(ctx, Tag::Layer(0), 0, &[(1, sent2)])
        });
        let got = with_ctx(env, move |ctx| {
            let mut tracker = RecvTracker::expecting([0u32]);
            ch.receive_all(ctx, Tag::Layer(0), 1, &mut tracker)
        });
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, 0);
        assert_eq!(got[0].1, sent);
    }

    #[test]
    fn empty_send_completes_tracker_without_rows() {
        let env = CloudEnv::new(CloudConfig::deterministic(2));
        let ch = QueueChannel::setup(env.clone(), 2, ChannelOptions::default());
        let ch2 = ch.clone();
        with_ctx(env.clone(), move |ctx| {
            ch2.send_layer(ctx, Tag::Layer(0), 0, &[(1, SparseRows::new(4))])
        });
        let got = with_ctx(env, move |ctx| {
            let mut tracker = RecvTracker::expecting([0u32]);
            ch.receive_all(ctx, Tag::Layer(0), 1, &mut tracker)
        });
        assert!(got.is_empty());
    }

    #[test]
    fn large_blocks_split_into_multiple_chunks() {
        let env = CloudEnv::new(CloudConfig::deterministic(3));
        let opts = ChannelOptions {
            chunk_nnz: 8,
            ..ChannelOptions::default()
        };
        let ch = QueueChannel::setup(env.clone(), 2, opts);
        let ch2 = ch.clone();
        let big = SparseRows::from_rows(
            64,
            (0..32u32).map(|i| (i, (0..8u32).collect::<Vec<_>>(), vec![1.5f32; 8])),
        );
        let big2 = big.clone();
        with_ctx(env.clone(), move |ctx| {
            ch2.send_layer(ctx, Tag::Layer(1), 0, &[(1, big2)])
        });
        assert!(
            ch.stats().snapshot().messages >= 4,
            "NNZ heuristic did not chunk"
        );
        let got = with_ctx(env, move |ctx| {
            let mut tracker = RecvTracker::expecting([0u32]);
            ch.receive_all(ctx, Tag::Layer(1), 1, &mut tracker)
        });
        let mut merged = SparseRows::new(64);
        for (_, b) in got {
            merged.merge(&b);
        }
        assert_eq!(merged, big);
    }

    #[test]
    fn early_arrivals_are_stashed_not_lost() {
        let env = CloudEnv::new(CloudConfig::deterministic(4));
        let ch = QueueChannel::setup(env.clone(), 2, ChannelOptions::default());
        let ch_send = ch.clone();
        // Sender ships layer 0 AND layer 1 before the receiver polls at all.
        with_ctx(env.clone(), move |ctx| {
            ch_send.send_layer(ctx, Tag::Layer(0), 0, &[(1, rows(&[1]))])?;
            ch_send.send_layer(ctx, Tag::Layer(1), 0, &[(1, rows(&[2]))])
        });
        let ch_recv = ch.clone();
        let (l0, l1) = with_ctx(env, move |ctx| {
            let mut t0 = RecvTracker::expecting([0u32]);
            let l0 = ch_recv.receive_all(ctx, Tag::Layer(0), 1, &mut t0)?;
            let mut t1 = RecvTracker::expecting([0u32]);
            let l1 = ch_recv.receive_all(ctx, Tag::Layer(1), 1, &mut t1)?;
            Ok((l0, l1))
        });
        assert_eq!(l0[0].1.ids(), &[1]);
        assert_eq!(l1[0].1.ids(), &[2]);
    }

    #[test]
    fn batches_pack_up_to_ten_messages() {
        let env = CloudEnv::new(CloudConfig::deterministic(5));
        let ch = QueueChannel::setup(env.clone(), 12, ChannelOptions::default());
        let ch2 = ch.clone();
        // 11 small sends → 11 messages → 2 publish batches (10 + 1).
        let sends: Vec<(u32, SparseRows)> = (1..12u32).map(|t| (t, rows(&[t]))).collect();
        with_ctx(env, move |ctx| {
            ch2.send_layer(ctx, Tag::Layer(0), 0, &sends)
        });
        let snap = ch.stats().snapshot();
        assert_eq!(snap.messages, 11);
        assert_eq!(snap.sns_batches, 2);
        assert_eq!(snap.sns_billed, 2, "small batches bill one request each");
    }

    #[test]
    fn client_stats_match_service_meter() {
        let env = CloudEnv::new(CloudConfig::deterministic(6));
        let ch = QueueChannel::setup(env.clone(), 3, ChannelOptions::default());
        let ch2 = ch.clone();
        let sends: Vec<(u32, SparseRows)> = vec![(1, rows(&[0, 5])), (2, rows(&[7]))];
        with_ctx(env.clone(), move |ctx| {
            ch2.send_layer(ctx, Tag::Layer(0), 0, &sends)
        });
        let ch3 = ch.clone();
        with_ctx(env.clone(), move |ctx| {
            let mut t = RecvTracker::expecting([0u32]);
            ch3.receive_all(ctx, Tag::Layer(0), 1, &mut t)
        });
        let client = ch.stats().snapshot();
        let service = env.snapshot();
        assert_eq!(client.sns_billed, service.sns_publish_requests);
        assert_eq!(client.bytes_sent, service.sns_delivered_bytes);
        assert_eq!(
            client.messages,
            service.sqs_messages + 1 /* undelivered to w2 */
        );
    }

    #[test]
    fn scoped_channels_are_isolated_per_flow() {
        // Two channels over the same environment and worker ranks, distinct
        // flows: each receiver sees only its own flow's payloads.
        let env = CloudEnv::new(CloudConfig::deterministic(7));
        let a = QueueChannel::setup_scoped(env.clone(), 2, ChannelOptions::default(), 1);
        let b = QueueChannel::setup_scoped(env.clone(), 2, ChannelOptions::default(), 2);
        let (a2, b2) = (a.clone(), b.clone());
        with_ctx(env.clone(), move |ctx| {
            a2.send_layer(ctx, Tag::Layer(0), 0, &[(1, rows(&[1]))])?;
            b2.send_layer(ctx, Tag::Layer(0), 0, &[(1, rows(&[2]))])
        });
        let (a3, b3) = (a.clone(), b.clone());
        let (got_a, got_b) = with_ctx(env.clone(), move |ctx| {
            let mut ta = RecvTracker::expecting([0u32]);
            let ga = a3.receive_all(ctx, Tag::Layer(0), 1, &mut ta)?;
            let mut tb = RecvTracker::expecting([0u32]);
            let gb = b3.receive_all(ctx, Tag::Layer(0), 1, &mut tb)?;
            Ok((ga, gb))
        });
        assert_eq!(got_a[0].1.ids(), &[1], "flow 1 received flow 2's rows");
        assert_eq!(got_b[0].1.ids(), &[2], "flow 2 received flow 1's rows");

        // Teardown releases exactly this flow's resources.
        assert_eq!(env.queue_count(), 4);
        a.teardown();
        assert_eq!(env.queue_count(), 2);
        b.teardown();
        assert_eq!(env.queue_count(), 0);
        for t in 0..env.pubsub().n_topics() {
            assert_eq!(env.pubsub().subscription_count(t), 0);
        }
    }
}
