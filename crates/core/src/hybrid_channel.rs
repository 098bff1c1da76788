//! FSD-Inf-Hybrid: queue control plane with size-based payload spilling.
//!
//! The paper's §IV finding is that neither pure transport wins everywhere:
//! queue messages are fast and cheap per request but payload-capped, while
//! object storage carries unbounded intermediates at a higher per-op
//! latency. The hybrid channel deploys both at once, per message:
//!
//! * **control plane** — every send travels the pub-sub/queue path of
//!   Algorithm 1 (per-flow queues, filter-policy fan-out, publish
//!   batching, long polling), so receivers keep the queue channel's
//!   completion tracking and latency profile;
//! * **data plane** — any per-target payload whose serialized
//!   (pre-compression) size exceeds [`ChannelOptions::spill_threshold`]
//!   is written once to object storage and replaced in-queue by a small
//!   **pointer record** the receiver dereferences transparently.
//!
//! Wire framing (first byte of every message body):
//!
//! ```text
//! 0x00  inline:  [0x00][encoded payload …]
//! 0x01  pointer: [0x01][key_len: u32 LE][key bytes][payload_len: u64 LE]
//! ```
//!
//! Spilled objects live under the flow namespace
//! (`f{flow}/{tag}/{target}/…`), so [`HybridChannel::teardown`] removes
//! them together with the flow's queues and subscriptions — the same
//! per-request cleanup invariant both pure channels honor. A send PUTs its
//! spilled objects first and starts its publish lanes at the slowest PUT
//! lane, so a pointer is only published after its object's PUT has
//! completed: a receiver that has seen the pointer (clock ≥ message stamp
//! ≥ PUT stamp) always finds the object visible. Neither phase moves the
//! sender's clock; the send returns the publish fence.

use crate::channel::{FsiChannel, RecvTracker, Tag};
use crate::queue_channel::{
    decode_payload, encode_payload, poll_and_stash, publish_over_lanes, ChannelOptions, TagInbox,
};
use crate::stats::ChannelStats;
use fsd_comm::{
    bucket_name, quota, CloudEnv, Message, MessageAttributes, SqsQueue, VClock, VirtualTime,
};
use fsd_faas::{FaasError, WorkerCtx};
use fsd_sparse::{codec, SparseRows};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

const FRAME_INLINE: u8 = 0x00;
const FRAME_POINTER: u8 = 0x01;

/// A parsed hybrid message body.
enum Frame<'a> {
    /// The payload travelled inline on the queue.
    Inline(&'a [u8]),
    /// The payload was spilled; fetch it from the receiver's bucket and
    /// check it against the advertised length.
    Pointer { key: &'a str, payload_len: u64 },
}

/// Frames an inline payload: `[0x00][body]`.
fn frame_inline(body: Vec<u8>) -> Vec<u8> {
    let mut framed = Vec::with_capacity(1 + body.len());
    framed.push(FRAME_INLINE);
    framed.extend_from_slice(&body);
    framed
}

/// Frames a pointer record: `[0x01][key_len u32][key][payload_len u64]`.
fn frame_pointer(key: &str, payload_len: u64) -> Vec<u8> {
    let mut framed = Vec::with_capacity(1 + 4 + key.len() + 8);
    framed.push(FRAME_POINTER);
    framed.extend_from_slice(&(key.len() as u32).to_le_bytes());
    framed.extend_from_slice(key.as_bytes());
    framed.extend_from_slice(&payload_len.to_le_bytes());
    framed
}

/// Parses a framed body (strict: truncated or unknown frames are errors).
fn parse_frame(body: &[u8]) -> Result<Frame<'_>, FaasError> {
    match body.first() {
        Some(&FRAME_INLINE) => Ok(Frame::Inline(&body[1..])),
        Some(&FRAME_POINTER) => {
            let rest = &body[1..];
            if rest.len() < 4 {
                return Err(FaasError::comm("frame", "", "truncated pointer record"));
            }
            let key_len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
            let rest = &rest[4..];
            if rest.len() < key_len + 8 {
                return Err(FaasError::comm("frame", "", "truncated pointer key"));
            }
            let key = std::str::from_utf8(&rest[..key_len])
                .map_err(|e| FaasError::comm("frame", "", e.to_string()))?;
            let payload_len =
                u64::from_le_bytes(rest[key_len..key_len + 8].try_into().expect("8 bytes"));
            Ok(Frame::Pointer { key, payload_len })
        }
        _ => Err(FaasError::comm("frame", "", "unknown hybrid frame tag")),
    }
}

/// The hybrid channel. One instance serves one request flow: its queues,
/// filter-policy subscriptions *and* spilled objects are namespaced by the
/// flow id, so concurrent requests share the region's topics and buckets
/// without cross-delivery or residue.
pub struct HybridChannel {
    env: Arc<CloudEnv>,
    n_workers: u32,
    n_buckets: usize,
    flow: u64,
    opts: ChannelOptions,
    queues: Vec<Arc<SqsQueue>>,
    stats: ChannelStats,
    /// Deferred arrivals: `(receiver, tag) → inbox`.
    inboxes: Mutex<HashMap<(u32, u32), TagInbox>>,
}

/// Canonical per-flow queue naming (distinct from the pure queue channel's
/// names, so mixed-transport tests over one region never collide).
fn queue_name(flow: u64, rank: u32) -> String {
    format!("fsd-f{flow}-hq{rank}")
}

impl HybridChannel {
    /// Sets up a channel in the default flow (0) — single-request and test
    /// use. Serving code goes through [`HybridChannel::setup_scoped`].
    pub fn setup(env: Arc<CloudEnv>, n_workers: u32, opts: ChannelOptions) -> Arc<HybridChannel> {
        HybridChannel::setup_scoped(env, n_workers, opts, 0)
    }

    /// Pre-creates one queue per worker and subscribes each to every topic
    /// with a `(flow, rank)` filter policy, exactly like the queue channel;
    /// the object-side needs no setup (buckets are pre-created offline).
    pub fn setup_scoped(
        env: Arc<CloudEnv>,
        n_workers: u32,
        opts: ChannelOptions,
        flow: u64,
    ) -> Arc<HybridChannel> {
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
        let n_buckets = env.config().n_buckets.max(1);
        Arc::new(HybridChannel {
            env,
            n_workers,
            n_buckets,
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

    /// The spill threshold in force (bytes of serialized payload).
    pub fn spill_threshold(&self) -> usize {
        self.opts.spill_threshold
    }

    /// Bucket spilled payloads for `target` land in (k-fold API limit,
    /// same placement as the object channel).
    fn bucket_for(&self, target: u32) -> String {
        bucket_name(target as usize % self.n_buckets)
    }

    /// Flow-namespaced key prefix for a `(tag, target)` pair.
    fn prefix_for(&self, tag: Tag, target: u32) -> String {
        format!("f{}/{}/{}/", self.flow, tag.key_segment(), target)
    }

    /// Builds the frames (and PUT list) for one target's rows: the whole
    /// block spills when its serialized size exceeds the threshold;
    /// otherwise it is chunked inline exactly like the queue channel. An
    /// inline chunk that still cannot fit one publish message (a single
    /// giant row) falls back to spilling just that chunk.
    fn frames_for(
        &self,
        ctx: &mut WorkerCtx,
        tag: Tag,
        src: u32,
        target: u32,
        rows: &SparseRows,
        puts: &mut Vec<(String, String, Vec<u8>)>,
    ) -> Vec<Vec<u8>> {
        let spill = |chunk_idx: usize,
                     body: Vec<u8>,
                     puts: &mut Vec<(String, String, Vec<u8>)>|
         -> Vec<u8> {
            let key = format!(
                "{}{src}_{target}.c{chunk_idx}.dat",
                self.prefix_for(tag, target)
            );
            let ptr = frame_pointer(&key, body.len() as u64);
            puts.push((self.bucket_for(target), key, body));
            ptr
        };
        if rows.is_empty() {
            // An empty send still announces itself so the receiver's
            // tracker can complete the source.
            return vec![frame_inline(encode_payload(
                ctx,
                &self.stats,
                rows,
                self.opts.compression,
            ))];
        }
        if codec::encoded_size(rows) > self.opts.spill_threshold {
            let body = encode_payload(ctx, &self.stats, rows, self.opts.compression);
            return vec![spill(0, body, puts)];
        }
        let mut frames = Vec::new();
        let mut pending: Vec<SparseRows> = rows.split_by_nnz(self.opts.chunk_nnz);
        while let Some(chunk) = pending.pop() {
            let body = encode_payload(ctx, &self.stats, &chunk, self.opts.compression);
            if body.len() + 1 > quota::MAX_PUBLISH_BYTES {
                if chunk.n_rows() > 1 {
                    let halves = chunk.split_by_nnz((chunk.nnz() / 2).max(1));
                    pending.extend(halves);
                } else {
                    // A single row too large for any message: spill it.
                    frames.push(spill(frames.len(), body, puts));
                }
                continue;
            }
            frames.push(frame_inline(body));
        }
        frames
    }
}

impl FsiChannel for HybridChannel {
    fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// Releases everything this flow holds on the region: filter-policy
    /// subscriptions, queues, *and* spilled payload objects.
    fn teardown(&self) {
        for m in 0..self.n_workers {
            for t in 0..self.env.pubsub().n_topics() {
                let _ = self.env.pubsub().unsubscribe(t, self.flow, m);
            }
            if let Some(q) = self.env.remove_queue(&queue_name(self.flow, m)) {
                q.purge();
            }
        }
        for i in 0..self.n_buckets {
            self.env
                .object_store()
                .delete_prefix(&bucket_name(i), &format!("f{}/", self.flow));
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
        // 1. Build every frame; collect spilled bodies for the PUT phase.
        let mut puts: Vec<(String, String, Vec<u8>)> = Vec::new();
        let mut messages: Vec<Message> = Vec::new();
        for (target, rows) in sends {
            let frames = self.frames_for(ctx, tag, src, *target, rows, &mut puts);
            let total_chunks = frames.len() as u32;
            for body in frames {
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
        // 2. Spilled payloads PUT first over the modeled thread pool — a
        //    pointer is only published once its object is durable, so the
        //    publish lanes start at the slowest PUT lane. The caller's
        //    clock joins neither.
        let mut publish_start = ctx.now();
        if !puts.is_empty() {
            let lanes = self.opts.send_threads.max(1);
            let lane0 = VClock::starting_at(publish_start).with_flow(ctx.clock_mut().flow());
            let mut lane_clocks: Vec<VClock> = vec![lane0; lanes];
            for (i, (bucket, key, body)) in puts.into_iter().enumerate() {
                let lane = &mut lane_clocks[i % lanes];
                let bytes = body.len() as u64;
                // A faulted PUT bills but stores nothing; re-PUT of the
                // same key/body is idempotent.
                let (res, retries) = self.opts.retry.run(lane, |lane| {
                    self.env
                        .object_store()
                        .put(&bucket, &key, body.clone(), lane)
                });
                self.stats.add(&self.stats.retries, retries);
                res.map_err(|e| FaasError::comm("put", &key, e))?;
                self.stats.add(&self.stats.s3_puts, 1);
                self.stats.add(&self.stats.s3_bytes_put, bytes);
            }
            publish_start = lane_clocks.iter().map(|c| c.now()).max().expect("≥1 lane");
        }
        // 3. Greedy batch packing + lane-clocked publishes — the queue
        //    channel's control-plane path, shared verbatim. The publish
        //    fence is the whole send's fence.
        let topic = src as usize % self.env.pubsub().n_topics();
        publish_over_lanes(
            &self.env,
            &self.stats,
            ctx,
            &self.opts,
            topic,
            messages,
            publish_start,
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
        // Shared prologue with the queue channel: apply early
        // announcements, raw-take one physical batch (no billing, no
        // clock movement until the tag completes), or bill one empty
        // long poll on a genuine producer drought.
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
        // Tag complete. Settle the billed long-poll sequence *first* —
        // the receiver's clock walks past every pointer's stamp, which is
        // never earlier than its object's PUT stamp, so the GETs below
        // always find their objects visible — then dereference frames in
        // deterministic stamp order.
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
        let bucket = self.bucket_for(me);
        let mut out = Vec::new();
        for (_, source, _, body) in raw {
            let rows = match parse_frame(&body)? {
                Frame::Inline(inline) => decode_payload(ctx, inline, self.opts.compression)?,
                Frame::Pointer { key, payload_len } => {
                    // GET is a pure read — safe to retry on transients.
                    let (res, retries) = self.opts.retry.run(ctx.clock_mut(), |clock| {
                        self.env.object_store().get(&bucket, key, clock)
                    });
                    self.stats.add(&self.stats.retries, retries);
                    let fetched = res.map_err(|e| FaasError::comm("get", key, e))?;
                    self.stats.add(&self.stats.s3_gets, 1);
                    if fetched.len() as u64 != payload_len {
                        return Err(FaasError::comm(
                            "get",
                            key,
                            format!(
                                "spilled object length mismatch: pointer advertised \
                                 {payload_len} bytes, object holds {}",
                                fetched.len()
                            ),
                        ));
                    }
                    decode_payload(ctx, &fetched, self.opts.compression)?
                }
            };
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
    use fsd_comm::{CloudConfig, VirtualTime};
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

    /// A block whose serialized size comfortably exceeds `bytes`.
    fn big_rows(bytes: usize) -> SparseRows {
        let nnz_per_row = 64usize;
        let n_rows = bytes / (nnz_per_row * 8) + 2;
        SparseRows::from_rows(
            nnz_per_row,
            (0..n_rows as u32).map(|i| {
                (
                    i,
                    (0..nnz_per_row as u32).collect::<Vec<_>>(),
                    (0..nnz_per_row)
                        .map(|j| (i as f32) + (j as f32) * 0.37)
                        .collect(),
                )
            }),
        )
    }

    fn total_object_count(env: &Arc<CloudEnv>) -> usize {
        (0..env.config().n_buckets)
            .map(|i| env.object_store().object_count(&bucket_name(i)))
            .sum()
    }

    #[test]
    fn pointers_publish_after_their_puts_and_the_fence_covers_both() {
        let env = CloudEnv::new(CloudConfig::deterministic(41));
        // Every payload spills; one message per publish spreads the
        // pointers over every publish lane.
        let opts = ChannelOptions {
            spill_threshold: 64,
            packing: false,
            ..ChannelOptions::default()
        };
        let ch = HybridChannel::setup(env.clone(), 13, opts);
        let ch2 = ch.clone();
        let sends: Vec<(u32, SparseRows)> = (1..13u32)
            .map(|t| (t, big_rows(256 * t as usize)))
            .collect();
        let (lanes_start, fence) = with_ctx(env.clone(), move |ctx| {
            let fence = ch2.send_layer(ctx, Tag::Layer(0), 0, &sends)?;
            Ok((ctx.now(), fence))
        });
        let delivery = env.latency().sns_delivery_us;
        let mut slowest_publish = 0u64;
        for target in 1..13u32 {
            let puts: HashMap<String, VirtualTime> = env
                .object_store()
                .scan_keys(
                    &ch.bucket_for(target),
                    &ch.prefix_for(Tag::Layer(0), target),
                    0,
                )
                .expect("scan")
                .into_iter()
                .collect();
            for m in ch.queues[target as usize].take_visible(quota::MAX_BATCH_MESSAGES) {
                let Frame::Pointer { key, .. } = parse_frame(&m.message.body).expect("frame")
                else {
                    panic!("payload for {target} did not spill");
                };
                let put_done = puts[key];
                assert!(put_done > lanes_start);
                assert!(
                    m.available_at >= put_done,
                    "pointer {key} visible before its object"
                );
                assert!(fence >= put_done, "a PUT lane ends after the fence");
                let published = m.available_at.as_micros() - delivery;
                assert!(
                    fence.as_micros() >= published,
                    "a publish lane ends after the fence"
                );
                slowest_publish = slowest_publish.max(published);
            }
        }
        assert_eq!(
            fence.as_micros(),
            slowest_publish,
            "the fence is the slowest publish lane"
        );
        assert!(fence > lanes_start, "the sender's clock joined its lanes");
    }

    #[test]
    fn frames_roundtrip() {
        match parse_frame(&frame_inline(vec![1, 2, 3])).expect("inline") {
            Frame::Inline(b) => assert_eq!(b, &[1, 2, 3]),
            _ => panic!("wrong frame"),
        }
        match parse_frame(&frame_pointer("f1/L0/1/0_1.c0.dat", 99)).expect("pointer") {
            Frame::Pointer { key, payload_len } => {
                assert_eq!(key, "f1/L0/1/0_1.c0.dat");
                assert_eq!(payload_len, 99);
            }
            _ => panic!("wrong frame"),
        }
        assert!(parse_frame(&[0x02, 0, 0]).is_err(), "unknown tag");
        assert!(parse_frame(&[FRAME_POINTER, 9]).is_err(), "truncated");
        assert!(parse_frame(&[]).is_err(), "empty body");
    }

    #[test]
    fn small_payloads_stay_inline() {
        let env = CloudEnv::new(CloudConfig::deterministic(61));
        let ch = HybridChannel::setup(env.clone(), 2, ChannelOptions::default());
        let ch2 = ch.clone();
        let sent = rows(&[3, 8]);
        let sent2 = sent.clone();
        with_ctx(env.clone(), move |ctx| {
            ch2.send_layer(ctx, Tag::Layer(0), 0, &[(1, sent2)])
        });
        let snap = ch.stats().snapshot();
        assert_eq!(snap.s3_puts, 0, "small payload must not spill");
        assert!(snap.messages > 0);
        let got = with_ctx(env.clone(), move |ctx| {
            let mut tracker = RecvTracker::expecting([0u32]);
            ch.receive_all(ctx, Tag::Layer(0), 1, &mut tracker)
        });
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, sent);
        assert_eq!(env.snapshot().s3_get_requests, 0, "inline needs no GET");
    }

    #[test]
    fn large_payloads_spill_to_objects() {
        let env = CloudEnv::new(CloudConfig::deterministic(62));
        let opts = ChannelOptions {
            spill_threshold: 4 * 1024,
            ..ChannelOptions::default()
        };
        let ch = HybridChannel::setup(env.clone(), 2, opts);
        let ch2 = ch.clone();
        let sent = big_rows(16 * 1024);
        let sent2 = sent.clone();
        with_ctx(env.clone(), move |ctx| {
            ch2.send_layer(ctx, Tag::Layer(2), 0, &[(1, sent2)])
        });
        let snap = ch.stats().snapshot();
        assert_eq!(snap.s3_puts, 1, "one object per spilled payload");
        assert_eq!(snap.messages, 1, "one pointer record in-queue");
        assert!(
            snap.bytes_sent < 256,
            "pointer record must be tiny, sent {} bytes",
            snap.bytes_sent
        );
        let ch_recv = ch.clone();
        let got = with_ctx(env.clone(), move |ctx| {
            let mut tracker = RecvTracker::expecting([0u32]);
            ch_recv.receive_all(ctx, Tag::Layer(2), 1, &mut tracker)
        });
        let mut merged = SparseRows::new(sent.width());
        for (_, b) in got {
            merged.merge(&b);
        }
        assert_eq!(merged, sent);
        assert_eq!(ch.stats().snapshot().s3_gets, 1, "one dereference GET");
    }

    #[test]
    fn threshold_compares_serialized_size_exactly() {
        let sent = rows(&[1, 2, 3]);
        let wire = codec::encoded_size(&sent);
        for (threshold, expect_spill) in [(wire, false), (wire - 1, true)] {
            let env = CloudEnv::new(CloudConfig::deterministic(63));
            let opts = ChannelOptions {
                spill_threshold: threshold,
                ..ChannelOptions::default()
            };
            let ch = HybridChannel::setup(env.clone(), 2, opts);
            let ch2 = ch.clone();
            let sent2 = sent.clone();
            with_ctx(env, move |ctx| {
                ch2.send_layer(ctx, Tag::Layer(0), 0, &[(1, sent2)])
            });
            assert_eq!(
                ch.stats().snapshot().s3_puts > 0,
                expect_spill,
                "threshold {threshold} vs wire {wire}"
            );
        }
    }

    #[test]
    fn empty_send_completes_tracker_without_rows() {
        let env = CloudEnv::new(CloudConfig::deterministic(64));
        let ch = HybridChannel::setup(env.clone(), 2, ChannelOptions::default());
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
    fn teardown_removes_queues_subscriptions_and_spilled_objects() {
        let env = CloudEnv::new(CloudConfig::deterministic(65));
        let opts = ChannelOptions {
            spill_threshold: 1024,
            ..ChannelOptions::default()
        };
        let ch = HybridChannel::setup_scoped(env.clone(), 3, opts, 9);
        let ch2 = ch.clone();
        with_ctx(env.clone(), move |ctx| {
            ch2.send_layer(
                ctx,
                Tag::Layer(0),
                0,
                &[(1, big_rows(8 * 1024)), (2, big_rows(8 * 1024))],
            )
        });
        assert_eq!(env.queue_count(), 3);
        assert_eq!(total_object_count(&env), 2, "two spilled objects");
        ch.teardown();
        assert_eq!(env.queue_count(), 0);
        assert_eq!(
            total_object_count(&env),
            0,
            "spilled objects must be deleted"
        );
        for t in 0..env.pubsub().n_topics() {
            assert_eq!(env.pubsub().subscription_count(t), 0);
        }
    }

    #[test]
    fn pointer_length_mismatch_is_detected() {
        let env = CloudEnv::new(CloudConfig::deterministic(69));
        let opts = ChannelOptions {
            spill_threshold: 1024,
            ..ChannelOptions::default()
        };
        let ch = HybridChannel::setup(env.clone(), 2, opts);
        let ch2 = ch.clone();
        with_ctx(env.clone(), move |ctx| {
            ch2.send_layer(ctx, Tag::Layer(0), 0, &[(1, big_rows(8 * 1024))])
        });
        // Corrupt the spilled object: overwrite it with a body whose
        // length disagrees with the pointer record's advertised size.
        let bucket = bucket_name(1 % env.config().n_buckets);
        env.object_store()
            .put_offline(&bucket, "f0/L0/1/0_1.c0.dat", &b"truncated"[..])
            .expect("overwrite spilled object");
        let platform = FaasPlatform::new(env, ComputeModel::default());
        let res = platform
            .invoke(
                FunctionConfig::worker("t", 2048),
                VirtualTime::ZERO,
                move |ctx| {
                    let mut tracker = RecvTracker::expecting([0u32]);
                    ch.receive_all(ctx, Tag::Layer(0), 1, &mut tracker)
                },
            )
            .join();
        let err = res.expect_err("length mismatch must surface as an error");
        assert!(
            err.to_string().contains("length mismatch"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn mixed_inline_and_spilled_sends_in_one_layer() {
        let env = CloudEnv::new(CloudConfig::deterministic(66));
        let opts = ChannelOptions {
            spill_threshold: 4 * 1024,
            ..ChannelOptions::default()
        };
        let ch = HybridChannel::setup(env.clone(), 3, opts);
        let ch2 = ch.clone();
        let small = rows(&[1]);
        let big = big_rows(16 * 1024);
        let (small2, big2) = (small.clone(), big.clone());
        with_ctx(env.clone(), move |ctx| {
            ch2.send_layer(ctx, Tag::Layer(0), 0, &[(1, small2), (2, big2)])
        });
        let snap = ch.stats().snapshot();
        assert_eq!(snap.s3_puts, 1);
        assert_eq!(snap.messages, 2, "inline body + pointer record");
        let ch_a = ch.clone();
        let got_small = with_ctx(env.clone(), move |ctx| {
            let mut t = RecvTracker::expecting([0u32]);
            ch_a.receive_all(ctx, Tag::Layer(0), 1, &mut t)
        });
        assert_eq!(got_small[0].1, small);
        let got_big = with_ctx(env, move |ctx| {
            let mut t = RecvTracker::expecting([0u32]);
            ch.receive_all(ctx, Tag::Layer(0), 2, &mut t)
        });
        let mut merged = SparseRows::new(big.width());
        for (_, b) in got_big {
            merged.merge(&b);
        }
        assert_eq!(merged, big);
    }

    #[test]
    fn barrier_and_reduce_work_over_hybrid() {
        use crate::channel::{barrier, reduce};
        let env = CloudEnv::new(CloudConfig::deterministic(67));
        let ch = HybridChannel::setup(env.clone(), 3, ChannelOptions::default());
        let platform = FaasPlatform::new(env, ComputeModel::default());
        let mut handles = Vec::new();
        for m in 0..3u32 {
            let ch = ch.clone();
            handles.push(platform.invoke(
                FunctionConfig::worker(format!("w{m}"), 2048),
                VirtualTime::ZERO,
                move |ctx| {
                    barrier(ch.as_ref(), ctx, m, 3, 0)?;
                    let mine = rows(&[m * 10]);
                    reduce(ch.as_ref(), ctx, m, 3, mine, 0)
                },
            ));
        }
        let outs: Vec<Option<SparseRows>> = handles
            .into_iter()
            .map(|h| h.join().expect("worker ok").0)
            .collect();
        let root = outs.iter().flatten().next().expect("root produced output");
        assert_eq!(root.ids(), &[0, 10, 20]);
        assert_eq!(outs.iter().filter(|o| o.is_some()).count(), 1);
    }

    #[test]
    fn scoped_flows_are_isolated() {
        let env = CloudEnv::new(CloudConfig::deterministic(68));
        let opts = ChannelOptions {
            spill_threshold: 1024,
            ..ChannelOptions::default()
        };
        let a = HybridChannel::setup_scoped(env.clone(), 2, opts, 1);
        let b = HybridChannel::setup_scoped(env.clone(), 2, opts, 2);
        let (a2, b2) = (a.clone(), b.clone());
        let big_a = big_rows(8 * 1024);
        let big_b = big_rows(12 * 1024);
        let (big_a2, big_b2) = (big_a.clone(), big_b.clone());
        with_ctx(env.clone(), move |ctx| {
            a2.send_layer(ctx, Tag::Layer(0), 0, &[(1, big_a2)])?;
            b2.send_layer(ctx, Tag::Layer(0), 0, &[(1, big_b2)])
        });
        let (a3, b3) = (a.clone(), b.clone());
        let (got_a, got_b) = with_ctx(env.clone(), move |ctx| {
            let mut ta = RecvTracker::expecting([0u32]);
            let ga = a3.receive_all(ctx, Tag::Layer(0), 1, &mut ta)?;
            let mut tb = RecvTracker::expecting([0u32]);
            let gb = b3.receive_all(ctx, Tag::Layer(0), 1, &mut tb)?;
            Ok((ga, gb))
        });
        let merge = |blocks: Vec<(u32, SparseRows)>, width: usize| {
            let mut m = SparseRows::new(width);
            for (_, b) in blocks {
                m.merge(&b);
            }
            m
        };
        assert_eq!(merge(got_a, big_a.width()), big_a);
        assert_eq!(merge(got_b, big_b.width()), big_b);
        // Teardown releases exactly this flow's resources.
        a.teardown();
        assert_eq!(env.queue_count(), 2);
        b.teardown();
        assert_eq!(env.queue_count(), 0);
        assert_eq!(total_object_count(&env), 0);
    }
}
