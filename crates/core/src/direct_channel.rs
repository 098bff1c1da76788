//! FSD-Inf-Direct: the FMI-style direct-exchange channel.
//!
//! Send path: exactly one frame per (source, target) pair per tag, shipped
//! over NAT-punched connections ([`fsd_comm::DirectNet`]). The first send
//! in a direction pays the hole-punching handshake — the only
//! step that can fail (and the one the fault plane intercepts as
//! [`fsd_comm::ApiClass::DirectPunch`]); after that, frames move at TCP
//! latency with **zero per-message API cost**, which is the whole economic
//! argument for the transport (FMI, PAPERS.md).
//!
//! Receive path: each worker drains its own `(flow, rank, tag)` mailbox.
//! Like the object channel, raw fetches are free and deferred — when the
//! tag completes, the receiver's clock is settled against the frame
//! stamps in deterministic order, so timing never depends on real-thread
//! scheduling. An empty send still ships a 0-byte frame (the direct
//! analogue of the `.nul` marker) so receivers never block on silent
//! sources.

use crate::channel::{FsiChannel, RecvTracker, Tag};
use crate::queue_channel::{decode_payload, encode_payload, ChannelOptions};
use crate::stats::ChannelStats;
use fsd_comm::{CloudEnv, VClock, VirtualTime};
use fsd_faas::{FaasError, WorkerCtx};
use fsd_sparse::SparseRows;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Per-`(receiver, tag)` mailbox state: how many frames have surfaced and
/// the frames awaiting the tag's completion. Mailboxes on the fabric are
/// append-only until flow teardown, so a plain count stands in for the
/// object channel's seen-key set.
#[derive(Default)]
struct RecvInbox {
    known: usize,
    /// `(stamp, source, body)`.
    frames: Vec<(VirtualTime, u32, Arc<[u8]>)>,
}

/// The direct-exchange channel. One instance serves one request flow: all
/// connections and mailboxes live under the flow, so concurrent requests
/// punch and drain disjoint fabrics.
pub struct DirectChannel {
    env: Arc<CloudEnv>,
    n_workers: u32,
    flow: u64,
    opts: ChannelOptions,
    stats: ChannelStats,
    /// Deferred receive state: `(receiver, tag) → inbox`.
    inboxes: Mutex<HashMap<(u32, u32), RecvInbox>>,
}

impl DirectChannel {
    /// Binds a channel in the default flow (0) — single-request and test
    /// use. Serving code goes through [`DirectChannel::setup_scoped`].
    pub fn setup(env: Arc<CloudEnv>, n_workers: u32, opts: ChannelOptions) -> Arc<DirectChannel> {
        DirectChannel::setup_scoped(env, n_workers, opts, 0)
    }

    /// Binds the channel to the region's direct-exchange fabric, scoping
    /// every connection and mailbox under the request's flow.
    pub fn setup_scoped(
        env: Arc<CloudEnv>,
        n_workers: u32,
        opts: ChannelOptions,
        flow: u64,
    ) -> Arc<DirectChannel> {
        Arc::new(DirectChannel {
            env,
            n_workers,
            flow,
            opts,
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
}

impl FsiChannel for DirectChannel {
    fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// Drops the flow's punched connections and undrained mailboxes —
    /// closing sockets is free.
    fn teardown(&self) {
        self.env.direct().close_flow(self.flow);
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
        let tag_key = tag.key_segment();
        // Build bodies first (single-threaded CPU work)…
        let mut frames: Vec<(u32, Vec<u8>)> = Vec::with_capacity(sends.len());
        for (target, rows) in sends {
            if rows.is_empty() {
                // 0-byte frame: the direct analogue of the `.nul` marker.
                frames.push((*target, Vec::new()));
            } else {
                let body = encode_payload(ctx, &self.stats, rows, self.opts.compression);
                frames.push((*target, body));
            }
        }
        // …then ship them over the modeled thread pool. Lane clocks
        // inherit the worker's flow, so punches and frames land on the
        // request's fabric and billing window. The punch is the only
        // fallible step; a retried send re-attempts it. The slowest lane is
        // the send fence; the caller's clock does not join it here.
        let lanes = self.opts.send_threads.max(1);
        let lane0 = VClock::starting_at(ctx.now()).with_flow(ctx.clock_mut().flow());
        let mut lane_clocks: Vec<VClock> = vec![lane0; lanes];
        for (i, (target, body)) in frames.into_iter().enumerate() {
            let lane = &mut lane_clocks[i % lanes];
            let bytes = body.len() as u64;
            let punched_before =
                self.env
                    .direct()
                    .is_connected(self.flow, src as usize, target as usize);
            let (res, retries) = self.opts.retry.run(lane, |lane| {
                self.env
                    .direct()
                    .send(lane, src as usize, target as usize, &tag_key, body.clone())
            });
            self.stats.add(&self.stats.retries, retries);
            res.map_err(|e| {
                FaasError::comm("direct-send", format!("f{}/{tag_key}", self.flow), e)
            })?;
            if !punched_before {
                self.stats.add(&self.stats.direct_punches, 1);
            }
            self.stats.add(&self.stats.direct_msgs, 1);
            self.stats.add(&self.stats.direct_bytes, bytes);
        }
        Ok(lane_clocks.iter().map(|c| c.now()).max().expect("≥1 lane"))
    }

    fn receive_round(
        &self,
        ctx: &mut WorkerCtx,
        tag: Tag,
        me: u32,
        tracker: &mut RecvTracker,
    ) -> Result<Vec<(u32, SparseRows)>, FaasError> {
        let tag_key = tag.key_segment();
        let want = tag.encode();
        if !tracker.done() {
            // Raw fetch: every virtual effect (clock joins, decode
            // charges) is deferred to the tag's completion.
            let known = self
                .inboxes
                .lock()
                .get(&(me, want))
                .map_or(0, |inbox| inbox.known);
            let found = self
                .env
                .direct()
                .fetch(self.flow, me as usize, &tag_key, known);
            let mut inboxes = self.inboxes.lock();
            let inbox = inboxes.entry((me, want)).or_default();
            // Mailboxes are append-only: `fetch` returns only the frames
            // past `known`, so everything here is new.
            let surfaced_new = !found.is_empty();
            inbox.known += found.len();
            for frame in found {
                let src = frame.src as u32;
                if !tracker.is_pending(src) {
                    continue;
                }
                tracker.complete(src);
                inbox.frames.push((frame.available_at, src, frame.body));
            }
            drop(inboxes);
            if !surfaced_new && !tracker.done() {
                // Genuine producer drought beyond the real-time grace: one
                // blocking-receive timeout slice elapses so the caller's
                // limit checks keep walking toward the virtual timeout.
                self.env.direct().idle_wait(ctx.clock_mut());
                return Ok(Vec::new());
            }
        }
        if !tracker.done() {
            return Ok(Vec::new());
        }
        // Tag complete: settle the receiver's clock against the stamps,
        // then decode the bodies in deterministic stamp order.
        let inbox = self.inboxes.lock().remove(&(me, want)).unwrap_or_default();
        let mut frames = inbox.frames;
        frames.sort_unstable_by_key(|a| (a.0, a.1));
        let stamps: Vec<VirtualTime> = frames.iter().map(|(stamp, ..)| *stamp).collect();
        self.env.direct().settle_recv(ctx.clock_mut(), &stamps);
        let mut out = Vec::new();
        for (_, src, body) in frames {
            if body.is_empty() {
                continue;
            }
            let rows = decode_payload(ctx, &body, self.opts.compression)?;
            if !rows.is_empty() {
                out.push((src, rows));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsd_comm::{ApiClass, CloudConfig, TargetedFault, VirtualTime};
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
            ids.iter().map(|&i| (i, vec![1u32, 3], vec![0.5f32, 2.5])),
        )
    }

    #[test]
    fn send_fence_covers_every_lane() {
        let env = CloudEnv::new(CloudConfig::deterministic(27));
        let ch = DirectChannel::setup(env.clone(), 21, ChannelOptions::default());
        let ch2 = ch.clone();
        // 20 frames of growing size over 8 lanes.
        let sends: Vec<(u32, SparseRows)> = (1..21u32)
            .map(|t| (t, rows(&(0..8 * t).collect::<Vec<_>>())))
            .collect();
        let (lanes_start, fence) = with_ctx(env.clone(), move |ctx| {
            let fence = ch2.send_layer(ctx, Tag::Layer(0), 0, &sends)?;
            Ok((ctx.now(), fence))
        });
        let tag_key = Tag::Layer(0).key_segment();
        let mut slowest = VirtualTime::ZERO;
        for target in 1..21usize {
            for frame in env.direct().fetch(ch.flow(), target, &tag_key, 0) {
                assert!(frame.available_at > lanes_start);
                assert!(fence >= frame.available_at, "a lane ends after the fence");
                slowest = slowest.max(frame.available_at);
            }
        }
        assert_eq!(fence, slowest, "the fence is the slowest lane");
        assert!(fence > lanes_start, "the sender's clock joined its lanes");
    }

    #[test]
    fn send_receive_roundtrip() {
        let env = CloudEnv::new(CloudConfig::deterministic(21));
        let ch = DirectChannel::setup(env.clone(), 2, ChannelOptions::default());
        let ch2 = ch.clone();
        let sent = rows(&[0, 9]);
        let sent2 = sent.clone();
        with_ctx(env.clone(), move |ctx| {
            ch2.send_layer(ctx, Tag::Layer(2), 0, &[(1, sent2)])
        });
        let got = with_ctx(env.clone(), move |ctx| {
            let mut tracker = RecvTracker::expecting([0u32]);
            ch.receive_all(ctx, Tag::Layer(2), 1, &mut tracker)
        });
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, sent);
        assert_eq!(env.snapshot().direct_punches, 1);
        assert_eq!(env.snapshot().direct_messages, 1);
    }

    #[test]
    fn empty_send_completes_without_decode() {
        let env = CloudEnv::new(CloudConfig::deterministic(22));
        let ch = DirectChannel::setup(env.clone(), 2, ChannelOptions::default());
        let ch2 = ch.clone();
        with_ctx(env.clone(), move |ctx| {
            ch2.send_layer(ctx, Tag::Layer(0), 0, &[(1, SparseRows::new(4))])
        });
        let got = with_ctx(env.clone(), move |ctx| {
            let mut tracker = RecvTracker::expecting([0u32]);
            ch.receive_all(ctx, Tag::Layer(0), 1, &mut tracker)
        });
        assert!(got.is_empty());
        assert_eq!(env.snapshot().direct_bytes, 0, "0-byte marker frame");
    }

    #[test]
    fn punch_paid_once_per_direction() {
        let env = CloudEnv::new(CloudConfig::deterministic(23));
        let ch = DirectChannel::setup(env.clone(), 4, ChannelOptions::default());
        let ch2 = ch.clone();
        with_ctx(env.clone(), move |ctx| {
            ch2.send_layer(ctx, Tag::Layer(0), 0, &[(1, rows(&[0])), (2, rows(&[1]))])?;
            // Second layer over the same pairs: no further handshakes.
            ch2.send_layer(ctx, Tag::Layer(1), 0, &[(1, rows(&[2])), (2, rows(&[3]))])
        });
        assert_eq!(env.snapshot().direct_punches, 2);
        assert_eq!(ch.stats().snapshot().direct_punches, 2);
        assert_eq!(ch.stats().snapshot().direct_msgs, 4);
    }

    #[test]
    fn transient_punch_fault_is_retried() {
        let env = CloudEnv::new(CloudConfig::deterministic(24));
        env.faults()
            .inject(TargetedFault::first(ApiClass::DirectPunch, ""));
        let ch = DirectChannel::setup(env.clone(), 2, ChannelOptions::default());
        let ch2 = ch.clone();
        with_ctx(env.clone(), move |ctx| {
            ch2.send_layer(ctx, Tag::Layer(0), 0, &[(1, rows(&[5]))])
        });
        let snap = env.snapshot();
        assert_eq!(snap.direct_punch_failures, 1);
        assert_eq!(snap.direct_punches, 1);
        assert!(ch.stats().snapshot().retries >= 1);
    }

    #[test]
    fn permanent_punch_fault_errors_cleanly() {
        let env = CloudEnv::new(CloudConfig::deterministic(25));
        env.faults()
            .inject(TargetedFault::first(ApiClass::DirectPunch, "").permanent());
        let ch = DirectChannel::setup(env.clone(), 2, ChannelOptions::default());
        let err = with_ctx(env.clone(), move |ctx| {
            Ok(ch.send_layer(ctx, Tag::Layer(0), 0, &[(1, rows(&[5]))]))
        })
        .expect_err("permanent punch failure must surface");
        assert!(matches!(err, FaasError::Comm { .. }), "got {err:?}");
    }

    #[test]
    fn teardown_leaves_no_residue() {
        let env = CloudEnv::new(CloudConfig::deterministic(26));
        let ch = DirectChannel::setup(env.clone(), 3, ChannelOptions::default());
        let ch2 = ch.clone();
        with_ctx(env.clone(), move |ctx| {
            ch2.send_layer(ctx, Tag::Layer(0), 0, &[(1, rows(&[0])), (2, rows(&[1]))])
        });
        assert!(env.direct().connection_count() > 0);
        ch.teardown();
        // Flow 0's billing is global-only, so the meter holds no bucket.
        env.assert_no_residue();
    }

    #[test]
    fn barrier_and_reduce_work_over_direct() {
        use crate::channel::{barrier, reduce};
        let env = CloudEnv::new(CloudConfig::deterministic(27));
        let ch = DirectChannel::setup(env.clone(), 3, ChannelOptions::default());
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
}
