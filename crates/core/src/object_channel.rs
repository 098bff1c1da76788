//! FSD-Inf-Object: the object-storage channel (FSI Algorithm 2).
//!
//! Send path: exactly one object per (source, target) pair per tag —
//! `bucket-{n % B}/r/{tag}/{n}/{m}_{n}.dat` for data, or a 0-byte
//! `….nul` marker when the source has nothing to ship (so targets never
//! read empty files). Puts are issued over a modeled thread pool.
//!
//! Receive path: each worker scans only its own bucket/prefix with LIST,
//! skips `.nul` markers and files from already-completed sources (the
//! paper's redundant-read optimization), and GETs the rest.

use crate::channel::{FsiChannel, RecvTracker, Tag};
use crate::queue_channel::{decode_payload, encode_payload, ChannelOptions};
use crate::stats::ChannelStats;
use fsd_comm::{bucket_name, CloudEnv, VClock, VirtualTime};
use fsd_faas::{FaasError, WorkerCtx};
use fsd_sparse::SparseRows;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Per-`(receiver, tag)` scan state: keys already surfaced and the files
/// awaiting the tag's completion. Raw scans land here with no billing and
/// no clock movement; when the receiver's tracker completes, the billed
/// continuous-rescan sequence is reconstructed from the availability
/// stamps ([`fsd_comm::ObjectStore::settle_scans`]) and the `.dat` files
/// are fetched in deterministic stamp order — per-request timing and
/// billing never depend on which real-time scan surfaced which file.
#[derive(Default)]
struct ScanInbox {
    seen: HashSet<String>,
    /// `(stamp, key, source, is_nul)`.
    files: Vec<(VirtualTime, String, u32, bool)>,
}

/// The object-storage channel. One instance serves one request flow: every
/// key lives under a `f{flow}/` namespace, so concurrent requests share the
/// region's buckets without LIST scans ever surfacing each other's files.
pub struct ObjectChannel {
    env: Arc<CloudEnv>,
    n_workers: u32,
    n_buckets: usize,
    flow: u64,
    opts: ChannelOptions,
    stats: ChannelStats,
    /// Deferred scan state: `(receiver, tag) → inbox`.
    inboxes: Mutex<HashMap<(u32, u32), ScanInbox>>,
}

impl ObjectChannel {
    /// Binds a channel in the default flow (0) — single-request and test
    /// use. Serving code goes through [`ObjectChannel::setup_scoped`].
    pub fn setup(env: Arc<CloudEnv>, n_workers: u32, opts: ChannelOptions) -> Arc<ObjectChannel> {
        ObjectChannel::setup_scoped(env, n_workers, opts, 0)
    }

    /// Binds the channel to the environment's pre-created buckets, scoping
    /// every key under the request's flow namespace.
    pub fn setup_scoped(
        env: Arc<CloudEnv>,
        n_workers: u32,
        opts: ChannelOptions,
        flow: u64,
    ) -> Arc<ObjectChannel> {
        let n_buckets = env.config().n_buckets.max(1);
        Arc::new(ObjectChannel {
            env,
            n_workers,
            n_buckets,
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

    /// Bucket for a target worker: `bucket-{n % B}` (k-fold API limit).
    fn bucket_for(&self, target: u32) -> String {
        bucket_name(target as usize % self.n_buckets)
    }

    /// Prefix a target scans for a tag: `f{flow}/{tag}/{target}/`.
    fn prefix_for(&self, tag: Tag, target: u32) -> String {
        format!("f{}/{}/{}/", self.flow, tag.key_segment(), target)
    }
}

/// Parses `{src}_{target}.(dat|nul)` file names; returns `(src, is_nul)`.
fn parse_handle(key: &str) -> Option<(u32, bool)> {
    let name = key.rsplit('/').next()?;
    let (stem, ext) = name.rsplit_once('.')?;
    let is_nul = match ext {
        "nul" => true,
        "dat" => false,
        _ => return None,
    };
    let (src, _target) = stem.split_once('_')?;
    Some((src.parse().ok()?, is_nul))
}

impl FsiChannel for ObjectChannel {
    fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// Deletes this flow's namespaced intermediate objects from every
    /// bucket (offline housekeeping; deletes are free on the billing model,
    /// as on S3).
    fn teardown(&self) {
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
        // Build bodies first (single-threaded CPU work)…
        let mut puts: Vec<(String, String, Vec<u8>)> = Vec::with_capacity(sends.len());
        for (target, rows) in sends {
            let bucket = self.bucket_for(*target);
            let prefix = self.prefix_for(tag, *target);
            if rows.is_empty() && self.opts.nul_markers {
                // Algorithm 2 line 5: a 0-byte marker instead of data.
                puts.push((bucket, format!("{prefix}{src}_{target}.nul"), Vec::new()));
            } else {
                let body = encode_payload(ctx, &self.stats, rows, self.opts.compression);
                puts.push((bucket, format!("{prefix}{src}_{target}.dat"), body));
            }
        }
        // …then issue the PUTs over the modeled thread pool. Lane clocks
        // inherit the worker's flow so the PUTs bill to the request. Unlike
        // the queue-fed and direct channels, the caller joins its PUTs
        // here and the fence is its own clock: receivers pay for every
        // LIST, so a worker that scanned before its own PUTs finished
        // would only bill more empty scans.
        let lanes = self.opts.send_threads.max(1);
        let lane0 = VClock::starting_at(ctx.now()).with_flow(ctx.clock_mut().flow());
        let mut lane_clocks: Vec<VClock> = vec![lane0; lanes];
        for (i, (bucket, key, body)) in puts.into_iter().enumerate() {
            let lane = &mut lane_clocks[i % lanes];
            let bytes = body.len() as u64;
            // A faulted PUT bills but stores nothing; re-PUT of the same
            // key/body is idempotent.
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
        let slowest = lane_clocks.iter().map(|c| c.now()).max().expect("≥1 lane");
        ctx.clock_mut().observe(slowest);
        Ok(ctx.now())
    }

    fn receive_round(
        &self,
        ctx: &mut WorkerCtx,
        tag: Tag,
        me: u32,
        tracker: &mut RecvTracker,
    ) -> Result<Vec<(u32, SparseRows)>, FaasError> {
        let bucket = self.bucket_for(me);
        let prefix = self.prefix_for(tag, me);
        let want = tag.encode();
        if !tracker.done() {
            // Raw scan: name parsing only — every virtual effect (LIST
            // billing, GET fetches, decode charges, clock joins) is
            // deferred to the tag's completion. A source is complete when
            // its single `.dat`/`.nul` file has *surfaced by name*; the
            // data is fetched at completion in stamp order.
            let known = self
                .inboxes
                .lock()
                .get(&(me, want))
                .map_or(0, |inbox| inbox.seen.len());
            let found = self
                .env
                .object_store()
                .scan_keys(&bucket, &prefix, known)
                .map_err(|e| FaasError::comm("list", &prefix, e))?;
            let mut inboxes = self.inboxes.lock();
            let inbox = inboxes.entry((me, want)).or_default();
            let mut surfaced_new = false;
            for (key, stamp) in found {
                if !inbox.seen.insert(key.clone()) {
                    continue;
                }
                surfaced_new = true;
                let Some((src, is_nul)) = parse_handle(&key) else {
                    continue;
                };
                // Redundant-read optimization: completed sources are
                // skipped — their files are never fetched.
                if !tracker.is_pending(src) {
                    continue;
                }
                tracker.complete(src);
                inbox.files.push((stamp, key, src, is_nul));
            }
            drop(inboxes);
            if !surfaced_new && !tracker.done() {
                // Genuine producer drought beyond the real-time grace:
                // bill one unproductive LIST so the caller's limit checks
                // keep walking toward the virtual timeout.
                self.env.object_store().empty_scan(ctx.clock_mut());
                self.stats.add(&self.stats.s3_lists, 1);
                return Ok(Vec::new());
            }
        }
        if !tracker.done() {
            return Ok(Vec::new());
        }
        // Tag complete: settle the billed scan sequence from the stamp
        // set, then fetch the `.dat` files in deterministic stamp order.
        let inbox = self.inboxes.lock().remove(&(me, want)).unwrap_or_default();
        let mut files = inbox.files;
        files.sort_unstable_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        let stamps: Vec<VirtualTime> = files.iter().map(|(stamp, ..)| *stamp).collect();
        let scans = self
            .env
            .object_store()
            .settle_scans(ctx.clock_mut(), None, &stamps);
        self.stats.add(&self.stats.s3_lists, scans);
        let mut out = Vec::new();
        for (_, key, src, is_nul) in files {
            if is_nul {
                continue;
            }
            // GET is a pure read — safe to retry on transients.
            let (res, retries) = self.opts.retry.run(ctx.clock_mut(), |clock| {
                self.env.object_store().get(&bucket, &key, clock)
            });
            self.stats.add(&self.stats.retries, retries);
            let body = res.map_err(|e| FaasError::comm("get", &key, e))?;
            self.stats.add(&self.stats.s3_gets, 1);
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
            ids.iter().map(|&i| (i, vec![1u32, 3], vec![0.5f32, 2.5])),
        )
    }

    #[test]
    fn send_layer_joins_its_puts() {
        // Object sends stay synchronous: receivers pay for every LIST, so
        // the sender's clock joins its slowest PUT and that is its fence.
        let env = CloudEnv::new(CloudConfig::deterministic(13));
        let ch = ObjectChannel::setup(env.clone(), 21, ChannelOptions::default());
        let ch2 = ch.clone();
        let sends: Vec<(u32, SparseRows)> = (1..21u32)
            .map(|t| (t, rows(&(0..8 * t).collect::<Vec<_>>())))
            .collect();
        let (after, fence) = with_ctx(env.clone(), move |ctx| {
            let fence = ch2.send_layer(ctx, Tag::Layer(0), 0, &sends)?;
            Ok((ctx.now(), fence))
        });
        assert_eq!(fence, after, "the fence is the caller's own clock");
        let mut slowest = VirtualTime::ZERO;
        for target in 1..21u32 {
            let found = env
                .object_store()
                .scan_keys(
                    &ch.bucket_for(target),
                    &ch.prefix_for(Tag::Layer(0), target),
                    0,
                )
                .expect("scan");
            assert_eq!(found.len(), 1);
            slowest = slowest.max(found[0].1);
        }
        assert_eq!(after, slowest, "the caller's clock joined its slowest PUT");
    }

    #[test]
    fn parse_handles() {
        assert_eq!(parse_handle("L3/5/2_5.dat"), Some((2, false)));
        assert_eq!(parse_handle("L3/5/12_5.nul"), Some((12, true)));
        assert_eq!(parse_handle("L3/5/garbage"), None);
        assert_eq!(parse_handle("L3/5/x_5.tmp"), None);
    }

    #[test]
    fn send_receive_roundtrip() {
        let env = CloudEnv::new(CloudConfig::deterministic(11));
        let ch = ObjectChannel::setup(env.clone(), 2, ChannelOptions::default());
        let ch2 = ch.clone();
        let sent = rows(&[0, 9]);
        let sent2 = sent.clone();
        with_ctx(env.clone(), move |ctx| {
            ch2.send_layer(ctx, Tag::Layer(2), 0, &[(1, sent2)])
        });
        let got = with_ctx(env, move |ctx| {
            let mut tracker = RecvTracker::expecting([0u32]);
            ch.receive_all(ctx, Tag::Layer(2), 1, &mut tracker)
        });
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, sent);
    }

    #[test]
    fn nul_marker_completes_without_get() {
        let env = CloudEnv::new(CloudConfig::deterministic(12));
        let ch = ObjectChannel::setup(env.clone(), 2, ChannelOptions::default());
        let ch2 = ch.clone();
        with_ctx(env.clone(), move |ctx| {
            ch2.send_layer(ctx, Tag::Layer(0), 0, &[(1, SparseRows::new(4))])
        });
        let before_gets = env.snapshot().s3_get_requests;
        let got = with_ctx(env.clone(), move |ctx| {
            let mut tracker = RecvTracker::expecting([0u32]);
            ch.receive_all(ctx, Tag::Layer(0), 1, &mut tracker)
        });
        assert!(got.is_empty());
        assert_eq!(
            env.snapshot().s3_get_requests,
            before_gets,
            ".nul file was GET-read"
        );
    }

    #[test]
    fn one_put_per_target_per_layer() {
        let env = CloudEnv::new(CloudConfig::deterministic(13));
        let ch = ObjectChannel::setup(env.clone(), 4, ChannelOptions::default());
        let ch2 = ch.clone();
        let sends: Vec<(u32, SparseRows)> =
            vec![(1, rows(&[0])), (2, rows(&[1, 2])), (3, SparseRows::new(4))];
        with_ctx(env, move |ctx| {
            ch2.send_layer(ctx, Tag::Layer(0), 0, &sends)
        });
        let snap = ch.stats().snapshot();
        assert_eq!(
            snap.s3_puts, 3,
            "object channel must put exactly one file per target"
        );
    }

    #[test]
    fn completed_sources_not_reread() {
        let env = CloudEnv::new(CloudConfig::deterministic(14));
        let ch = ObjectChannel::setup(env.clone(), 2, ChannelOptions::default());
        let ch_send = ch.clone();
        with_ctx(env.clone(), move |ctx| {
            ch_send.send_layer(ctx, Tag::Layer(0), 0, &[(1, rows(&[5]))])
        });
        let ch_recv = ch.clone();
        with_ctx(env.clone(), move |ctx| {
            let mut tracker = RecvTracker::expecting([0u32]);
            ch_recv.receive_all(ctx, Tag::Layer(0), 1, &mut tracker)?;
            // Second round on a fresh tracker that does NOT expect source 0:
            // the .dat file is still listed, but must not be fetched again.
            let gets_before = ch_recv.stats().snapshot().s3_gets;
            let mut empty_tracker = RecvTracker::expecting([]);
            ch_recv.receive_round(ctx, Tag::Layer(0), 1, &mut empty_tracker)?;
            assert_eq!(ch_recv.stats().snapshot().s3_gets, gets_before);
            Ok(())
        });
    }

    #[test]
    fn different_targets_use_disjoint_prefixes() {
        let env = CloudEnv::new(CloudConfig::deterministic(15));
        // 2 workers share bucket count 10 → different buckets; force the
        // collision case with 12 workers: 1 and 11 share bucket-1.
        let ch = ObjectChannel::setup(env.clone(), 12, ChannelOptions::default());
        let ch2 = ch.clone();
        with_ctx(env.clone(), move |ctx| {
            ch2.send_layer(ctx, Tag::Layer(0), 0, &[(1, rows(&[1])), (11, rows(&[2]))])
        });
        let ch_recv = ch.clone();
        let got1 = with_ctx(env.clone(), move |ctx| {
            let mut t = RecvTracker::expecting([0u32]);
            ch_recv.receive_all(ctx, Tag::Layer(0), 1, &mut t)
        });
        assert_eq!(got1[0].1.ids(), &[1]);
        let got11 = with_ctx(env, move |ctx| {
            let mut t = RecvTracker::expecting([0u32]);
            ch.receive_all(ctx, Tag::Layer(0), 11, &mut t)
        });
        assert_eq!(got11[0].1.ids(), &[2]);
    }

    #[test]
    fn barrier_and_reduce_work_over_objects() {
        use crate::channel::{barrier, reduce};
        let env = CloudEnv::new(CloudConfig::deterministic(16));
        let ch = ObjectChannel::setup(env.clone(), 3, ChannelOptions::default());
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
