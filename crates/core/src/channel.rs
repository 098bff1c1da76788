//! The fully serverless communication channel abstraction.
//!
//! Both FSI algorithms share one shape: per layer, each worker *sends* row
//! blocks to a set of targets, computes its local product, then *receives*
//! until every expected source has delivered. A send hands back its *send
//! fence* — the virtual instant its outbound lanes finish — so the local
//! product overlaps the lanes and the worker joins the fence only before
//! it receives. [`FsiChannel`] captures that shape;
//! [`QueueChannel`](crate::QueueChannel) (Algorithm 1) and
//! [`ObjectChannel`](crate::ObjectChannel) (Algorithm 2) implement it over
//! pub-sub/queueing and object storage respectively.
//!
//! Collectives (`barrier`, `reduce`) are built on the same primitives using
//! reserved tags, exactly as the paper layers them on its channels.

use fsd_comm::VirtualTime;
use fsd_faas::{FaasError, WorkerCtx};
use fsd_sparse::SparseRows;
use std::collections::HashMap;

/// Message class carried in the `layer` attribute / key segment.
///
/// Layers use their index; collectives use reserved values well above any
/// real layer count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tag {
    /// Intermediate results entering layer `k` (0-based).
    Layer(u32),
    /// Barrier round `r`: arrival (worker → root).
    BarrierArrive(u32),
    /// Barrier round `r`: release (root → workers).
    BarrierRelease(u32),
    /// Output reduction for batch `b` (worker → root).
    Reduce(u32),
}

const TAG_BARRIER_ARRIVE: u32 = 0xFFFF_0000;
const TAG_BARRIER_RELEASE: u32 = 0xFFFE_0000;
const TAG_REDUCE: u32 = 0xFFFD_0000;

impl Tag {
    /// Encodes into the 32-bit attribute field.
    pub fn encode(self) -> u32 {
        match self {
            Tag::Layer(k) => {
                assert!(
                    k < TAG_BARRIER_RELEASE,
                    "layer index collides with control tags"
                );
                k
            }
            Tag::BarrierArrive(r) => TAG_BARRIER_ARRIVE | (r & 0xFFFF),
            Tag::BarrierRelease(r) => TAG_BARRIER_RELEASE | (r & 0xFFFF),
            Tag::Reduce(b) => TAG_REDUCE | (b & 0xFFFF),
        }
    }

    /// Decodes from the attribute field.
    pub fn decode(v: u32) -> Tag {
        match v & 0xFFFF_0000 {
            TAG_BARRIER_ARRIVE => Tag::BarrierArrive(v & 0xFFFF),
            TAG_BARRIER_RELEASE => Tag::BarrierRelease(v & 0xFFFF),
            TAG_REDUCE => Tag::Reduce(v & 0xFFFF),
            _ => Tag::Layer(v),
        }
    }

    /// Key segment for object-store paths.
    pub fn key_segment(self) -> String {
        match self {
            Tag::Layer(k) => format!("L{k}"),
            Tag::BarrierArrive(r) => format!("BA{r}"),
            Tag::BarrierRelease(r) => format!("BR{r}"),
            Tag::Reduce(b) => format!("RED{b}"),
        }
    }
}

/// Tracks which sources have completed delivery for one `(tag, receiver)`.
///
/// Queue channel: a source is complete when all `total_chunks` byte strings
/// have arrived (the count travels as a message attribute). Object channel:
/// a source is complete when its single `.dat`/`.nul` file has been seen.
#[derive(Debug, Default)]
pub struct RecvTracker {
    pending: HashMap<u32, ChunkState>,
    initial: usize,
}

#[derive(Debug, Clone, Copy)]
struct ChunkState {
    expected: Option<u32>,
    got: u32,
}

impl RecvTracker {
    /// Tracker expecting one delivery from each listed source.
    pub fn expecting(sources: impl IntoIterator<Item = u32>) -> RecvTracker {
        let pending: HashMap<u32, ChunkState> = sources
            .into_iter()
            .map(|s| {
                (
                    s,
                    ChunkState {
                        expected: None,
                        got: 0,
                    },
                )
            })
            .collect();
        let initial = pending.len();
        RecvTracker { pending, initial }
    }

    /// Number of sources that have fully delivered so far.
    pub fn completed(&self) -> usize {
        self.initial - self.pending.len()
    }

    /// Whether every source has fully delivered.
    pub fn done(&self) -> bool {
        self.pending.is_empty()
    }

    /// Number of sources still outstanding.
    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }

    /// Whether `source` still owes data (object channel ignores duplicate
    /// `.dat` files from completed sources — the paper's redundant-read
    /// optimization).
    pub fn is_pending(&self, source: u32) -> bool {
        self.pending.contains_key(&source)
    }

    /// Records one received chunk from `source` announcing `total_chunks`.
    /// Unknown sources are ignored (stale redeliveries).
    pub fn record_chunk(&mut self, source: u32, total_chunks: u32) {
        if let Some(state) = self.pending.get_mut(&source) {
            state.expected = Some(total_chunks.max(1));
            state.got += 1;
            if state.got >= state.expected.expect("just set") {
                self.pending.remove(&source);
            }
        }
    }

    /// Marks a source fully complete (object channel: file observed).
    pub fn complete(&mut self, source: u32) {
        self.pending.remove(&source);
    }
}

/// A fully serverless point-to-point channel for FSI.
///
/// Channels are **request-scoped**: [`crate::ChannelProvider`] builds one
/// instance per inference flow, so client-side statistics and service
/// resources (queues, subscriptions, object prefixes) belong to exactly one
/// request and concurrent requests never share mutable channel state.
pub trait FsiChannel: Send + Sync {
    /// Client-side statistics collected by this channel instance
    /// (cost-model inputs; request-local by construction).
    fn stats(&self) -> &crate::stats::ChannelStats;

    /// Releases the per-request service resources this channel set up
    /// (filter-policy subscriptions, queues, namespaced objects). Called by
    /// the service once the request's worker tree has been joined; safe to
    /// call more than once. Straggler workers holding `Arc` handles keep
    /// working against the detached resources until their timeout binds.
    fn teardown(&self) {}

    /// Ships `sends` (target, rows — possibly empty) for `tag`. Packing,
    /// chunking, compression and API batching are channel concerns. The
    /// caller's clock pays the single-threaded payload work (encode,
    /// compress); the modeled multi-threaded lanes start at the caller's
    /// clock and run on their own. Returns the *send fence*: the virtual
    /// instant the slowest lane finishes, never before the caller's clock.
    /// The caller joins it (`ctx.clock_mut().observe(fence)`) before it
    /// receives or returns, so the lanes overlap whatever it computes in
    /// between.
    fn send_layer(
        &self,
        ctx: &mut WorkerCtx,
        tag: Tag,
        src: u32,
        sends: &[(u32, SparseRows)],
    ) -> Result<VirtualTime, FaasError>;

    /// One receive round for `me`: returns zero or more `(source, rows)`
    /// blocks and updates `tracker`. Callers loop until `tracker.done()`,
    /// re-checking FaaS limits between rounds (a worker that waits past its
    /// timeout budget dies with [`FaasError::Timeout`]).
    fn receive_round(
        &self,
        ctx: &mut WorkerCtx,
        tag: Tag,
        me: u32,
        tracker: &mut RecvTracker,
    ) -> Result<Vec<(u32, SparseRows)>, FaasError>;

    /// Receives until every source in `tracker` delivered; the common loop.
    fn receive_all(
        &self,
        ctx: &mut WorkerCtx,
        tag: Tag,
        me: u32,
        tracker: &mut RecvTracker,
    ) -> Result<Vec<(u32, SparseRows)>, FaasError> {
        let mut all = Vec::new();
        while !tracker.done() {
            ctx.check_limits()?;
            let got = self.receive_round(ctx, tag, me, tracker)?;
            all.extend(got);
        }
        Ok(all)
    }
}

/// Barrier across all `n_workers` (paper line `barrier(P_all)`): everyone
/// reports to worker 0, which releases everyone. Built on the channel's own
/// primitives so it is exactly as serverless as the data path.
pub fn barrier(
    channel: &dyn FsiChannel,
    ctx: &mut WorkerCtx,
    me: u32,
    n_workers: u32,
    round: u32,
) -> Result<(), FaasError> {
    if n_workers <= 1 {
        return Ok(());
    }
    let empty = SparseRows::new(0);
    if me == 0 {
        let mut tracker = RecvTracker::expecting(1..n_workers);
        channel.receive_all(ctx, Tag::BarrierArrive(round), 0, &mut tracker)?;
        let releases: Vec<(u32, SparseRows)> = (1..n_workers).map(|w| (w, empty.clone())).collect();
        let fence = channel.send_layer(ctx, Tag::BarrierRelease(round), 0, &releases)?;
        ctx.clock_mut().observe(fence);
    } else {
        let fence = channel.send_layer(ctx, Tag::BarrierArrive(round), me, &[(0, empty)])?;
        ctx.clock_mut().observe(fence);
        let mut tracker = RecvTracker::expecting([0u32]);
        channel.receive_all(ctx, Tag::BarrierRelease(round), me, &mut tracker)?;
    }
    Ok(())
}

/// Reduce to worker 0 (paper line `reduce(P_0, x^L_m)`): every worker ships
/// its final rows for batch `batch` to the root, which merges them into the
/// inference result.
pub fn reduce(
    channel: &dyn FsiChannel,
    ctx: &mut WorkerCtx,
    me: u32,
    n_workers: u32,
    mine: SparseRows,
    batch: u32,
) -> Result<Option<SparseRows>, FaasError> {
    if n_workers <= 1 {
        return Ok(Some(mine));
    }
    if me == 0 {
        let mut tracker = RecvTracker::expecting(1..n_workers);
        let blocks = channel.receive_all(ctx, Tag::Reduce(batch), 0, &mut tracker)?;
        let parts = std::iter::once(&mine).chain(blocks.iter().map(|(_, b)| b));
        Ok(Some(SparseRows::merge_all(mine.width(), parts)))
    } else {
        let fence = channel.send_layer(ctx, Tag::Reduce(batch), me, &[(0, mine)])?;
        ctx.clock_mut().observe(fence);
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_roundtrip() {
        for tag in [
            Tag::Layer(0),
            Tag::Layer(119),
            Tag::BarrierArrive(0),
            Tag::BarrierArrive(7),
            Tag::BarrierRelease(7),
            Tag::Reduce(0),
            Tag::Reduce(3),
        ] {
            assert_eq!(Tag::decode(tag.encode()), tag, "{tag:?}");
        }
    }

    #[test]
    fn tag_key_segments_are_distinct() {
        let tags = [
            Tag::Layer(3),
            Tag::BarrierArrive(3),
            Tag::BarrierRelease(3),
            Tag::Reduce(3),
        ];
        let mut segs: Vec<String> = tags.iter().map(|t| t.key_segment()).collect();
        segs.sort();
        segs.dedup();
        assert_eq!(segs.len(), tags.len());
    }

    #[test]
    #[should_panic(expected = "collides")]
    fn absurd_layer_index_rejected() {
        Tag::Layer(0xFFFF_0001).encode();
    }

    #[test]
    fn tracker_multi_chunk_source() {
        let mut t = RecvTracker::expecting([1u32, 2]);
        assert!(!t.done());
        assert_eq!(t.outstanding(), 2);
        t.record_chunk(1, 3);
        t.record_chunk(1, 3);
        assert!(t.is_pending(1));
        t.record_chunk(1, 3);
        assert!(!t.is_pending(1));
        t.record_chunk(2, 1);
        assert!(t.done());
    }

    #[test]
    fn tracker_ignores_unknown_sources() {
        let mut t = RecvTracker::expecting([5u32]);
        t.record_chunk(9, 1);
        assert!(!t.done());
        t.complete(9);
        assert!(!t.done());
        t.complete(5);
        assert!(t.done());
    }

    #[test]
    fn tracker_zero_chunk_announcement_counts_as_one() {
        // An empty send still produces one (empty) message; total_chunks=0
        // is clamped so the source completes.
        let mut t = RecvTracker::expecting([1u32]);
        t.record_chunk(1, 0);
        assert!(t.done());
    }

    #[test]
    fn empty_tracker_is_done() {
        let t = RecvTracker::expecting([]);
        assert!(t.done());
    }
}
