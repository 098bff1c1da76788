//! Row blocks: sparse activation rows keyed by *global* row id.
//!
//! A [`SparseRows`] holds the activation rows a worker owns (or is sending /
//! receiving). Rows are identified by global neuron id so blocks can be
//! extracted, shipped through a communication channel, and accumulated on the
//! receiving side without any re-indexing handshake.

use std::fmt;

/// A block of sparse rows over a fixed number of columns (the batch width).
///
/// Invariants:
/// * `ids` strictly increasing (global row ids);
/// * `indptr.len() == ids.len() + 1`, monotone, starting at 0;
/// * column indices within each row strictly increasing and `< width`.
#[derive(Clone, PartialEq, Default)]
pub struct SparseRows {
    width: usize,
    ids: Vec<u32>,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f32>,
}

impl SparseRows {
    /// An empty block with the given width.
    pub fn new(width: usize) -> Self {
        SparseRows {
            width,
            ids: Vec::new(),
            indptr: vec![0],
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Builds a block from per-row data. `rows` must be sorted by id.
    pub fn from_rows(
        width: usize,
        rows: impl IntoIterator<Item = (u32, Vec<u32>, Vec<f32>)>,
    ) -> Self {
        let mut b = SparseRows::new(width);
        for (id, cols, vals) in rows {
            b.push_row(id, &cols, &vals);
        }
        b
    }

    /// Appends a row. Panics if `id` is not greater than the last id, if
    /// `cols`/`vals` lengths differ, or if a column is out of range — these
    /// are programming errors in the caller, not recoverable conditions.
    pub fn push_row(&mut self, id: u32, cols: &[u32], vals: &[f32]) {
        assert_eq!(cols.len(), vals.len(), "cols/vals length mismatch");
        if let Some(&last) = self.ids.last() {
            assert!(
                id > last,
                "row ids must be strictly increasing: {id} after {last}"
            );
        }
        debug_assert!(
            cols.windows(2).all(|w| w[0] < w[1]),
            "columns must be sorted"
        );
        debug_assert!(
            cols.iter().all(|&c| (c as usize) < self.width),
            "column out of range"
        );
        self.ids.push(id);
        self.indices.extend_from_slice(cols);
        self.values.extend_from_slice(vals);
        self.indptr.push(self.indices.len());
    }

    /// Number of columns (batch width).
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of stored rows.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.ids.len()
    }

    /// Whether the block holds no rows at all.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Total stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// The global ids present in this block.
    #[inline]
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Row by position (not id): `(global_id, cols, vals)`.
    #[inline]
    pub fn row_at(&self, pos: usize) -> (u32, &[u32], &[f32]) {
        let s = self.indptr[pos];
        let e = self.indptr[pos + 1];
        (self.ids[pos], &self.indices[s..e], &self.values[s..e])
    }

    /// Looks a row up by global id (binary search).
    pub fn row_by_id(&self, id: u32) -> Option<(&[u32], &[f32])> {
        let pos = self.ids.binary_search(&id).ok()?;
        let s = self.indptr[pos];
        let e = self.indptr[pos + 1];
        Some((&self.indices[s..e], &self.values[s..e]))
    }

    /// Iterates `(global_id, cols, vals)` over all rows.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[u32], &[f32])> + '_ {
        (0..self.n_rows()).map(move |p| self.row_at(p))
    }

    /// Extracts the sub-block containing the requested global ids (ids not
    /// present in `self` are skipped entirely — they correspond to rows that
    /// became all-zero after ReLU and carry no information).
    ///
    /// This is the `extract_rows` primitive of FSI Algorithms 1 & 2.
    pub fn extract(&self, wanted: &[u32]) -> SparseRows {
        debug_assert!(
            wanted.windows(2).all(|w| w[0] < w[1]),
            "wanted ids must be sorted"
        );
        let mut out = SparseRows::new(self.width);
        let mut pos = 0usize;
        for &id in wanted {
            // Both lists are sorted: advance a cursor instead of re-searching.
            while pos < self.ids.len() && self.ids[pos] < id {
                pos += 1;
            }
            if pos == self.ids.len() {
                break;
            }
            if self.ids[pos] == id {
                let (gid, cols, vals) = self.row_at(pos);
                out.push_row(gid, cols, vals);
            }
        }
        out
    }

    /// Count of nonzeros that `extract` would ship for `wanted` — the NNZ
    /// heuristic used to size pub-sub byte strings before serializing.
    pub fn extract_nnz(&self, wanted: &[u32]) -> usize {
        let mut pos = 0usize;
        let mut total = 0usize;
        for &id in wanted {
            while pos < self.ids.len() && self.ids[pos] < id {
                pos += 1;
            }
            if pos == self.ids.len() {
                break;
            }
            if self.ids[pos] == id {
                total += self.indptr[pos + 1] - self.indptr[pos];
            }
        }
        total
    }

    /// Merges another block into this one. Ids may interleave but must not
    /// collide (each global row has exactly one owner per layer).
    pub fn merge(&mut self, other: &SparseRows) {
        *self = SparseRows::merge_all(self.width, [&*self, other]);
    }

    /// Merges disjoint blocks into one id-sorted block in a single k-way
    /// pass, however many blocks there are: the rows are ordered by id once,
    /// then each is copied straight into preallocated storage. Ids may
    /// interleave across blocks but must not collide (each global row has
    /// exactly one owner per layer); the result does not depend on the order
    /// of `blocks`.
    pub fn merge_all<'a>(
        width: usize,
        blocks: impl IntoIterator<Item = &'a SparseRows>,
    ) -> SparseRows {
        let blocks: Vec<&SparseRows> = blocks.into_iter().collect();
        let mut n_rows = 0usize;
        let mut nnz = 0usize;
        for b in &blocks {
            assert_eq!(b.width, width, "width mismatch in merge");
            n_rows += b.n_rows();
            nnz += b.nnz();
        }
        // (id, block, position): ids are unique, so the sort is a total
        // order and an unstable sort is deterministic.
        let mut order: Vec<(u32, u32, u32)> = Vec::with_capacity(n_rows);
        for (k, b) in blocks.iter().enumerate() {
            order.extend(
                b.ids
                    .iter()
                    .enumerate()
                    .map(|(p, &id)| (id, k as u32, p as u32)),
            );
        }
        order.sort_unstable();
        for w in order.windows(2) {
            assert_ne!(w[0].0, w[1].0, "duplicate row id {} in merge", w[0].0);
        }
        let mut out = SparseRows {
            width,
            ids: Vec::with_capacity(n_rows),
            indptr: Vec::with_capacity(n_rows + 1),
            indices: Vec::with_capacity(nnz),
            values: Vec::with_capacity(nnz),
        };
        out.indptr.push(0);
        for (id, k, p) in order {
            let b = blocks[k as usize];
            let (s, e) = (b.indptr[p as usize], b.indptr[p as usize + 1]);
            out.ids.push(id);
            out.indices.extend_from_slice(&b.indices[s..e]);
            out.values.extend_from_slice(&b.values[s..e]);
            out.indptr.push(out.indices.len());
        }
        out
    }

    /// Splits this block into chunks of at most `max_nnz` stored entries
    /// (whole rows only; a single row larger than `max_nnz` becomes its own
    /// chunk). Used to pack pub-sub byte strings under the payload quota.
    pub fn split_by_nnz(&self, max_nnz: usize) -> Vec<SparseRows> {
        assert!(max_nnz > 0, "max_nnz must be positive");
        let mut chunks = Vec::new();
        let mut cur = SparseRows::new(self.width);
        let mut cur_nnz = 0usize;
        for (id, cols, vals) in self.iter() {
            if cur_nnz > 0 && cur_nnz + cols.len() > max_nnz {
                chunks.push(std::mem::replace(&mut cur, SparseRows::new(self.width)));
                cur_nnz = 0;
            }
            cur.push_row(id, cols, vals);
            cur_nnz += cols.len();
        }
        if !cur.is_empty() {
            chunks.push(cur);
        }
        chunks
    }

    /// Approximate heap footprint in bytes (FaaS memory model input).
    pub fn mem_bytes(&self) -> usize {
        self.ids.len() * 4
            + self.indptr.len() * std::mem::size_of::<usize>()
            + self.indices.len() * 4
            + self.values.len() * 4
    }

    /// Densifies to a `n x width` row-major buffer where row order follows
    /// `order` (global ids; absent rows are zero). Test/reference use only.
    pub fn to_dense(&self, order: &[u32]) -> Vec<f32> {
        let mut out = vec![0f32; order.len() * self.width];
        for (i, &id) in order.iter().enumerate() {
            if let Some((cols, vals)) = self.row_by_id(id) {
                for (&c, &v) in cols.iter().zip(vals) {
                    out[i * self.width + c as usize] = v;
                }
            }
        }
        out
    }
}

impl fmt::Debug for SparseRows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SparseRows(rows={}, width={}, nnz={})",
            self.n_rows(),
            self.width,
            self.nnz()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block() -> SparseRows {
        SparseRows::from_rows(
            4,
            [
                (2u32, vec![0u32, 3], vec![1.0f32, 2.0]),
                (5, vec![1], vec![3.0]),
                (9, vec![0, 1, 2], vec![4.0, 5.0, 6.0]),
            ],
        )
    }

    #[test]
    fn push_and_lookup() {
        let b = block();
        assert_eq!(b.n_rows(), 3);
        assert_eq!(b.nnz(), 6);
        assert_eq!(b.row_by_id(5), Some((&[1u32][..], &[3.0f32][..])));
        assert_eq!(b.row_by_id(4), None);
        assert_eq!(b.row_at(0).0, 2);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn push_rejects_non_increasing_ids() {
        let mut b = block();
        b.push_row(9, &[0], &[1.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn push_rejects_ragged_input() {
        let mut b = SparseRows::new(4);
        b.push_row(0, &[0, 1], &[1.0]);
    }

    #[test]
    fn extract_subset() {
        let b = block();
        let e = b.extract(&[2, 9]);
        assert_eq!(e.ids(), &[2, 9]);
        assert_eq!(e.nnz(), 5);
        assert_eq!(e.row_by_id(9), b.row_by_id(9));
    }

    #[test]
    fn extract_skips_missing_rows() {
        let b = block();
        let e = b.extract(&[1, 5, 7]);
        assert_eq!(e.ids(), &[5]);
    }

    #[test]
    fn extract_of_nothing_is_empty() {
        let b = block();
        assert!(b.extract(&[]).is_empty());
        assert!(b.extract(&[100, 200]).is_empty());
    }

    #[test]
    fn extract_nnz_matches_extract() {
        let b = block();
        for wanted in [&[2u32, 9][..], &[1, 5, 7], &[], &[2, 5, 9]] {
            assert_eq!(b.extract_nnz(wanted), b.extract(wanted).nnz());
        }
    }

    #[test]
    fn merge_interleaved() {
        let mut a = SparseRows::from_rows(4, [(1u32, vec![0u32], vec![1.0f32])]);
        let b = SparseRows::from_rows(
            4,
            [(0u32, vec![1u32], vec![2.0f32]), (3, vec![2], vec![3.0])],
        );
        a.merge(&b);
        assert_eq!(a.ids(), &[0, 1, 3]);
        assert_eq!(a.row_by_id(0), Some((&[1u32][..], &[2.0f32][..])));
    }

    #[test]
    fn merge_append_fast_path() {
        let mut a = block();
        let b = SparseRows::from_rows(4, [(20u32, vec![0u32], vec![7.0f32])]);
        a.merge(&b);
        assert_eq!(a.ids(), &[2, 5, 9, 20]);
        assert_eq!(a.row_by_id(20), Some((&[0u32][..], &[7.0f32][..])));
    }

    #[test]
    fn merge_into_empty() {
        let mut a = SparseRows::new(4);
        a.merge(&block());
        assert_eq!(a.ids(), &[2, 5, 9]);
    }

    #[test]
    #[should_panic(expected = "duplicate row id")]
    fn merge_rejects_duplicates() {
        let mut a = block();
        let b = SparseRows::from_rows(4, [(5u32, vec![0u32], vec![1.0f32])]);
        a.merge(&b);
    }

    #[test]
    fn split_by_nnz_respects_limit_and_roundtrips() {
        let b = block();
        let chunks = b.split_by_nnz(3);
        assert!(chunks.len() >= 2);
        for c in &chunks {
            assert!(c.nnz() <= 3 || c.n_rows() == 1);
        }
        let mut merged = SparseRows::new(4);
        for c in &chunks {
            merged.merge(c);
        }
        assert_eq!(merged, b);
    }

    #[test]
    fn split_single_oversized_row() {
        let b = SparseRows::from_rows(8, [(0u32, vec![0u32, 1, 2, 3, 4], vec![1.0f32; 5])]);
        let chunks = b.split_by_nnz(2);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].nnz(), 5);
    }

    #[test]
    fn to_dense_respects_order() {
        let b = block();
        let d = b.to_dense(&[5, 2]);
        assert_eq!(d.len(), 8);
        assert_eq!(d[1], 3.0); // row 5, col 1
        assert_eq!(d[4], 1.0); // row 2, col 0
    }

    /// The pairwise merge the k-way merge replaced: a two-cursor walk that
    /// rebuilds the block, with an append fast path.
    fn pairwise(acc: &mut SparseRows, other: &SparseRows) {
        assert_eq!(acc.width, other.width, "width mismatch in merge");
        if other.is_empty() {
            return;
        }
        if acc.is_empty() {
            *acc = other.clone();
            return;
        }
        let mut merged = SparseRows::new(acc.width);
        let (mut i, mut j) = (0usize, 0usize);
        loop {
            let take_acc = match (acc.ids.get(i), other.ids.get(j)) {
                (Some(a), Some(b)) => {
                    assert_ne!(a, b, "duplicate row id {a} in merge");
                    a < b
                }
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let (id, cols, vals) = if take_acc {
                i += 1;
                acc.row_at(i - 1)
            } else {
                j += 1;
                other.row_at(j - 1)
            };
            merged.push_row(id, cols, vals);
        }
        *acc = merged;
    }

    /// `k` disjoint blocks over `n` distinct ids. Mode 0 deals ids to blocks
    /// at random (interleaved), mode 1 gives each block a contiguous id
    /// range (strictly after one another), mode 2 leaves most blocks empty.
    fn disjoint_blocks(seed: u64, n: usize, k: usize, mode: usize) -> Vec<SparseRows> {
        use crate::testutil::Mix;
        let width = 6;
        let mut rng = Mix(seed);
        let mut next_id = 0u32;
        let mut blocks = vec![SparseRows::new(width); k];
        for slot in 0..n {
            next_id += 1 + rng.below(3) as u32;
            let b = match mode {
                0 => rng.below(k),
                1 => slot * k / n,
                _ => rng.below(2) * (k - 1),
            };
            let cols: Vec<u32> = (0..width as u32).filter(|_| rng.below(2) == 0).collect();
            let vals: Vec<f32> = cols.iter().map(|_| rng.below(100) as f32 * 0.5).collect();
            blocks[b].push_row(next_id, &cols, &vals);
        }
        blocks
    }

    #[test]
    fn merge_all_of_nothing_is_empty() {
        let out = SparseRows::merge_all(3, []);
        assert_eq!(out, SparseRows::new(3));
        let empties = [SparseRows::new(3), SparseRows::new(3)];
        assert_eq!(SparseRows::merge_all(3, &empties), SparseRows::new(3));
    }

    #[test]
    fn merge_all_of_one_block_is_that_block() {
        assert_eq!(SparseRows::merge_all(4, [&block()]), block());
    }

    #[test]
    #[should_panic(expected = "duplicate row id 5")]
    fn merge_all_rejects_duplicates_across_distant_blocks() {
        let dup = SparseRows::from_rows(4, [(5u32, vec![0u32], vec![1.0f32])]);
        let after = SparseRows::from_rows(4, [(50u32, vec![0u32], vec![1.0f32])]);
        SparseRows::merge_all(4, [&block(), &after, &SparseRows::new(4), &dup]);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn merge_all_rejects_mixed_widths() {
        SparseRows::merge_all(4, [&block(), &SparseRows::new(5)]);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn merge_all_equals_pairwise_fold(
            seed in any::<u64>(),
            n in 0usize..120,
            k in 1usize..12,
            mode in 0usize..3,
        ) {
            let blocks = disjoint_blocks(seed, n, k, mode);
            let mut folded = SparseRows::new(6);
            for b in &blocks {
                pairwise(&mut folded, b);
            }
            prop_assert_eq!(SparseRows::merge_all(6, &blocks), folded.clone());
            // Block order does not matter, and `merge` is the same merge.
            prop_assert_eq!(SparseRows::merge_all(6, blocks.iter().rev()), folded.clone());
            let mut stepwise = SparseRows::new(6);
            for b in &blocks {
                stepwise.merge(b);
            }
            prop_assert_eq!(stepwise, folded);
        }
    }
}
