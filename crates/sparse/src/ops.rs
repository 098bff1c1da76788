//! Distributed MVP/MMP kernels.
//!
//! Each FSD-Inference worker holds a row block `W_m` of the layer weight
//! matrix. To overlap communication with computation (Algorithms 1 & 2), the
//! product `z_m = W_m · x` is accumulated **block by block** as activation
//! row blocks arrive: `z_m += W_m[:, rows(b)] · b` for each block `b`.
//!
//! That access pattern (given some *input* rows, find all affected *output*
//! rows) is column-major, so worker weight partitions are stored transposed
//! as a [`ColMajorBlock`]: global input row id → `(local output row, weight)`
//! pairs. Accumulation uses a dense per-worker accumulator
//! ([`LayerAccumulator`]) which is finalized into sparse activations with the
//! Graph Challenge non-linearity `y = min(clip, max(0, z + bias))`.

use crate::csr::CsrMatrix;
use crate::rows::SparseRows;

/// A worker's weight partition for one layer, stored column-major.
///
/// Maps each *global* input row id `j` (a column of the original `W`) to the
/// list of `(local output row, weight)` pairs it contributes to.
#[derive(Clone, Debug, PartialEq)]
pub struct ColMajorBlock {
    n_local_rows: usize,
    /// Global input row ids with at least one weight, strictly increasing.
    in_ids: Vec<u32>,
    indptr: Vec<usize>,
    out_rows: Vec<u32>,
    weights: Vec<f32>,
}

impl ColMajorBlock {
    /// Builds the block for local output rows `owned` (global ids, defining
    /// local indices by position) from the full layer matrix `w`.
    ///
    /// A counting pass by input id: each input's slots are laid out first,
    /// then filled by visiting the owned rows in local order, so every
    /// input lists its `(local output row, weight)` pairs in ascending
    /// local row (CSR columns are unique within a row).
    pub fn from_layer(w: &CsrMatrix, owned: &[u32]) -> ColMajorBlock {
        // `next[c]`: entries of input `c`, then its next free slot.
        let mut next = vec![0usize; w.cols()];
        for &gid in owned {
            for &c in w.row(gid as usize).0 {
                next[c as usize] += 1;
            }
        }
        let mut in_ids = Vec::new();
        let mut indptr = vec![0usize];
        let mut total = 0usize;
        for (c, slot) in next.iter_mut().enumerate() {
            if *slot > 0 {
                in_ids.push(c as u32);
                let count = std::mem::replace(slot, total);
                total += count;
                indptr.push(total);
            }
        }
        let mut out_rows = vec![0u32; total];
        let mut weights = vec![0f32; total];
        for (local, &gid) in owned.iter().enumerate() {
            let (cols, vals) = w.row(gid as usize);
            for (&c, &v) in cols.iter().zip(vals) {
                let slot = &mut next[c as usize];
                out_rows[*slot] = local as u32;
                weights[*slot] = v;
                *slot += 1;
            }
        }
        ColMajorBlock {
            n_local_rows: owned.len(),
            in_ids,
            indptr,
            out_rows,
            weights,
        }
    }

    /// Number of local output rows this block produces.
    #[inline]
    pub fn n_local_rows(&self) -> usize {
        self.n_local_rows
    }

    /// Global input row ids this worker needs for the layer — the basis of
    /// the receive maps built by the partitioner.
    #[inline]
    pub fn needed_inputs(&self) -> &[u32] {
        &self.in_ids
    }

    /// Total stored weights.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.weights.len()
    }

    /// Approximate heap footprint in bytes (FaaS memory model input).
    pub fn mem_bytes(&self) -> usize {
        self.in_ids.len() * 4
            + self.indptr.len() * std::mem::size_of::<usize>()
            + self.out_rows.len() * 4
            + self.weights.len() * 4
    }

    /// Multiply-add count [`LayerAccumulator::accumulate`] would perform
    /// for `x`, without touching any data. Lets callers charge compute time
    /// at one point (to model communication/computation overlap) while
    /// deferring the numeric work to a deterministic accumulation order.
    pub fn matched_work(&self, x: &SparseRows) -> u64 {
        let mut work = 0u64;
        let mut wpos = 0usize;
        for (gid, cols, _) in x.iter() {
            while wpos < self.in_ids.len() && self.in_ids[wpos] < gid {
                wpos += 1;
            }
            if wpos == self.in_ids.len() {
                break;
            }
            if self.in_ids[wpos] != gid {
                continue;
            }
            work += (self.indptr[wpos + 1] - self.indptr[wpos]) as u64 * cols.len() as u64;
        }
        work
    }

    /// The `(local output rows, weights)` fan-out of global input row `j`,
    /// or `None` if no owned row consumes it.
    pub fn fanout(&self, j: u32) -> Option<(&[u32], &[f32])> {
        let pos = self.in_ids.binary_search(&j).ok()?;
        let s = self.indptr[pos];
        let e = self.indptr[pos + 1];
        Some((&self.out_rows[s..e], &self.weights[s..e]))
    }
}

/// Dense accumulator for one layer's local output rows.
///
/// Holds `n_local_rows x width` floats; `accumulate` scatters incoming
/// activation blocks into it and `finalize` produces the next layer's sparse
/// activations. Reused across layers via [`LayerAccumulator::reset`].
pub struct LayerAccumulator {
    width: usize,
    n_rows: usize,
    data: Vec<f32>,
}

impl LayerAccumulator {
    /// A zeroed accumulator of the given shape.
    pub fn new(n_rows: usize, width: usize) -> Self {
        LayerAccumulator {
            width,
            n_rows,
            data: vec![0.0; n_rows * width],
        }
    }

    /// Zeroes the accumulator, optionally reshaping the row count (layers
    /// may own different row sets under per-layer partitions).
    pub fn reset(&mut self, n_rows: usize) {
        self.n_rows = n_rows;
        self.data.clear();
        self.data.resize(n_rows * self.width, 0.0);
    }

    /// `z += W_block[:, rows(x)] · x` for an incoming activation block.
    ///
    /// Returns the number of multiply-add operations performed — the work
    /// unit count consumed by the FaaS virtual-clock compute model.
    pub fn accumulate(&mut self, w: &ColMajorBlock, x: &SparseRows) -> u64 {
        assert_eq!(w.n_local_rows, self.n_rows, "weight block shape mismatch");
        assert_eq!(x.width(), self.width, "activation width mismatch");
        let mut work = 0u64;
        // Both id lists are sorted; walk them together instead of binary
        // searching per row (x blocks are usually dense in w's needed set).
        let mut wpos = 0usize;
        for (gid, cols, vals) in x.iter() {
            while wpos < w.in_ids.len() && w.in_ids[wpos] < gid {
                wpos += 1;
            }
            if wpos == w.in_ids.len() {
                break;
            }
            if w.in_ids[wpos] != gid {
                continue;
            }
            let s = w.indptr[wpos];
            let e = w.indptr[wpos + 1];
            for (&out_row, &wt) in w.out_rows[s..e].iter().zip(&w.weights[s..e]) {
                let base = out_row as usize * self.width;
                let dst = &mut self.data[base..base + self.width];
                for (&c, &v) in cols.iter().zip(vals) {
                    dst[c as usize] += wt * v;
                }
            }
            work += (e - s) as u64 * cols.len() as u64;
        }
        work
    }

    /// Applies `y = min(clip, max(0, z + bias))` and emits the surviving
    /// entries as the next layer's activation block for `owned` global ids.
    ///
    /// Following the Graph Challenge's sparse convention, the bias applies
    /// only where `z != 0` (an absent sample stays absent), and an entry
    /// survives when `y > 0`. Every `(c, y)` is written to the row buffers
    /// and the survivor count advances by that test, so the loop has no
    /// data-dependent branch.
    ///
    /// Returns `(activations, work_units)`.
    pub fn finalize(&self, owned: &[u32], bias: f32, clip: f32) -> (SparseRows, u64) {
        assert_eq!(owned.len(), self.n_rows, "owned ids/rows mismatch");
        let mut out = SparseRows::new(self.width);
        let mut cols = vec![0u32; self.width];
        let mut vals = vec![0f32; self.width];
        // A zero-width accumulator holds no data, so `max(1)` yields no rows.
        for (&gid, row) in owned.iter().zip(self.data.chunks_exact(self.width.max(1))) {
            let mut n = 0usize;
            for (c, &z) in row.iter().enumerate() {
                let y = (z + bias).clamp(0.0, clip);
                cols[n] = c as u32;
                vals[n] = y;
                n += (z != 0.0 && y > 0.0) as usize;
            }
            if n > 0 {
                out.push_row(gid, &cols[..n], &vals[..n]);
            }
        }
        let work = (self.n_rows * self.width) as u64;
        (out, work)
    }

    /// Raw view of the accumulator (tests).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }
}

/// Single-node reference: `y = relu_clip(W · x + bias)` over full matrices.
///
/// This is the kernel run by FSD-Inf-Serial and by the server baselines; it
/// is also the ground-truth oracle the distributed variants are checked
/// against. Returns `(activations, work_units)`.
pub fn layer_forward_reference(
    w: &CsrMatrix,
    x: &SparseRows,
    bias: f32,
    clip: f32,
) -> (SparseRows, u64) {
    let all_rows: Vec<u32> = (0..w.rows() as u32).collect();
    let block = ColMajorBlock::from_layer(w, &all_rows);
    let mut acc = LayerAccumulator::new(w.rows(), x.width());
    let mut work = acc.accumulate(&block, x);
    let (out, fw) = acc.finalize(&all_rows, bias, clip);
    work += fw;
    (out, work)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 3x3 layer:
    /// [1 0 2]
    /// [0 3 0]
    /// [4 0 5]
    fn w() -> CsrMatrix {
        CsrMatrix::from_triplets(
            3,
            3,
            [
                (0, 0, 1.0),
                (0, 2, 2.0),
                (1, 1, 3.0),
                (2, 0, 4.0),
                (2, 2, 5.0),
            ],
        )
        .expect("valid")
    }

    fn x() -> SparseRows {
        // rows: 0 -> [1, 0], 1 -> [0, 2], 2 -> [3, 4]  (width 2)
        SparseRows::from_rows(
            2,
            [
                (0u32, vec![0u32], vec![1.0f32]),
                (1, vec![1], vec![2.0]),
                (2, vec![0, 1], vec![3.0, 4.0]),
            ],
        )
    }

    #[test]
    fn col_major_block_structure() {
        let b = ColMajorBlock::from_layer(&w(), &[0, 2]);
        // Inputs needed: cols of rows 0 and 2 = {0, 2}.
        assert_eq!(b.needed_inputs(), &[0, 2]);
        assert_eq!(b.n_local_rows(), 2);
        assert_eq!(b.nnz(), 4);
        let (outs, wts) = b.fanout(0).expect("input 0 present");
        assert_eq!(outs, &[0, 1]); // local rows for global rows 0 and 2
        assert_eq!(wts, &[1.0, 4.0]);
        assert!(b.fanout(1).is_none());
    }

    #[test]
    fn empty_block() {
        let b = ColMajorBlock::from_layer(&w(), &[]);
        assert_eq!(b.n_local_rows(), 0);
        assert!(b.needed_inputs().is_empty());
        assert_eq!(b.nnz(), 0);
    }

    #[test]
    fn accumulate_matches_dense_product() {
        let b = ColMajorBlock::from_layer(&w(), &[0, 1, 2]);
        let mut acc = LayerAccumulator::new(3, 2);
        let work = acc.accumulate(&b, &x());
        // Dense: W(3x3) * X(3x2):
        // z0 = 1*[1,0] + 2*[3,4] = [7,8]
        // z1 = 3*[0,2]           = [0,6]
        // z2 = 4*[1,0] + 5*[3,4] = [19,20]
        assert_eq!(acc.as_slice(), &[7.0, 8.0, 0.0, 6.0, 19.0, 20.0]);
        // work = nnz pairs: input0 fans to 2 rows x 1 col + input1 1x1 + input2 2x2
        assert_eq!(work, 2 + 1 + 4);
    }

    #[test]
    fn accumulate_partial_blocks_sum_to_full() {
        let b = ColMajorBlock::from_layer(&w(), &[0, 1, 2]);
        let full_x = x();
        let mut full = LayerAccumulator::new(3, 2);
        full.accumulate(&b, &full_x);

        let mut split = LayerAccumulator::new(3, 2);
        split.accumulate(&b, &full_x.extract(&[0, 1]));
        split.accumulate(&b, &full_x.extract(&[2]));
        assert_eq!(full.as_slice(), split.as_slice());
    }

    #[test]
    fn finalize_applies_bias_relu_clip() {
        let b = ColMajorBlock::from_layer(&w(), &[0, 1, 2]);
        let mut acc = LayerAccumulator::new(3, 2);
        acc.accumulate(&b, &x());
        let (out, _) = acc.finalize(&[0, 1, 2], -6.5, 10.0);
        // z = [[7,8],[0,6],[19,20]] + (-6.5) where nonzero, clip 10:
        // row0: [0.5, 1.5]; row1: [-, -0.5 -> dropped]; row2: [10, 10]
        assert_eq!(out.row_by_id(0), Some((&[0u32, 1][..], &[0.5f32, 1.5][..])));
        assert_eq!(out.row_by_id(1), None);
        assert_eq!(
            out.row_by_id(2),
            Some((&[0u32, 1][..], &[10.0f32, 10.0][..]))
        );
    }

    #[test]
    fn finalize_drops_empty_rows_entirely() {
        let acc = LayerAccumulator::new(2, 3);
        let (out, _) = acc.finalize(&[4, 7], -0.3, 32.0);
        assert!(out.is_empty());
    }

    #[test]
    fn reset_reshapes_and_zeroes() {
        let b = ColMajorBlock::from_layer(&w(), &[0, 1, 2]);
        let mut acc = LayerAccumulator::new(3, 2);
        acc.accumulate(&b, &x());
        acc.reset(3);
        assert!(acc.as_slice().iter().all(|&v| v == 0.0));
        acc.reset(1);
        assert_eq!(acc.as_slice().len(), 2);
    }

    #[test]
    fn reference_forward_matches_manual() {
        let (out, work) = layer_forward_reference(&w(), &x(), 0.0, 32.0);
        assert!(work > 0);
        assert_eq!(out.row_by_id(0), Some((&[0u32, 1][..], &[7.0f32, 8.0][..])));
        assert_eq!(out.row_by_id(1), Some((&[1u32][..], &[6.0f32][..])));
        assert_eq!(
            out.row_by_id(2),
            Some((&[0u32, 1][..], &[19.0f32, 20.0][..]))
        );
    }

    #[test]
    fn distributed_partition_equals_reference() {
        // Split rows {0,2} / {1} across two "workers" and verify the union of
        // their outputs equals the single-node reference.
        let wm = w();
        let xm = x();
        let (reference, _) = layer_forward_reference(&wm, &xm, -1.0, 5.0);

        let mut combined = SparseRows::new(2);
        for owned in [vec![0u32, 2], vec![1u32]] {
            let b = ColMajorBlock::from_layer(&wm, &owned);
            let mut acc = LayerAccumulator::new(owned.len(), 2);
            // Workers receive x rows from everyone (full x here).
            acc.accumulate(&b, &xm);
            let (part, _) = acc.finalize(&owned, -1.0, 5.0);
            combined.merge(&part);
        }
        assert_eq!(combined, reference);
    }

    /// The triplet-sort builder the counting `from_layer` must match field
    /// for field.
    fn reference_from_layer(w: &CsrMatrix, owned: &[u32]) -> ColMajorBlock {
        let mut trips: Vec<(u32, u32, f32)> = Vec::new();
        for (local, &gid) in owned.iter().enumerate() {
            let (cols, vals) = w.row(gid as usize);
            for (&c, &v) in cols.iter().zip(vals) {
                trips.push((c, local as u32, v));
            }
        }
        trips.sort_unstable_by_key(|&(c, l, _)| (c, l));
        let mut in_ids = Vec::new();
        let mut indptr = vec![0usize];
        let mut out_rows = Vec::with_capacity(trips.len());
        let mut weights = Vec::with_capacity(trips.len());
        for (c, l, v) in trips {
            if in_ids.last() != Some(&c) {
                if !in_ids.is_empty() {
                    indptr.push(out_rows.len());
                }
                in_ids.push(c);
            }
            out_rows.push(l);
            weights.push(v);
        }
        indptr.push(out_rows.len());
        if in_ids.is_empty() {
            indptr = vec![0];
        }
        ColMajorBlock {
            n_local_rows: owned.len(),
            in_ids,
            indptr,
            out_rows,
            weights,
        }
    }

    /// Random `rows × cols` layer (density `1 / sparsity`) and a random
    /// duplicate-free owned-row list in arbitrary order.
    fn random_block_case(
        seed: u64,
        rows: usize,
        cols: usize,
        sparsity: usize,
    ) -> (CsrMatrix, Vec<u32>) {
        let mut rng = crate::testutil::Mix(seed);
        let mut trips = Vec::new();
        for r in 0..rows as u32 {
            for c in 0..cols as u32 {
                if rng.below(sparsity) == 0 {
                    trips.push((r, c, rng.below(1000) as f32 * 0.01 - 5.0));
                }
            }
        }
        let w = CsrMatrix::from_triplets(rows, cols, trips).expect("valid");
        let mut owned: Vec<u32> = (0..rows as u32).filter(|_| rng.below(2) == 0).collect();
        for i in (1..owned.len()).rev() {
            owned.swap(i, rng.below(i + 1));
        }
        (w, owned)
    }

    #[test]
    fn from_layer_matches_reference_on_edge_blocks() {
        let wm = w();
        for owned in [vec![], vec![1u32], vec![2], vec![2, 0], vec![0, 1, 2]] {
            assert_eq!(
                ColMajorBlock::from_layer(&wm, &owned),
                reference_from_layer(&wm, &owned),
                "owned {owned:?}"
            );
        }
        // A single row with no weights, and a matrix with no columns.
        let empty_row = CsrMatrix::from_triplets(2, 4, [(1, 3, 1.0)]).expect("valid");
        assert_eq!(
            ColMajorBlock::from_layer(&empty_row, &[0]),
            reference_from_layer(&empty_row, &[0])
        );
        let no_cols = CsrMatrix::from_triplets(3, 0, []).expect("valid");
        assert_eq!(
            ColMajorBlock::from_layer(&no_cols, &[0, 2]),
            reference_from_layer(&no_cols, &[0, 2])
        );
    }

    /// The scalar `finalize` the branch-light one must match bit for bit.
    fn reference_finalize(
        acc: &LayerAccumulator,
        owned: &[u32],
        bias: f32,
        clip: f32,
    ) -> (SparseRows, u64) {
        let mut out = SparseRows::new(acc.width);
        let mut cols = Vec::with_capacity(acc.width);
        let mut vals = Vec::with_capacity(acc.width);
        for (local, &gid) in owned.iter().enumerate() {
            cols.clear();
            vals.clear();
            let row = &acc.data[local * acc.width..(local + 1) * acc.width];
            for (c, &z) in row.iter().enumerate() {
                if z != 0.0 {
                    let y = (z + bias).clamp(0.0, clip);
                    if y > 0.0 {
                        cols.push(c as u32);
                        vals.push(y);
                    }
                }
            }
            if !cols.is_empty() {
                out.push_row(gid, &cols, &vals);
            }
        }
        (out, (acc.n_rows * acc.width) as u64)
    }

    /// Rows as `(id, cols, value bits)`, so `-0.0` and NaN compare exactly.
    fn bits(rows: &SparseRows) -> Vec<(u32, Vec<u32>, Vec<u32>)> {
        rows.iter()
            .map(|(id, cols, vals)| {
                (
                    id,
                    cols.to_vec(),
                    vals.iter().map(|v| v.to_bits()).collect(),
                )
            })
            .collect()
    }

    fn assert_finalize_matches(acc: &LayerAccumulator, bias: f32, clip: f32) {
        let owned: Vec<u32> = (0..acc.n_rows as u32).map(|r| 3 * r + 1).collect();
        let (fast, fast_work) = acc.finalize(&owned, bias, clip);
        let (slow, slow_work) = reference_finalize(acc, &owned, bias, clip);
        assert_eq!(fast_work, slow_work);
        assert_eq!(bits(&fast), bits(&slow), "bias {bias} clip {clip}");
    }

    /// Accumulator values that sit on every edge of the activation.
    fn edge_values(bias: f32, clip: f32) -> Vec<f32> {
        vec![
            0.0,
            -0.0,
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -bias,
            clip - bias,
            (clip - bias) * (1.0 + f32::EPSILON),
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),
            f32::MAX,
            f32::MIN,
            1.0,
            -1.0,
        ]
    }

    const BIASES: [f32; 6] = [0.0, -0.0, -0.3, 0.45, -40.0, f32::NEG_INFINITY];
    const CLIPS: [f32; 4] = [32.0, 0.0, 1.0e-30, f32::INFINITY];

    #[test]
    fn finalize_matches_reference_on_edge_values() {
        for bias in BIASES {
            for clip in CLIPS {
                let vals = edge_values(bias, clip);
                let mut acc = LayerAccumulator::new(vals.len(), vals.len());
                // Each row rotates the edge values through every column.
                for r in 0..vals.len() {
                    for c in 0..vals.len() {
                        acc.data[r * vals.len() + c] = vals[(r + c) % vals.len()];
                    }
                }
                assert_finalize_matches(&acc, bias, clip);
            }
        }
    }

    #[test]
    fn finalize_handles_zero_width_and_zero_rows() {
        assert_finalize_matches(&LayerAccumulator::new(5, 0), -0.3, 32.0);
        assert_finalize_matches(&LayerAccumulator::new(0, 7), -0.3, 32.0);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn from_layer_matches_reference(
            seed in any::<u64>(),
            rows in 0usize..40,
            cols in 0usize..40,
            sparsity in 1usize..8,
        ) {
            let (w, owned) = random_block_case(seed, rows, cols, sparsity);
            assert_eq!(
                ColMajorBlock::from_layer(&w, &owned),
                reference_from_layer(&w, &owned)
            );
        }

        #[test]
        fn finalize_matches_reference(
            seed in any::<u64>(),
            rows in 0usize..24,
            width in 1usize..70,
            b in 0usize..BIASES.len(),
            k in 0usize..CLIPS.len(),
        ) {
            let (bias, clip) = (BIASES[b], CLIPS[k]);
            let edges = edge_values(bias, clip);
            let mut rng = crate::testutil::Mix(seed);
            let mut acc = LayerAccumulator::new(rows, width);
            for z in acc.data.iter_mut() {
                *z = match rng.below(4) {
                    0 => 0.0,
                    1 => edges[rng.below(edges.len())],
                    2 => f32::from_bits(rng.next() as u32),
                    _ => (rng.below(2000) as f32 - 1000.0) * 0.05,
                };
            }
            assert_finalize_matches(&acc, bias, clip);
        }
    }
}
