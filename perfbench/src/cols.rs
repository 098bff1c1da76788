//! Input construction: column slicing and stacking (request batches and
//! their expected outputs from one shared oracle pass), output digests,
//! and the benchmark's seeded generator.
//!
//! Every sample (column) of a batch flows through the network on its own:
//! each output entry sums contributions of its own column only, in an
//! order fixed by the row ids. So the serial oracle over a wide pool of
//! columns, sliced, equals the serial oracle over the slice — bit for bit.
//! The workloads verify this directly on one request per run.

use fsd_sparse::{codec, SparseRows};
use std::collections::BTreeMap;

/// Columns `lo..hi` of `x` as a block of width `hi - lo`; rows left empty
/// are dropped, as the input generator and the kernels do.
pub fn slice_cols(x: &SparseRows, lo: usize, hi: usize) -> SparseRows {
    assert!(lo <= hi && hi <= x.width(), "column window out of range");
    let mut out = SparseRows::new(hi - lo);
    let mut cols = Vec::new();
    let mut vals = Vec::new();
    for (id, row_cols, row_vals) in x.iter() {
        let s = row_cols.partition_point(|&c| (c as usize) < lo);
        let e = row_cols.partition_point(|&c| (c as usize) < hi);
        if s == e {
            continue;
        }
        cols.clear();
        vals.clear();
        cols.extend(row_cols[s..e].iter().map(|&c| c - lo as u32));
        vals.extend_from_slice(&row_vals[s..e]);
        out.push_row(id, &cols, &vals);
    }
    out
}

/// Side-by-side concatenation: block `k`'s columns are shifted by the
/// widths of the blocks before it. Returns the block and each part's
/// starting column.
pub fn hstack(parts: &[SparseRows]) -> (SparseRows, Vec<usize>) {
    let mut offsets = Vec::with_capacity(parts.len());
    let mut width = 0usize;
    let mut rows: BTreeMap<u32, (Vec<u32>, Vec<f32>)> = BTreeMap::new();
    for part in parts {
        offsets.push(width);
        for (id, cols, vals) in part.iter() {
            let row = rows.entry(id).or_default();
            row.0.extend(cols.iter().map(|&c| c + width as u32));
            row.1.extend_from_slice(vals);
        }
        width += part.width();
    }
    let out = SparseRows::from_rows(width, rows.into_iter().map(|(id, (c, v))| (id, c, v)));
    (out, offsets)
}

/// 64-bit FNV-1a over every output batch's wire encoding — the digest the
/// scheduler's replay harness reports per request.
pub fn output_digest<'a>(outputs: impl IntoIterator<Item = &'a SparseRows>) -> u64 {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for out in outputs {
        digest = fnv1a(digest, &codec::encode(out));
    }
    digest
}

/// One FNV-1a step over `bytes`, continuing from `digest`.
pub fn fnv1a(mut digest: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        digest ^= b as u64;
        digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
    }
    digest
}

/// SplitMix64: the benchmark's own seeded generator for request shapes
/// (the program only ever sees the inputs it produces).
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

/// A sub-seed for stream `tag` of the run seed, so the model, the input
/// pool and the request shapes do not share one random stream.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    SplitMix::new(seed ^ tag.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsd_model::{generate_dnn, generate_inputs, DnnSpec, InputSpec};

    #[test]
    fn slicing_the_pool_oracle_equals_the_oracle_of_the_slice() {
        let dnn = generate_dnn(&DnnSpec::scaled(256, 5));
        let pool = generate_inputs(256, &InputSpec::scaled(48, 6));
        let pool_out = dnn.serial_inference(&pool);
        for (lo, hi) in [(0, 48), (0, 7), (13, 40), (47, 48)] {
            let x = slice_cols(&pool, lo, hi);
            assert_eq!(x.width(), hi - lo);
            assert_eq!(
                dnn.serial_inference(&x),
                slice_cols(&pool_out, lo, hi),
                "window {lo}..{hi}"
            );
        }
    }

    #[test]
    fn hstack_then_slice_round_trips() {
        let a = generate_inputs(64, &InputSpec::scaled(5, 1));
        let b = generate_inputs(64, &InputSpec::scaled(9, 2));
        let (ab, offsets) = hstack(&[a.clone(), b.clone()]);
        assert_eq!(offsets, vec![0, 5]);
        assert_eq!(ab.width(), 14);
        assert_eq!(ab.nnz(), a.nnz() + b.nnz());
        assert_eq!(slice_cols(&ab, 0, 5), a);
        assert_eq!(slice_cols(&ab, 5, 14), b);
    }

    #[test]
    fn seeded_streams_repeat_and_stay_in_range() {
        let mut a = SplitMix::new(sub_seed(3, 1));
        let mut b = SplitMix::new(sub_seed(3, 1));
        for _ in 0..100 {
            let v = a.range(64, 128);
            assert_eq!(v, b.range(64, 128));
            assert!((64..=128).contains(&v));
        }
        assert_ne!(sub_seed(3, 1), sub_seed(3, 2));
        assert_ne!(sub_seed(3, 1), sub_seed(4, 1));
    }
}
