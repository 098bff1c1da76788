//! Byte-level compression for wire payloads.
//!
//! The paper compresses serialized intermediate results with ZLIB before
//! publishing them (reducing `S`, `Z` and `Q` in the cost model). We cannot
//! link zlib here, so this module implements an LZ77-style compressor
//! ("LZV"): greedy longest-match search over a 64 KiB window with a
//! hash-chain index, emitting varint-framed literal runs and matches. It is
//! deterministic, lossless, and effective on the repetitive varint/f32
//! payloads produced by [`crate::codec`] — which is all the role zlib plays
//! in FSD-Inference.
//!
//! The compressed bytes are part of the contract, not just their inverse:
//! compressed sizes set the cost model's `S`, `Z` and `Q`, so the match
//! search is fixed. At each position the first longest match among the
//! newest `CHAIN_LIMIT` chain candidates within the window wins. The search
//! extends matches eight bytes per step, skips a candidate whose byte at
//! the current best length differs (it cannot win) and stops once a match
//! reaches the longest possible length; all three leave the chosen match
//! unchanged, which the tests check byte for byte against the plain
//! bytewise search. Decompression treats the header and every token as
//! untrusted and never produces more than the header's length.
//!
//! Frame format:
//! `magic 'L','Z' | raw_len varint | { token }*` where a token is either
//! `0x00, len varint, bytes` (literal run) or `0x01, len-4 varint, dist
//! varint` (match of `len >= 4` bytes at `dist >= 1` back).

const MAGIC: [u8; 2] = [b'L', b'Z'];
const WINDOW: usize = 1 << 16;
const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 1 << 12;
const HASH_BITS: u32 = 15;
const CHAIN_LIMIT: usize = 32;

/// Errors produced while decompressing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompressError {
    /// Missing or wrong magic bytes.
    BadMagic,
    /// Input ended mid-token.
    Truncated,
    /// A match referenced data before the start of the output.
    BadMatch,
    /// Decompressed length disagrees with the header.
    LengthMismatch,
}

impl std::fmt::Display for CompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompressError::BadMagic => write!(f, "bad magic"),
            CompressError::Truncated => write!(f, "compressed buffer truncated"),
            CompressError::BadMatch => write!(f, "match distance out of range"),
            CompressError::LengthMismatch => write!(f, "decompressed length mismatch"),
        }
    }
}

impl std::error::Error for CompressError {}

use crate::varint::{self, put as put_varint};

#[inline]
fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64, CompressError> {
    // An overlong varint can only come from a cut or garbled stream.
    varint::get_u64(buf, pos).map_err(|_| CompressError::Truncated)
}

#[inline]
fn hash4(data: &[u8]) -> usize {
    // Fibonacci hashing of the next 4 bytes.
    let v = u32::from_le_bytes([data[0], data[1], data[2], data[3]]);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Length of the common prefix of `data[a..]` and `data[b..]`, capped at
/// `max` (callers guarantee `max(a, b) + max <= data.len()`). Compares eight
/// bytes per step; words are read little-endian, so the first differing
/// byte is the lowest nonzero byte of their XOR.
#[inline]
fn common_prefix(data: &[u8], a: usize, b: usize, max: usize) -> usize {
    let word = |p: usize| u64::from_le_bytes(data[p..p + 8].try_into().expect("8 bytes"));
    let mut l = 0usize;
    while l + 8 <= max {
        let diff = word(a + l) ^ word(b + l);
        if diff != 0 {
            return l + (diff.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < max && data[a + l] == data[b + l] {
        l += 1;
    }
    l
}

/// Compresses `data`. The output is never more than a few bytes per 2^12
/// input bytes larger than `data` (incompressible input degrades to literal
/// runs with varint framing).
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    out.extend_from_slice(&MAGIC);
    put_varint(&mut out, data.len() as u64);

    let mut head = vec![u32::MAX; 1 << HASH_BITS];
    let mut chain = vec![u32::MAX; data.len()];

    let mut lit_start = 0usize;
    let mut i = 0usize;

    let flush_literals = |out: &mut Vec<u8>, from: usize, to: usize| {
        if to > from {
            out.push(0x00);
            put_varint(out, (to - from) as u64);
            out.extend_from_slice(&data[from..to]);
        }
    };

    while i + MIN_MATCH <= data.len() {
        let h = hash4(&data[i..]);
        let max_len = (data.len() - i).min(MAX_MATCH);
        let mut candidate = head[h];
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        let mut steps = 0usize;
        // The first longest match within CHAIN_LIMIT candidates wins. A
        // candidate differing at `best_len` cannot beat the best, and once a
        // match reaches `max_len` none can.
        while candidate != u32::MAX && steps < CHAIN_LIMIT && best_len < max_len {
            let c = candidate as usize;
            if i - c > WINDOW {
                break;
            }
            if data[c + best_len] == data[i + best_len] {
                let l = common_prefix(data, c, i, max_len);
                if l > best_len {
                    best_len = l;
                    best_dist = i - c;
                }
            }
            candidate = chain[c];
            steps += 1;
        }
        chain[i] = head[h];
        head[h] = i as u32;
        if best_len >= MIN_MATCH {
            flush_literals(&mut out, lit_start, i);
            out.push(0x01);
            put_varint(&mut out, (best_len - MIN_MATCH) as u64);
            put_varint(&mut out, best_dist as u64);
            // Index the skipped positions so later matches can reference them.
            let end = (i + best_len).min(data.len().saturating_sub(MIN_MATCH - 1));
            for j in i + 1..end {
                let h = hash4(&data[j..]);
                chain[j] = head[h];
                head[h] = j as u32;
            }
            i += best_len;
            lit_start = i;
        } else {
            i += 1;
        }
    }
    flush_literals(&mut out, lit_start, data.len());
    out
}

/// Decompresses a buffer produced by [`compress`].
///
/// The header's length is untrusted: it must be reachable from the tokens
/// that follow, and decoding stops with [`CompressError::LengthMismatch`]
/// before the output would outgrow it, so a garbled frame never allocates
/// more than a bounded multiple of its own size.
pub fn decompress(buf: &[u8]) -> Result<Vec<u8>, CompressError> {
    if buf.len() < 2 || buf[..2] != MAGIC {
        return Err(CompressError::BadMagic);
    }
    let mut pos = 2usize;
    let raw_len = get_varint(buf, &mut pos)?;
    // No token yields more than MAX_MATCH bytes per byte it takes.
    let rest = buf.len() - pos;
    if raw_len > (rest as u64).saturating_mul(MAX_MATCH as u64) {
        return Err(CompressError::LengthMismatch);
    }
    let raw_len = raw_len as usize;
    let mut out = Vec::with_capacity(raw_len.min(rest.saturating_mul(64)));
    while pos < buf.len() {
        let tag = buf[pos];
        pos += 1;
        match tag {
            0x00 => {
                let len = get_varint(buf, &mut pos)? as usize;
                let end = pos.checked_add(len).ok_or(CompressError::Truncated)?;
                let bytes = buf.get(pos..end).ok_or(CompressError::Truncated)?;
                if len > raw_len - out.len() {
                    return Err(CompressError::LengthMismatch);
                }
                out.extend_from_slice(bytes);
                pos = end;
            }
            0x01 => {
                let len = get_varint(buf, &mut pos)?;
                let dist = get_varint(buf, &mut pos)? as usize;
                if len > (MAX_MATCH - MIN_MATCH) as u64 || dist == 0 || dist > out.len() {
                    return Err(CompressError::BadMatch);
                }
                let len = len as usize + MIN_MATCH;
                if len > raw_len - out.len() {
                    return Err(CompressError::LengthMismatch);
                }
                // An overlapping match (`dist < len`, the LZ77 RLE idiom)
                // repeats the last `dist` bytes. `out[start..]` holds whole
                // periods until the final chunk, so copying from `start`
                // continues the pattern and each chunk doubles the next.
                let start = out.len() - dist;
                let mut left = len;
                while left > 0 {
                    let n = left.min(out.len() - start);
                    out.extend_from_within(start..start + n);
                    left -= n;
                }
            }
            _ => return Err(CompressError::Truncated),
        }
    }
    if out.len() != raw_len {
        return Err(CompressError::LengthMismatch);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::testutil::Mix;

    #[test]
    fn roundtrip_empty() {
        let c = compress(&[]);
        assert_eq!(decompress(&c).expect("ok"), Vec::<u8>::new());
    }

    #[test]
    fn roundtrip_short() {
        for data in [&b"a"[..], b"ab", b"abc", b"abcd"] {
            assert_eq!(decompress(&compress(data)).expect("ok"), data);
        }
    }

    #[test]
    fn roundtrip_repetitive_and_shrinks() {
        let data: Vec<u8> = b"hello world, ".repeat(500).to_vec();
        let c = compress(&data);
        assert!(
            c.len() < data.len() / 4,
            "compressed {} of {}",
            c.len(),
            data.len()
        );
        assert_eq!(decompress(&c).expect("ok"), data);
    }

    #[test]
    fn roundtrip_runs() {
        // Pure runs exercise overlapping matches (dist < len).
        let data = vec![7u8; 100_000];
        let c = compress(&data);
        assert!(c.len() < 200);
        assert_eq!(decompress(&c).expect("ok"), data);
    }

    #[test]
    fn roundtrip_incompressible_bounded_expansion() {
        // Pseudo-random bytes: no matches, output must stay near input size.
        let mut state = 0x12345678u32;
        let data: Vec<u8> = (0..50_000)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                (state >> 24) as u8
            })
            .collect();
        let c = compress(&data);
        assert!(c.len() < data.len() + data.len() / 100 + 32);
        assert_eq!(decompress(&c).expect("ok"), data);
    }

    #[test]
    fn roundtrip_sparse_payloadlike() {
        // Mimic codec output: varint-ish small ints then f32 blocks.
        let mut data = Vec::new();
        for i in 0..2000u32 {
            data.push((i % 7) as u8);
            data.extend_from_slice(&(1.5f32 + (i % 3) as f32).to_le_bytes());
        }
        let c = compress(&data);
        assert!(c.len() < data.len(), "payload-like data should shrink");
        assert_eq!(decompress(&c).expect("ok"), data);
    }

    #[test]
    fn rejects_bad_magic() {
        assert_eq!(decompress(b"XY\x00"), Err(CompressError::BadMagic));
        assert_eq!(decompress(b""), Err(CompressError::BadMagic));
    }

    #[test]
    fn rejects_truncation() {
        let c = compress(&b"hello world, ".repeat(100));
        for cut in 3..c.len() {
            assert!(decompress(&c[..cut]).is_err(), "prefix {cut} should fail");
        }
    }

    #[test]
    fn rejects_bad_match_distance() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        put_varint(&mut buf, 10);
        buf.push(0x01); // match token with nothing in the window
        put_varint(&mut buf, 0);
        put_varint(&mut buf, 5);
        assert_eq!(decompress(&buf), Err(CompressError::BadMatch));
    }

    #[test]
    fn rejects_length_mismatch() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        put_varint(&mut buf, 99); // claims 99 bytes
        buf.push(0x00);
        put_varint(&mut buf, 2);
        buf.extend_from_slice(b"ab");
        assert_eq!(decompress(&buf), Err(CompressError::LengthMismatch));
    }

    /// The plain compressor the fast one must reproduce byte for byte:
    /// bytewise match extension over the full hash chain.
    fn reference(data: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(data.len() / 2 + 16);
        out.extend_from_slice(&MAGIC);
        put_varint(&mut out, data.len() as u64);

        let mut head = vec![u32::MAX; 1 << HASH_BITS];
        let mut chain = vec![u32::MAX; data.len()];

        let mut lit_start = 0usize;
        let mut i = 0usize;

        let flush_literals = |out: &mut Vec<u8>, from: usize, to: usize| {
            if to > from {
                out.push(0x00);
                put_varint(out, (to - from) as u64);
                out.extend_from_slice(&data[from..to]);
            }
        };

        while i + MIN_MATCH <= data.len() {
            let h = hash4(&data[i..]);
            let mut candidate = head[h];
            let mut best_len = 0usize;
            let mut best_dist = 0usize;
            let mut steps = 0usize;
            while candidate != u32::MAX && steps < CHAIN_LIMIT {
                let c = candidate as usize;
                if i - c > WINDOW {
                    break;
                }
                let max_len = (data.len() - i).min(MAX_MATCH);
                let mut l = 0usize;
                while l < max_len && data[c + l] == data[i + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_dist = i - c;
                    if l >= MAX_MATCH {
                        break;
                    }
                }
                candidate = chain[c];
                steps += 1;
            }
            chain[i] = head[h];
            head[h] = i as u32;
            if best_len >= MIN_MATCH {
                flush_literals(&mut out, lit_start, i);
                out.push(0x01);
                put_varint(&mut out, (best_len - MIN_MATCH) as u64);
                put_varint(&mut out, best_dist as u64);
                let end = (i + best_len).min(data.len().saturating_sub(MIN_MATCH - 1));
                let mut j = i + 1;
                while j < end {
                    let h = hash4(&data[j..]);
                    chain[j] = head[h];
                    head[h] = j as u32;
                    j += 1;
                }
                i += best_len;
                lit_start = i;
            } else {
                i += 1;
            }
        }
        flush_literals(&mut out, lit_start, data.len());
        out
    }

    /// Bytes built from literal bursts, copies of earlier spans (near and
    /// far, some overlapping) and byte runs up to three `MAX_MATCH` long.
    fn structured(seed: u64, len: usize) -> Vec<u8> {
        let mut rng = Mix(seed);
        let mut data = Vec::with_capacity(len);
        while data.len() < len {
            match rng.below(4) {
                0 => {
                    let n = 1 + rng.below(64);
                    let alphabet = 2 + rng.below(255);
                    data.extend(rng.bytes(n, alphabet));
                }
                1 if !data.is_empty() => {
                    let dist = 1 + rng.below(data.len());
                    let n = 1 + rng.below(2 * MAX_MATCH);
                    let from = data.len() - dist;
                    for k in 0..n {
                        data.push(data[from + k]);
                    }
                }
                2 => {
                    let b = rng.below(256) as u8;
                    let n = 1 + rng.below(3 * MAX_MATCH);
                    data.extend(std::iter::repeat_n(b, n));
                }
                _ => {
                    let v = (rng.below(8) as f32 * 0.5).to_le_bytes();
                    for _ in 0..1 + rng.below(32) {
                        data.push(rng.below(16) as u8);
                        data.extend_from_slice(&v);
                    }
                }
            }
        }
        data.truncate(len);
        data
    }

    /// A codec-encodable activation block of `rows` rows over `width`
    /// columns, values drawn from a few clip-like levels as in the engine.
    fn activation_block(seed: u64, rows: usize, width: usize) -> crate::SparseRows {
        let mut rng = Mix(seed);
        let mut block = crate::SparseRows::new(width);
        let mut id = 0u32;
        for _ in 0..rows {
            id += 1 + rng.below(6) as u32;
            let cols: Vec<u32> = (0..width as u32).filter(|_| rng.below(3) == 0).collect();
            let vals: Vec<f32> = cols
                .iter()
                .map(|_| match rng.below(4) {
                    0 => 32.0,
                    1 => 0.25 * (1 + rng.below(8)) as f32,
                    _ => f32::from_bits(0x3f80_0000 | (rng.next() as u32 & 0x7f_ffff)),
                })
                .collect();
            block.push_row(id, &cols, &vals);
        }
        block
    }

    fn assert_identical(data: &[u8]) {
        let fast = compress(data);
        assert!(
            fast == reference(data),
            "compressed bytes differ from the reference on a {}-byte input",
            data.len()
        );
        assert_eq!(decompress(&fast).expect("round trip"), data);
    }

    #[test]
    fn matches_reference_on_fixed_shapes() {
        for data in [
            Vec::new(),
            b"abc".to_vec(),
            vec![0u8; 3 * MAX_MATCH + 5],
            vec![9u8; MAX_MATCH + 4],
            b"hello world, ".repeat(700),
        ] {
            assert_identical(&data);
        }
    }

    #[test]
    fn matches_reference_across_the_window_break() {
        // A span repeated past WINDOW: its hash chain reaches a candidate
        // too far back, which must end the search exactly as before.
        let mut rng = Mix(7);
        let span = rng.bytes(2048, 256);
        let mut data = span.clone();
        data.extend(rng.bytes(WINDOW + 1000, 256));
        data.extend_from_slice(&span);
        data.extend(structured(11, WINDOW));
        data.extend_from_slice(&span);
        assert!(data.len() > 2 * WINDOW);
        assert_identical(&data);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn matches_reference_on_random_bytes(
            seed in any::<u64>(),
            len in 0usize..6000,
            alphabet in 1usize..257,
        ) {
            assert_identical(&Mix(seed).bytes(len, alphabet));
        }

        #[test]
        fn matches_reference_on_structured_bytes(seed in any::<u64>(), len in 0usize..40_000) {
            assert_identical(&structured(seed, len));
        }

        #[test]
        fn matches_reference_on_codec_payloads(
            seed in any::<u64>(),
            rows in 0usize..300,
            width in 1usize..130,
            max_nnz in 1usize..400,
        ) {
            let block = activation_block(seed, rows, width);
            assert_identical(&crate::codec::encode(&block));
            for chunk in block.split_by_nnz(max_nnz) {
                assert_identical(&crate::codec::encode(&chunk));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn matches_reference_past_the_window(seed in any::<u64>(), extra in 0usize..WINDOW) {
            assert_identical(&structured(seed, WINDOW + 1 + extra));
        }
    }

    #[test]
    fn decompress_copies_overlapping_matches() {
        for dist in [1usize, 3, 7] {
            for len in [dist + 1, 4 * dist + 2, 100, MAX_MATCH] {
                let len = len.max(MIN_MATCH);
                let seed = &b"abcdefg"[..dist];
                let mut expected = seed.to_vec();
                for k in 0..len {
                    expected.push(expected[k]);
                }
                let mut buf = MAGIC.to_vec();
                put_varint(&mut buf, expected.len() as u64);
                buf.push(0x00);
                put_varint(&mut buf, dist as u64);
                buf.extend_from_slice(seed);
                buf.push(0x01);
                put_varint(&mut buf, (len - MIN_MATCH) as u64);
                put_varint(&mut buf, dist as u64);
                assert_eq!(
                    decompress(&buf).expect("valid"),
                    expected,
                    "dist {dist} len {len}"
                );
            }
        }
    }

    #[test]
    fn rejects_huge_claimed_length_without_allocating() {
        // Seven bytes claiming 32 GiB, and a short body claiming 2^62 bytes.
        let mut buf = MAGIC.to_vec();
        put_varint(&mut buf, (1 << 35) - 1);
        assert_eq!(buf.len(), 7);
        assert_eq!(decompress(&buf), Err(CompressError::LengthMismatch));
        let mut buf = MAGIC.to_vec();
        put_varint(&mut buf, 1 << 62);
        buf.extend_from_slice(&[0x00, 0x01, b'a']);
        assert_eq!(decompress(&buf), Err(CompressError::LengthMismatch));
    }

    #[test]
    fn rejects_output_past_the_claimed_length() {
        // A match longer than the header allows stops before it is copied.
        let mut buf = MAGIC.to_vec();
        put_varint(&mut buf, 8);
        buf.extend_from_slice(&[0x00, 0x01, b'a', 0x01]);
        put_varint(&mut buf, 100);
        put_varint(&mut buf, 1);
        assert_eq!(decompress(&buf), Err(CompressError::LengthMismatch));
        // So does a literal run.
        let mut buf = MAGIC.to_vec();
        put_varint(&mut buf, 2);
        buf.extend_from_slice(&[0x00, 0x03, b'a', b'b', b'c']);
        assert_eq!(decompress(&buf), Err(CompressError::LengthMismatch));
        // A match length no compressor emits is refused outright.
        let mut buf = MAGIC.to_vec();
        put_varint(&mut buf, 10);
        buf.extend_from_slice(&[0x00, 0x01, b'a', 0x01]);
        put_varint(&mut buf, 1 << 40);
        put_varint(&mut buf, 1);
        assert_eq!(decompress(&buf), Err(CompressError::BadMatch));
    }
}
