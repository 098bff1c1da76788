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
            // Index the skipped positions so later matches can reference them.
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

/// Decompresses a buffer produced by [`compress`].
pub fn decompress(buf: &[u8]) -> Result<Vec<u8>, CompressError> {
    if buf.len() < 2 || buf[..2] != MAGIC {
        return Err(CompressError::BadMagic);
    }
    let mut pos = 2usize;
    let raw_len = get_varint(buf, &mut pos)? as usize;
    let mut out = Vec::with_capacity(raw_len);
    while pos < buf.len() {
        let tag = buf[pos];
        pos += 1;
        match tag {
            0x00 => {
                let len = get_varint(buf, &mut pos)? as usize;
                let end = pos.checked_add(len).ok_or(CompressError::Truncated)?;
                let bytes = buf.get(pos..end).ok_or(CompressError::Truncated)?;
                out.extend_from_slice(bytes);
                pos = end;
            }
            0x01 => {
                let len = get_varint(buf, &mut pos)? as usize + MIN_MATCH;
                let dist = get_varint(buf, &mut pos)? as usize;
                if dist == 0 || dist > out.len() {
                    return Err(CompressError::BadMatch);
                }
                let start = out.len() - dist;
                // Overlapping copies are the LZ77 RLE idiom; copy byte-wise.
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
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
}
