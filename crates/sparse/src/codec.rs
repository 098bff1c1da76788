//! Wire codec for [`SparseRows`] blocks.
//!
//! Intermediate activation rows are shipped between workers as byte strings
//! (pub-sub messages or object-store files). The codec uses delta + LEB128
//! varint encoding for ids and column indices — the dominant cost in sparse
//! payloads — followed by raw little-endian `f32` values. The encoded buffer
//! is typically further shrunk by [`crate::compress`].

use crate::rows::SparseRows;

/// Errors produced while decoding a wire buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended in the middle of a field.
    Truncated,
    /// A varint ran past 5 bytes (u32 overflow).
    VarintOverflow,
    /// Decoded structure violates `SparseRows` invariants.
    Corrupt(&'static str),
    /// Trailing bytes after a complete decode.
    TrailingBytes,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "buffer truncated"),
            CodecError::VarintOverflow => write!(f, "varint overflows u32"),
            CodecError::Corrupt(what) => write!(f, "corrupt payload: {what}"),
            CodecError::TrailingBytes => write!(f, "trailing bytes after payload"),
        }
    }
}

impl std::error::Error for CodecError {}

use crate::varint::{self, VarintError};

#[inline]
fn put_varint(out: &mut Vec<u8>, v: u32) {
    varint::put(out, v.into());
}

#[inline]
fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u32, CodecError> {
    varint::get_u32(buf, pos).map_err(|e| match e {
        VarintError::Truncated => CodecError::Truncated,
        VarintError::Overflow => CodecError::VarintOverflow,
    })
}

/// Serializes a block. Layout:
/// `width, n_rows, { id_delta, nnz, { col_delta }, { f32le } }*`
/// where `id_delta` is the gap from the previous id (first id raw) and
/// `col_delta` the gap from the previous column within the row.
pub fn encode(block: &SparseRows) -> Vec<u8> {
    // Ids/cols are strictly increasing, so deltas (minus 1 for subsequent
    // entries) stay small; estimate ~2.5 bytes/entry + 4 bytes/value.
    let mut out = Vec::with_capacity(16 + block.nnz() * 7 + block.n_rows() * 4);
    put_varint(&mut out, block.width() as u32);
    put_varint(&mut out, block.n_rows() as u32);
    let mut prev_id = 0u32;
    for (i, (id, cols, vals)) in block.iter().enumerate() {
        let delta = if i == 0 { id } else { id - prev_id - 1 };
        prev_id = id;
        put_varint(&mut out, delta);
        put_varint(&mut out, cols.len() as u32);
        let mut prev_c = 0u32;
        for (j, &c) in cols.iter().enumerate() {
            let d = if j == 0 { c } else { c - prev_c - 1 };
            prev_c = c;
            put_varint(&mut out, d);
        }
        for &v in vals {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    out
}

/// Deserializes a buffer produced by [`encode`].
pub fn decode(buf: &[u8]) -> Result<SparseRows, CodecError> {
    let mut pos = 0usize;
    let width = get_varint(buf, &mut pos)? as usize;
    let n_rows = get_varint(buf, &mut pos)? as usize;
    let mut block = SparseRows::new(width);
    let mut prev_id: Option<u32> = None;
    let mut cols: Vec<u32> = Vec::new();
    let mut vals: Vec<f32> = Vec::new();
    for _ in 0..n_rows {
        let delta = get_varint(buf, &mut pos)?;
        let id = match prev_id {
            None => delta,
            Some(p) => p
                .checked_add(delta)
                .and_then(|v| v.checked_add(1))
                .ok_or(CodecError::Corrupt("row id overflow"))?,
        };
        prev_id = Some(id);
        let nnz = get_varint(buf, &mut pos)? as usize;
        // Each entry takes at least a 1-byte column delta and a 4-byte
        // value, so an untrusted count is checked before it sizes anything.
        if nnz > (buf.len() - pos) / 5 {
            return Err(CodecError::Truncated);
        }
        cols.clear();
        cols.reserve(nnz);
        let mut prev_c: Option<u32> = None;
        for _ in 0..nnz {
            let d = get_varint(buf, &mut pos)?;
            let c = match prev_c {
                None => d,
                Some(p) => p
                    .checked_add(d)
                    .and_then(|v| v.checked_add(1))
                    .ok_or(CodecError::Corrupt("column overflow"))?,
            };
            if c as usize >= width {
                return Err(CodecError::Corrupt("column out of range"));
            }
            prev_c = Some(c);
            cols.push(c);
        }
        vals.clear();
        vals.reserve(nnz);
        for _ in 0..nnz {
            let end = pos.checked_add(4).ok_or(CodecError::Truncated)?;
            let bytes = buf.get(pos..end).ok_or(CodecError::Truncated)?;
            vals.push(f32::from_le_bytes(bytes.try_into().expect("4-byte slice")));
            pos = end;
        }
        block.push_row(id, &cols, &vals);
    }
    if pos != buf.len() {
        return Err(CodecError::TrailingBytes);
    }
    Ok(block)
}

/// Exact encoded size without materializing the buffer; used to pack
/// payloads against channel quotas.
pub fn encoded_size(block: &SparseRows) -> usize {
    let varint_len = |v: u32| varint::len(v.into());
    let mut n = varint_len(block.width() as u32) + varint_len(block.n_rows() as u32);
    let mut prev_id = 0u32;
    for (i, (id, cols, _)) in block.iter().enumerate() {
        let delta = if i == 0 { id } else { id - prev_id - 1 };
        prev_id = id;
        n += varint_len(delta) + varint_len(cols.len() as u32);
        let mut prev_c = 0u32;
        for (j, &c) in cols.iter().enumerate() {
            let d = if j == 0 { c } else { c - prev_c - 1 };
            prev_c = c;
            n += varint_len(d);
        }
        n += 4 * cols.len();
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rows::SparseRows;

    fn block() -> SparseRows {
        SparseRows::from_rows(
            300,
            [
                (0u32, vec![0u32, 1, 299], vec![0.5f32, -2.0, 32.0]),
                (17, vec![128], vec![1.0]),
                (1000, vec![5, 6, 7, 250], vec![1.0, 2.0, 3.0, 4.0]),
            ],
        )
    }

    #[test]
    fn roundtrip_basic() {
        let b = block();
        let buf = encode(&b);
        let back = decode(&buf).expect("decodes");
        assert_eq!(back, b);
    }

    #[test]
    fn roundtrip_empty_block() {
        let b = SparseRows::new(64);
        let back = decode(&encode(&b)).expect("decodes");
        assert_eq!(back, b);
        assert!(back.is_empty());
    }

    #[test]
    fn encoded_size_is_exact() {
        for b in [block(), SparseRows::new(1), SparseRows::new(1 << 20)] {
            assert_eq!(encoded_size(&b), encode(&b).len());
        }
    }

    #[test]
    fn varint_boundaries() {
        let mut out = Vec::new();
        for v in [0u32, 127, 128, 16383, 16384, u32::MAX] {
            out.clear();
            put_varint(&mut out, v);
            let mut pos = 0;
            assert_eq!(get_varint(&out, &mut pos).expect("valid"), v);
            assert_eq!(pos, out.len());
        }
    }

    #[test]
    fn decode_rejects_truncation_everywhere() {
        let buf = encode(&block());
        for cut in 0..buf.len() {
            let r = decode(&buf[..cut]);
            assert!(r.is_err(), "decode of {cut}-byte prefix should fail");
        }
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let mut buf = encode(&block());
        buf.push(0);
        assert_eq!(decode(&buf), Err(CodecError::TrailingBytes));
    }

    #[test]
    fn decode_rejects_column_out_of_range() {
        // width=1, one row id 0 with nnz=1, col=5 -> out of range
        let mut buf = Vec::new();
        put_varint(&mut buf, 1); // width
        put_varint(&mut buf, 1); // n_rows
        put_varint(&mut buf, 0); // id
        put_varint(&mut buf, 1); // nnz
        put_varint(&mut buf, 5); // col 5 >= width 1
        buf.extend_from_slice(&1.0f32.to_le_bytes());
        assert_eq!(
            decode(&buf),
            Err(CodecError::Corrupt("column out of range"))
        );
    }

    #[test]
    fn decode_rejects_varint_overflow() {
        let buf = [0xff, 0xff, 0xff, 0xff, 0x7f, 0x00];
        assert_eq!(decode(&buf), Err(CodecError::VarintOverflow));
    }

    #[test]
    fn decode_rejects_huge_entry_count_without_allocating() {
        // nnz = u32::MAX would reserve 16 GiB of columns and values.
        let mut buf = Vec::new();
        put_varint(&mut buf, 8); // width
        put_varint(&mut buf, 1); // n_rows
        put_varint(&mut buf, 0); // id
        put_varint(&mut buf, u32::MAX); // nnz
        buf.extend_from_slice(&[0, 0, 0, 0, 0]);
        assert_eq!(decode(&buf), Err(CodecError::Truncated));
    }

    #[test]
    fn special_float_values_survive() {
        let b = SparseRows::from_rows(
            4,
            [(
                0u32,
                vec![0u32, 1, 2],
                vec![f32::MIN_POSITIVE, f32::MAX, -0.0f32],
            )],
        );
        let back = decode(&encode(&b)).expect("decodes");
        assert_eq!(back, b);
    }

    #[test]
    fn dense_ids_compress_well() {
        // Consecutive ids and columns should encode near 1 byte per index.
        let rows: Vec<(u32, Vec<u32>, Vec<f32>)> = (0..100u32)
            .map(|i| (i, vec![0u32, 1, 2], vec![1.0f32; 3]))
            .collect();
        let b = SparseRows::from_rows(16, rows);
        let buf = encode(&b);
        // 300 values * 4B = 1200; index overhead should be ~500, not ~2400.
        assert!(buf.len() < 1800, "encoded size {} too large", buf.len());
    }
}
