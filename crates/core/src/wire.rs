//! Wire formats for staged model artifacts.
//!
//! Weight blocks, communication maps and input shares are staged in the
//! object store offline and fetched by workers at start-up. Formats mirror
//! the activation codec (`fsd_sparse::codec`): LEB128 varints for structure,
//! raw little-endian `f32` for values.

use fsd_sparse::varint::{self, put as put_varint, VarintError};
use fsd_sparse::CsrMatrix;

/// Decoding errors for staged artifacts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Buffer ended mid-field.
    Truncated,
    /// Structure violates invariants (bad lengths, unsorted columns, ...).
    Corrupt(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "artifact buffer truncated"),
            WireError::Corrupt(w) => write!(f, "artifact corrupt: {w}"),
        }
    }
}

impl std::error::Error for WireError {}

fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64, WireError> {
    varint::get_u64(buf, pos).map_err(|e| match e {
        VarintError::Truncated => WireError::Truncated,
        VarintError::Overflow => WireError::Corrupt("varint overflow"),
    })
}

/// Serializes a CSR matrix (weight block: local rows, global columns).
pub fn encode_csr(m: &CsrMatrix) -> Vec<u8> {
    let (indptr, indices, values) = m.parts();
    let mut out = Vec::with_capacity(16 + m.nnz() * 6);
    put_varint(&mut out, m.rows() as u64);
    put_varint(&mut out, m.cols() as u64);
    for r in 0..m.rows() {
        put_varint(&mut out, (indptr[r + 1] - indptr[r]) as u64);
    }
    for r in 0..m.rows() {
        let row = &indices[indptr[r]..indptr[r + 1]];
        let mut prev = 0u32;
        for (i, &c) in row.iter().enumerate() {
            let d = if i == 0 { c } else { c - prev - 1 };
            put_varint(&mut out, d as u64);
            prev = c;
        }
    }
    for &v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Deserializes a buffer from [`encode_csr`].
pub fn decode_csr(buf: &[u8]) -> Result<CsrMatrix, WireError> {
    let mut pos = 0usize;
    let rows = get_varint(buf, &mut pos)? as usize;
    let cols = get_varint(buf, &mut pos)? as usize;
    let mut indptr = Vec::with_capacity(rows + 1);
    indptr.push(0usize);
    for _ in 0..rows {
        let n = get_varint(buf, &mut pos)? as usize;
        indptr.push(indptr.last().expect("non-empty") + n);
    }
    let nnz = *indptr.last().expect("non-empty");
    let mut indices = Vec::with_capacity(nnz);
    for r in 0..rows {
        let n = indptr[r + 1] - indptr[r];
        let mut prev = 0u32;
        for i in 0..n {
            let d = get_varint(buf, &mut pos)? as u32;
            let c = if i == 0 {
                d
            } else {
                prev.checked_add(d)
                    .and_then(|v| v.checked_add(1))
                    .ok_or(WireError::Corrupt("column overflow"))?
            };
            prev = c;
            indices.push(c);
        }
    }
    let mut values = Vec::with_capacity(nnz);
    for _ in 0..nnz {
        let end = pos + 4;
        let bytes = buf.get(pos..end).ok_or(WireError::Truncated)?;
        values.push(f32::from_le_bytes(bytes.try_into().expect("4 bytes")));
        pos = end;
    }
    if pos != buf.len() {
        return Err(WireError::Corrupt("trailing bytes"));
    }
    CsrMatrix::new(rows, cols, indptr, indices, values)
        .map_err(|_| WireError::Corrupt("invalid CSR"))
}

/// One worker's per-layer communication map: `[(peer, rows)]` per layer.
pub type LayerMaps = Vec<Vec<(u32, Vec<u32>)>>;

/// Serializes one worker's per-layer map: `[(peer, rows)]` per layer.
pub fn encode_maps(maps: &[Vec<(u32, Vec<u32>)>]) -> Vec<u8> {
    let mut out = Vec::new();
    put_varint(&mut out, maps.len() as u64);
    for layer in maps {
        put_varint(&mut out, layer.len() as u64);
        for (peer, rows) in layer {
            put_varint(&mut out, *peer as u64);
            put_varint(&mut out, rows.len() as u64);
            let mut prev = 0u32;
            for (i, &r) in rows.iter().enumerate() {
                let d = if i == 0 { r } else { r - prev - 1 };
                put_varint(&mut out, d as u64);
                prev = r;
            }
        }
    }
    out
}

/// Deserializes a buffer from [`encode_maps`].
pub fn decode_maps(buf: &[u8]) -> Result<LayerMaps, WireError> {
    let mut pos = 0usize;
    let n_layers = get_varint(buf, &mut pos)? as usize;
    let mut maps = Vec::with_capacity(n_layers);
    for _ in 0..n_layers {
        let n_peers = get_varint(buf, &mut pos)? as usize;
        let mut layer = Vec::with_capacity(n_peers);
        for _ in 0..n_peers {
            let peer = get_varint(buf, &mut pos)? as u32;
            let n_rows = get_varint(buf, &mut pos)? as usize;
            let mut rows = Vec::with_capacity(n_rows);
            let mut prev = 0u32;
            for i in 0..n_rows {
                let d = get_varint(buf, &mut pos)? as u32;
                let r = if i == 0 {
                    d
                } else {
                    prev.checked_add(d)
                        .and_then(|v| v.checked_add(1))
                        .ok_or(WireError::Corrupt("row overflow"))?
                };
                prev = r;
                rows.push(r);
            }
            layer.push((peer, rows));
        }
        maps.push(layer);
    }
    if pos != buf.len() {
        return Err(WireError::Corrupt("trailing bytes"));
    }
    Ok(maps)
}

/// Serializes a sorted id list (owned rows).
pub fn encode_ids(ids: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + ids.len() * 2);
    put_varint(&mut out, ids.len() as u64);
    let mut prev = 0u32;
    for (i, &r) in ids.iter().enumerate() {
        let d = if i == 0 { r } else { r - prev - 1 };
        put_varint(&mut out, d as u64);
        prev = r;
    }
    out
}

/// Deserializes a buffer from [`encode_ids`].
pub fn decode_ids(buf: &[u8]) -> Result<Vec<u32>, WireError> {
    let mut pos = 0usize;
    let n = get_varint(buf, &mut pos)? as usize;
    let mut ids = Vec::with_capacity(n);
    let mut prev = 0u32;
    for i in 0..n {
        let d = get_varint(buf, &mut pos)? as u32;
        let r = if i == 0 {
            d
        } else {
            prev.checked_add(d)
                .and_then(|v| v.checked_add(1))
                .ok_or(WireError::Corrupt("id overflow"))?
        };
        prev = r;
        ids.push(r);
    }
    if pos != buf.len() {
        return Err(WireError::Corrupt("trailing bytes"));
    }
    Ok(ids)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_roundtrip() {
        let m = CsrMatrix::from_triplets(
            4,
            100,
            [
                (0, 5, 1.5),
                (0, 99, -2.0),
                (2, 0, 3.25),
                (3, 50, 0.5),
                (3, 51, 4.0),
            ],
        )
        .expect("valid");
        let back = decode_csr(&encode_csr(&m)).expect("decodes");
        assert_eq!(back, m);
    }

    #[test]
    fn csr_roundtrip_empty() {
        let m = CsrMatrix::zeros(3, 7);
        assert_eq!(decode_csr(&encode_csr(&m)).expect("decodes"), m);
    }

    #[test]
    fn csr_rejects_truncation() {
        let buf =
            encode_csr(&CsrMatrix::from_triplets(2, 4, [(0, 1, 1.0), (1, 2, 2.0)]).expect("valid"));
        for cut in 0..buf.len() {
            assert!(decode_csr(&buf[..cut]).is_err(), "prefix {cut} decoded");
        }
    }

    #[test]
    fn maps_roundtrip() {
        let maps = vec![
            vec![(1u32, vec![0u32, 5, 9]), (3, vec![2])],
            vec![],
            vec![(0, vec![100, 200, 300])],
        ];
        let back = decode_maps(&encode_maps(&maps)).expect("decodes");
        assert_eq!(back, maps);
    }

    #[test]
    fn maps_roundtrip_empty() {
        let maps: Vec<Vec<(u32, Vec<u32>)>> = Vec::new();
        assert_eq!(decode_maps(&encode_maps(&maps)).expect("decodes"), maps);
    }

    #[test]
    fn ids_roundtrip() {
        for ids in [vec![], vec![0u32], vec![5, 6, 7, 1000, 4_000_000]] {
            assert_eq!(decode_ids(&encode_ids(&ids)).expect("decodes"), ids);
        }
    }

    #[test]
    fn ids_reject_trailing_garbage() {
        let mut buf = encode_ids(&[1, 2, 3]);
        buf.push(7);
        assert!(decode_ids(&buf).is_err());
    }
}
