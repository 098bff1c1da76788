//! LEB128 varints: the one variable-length integer encoding shared by
//! every wire format in the workspace — the activation [`codec`], the
//! [`compress`] token framing and the staged-artifact formats in
//! `fsd-core`.
//!
//! Seven value bits per byte, least-significant group first, high bit set
//! on every byte but the last. Decoders report a [`VarintError`]; each
//! format maps it onto its own error type.
//!
//! [`codec`]: crate::codec
//! [`compress`]: crate::compress

/// Why a varint failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarintError {
    /// The buffer ended mid-varint.
    Truncated,
    /// The value does not fit the decoded width.
    Overflow,
}

/// Appends `v` to `out`.
#[inline]
pub fn put(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Bytes [`put`] writes for `v`.
#[inline]
pub fn len(v: u64) -> usize {
    (1 + 63u32.saturating_sub(v.leading_zeros()) / 7) as usize
}

/// Decodes a `u32` at `*pos`, advancing past it. At most five bytes, and
/// the fifth may carry only the top four value bits.
#[inline]
pub fn get_u32(buf: &[u8], pos: &mut usize) -> Result<u32, VarintError> {
    let mut v: u32 = 0;
    let mut shift = 0u32;
    loop {
        let &byte = buf.get(*pos).ok_or(VarintError::Truncated)?;
        *pos += 1;
        if shift == 28 && (byte & 0xf0) != 0 {
            return Err(VarintError::Overflow);
        }
        v |= ((byte & 0x7f) as u32) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        // Unreachable past the check above, but the bound lets the
        // compiler see the loop runs at most five times.
        if shift > 28 {
            return Err(VarintError::Overflow);
        }
    }
}

/// Decodes a `u64` at `*pos`, advancing past it. At most ten bytes.
#[inline]
pub fn get_u64(buf: &[u8], pos: &mut usize) -> Result<u64, VarintError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let &byte = buf.get(*pos).ok_or(VarintError::Truncated)?;
        *pos += 1;
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(VarintError::Overflow);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths_match_encodings() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut out = Vec::new();
            put(&mut out, v);
            assert_eq!(len(v), out.len(), "{v}");
            let mut pos = 0;
            assert_eq!(get_u64(&out, &mut pos), Ok(v));
            assert_eq!(pos, out.len());
        }
    }

    #[test]
    fn u64_rejects_runs_past_ten_bytes() {
        assert_eq!(get_u64(&[0x80; 11], &mut 0), Err(VarintError::Overflow));
        assert_eq!(get_u64(&[0xff], &mut 0), Err(VarintError::Truncated));
    }
}
