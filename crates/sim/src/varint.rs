//! LEB128 varints and zigzag deltas: the compact integer encoding of the
//! `.sgxt` trace format and of the Chrome trace sink's event log.
//!
//! ```
//! use sgx_sim::varint;
//!
//! let mut buf = Vec::new();
//! varint::push(&mut buf, 300);
//! varint::push(&mut buf, varint::zigzag(5u64.wrapping_sub(7)));
//! assert_eq!(buf, [0xAC, 0x02, 0x03]);
//! let mut pos = 0;
//! assert_eq!(varint::read(&buf, &mut pos), 300);
//! assert_eq!(7u64.wrapping_add(varint::unzigzag(varint::read(&buf, &mut pos))), 5);
//! ```

/// The longest varint: a `u64` takes at most 10 bytes.
pub const MAX_BYTES: usize = 10;

/// Appends `v` as an LEB128 varint: seven bits per byte, low bits first,
/// the high bit set on every byte but the last.
#[inline]
pub fn push(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Reads the varint [`push`] wrote at `bytes[*pos]` and advances `pos`
/// past it.
///
/// # Panics
///
/// Panics if `bytes` ends inside the varint. Input from outside the
/// program needs a reader that reports truncation and overlong varints
/// as errors instead.
#[inline]
pub fn read(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0;
    let mut shift = 0;
    loop {
        let b = bytes[*pos];
        *pos += 1;
        v |= u64::from(b & 0x7F) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
    }
}

/// Maps a wrapping difference onto the unsigned varint space, so small
/// magnitudes of either sign stay short: 0, −1, 1, −2, … become 0, 1, 2,
/// 3, ….
#[inline]
pub fn zigzag(d: u64) -> u64 {
    (d << 1) ^ ((d as i64 >> 63) as u64)
}

/// Inverts [`zigzag`].
#[inline]
pub fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_round_trip_at_every_length() {
        let mut values = vec![0, 1, 0x7F, 0x80, u64::MAX];
        for shift in 1..64 {
            values.extend([(1u64 << shift) - 1, 1 << shift]);
        }
        for v in values {
            let mut buf = vec![0xFF];
            push(&mut buf, v);
            assert!(buf.len() - 1 <= MAX_BYTES, "{v}");
            let mut pos = 1;
            assert_eq!(read(&buf, &mut pos), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn zigzag_keeps_small_differences_small() {
        let cases = [(0, 0), (u64::MAX, 1), (1, 2), (u64::MAX - 1, 3), (2, 4)];
        for (d, z) in cases {
            assert_eq!(zigzag(d), z);
            assert_eq!(unzigzag(z), d);
        }
        for d in [
            i64::MAX as u64,
            i64::MIN as u64,
            12_345,
            0u64.wrapping_sub(12_345),
        ] {
            assert_eq!(unzigzag(zigzag(d)), d);
        }
    }
}
