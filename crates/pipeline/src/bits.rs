//! Bit-granular field extraction from byte buffers.
//!
//! P4 headers are bit-packed: fields start at arbitrary bit offsets and
//! span up to 64 bits. The parser engine uses these helpers to pull
//! big-endian bit ranges out of (and write them back into) packet
//! buffers.

/// Extracts `bits` bits starting `bit_offset` bits into `buf`,
/// interpreted big-endian, right-aligned into a `u64`.
///
/// Returns `None` when the range runs past the end of the buffer or
/// `bits` is 0 or > 64.
pub fn extract_bits(buf: &[u8], bit_offset: u64, bits: u32) -> Option<u64> {
    if bits == 0 || bits > 64 {
        return None;
    }
    let end = bit_offset.checked_add(u64::from(bits))?;
    if end > (buf.len() as u64) * 8 {
        return None;
    }
    // One-load path: read the 8-byte big-endian window anchored at the
    // field's first byte — or, when fewer than 8 bytes follow it, the
    // buffer's last 8 bytes, which still hold the whole field — then
    // shift the field's top bit to bit 63 and its bottom bit to bit 0.
    // Any bit offset works as long as the span fits the window. The
    // bounds check above keeps `first` inside the buffer.
    let first = (bit_offset / 8) as usize;
    let start = first.min(buf.len().saturating_sub(8));
    if let Some(window) = buf[start..].first_chunk::<8>() {
        let lead = bit_offset - 8 * start as u64;
        if lead + u64::from(bits) <= 64 {
            return Some((u64::from_be_bytes(*window) << lead) >> (64 - bits));
        }
    }
    // Bit walk: buffers shorter than 8 bytes and spans over 64 bits.
    let mut v: u64 = 0;
    let mut taken = 0u32;
    let mut pos = bit_offset;
    while taken < bits {
        let byte = buf[(pos / 8) as usize];
        let bit_in_byte = (pos % 8) as u32;
        let avail = 8 - bit_in_byte;
        let take = avail.min(bits - taken);
        // Bits of this byte, MSB first: select `take` bits starting at
        // `bit_in_byte`.
        let shifted = (byte as u64) >> (avail - take);
        let mask = if take == 64 {
            u64::MAX
        } else {
            (1u64 << take) - 1
        };
        v = (v << take) | (shifted & mask);
        taken += take;
        pos += u64::from(take);
    }
    Some(v)
}

/// Writes the low `bits` bits of `value` into `buf` at `bit_offset`
/// (big-endian). Returns `false` when the range does not fit.
pub fn insert_bits(buf: &mut [u8], bit_offset: u64, bits: u32, value: u64) -> bool {
    if bits == 0 || bits > 64 {
        return false;
    }
    let Some(end) = bit_offset.checked_add(u64::from(bits)) else {
        return false;
    };
    if end > (buf.len() as u64) * 8 {
        return false;
    }
    // Write MSB-first.
    for i in 0..bits {
        let bit = (value >> (bits - 1 - i)) & 1;
        let pos = bit_offset + u64::from(i);
        let byte = &mut buf[(pos / 8) as usize];
        let shift = 7 - (pos % 8) as u32;
        if bit == 1 {
            *byte |= 1 << shift;
        } else {
            *byte &= !(1 << shift);
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_aligned_bytes() {
        let buf = [0x12, 0x34, 0x56, 0x78];
        assert_eq!(extract_bits(&buf, 0, 8), Some(0x12));
        assert_eq!(extract_bits(&buf, 8, 16), Some(0x3456));
        assert_eq!(extract_bits(&buf, 0, 32), Some(0x1234_5678));
    }

    #[test]
    fn extracts_unaligned_ranges() {
        // 0b0001_0010 0b0011_0100
        let buf = [0x12, 0x34];
        assert_eq!(extract_bits(&buf, 3, 5), Some(0b10010));
        assert_eq!(extract_bits(&buf, 4, 8), Some(0x23));
        assert_eq!(extract_bits(&buf, 1, 3), Some(0b001));
    }

    #[test]
    fn extracts_full_64_bits() {
        let buf = [0xff; 8];
        assert_eq!(extract_bits(&buf, 0, 64), Some(u64::MAX));
    }

    #[test]
    fn rejects_out_of_range() {
        let buf = [0u8; 4];
        assert_eq!(extract_bits(&buf, 0, 33), None);
        assert_eq!(extract_bits(&buf, 32, 1), None);
        assert_eq!(extract_bits(&buf, 0, 0), None);
        assert_eq!(extract_bits(&buf, 0, 65), None);
        assert_eq!(extract_bits(&buf, u64::MAX, 8), None);
    }

    /// Generic bit-walk reference, kept deliberately naive so the
    /// one-load path has an independent oracle.
    fn extract_bits_reference(buf: &[u8], bit_offset: u64, bits: u32) -> Option<u64> {
        if bits == 0 || bits > 64 {
            return None;
        }
        let end = bit_offset.checked_add(u64::from(bits))?;
        if end > (buf.len() as u64) * 8 {
            return None;
        }
        let mut v = 0u64;
        for i in 0..u64::from(bits) {
            let pos = bit_offset + i;
            let bit = (buf[(pos / 8) as usize] >> (7 - (pos % 8))) & 1;
            v = (v << 1) | u64::from(bit);
        }
        Some(v)
    }

    #[test]
    fn aligned_fast_path_agrees_with_bit_walk() {
        let mut bytes = [0u8; 24];
        let mut x: u32 = 0x1234_5678;
        for b in &mut bytes {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            *b = (x >> 24) as u8;
        }
        // Every buffer length 1–24 (so fields land in the last 8 bytes,
        // and in buffers too short for the window), every byte, every
        // in-byte bit offset 0–7 and every width 1–64 — in range or not.
        for len in 1..=bytes.len() {
            let buf = &bytes[..len];
            for byte_off in 0..len as u64 {
                for extra_bits in 0..8u64 {
                    let off = byte_off * 8 + extra_bits;
                    for bits in 1..=64u32 {
                        assert_eq!(
                            extract_bits(buf, off, bits),
                            extract_bits_reference(buf, off, bits),
                            "len={len} off={off} bits={bits}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn insert_then_extract_roundtrips() {
        let mut buf = [0u8; 16];
        for (off, bits, v) in [
            (0u64, 8u32, 0xabu64),
            (13, 11, 0x5a5),
            (24, 64, 0x0123_4567_89ab_cdef),
            (100, 1, 1),
        ] {
            assert!(insert_bits(&mut buf, off, bits, v));
            assert_eq!(
                extract_bits(&buf, off, bits),
                Some(v),
                "off={off} bits={bits}"
            );
        }
    }

    #[test]
    fn insert_clears_old_bits() {
        let mut buf = [0xff; 2];
        assert!(insert_bits(&mut buf, 4, 8, 0));
        assert_eq!(extract_bits(&buf, 4, 8), Some(0));
        assert_eq!(buf, [0xf0, 0x0f]);
    }

    #[test]
    fn insert_rejects_out_of_range() {
        let mut buf = [0u8; 2];
        assert!(!insert_bits(&mut buf, 9, 8, 0));
        assert!(!insert_bits(&mut buf, 0, 0, 0));
    }
}
