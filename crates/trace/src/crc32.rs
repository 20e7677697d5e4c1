//! Hand-rolled CRC-32 (IEEE 802.3 polynomial, the `cksum`/zlib variant),
//! matching the repo's no-external-dependencies rule the same way the
//! bench crate hand-rolls its JSON.
//!
//! Slicing-by-8: eight 256-entry tables, all built at compile time, fold
//! eight input bytes per step instead of one. `TABLES[0]` is the classic
//! bytewise table; `TABLES[k][b]` is the CRC of byte `b` followed by `k`
//! zero bytes, so the eight lookups of one step XOR together to the CRC
//! the bytewise loop would reach after those eight bytes. The checksum is
//! the same IEEE CRC-32 bit for bit; only the speed differs.

/// Reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 of `bytes` (init `0xFFFF_FFFF`, final xor `0xFFFF_FFFF`).
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// Continues a CRC-32 over more bytes: `crc32_update(crc32(a), b)` is
/// `crc32` of `a` followed by `b`, so a file can be checksummed in
/// pieces without holding it in memory.
#[inline]
pub fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = crc ^ 0xFFFF_FFFF;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The plain bytewise table loop: the reference the sliced
    /// implementation must match on every input.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        crc ^ 0xFFFF_FFFF
    }

    /// A deterministic pseudo-random buffer (xorshift64*).
    fn noise(len: usize, mut state: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // The classic check value for the IEEE CRC-32.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn sensitive_to_every_bit() {
        let base = crc32(b"hello world");
        let mut bytes = *b"hello world";
        for i in 0..bytes.len() * 8 {
            bytes[i / 8] ^= 1 << (i % 8);
            assert_ne!(crc32(&bytes), base, "bit {i} flip went undetected");
            bytes[i / 8] ^= 1 << (i % 8);
        }
    }

    #[test]
    fn update_continues_across_splits() {
        let buf = noise(100, 0xC0DE);
        for split in 0..=buf.len() {
            let (a, b) = buf.split_at(split);
            assert_eq!(crc32_update(crc32(a), b), crc32(&buf), "split {split}");
        }
    }

    #[test]
    fn sliced_matches_bytewise_at_every_length_and_alignment() {
        let buf = noise(64 + 8, 0x5EED);
        for start in 0..8 {
            for len in 0..=64 {
                let slice = &buf[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "start {start} len {len}"
                );
            }
        }
    }

    #[test]
    fn sliced_matches_bytewise_on_a_large_buffer() {
        let buf = noise(1 << 20, 0xC0FFEE);
        assert_eq!(crc32(&buf), crc32_bytewise(&buf));
    }
}
