//! Software CRC32C (Castagnoli, polynomial `0x1EDC6F41`, reflected
//! `0x82F63B78`) — the checksum guarding every journal frame and every
//! kernel checkpoint-chain link.
//!
//! The journal's durability story (docs/DURABILITY.md) needs a checksum
//! that is cheap on the leader's spill path, has good burst-error
//! detection, and matches a widely deployed standard so on-disk segments
//! remain checkable by external tooling.  CRC32C is what iSCSI, ext4 and
//! Btrfs settled on for the same job.  The vendored dependency set carries
//! no CRC crate, so this is a table-driven slice-by-16 implementation in
//! safe code: sixteen 256-entry tables (16 KiB, built by a `const fn` at
//! compile time) let each 16-byte chunk cost sixteen independent table
//! loads instead of a sixteen-step dependent chain, and a byte-at-a-time
//! loop finishes the last `len % 16` bytes.  Every journal CRC path — the
//! leader's append, a joiner's `read_from` verify, compaction and the
//! reopen scrub — runs through [`extend`], so its speed bounds the
//! leader's spill path: the `benchmark/` package tracks the cost
//! (`ring.journal.crc32c_gib_per_sec`, and `encode_crc_ns_4k` vs
//! `encode_nocrc_ns_4k` under `ring.journal.*`).

/// Reflected CRC32C (Castagnoli) polynomial.
const POLY: u32 = 0x82F6_3B78;

/// Bytes consumed per step of the sliced loop (and number of tables).
const SLICE: usize = 16;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC register contribution of byte `b` followed by `k` zero bytes, so
/// byte `j` of a 16-byte chunk is looked up in `TABLES[15 - j]`.
const fn make_tables() -> [[u32; 256]; SLICE] {
    let mut tables = [[0u32; 256]; SLICE];
    let mut i = 0usize;
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
    let mut k = 1usize;
    while k < SLICE {
        let mut i = 0usize;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; SLICE] = make_tables();

/// CRC32C of `bytes`, with the standard init (`!0`) and final xor (`!0`).
///
/// Matches the value every other CRC32C implementation (iSCSI, SSE4.2
/// `crc32` instruction, the `crc32c` crates) produces for the same input.
#[must_use]
pub fn crc32c(bytes: &[u8]) -> u32 {
    !extend(!0, bytes)
}

/// Streams more `bytes` into an in-progress CRC state.
///
/// The state is the *raw* (pre-final-xor) register: start from `!0`, call
/// `extend` per chunk, and finish with a final `!state`.  [`crc32c`] is the
/// one-shot composition of exactly that.
#[must_use]
pub fn extend(state: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = state;
    let mut chunks = bytes.chunks_exact(SLICE);
    for chunk in &mut chunks {
        let (lo, hi) = chunk.split_at(8);
        let lo = u64::from_le_bytes(lo.try_into().expect("8 bytes")) ^ u64::from(crc);
        let hi = u64::from_le_bytes(hi.try_into().expect("8 bytes"));
        let mut next = 0;
        for j in 0..8 {
            next ^= t[15 - j][((lo >> (8 * j)) & 0xFF) as usize]
                ^ t[7 - j][((hi >> (8 * j)) & 0xFF) as usize];
        }
        crc = next;
    }
    for &byte in chunks.remainder() {
        crc = t[0][((crc ^ u32::from(byte)) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time table walk the sliced loop must reproduce.
    fn extend_bytewise(state: u32, bytes: &[u8]) -> u32 {
        let mut crc = state;
        for &byte in bytes {
            crc = TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize] ^ (crc >> 8);
        }
        crc
    }

    /// Deterministic, non-repeating test bytes (an LCG's high bytes).
    fn bytes(len: usize) -> Vec<u8> {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                (x >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn matches_the_published_check_value() {
        // The standard CRC catalogue check value for CRC-32C("123456789").
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
    }

    #[test]
    fn matches_the_rfc_3720_test_vectors() {
        // RFC 3720 (iSCSI) appendix B.4, all 32-byte inputs.
        assert_eq!(crc32c(&[0x00; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFF; 32]), 0x62A8_AB43);
        let ascending: Vec<u8> = (0..32).collect();
        assert_eq!(crc32c(&ascending), 0x46DD_794E);
        let descending: Vec<u8> = (0..32).rev().collect();
        assert_eq!(crc32c(&descending), 0x113F_DB5C);
    }

    #[test]
    fn empty_input_is_zero() {
        assert_eq!(crc32c(b""), 0);
    }

    #[test]
    fn sliced_equals_bytewise_at_every_length_and_alignment() {
        let data = bytes(256 + SLICE);
        for start in 0..SLICE {
            for len in 0..=256 {
                let input = &data[start..start + len];
                assert_eq!(
                    extend(!0, input),
                    extend_bytewise(!0, input),
                    "start {start}, len {len}"
                );
            }
        }
        // Page-sized frames, the 4 KiB payload plus its 79-byte header.
        let data = bytes(4175);
        for len in [4095, 4096, 4097, 4175] {
            assert_eq!(
                extend(!0, &data[..len]),
                extend_bytewise(!0, &data[..len]),
                "len {len}"
            );
        }
    }

    #[test]
    fn streaming_equals_one_shot() {
        let data = bytes(300);
        let whole = crc32c(&data);
        for split in 0..=data.len() {
            let state = extend(!0, &data[..split]);
            assert_eq!(!extend(state, &data[split..]), whole, "split {split}");
        }
    }

    #[test]
    fn single_bit_flips_always_change_the_crc() {
        let data = vec![0xA5u8; 64];
        let base = crc32c(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32c(&flipped), base, "flip at {byte}:{bit} undetected");
            }
        }
    }
}
