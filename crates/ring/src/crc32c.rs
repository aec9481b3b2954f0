//! Software CRC32C (Castagnoli, polynomial `0x1EDC6F41`, reflected
//! `0x82F63B78`) — the checksum guarding every journal frame.
//!
//! The journal's durability story (docs/DURABILITY.md) needs a checksum
//! that is cheap on the leader's spill path, has good burst-error
//! detection, and matches a widely deployed standard so on-disk segments
//! remain checkable by external tooling.  CRC32C is what iSCSI, ext4 and
//! Btrfs settled on for the same job.  The vendored dependency set carries
//! no CRC crate, so this is the classic byte-at-a-time table
//! implementation; the table is built in a `const fn` at compile time and
//! the whole module is safe code.  At journal frame sizes (tens to
//! hundreds of bytes) the table walk is far below the cost of the buffered
//! file write it protects — the `benchmark/` package tracks the measured
//! cost (`ring.journal.crc32c_gib_per_sec`, and `encode_crc_ns_4k` vs
//! `encode_nocrc_ns_4k` under `ring.journal.*`).

/// Reflected CRC32C (Castagnoli) polynomial.
const POLY: u32 = 0x82F6_3B78;

const fn make_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0usize;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static TABLE: [u32; 256] = make_table();

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
    let mut crc = state;
    for &byte in bytes {
        crc = TABLE[((crc ^ u32::from(byte)) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_check_value() {
        // The standard CRC catalogue check value for CRC-32C("123456789").
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
    }

    #[test]
    fn empty_input_is_zero() {
        assert_eq!(crc32c(b""), 0);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        for split in 0..data.len() {
            let state = extend(!0, &data[..split]);
            let state = extend(state, &data[split..]);
            assert_eq!(!state, crc32c(data));
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
