//! The benchmark's own seeded generator (splitmix64).  Every input — key
//! and value mix, payload sizes, joiner attach points, open-loop schedule —
//! is drawn from one of these, seeded from `--seed`, so the same seed gives
//! byte-identical inputs on every run and on every commit.

/// splitmix64: tiny, fast, and good enough for workload generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `label` (trial index, connection, purpose),
    /// so adding a consumer of randomness never shifts another's inputs.
    pub fn fork(seed: u64, label: u64) -> Self {
        let mut rng = Rng(seed ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.next_u64() % (hi - lo + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_forks_are_independent() {
        let a: Vec<u64> = (0..8).scan(Rng(7), |r, _| Some(r.next_u64())).collect();
        let b: Vec<u64> = (0..8).scan(Rng(7), |r, _| Some(r.next_u64())).collect();
        assert_eq!(a, b);
        assert_ne!(Rng::fork(7, 1).next_u64(), Rng::fork(7, 2).next_u64());
        let mut r = Rng(1);
        for _ in 0..1000 {
            let v = r.range(16, 512);
            assert!((16..=512).contains(&v));
        }
    }
}
