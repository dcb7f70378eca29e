//! Seeded input generation. Every input a workload feeds the program —
//! node rates, reweight order, driver seeds, agent names — comes from
//! one [`Rng`] seeded by the `--seed` argument, so a seed names an input
//! set exactly.

/// SplitMix64: small, fast, and good enough to draw benchmark inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// An independent stream for one purpose (`tag`) of one seed.
    pub fn stream(seed: u64, tag: u64) -> Self {
        let mut r = Self::new(seed ^ tag.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform index in `0..n`.
    pub fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// `n` irregular node rates: log-uniform over `[1, 64)` jobs/s, so the
/// cluster spans fast and slow machines with no repeated value.
pub fn irregular_rates(rng: &mut Rng, n: usize) -> Vec<f64> {
    (0..n).map(|_| 64f64.powf(rng.next_f64())).collect()
}

/// A fixed pool of `n` uniform draws in `(0, 1)`, precomputed so that a
/// timed loop over a layer call does not also time the draw.
pub fn draws(rng: &mut Rng, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.next_f64().max(f64::MIN_POSITIVE)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_names_its_inputs() {
        let a = irregular_rates(&mut Rng::stream(7, 1), 64);
        assert_eq!(a, irregular_rates(&mut Rng::stream(7, 1), 64));
        assert_ne!(a, irregular_rates(&mut Rng::stream(8, 1), 64));
        assert_ne!(a, irregular_rates(&mut Rng::stream(7, 2), 64), "streams are independent");
        assert!(a.iter().all(|&r| (1.0..64.0).contains(&r)));
        assert!(draws(&mut Rng::new(3), 1000).iter().all(|&u| u > 0.0 && u < 1.0));
    }
}
