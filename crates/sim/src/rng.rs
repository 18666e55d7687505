//! Deterministic pseudo-random number generation.
//!
//! The simulator cannot use `rand::thread_rng` style entropy: a run must be
//! a pure function of `(config, seed)`. [`Rng`] implements xoshiro256++
//! seeded via SplitMix64 — the standard, well-tested combination — with the
//! small set of distributions the workload models need (uniform ranges,
//! Bernoulli trials, exponential inter-arrival times, Zipf-like skew).
//!
//! [`Rng::fork`] derives an independent child stream; each simulated
//! component gets its own fork so that adding randomness consumption to one
//! component does not perturb another (a classic simulation-reproducibility
//! pitfall).

use crate::time::Ns;

/// SplitMix64 step, used for seeding and stream derivation.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256++ pseudo-random number generator.
///
/// # Example
///
/// ```
/// use hiss_sim::Rng;
///
/// let mut a = Rng::new(42);
/// let mut b = Rng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
///
/// let mut child = a.fork("gpu");
/// let mut child2 = b.fork("gpu");
/// assert_eq!(child.next_u64(), child2.next_u64()); // forks are deterministic too
/// ```
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Derives an independent child generator keyed by `label`.
    ///
    /// Forking consumes one value from `self`, then mixes in a hash of the
    /// label, so different labels at the same fork point produce unrelated
    /// streams.
    pub fn fork(&mut self, label: &str) -> Rng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a offset basis
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        Rng::new(self.next_u64() ^ h)
    }

    /// Next raw 64-bit value (xoshiro256++).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 high-quality bits mapped to [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    #[inline]
    pub fn gen_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        let span = hi - lo;
        // Lemire's multiply-shift rejection-free variant is overkill here;
        // a widening multiply gives negligible bias for span << 2^64.
        let x = self.next_u64();
        lo + (((x as u128 * span as u128) >> 64) as u64)
    }

    /// Bernoulli trial: `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Exponentially-distributed duration with the given mean.
    ///
    /// Used for Poisson arrival processes (e.g. SSR inter-arrival gaps).
    /// A zero mean yields [`Ns::ZERO`].
    pub fn gen_exp(&mut self, mean: Ns) -> Ns {
        if mean == Ns::ZERO {
            return Ns::ZERO;
        }
        // Inverse-CDF; clamp u away from 0 to bound the tail at ~36 means.
        let u = self.next_f64().max(1e-16);
        let ticks = -(u.ln()) * mean.as_nanos() as f64;
        Ns::from_nanos(ticks.min(u64::MAX as f64 / 2.0) as u64)
    }

    /// Duration uniformly jittered around `mean` by ±`frac` (e.g. 0.1 for
    /// ±10 %). `frac` is clamped to `[0, 1]`.
    pub fn gen_jitter(&mut self, mean: Ns, frac: f64) -> Ns {
        let frac = frac.clamp(0.0, 1.0);
        let f = 1.0 + frac * (2.0 * self.next_f64() - 1.0);
        mean.scale(f)
    }

    /// Approximate Zipf sample over `[0, n)` with skew `theta` in `(0, 1)`.
    ///
    /// Used by workload address-stream generators to create hot/cold page
    /// behaviour. Uses the inverse-power approximation, which is accurate
    /// enough for pollution modelling.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn gen_zipf(&mut self, n: usize, theta: f64) -> usize {
        assert!(n > 0, "zipf over empty domain");
        let u = self.next_f64().max(1e-12);
        let exponent = 1.0 / (1.0 - theta.clamp(0.0, 0.999));
        let idx = (n as f64 * u.powf(exponent)).floor() as usize;
        idx.min(n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forks_with_different_labels_diverge() {
        let mut root = Rng::new(99);
        let mut snapshot = root.clone();
        let mut a = root.fork("cpu");
        let mut b = snapshot.fork("gpu");
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same <= 1);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::new(3);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_is_roughly_half() {
        let mut r = Rng::new(4);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.next_f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean was {mean}");
    }

    #[test]
    fn range_respects_bounds() {
        let mut r = Rng::new(5);
        for _ in 0..10_000 {
            let x = r.gen_range(10, 20);
            assert!((10..20).contains(&x));
        }
    }

    #[test]
    fn range_covers_all_values() {
        let mut r = Rng::new(6);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[r.gen_range(0, 8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        Rng::new(0).gen_range(5, 5);
    }

    #[test]
    fn exp_mean_is_close() {
        let mut r = Rng::new(8);
        let mean = Ns::from_micros(10);
        let n = 50_000;
        let total: u64 = (0..n).map(|_| r.gen_exp(mean).as_nanos()).sum();
        let got = total as f64 / n as f64;
        let want = mean.as_nanos() as f64;
        assert!(
            (got - want).abs() / want < 0.03,
            "exp mean {got} vs expected {want}"
        );
    }

    #[test]
    fn exp_of_zero_mean_is_zero() {
        assert_eq!(Rng::new(1).gen_exp(Ns::ZERO), Ns::ZERO);
    }

    #[test]
    fn jitter_stays_in_band() {
        let mut r = Rng::new(9);
        let mean = Ns::from_nanos(1000);
        for _ in 0..10_000 {
            let x = r.gen_jitter(mean, 0.1).as_nanos();
            assert!((900..=1100).contains(&x), "jittered value {x}");
        }
    }

    #[test]
    fn zipf_skews_low() {
        let mut r = Rng::new(10);
        let n = 1000;
        let samples = 50_000;
        let low = (0..samples).filter(|_| r.gen_zipf(n, 0.8) < n / 10).count();
        // With strong skew, far more than 10% of samples land in the first decile.
        assert!(
            low as f64 / samples as f64 > 0.3,
            "only {low}/{samples} in first decile"
        );
    }

    #[test]
    fn gen_bool_probability_roughly_matches() {
        let mut r = Rng::new(11);
        let hits = (0..100_000).filter(|_| r.gen_bool(0.3)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.3).abs() < 0.01, "frac {frac}");
    }
}

#[cfg(test)]
mod proptests {
    use super::Rng as SimRng;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn gen_range_always_in_bounds(seed in any::<u64>(), lo in 0u64..1000, span in 1u64..1000) {
            let mut r = SimRng::new(seed);
            for _ in 0..64 {
                let x = r.gen_range(lo, lo + span);
                prop_assert!(x >= lo && x < lo + span);
            }
        }

        #[test]
        fn zipf_always_in_domain(seed in any::<u64>(), n in 1usize..5000, theta in 0.0f64..0.99) {
            let mut r = SimRng::new(seed);
            for _ in 0..64 {
                prop_assert!(r.gen_zipf(n, theta) < n);
            }
        }

        #[test]
        fn determinism_under_cloning(seed in any::<u64>()) {
            let mut a = SimRng::new(seed);
            let mut b = a.clone();
            for _ in 0..32 {
                prop_assert_eq!(a.next_u64(), b.next_u64());
            }
        }
    }
}
