//! Fast statistical microarchitectural-pollution model.
//!
//! Simulating every cache access of a hundred-millisecond run across an
//! 80-configuration figure grid is intractable, so experiment-scale runs
//! use this statistical abstraction of the structural models in
//! [`cache`](crate::cache) and [`branch`](crate::branch):
//!
//! Each core tracks a *warmth* value in `[0, 1]` per structure (L1D,
//! branch predictor) for the user thread it is running:
//!
//! - while **kernel** code runs (SSR handlers), warmth decays
//!   exponentially toward 0 with time constant `kernel_decay_tau` — the
//!   handler streams its own code and data through the structure,
//! - while **user** code runs, warmth recovers exponentially toward 1 with
//!   time constant `user_refill_tau` — the application re-fetches its
//!   working set,
//! - a **flush** (CC6 entry, context migration) resets warmth to 0.
//!
//! The exponential form is the continuous-time limit of LRU displacement
//! by a competing reference stream and matches the structural models'
//! observed behaviour (see `tests/model_agreement.rs` in this crate).
//!
//! Warmth maps to performance in `hiss-cpu`: the user IPC penalty is
//! proportional to `1 - warmth`, scaled by a per-application sensitivity
//! from the workload catalog (fluidanimate is highly cache-sensitive,
//! raytrace barely — paper §IV-A).

use hiss_sim::Ns;

/// Time constants governing warmth decay and refill for one structure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PollutionParams {
    /// Time constant of exponential warmth decay while kernel code runs.
    pub kernel_decay_tau: Ns,
    /// Time constant of exponential warmth recovery while user code runs.
    pub user_refill_tau: Ns,
}

impl PollutionParams {
    /// Defaults for an L1 data cache: a kernel handler streaming through a
    /// 16 KiB L1D displaces most of it within a few microseconds, and the
    /// user working set takes somewhat longer to page back in.
    pub fn l1d_default() -> Self {
        PollutionParams {
            kernel_decay_tau: Ns::from_micros(3),
            user_refill_tau: Ns::from_micros(18),
        }
    }

    /// Defaults for a branch predictor: smaller state, faster to trash and
    /// faster to retrain than the L1D.
    pub fn branch_default() -> Self {
        PollutionParams {
            kernel_decay_tau: Ns::from_nanos(1_500),
            user_refill_tau: Ns::from_micros(10),
        }
    }
}

/// Warmth state of one core's user-visible microarchitectural structures.
///
/// # Example
///
/// ```
/// use hiss_mem::WarmthModel;
/// use hiss_sim::Ns;
///
/// let mut w = WarmthModel::new_warm();
/// assert_eq!(w.cache_warmth(), 1.0);
/// w.on_kernel(Ns::from_micros(4)); // one L1D decay constant of kernel time
/// assert!(w.cache_warmth() < 0.4);
/// w.on_user(Ns::from_micros(120)); // ten refill constants of user time
/// assert!(w.cache_warmth() > 0.99);
/// ```
#[derive(Debug, Clone)]
pub struct WarmthModel {
    cache: f64,
    branch: f64,
    cache_params: PollutionParams,
    branch_params: PollutionParams,
    /// Time-weighted average of (1 - cache warmth), for reporting.
    cold_cache_integral: f64,
    cold_branch_integral: f64,
    observed: Ns,
}

impl WarmthModel {
    /// Creates a model starting fully warm, with default L1D/branch
    /// parameters.
    pub fn new_warm() -> Self {
        Self::with_params(
            PollutionParams::l1d_default(),
            PollutionParams::branch_default(),
        )
    }

    /// Creates a fully-warm model with explicit parameters.
    pub fn with_params(cache_params: PollutionParams, branch_params: PollutionParams) -> Self {
        WarmthModel {
            cache: 1.0,
            branch: 1.0,
            cache_params,
            branch_params,
            cold_cache_integral: 0.0,
            cold_branch_integral: 0.0,
            observed: Ns::ZERO,
        }
    }

    /// Current L1D warmth in `[0, 1]`.
    pub fn cache_warmth(&self) -> f64 {
        self.cache
    }

    /// Current branch-predictor warmth in `[0, 1]`.
    pub fn branch_warmth(&self) -> f64 {
        self.branch
    }

    /// `exp(-dur/tau)`, the fraction of the old state an exponential
    /// with time constant `tau` keeps across `dur`. A zero `tau` keeps
    /// nothing (decay reaches 0, refill reaches 1 at once).
    fn factor(dur: Ns, tau: Ns) -> f64 {
        if tau == Ns::ZERO {
            return 0.0;
        }
        (-(dur.as_nanos() as f64) / tau.as_nanos() as f64).exp()
    }

    /// The cache and branch factors of `dur` for time constant `tau_of`
    /// of each structure, with one `exp` when the two constants agree.
    fn factors(&self, dur: Ns, tau_of: fn(&PollutionParams) -> Ns) -> (f64, f64) {
        let (cache_tau, branch_tau) = (tau_of(&self.cache_params), tau_of(&self.branch_params));
        let cache = Self::factor(dur, cache_tau);
        let branch = if branch_tau == cache_tau {
            cache
        } else {
            Self::factor(dur, branch_tau)
        };
        (cache, branch)
    }

    fn integrate(&mut self, dur: Ns) {
        let d = dur.as_nanos() as f64;
        self.cold_cache_integral += (1.0 - self.cache) * d;
        self.cold_branch_integral += (1.0 - self.branch) * d;
        self.observed += dur;
    }

    /// Advances the model across `dur` of kernel execution on this core.
    /// Warmth decays; the interval is integrated *at the post-decay value*
    /// (pessimistic by at most one handler length).
    pub fn on_kernel(&mut self, dur: Ns) {
        let (cache, branch) = self.factors(dur, |p| p.kernel_decay_tau);
        self.cache *= cache;
        self.branch *= branch;
        self.integrate(dur);
    }

    /// Advances the model across `dur` of user execution; warmth refills.
    /// The interval is integrated at the pre-refill value so the penalty of
    /// re-warming is attributed to the user interval that pays it.
    pub fn on_user(&mut self, dur: Ns) {
        let factors = self.factors(dur, |p| p.user_refill_tau);
        self.refill(dur, factors);
    }

    fn refill(&mut self, dur: Ns, (cache, branch): (f64, f64)) {
        self.integrate(dur);
        self.cache = 1.0 - (1.0 - self.cache) * cache;
        self.branch = 1.0 - (1.0 - self.branch) * branch;
    }

    /// Average user slowdown factor across `dur` of user execution,
    /// *without yet advancing state*: callers first ask for the penalty a
    /// stretch of user work will pay, stretch its duration accordingly,
    /// then commit with [`WarmthModel::on_user`].
    ///
    /// `cache_sensitivity` / `branch_sensitivity` are per-application
    /// factors: the maximum fractional slowdown when the structure is
    /// fully cold.
    pub fn user_slowdown(&self, dur: Ns, cache_sensitivity: f64, branch_sensitivity: f64) -> f64 {
        let factors = self.factors(dur, |p| p.user_refill_tau);
        self.slowdown(dur, cache_sensitivity, branch_sensitivity, factors)
    }

    /// [`WarmthModel::user_slowdown`] followed by
    /// [`WarmthModel::on_user`], bit for bit, with each refill factor
    /// computed once for both: returns the slowdown of `dur` of user
    /// execution and advances the model across it.
    pub fn run_user(&mut self, dur: Ns, cache_sensitivity: f64, branch_sensitivity: f64) -> f64 {
        let factors = self.factors(dur, |p| p.user_refill_tau);
        let slowdown = self.slowdown(dur, cache_sensitivity, branch_sensitivity, factors);
        self.refill(dur, factors);
        slowdown
    }

    fn slowdown(
        &self,
        dur: Ns,
        cache_sensitivity: f64,
        branch_sensitivity: f64,
        (cache, branch): (f64, f64),
    ) -> f64 {
        // Mean of (1 - warmth) over an exponential refill of length d with
        // time constant tau, starting from w0:
        //   avg_cold = (1 - w0) * tau/d * (1 - exp(-d/tau))
        let avg_cold = |w0: f64, tau: Ns, factor: f64| -> f64 {
            let d = dur.as_nanos() as f64;
            if d == 0.0 {
                return 1.0 - w0;
            }
            if tau == Ns::ZERO {
                return 0.0;
            }
            let t = tau.as_nanos() as f64;
            (1.0 - w0) * (t / d) * (1.0 - factor)
        };
        1.0 + cache_sensitivity * avg_cold(self.cache, self.cache_params.user_refill_tau, cache)
            + branch_sensitivity * avg_cold(self.branch, self.branch_params.user_refill_tau, branch)
    }

    /// Models a full structure flush (CC6 sleep entry flushes caches).
    pub fn on_flush(&mut self) {
        self.cache = 0.0;
        self.branch = 0.0;
    }

    /// Time-averaged coldness (`1 - warmth`) of the L1D over everything
    /// observed so far; proxies the *increase* in L1D miss rate (Fig. 5a).
    pub fn avg_cache_coldness(&self) -> f64 {
        if self.observed == Ns::ZERO {
            0.0
        } else {
            self.cold_cache_integral / self.observed.as_nanos() as f64
        }
    }

    /// Time-averaged coldness of the branch predictor (Fig. 5b proxy).
    pub fn avg_branch_coldness(&self) -> f64 {
        if self.observed == Ns::ZERO {
            0.0
        } else {
            self.cold_branch_integral / self.observed.as_nanos() as f64
        }
    }
}

impl Default for WarmthModel {
    fn default() -> Self {
        Self::new_warm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_fully_warm() {
        let w = WarmthModel::new_warm();
        assert_eq!(w.cache_warmth(), 1.0);
        assert_eq!(w.branch_warmth(), 1.0);
        assert_eq!(w.avg_cache_coldness(), 0.0);
    }

    #[test]
    fn kernel_time_cools_structures() {
        let mut w = WarmthModel::new_warm();
        w.on_kernel(Ns::from_micros(3)); // exactly one cache tau
        assert!((w.cache_warmth() - (-1.0f64).exp()).abs() < 1e-9);
        // Branch tau is 1.5µs, so 3µs = two taus.
        assert!((w.branch_warmth() - (-2.0f64).exp()).abs() < 1e-9);
    }

    #[test]
    fn user_time_rewarms() {
        let mut w = WarmthModel::new_warm();
        w.on_kernel(Ns::from_micros(40)); // essentially fully cold
        assert!(w.cache_warmth() < 1e-4);
        w.on_user(Ns::from_micros(18)); // one refill tau
        assert!((w.cache_warmth() - (1.0 - (-1.0f64).exp())).abs() < 1e-3);
        w.on_user(Ns::from_millis(1));
        assert!(w.cache_warmth() > 0.9999);
    }

    #[test]
    fn flush_resets_to_cold() {
        let mut w = WarmthModel::new_warm();
        w.on_flush();
        assert_eq!(w.cache_warmth(), 0.0);
        assert_eq!(w.branch_warmth(), 0.0);
    }

    #[test]
    fn slowdown_is_one_when_warm() {
        let w = WarmthModel::new_warm();
        let s = w.user_slowdown(Ns::from_micros(10), 0.5, 0.3);
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn slowdown_scales_with_sensitivity() {
        let mut w = WarmthModel::new_warm();
        w.on_kernel(Ns::from_millis(1)); // fully cold
        let lo = w.user_slowdown(Ns::from_micros(5), 0.1, 0.0);
        let hi = w.user_slowdown(Ns::from_micros(5), 0.5, 0.0);
        assert!(hi > lo);
        assert!(lo > 1.0);
    }

    #[test]
    fn slowdown_shrinks_for_longer_user_stretches() {
        // A long user stretch amortises the cold start: average slowdown
        // over the stretch is smaller.
        let mut w = WarmthModel::new_warm();
        w.on_kernel(Ns::from_millis(1));
        let short = w.user_slowdown(Ns::from_micros(2), 0.4, 0.2);
        let long = w.user_slowdown(Ns::from_millis(1), 0.4, 0.2);
        assert!(long < short);
        assert!(long > 1.0);
    }

    #[test]
    fn coldness_integrals_accumulate() {
        let mut w = WarmthModel::new_warm();
        w.on_kernel(Ns::from_micros(100));
        w.on_user(Ns::from_micros(100));
        let cold = w.avg_cache_coldness();
        assert!(cold > 0.0 && cold <= 1.0, "coldness {cold}");
    }

    #[test]
    fn more_interruptions_mean_more_coldness() {
        // Same total kernel time, but spread as many small interruptions,
        // produces more integrated user-visible coldness than one lump at
        // the start followed by a long recovery.
        let mut lumped = WarmthModel::new_warm();
        lumped.on_kernel(Ns::from_micros(50));
        for _ in 0..10 {
            lumped.on_user(Ns::from_micros(100));
        }

        let mut spread = WarmthModel::new_warm();
        for _ in 0..10 {
            spread.on_kernel(Ns::from_micros(5));
            spread.on_user(Ns::from_micros(100));
        }
        assert!(
            spread.avg_cache_coldness() > lumped.avg_cache_coldness() * 0.9,
            "spread {} vs lumped {}",
            spread.avg_cache_coldness(),
            lumped.avg_cache_coldness()
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// The warmth formulas with one `exp` per structure per call: the
    /// oracle the fused paths must match bit for bit.
    #[derive(Debug, Clone, Copy)]
    struct Unfused {
        cache: f64,
        branch: f64,
        cache_params: PollutionParams,
        branch_params: PollutionParams,
    }

    impl Unfused {
        fn exp_of(dur: Ns, tau: Ns) -> f64 {
            (-(dur.as_nanos() as f64) / tau.as_nanos() as f64).exp()
        }

        fn on_kernel(&mut self, dur: Ns) {
            let decay = |w: f64, tau: Ns| {
                if tau == Ns::ZERO {
                    0.0
                } else {
                    w * Self::exp_of(dur, tau)
                }
            };
            self.cache = decay(self.cache, self.cache_params.kernel_decay_tau);
            self.branch = decay(self.branch, self.branch_params.kernel_decay_tau);
        }

        /// Returns the slowdown of `dur` and refills across it.
        fn on_user(&mut self, dur: Ns, cache_sens: f64, branch_sens: f64) -> f64 {
            let d = dur.as_nanos() as f64;
            let avg_cold = |w0: f64, tau: Ns| {
                if d == 0.0 {
                    1.0 - w0
                } else if tau == Ns::ZERO {
                    0.0
                } else {
                    let t = tau.as_nanos() as f64;
                    (1.0 - w0) * (t / d) * (1.0 - (-d / t).exp())
                }
            };
            let slowdown = 1.0
                + cache_sens * avg_cold(self.cache, self.cache_params.user_refill_tau)
                + branch_sens * avg_cold(self.branch, self.branch_params.user_refill_tau);
            let refill = |w: f64, tau: Ns| {
                if tau == Ns::ZERO {
                    1.0
                } else {
                    1.0 - (1.0 - w) * Self::exp_of(dur, tau)
                }
            };
            self.cache = refill(self.cache, self.cache_params.user_refill_tau);
            self.branch = refill(self.branch, self.branch_params.user_refill_tau);
            slowdown
        }
    }

    /// Time constants for one case: `shape` 0 gives both structures the
    /// same constants (as the module-L2 model has), 1 distinct ones, 2 a
    /// zero cache pair and 3 all four zero.
    fn params(shape: u8, taus: (u64, u64, u64, u64)) -> (PollutionParams, PollutionParams) {
        let pair = |kernel: u64, user: u64| PollutionParams {
            kernel_decay_tau: Ns::from_nanos(kernel),
            user_refill_tau: Ns::from_nanos(user),
        };
        let (cache, branch) = (pair(taus.0, taus.1), pair(taus.2, taus.3));
        match shape {
            0 => (cache, cache),
            1 => (cache, branch),
            2 => (pair(0, 0), branch),
            _ => (pair(0, 0), pair(0, 0)),
        }
    }

    /// Zero, a handler-like length, or anything up to 200 µs.
    fn duration(pick: u8, ns: u64) -> Ns {
        match pick {
            0 => Ns::ZERO,
            1 => Ns::from_nanos([900, 1_500, 3_000][ns as usize % 3]),
            _ => Ns::from_nanos(ns),
        }
    }

    fn bits(w: &WarmthModel) -> [u64; 4] {
        [
            w.cache_warmth().to_bits(),
            w.branch_warmth().to_bits(),
            w.avg_cache_coldness().to_bits(),
            w.avg_branch_coldness().to_bits(),
        ]
    }

    proptest! {
        /// `run_user` is `user_slowdown` then `on_user`, bit for bit, in
        /// the slowdown it returns and the state it leaves, and every
        /// path, shared factors included, agrees with the unfused
        /// formulas.
        #[test]
        fn fused_paths_are_bit_identical(
            shape_taus in (0u8..4, (1u64..60_000, 1u64..60_000, 1u64..60_000, 1u64..60_000)),
            sens in (0.0f64..1.0, 0.0f64..1.0),
            steps in proptest::collection::vec((0u8..3, 0u8..4, 0u64..200_000), 1..120),
        ) {
            let (cache_params, branch_params) = params(shape_taus.0, shape_taus.1);
            let mut fused = WarmthModel::with_params(cache_params, branch_params);
            let mut split = fused.clone();
            let mut oracle = Unfused { cache: 1.0, branch: 1.0, cache_params, branch_params };
            for (kind, pick, ns) in steps {
                let dur = duration(pick, ns);
                match kind {
                    0 => {
                        fused.on_kernel(dur);
                        split.on_kernel(dur);
                        oracle.on_kernel(dur);
                    }
                    1 => {
                        let got = fused.run_user(dur, sens.0, sens.1);
                        let want = split.user_slowdown(dur, sens.0, sens.1);
                        split.on_user(dur);
                        let slow = oracle.on_user(dur, sens.0, sens.1);
                        prop_assert_eq!(got.to_bits(), want.to_bits());
                        prop_assert_eq!(got.to_bits(), slow.to_bits());
                    }
                    _ => {
                        fused.on_flush();
                        split.on_flush();
                        oracle.cache = 0.0;
                        oracle.branch = 0.0;
                    }
                }
                prop_assert_eq!(bits(&fused), bits(&split));
                prop_assert_eq!(fused.cache_warmth().to_bits(), oracle.cache.to_bits());
                prop_assert_eq!(fused.branch_warmth().to_bits(), oracle.branch.to_bits());
            }
        }

        /// Warmth stays within [0, 1] under any interleaving of kernel,
        /// user, and flush episodes.
        #[test]
        fn warmth_bounded(
            steps in proptest::collection::vec((0u8..3, 0u64..100_000), 1..200)
        ) {
            let mut w = WarmthModel::new_warm();
            for (kind, ns) in steps {
                match kind {
                    0 => w.on_kernel(Ns::from_nanos(ns)),
                    1 => w.on_user(Ns::from_nanos(ns)),
                    _ => w.on_flush(),
                }
                prop_assert!((0.0..=1.0).contains(&w.cache_warmth()));
                prop_assert!((0.0..=1.0).contains(&w.branch_warmth()));
                prop_assert!((0.0..=1.0).contains(&w.avg_cache_coldness()));
            }
        }

        /// Slowdown is always >= 1 and monotone in sensitivity.
        #[test]
        fn slowdown_sane(
            kernel_us in 0u64..100,
            dur_us in 1u64..1000,
            sens in 0.0f64..1.0,
        ) {
            let mut w = WarmthModel::new_warm();
            w.on_kernel(Ns::from_micros(kernel_us));
            let s0 = w.user_slowdown(Ns::from_micros(dur_us), sens, 0.0);
            let s1 = w.user_slowdown(Ns::from_micros(dur_us), sens + 0.5, 0.0);
            prop_assert!(s0 >= 1.0 - 1e-12);
            prop_assert!(s1 >= s0 - 1e-12);
        }

        /// Kernel decay then long user refill returns warmth close to 1.
        #[test]
        fn refill_converges(kernel_us in 0u64..1000) {
            let mut w = WarmthModel::new_warm();
            w.on_kernel(Ns::from_micros(kernel_us));
            w.on_user(Ns::from_millis(10));
            prop_assert!(w.cache_warmth() > 0.999);
            prop_assert!(w.branch_warmth() > 0.999);
        }
    }
}
