//! A single CPU core: warmth-aware execution plus time accounting.
//!
//! [`Core`] is deliberately *passive* — the kernel scheduler (in
//! `hiss-kernel`) decides what runs when; the core turns "run user code
//! for this long" into work-progress (stretched by pollution) and ledger
//! entries. This keeps the core unit-testable without a scheduler.

use hiss_mem::{PollutionParams, WarmthModel};
use hiss_sim::Ns;

use crate::breakdown::{TimeBreakdown, TimeCategory};
use crate::cstate::{CStateMachine, CStateParams, IdleAccounting};

/// Index of a CPU core within the SoC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CoreId(pub usize);

impl std::fmt::Display for CoreId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

/// Static parameters of a CPU core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuParams {
    /// Core clock in GHz (A10-7850K: 3.7).
    pub freq_ghz: f64,
    /// One-way user↔kernel mode transition cost (the 'a' segments of
    /// Fig. 2); paid on entry *and* exit of every handler that lands on a
    /// core running user code.
    pub mode_switch: Ns,
    /// Idle-state machine parameters.
    pub cstate: CStateParams,
    /// L1D pollution time constants (ablation knob).
    pub cache_pollution: PollutionParams,
    /// Branch-predictor pollution time constants (ablation knob).
    pub branch_pollution: PollutionParams,
    /// Module-shared L2 pollution time constants: the A10-7850K's
    /// "Steamroller" cores come in 2-core modules sharing an L2 (and
    /// front end), so kernel noise on one core also costs its sibling.
    /// Refill is slow (the L2 is 2 MiB) and both siblings contribute to
    /// it, so the constant below is pre-halved (see `hiss::soc`).
    pub l2_pollution: PollutionParams,
}

impl Default for CpuParams {
    fn default() -> Self {
        CpuParams {
            freq_ghz: 3.7,
            mode_switch: Ns::from_nanos(450),
            cstate: CStateParams::default(),
            cache_pollution: PollutionParams::l1d_default(),
            branch_pollution: PollutionParams::branch_default(),
            l2_pollution: PollutionParams {
                // A 2 MiB L2 takes far longer to displace than an L1:
                // hundreds of µs of kernel streaming.
                kernel_decay_tau: Ns::from_micros(300),
                user_refill_tau: Ns::from_micros(400),
            },
        }
    }
}

/// One CPU core's mutable state.
///
/// # Example
///
/// ```
/// use hiss_cpu::{Core, CoreId, CpuParams, TimeCategory};
/// use hiss_sim::Ns;
///
/// let mut core = Core::new(CoreId(0), CpuParams::default());
/// // Run user code for 10µs on a warm core: full progress.
/// let done = core.run_user(Ns::from_micros(10), 0.4, 0.2);
/// assert_eq!(done, Ns::from_micros(10));
/// // A kernel handler steals time and pollutes the µarch state…
/// core.run_kernel(Ns::from_micros(5), TimeCategory::Worker);
/// // …so the next user slice makes less progress than wall time.
/// let done = core.run_user(Ns::from_micros(10), 0.4, 0.2);
/// assert!(done < Ns::from_micros(10));
/// ```
#[derive(Debug, Clone)]
pub struct Core {
    id: CoreId,
    params: CpuParams,
    warmth: WarmthModel,
    cstate: CStateMachine,
    breakdown: TimeBreakdown,
}

impl Core {
    /// Creates a fresh, fully-warm core.
    pub fn new(id: CoreId, params: CpuParams) -> Self {
        Core {
            id,
            params,
            warmth: WarmthModel::with_params(params.cache_pollution, params.branch_pollution),
            cstate: CStateMachine::new(params.cstate),
            breakdown: TimeBreakdown::new(),
        }
    }

    /// This core's identifier.
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// Static parameters.
    pub fn params(&self) -> &CpuParams {
        &self.params
    }

    /// The time ledger accumulated so far.
    pub fn breakdown(&self) -> &TimeBreakdown {
        &self.breakdown
    }

    /// Current microarchitectural warmth (for tests and reports).
    pub fn warmth(&self) -> &WarmthModel {
        &self.warmth
    }

    /// Number of CC6 entries so far.
    pub fn cc6_entries(&self) -> u64 {
        self.cstate.cc6_entries()
    }

    /// Runs user code for `wall` nanoseconds of wall-clock time and
    /// returns the amount of *effective work* completed (work is measured
    /// in nanoseconds-at-full-speed, so a warm core returns `wall`).
    ///
    /// `cache_sensitivity` / `branch_sensitivity` come from the workload
    /// catalog and bound the application's slowdown on a fully cold core.
    pub fn run_user(&mut self, wall: Ns, cache_sensitivity: f64, branch_sensitivity: f64) -> Ns {
        if wall == Ns::ZERO {
            return Ns::ZERO;
        }
        let slowdown = self
            .warmth
            .run_user(wall, cache_sensitivity, branch_sensitivity);
        self.breakdown.add(TimeCategory::User, wall);
        wall.scale(1.0 / slowdown)
    }

    /// Wall time needed to complete `work` of user work given current
    /// warmth (inverse of [`Core::run_user`], used by the scheduler to
    /// compute completion deadlines). Conservative: uses the slowdown of a
    /// stretch of length `work`, which is exact in the small-penalty limit.
    pub fn user_wall_time(&self, work: Ns, cache_sensitivity: f64, branch_sensitivity: f64) -> Ns {
        let slowdown = self
            .warmth
            .user_slowdown(work, cache_sensitivity, branch_sensitivity);
        work.scale(slowdown)
    }

    /// Runs kernel code for `dur`, attributed to `category`; pollutes the
    /// core's microarchitectural state.
    ///
    /// # Panics
    ///
    /// Panics if `category` is a non-kernel category — idle time must go
    /// through [`Core::account_idle`], user time through [`Core::run_user`].
    pub fn run_kernel(&mut self, dur: Ns, category: TimeCategory) {
        assert!(
            category.is_ssr_overhead()
                || category == TimeCategory::TopHalf
                || category == TimeCategory::OsTick,
            "run_kernel must be given a kernel-side category, got {category:?}"
        );
        self.warmth.on_kernel(dur);
        self.breakdown.add(category, dur);
    }

    /// Records the mode-switch cost of entering *and* leaving a kernel
    /// handler that interrupted user code (paid once per handler episode).
    pub fn pay_mode_switch(&mut self) -> Ns {
        let cost = self.params.mode_switch * 2;
        self.warmth.on_kernel(cost);
        self.breakdown.add(TimeCategory::ModeSwitch, cost);
        cost
    }

    /// Bills an idle gap that ended at a wake event; updates the ledger
    /// and flushes warmth if CC6 was entered.
    ///
    /// Exactly `gap` is billed (`shallow + cc6 + transition`). The CC6
    /// exit latency is *not* billed here: callers delay the waking event
    /// by `wake_penalty` instead, so the exit window ends up inside the
    /// next observed gap-to-start interval. The returned accounting
    /// reports the penalty for that purpose.
    pub fn account_idle(&mut self, gap: Ns) -> IdleAccounting {
        let acc = self.cstate.account_idle(gap);
        self.breakdown.add(TimeCategory::IdleShallow, acc.shallow);
        self.breakdown.add(TimeCategory::SleepCc6, acc.cc6);
        self.breakdown
            .add(TimeCategory::CStateTransition, acc.transition);
        if acc.flushed {
            self.warmth.on_flush();
        }
        acc
    }

    /// Predicted CC6 exit latency if a wake arrived after `gap` of
    /// idleness: zero when the gap is too short to have entered CC6.
    /// Used by the kernel host interface to delay handlers on sleeping
    /// cores without mutating state.
    pub fn predicted_wake_penalty(&self, gap: Ns) -> Ns {
        let p = self.params.cstate;
        if gap <= p.entry_threshold + p.entry_latency {
            Ns::ZERO
        } else {
            p.exit_latency
        }
    }

    /// Bills kernel-side time split into a mode-switch prefix and the
    /// handler body: the first `min(mode_switch × 2, dur / 3)` of the
    /// interval is attributed to [`TimeCategory::ModeSwitch`] (the 'a'
    /// segments of Fig. 2), the rest to `category`.
    pub fn run_kernel_with_switch(&mut self, dur: Ns, category: TimeCategory) {
        let switch = (self.params.mode_switch * 2).min(dur / 3);
        self.warmth.on_kernel(dur);
        self.breakdown.add(TimeCategory::ModeSwitch, switch);
        self.breakdown.add(category, dur - switch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core() -> Core {
        Core::new(CoreId(0), CpuParams::default())
    }

    #[test]
    fn warm_core_runs_at_full_speed() {
        let mut c = core();
        let done = c.run_user(Ns::from_micros(100), 0.5, 0.3);
        assert_eq!(done, Ns::from_micros(100));
    }

    #[test]
    fn kernel_time_slows_subsequent_user_work() {
        let mut c = core();
        c.run_kernel(Ns::from_micros(20), TimeCategory::Worker);
        let done = c.run_user(Ns::from_micros(10), 0.5, 0.3);
        assert!(done < Ns::from_micros(10), "done {done}");
        assert!(
            done > Ns::from_micros(5),
            "pollution unreasonably strong: {done}"
        );
    }

    #[test]
    fn insensitive_app_ignores_pollution() {
        let mut c = core();
        c.run_kernel(Ns::from_micros(20), TimeCategory::Worker);
        let done = c.run_user(Ns::from_micros(10), 0.0, 0.0);
        assert_eq!(done, Ns::from_micros(10));
    }

    #[test]
    fn wall_time_is_inverse_of_progress() {
        let mut c = core();
        c.run_kernel(Ns::from_micros(10), TimeCategory::BottomHalf);
        let work = Ns::from_micros(50);
        let wall = c.user_wall_time(work, 0.4, 0.2);
        assert!(wall > work);
        // Executing for that wall time recovers at least ~the work amount
        // (exactly equal in the constant-slowdown approximation).
        let done = c.run_user(wall, 0.4, 0.2);
        let ratio = done.as_nanos() as f64 / work.as_nanos() as f64;
        assert!((ratio - 1.0).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn mode_switch_costs_twice_the_oneway_latency() {
        let mut c = core();
        let cost = c.pay_mode_switch();
        assert_eq!(cost, Ns::from_nanos(900));
        assert_eq!(c.breakdown().get(TimeCategory::ModeSwitch), cost);
    }

    #[test]
    fn cc6_flushes_warmth() {
        let mut c = core();
        let acc = c.account_idle(Ns::from_millis(10));
        assert!(acc.flushed);
        assert_eq!(c.warmth().cache_warmth(), 0.0);
        assert!(c.breakdown().cc6_residency() > 0.9);
        assert_eq!(c.cc6_entries(), 1);
    }

    #[test]
    fn short_idle_keeps_warmth() {
        let mut c = core();
        let acc = c.account_idle(Ns::from_micros(50));
        assert!(!acc.flushed);
        assert_eq!(c.warmth().cache_warmth(), 1.0);
        assert_eq!(
            c.breakdown().get(TimeCategory::IdleShallow),
            Ns::from_micros(50)
        );
    }

    #[test]
    #[should_panic(expected = "kernel-side category")]
    fn run_kernel_rejects_user_category() {
        core().run_kernel(Ns::from_micros(1), TimeCategory::User);
    }

    #[test]
    fn ledger_accumulates_all_activity() {
        let mut c = core();
        c.run_user(Ns::from_micros(10), 0.2, 0.1);
        c.run_kernel(Ns::from_micros(2), TimeCategory::TopHalf);
        c.pay_mode_switch();
        c.account_idle(Ns::from_micros(5));
        let total = c.breakdown().total();
        assert_eq!(
            total,
            Ns::from_micros(10) + Ns::from_micros(2) + Ns::from_nanos(900) + Ns::from_micros(5)
        );
    }

    #[test]
    fn zero_duration_user_run_is_noop() {
        let mut c = core();
        assert_eq!(c.run_user(Ns::ZERO, 0.5, 0.5), Ns::ZERO);
        assert_eq!(c.breakdown().total(), Ns::ZERO);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// User progress never exceeds wall time and is positive for
        /// positive wall time.
        #[test]
        fn progress_bounded_by_wall(
            kernel_us in 0u64..200,
            wall_us in 1u64..1000,
            cs in 0.0f64..1.0,
            bs in 0.0f64..1.0,
        ) {
            let mut c = Core::new(CoreId(0), CpuParams::default());
            c.run_kernel(Ns::from_micros(kernel_us), TimeCategory::Worker);
            let wall = Ns::from_micros(wall_us);
            let done = c.run_user(wall, cs, bs);
            prop_assert!(done <= wall);
            prop_assert!(done > Ns::ZERO);
        }

        /// The ledger total equals the sum of everything billed.
        #[test]
        fn ledger_conservation(
            episodes in proptest::collection::vec((0u8..4, 1u64..1000), 1..100)
        ) {
            let mut c = Core::new(CoreId(0), CpuParams::default());
            let mut expected = Ns::ZERO;
            for (kind, us) in episodes {
                let d = Ns::from_micros(us);
                match kind {
                    0 => { c.run_user(d, 0.3, 0.1); expected += d; }
                    1 => { c.run_kernel(d, TimeCategory::Worker); expected += d; }
                    2 => { expected += c.pay_mode_switch(); }
                    _ => {
                        let acc = c.account_idle(d);
                        expected += acc.idle_total();
                    }
                }
            }
            prop_assert_eq!(c.breakdown().total(), expected);
        }
    }
}
