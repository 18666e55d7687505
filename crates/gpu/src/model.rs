//! The GPU execution state machine.

use hiss_mem::{PageId, PageTable};
use hiss_sim::{DeviceStats, Ns, Rng};

use crate::request::{SsrId, SsrProfile, SsrRequest};

/// Static GPU parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GpuParams {
    /// Number of compute units (A10-7850K GCN 1.1: 8).
    pub cu_count: usize,
    /// Engine clock in MHz (A10-7850K: 720).
    pub freq_mhz: u64,
    /// Hardware limit on outstanding SSRs — the state table for in-flight
    /// peripheral page requests. Reaching it stalls the GPU (paper §VI).
    pub max_outstanding: usize,
}

impl GpuParams {
    /// The integrated GCN 1.1 GPU of the paper's A10-7850K testbed.
    pub fn gcn11_a10() -> Self {
        GpuParams {
            cu_count: 8,
            freq_mhz: 720,
            max_outstanding: 64,
        }
    }
}

impl Default for GpuParams {
    fn default() -> Self {
        Self::gcn11_a10()
    }
}

/// The GPU's next self-scheduled event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuEventKind {
    /// The GPU will raise an SSR at the reported time.
    RaiseSsr,
    /// The GPU kernel will finish at the reported time.
    Finish,
}

/// Execution state: what the GPU is doing *right now*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunState {
    /// Making forward progress.
    Running,
    /// Stalled: a blocking SSR is outstanding, or the outstanding-SSR
    /// limit is reached.
    Stalled,
    /// All work complete.
    Finished,
}

/// A GPU executing one kernel while generating SSRs.
///
/// Work and progress are measured in nanoseconds of full-speed execution;
/// the SoC composes wall-clock behaviour from the state machine.
///
/// # Example
///
/// ```
/// use hiss_gpu::{Gpu, GpuParams, GpuEventKind, SsrKind, SsrProfile};
/// use hiss_sim::{Ns, Rng};
///
/// let profile = SsrProfile {
///     mean_gap: Ns::from_micros(100),
///     active_fraction: 1.0,
///     blocking_prob: 1.0, // every fault stalls the kernel
///     jitter: 0.0,
///     burst_prob: 0.0,
///     kind: SsrKind::SoftPageFault,
///     page_stride: 1,
/// };
/// let mut gpu = Gpu::new(0, GpuParams::default(), profile,
///                        Ns::from_millis(1), Rng::new(1));
/// let (t, kind) = gpu.next_event(Ns::ZERO).expect("gpu is runnable");
/// assert_eq!(kind, GpuEventKind::RaiseSsr);
/// gpu.advance_to(t);
/// let ssr = gpu.raise_ssr(t).expect("due");
/// assert!(gpu.next_event(t).is_none()); // blocked until the SSR is served
/// gpu.on_ssr_complete(ssr.id, t + Ns::from_micros(50));
/// assert!(gpu.next_event(t + Ns::from_micros(50)).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct Gpu {
    index: usize,
    params: GpuParams,
    profile: SsrProfile,
    total_work: Ns,
    progress: Ns,
    state: RunState,
    /// Time of the last `advance_to` call; progress/stall accrues from here.
    last_advanced: Ns,
    /// Progress point at which the next SSR fires.
    next_ssr_at_progress: Ns,
    /// Outstanding (raised, unserved) SSR ids; blocking ones noted.
    outstanding: Vec<(SsrId, bool)>,
    page_table: PageTable,
    next_ssr_id: u64,
    next_page: u64,
    generation: u64,
    stats: DeviceStats,
    rng: Rng,
}

impl Gpu {
    /// Creates a GPU about to start a kernel of `total_work` full-speed
    /// execution time, generating SSRs per `profile`.
    ///
    /// # Panics
    ///
    /// Panics if `params.max_outstanding` is zero.
    pub fn new(
        index: usize,
        params: GpuParams,
        profile: SsrProfile,
        total_work: Ns,
        rng: Rng,
    ) -> Self {
        Self::new_at(index, params, profile, total_work, rng, Ns::ZERO, 0)
    }

    /// Creates a GPU whose kernel launches at absolute time `start` (for
    /// back-to-back kernel relaunches mid-simulation) with a generation
    /// counter starting at `generation` (so stale events scheduled
    /// against a previous kernel cannot alias).
    ///
    /// # Panics
    ///
    /// Panics if `params.max_outstanding` is zero.
    pub fn new_at(
        index: usize,
        params: GpuParams,
        profile: SsrProfile,
        total_work: Ns,
        mut rng: Rng,
        start: Ns,
        generation: u64,
    ) -> Self {
        assert!(params.max_outstanding > 0, "max_outstanding must be > 0");
        let first_gap = if profile.is_active() {
            rng.gen_jitter(profile.mean_gap, profile.jitter)
        } else {
            Ns::MAX
        };
        Gpu {
            index,
            params,
            profile,
            total_work,
            progress: Ns::ZERO,
            state: RunState::Running,
            last_advanced: start,
            next_ssr_at_progress: first_gap,
            outstanding: Vec::new(),
            page_table: PageTable::new(),
            next_ssr_id: 0,
            next_page: 0,
            generation,
            stats: DeviceStats::default(),
            rng,
        }
    }

    /// Relaunches the same kernel back-to-back at time `now`: progress and
    /// statistics reset, but the SSR-id and page-id spaces and the
    /// generation counter continue, so completions and events belonging
    /// to the previous launch cannot alias into this one.
    pub fn relaunch(&self, mut rng: Rng, now: Ns) -> Gpu {
        let first_gap = if self.profile.is_active() {
            rng.gen_jitter(self.profile.mean_gap, self.profile.jitter)
        } else {
            Ns::MAX
        };
        Gpu {
            index: self.index,
            params: self.params,
            profile: self.profile,
            total_work: self.total_work,
            progress: Ns::ZERO,
            state: RunState::Running,
            last_advanced: now,
            next_ssr_at_progress: first_gap,
            outstanding: Vec::new(),
            page_table: PageTable::new(),
            next_ssr_id: self.next_ssr_id,
            next_page: self.next_page,
            generation: self.generation + 1,
            stats: DeviceStats::default(),
            rng,
        }
    }

    /// This GPU's index within the SoC.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Static parameters.
    pub fn params(&self) -> GpuParams {
        self.params
    }

    /// Statistics so far.
    pub fn stats(&self) -> DeviceStats {
        self.stats
    }

    /// Fraction of the kernel completed, in `[0, 1]`.
    pub fn progress_fraction(&self) -> f64 {
        self.progress.fraction_of(self.total_work)
    }

    /// `true` once the kernel has completed.
    pub fn is_finished(&self) -> bool {
        self.state == RunState::Finished
    }

    /// `true` while the GPU cannot make progress.
    pub fn is_stalled(&self) -> bool {
        self.state == RunState::Stalled
    }

    /// Number of raised-but-unserved SSRs.
    pub fn outstanding_ssrs(&self) -> usize {
        self.outstanding.len()
    }

    /// Monotonic counter bumped on every asynchronous state change; the
    /// event loop stamps scheduled GPU events with it and drops stale ones.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Whether the SSR-generating phase is still ahead of (or at) the
    /// current progress point.
    fn in_active_phase(&self, at_progress: Ns) -> bool {
        self.profile.is_active()
            && at_progress < self.total_work.scale(self.profile.active_fraction)
    }

    /// Returns the next self-event `(time, kind)` given the GPU is at
    /// `now`, or `None` if the GPU is stalled or finished (it will wake
    /// only via [`Gpu::on_ssr_complete`]).
    pub fn next_event(&self, now: Ns) -> Option<(Ns, GpuEventKind)> {
        if self.state != RunState::Running {
            return None;
        }
        debug_assert!(now >= self.last_advanced);
        let remaining_work = self.total_work - self.progress;
        let finish_at = now + remaining_work;
        if self.in_active_phase(self.next_ssr_at_progress)
            && self.next_ssr_at_progress < self.total_work
        {
            let ssr_at = now + (self.next_ssr_at_progress - self.progress);
            if ssr_at <= finish_at {
                return Some((ssr_at, GpuEventKind::RaiseSsr));
            }
        }
        Some((finish_at, GpuEventKind::Finish))
    }

    /// Advances internal accounting to time `t`: running time becomes
    /// progress, stalled time becomes stall statistics.
    pub fn advance_to(&mut self, t: Ns) {
        if t <= self.last_advanced {
            return;
        }
        let dur = t - self.last_advanced;
        match self.state {
            RunState::Running => {
                let usable = dur.min(self.total_work - self.progress);
                self.progress += usable;
                self.stats.busy += usable;
                if self.progress >= self.total_work {
                    self.state = RunState::Finished;
                    self.generation += 1;
                    if self.stats.finished_at.is_none() {
                        self.stats.finished_at = Some(self.last_advanced + usable);
                    }
                }
            }
            RunState::Stalled => {
                self.stats.stalled += dur;
            }
            RunState::Finished => {}
        }
        self.last_advanced = t;
    }

    /// Raises the SSR that is due at the current progress point. Returns
    /// `None` if no SSR is actually due (the event was stale).
    ///
    /// Callers must have called [`Gpu::advance_to`] first so that progress
    /// reflects time `now`.
    pub fn raise_ssr(&mut self, now: Ns) -> Option<SsrRequest> {
        if self.state != RunState::Running || self.progress < self.next_ssr_at_progress {
            return None;
        }
        let id = SsrId(self.next_ssr_id);
        self.next_ssr_id += 1;
        let page = PageId(self.next_page);
        self.next_page += self.profile.page_stride.max(1);
        self.page_table.touch(page);
        let blocking = self.rng.gen_bool(self.profile.blocking_prob);
        self.outstanding.push((id, blocking));
        self.stats.ssrs_raised += 1;

        // Schedule the next SSR point in progress space; with probability
        // `burst_prob` the next fault follows almost immediately
        // (wavefront-burst behaviour).
        let gap = if self.rng.gen_bool(self.profile.burst_prob) {
            self.rng
                .gen_jitter(self.profile.mean_gap / 20, self.profile.jitter)
        } else {
            self.rng
                .gen_jitter(self.profile.mean_gap, self.profile.jitter)
        };
        self.next_ssr_at_progress = self.progress.saturating_add(gap);

        // Stall if this SSR blocks or the hardware limit is reached.
        if blocking || self.outstanding.len() >= self.params.max_outstanding {
            self.state = RunState::Stalled;
            self.generation += 1;
        }

        Some(SsrRequest {
            id,
            gpu: self.index,
            kind: self.profile.kind,
            page: Some(page),
            raised_at: now,
            blocking,
        })
    }

    /// Delivers an SSR completion. Unstalls the GPU if nothing blocking
    /// remains and the outstanding count dropped below the limit. The
    /// caller must reschedule GPU events afterwards (generation changes).
    pub fn on_ssr_complete(&mut self, id: SsrId, now: Ns) {
        self.advance_to(now);
        let before = self.outstanding.len();
        self.outstanding.retain(|(oid, _)| *oid != id);
        if self.outstanding.len() == before {
            return; // unknown/duplicate completion: ignore
        }
        self.stats.ssrs_completed += 1;
        if self.state == RunState::Stalled {
            let any_blocking = self.outstanding.iter().any(|(_, b)| *b);
            if !any_blocking && self.outstanding.len() < self.params.max_outstanding {
                self.state = RunState::Running;
                self.generation += 1;
            }
        }
    }

    /// The page-residency table shared with the fault handler.
    pub fn page_table_mut(&mut self) -> &mut PageTable {
        &mut self.page_table
    }
}

impl hiss_sim::NextTick for Gpu {
    /// Self-scheduling view of [`Gpu::next_event`]: the time of the next
    /// SSR raise or kernel finish, or `None` while the GPU is stalled or
    /// finished (it wakes only via [`Gpu::on_ssr_complete`]).
    fn next_tick(&self, now: Ns) -> Option<Ns> {
        self.next_event(now).map(|(t, _kind)| t)
    }
}

impl hiss_sim::Device for Gpu {
    type Request = SsrRequest;
    type Completion = SsrId;

    fn id(&self) -> usize {
        self.index
    }

    fn kind(&self) -> &'static str {
        "gpu"
    }

    fn generation(&self) -> u64 {
        self.generation
    }

    fn advance_to(&mut self, t: Ns) {
        Gpu::advance_to(self, t);
    }

    fn raise(&mut self, now: Ns) -> Option<SsrRequest> {
        self.raise_ssr(now)
    }

    fn complete(&mut self, token: SsrId, now: Ns) {
        self.on_ssr_complete(token, now);
    }

    fn is_finished(&self) -> bool {
        Gpu::is_finished(self)
    }

    fn is_stalled(&self) -> bool {
        Gpu::is_stalled(self)
    }

    fn stats(&self) -> DeviceStats {
        Gpu::stats(self)
    }

    fn restart(&mut self, rng: Rng, now: Ns) {
        *self = self.relaunch(rng, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::SsrKind;

    fn profile(gap_us: u64, blocking: f64) -> SsrProfile {
        SsrProfile {
            mean_gap: Ns::from_micros(gap_us),
            active_fraction: 1.0,
            blocking_prob: blocking,
            jitter: 0.0,
            burst_prob: 0.0,
            kind: SsrKind::SoftPageFault,
            page_stride: 1,
        }
    }

    fn gpu(gap_us: u64, blocking: f64, work_ms: u64) -> Gpu {
        Gpu::new(
            0,
            GpuParams::default(),
            profile(gap_us, blocking),
            Ns::from_millis(work_ms),
            Rng::new(42),
        )
    }

    #[test]
    fn silent_gpu_finishes_in_exactly_total_work() {
        let mut g = Gpu::new(
            0,
            GpuParams::default(),
            SsrProfile::silent(),
            Ns::from_millis(5),
            Rng::new(1),
        );
        let (t, kind) = g.next_event(Ns::ZERO).unwrap();
        assert_eq!(kind, GpuEventKind::Finish);
        assert_eq!(t, Ns::from_millis(5));
        g.advance_to(t);
        assert!(g.is_finished());
        assert_eq!(g.stats().finished_at, Some(Ns::from_millis(5)));
        assert_eq!(g.stats().ssrs_raised, 0);
    }

    #[test]
    fn ssr_fires_before_finish() {
        let g = gpu(100, 0.0, 1);
        let (t, kind) = g.next_event(Ns::ZERO).unwrap();
        assert_eq!(kind, GpuEventKind::RaiseSsr);
        assert_eq!(t, Ns::from_micros(100));
    }

    #[test]
    fn blocking_ssr_stalls_until_completion() {
        let mut g = gpu(100, 1.0, 1);
        let (t, _) = g.next_event(Ns::ZERO).unwrap();
        g.advance_to(t);
        let req = g.raise_ssr(t).expect("ssr due");
        assert!(req.blocking);
        assert!(g.is_stalled());
        assert!(g.next_event(t).is_none());

        // Stall time accrues while blocked.
        let later = t + Ns::from_micros(30);
        g.advance_to(later);
        assert_eq!(g.stats().stalled, Ns::from_micros(30));

        g.on_ssr_complete(req.id, later);
        assert!(!g.is_stalled());
        assert!(g.next_event(later).is_some());
    }

    #[test]
    fn nonblocking_ssrs_do_not_stall_until_limit() {
        let params = GpuParams {
            max_outstanding: 3,
            ..GpuParams::default()
        };
        let mut g = Gpu::new(
            0,
            params,
            profile(10, 0.0),
            Ns::from_millis(10),
            Rng::new(7),
        );
        let mut now = Ns::ZERO;
        let mut raised = Vec::new();
        for i in 0..3 {
            let (t, kind) = g.next_event(now).expect("runnable");
            assert_eq!(kind, GpuEventKind::RaiseSsr, "iteration {i}");
            g.advance_to(t);
            raised.push(g.raise_ssr(t).unwrap());
            now = t;
        }
        // Limit hit: stalled even though nothing is blocking.
        assert!(g.is_stalled());
        assert_eq!(g.outstanding_ssrs(), 3);
        g.on_ssr_complete(raised[0].id, now + Ns::from_micros(5));
        assert!(!g.is_stalled());
        assert_eq!(g.outstanding_ssrs(), 2);
    }

    #[test]
    fn active_fraction_clusters_ssrs_early() {
        let prof = SsrProfile {
            mean_gap: Ns::from_micros(10),
            active_fraction: 0.2,
            blocking_prob: 0.0,
            jitter: 0.0,
            burst_prob: 0.0,
            kind: SsrKind::SoftPageFault,
            page_stride: 1,
        };
        let mut g = Gpu::new(
            0,
            GpuParams::default(),
            prof,
            Ns::from_millis(1),
            Rng::new(3),
        );
        let mut now = Ns::ZERO;
        let mut ssr_times = Vec::new();
        loop {
            match g.next_event(now) {
                Some((t, GpuEventKind::RaiseSsr)) => {
                    g.advance_to(t);
                    let req = g.raise_ssr(t).unwrap();
                    g.on_ssr_complete(req.id, t); // serve instantly
                    ssr_times.push(t);
                    now = t;
                }
                Some((t, GpuEventKind::Finish)) => {
                    g.advance_to(t);
                    break;
                }
                None => panic!("gpu unexpectedly stalled"),
            }
        }
        assert!(!ssr_times.is_empty());
        // All SSRs land in the first ~20% of the (unstalled) execution.
        let last = *ssr_times.last().unwrap();
        assert!(
            last <= Ns::from_micros(210),
            "last SSR at {last}, expected within first fifth"
        );
        // Roughly total_work * active_fraction / gap faults.
        let expected = 1000.0 * 0.2 / 10.0;
        let got = ssr_times.len() as f64;
        assert!((got - expected).abs() / expected < 0.2, "got {got} SSRs");
    }

    #[test]
    fn generation_bumps_on_stall_and_unstall() {
        let mut g = gpu(50, 1.0, 1);
        let g0 = g.generation();
        let (t, _) = g.next_event(Ns::ZERO).unwrap();
        g.advance_to(t);
        let req = g.raise_ssr(t).unwrap();
        assert!(g.generation() > g0);
        let g1 = g.generation();
        g.on_ssr_complete(req.id, t + Ns::from_micros(1));
        assert!(g.generation() > g1);
    }

    #[test]
    fn duplicate_completion_is_ignored() {
        let mut g = gpu(50, 1.0, 1);
        let (t, _) = g.next_event(Ns::ZERO).unwrap();
        g.advance_to(t);
        let req = g.raise_ssr(t).unwrap();
        g.on_ssr_complete(req.id, t);
        let stats = g.stats();
        g.on_ssr_complete(req.id, t);
        assert_eq!(g.stats().ssrs_completed, stats.ssrs_completed);
    }

    #[test]
    fn stale_raise_returns_none() {
        let mut g = gpu(100, 0.0, 1);
        // Do not advance: progress is 0, SSR due at progress 100µs.
        assert!(g.raise_ssr(Ns::ZERO).is_none());
    }

    #[test]
    fn busy_plus_stall_accounts_wall_time() {
        let mut g = gpu(100, 1.0, 1);
        let mut now = Ns::ZERO;
        for _ in 0..5 {
            let (t, kind) = match g.next_event(now) {
                Some(e) => e,
                None => break,
            };
            g.advance_to(t);
            now = t;
            match kind {
                GpuEventKind::RaiseSsr => {
                    let req = g.raise_ssr(t).unwrap();
                    // Service takes 20µs.
                    let done = t + Ns::from_micros(20);
                    g.advance_to(done);
                    g.on_ssr_complete(req.id, done);
                    now = done;
                }
                GpuEventKind::Finish => break,
            }
        }
        let s = g.stats();
        assert_eq!(s.busy + s.stalled, now);
    }

    #[test]
    #[should_panic(expected = "max_outstanding")]
    fn zero_outstanding_limit_rejected() {
        let params = GpuParams {
            max_outstanding: 0,
            ..GpuParams::default()
        };
        Gpu::new(
            0,
            params,
            SsrProfile::silent(),
            Ns::from_millis(1),
            Rng::new(1),
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::{Gpu, GpuEventKind, GpuParams};
    use crate::request::{SsrId, SsrKind, SsrProfile};
    use hiss_sim::{DeviceStats, Ns, Rng as SimRng};
    use proptest::prelude::*;

    /// Drives a GPU to completion with a fixed service latency, checking
    /// invariants at every step.
    fn drive(mut g: Gpu, service_us: u64) -> DeviceStats {
        let mut now = Ns::ZERO;
        let mut pending: Vec<(Ns, SsrId)> = Vec::new();
        let mut steps = 0;
        loop {
            steps += 1;
            assert!(steps < 500_000, "simulation did not terminate");
            // Deliver any completions due before the next GPU event.
            let next_gpu = g.next_event(now);
            let next_completion = pending.iter().map(|(t, _)| *t).min();
            match (next_gpu, next_completion) {
                (None, None) => {
                    assert!(g.is_finished(), "deadlock: stalled with no completions");
                    break;
                }
                (Some((tg, kind)), nc) if nc.is_none_or(|tc| tg <= tc) => {
                    g.advance_to(tg);
                    now = tg;
                    match kind {
                        GpuEventKind::RaiseSsr => {
                            if let Some(req) = g.raise_ssr(tg) {
                                pending.push((tg + Ns::from_micros(service_us), req.id));
                            }
                        }
                        GpuEventKind::Finish => break,
                    }
                }
                (_, Some(tc)) => {
                    let idx = pending
                        .iter()
                        .position(|(t, _)| *t == tc)
                        .expect("completion exists");
                    let (t, id) = pending.swap_remove(idx);
                    g.advance_to(t);
                    now = t;
                    g.on_ssr_complete(id, t);
                }
                (Some(_), None) => unreachable!("guard covers this arm"),
            }
            assert!(g.outstanding_ssrs() <= g.params().max_outstanding);
        }
        g.stats()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any configuration eventually finishes, completes every raised
        /// SSR, and never exceeds the outstanding limit.
        #[test]
        fn always_terminates(
            seed in any::<u64>(),
            gap_us in 5u64..200,
            blocking in 0.0f64..1.0,
            service_us in 1u64..100,
            limit in 1usize..32,
        ) {
            let prof = SsrProfile {
                mean_gap: Ns::from_micros(gap_us),
                active_fraction: 1.0,
                blocking_prob: blocking,
                jitter: 0.3,
                burst_prob: 0.0,
                kind: SsrKind::SoftPageFault,
                page_stride: 1,
            };
            let params = GpuParams { max_outstanding: limit, ..GpuParams::default() };
            let g = Gpu::new(0, params, prof, Ns::from_micros(5_000), SimRng::new(seed));
            let stats = drive(g, service_us);
            prop_assert!(stats.finished_at.is_some());
            prop_assert_eq!(stats.busy, Ns::from_micros(5_000));
        }

        /// Slower service never makes the GPU finish earlier.
        #[test]
        fn slower_service_is_never_faster(seed in any::<u64>(), gap_us in 10u64..100) {
            let prof = SsrProfile {
                mean_gap: Ns::from_micros(gap_us),
                active_fraction: 1.0,
                blocking_prob: 1.0,
                jitter: 0.0,
                burst_prob: 0.0,
                kind: SsrKind::SoftPageFault,
                page_stride: 1,
            };
            let mk = || Gpu::new(0, GpuParams::default(), prof, Ns::from_micros(2_000), SimRng::new(seed));
            let fast = drive(mk(), 5);
            let slow = drive(mk(), 50);
            prop_assert!(slow.finished_at.unwrap() >= fast.finished_at.unwrap());
        }
    }
}
