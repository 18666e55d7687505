//! The simulated SoC: event loop composing CPU cores, SSR-raising devices
//! (GPUs, NICs, DMA engines), IOMMU, and the kernel substrate.
//!
//! # Architecture
//!
//! The SoC owns every component and drives them through a single
//! deterministic event calendar:
//!
//! - **Device self-events**: each attached [`Device`] (GPU, NIC, DMA
//!   engine) reports when it will next raise an SSR or finish its work
//!   item; a generation counter discards events that a stall/unstall made
//!   stale. The arming table dedups per `(time, generation)` so one live
//!   self-event chain exists per device.
//! - **IOMMU**: SSRs are logged; depending on the coalescing
//!   configuration the IOMMU raises an MSI immediately or arms a timer.
//! - **Kernel occupancy**: `hiss_kernel::Kernel` expands each interrupt
//!   into a cascade of core-occupancy intervals (top half → IPI → bottom
//!   half → worker) with absolute times; the SoC replays them as
//!   `OccupyStart`/`OccupyEnd` events, billing user preemption,
//!   mode-switch costs, idle/C-state gaps, and µarch pollution at the
//!   moment they happen.
//! - **User threads**: thread *i* of the CPU application is pinned to
//!   core *i* and executes whenever no kernel work occupies its core;
//!   its projected completion is re-estimated whenever pollution changes
//!   its speed.
//!
//! Wall-clock time on each core is fully attributed: user execution,
//! handler categories, mode switches, shallow idle, CC6 (entered only
//! after the governor threshold of uninterrupted idleness), and C-state
//! transitions.

use hiss_cpu::{Core, CoreId, TickTimer, TimeCategory};
use hiss_gpu::{Gpu, SsrId, SsrRequest};
use hiss_iommu::{Iommu, IommuDecision, PageWalker, WalkerConfig};
use hiss_kernel::{CoreHost, Kernel, KernelConfig, KernelOutput};
use hiss_mem::WarmthModel;
use hiss_qos::QosParams;
use hiss_sim::{Device, DeviceStats, EventQueue, NextTick, Ns, Rng};
use hiss_workloads::{CpuAppSpec, DeviceSpec, DmaDevice, GpuAppSpec, NicDevice};

use crate::config::{CriticalityConfig, Mitigation, MitigationConfig, SystemConfig};
use crate::energy::{EnergyParams, EnergyReport};
use crate::metrics::RunReport;
use crate::trace::Tracer;

/// One user thread of the CPU application, pinned to its core.
#[derive(Debug, Clone)]
struct UserThread {
    remaining: Ns,
    finished_at: Option<Ns>,
}

/// Per-criticality-class accounting, kept only when a
/// [`CriticalityConfig`] is active. Class 0 is critical, class 1 is
/// best-effort; a request's class is the class of the device that raised
/// it (the IOMMU's partition holds the device mask). Every counter here
/// splits an existing whole-run total, and the guarded `class_*_split`
/// conservation laws in `hiss_obs::invariants` hold the splits to their
/// totals.
#[derive(Debug)]
struct CritState {
    cfg: CriticalityConfig,
    requests: [u64; 2],
    drained: [u64; 2],
    interrupts: [u64; 2],
    serviced: [u64; 2],
    deferrals: [u64; 2],
    /// Raise-to-completion latency samples per class (exact, not a
    /// histogram: the per-class p99 feeds a pinned scenario band).
    latencies: [Vec<Ns>; 2],
}

impl CritState {
    fn new(cfg: CriticalityConfig) -> Self {
        CritState {
            cfg,
            requests: [0; 2],
            drained: [0; 2],
            interrupts: [0; 2],
            serviced: [0; 2],
            deferrals: [0; 2],
            latencies: [Vec::new(), Vec::new()],
        }
    }

    /// Whether `core` belongs to the reserved critical partition.
    fn core_reserved(&self, core: usize) -> bool {
        self.cfg.reserve && core < self.cfg.critical_cores
    }
}

/// Sorted-sample mean and nearest-rank p99, in microseconds.
fn latency_summary_us(samples: &mut [Ns]) -> (f64, f64) {
    if samples.is_empty() {
        return (0.0, 0.0);
    }
    samples.sort_unstable();
    let n = samples.len();
    let sum: u64 = samples.iter().map(|l| l.as_nanos()).sum();
    let mean = sum as f64 / n as f64 / 1_000.0;
    let idx = ((n as f64 * 0.99).ceil() as usize).clamp(1, n) - 1;
    (mean, samples[idx].as_nanos() as f64 / 1_000.0)
}

/// What a core is doing right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Activity {
    Idle { since: Ns },
    User { since: Ns },
    Kernel,
}

/// A concrete device model attached to the SoC. The enum gives the SoC
/// owned, `Debug`-friendly storage; the event loop drives every variant
/// through the [`Device`] trait object views below.
#[derive(Debug)]
enum DeviceModel {
    Gpu(Gpu),
    Nic(NicDevice),
    Dma(DmaDevice),
}

/// The trait-object view the SoC event loop works against.
type DynDevice = dyn Device<Request = SsrRequest, Completion = SsrId>;

impl DeviceModel {
    fn from_spec(index: usize, spec: &DeviceSpec, cfg: &SystemConfig, rng: Rng) -> DeviceModel {
        match spec {
            DeviceSpec::Gpu(app) => {
                DeviceModel::Gpu(Gpu::new(index, cfg.gpu, app.profile, app.total_work, rng))
            }
            DeviceSpec::Nic(p) => DeviceModel::Nic(NicDevice::new(index, *p, rng, Ns::ZERO)),
            DeviceSpec::Dma(p) => DeviceModel::Dma(DmaDevice::new(index, *p, rng, Ns::ZERO)),
        }
    }

    fn as_dyn(&self) -> &DynDevice {
        match self {
            DeviceModel::Gpu(g) => g,
            DeviceModel::Nic(n) => n,
            DeviceModel::Dma(d) => d,
        }
    }

    fn as_dyn_mut(&mut self) -> &mut DynDevice {
        match self {
            DeviceModel::Gpu(g) => g,
            DeviceModel::Nic(n) => n,
            DeviceModel::Dma(d) => d,
        }
    }
}

/// A device plus its workload bookkeeping (work items may loop).
#[derive(Debug)]
struct DeviceRun {
    dev: DeviceModel,
    looping: bool,
    iterations: u64,
    /// Busy/stall/SSR totals from *completed* iterations.
    done_busy: Ns,
    done_stalled: Ns,
    done_raised: u64,
    done_completed: u64,
    rng: Rng,
    /// Scratch for the per-iteration RNG fork label, reused across
    /// relaunches so looping work items don't allocate a fresh `String`
    /// every iteration.
    iter_label: String,
}

impl DeviceRun {
    fn is_gpu(&self) -> bool {
        matches!(self.dev, DeviceModel::Gpu(_))
    }

    fn total_progress(&self) -> Ns {
        self.done_busy + self.dev.as_dyn().stats().busy
    }
    fn total_completed(&self) -> u64 {
        self.done_completed + self.dev.as_dyn().stats().ssrs_completed
    }

    /// Lifetime stats across completed iterations plus the current one.
    fn total_stats(&self) -> DeviceStats {
        let cur = self.dev.as_dyn().stats();
        DeviceStats {
            busy: self.done_busy + cur.busy,
            stalled: self.done_stalled + cur.stalled,
            ssrs_raised: self.done_raised + cur.ssrs_raised,
            ssrs_completed: self.done_completed + cur.ssrs_completed,
            finished_at: cur.finished_at,
        }
    }
}

/// Publishes a device counter set into a metrics registry under `prefix`
/// (same layout as the historical `gpuN.*` namespace; an unfinished work
/// item publishes no `{prefix}.finished_at_ns`).
fn publish_device_stats(stats: &DeviceStats, reg: &mut hiss_obs::MetricsRegistry, prefix: &str) {
    reg.counter(format!("{prefix}.busy_ns"), stats.busy.as_nanos());
    reg.counter(format!("{prefix}.stalled_ns"), stats.stalled.as_nanos());
    reg.counter(format!("{prefix}.ssrs_raised"), stats.ssrs_raised);
    reg.counter(format!("{prefix}.ssrs_completed"), stats.ssrs_completed);
    if let Some(t) = stats.finished_at {
        reg.counter(format!("{prefix}.finished_at_ns"), t.as_nanos());
    }
}

#[derive(Debug, Clone, Copy)]
enum Event {
    /// A device's next self-event (SSR raise or work-item finish).
    Device { dev: usize, gen: u64 },
    /// IOMMU coalescing timer expiry.
    CoalesceTimer { deadline: Ns },
    /// A kernel occupancy interval begins on `core`.
    OccupyStart {
        core: usize,
        dur: Ns,
        category: TimeCategory,
        shared: bool,
    },
    /// A kernel occupancy interval ends on `core`.
    OccupyEnd { core: usize },
    /// Projected completion of the user thread on `core`.
    UserDone { core: usize, gen: u64 },
    /// An SSR finished service; notify the raising device.
    SsrDone { dev: usize, id: SsrId },
    /// Periodic OS scheduler tick on `core`.
    Tick { core: usize },
    /// The IOMMU finished walking the page table for a faulting access;
    /// the request now reaches the PPR log.
    WalkDone { request: SsrRequest },
}

/// Snapshot of core states handed to the kernel model (it cannot borrow
/// the SoC mutably and immutably at once). Owned by the [`Soc`] and
/// refreshed in place, so interrupt delivery does not allocate.
#[derive(Debug)]
struct HostView {
    busy: Vec<bool>,
    preempt: Vec<Ns>,
    wake: Vec<Ns>,
    reserved: Vec<bool>,
}

impl CoreHost for HostView {
    fn num_cores(&self) -> usize {
        self.busy.len()
    }
    fn user_active(&self, core: CoreId) -> bool {
        self.busy[core.0]
    }
    fn preempt_delay(&self, core: CoreId) -> Ns {
        self.preempt[core.0]
    }
    fn wake_delay(&self, core: CoreId) -> Ns {
        self.wake[core.0]
    }
    fn reserved(&self, core: CoreId) -> bool {
        self.reserved[core.0]
    }
}

/// The simulated heterogeneous SoC.
///
/// Construct one through [`ExperimentBuilder`]; drive it with
/// [`Soc::run`]. See the crate docs for a complete example.
#[derive(Debug)]
pub struct Soc {
    cfg: SystemConfig,
    now: Ns,
    queue: EventQueue<Event>,
    cores: Vec<Core>,
    activity: Vec<Activity>,
    user_gen: Vec<u64>,
    users: Vec<Option<UserThread>>,
    cpu_spec: Option<CpuAppSpec>,
    devices: Vec<DeviceRun>,
    iommu: Iommu,
    kernel: Kernel,
    occupied_until: Vec<Ns>,
    truncated: bool,
    tracer: Option<Tracer>,
    walker: PageWalker,
    /// Reusable core-state snapshot handed to the kernel model on every
    /// interrupt (see [`Soc::refresh_host_view`]).
    view: HostView,
    /// Module-shared L2 warmth, one per 2-core "Steamroller" module:
    /// kernel noise on either sibling cools it; user time on either
    /// rewarms it (which is why the refill constant is pre-halved in
    /// `CpuParams::l2_pollution`).
    module_warmth: Vec<WarmthModel>,
    /// The `(time, generation)` of each device's live self-event, if any.
    /// An SSR completion that does not change the device's trajectory must
    /// not arm a second event: with up to 64 outstanding SSRs per GPU,
    /// unconditional re-arming multiplies the self-event chain ~64× (the
    /// duplicates are semantically inert but dominate the calendar).
    armed_dev: Vec<Option<(Ns, u64)>>,
    /// Scratch for drained PPR batches, reused across interrupts.
    batch_buf: Vec<SsrRequest>,
    /// Scratch for kernel-output cascades, reused across interrupts.
    kout_buf: Vec<KernelOutput>,
    /// Per-criticality-class accounting; `None` unless the run carries a
    /// [`CriticalityConfig`] (default runs stay bit-identical).
    crit: Option<CritState>,
    /// The per-core OS scheduler tick schedule.
    tick: TickTimer,
}

impl Soc {
    fn new(
        cfg: SystemConfig,
        mit: MitigationConfig,
        cpu_spec: Option<CpuAppSpec>,
        device_specs: Vec<(DeviceSpec, Option<CoreId>)>,
        looping: bool,
        seed: u64,
    ) -> Self {
        let mut rng = Rng::new(seed);
        let cores: Vec<Core> = (0..cfg.num_cores)
            .map(|i| Core::new(CoreId(i), cfg.cpu))
            .collect();
        let users: Vec<Option<UserThread>> = (0..cfg.num_cores)
            .map(|i| {
                cpu_spec.filter(|s| i < s.threads).map(|s| UserThread {
                    remaining: s.work_per_thread,
                    finished_at: None,
                })
            })
            .collect();
        let activity: Vec<Activity> = users
            .iter()
            .map(|u| {
                if u.is_some() {
                    Activity::User { since: Ns::ZERO }
                } else {
                    Activity::Idle { since: Ns::ZERO }
                }
            })
            .collect();
        let devices: Vec<DeviceRun> = device_specs
            .iter()
            .enumerate()
            .map(|(i, (spec, _steer))| {
                // Fork order and labels are part of bit-identity: GPU
                // devices fork under their application name, exactly as
                // the pre-topology GPU-vector path did.
                let mut drng = rng.fork(spec.fork_label());
                let dev = DeviceModel::from_spec(i, spec, &cfg, drng.fork("iter0"));
                DeviceRun {
                    dev,
                    looping,
                    iterations: 0,
                    done_busy: Ns::ZERO,
                    done_stalled: Ns::ZERO,
                    done_raised: 0,
                    done_completed: 0,
                    rng: drng,
                    iter_label: String::with_capacity(16),
                }
            })
            .collect();
        let mut iommu = Iommu::with_coalescing(
            cfg.steering(mit.mitigation),
            cfg.num_cores,
            cfg.window(mit.mitigation),
        );
        for (i, (_spec, steer)) in device_specs.iter().enumerate() {
            if let Some(core) = steer {
                iommu.set_device_steering(i, *core);
            }
        }
        if let Some(c) = mit.criticality {
            assert!(
                c.critical_cores >= 1 && c.critical_cores < cfg.num_cores,
                "critical_cores must leave at least one best-effort core \
                 ({} of {})",
                c.critical_cores,
                cfg.num_cores,
            );
            iommu.enable_partitioning(
                c.critical_device_mask,
                c.ppr_quota_percent,
                c.critical_window,
                c.best_effort_window,
                if c.reserve { c.critical_cores } else { 0 },
            );
        }
        let kernel = Kernel::new(
            KernelConfig {
                costs: cfg.costs,
                monolithic_bottom_half: mit.mitigation.monolithic_bottom_half,
                bh_affinity: mit.mitigation.steer_single_core.then_some(cfg.steer_target),
                qos: mit.qos,
            },
            cfg.num_cores,
        );
        let num_devices = devices.len();
        Soc {
            now: Ns::ZERO,
            // Pre-sizes the far-future overflow ring only — the wheel's
            // slot buffers grow to their working set on demand and are
            // then reused. Measured `run.events_peak` reaches ~2.6k on
            // saturated bench cells, but nearly all of that backlog is
            // due within the wheel horizon; the ring sees only the
            // long-range projections (user-completion estimates, deep
            // completion-backlog tails), so a couple of entries per core
            // avoid early regrowth without over-reserving.
            queue: EventQueue::with_capacity(2 * cfg.num_cores.max(1)),
            activity,
            user_gen: vec![0; cfg.num_cores],
            users,
            cpu_spec,
            devices,
            iommu,
            kernel,
            occupied_until: vec![Ns::ZERO; cfg.num_cores],
            cores,
            truncated: false,
            tracer: None,
            walker: PageWalker::new(WalkerConfig::default()),
            view: HostView {
                busy: Vec::with_capacity(cfg.num_cores),
                preempt: Vec::with_capacity(cfg.num_cores),
                wake: Vec::with_capacity(cfg.num_cores),
                reserved: Vec::with_capacity(cfg.num_cores),
            },
            module_warmth: (0..cfg.num_cores.div_ceil(2))
                .map(|_| WarmthModel::with_params(cfg.cpu.l2_pollution, cfg.cpu.l2_pollution))
                .collect(),
            armed_dev: vec![None; num_devices],
            batch_buf: Vec::new(),
            kout_buf: Vec::new(),
            crit: mit.criticality.map(CritState::new),
            tick: TickTimer::new(cfg.timer_tick, cfg.tick_cost),
            cfg,
        }
    }

    fn module_of(core: usize) -> usize {
        core / 2
    }

    // ----- helpers ------------------------------------------------------

    /// Refills `self.view` with the current core states. Interrupt
    /// delivery is the hottest kernel-model entry point, so the snapshot
    /// buffers are owned and reused rather than allocated per call.
    fn refresh_host_view(&mut self) {
        let view = &mut self.view;
        view.busy.clear();
        view.preempt.clear();
        view.wake.clear();
        view.reserved.clear();
        for c in 0..self.cfg.num_cores {
            view.reserved
                .push(self.crit.as_ref().is_some_and(|cs| cs.core_reserved(c)));
            let user_alive = self.users[c]
                .as_ref()
                .is_some_and(|u| u.finished_at.is_none());
            view.busy.push(user_alive);
            view.preempt
                .push(self.cpu_spec.map_or(Ns::ZERO, |s| s.preempt_delay));
            view.wake.push(match self.activity[c] {
                Activity::Idle { since } => self.cores[c].predicted_wake_penalty(self.now - since),
                _ => Ns::ZERO,
            });
        }
    }

    fn integrate_user(&mut self, core: usize) {
        if let Activity::User { since } = self.activity[core] {
            let dur = self.now - since;
            if dur > Ns::ZERO {
                if let Some(tr) = &mut self.tracer {
                    tr.record(core, since, self.now, TimeCategory::User);
                }
                let spec = self.cpu_spec.expect("user activity implies a CPU app");
                let done =
                    self.cores[core].run_user(dur, spec.cache_sensitivity, spec.branch_sensitivity);
                // Module-shared L2: an additional, smaller penalty from
                // whatever kernel work ran on either sibling core,
                // averaged over the slice (long slices re-warm the L2).
                let module = &mut self.module_warmth[Self::module_of(core)];
                let l2_slow = module.user_slowdown(dur, spec.l2_sensitivity, 0.0);
                module.on_user(dur);
                let done = done.scale(1.0 / l2_slow);
                if let Some(user) = self.users[core].as_mut() {
                    user.remaining = user.remaining.saturating_sub(done);
                }
            }
            self.activity[core] = Activity::User { since: self.now };
        }
    }

    /// Bills an idle gap ending now, recording its shallow/transition/CC6
    /// phases with the tracer.
    fn bill_idle(&mut self, core: usize, since: Ns) {
        let gap = self.now - since;
        if gap == Ns::ZERO {
            return;
        }
        let acc = self.cores[core].account_idle(gap);
        if let Some(tr) = &mut self.tracer {
            let mut t = since;
            tr.record(core, t, t + acc.shallow, TimeCategory::IdleShallow);
            t += acc.shallow;
            tr.record(core, t, t + acc.transition, TimeCategory::CStateTransition);
            t += acc.transition;
            tr.record(core, t, t + acc.cc6, TimeCategory::SleepCc6);
        }
    }

    fn trace_kernel(&mut self, core: usize, dur: Ns, category: TimeCategory) {
        if let Some(tr) = &mut self.tracer {
            tr.record(core, self.now, self.now + dur, category);
        }
    }

    fn schedule_user_done(&mut self, core: usize) {
        let Some(spec) = self.cpu_spec else { return };
        let Some(user) = self.users[core].as_ref() else {
            return;
        };
        if user.finished_at.is_some() {
            return;
        }
        let wall = self.cores[core]
            .user_wall_time(
                user.remaining,
                spec.cache_sensitivity,
                spec.branch_sensitivity,
            )
            .max(Ns::from_nanos(1));
        self.queue.push(
            self.now + wall,
            Event::UserDone {
                core,
                gen: self.user_gen[core],
            },
        );
    }

    fn arm_device(&mut self, d: usize) {
        let dev = self.devices[d].dev.as_dyn();
        if let Some(t) = dev.next_tick(self.now) {
            let gen = dev.generation();
            if let Some((armed_t, armed_gen)) = self.armed_dev[d] {
                // A live event with the same generation at an earlier (or
                // equal) time fires first and re-arms from there; pushing
                // another would spawn a duplicate self-event chain.
                if armed_gen == gen && armed_t <= t {
                    return;
                }
            }
            self.armed_dev[d] = Some((t, gen));
            self.queue.push(t, Event::Device { dev: d, gen });
        }
    }

    /// Entry point for a newly-raised SSR: page-fault-class requests
    /// first pay the IOMMU's page-table walk (paper §II-C), everything
    /// else reaches the interrupt path directly.
    fn route_request(&mut self, req: SsrRequest) {
        if req.kind.uses_iommu() {
            if let Some(page) = req.page {
                let walk = self.walker.walk(page.0 << 12);
                self.queue
                    .push(self.now + walk, Event::WalkDone { request: req });
                return;
            }
        }
        self.log_request(req);
    }

    fn log_request(&mut self, req: SsrRequest) {
        if let Some(cs) = self.crit.as_mut() {
            cs.requests[self.iommu.class_of_device(req.gpu)] += 1;
        }
        match self.iommu.on_request(req, self.now) {
            IommuDecision::Interrupt(core) => self.deliver_interrupt(core),
            IommuDecision::ArmTimer(deadline) => {
                self.queue.push(deadline, Event::CoalesceTimer { deadline });
            }
            IommuDecision::Absorbed => {}
        }
    }

    fn deliver_interrupt(&mut self, core: CoreId) {
        // Under partitioning each drain serves exactly one class; read it
        // before the drain consumes the queue head. Batches are
        // class-pure, so the kernel-stat deltas below attribute cleanly.
        let class = self.iommu.pending_drain_class();
        self.iommu.drain_into(&mut self.batch_buf);
        if self.batch_buf.is_empty() {
            return;
        }
        self.refresh_host_view();
        let (serviced_before, deferrals_before) = {
            let ks = self.kernel.stats();
            (ks.ssrs_serviced, ks.qos_deferrals)
        };
        self.kernel.on_interrupt_into(
            &self.view,
            core,
            &self.batch_buf,
            self.now,
            &mut self.kout_buf,
        );
        if let (Some(cs), Some(class)) = (self.crit.as_mut(), class) {
            cs.interrupts[class] += 1;
            cs.drained[class] += self.batch_buf.len() as u64;
            let ks = self.kernel.stats();
            cs.serviced[class] += ks.ssrs_serviced - serviced_before;
            cs.deferrals[class] += ks.qos_deferrals - deferrals_before;
            for kout in &self.kout_buf {
                if let KernelOutput::SsrComplete { request, at } = kout {
                    cs.latencies[class].push(*at - request.raised_at);
                }
            }
        }
        for i in 0..self.kout_buf.len() {
            match self.kout_buf[i] {
                KernelOutput::Occupy {
                    core,
                    start,
                    dur,
                    category,
                    shared,
                } => {
                    self.queue.push(
                        start,
                        Event::OccupyStart {
                            core: core.0,
                            dur,
                            category,
                            shared,
                        },
                    );
                }
                KernelOutput::SsrComplete { request, at } => {
                    self.queue.push(
                        at,
                        Event::SsrDone {
                            dev: request.gpu,
                            id: request.id,
                        },
                    );
                }
                KernelOutput::Ipi { .. } => {}
            }
        }
    }

    fn handle_device_finish(&mut self, d: usize) {
        let now = self.now;
        let run = &mut self.devices[d];
        run.iterations += 1;
        if run.looping {
            // Bank the finished iteration's stats before restarting the
            // device (non-looping runs keep reading them from the device
            // itself).
            let stats = run.dev.as_dyn().stats();
            run.done_busy += stats.busy;
            run.done_stalled += stats.stalled;
            run.done_raised += stats.ssrs_raised;
            run.done_completed += stats.ssrs_completed;
            use std::fmt::Write as _;
            run.iter_label.clear();
            let _ = write!(run.iter_label, "iter{}", run.iterations);
            let iter_rng = run.rng.fork(&run.iter_label);
            run.dev.as_dyn_mut().restart(iter_rng, now);
            self.arm_device(d);
        }
    }

    fn handle(&mut self, event: Event) {
        match event {
            Event::Device { dev, gen } => {
                if gen != self.devices[dev].dev.as_dyn().generation() {
                    return; // stale
                }
                // This event is consumed; the re-arm below records the next.
                self.armed_dev[dev] = None;
                self.devices[dev].dev.as_dyn_mut().advance_to(self.now);
                if self.devices[dev].dev.as_dyn().is_finished() {
                    self.handle_device_finish(dev);
                    return;
                }
                if let Some(req) = self.devices[dev].dev.as_dyn_mut().raise(self.now) {
                    self.route_request(req);
                }
                self.arm_device(dev);
            }
            Event::CoalesceTimer { deadline } => {
                if let Some(core) = self.iommu.on_timer(deadline) {
                    self.deliver_interrupt(core);
                }
            }
            Event::OccupyStart {
                core,
                dur,
                category,
                shared,
            } => {
                let kernel_half = if shared { dur / 2 } else { dur };
                match self.activity[core] {
                    Activity::User { .. } => {
                        self.integrate_user(core);
                        self.cores[core].run_kernel_with_switch(kernel_half, category);
                    }
                    Activity::Idle { since } => {
                        self.bill_idle(core, since);
                        self.cores[core].run_kernel(kernel_half, category);
                    }
                    Activity::Kernel => {
                        self.cores[core].run_kernel(kernel_half, category);
                    }
                }
                self.trace_kernel(core, dur, category);
                self.module_warmth[Self::module_of(core)].on_kernel(kernel_half);
                if shared {
                    // The user thread keeps its CFS share of the interval.
                    if let Some(spec) = self.cpu_spec {
                        let done = self.cores[core].run_user(
                            dur - kernel_half,
                            spec.cache_sensitivity,
                            spec.branch_sensitivity,
                        );
                        let module = &mut self.module_warmth[Self::module_of(core)];
                        let l2_slow =
                            module.user_slowdown(dur - kernel_half, spec.l2_sensitivity, 0.0);
                        module.on_user(dur - kernel_half);
                        let done = done.scale(1.0 / l2_slow);
                        if let Some(user) = self.users[core].as_mut() {
                            user.remaining = user.remaining.saturating_sub(done);
                        }
                    }
                }
                self.activity[core] = Activity::Kernel;
                self.occupied_until[core] = self.occupied_until[core].max(self.now + dur);
                self.user_gen[core] += 1;
                self.queue.push(self.now + dur, Event::OccupyEnd { core });
            }
            Event::OccupyEnd { core } => {
                if self.now < self.occupied_until[core] {
                    return; // a later interval is still running
                }
                if self.activity[core] != Activity::Kernel {
                    return; // duplicate end at the same timestamp
                }
                let user_alive = self.users[core]
                    .as_ref()
                    .is_some_and(|u| u.finished_at.is_none());
                if user_alive {
                    self.activity[core] = Activity::User { since: self.now };
                    self.user_gen[core] += 1;
                    self.schedule_user_done(core);
                } else {
                    self.activity[core] = Activity::Idle { since: self.now };
                }
            }
            Event::UserDone { core, gen } => {
                if gen != self.user_gen[core] {
                    return; // pollution changed the projection
                }
                if !matches!(self.activity[core], Activity::User { .. }) {
                    return;
                }
                self.integrate_user(core);
                let finished = self.users[core]
                    .as_ref()
                    .is_some_and(|u| u.remaining == Ns::ZERO);
                if finished {
                    if let Some(u) = self.users[core].as_mut() {
                        u.finished_at = Some(self.now);
                    }
                    self.activity[core] = Activity::Idle { since: self.now };
                } else {
                    self.user_gen[core] += 1;
                    self.schedule_user_done(core);
                }
            }
            Event::SsrDone { dev, id } => {
                self.devices[dev].dev.as_dyn_mut().complete(id, self.now);
                self.arm_device(dev);
            }
            Event::WalkDone { request } => {
                self.log_request(request);
            }
            Event::Tick { core } => {
                // Zero-cost ticks are never scheduled (see `TickTimer`).
                let cost = self.tick.cost();
                // A core already in kernel context absorbs the tick.
                if self.activity[core] != Activity::Kernel {
                    match self.activity[core] {
                        Activity::User { .. } => self.integrate_user(core),
                        Activity::Idle { since } => self.bill_idle(core, since),
                        Activity::Kernel => unreachable!(),
                    }
                    self.cores[core].run_kernel(cost, TimeCategory::OsTick);
                    self.trace_kernel(core, cost, TimeCategory::OsTick);
                    self.module_warmth[Self::module_of(core)].on_kernel(cost);
                    self.activity[core] = Activity::Kernel;
                    self.occupied_until[core] = self.occupied_until[core].max(self.now + cost);
                    self.user_gen[core] += 1;
                    self.queue.push(self.now + cost, Event::OccupyEnd { core });
                }
                if let Some(next) = self.tick.next_tick(self.now) {
                    self.queue.push(next, Event::Tick { core });
                }
            }
        }
    }

    fn cpu_app_done(&self) -> bool {
        self.cpu_spec.is_some() && self.users.iter().flatten().all(|u| u.finished_at.is_some())
    }

    fn devices_done(&self) -> bool {
        self.devices
            .iter()
            .all(|r| r.iterations >= 1 || r.dev.as_dyn().is_finished())
    }

    /// Runs the simulation to its natural end and returns the report.
    ///
    /// With a CPU application configured, the run ends when its last
    /// thread finishes (device work items loop to keep interference
    /// stationary, matching the paper's concurrent-run methodology).
    /// Without one, the run ends when every device finishes one work item.
    pub fn run(mut self) -> RunReport {
        for d in 0..self.devices.len() {
            self.arm_device(d);
        }
        for core in 0..self.cfg.num_cores {
            self.schedule_user_done(core);
            // Phase-shifted per core, as Linux staggers its ticks.
            if let Some(first) = self.tick.first_fire(core, self.cfg.num_cores) {
                self.queue.push(first, Event::Tick { core });
            }
        }
        let has_cpu = self.cpu_spec.is_some();
        let has_dev = !self.devices.is_empty();
        while let Some((t, event)) = self.queue.pop() {
            if t > self.cfg.max_sim_time {
                self.truncated = true;
                self.now = self.cfg.max_sim_time;
                break;
            }
            self.now = t;
            self.handle(event);
            if has_cpu && self.cpu_app_done() {
                break;
            }
            if !has_cpu && has_dev && self.devices_done() {
                break;
            }
        }
        self.finalize()
    }

    fn finalize(mut self) -> RunReport {
        let end = self.now;
        for core in 0..self.cfg.num_cores {
            match self.activity[core] {
                Activity::User { .. } => self.integrate_user(core),
                Activity::Idle { since } => self.bill_idle(core, since),
                Activity::Kernel => {}
            }
        }
        for run in &mut self.devices {
            run.dev.as_dyn_mut().advance_to(end);
        }

        let per_core: Vec<_> = self.cores.iter().map(|c| c.breakdown().clone()).collect();
        let cpu_app_runtime = if self.cpu_app_done() {
            // Blend barrier semantics (slowest thread) with dynamic
            // work-rebalancing (mean of thread finish times) per the
            // application's `rebalance` factor: pipeline apps shift work
            // away from an interference-hammered core, statically
            // partitioned ones cannot.
            let finishes: Vec<Ns> = self
                .users
                .iter()
                .flatten()
                .filter_map(|u| u.finished_at)
                .collect();
            let max = finishes.iter().copied().max().unwrap_or(Ns::ZERO);
            let mean = if finishes.is_empty() {
                Ns::ZERO
            } else {
                finishes.iter().copied().sum::<Ns>() / finishes.len() as u64
            };
            let reb = self.cpu_spec.map(|s| s.rebalance).unwrap_or(0.0);
            Some(max.scale(1.0 - reb) + mean.scale(reb))
        } else {
            None
        };
        // The `gpu_*` aggregates cover GPU-kind devices only (they feed
        // the paper's GPU-performance metrics); NIC/DMA sources show up in
        // the per-device `devN.*` namespace and the `aux_ssrs_raised`
        // interference total. SSR completions count across all devices —
        // the service chain is shared.
        let gpu_progress: Ns = self
            .devices
            .iter()
            .filter(|r| r.is_gpu())
            .map(|r| r.total_progress())
            .sum();
        let elapsed_s = end.as_secs_f64();
        let gpu_throughput = if elapsed_s > 0.0 {
            gpu_progress.as_secs_f64() / elapsed_s
        } else {
            0.0
        };
        let total_completed: u64 = self.devices.iter().map(|r| r.total_completed()).sum();
        let ssr_rate = if elapsed_s > 0.0 {
            total_completed as f64 / elapsed_s
        } else {
            0.0
        };
        let cc6_residency = if per_core.is_empty() {
            0.0
        } else {
            per_core.iter().map(|b| b.cc6_residency()).sum::<f64>() / per_core.len() as f64
        };
        let mut whole = hiss_cpu::TimeBreakdown::new();
        for b in &per_core {
            whole.merge(b);
        }
        let user_cores: Vec<usize> = (0..self.cfg.num_cores)
            .filter(|c| self.users[*c].is_some())
            .collect();
        let (cache_cold, branch_cold) = if user_cores.is_empty() {
            (0.0, 0.0)
        } else {
            let c = user_cores
                .iter()
                .map(|&c| self.cores[c].warmth().avg_cache_coldness())
                .sum::<f64>()
                / user_cores.len() as f64;
            let b = user_cores
                .iter()
                .map(|&c| self.cores[c].warmth().avg_branch_coldness())
                .sum::<f64>()
                / user_cores.len() as f64;
            (c, b)
        };
        let energy = EnergyReport::from_breakdowns(EnergyParams::default(), &per_core, end);
        let gpu_iterations: u64 = self
            .devices
            .iter()
            .filter(|r| r.is_gpu())
            .map(|r| r.iterations)
            .sum();
        let aux_ssrs_raised: u64 = self
            .devices
            .iter()
            .filter(|r| !r.is_gpu())
            .map(|r| r.total_stats().ssrs_raised)
            .sum();

        // Structured snapshot: every component publishes into one
        // registry, built purely from deterministic simulation state.
        // It is the report's one copy of the run's results.
        let mut metrics = hiss_obs::MetricsRegistry::new();
        self.kernel.stats().publish(&mut metrics, "kernel");
        self.iommu.stats().publish(&mut metrics, "iommu");
        self.walker.stats().publish(&mut metrics, "iommu.walker");
        for (i, b) in per_core.iter().enumerate() {
            b.publish(&mut metrics, &format!("cpu.core{i}"));
        }
        whole.publish(&mut metrics, "cpu.total");
        // `gpuN.*` keys number GPU-kind devices by GPU ordinal so that
        // all-GPU topologies keep the exact key layout (and values) the
        // hardwired multi-GPU path produced.  The device-indexed `devN.*`
        // namespace below covers every SSR source, GPU or not.
        for (gpu_ordinal, run) in self.devices.iter().filter(|r| r.is_gpu()).enumerate() {
            let stats = run.total_stats();
            publish_device_stats(&stats, &mut metrics, &format!("gpu{gpu_ordinal}"));
            metrics.counter(format!("gpu{gpu_ordinal}.iterations"), run.iterations);
        }
        for (i, run) in self.devices.iter().enumerate() {
            let stats = run.total_stats();
            metrics.label(format!("dev{i}.kind"), run.dev.as_dyn().kind());
            publish_device_stats(&stats, &mut metrics, &format!("dev{i}"));
            metrics.counter(format!("dev{i}.iterations"), run.iterations);
        }
        metrics.counter("run.devices", self.devices.len() as u64);
        metrics.counter("run.aux_ssrs_raised", aux_ssrs_raised);
        if let Some(gov) = self.kernel.governor() {
            gov.publish(&mut metrics, "qos");
        }
        // Per-criticality-class splits. `qos.classes` is the guard marker
        // the `class_*_split` conservation laws key on: publishing it arms
        // them, so the audit below holds every split to its whole-run
        // total on exactly the runs that carry classes.
        if let Some(cs) = self.crit.as_mut() {
            metrics.counter("qos.classes", 2u64);
            for class in 0..2usize {
                let pfx = format!("qos.class{class}");
                metrics.counter(format!("{pfx}.requests"), cs.requests[class]);
                metrics.counter(format!("{pfx}.drained"), cs.drained[class]);
                metrics.counter(format!("{pfx}.interrupts"), cs.interrupts[class]);
                metrics.counter(format!("{pfx}.ssrs_serviced"), cs.serviced[class]);
                metrics.counter(format!("{pfx}.deferrals"), cs.deferrals[class]);
                metrics.counter(
                    format!("{pfx}.quota_flushes"),
                    self.iommu.quota_flushes(class),
                );
                let (mean_us, p99_us) = latency_summary_us(&mut cs.latencies[class]);
                metrics.gauge(format!("{pfx}.mean_latency_us"), mean_us);
                metrics.gauge(format!("{pfx}.p99_latency_us"), p99_us);
            }
            for c in 0..self.cfg.num_cores {
                let label = if c < cs.cfg.critical_cores {
                    "critical"
                } else {
                    "best_effort"
                };
                metrics.label(format!("cpu.core{c}.class"), label);
            }
        }
        metrics.counter("run.elapsed_ns", end.as_nanos());
        if let Some(rt) = cpu_app_runtime {
            metrics.counter("run.cpu_app_runtime_ns", rt.as_nanos());
        }
        metrics.counter("run.gpu_progress_ns", gpu_progress.as_nanos());
        metrics.gauge("run.gpu_throughput", gpu_throughput);
        metrics.counter("run.gpu_iterations", gpu_iterations);
        metrics.gauge("run.ssr_rate", ssr_rate);
        metrics.gauge("run.cc6_residency", cc6_residency);
        metrics.gauge("run.cpu_ssr_overhead", whole.ssr_overhead_fraction());
        metrics.gauge("run.avg_cache_coldness", cache_cold);
        metrics.gauge("run.avg_branch_coldness", branch_cold);
        metrics.counter("run.pending_at_end", self.iommu.pending() as u64);
        metrics.counter("run.truncated", self.truncated as u64);
        metrics.counter("run.events_pushed", self.queue.pushed());
        metrics.counter("run.events_popped", self.queue.popped());
        metrics.counter("run.events_peak", self.queue.peak());
        metrics.gauge("energy.cpu_joules", energy.cpu_joules);
        metrics.gauge("energy.cpu_avg_watts", energy.cpu_avg_watts);

        // Audit the finished snapshot against the declared conservation
        // laws. The audit and the published count are unconditional so
        // snapshots stay byte-identical across enforcement modes; only
        // whether a violation aborts depends on the sanitizer switch.
        let audit = hiss_obs::invariants::audit(&metrics, hiss_obs::schema::Scope::Run);
        metrics.counter("run.invariants_checked", audit.checked as u64);
        if !audit.clean() && crate::sanitize::sanitize_enabled() {
            let mut msg = String::from("metrics sanitizer: run violates its conservation laws\n");
            for v in &audit.violations {
                msg.push_str("  ");
                msg.push_str(&v.detail);
                msg.push('\n');
            }
            panic!("{msg}");
        }

        RunReport {
            metrics,
            trace: self.tracer.take().map(Tracer::into_trace),
        }
    }
}

/// Fluent builder for one simulation run.
///
/// # Example
///
/// ```
/// use hiss::{ExperimentBuilder, SystemConfig};
///
/// let report = ExperimentBuilder::new(SystemConfig::a10_7850k())
///     .cpu_app("x264")
///     .gpu_app("ubench")
///     .run();
/// assert!(report.cpu_app_runtime().is_some());
/// assert!(report.ssrs_serviced() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct ExperimentBuilder {
    config: SystemConfig,
    mitigation: MitigationConfig,
    cpu: Option<CpuAppSpec>,
    devices: Vec<(DeviceSpec, Option<CoreId>)>,
    seed: Option<u64>,
    trace: Option<(Ns, Ns)>,
}

impl ExperimentBuilder {
    /// Starts a builder from a system configuration.
    pub fn new(config: SystemConfig) -> Self {
        ExperimentBuilder {
            config,
            mitigation: MitigationConfig::default(),
            cpu: None,
            devices: Vec::new(),
            seed: None,
            trace: None,
        }
    }

    /// Applies a §V mitigation combination.
    pub fn mitigation(mut self, m: Mitigation) -> Self {
        self.mitigation.mitigation = m;
        self
    }

    /// Enables the §VI QoS governor.
    pub fn qos(mut self, params: QosParams) -> Self {
        self.mitigation.qos = Some(params);
        self
    }

    /// Splits the run into criticality classes: partitions the IOMMU's
    /// PPR log per class, optionally reserves the critical cores against
    /// SSR interrupts and kernel threads, and publishes per-class
    /// `qos.classN.*` metrics.
    pub fn criticality(mut self, cfg: CriticalityConfig) -> Self {
        self.mitigation.criticality = Some(cfg);
        self
    }

    /// Runs a PARSEC benchmark on the CPU cores.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the catalog.
    pub fn cpu_app(mut self, name: &str) -> Self {
        let spec =
            CpuAppSpec::by_name(name).unwrap_or_else(|| panic!("unknown CPU benchmark {name:?}"));
        self.cpu = Some(spec);
        self
    }

    /// Runs an explicit CPU application spec.
    pub fn cpu_spec(mut self, spec: CpuAppSpec) -> Self {
        self.cpu = Some(spec);
        self
    }

    /// Adds a GPU benchmark (with its SSR profile).
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the catalog.
    pub fn gpu_app(mut self, name: &str) -> Self {
        let spec =
            GpuAppSpec::by_name(name).unwrap_or_else(|| panic!("unknown GPU benchmark {name:?}"));
        self.devices.push((DeviceSpec::Gpu(spec), None));
        self
    }

    /// Adds the pinned-memory (no-SSR) variant of a GPU benchmark — the
    /// paper's baseline configuration.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the catalog.
    pub fn gpu_app_pinned(mut self, name: &str) -> Self {
        let spec =
            GpuAppSpec::by_name(name).unwrap_or_else(|| panic!("unknown GPU benchmark {name:?}"));
        self.devices.push((DeviceSpec::Gpu(spec.pinned()), None));
        self
    }

    /// Adds an explicit GPU application spec.
    pub fn gpu_spec(mut self, spec: GpuAppSpec) -> Self {
        self.devices.push((DeviceSpec::Gpu(spec), None));
        self
    }

    /// Adds an arbitrary SSR-raising device (GPU, NIC, DMA engine, ...).
    pub fn device(mut self, spec: DeviceSpec) -> Self {
        self.devices.push((spec, None));
        self
    }

    /// Adds a device whose MSI interrupts are optionally pinned to one
    /// core, overriding the system-wide steering policy for this device
    /// only (`None` keeps the shared default).
    pub fn device_steered(mut self, spec: DeviceSpec, core: Option<CoreId>) -> Self {
        self.devices.push((spec, core));
        self
    }

    /// Overrides the RNG seed (defaults to the system configuration's).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// The seed this builder would run with (for replication).
    pub fn base_seed(&self) -> u64 {
        self.seed.unwrap_or(self.config.seed)
    }

    /// Records a per-core activity trace over `[from, to)` (the paper's
    /// Fig. 2 timeline); retrieve it from [`RunReport::trace`] and render
    /// with [`Trace::render_gantt`](crate::trace::Trace::render_gantt).
    pub fn trace_window(mut self, from: Ns, to: Ns) -> Self {
        self.trace = Some((from, to));
        self
    }

    /// Builds and runs the simulation.
    pub fn run(self) -> RunReport {
        let looping = self.cpu.is_some();
        let seed = self.seed.unwrap_or(self.config.seed);
        let mut soc = Soc::new(
            self.config,
            self.mitigation,
            self.cpu,
            self.devices,
            looping,
            seed,
        );
        if let Some((from, to)) = self.trace {
            soc.tracer = Some(Tracer::new(from, to));
        }
        soc.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiss_workloads::{DmaParams, NicParams};

    fn cfg() -> SystemConfig {
        SystemConfig::a10_7850k()
    }

    #[test]
    fn cpu_app_alone_runs_at_full_speed() {
        let report = ExperimentBuilder::new(cfg()).cpu_app("blackscholes").run();
        let runtime = report.cpu_app_runtime().expect("app finishes");
        // 20ms of work per thread; only OS timer ticks (~0.2%) intervene.
        assert!(runtime >= Ns::from_millis(20));
        assert!(runtime < Ns::from_millis(21), "runtime {runtime}");
        assert_eq!(report.ssrs_serviced(), 0);
        assert_eq!(report.cpu_ssr_overhead(), 0.0);
    }

    #[test]
    fn pinned_gpu_causes_no_interference() {
        let base = ExperimentBuilder::new(cfg()).cpu_app("fluidanimate").run();
        let with_pinned = ExperimentBuilder::new(cfg())
            .cpu_app("fluidanimate")
            .gpu_app_pinned("sssp")
            .run();
        assert_eq!(base.cpu_app_runtime(), with_pinned.cpu_app_runtime());
        assert_eq!(with_pinned.ssrs_serviced(), 0);
        let progress = with_pinned.metrics.counter_value("run.gpu_progress_ns");
        assert!(progress.unwrap() > 0);
    }

    #[test]
    fn ssrs_slow_down_the_cpu_app() {
        let base = ExperimentBuilder::new(cfg())
            .cpu_app("fluidanimate")
            .gpu_app_pinned("sssp")
            .run();
        let noisy = ExperimentBuilder::new(cfg())
            .cpu_app("fluidanimate")
            .gpu_app("sssp")
            .run();
        assert!(noisy.ssrs_serviced() > 0);
        let perf = noisy.cpu_perf_vs(&base).expect("both finish");
        assert!(perf < 1.0, "expected slowdown, got perf {perf}");
        assert!(perf > 0.4, "implausibly strong interference: {perf}");
    }

    #[test]
    fn busy_cpus_slow_down_gpu_service() {
        let idle_cpu = ExperimentBuilder::new(cfg()).gpu_app("sssp").run();
        assert!(idle_cpu.cpu_app_runtime().is_none());
        let iterations = idle_cpu.metrics.counter_value("run.gpu_iterations");
        assert!(iterations.unwrap() >= 1);
        let busy = ExperimentBuilder::new(cfg())
            .cpu_app("streamcluster")
            .gpu_app("sssp")
            .run();
        let perf = busy.gpu_perf_vs(&idle_cpu);
        assert!(perf < 1.0, "busy CPUs should delay SSRs, got {perf}");
    }

    #[test]
    fn gpu_only_run_mostly_sleeps_without_ssrs() {
        let report = ExperimentBuilder::new(cfg()).gpu_app_pinned("ubench").run();
        assert!(
            report.cc6_residency() > 0.8,
            "idle cores should sleep, residency {}",
            report.cc6_residency()
        );
    }

    #[test]
    fn ssrs_destroy_sleep_residency() {
        let quiet = ExperimentBuilder::new(cfg()).gpu_app_pinned("ubench").run();
        let noisy = ExperimentBuilder::new(cfg()).gpu_app("ubench").run();
        assert!(
            noisy.cc6_residency() < quiet.cc6_residency() - 0.2,
            "SSRs should cut CC6 residency: {} vs {}",
            noisy.cc6_residency(),
            quiet.cc6_residency()
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let a = ExperimentBuilder::new(cfg())
            .cpu_app("x264")
            .gpu_app("ubench")
            .run();
        let b = ExperimentBuilder::new(cfg())
            .cpu_app("x264")
            .gpu_app("ubench")
            .run();
        assert_eq!(a.cpu_app_runtime(), b.cpu_app_runtime());
        assert_eq!(a.ssrs_serviced(), b.ssrs_serviced());
        assert_eq!(a.elapsed(), b.elapsed());
        assert_eq!(a.ipis(), b.ipis());
    }

    #[test]
    fn different_seeds_vary_but_agree_qualitatively() {
        let a = ExperimentBuilder::new(cfg())
            .cpu_app("x264")
            .gpu_app("ubench")
            .seed(1)
            .run();
        let b = ExperimentBuilder::new(cfg())
            .cpu_app("x264")
            .gpu_app("ubench")
            .seed(2)
            .run();
        let ra = a.cpu_app_runtime().unwrap().as_nanos() as f64;
        let rb = b.cpu_app_runtime().unwrap().as_nanos() as f64;
        assert!((ra / rb - 1.0).abs() < 0.2, "seeds wildly disagree");
    }

    #[test]
    fn interrupts_spread_by_default_steered_when_configured() {
        let spread = ExperimentBuilder::new(cfg())
            .cpu_app("x264")
            .gpu_app("ubench")
            .run();
        let counts = &spread.interrupts_per_core();
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        assert!(min > 0.0 && max / min < 1.5, "not spread: {counts:?}");

        let steered = ExperimentBuilder::new(cfg())
            .cpu_app("x264")
            .gpu_app("ubench")
            .mitigation(Mitigation {
                steer_single_core: true,
                ..Mitigation::DEFAULT
            })
            .run();
        let counts = &steered.interrupts_per_core();
        assert!(counts[0] > 0);
        assert_eq!(
            counts[1..].iter().sum::<u64>(),
            0,
            "not steered: {counts:?}"
        );
    }

    #[test]
    fn coalescing_reduces_interrupts() {
        let plain = ExperimentBuilder::new(cfg())
            .cpu_app("x264")
            .gpu_app("ubench")
            .run();
        let coal = ExperimentBuilder::new(cfg())
            .cpu_app("x264")
            .gpu_app("ubench")
            .mitigation(Mitigation {
                coalesce: true,
                ..Mitigation::DEFAULT
            })
            .run();
        let total = |r: &RunReport| r.interrupts_per_core().iter().sum::<u64>();
        assert!(
            total(&coal) < total(&plain),
            "coalescing should cut interrupts: {} vs {}",
            total(&coal),
            total(&plain)
        );
        let batch = |r: &RunReport| r.metrics.gauge_value("kernel.batch.mean").unwrap();
        assert!(batch(&coal) > batch(&plain));
    }

    #[test]
    fn qos_throttling_caps_cpu_overhead_and_guts_gpu_throughput() {
        let default = ExperimentBuilder::new(cfg())
            .cpu_app("x264")
            .gpu_app("ubench")
            .run();
        let throttled = ExperimentBuilder::new(cfg())
            .cpu_app("x264")
            .gpu_app("ubench")
            .qos(QosParams::threshold_percent(1.0))
            .run();
        assert!(throttled.qos_deferrals() > 0);
        assert!(
            throttled.cpu_ssr_overhead() < default.cpu_ssr_overhead(),
            "QoS should cut overhead: {} vs {}",
            throttled.cpu_ssr_overhead(),
            default.cpu_ssr_overhead()
        );
        assert!(
            throttled.ssr_rate() < default.ssr_rate() / 2.0,
            "QoS should throttle SSRs: {} vs {}",
            throttled.ssr_rate(),
            default.ssr_rate()
        );
    }

    #[test]
    fn monolithic_bottom_half_speeds_up_ssr_service() {
        // Run against a busy 4-thread CPU app: with idle CPUs the CC6
        // wake latency dominates the chain and masks the kthread-wake
        // saving (the paper's Fig. 6f likewise measures co-runs).
        let plain = ExperimentBuilder::new(cfg())
            .cpu_app("fluidanimate")
            .gpu_app("sssp")
            .run();
        let mono = ExperimentBuilder::new(cfg())
            .cpu_app("fluidanimate")
            .gpu_app("sssp")
            .mitigation(Mitigation {
                monolithic_bottom_half: true,
                ..Mitigation::DEFAULT
            })
            .run();
        assert!(
            mono.mean_ssr_latency() < plain.mean_ssr_latency(),
            "monolithic should cut latency: {} vs {}",
            mono.mean_ssr_latency(),
            plain.mean_ssr_latency()
        );
        assert!(
            mono.gpu_throughput() > plain.gpu_throughput() * 1.05,
            "monolithic should lift GPU throughput: {} vs {}",
            mono.gpu_throughput(),
            plain.gpu_throughput()
        );
    }

    #[test]
    fn ledgers_cover_wall_time() {
        let report = ExperimentBuilder::new(cfg())
            .cpu_app("ferret")
            .gpu_app("spmv")
            .run();
        for i in 0..cfg().num_cores {
            let total: u64 = TimeCategory::ALL
                .iter()
                .map(|c| {
                    let name = format!("cpu.core{i}.{}_ns", c.name());
                    report.metrics.counter_value(&name).unwrap()
                })
                .sum();
            let total = total as f64;
            let elapsed = report.elapsed().as_nanos() as f64;
            let ratio = total / elapsed;
            assert!(
                (0.97..1.03).contains(&ratio),
                "core {i} ledger covers {ratio} of wall time"
            );
        }
    }

    #[test]
    fn multi_gpu_increases_pressure() {
        // Use a non-saturating GPU app: ubench alone already saturates
        // the SSR service chain, so extra copies of it cannot add CPU
        // pressure (they only starve each other).
        let one = ExperimentBuilder::new(cfg())
            .cpu_app("x264")
            .gpu_app("sssp")
            .run();
        let two = ExperimentBuilder::new(cfg())
            .cpu_app("x264")
            .gpu_app("sssp")
            .gpu_app("sssp")
            .run();
        assert!(two.ssrs_serviced() > one.ssrs_serviced());
        assert!(two.cpu_app_runtime().unwrap() > one.cpu_app_runtime().unwrap());
    }

    #[test]
    #[should_panic(expected = "unknown CPU benchmark")]
    fn unknown_cpu_app_panics() {
        let _ = ExperimentBuilder::new(cfg()).cpu_app("quake");
    }

    #[test]
    fn metrics_snapshot_mirrors_report() {
        let report = ExperimentBuilder::new(cfg())
            .cpu_app("x264")
            .gpu_app("ubench")
            .run();
        let m = &report.metrics;
        assert!(m.counter_value("gpu0.ssrs_raised").unwrap() > 0);
        assert!(m.counter_value("gpu0.busy_ns").unwrap() > 0);
        // No governor configured: no qos.* namespace.
        assert_eq!(m.counter_value("qos.deferrals"), None);
        // The snapshot round-trips through JSON bit-exactly.
        let json = m.to_json();
        let back = hiss_obs::MetricsRegistry::from_json(&json).expect("parse");
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn mixed_topology_runs_and_publishes_device_metrics() {
        let report = ExperimentBuilder::new(cfg())
            .cpu_app("x264")
            .gpu_app("ubench")
            .device(DeviceSpec::Nic(NicParams::default()))
            .device_steered(DeviceSpec::Dma(DmaParams::default()), Some(CoreId(1)))
            .run();
        let m = &report.metrics;
        assert_eq!(m.counter_value("run.devices"), Some(3));
        assert_eq!(m.label_value("dev0.kind"), Some("gpu"));
        assert_eq!(m.label_value("dev1.kind"), Some("nic"));
        assert_eq!(m.label_value("dev2.kind"), Some("dma"));
        // GPU ordinals skip non-GPU devices; the GPU's devN mirror matches.
        assert_eq!(
            m.counter_value("gpu0.ssrs_raised"),
            m.counter_value("dev0.ssrs_raised")
        );
        let nic_raised = m.counter_value("dev1.ssrs_raised").unwrap();
        let dma_raised = m.counter_value("dev2.ssrs_raised").unwrap();
        assert!(nic_raised > 0 && dma_raised > 0);
        assert_eq!(
            m.counter_value("run.aux_ssrs_raised"),
            Some(nic_raised + dma_raised)
        );
        // ssr_rate now aggregates every device's completions.
        let completed: u64 = (0..3)
            .map(|i| m.counter_value(&format!("dev{i}.ssrs_completed")).unwrap())
            .sum();
        assert!(completed > 0);
        assert!(report.ssr_rate() > 0.0);
    }

    #[test]
    fn aux_devices_add_interference_like_extra_gpus() {
        let base = ExperimentBuilder::new(cfg()).cpu_app("fluidanimate").run();
        let noisy = ExperimentBuilder::new(cfg())
            .cpu_app("fluidanimate")
            .device(DeviceSpec::Nic(NicParams::default()))
            .device(DeviceSpec::Dma(DmaParams::default()))
            .run();
        assert!(
            noisy.cpu_app_runtime().unwrap() > base.cpu_app_runtime().unwrap(),
            "NIC+DMA SSR streams must slow the CPU app ({:?} vs {:?})",
            noisy.cpu_app_runtime(),
            base.cpu_app_runtime()
        );
    }

    #[test]
    fn device_steering_isolates_other_cores() {
        // Pin the NIC's interrupts to core 3: cores 0-2 should field
        // strictly fewer interrupts than under the shared spread policy.
        let spread = ExperimentBuilder::new(cfg())
            .cpu_app("x264")
            .device(DeviceSpec::Nic(NicParams::default()))
            .run();
        let pinned = ExperimentBuilder::new(cfg())
            .cpu_app("x264")
            .device_steered(DeviceSpec::Nic(NicParams::default()), Some(CoreId(3)))
            .run();
        let others = |r: &RunReport| -> u64 { r.interrupts_per_core()[..3].iter().sum() };
        assert!(others(&pinned) < others(&spread));
        assert!(pinned.interrupts_per_core()[3] > 0);
    }

    #[test]
    fn criticality_run_publishes_class_splits_that_sum_to_totals() {
        let baseline = ExperimentBuilder::new(cfg())
            .cpu_app("x264")
            .gpu_app("ubench")
            .gpu_app("sssp")
            .run();
        assert_eq!(
            baseline.metrics.counter_value("qos.classes"),
            None,
            "default runs must not publish class metrics"
        );
        let report = ExperimentBuilder::new(cfg())
            .cpu_app("x264")
            .gpu_app("ubench")
            .gpu_app("sssp")
            .criticality(CriticalityConfig {
                critical_device_mask: 0b10, // sssp (device 1) is critical
                ..CriticalityConfig::default()
            })
            .run();
        let m = &report.metrics;
        assert_eq!(m.counter_value("qos.classes"), Some(2));
        let class_sum = |suffix: &str| -> u64 {
            (0..2)
                .map(|c| m.counter_value(&format!("qos.class{c}.{suffix}")).unwrap())
                .sum()
        };
        let iommu = |name: &str| m.counter_value(&format!("iommu.{name}")).unwrap();
        assert_eq!(class_sum("requests"), iommu("requests"));
        assert_eq!(class_sum("drained"), iommu("drained"));
        assert_eq!(
            class_sum("interrupts"),
            report.interrupts_per_core().iter().sum::<u64>()
        );
        assert_eq!(class_sum("ssrs_serviced"), report.ssrs_serviced());
        assert_eq!(class_sum("deferrals"), report.qos_deferrals());
        assert_eq!(class_sum("quota_flushes"), iommu("log_full_flushes"));
        // Both classes saw traffic and measured latency for it.
        for c in 0..2 {
            assert!(m.counter_value(&format!("qos.class{c}.requests")).unwrap() > 0);
            assert!(
                m.gauge_value(&format!("qos.class{c}.p99_latency_us"))
                    .unwrap()
                    > 0.0
            );
        }
        assert_eq!(m.label_value("cpu.core0.class"), Some("critical"));
        assert_eq!(m.label_value("cpu.core1.class"), Some("best_effort"));
        // The guarded per-class conservation laws armed: six more checks
        // than the default run's audit.
        assert_eq!(
            m.counter_value("run.invariants_checked"),
            baseline
                .metrics
                .counter_value("run.invariants_checked")
                .map(|n| n + 6)
        );
    }

    #[test]
    fn core_reservation_keeps_interrupts_off_critical_cores() {
        let open = ExperimentBuilder::new(cfg())
            .cpu_app("x264")
            .gpu_app("ubench")
            .criticality(CriticalityConfig {
                critical_device_mask: 0,
                reserve: false,
                ..CriticalityConfig::default()
            })
            .run();
        assert!(
            open.interrupts_per_core()[0] > 0,
            "without reservation the spread policy hits core 0"
        );
        let reserved = ExperimentBuilder::new(cfg())
            .cpu_app("x264")
            .gpu_app("ubench")
            .criticality(CriticalityConfig {
                critical_device_mask: 0,
                reserve: true,
                ..CriticalityConfig::default()
            })
            .run();
        assert_eq!(
            reserved.interrupts_per_core()[0],
            0,
            "reserved core 0 must field no SSR interrupts: {:?}",
            reserved.interrupts_per_core()
        );
        assert!(reserved.interrupts_per_core()[1..].iter().sum::<u64>() > 0);
    }

    #[test]
    #[should_panic(expected = "best-effort core")]
    fn criticality_reserving_every_core_panics() {
        let _ = ExperimentBuilder::new(cfg())
            .cpu_app("x264")
            .gpu_app("ubench")
            .criticality(CriticalityConfig {
                critical_cores: 4,
                ..CriticalityConfig::default()
            })
            .run();
    }

    #[test]
    fn qos_run_publishes_governor_metrics() {
        let report = ExperimentBuilder::new(cfg())
            .cpu_app("x264")
            .gpu_app("ubench")
            .qos(QosParams::threshold_percent(1.0))
            .run();
        let m = &report.metrics;
        assert_eq!(
            m.counter_value("qos.deferrals"),
            Some(report.qos_deferrals())
        );
        assert!(m.counter_value("qos.passes").is_some());
        assert_eq!(m.gauge_value("qos.threshold"), Some(0.01));
    }
}
