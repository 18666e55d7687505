//! The SSR-handling state machine (Fig. 1 steps 3–6).

use hiss_cpu::{CoreId, TimeCategory};
use hiss_gpu::SsrRequest;
use hiss_qos::{Gate, Governor, QosParams};
use hiss_sim::Ns;

use crate::costs::HandlerCosts;
use crate::placement::Kthread;
use crate::stats::KernelStats;

/// What the kernel model needs to know about the host SoC.
///
/// Implemented by the SoC event loop; kept minimal so the kernel is
/// testable with a fake.
pub trait CoreHost {
    /// Number of CPU cores.
    fn num_cores(&self) -> usize;
    /// `true` if a user thread currently has runnable work on `core`.
    fn user_active(&self, core: CoreId) -> bool;
    /// Scheduling latency for a kernel thread to preempt the user thread
    /// on `core` (application-dependent: CPU-bound PARSEC threads hold
    /// the core longer than interactive ones).
    fn preempt_delay(&self, core: CoreId) -> Ns;
    /// Extra wake latency if `core` is currently asleep (CC6 exit), else
    /// zero. This is why SSRs to sleeping cores can be *slower* than to
    /// busy ones (paper Fig. 3b values above 1.0).
    fn wake_delay(&self, core: CoreId) -> Ns;
    /// `true` if `core` is reserved for critical work — floating kernel
    /// threads must not land there (mixed-criticality core reservation;
    /// no core is reserved unless the host says otherwise).
    fn reserved(&self, _core: CoreId) -> bool {
        false
    }
}

/// Kernel configuration: costs, mitigations, QoS.
#[derive(Debug, Clone, Default)]
pub struct KernelConfig {
    /// Stage cost model.
    pub costs: HandlerCosts,
    /// §V-C: run the bottom-half pre-processing inside the top half
    /// (hard-IRQ context), eliminating the IPI + kthread wake.
    pub monolithic_bottom_half: bool,
    /// Pin the bottom-half kthread to one core (the paper's single-core
    /// steering configuration pins it to the steered core).
    pub bh_affinity: Option<CoreId>,
    /// §VI: enable the QoS governor with these parameters.
    pub qos: Option<QosParams>,
}

/// One observable consequence of kernel activity, emitted in
/// non-decreasing `start`/`at` order *per core* (global order may
/// interleave).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelOutput {
    /// A core executes kernel code during `[start, start + dur)`.
    Occupy {
        /// Which core.
        core: CoreId,
        /// Interval start.
        start: Ns,
        /// Interval length (wall time; for a shared interval only half
        /// of it is kernel CPU time).
        dur: Ns,
        /// Ledger category (top half / IPI / bottom half / worker).
        category: TimeCategory,
        /// `true` when this is thread-context kernel work fair-sharing
        /// the core with an active user thread (CFS 50/50): the user
        /// thread makes progress during half of the interval.
        shared: bool,
    },
    /// An IPI was sent (receiver cost is emitted as a separate `Occupy`).
    Ipi {
        /// Sending core.
        from: CoreId,
        /// Receiving core.
        to: CoreId,
        /// Send time.
        at: Ns,
    },
    /// An SSR finished service; the SoC forwards this to the GPU.
    SsrComplete {
        /// The completed request.
        request: SsrRequest,
        /// Completion time.
        at: Ns,
    },
}

/// The kernel-side SSR pipeline model.
///
/// See the crate docs for the architecture; the core entry point is
/// [`Kernel::on_interrupt`].
#[derive(Debug)]
pub struct Kernel {
    config: KernelConfig,
    bh: Kthread,
    worker: Kthread,
    /// Per-core horizon of committed kernel occupancy (kernel work on a
    /// core is serialised; the SoC bills user/idle time around it).
    busy_until: Vec<Ns>,
    /// When the (single) worker thread finishes its current queue.
    worker_tail: Ns,
    governor: Option<Governor>,
    stats: KernelStats,
}

impl Kernel {
    /// Creates the kernel model for `num_cores` CPUs.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` is zero.
    pub fn new(config: KernelConfig, num_cores: usize) -> Self {
        assert!(num_cores > 0, "kernel needs at least one core");
        let mut bh = Kthread::new("iommu-bh", CoreId(1 % num_cores));
        bh.set_affinity(config.bh_affinity);
        let worker = Kthread::new("ssr-worker", CoreId(2 % num_cores));
        let governor = config.qos.map(|p| Governor::new(p, num_cores));
        Kernel {
            config,
            bh,
            worker,
            busy_until: vec![Ns::ZERO; num_cores],
            worker_tail: Ns::ZERO,
            governor,
            stats: KernelStats::new(num_cores),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &KernelConfig {
        &self.config
    }

    /// Counters so far.
    pub fn stats(&self) -> &KernelStats {
        &self.stats
    }

    /// The QoS governor, if enabled.
    pub fn governor(&self) -> Option<&Governor> {
        self.governor.as_ref()
    }

    /// Commits a kernel occupancy interval: bumps the core horizon,
    /// records the cycles with the QoS governor, emits the output.
    fn occupy(
        &mut self,
        out: &mut Vec<KernelOutput>,
        core: CoreId,
        start: Ns,
        dur: Ns,
        category: TimeCategory,
    ) -> Ns {
        self.occupy_opt(out, core, start, dur, category, false)
    }

    fn occupy_opt(
        &mut self,
        out: &mut Vec<KernelOutput>,
        core: CoreId,
        start: Ns,
        dur: Ns,
        category: TimeCategory,
        shared: bool,
    ) -> Ns {
        let end = start + dur;
        self.busy_until[core.0] = self.busy_until[core.0].max(end);
        if let Some(gov) = &mut self.governor {
            // Only actual kernel CPU time counts toward the QoS budget.
            gov.record(start, if shared { dur / 2 } else { dur });
        }
        out.push(KernelOutput::Occupy {
            core,
            start,
            dur,
            category,
            shared,
        });
        end
    }

    /// Handles one SSR interrupt delivered to `irq_core` at `now` with a
    /// drained batch of requests, returning every consequence of the full
    /// handling chain (already scheduled in time).
    ///
    /// # Panics
    ///
    /// Panics if `batch` is empty — an interrupt with no logged request
    /// indicates an IOMMU-model bug.
    pub fn on_interrupt(
        &mut self,
        host: &dyn CoreHost,
        irq_core: CoreId,
        batch: Vec<SsrRequest>,
        now: Ns,
    ) -> Vec<KernelOutput> {
        let mut out = Vec::new();
        self.on_interrupt_into(host, irq_core, &batch, now, &mut out);
        out
    }

    /// Allocation-free variant of [`Kernel::on_interrupt`]: clears `out`
    /// and fills it with the handling chain, reusing its capacity. The
    /// SoC event loop calls this on every interrupt with owned scratch
    /// buffers, so steady-state interrupt delivery does not allocate.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is empty — an interrupt with no logged request
    /// indicates an IOMMU-model bug.
    pub fn on_interrupt_into(
        &mut self,
        host: &dyn CoreHost,
        irq_core: CoreId,
        batch: &[SsrRequest],
        now: Ns,
        out: &mut Vec<KernelOutput>,
    ) {
        assert!(!batch.is_empty(), "interrupt with empty PPR batch");
        let n = batch.len();
        let costs = self.config.costs;
        self.stats.interrupts_per_core[irq_core.0] += 1;
        self.stats.batch_size.push(n as f64);
        out.clear();
        out.reserve(2 * n + 4);

        // --- ③ top half: hard-IRQ context on the interrupted core ------
        let th_start = (now + host.wake_delay(irq_core)).max(self.busy_until[irq_core.0]);
        let mut th_dur = costs.top_half(n);
        if self.config.monolithic_bottom_half {
            // ④ folded into the hard-IRQ context (§V-C).
            th_dur += costs.bottom_half(n);
        }
        let th_end = self.occupy(out, irq_core, th_start, th_dur, TimeCategory::TopHalf);

        // --- ④ bottom half kthread (unless monolithic) ------------------
        let (queue_core, queue_ready) = if self.config.monolithic_bottom_half {
            (irq_core, th_end)
        } else {
            let bh_core = self.bh.place(host);
            // A kthread that is still draining earlier work is already
            // awake: new work simply appends to it — no IPI, no wake
            // latency. Only a sleeping/idle kthread pays the wake path.
            let kthread_backlogged = self.busy_until[bh_core.0] > th_end;
            let start = if kthread_backlogged {
                self.busy_until[bh_core.0]
            } else {
                let mut ready = th_end;
                if bh_core != irq_core {
                    // 3a: IPI to wake the kthread on its core.
                    self.stats.ipis += 1;
                    out.push(KernelOutput::Ipi {
                        from: irq_core,
                        to: bh_core,
                        at: th_end,
                    });
                    let ipi_start = th_end + host.wake_delay(bh_core);
                    ready = self.occupy(
                        out,
                        bh_core,
                        ipi_start,
                        costs.ipi_receive,
                        TimeCategory::Ipi,
                    );
                }
                let mut start = ready + costs.bh_wake_delay;
                if host.user_active(bh_core) {
                    start += host.preempt_delay(bh_core);
                }
                start
            };
            // Thread-context work fair-shares a user-busy core (CFS):
            // twice the wall time, half of it user progress.
            let bh_shared = host.user_active(bh_core);
            let bh_wall = if bh_shared {
                costs.bottom_half(n) * 2
            } else {
                costs.bottom_half(n)
            };
            let end = self.occupy_opt(
                out,
                bh_core,
                start,
                bh_wall,
                TimeCategory::BottomHalf,
                bh_shared,
            );
            (bh_core, end)
        };

        // --- ⑤ worker thread: one work item per request -----------------
        let w_core = self.worker.place(host);
        // Same rule: a worker still draining its queue is awake; only an
        // idle worker pays the wake latency (and an IPI if remote).
        let worker_backlogged = self.worker_tail > queue_ready;
        let mut t = if worker_backlogged {
            self.worker_tail.max(self.busy_until[w_core.0])
        } else {
            let mut ready = queue_ready + costs.worker_wake_delay;
            if w_core != queue_core {
                self.stats.ipis += 1;
                out.push(KernelOutput::Ipi {
                    from: queue_core,
                    to: w_core,
                    at: queue_ready,
                });
                let ipi_start = queue_ready + host.wake_delay(w_core);
                let ipi_end =
                    self.occupy(out, w_core, ipi_start, costs.ipi_receive, TimeCategory::Ipi);
                ready = ready.max(ipi_end);
            }
            if host.user_active(w_core) {
                ready += host.preempt_delay(w_core);
            }
            ready.max(self.busy_until[w_core.0])
        };
        // §VI bookkeeping: the governor's cycle-accounting thread runs
        // alongside the worker before it picks up the batch.
        if self.governor.is_some() {
            let start = t.max(self.busy_until[w_core.0]);
            t = self.occupy(
                out,
                w_core,
                start,
                costs.qos_accounting,
                TimeCategory::QosAccounting,
            );
        }
        for &request in batch {
            // §VI: the modified worker thread consults the governor
            // before processing each SSR (Fig. 10/11).
            if let Some(gov) = &mut self.governor {
                loop {
                    match gov.gate(t) {
                        Gate::Proceed => break,
                        Gate::Defer(until) => {
                            self.stats.qos_deferrals += 1;
                            t = until;
                        }
                    }
                }
            }
            let w_shared = host.user_active(w_core);
            let dur = if w_shared {
                costs.worker(request.kind) * 2
            } else {
                costs.worker(request.kind)
            };
            let start = t.max(self.busy_until[w_core.0]);
            let end = self.occupy_opt(out, w_core, start, dur, TimeCategory::Worker, w_shared);
            // --- ⑥ completion --------------------------------------------
            out.push(KernelOutput::SsrComplete { request, at: end });
            self.stats.ssrs_serviced += 1;
            self.stats.latency.record(end - request.raised_at);
            t = end;
        }
        self.worker_tail = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiss_gpu::{SsrId, SsrKind};

    struct FakeHost {
        busy: Vec<bool>,
        preempt: Ns,
        asleep: Vec<bool>,
        wake: Ns,
    }

    impl FakeHost {
        fn idle(cores: usize) -> Self {
            FakeHost {
                busy: vec![false; cores],
                preempt: Ns::from_micros(25),
                asleep: vec![false; cores],
                wake: Ns::from_micros(75),
            }
        }
        fn all_busy(cores: usize) -> Self {
            FakeHost {
                busy: vec![true; cores],
                ..Self::idle(cores)
            }
        }
    }

    impl CoreHost for FakeHost {
        fn num_cores(&self) -> usize {
            self.busy.len()
        }
        fn user_active(&self, core: CoreId) -> bool {
            self.busy[core.0]
        }
        fn preempt_delay(&self, _core: CoreId) -> Ns {
            self.preempt
        }
        fn wake_delay(&self, core: CoreId) -> Ns {
            if self.asleep[core.0] {
                self.wake
            } else {
                Ns::ZERO
            }
        }
    }

    fn req(id: u64, at: Ns) -> SsrRequest {
        SsrRequest {
            id: SsrId(id),
            gpu: 0,
            kind: SsrKind::SoftPageFault,
            page: None,
            raised_at: at,
            blocking: false,
        }
    }

    fn kernel(config: KernelConfig) -> Kernel {
        Kernel::new(config, 4)
    }

    fn completions(out: &[KernelOutput]) -> Vec<Ns> {
        out.iter()
            .filter_map(|o| match o {
                KernelOutput::SsrComplete { at, .. } => Some(*at),
                _ => None,
            })
            .collect()
    }

    fn occupies(out: &[KernelOutput]) -> Vec<(CoreId, Ns, Ns, TimeCategory)> {
        out.iter()
            .filter_map(|o| match o {
                KernelOutput::Occupy {
                    core,
                    start,
                    dur,
                    category,
                    ..
                } => Some((*core, *start, *dur, *category)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn default_chain_hits_three_stages() {
        let mut k = kernel(KernelConfig::default());
        let host = FakeHost::idle(4);
        let out = k.on_interrupt(&host, CoreId(0), vec![req(0, Ns::ZERO)], Ns::ZERO);
        let occ = occupies(&out);
        let cats: Vec<TimeCategory> = occ.iter().map(|(_, _, _, c)| *c).collect();
        assert!(cats.contains(&TimeCategory::TopHalf));
        assert!(cats.contains(&TimeCategory::BottomHalf));
        assert!(cats.contains(&TimeCategory::Worker));
        assert_eq!(k.stats().ssrs_serviced, 1);
        assert_eq!(completions(&out).len(), 1);
    }

    #[test]
    fn cross_core_bottom_half_sends_ipi() {
        let mut k = kernel(KernelConfig::default());
        let host = FakeHost::idle(4);
        // bh kthread homes on core 1; interrupt on core 0 → IPI.
        let out = k.on_interrupt(&host, CoreId(0), vec![req(0, Ns::ZERO)], Ns::ZERO);
        assert!(k.stats().ipis >= 1);
        assert!(out.iter().any(|o| matches!(
            o,
            KernelOutput::Ipi {
                from: CoreId(0),
                to: CoreId(1),
                ..
            }
        )));
    }

    #[test]
    fn monolithic_eliminates_bh_ipi_and_is_faster() {
        let host = FakeHost::idle(4);
        let batch = vec![req(0, Ns::ZERO)];

        let mut plain = kernel(KernelConfig::default());
        let out_plain = plain.on_interrupt(&host, CoreId(0), batch.clone(), Ns::ZERO);

        let mut mono = kernel(KernelConfig {
            monolithic_bottom_half: true,
            ..KernelConfig::default()
        });
        let out_mono = mono.on_interrupt(&host, CoreId(0), batch, Ns::ZERO);

        // No bottom-half category and no bh IPI in the monolithic chain.
        assert!(!occupies(&out_mono)
            .iter()
            .any(|(_, _, _, c)| *c == TimeCategory::BottomHalf));
        // Completion is strictly earlier (no kthread wake delay).
        assert!(completions(&out_mono)[0] < completions(&out_plain)[0]);
        // The paper's trade-off: more time in hard-IRQ context.
        let irq_time = |o: &[KernelOutput]| {
            occupies(o)
                .iter()
                .filter(|(_, _, _, c)| *c == TimeCategory::TopHalf)
                .map(|(_, _, d, _)| *d)
                .sum::<Ns>()
        };
        assert!(irq_time(&out_mono) > irq_time(&out_plain));
    }

    #[test]
    fn bh_affinity_pins_bottom_half() {
        let mut k = kernel(KernelConfig {
            bh_affinity: Some(CoreId(0)),
            ..KernelConfig::default()
        });
        let host = FakeHost::idle(4);
        let out = k.on_interrupt(&host, CoreId(0), vec![req(0, Ns::ZERO)], Ns::ZERO);
        let bh = occupies(&out)
            .into_iter()
            .find(|(_, _, _, c)| *c == TimeCategory::BottomHalf)
            .expect("bottom half present");
        assert_eq!(bh.0, CoreId(0));
        // Same core: no bh IPI.
        assert!(!out
            .iter()
            .any(|o| matches!(o, KernelOutput::Ipi { to: CoreId(0), .. })));
    }

    #[test]
    fn busy_cores_delay_service() {
        let batch = vec![req(0, Ns::ZERO)];
        let mut k_idle = kernel(KernelConfig::default());
        let idle_done = completions(&k_idle.on_interrupt(
            &FakeHost::idle(4),
            CoreId(0),
            batch.clone(),
            Ns::ZERO,
        ))[0];
        let mut k_busy = kernel(KernelConfig::default());
        let busy_done =
            completions(&k_busy.on_interrupt(&FakeHost::all_busy(4), CoreId(0), batch, Ns::ZERO))
                [0];
        assert!(
            busy_done > idle_done,
            "busy {busy_done} should exceed idle {idle_done}"
        );
    }

    #[test]
    fn sleeping_core_delays_top_half() {
        let batch = vec![req(0, Ns::ZERO)];
        let mut host = FakeHost::idle(4);
        host.asleep = vec![true, false, false, false];
        let mut k = kernel(KernelConfig::default());
        let out = k.on_interrupt(&host, CoreId(0), batch, Ns::ZERO);
        let th = occupies(&out)
            .into_iter()
            .find(|(_, _, _, c)| *c == TimeCategory::TopHalf)
            .unwrap();
        assert_eq!(th.1, Ns::from_micros(75)); // waited for CC6 exit
    }

    #[test]
    fn batch_amortises_fixed_costs() {
        let host = FakeHost::idle(4);
        let costs = HandlerCosts::default();
        let mut k = kernel(KernelConfig::default());
        let batch: Vec<SsrRequest> = (0..8).map(|i| req(i, Ns::ZERO)).collect();
        let out = k.on_interrupt(&host, CoreId(0), batch, Ns::ZERO);
        // One top half, one bottom half, eight worker items.
        let occ = occupies(&out);
        let count = |cat| occ.iter().filter(|(_, _, _, c)| *c == cat).count();
        assert_eq!(count(TimeCategory::TopHalf), 1);
        assert_eq!(count(TimeCategory::BottomHalf), 1);
        assert_eq!(count(TimeCategory::Worker), 8);
        assert_eq!(k.stats().ssrs_serviced, 8);
        // Worker items are serial: spaced by exactly the service time.
        let done = completions(&out);
        for pair in done.windows(2) {
            assert_eq!(pair[1] - pair[0], costs.worker(SsrKind::SoftPageFault));
        }
    }

    #[test]
    fn worker_queue_is_fifo_across_interrupts() {
        let host = FakeHost::idle(4);
        let mut k = kernel(KernelConfig::default());
        let out1 = k.on_interrupt(&host, CoreId(0), vec![req(0, Ns::ZERO)], Ns::ZERO);
        let t2 = Ns::from_micros(2);
        let out2 = k.on_interrupt(&host, CoreId(1), vec![req(1, t2)], t2);
        assert!(completions(&out2)[0] > completions(&out1)[0]);
    }

    #[test]
    fn qos_defers_under_load() {
        let host = FakeHost::idle(4);
        let mut k = kernel(KernelConfig {
            qos: Some(QosParams::threshold_percent(1.0)),
            ..KernelConfig::default()
        });
        // Hammer the kernel with interrupts; the governor must start
        // deferring once SSR time exceeds 1% of aggregate CPU time.
        let mut now = Ns::ZERO;
        for i in 0..200 {
            k.on_interrupt(
                &host,
                CoreId((i % 4) as usize),
                vec![req(i as u64, now)],
                now,
            );
            now += Ns::from_micros(10);
        }
        assert!(
            k.stats().qos_deferrals > 0,
            "governor never engaged under saturation"
        );
        // Service latency must reflect throttling: far above the
        // unthrottled ~30µs chain.
        assert!(k.stats().latency.mean() > Ns::from_micros(100));
    }

    #[test]
    #[should_panic(expected = "empty PPR batch")]
    fn empty_batch_panics() {
        let host = FakeHost::idle(4);
        kernel(KernelConfig::default()).on_interrupt(&host, CoreId(0), vec![], Ns::ZERO);
    }

    #[test]
    fn latency_accounts_from_raise_time() {
        let host = FakeHost::idle(4);
        let mut k = kernel(KernelConfig::default());
        // Request raised at t=0, interrupt delivered at t=13µs (coalesced).
        let delivered = Ns::from_micros(13);
        let out = k.on_interrupt(&host, CoreId(0), vec![req(0, Ns::ZERO)], delivered);
        let done = completions(&out)[0];
        assert_eq!(k.stats().latency.count(), 1);
        assert!(k.stats().latency.mean() >= done - delivered);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use hiss_gpu::{SsrId, SsrKind};
    use proptest::prelude::*;

    struct Host {
        busy: Vec<bool>,
    }
    impl CoreHost for Host {
        fn num_cores(&self) -> usize {
            self.busy.len()
        }
        fn user_active(&self, core: CoreId) -> bool {
            self.busy[core.0]
        }
        fn preempt_delay(&self, _c: CoreId) -> Ns {
            Ns::from_micros(20)
        }
        fn wake_delay(&self, _c: CoreId) -> Ns {
            Ns::ZERO
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Kernel occupancy intervals never overlap on any single core,
        /// and every request completes exactly once, for arbitrary
        /// interrupt streams and configurations.
        #[test]
        fn no_core_overlap_and_full_completion(
            arrivals in proptest::collection::vec((0u64..50, 0usize..4, 1usize..5), 1..40),
            monolithic in any::<bool>(),
            busy_mask in 0u8..16,
            qos in any::<bool>(),
        ) {
            let host = Host {
                busy: (0..4).map(|i| busy_mask & (1 << i) != 0).collect(),
            };
            let mut k = Kernel::new(KernelConfig {
                monolithic_bottom_half: monolithic,
                qos: if qos { Some(hiss_qos::QosParams::threshold_percent(5.0)) } else { None },
                ..KernelConfig::default()
            }, 4);
            let mut now = Ns::ZERO;
            let mut next_id = 0u64;
            let mut intervals: Vec<(usize, Ns, Ns)> = Vec::new();
            let mut completed = 0u64;
            let mut raised = 0u64;
            for (gap_us, core, nreq) in arrivals {
                now += Ns::from_micros(gap_us);
                let batch: Vec<SsrRequest> = (0..nreq).map(|_| {
                    let r = SsrRequest {
                        id: SsrId(next_id), gpu: 0, kind: SsrKind::SoftPageFault,
                        page: None, raised_at: now, blocking: false,
                    };
                    next_id += 1;
                    raised += 1;
                    r
                }).collect();
                for o in k.on_interrupt(&host, CoreId(core), batch, now) {
                    match o {
                        KernelOutput::Occupy { core, start, dur, .. } => {
                            intervals.push((core.0, start, start + dur));
                        }
                        KernelOutput::SsrComplete { .. } => completed += 1,
                        KernelOutput::Ipi { .. } => {}
                    }
                }
            }
            prop_assert_eq!(completed, raised);
            prop_assert_eq!(k.stats().ssrs_serviced, raised);
            // Check pairwise non-overlap per core.
            for core in 0..4 {
                let mut ivs: Vec<(Ns, Ns)> = intervals.iter()
                    .filter(|(c, _, _)| *c == core)
                    .map(|(_, s, e)| (*s, *e))
                    .collect();
                ivs.sort();
                for pair in ivs.windows(2) {
                    prop_assert!(
                        pair[0].1 <= pair[1].0,
                        "overlap on core {}: {:?} then {:?}", core, pair[0], pair[1]
                    );
                }
            }
        }

        /// Completions are monotone in raise order for a single-core
        /// stream (FIFO service discipline).
        #[test]
        fn completions_fifo(n in 1usize..30) {
            let host = Host { busy: vec![false; 4] };
            let mut k = Kernel::new(KernelConfig::default(), 4);
            let mut last = Ns::ZERO;
            for i in 0..n {
                let now = Ns::from_micros(i as u64 * 3);
                let batch = vec![SsrRequest {
                    id: SsrId(i as u64), gpu: 0, kind: SsrKind::SoftPageFault,
                    page: None, raised_at: now, blocking: false,
                }];
                for o in k.on_interrupt(&host, CoreId(i % 4), batch, now) {
                    if let KernelOutput::SsrComplete { at, .. } = o {
                        prop_assert!(at >= last);
                        last = at;
                    }
                }
            }
        }
    }
}
