//! The `Device` abstraction: a self-scheduling SSR source.
//!
//! The paper's interference channel (peripheral request → IOMMU → kernel
//! IRQ/worker) is not GPU-specific: any ATS/PRI-capable DMA master raises
//! the same system service requests. This module captures the contract the
//! SoC event loop needs from such a source, so GPUs, NICs and DMA engines
//! plug into one device-indexed loop instead of a hardwired GPU vector.
//!
//! A device is driven pull-style, exactly like the GPU model always was:
//!
//! 1. [`NextTick::next_tick`] reports when the device next wants control
//!    (`None` while stalled or finished — it wakes only via
//!    [`Device::complete`]).
//! 2. The loop calls [`Device::advance_to`] to bill elapsed time, then
//!    [`Device::raise`] to collect the request that is due (stale events
//!    return `None`).
//! 3. Service completions arrive through [`Device::complete`].
//!
//! Every asynchronous state change bumps [`Device::generation`]; the loop
//! stamps scheduled events with it and drops stale ones, which is what
//! keeps the `(time, generation)` arming dedup exact across device kinds.

use crate::event::NextTick;
use crate::rng::Rng;
use crate::time::Ns;

/// Aggregate per-device statistics, uniform across device kinds.
///
/// One counter set for every source, so `devN.*` metrics read the same
/// for a GPU, a NIC or a DMA engine: busy/stalled wall time, SSRs
/// raised/completed, and the completion time of the device's work item,
/// if it finished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Time spent making forward progress.
    pub busy: Ns,
    /// Time stalled waiting on SSR completions.
    pub stalled: Ns,
    /// SSRs raised.
    pub ssrs_raised: u64,
    /// SSRs completed.
    pub ssrs_completed: u64,
    /// Work-item completion time, if finished.
    pub finished_at: Option<Ns>,
}

/// A self-scheduling system-service-request source attached to the SoC.
///
/// The associated types keep the trait generic over the request/completion
/// vocabulary while remaining object-safe once they are fixed: the SoC
/// stores `dyn Device<Request = SsrRequest, Completion = SsrId>` views.
pub trait Device: NextTick {
    /// What the device emits when it raises a service request.
    type Request;
    /// The token a completion is matched by.
    type Completion: Copy;

    /// This device's index within the SoC topology.
    fn id(&self) -> usize;

    /// Short device-kind tag (`"gpu"`, `"nic"`, `"dma"`), published as the
    /// `devN.kind` label.
    fn kind(&self) -> &'static str;

    /// Monotonic counter bumped on every asynchronous state change; the
    /// event loop stamps scheduled device events with it and drops stale
    /// ones.
    fn generation(&self) -> u64;

    /// Advances internal accounting to time `t`: running time becomes
    /// progress, stalled time becomes stall statistics.
    fn advance_to(&mut self, t: Ns);

    /// Raises the request due at the current point, or `None` if nothing
    /// is actually due (the scheduled event was stale). Callers must have
    /// called [`Device::advance_to`] first.
    fn raise(&mut self, now: Ns) -> Option<Self::Request>;

    /// Delivers a service completion. The caller must reschedule device
    /// events afterwards (the generation may change).
    fn complete(&mut self, token: Self::Completion, now: Ns);

    /// `true` once the device's work item has completed.
    fn is_finished(&self) -> bool;

    /// `true` while the device cannot make progress.
    fn is_stalled(&self) -> bool;

    /// Statistics so far.
    fn stats(&self) -> DeviceStats;

    /// Restarts the same work item back-to-back at time `now` with a fresh
    /// RNG stream: progress and statistics reset, but identifier spaces
    /// and the generation counter continue so events belonging to the
    /// previous run cannot alias into this one.
    fn restart(&mut self, rng: Rng, now: Ns);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial device used to pin object-safety and the pull contract.
    struct Pulse {
        id: usize,
        at: Ns,
        fired: u64,
        outstanding: bool,
        generation: u64,
        stats: DeviceStats,
        last: Ns,
    }

    impl NextTick for Pulse {
        fn next_tick(&self, now: Ns) -> Option<Ns> {
            if self.outstanding || self.stats.finished_at.is_some() {
                None
            } else {
                Some(self.at.max(now))
            }
        }
    }

    impl Device for Pulse {
        type Request = u64;
        type Completion = u64;

        fn id(&self) -> usize {
            self.id
        }
        fn kind(&self) -> &'static str {
            "pulse"
        }
        fn generation(&self) -> u64 {
            self.generation
        }
        fn advance_to(&mut self, t: Ns) {
            if t <= self.last {
                return;
            }
            let d = t - self.last;
            if self.outstanding {
                self.stats.stalled += d;
            } else {
                self.stats.busy += d;
            }
            self.last = t;
        }
        fn raise(&mut self, _now: Ns) -> Option<u64> {
            if self.outstanding {
                return None;
            }
            self.outstanding = true;
            self.generation += 1;
            self.stats.ssrs_raised += 1;
            self.fired += 1;
            Some(self.fired)
        }
        fn complete(&mut self, token: u64, now: Ns) {
            assert_eq!(token, self.fired);
            self.advance_to(now);
            self.outstanding = false;
            self.generation += 1;
            self.stats.ssrs_completed += 1;
            if self.fired >= 2 {
                self.stats.finished_at = Some(now);
            } else {
                self.at = now + Ns::from_micros(10);
            }
        }
        fn is_finished(&self) -> bool {
            self.stats.finished_at.is_some()
        }
        fn is_stalled(&self) -> bool {
            self.outstanding
        }
        fn stats(&self) -> DeviceStats {
            self.stats
        }
        fn restart(&mut self, _rng: Rng, now: Ns) {
            self.outstanding = false;
            self.generation += 1;
            self.stats = DeviceStats::default();
            self.at = now;
            self.last = now;
        }
    }

    #[test]
    fn trait_is_object_safe_and_drives_pull_style() {
        let mut p = Pulse {
            id: 3,
            at: Ns::from_micros(5),
            fired: 0,
            outstanding: false,
            generation: 0,
            stats: DeviceStats::default(),
            last: Ns::ZERO,
        };
        let dev: &mut dyn Device<Request = u64, Completion = u64> = &mut p;
        assert_eq!(dev.id(), 3);
        assert_eq!(dev.kind(), "pulse");
        let mut now = Ns::ZERO;
        while let Some(t) = dev.next_tick(now) {
            dev.advance_to(t);
            now = t;
            let req = dev.raise(now).expect("due");
            assert!(dev.is_stalled());
            assert!(dev.next_tick(now).is_none());
            now += Ns::from_micros(2);
            dev.complete(req, now);
        }
        assert!(dev.is_finished());
        let s = dev.stats();
        assert_eq!(s.ssrs_raised, 2);
        assert_eq!(s.ssrs_completed, 2);
        assert_eq!(s.busy + s.stalled, now);
    }
}
