//! Kernel-thread placement.
//!
//! The bottom-half kthread and the SSR worker thread are ordinary kernel
//! threads: the scheduler's wake-balancing decides where they run. The
//! policy modelled here mirrors CFS wake placement at the granularity the
//! experiments need:
//!
//! 1. a hard affinity wins (used when the paper pins the bottom half to
//!    the interrupt-steered core),
//! 2. a thread whose current core has no user work stays put (cache
//!    affinity),
//! 3. otherwise it migrates to the lowest-numbered core without user
//!    work, if any,
//! 4. otherwise it stays and contends with the user thread there —
//!    paying that application's preemption latency.

use hiss_cpu::CoreId;

use crate::kernel::CoreHost;

/// A floating kernel thread (bottom half or worker).
#[derive(Debug, Clone)]
pub struct Kthread {
    name: &'static str,
    home: CoreId,
    affinity: Option<CoreId>,
    migrations: u64,
    /// Rotation cursor used when every core is user-busy: CFS load
    /// balancing keeps moving the kthread so no single application
    /// thread absorbs all of its CPU time.
    rotate: usize,
}

impl Kthread {
    /// Creates a kthread currently resident on `home`.
    pub fn new(name: &'static str, home: CoreId) -> Self {
        Kthread {
            name,
            home,
            affinity: None,
            migrations: 0,
            rotate: home.0,
        }
    }

    /// Pins the thread to `core` (or clears the pin with `None`).
    pub fn set_affinity(&mut self, core: Option<CoreId>) {
        self.affinity = core;
    }

    /// The thread's name (diagnostics).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Where the thread currently lives.
    pub fn home(&self) -> CoreId {
        self.home
    }

    /// How many times the thread migrated between cores.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Chooses the core this thread will run on for its next activation
    /// and updates its home.
    pub fn place<H: CoreHost + ?Sized>(&mut self, host: &H) -> CoreId {
        let chosen = self.choose(host);
        if chosen != self.home {
            self.migrations += 1;
            self.home = chosen;
        }
        chosen
    }

    fn choose<H: CoreHost + ?Sized>(&mut self, host: &H) -> CoreId {
        if let Some(core) = self.affinity {
            assert!(
                core.0 < host.num_cores(),
                "kthread {} pinned to out-of-range core {core}",
                self.name
            );
            // Core reservation outranks even a hard pin: a reserved
            // core must never run floating kernel threads.
            if !host.reserved(core) {
                return core;
            }
        }
        if !host.user_active(self.home) && !host.reserved(self.home) {
            return self.home;
        }
        for c in 0..host.num_cores() {
            let core = CoreId(c);
            if !host.user_active(core) && !host.reserved(core) {
                return core;
            }
        }
        // Every eligible core has user work: rotate (CFS load balancing)
        // over the non-reserved cores so the kthread's CPU consumption
        // spreads over all best-effort application threads instead of
        // starving one of them.
        for _ in 0..host.num_cores() {
            self.rotate = (self.rotate + 1) % host.num_cores();
            if !host.reserved(CoreId(self.rotate)) {
                return CoreId(self.rotate);
            }
        }
        CoreId(self.rotate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiss_sim::Ns;

    /// Test host with a fixed set of user-busy cores.
    struct FakeHost {
        busy: Vec<bool>,
    }

    impl CoreHost for FakeHost {
        fn num_cores(&self) -> usize {
            self.busy.len()
        }
        fn user_active(&self, core: CoreId) -> bool {
            self.busy[core.0]
        }
        fn preempt_delay(&self, _core: CoreId) -> Ns {
            Ns::from_micros(20)
        }
        fn wake_delay(&self, _core: CoreId) -> Ns {
            Ns::ZERO
        }
    }

    /// Test host whose first `reserved` cores are a critical partition.
    struct ReservingHost {
        busy: Vec<bool>,
        reserved: usize,
    }

    impl CoreHost for ReservingHost {
        fn num_cores(&self) -> usize {
            self.busy.len()
        }
        fn user_active(&self, core: CoreId) -> bool {
            self.busy[core.0]
        }
        fn preempt_delay(&self, _core: CoreId) -> Ns {
            Ns::from_micros(20)
        }
        fn wake_delay(&self, _core: CoreId) -> Ns {
            Ns::ZERO
        }
        fn reserved(&self, core: CoreId) -> bool {
            core.0 < self.reserved
        }
    }

    #[test]
    fn affinity_overrides_everything() {
        let host = FakeHost {
            busy: vec![true, true, true, true],
        };
        let mut t = Kthread::new("bh", CoreId(1));
        t.set_affinity(Some(CoreId(3)));
        assert_eq!(t.place(&host), CoreId(3));
        assert_eq!(t.home(), CoreId(3));
    }

    #[test]
    fn idle_home_means_no_migration() {
        let host = FakeHost {
            busy: vec![true, false, true, true],
        };
        let mut t = Kthread::new("bh", CoreId(1));
        assert_eq!(t.place(&host), CoreId(1));
        assert_eq!(t.migrations(), 0);
    }

    #[test]
    fn busy_home_migrates_to_idle_core() {
        let host = FakeHost {
            busy: vec![true, true, false, false],
        };
        let mut t = Kthread::new("worker", CoreId(0));
        assert_eq!(t.place(&host), CoreId(2));
        assert_eq!(t.migrations(), 1);
        // Second placement: stays on its new idle home.
        assert_eq!(t.place(&host), CoreId(2));
        assert_eq!(t.migrations(), 1);
    }

    #[test]
    fn all_busy_rotates_over_cores() {
        let host = FakeHost {
            busy: vec![true, true, true, true],
        };
        let mut t = Kthread::new("worker", CoreId(2));
        let seq: Vec<usize> = (0..8).map(|_| t.place(&host).0).collect();
        assert_eq!(seq, vec![3, 0, 1, 2, 3, 0, 1, 2]);
        assert!(t.migrations() > 0);
    }

    #[test]
    fn reserved_cores_never_receive_kernel_threads() {
        // Core 0 reserved and idle; the thread must skip it everywhere:
        // as an affinity target, as an idle home, and in rotation.
        let host = ReservingHost {
            busy: vec![false, true, true, true],
            reserved: 1,
        };
        let mut t = Kthread::new("worker", CoreId(0));
        t.set_affinity(Some(CoreId(0)));
        assert_ne!(t.place(&host), CoreId(0), "reservation outranks affinity");
        t.set_affinity(None);
        t.home = CoreId(0);
        assert_ne!(t.place(&host), CoreId(0), "idle reserved home abandoned");
        // All best-effort cores busy: rotation covers only cores 1..4.
        let seq: Vec<usize> = (0..6).map(|_| t.place(&host).0).collect();
        assert!(seq.iter().all(|&c| c != 0), "{seq:?}");
    }

    #[test]
    #[should_panic(expected = "out-of-range")]
    fn bad_affinity_panics() {
        let host = FakeHost {
            busy: vec![true, true],
        };
        let mut t = Kthread::new("bh", CoreId(0));
        t.set_affinity(Some(CoreId(5)));
        t.place(&host);
    }
}
