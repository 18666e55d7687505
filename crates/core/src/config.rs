//! System and mitigation configuration (paper Table II and §V).

use hiss_cpu::{CoreId, CpuParams};
use hiss_gpu::GpuParams;
use hiss_iommu::{Iommu, MsiSteering};
use hiss_kernel::HandlerCosts;
use hiss_qos::QosParams;
use hiss_sim::Ns;

/// The three §V mitigation techniques, as composable switches.
///
/// All three are orthogonal and can be combined (§V-D evaluates all
/// eight combinations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Mitigation {
    /// §V-A: steer all SSR interrupts to a single core (the paper also
    /// pins the bottom-half kthread there).
    pub steer_single_core: bool,
    /// §V-B: coalesce interrupts in the IOMMU for up to 13 µs.
    pub coalesce: bool,
    /// §V-C: run the bottom-half pre-processing inside the top half.
    pub monolithic_bottom_half: bool,
}

impl Mitigation {
    /// No mitigation — the paper's default configuration.
    pub const DEFAULT: Mitigation = Mitigation {
        steer_single_core: false,
        coalesce: false,
        monolithic_bottom_half: false,
    };

    /// A short label matching the paper's figure legends.
    pub fn label(&self) -> String {
        let mut parts = Vec::new();
        if self.steer_single_core {
            parts.push("Intr_to_single_core");
        }
        if self.coalesce {
            parts.push("Intr_coalescing");
        }
        if self.monolithic_bottom_half {
            parts.push("Monolithic_bottom_half");
        }
        if parts.is_empty() {
            "Default".to_string()
        } else {
            parts.join(" + ")
        }
    }
}

/// Mixed-criticality partitioning configuration (the mitigation axis
/// the safety-critical literature adds on top of the paper's three
/// techniques). Class 0 is *critical*, class 1 is *best-effort*;
/// devices named by `critical_device_mask` raise class-0 SSRs, the
/// first `critical_cores` cores belong to the critical class, and the
/// partitioned IOMMU path keeps the classes' event logs, coalescing
/// timers, and interrupt targets apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CriticalityConfig {
    /// Bit i set ⇒ device i (topology order) raises critical SSRs.
    pub critical_device_mask: u64,
    /// Cores `[0, critical_cores)` are the critical partition.
    pub critical_cores: usize,
    /// Core reservation: critical cores never receive SSR interrupts
    /// or kernel worker threads.
    pub reserve: bool,
    /// Best-effort share of the 128-entry PPR event log, percent
    /// (1–100); the critical class keeps the remainder.
    pub ppr_quota_percent: u32,
    /// Coalescing window for critical-class requests ([`Ns::ZERO`]
    /// fires immediately).
    pub critical_window: Ns,
    /// Coalescing window for best-effort requests.
    pub best_effort_window: Ns,
}

impl Default for CriticalityConfig {
    fn default() -> Self {
        CriticalityConfig {
            critical_device_mask: 0,
            critical_cores: 1,
            reserve: true,
            ppr_quota_percent: 50,
            critical_window: Ns::ZERO,
            best_effort_window: Ns::ZERO,
        }
    }
}

/// Full mitigation + QoS configuration of one run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MitigationConfig {
    /// §V techniques.
    pub mitigation: Mitigation,
    /// §VI QoS governor, if enabled.
    pub qos: Option<QosParams>,
    /// Mixed-criticality partitioning, if classes are assigned.
    pub criticality: Option<CriticalityConfig>,
}

/// Static configuration of the simulated SoC (paper Table II).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// Number of CPU cores.
    pub num_cores: usize,
    /// Per-core CPU parameters.
    pub cpu: CpuParams,
    /// GPU parameters.
    pub gpu: GpuParams,
    /// SSR handler cost model.
    pub costs: HandlerCosts,
    /// Coalescing window used when [`Mitigation::coalesce`] is set.
    pub coalesce_window: Ns,
    /// Core that single-core steering pins interrupts (and the bottom
    /// half) to.
    pub steer_target: CoreId,
    /// Period of the background OS scheduler tick on every core
    /// ([`Ns::ZERO`] disables it). A periodic (non-tickless) tick is what
    /// keeps even a quiet system below 100% CC6 residency — the paper's
    /// no-SSR baseline is 86%.
    pub timer_tick: Ns,
    /// CPU cost of one scheduler tick.
    pub tick_cost: Ns,
    /// Safety cap on simulated time per run.
    pub max_sim_time: Ns,
    /// Root RNG seed.
    pub seed: u64,
}

impl SystemConfig {
    /// The paper's testbed: AMD A10-7850K — 4 × 3.7 GHz Family 15h cores,
    /// 720 MHz GCN 1.1 GPU, Linux 4.0 + HSA driver (Table II).
    pub fn a10_7850k() -> Self {
        SystemConfig {
            num_cores: 4,
            cpu: CpuParams::default(),
            gpu: GpuParams::gcn11_a10(),
            costs: HandlerCosts::default(),
            coalesce_window: Iommu::MAX_COALESCE_WINDOW,
            steer_target: CoreId(0),
            timer_tick: Ns::from_millis(2),
            tick_cost: Ns::from_micros(3),
            max_sim_time: Ns::from_secs(30),
            seed: 0x1155_C0DE,
        }
    }

    /// The IOMMU steering policy implied by a mitigation choice.
    pub fn steering(&self, mitigation: Mitigation) -> MsiSteering {
        if mitigation.steer_single_core {
            MsiSteering::single(self.steer_target)
        } else {
            MsiSteering::spread()
        }
    }

    /// The coalescing window implied by a mitigation choice (zero when
    /// coalescing is off).
    pub fn window(&self, mitigation: Mitigation) -> Ns {
        if mitigation.coalesce {
            self.coalesce_window
        } else {
            Ns::ZERO
        }
    }

    /// This configuration as a run under `mitigation` reads it: the
    /// steering target and the coalescing window revert to Table II's
    /// when the technique that reads them is off. A simulation reads
    /// them only through [`Self::steering`], [`Self::window`] and the
    /// steered bottom half, so two configurations with equal effective
    /// forms run identically under `mitigation`.
    pub fn effective(&self, mitigation: Mitigation) -> SystemConfig {
        let table2 = SystemConfig::a10_7850k();
        SystemConfig {
            steer_target: if mitigation.steer_single_core {
                self.steer_target
            } else {
                table2.steer_target
            },
            coalesce_window: if mitigation.coalesce {
                self.coalesce_window
            } else {
                table2.coalesce_window
            },
            ..*self
        }
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::a10_7850k()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_configuration() {
        let c = SystemConfig::a10_7850k();
        assert_eq!(c.num_cores, 4);
        assert!((c.cpu.freq_ghz - 3.7).abs() < 1e-12);
        assert_eq!(c.gpu.freq_mhz, 720);
    }

    /// The eight §V-D combinations have eight distinct legend labels.
    #[test]
    fn eight_mitigation_combinations() {
        let labels: Vec<String> = (0u8..8)
            .map(|bits| {
                Mitigation {
                    steer_single_core: bits & 1 != 0,
                    coalesce: bits & 2 != 0,
                    monolithic_bottom_half: bits & 4 != 0,
                }
                .label()
            })
            .collect();
        assert_eq!(labels[0], "Default");
        for (i, a) in labels.iter().enumerate() {
            assert!(!labels[i + 1..].contains(a), "duplicate label {a}");
        }
    }

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(Mitigation::DEFAULT.label(), "Default");
        let all_three = Mitigation {
            steer_single_core: true,
            coalesce: true,
            monolithic_bottom_half: true,
        };
        assert_eq!(
            all_three.label(),
            "Intr_to_single_core + Intr_coalescing + Monolithic_bottom_half"
        );
    }

    #[test]
    fn steering_and_window_follow_mitigation() {
        let c = SystemConfig::a10_7850k();
        assert_eq!(c.steering(Mitigation::DEFAULT), MsiSteering::spread());
        assert_eq!(c.window(Mitigation::DEFAULT), Ns::ZERO);
        let m = Mitigation {
            steer_single_core: true,
            coalesce: true,
            monolithic_bottom_half: false,
        };
        assert_eq!(c.steering(m), MsiSteering::single(CoreId(0)));
        assert_eq!(c.window(m), Ns::from_micros(13));
    }
}
