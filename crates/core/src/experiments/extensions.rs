//! Experiments beyond the paper (DESIGN.md §8) that are not scenario
//! packs.
//!
//! - [`module_pairing`]: steering SSR handling to the victim's
//!   shared-L2 module sibling vs. the other module.
//! - [`adaptive_qos`]: §VI future work — pick the throttle threshold
//!   automatically from a target CPU performance floor.
//!
//! Both stay Rust because a pack cannot say them. `adaptive_qos` is a
//! bisection: each probe's threshold depends on the previous probe's
//! verdict, so its cells are not a grid known before the run.
//! `module_pairing` runs a custom victim (a single-threaded variant of a
//! catalog application) that no `[workload]` name denotes. The other
//! extension sweeps (multi-GPU scaling, coalescing window, outstanding
//! limit) are packs folded by `hiss_scenario::figures`.

use crate::config::SystemConfig;
use crate::runner::RunCtx;
use crate::soc::ExperimentBuilder;
use hiss_qos::QosParams;

/// Result of the module-pairing study.
#[derive(Debug, Clone, Copy)]
pub struct ModulePairing {
    /// Victim performance with SSR handling steered to its module
    /// sibling (shares the L2).
    pub sibling_perf: f64,
    /// Victim performance with SSR handling steered to the other module.
    pub remote_perf: f64,
}

/// Beyond the paper: on the A10-7850K, cores come in 2-core modules
/// sharing an L2. Steering the SSR interrupts (and the pinned bottom
/// half) to the victim's module *sibling* pollutes the shared L2;
/// steering to the other module does not. Runs a single-threaded victim
/// on core 0 and compares steering targets core 1 (sibling) vs core 2
/// (remote module).
pub fn module_pairing(ctx: &RunCtx, cfg: &SystemConfig, gpu_app: &str) -> ModulePairing {
    let victim = {
        // A single-threaded, L2-sensitive victim derived from the catalog.
        let mut spec = hiss_workloads::CpuAppSpec::by_name("fluidanimate").expect("exists");
        spec.threads = 1;
        spec
    };
    let run = |steer_core: usize| {
        let mut c = *cfg;
        c.steer_target = hiss_cpu::CoreId(steer_core);
        let base = ExperimentBuilder::new(c)
            .cpu_spec(victim)
            .gpu_app_pinned(gpu_app)
            .run();
        let noisy = ExperimentBuilder::new(c)
            .cpu_spec(victim)
            .gpu_app(gpu_app)
            .mitigation(crate::config::Mitigation {
                steer_single_core: true,
                ..crate::config::Mitigation::DEFAULT
            })
            .run();
        noisy.cpu_perf_vs(&base).expect("runs finish")
    };
    let perfs = ctx.run_jobs(2, |i| run([1, 2][i]));
    ModulePairing {
        sibling_perf: perfs[0],
        remote_perf: perfs[1],
    }
}

/// Result of the adaptive-QoS search.
#[derive(Debug, Clone)]
pub struct AdaptiveResult {
    /// Threshold (percent) the search settled on.
    pub threshold_percent: f64,
    /// Achieved normalised CPU performance.
    pub cpu_perf: f64,
    /// Resulting normalised GPU throughput.
    pub gpu_perf: f64,
}

/// §VI future work: finds, by bisection over the throttle threshold, the
/// loosest threshold that keeps the CPU application within
/// `max_cpu_loss` (e.g. 0.1 = at most 10 % slowdown), maximising GPU
/// throughput subject to that floor.
///
/// The bisection is inherently sequential (each probe depends on the
/// previous verdict), so this stays off the job pool; its baselines
/// still come from the context's cache.
pub fn adaptive_qos(
    ctx: &RunCtx,
    cfg: &SystemConfig,
    cpu_app: &str,
    gpu_app: &str,
    max_cpu_loss: f64,
    iterations: usize,
) -> AdaptiveResult {
    let base = ctx.cache().cpu_baseline(cfg, cpu_app, gpu_app);
    let gpu_base = ctx.cache().gpu_idle_baseline(cfg, gpu_app);
    let eval = |pct: f64| {
        let run = ExperimentBuilder::new(*cfg)
            .cpu_app(cpu_app)
            .gpu_app(gpu_app)
            .qos(QosParams::threshold_percent(pct))
            .run();
        (
            run.cpu_perf_vs(&base).expect("runs finish"),
            run.ssr_rate_vs(&gpu_base),
        )
    };
    let (mut lo, mut hi) = (0.5f64, 50.0f64);
    let mut best = (lo, eval(lo));
    for _ in 0..iterations {
        let mid = (lo * hi).sqrt(); // geometric bisection: thresholds span decades
        let (cpu_perf, gpu_perf) = eval(mid);
        if cpu_perf >= 1.0 - max_cpu_loss {
            // Constraint satisfied: try looser (more GPU throughput).
            best = (mid, (cpu_perf, gpu_perf));
            lo = mid;
        } else {
            hi = mid;
        }
    }
    AdaptiveResult {
        threshold_percent: best.0,
        cpu_perf: best.1 .0,
        gpu_perf: best.1 .1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sibling_steering_hurts_more_than_remote() {
        let cfg = SystemConfig::a10_7850k();
        let p = module_pairing(&RunCtx::new(2), &cfg, "ubench");
        assert!(
            p.sibling_perf < p.remote_perf,
            "shared-L2 sibling should suffer more: sibling {} vs remote {}",
            p.sibling_perf,
            p.remote_perf
        );
        assert!(
            p.remote_perf > 0.8,
            "remote steering should mostly protect the victim"
        );
    }

    #[test]
    fn adaptive_qos_meets_its_floor() {
        let cfg = SystemConfig::a10_7850k();
        let r = adaptive_qos(&RunCtx::new(1), &cfg, "x264", "ubench", 0.10, 4);
        assert!(
            r.cpu_perf >= 0.88,
            "adaptive threshold missed the floor: {}",
            r.cpu_perf
        );
        assert!(r.threshold_percent > 0.0);
    }
}
