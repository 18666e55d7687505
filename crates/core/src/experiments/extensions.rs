//! Experiments beyond the paper (DESIGN.md §8).
//!
//! - [`multi_gpu_scaling`]: the paper motivates its findings with future
//!   accelerator-rich SoCs; this sweep instantiates N concurrent
//!   SSR-generating GPUs and measures CPU interference growth.
//! - [`coalescing_window_sweep`]: the 13 µs window is a hardware maximum,
//!   not an optimum; sweep it.
//! - [`outstanding_limit_sweep`]: the QoS mechanism leans on the
//!   hardware outstanding-SSR limit; sweep it to show how backpressure
//!   strength depends on it.
//! - [`adaptive_qos`]: §VI future work — pick the throttle threshold
//!   automatically from a target CPU performance floor.

use crate::config::SystemConfig;
use crate::experiments::render_table;
use crate::runner::RunCtx;
use crate::soc::ExperimentBuilder;
use hiss_qos::QosParams;
use hiss_sim::Ns;

/// One point of the multi-accelerator scaling sweep.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// Number of concurrent SSR-generating GPUs.
    pub gpus: usize,
    /// Normalised CPU application performance.
    pub cpu_perf: f64,
    /// Mean CC6 residency.
    pub cc6_residency: f64,
    /// Aggregate SSR rate (per second).
    pub ssr_rate: f64,
}

/// Runs `cpu_app` against 1..=`max_gpus` concurrent copies of `gpu_app`.
pub fn multi_gpu_scaling(
    ctx: &RunCtx,
    cfg: &SystemConfig,
    cpu_app: &str,
    gpu_app: &str,
    max_gpus: usize,
) -> Vec<ScalingRow> {
    let base = ctx.cache().cpu_baseline(cfg, cpu_app, gpu_app);
    ctx.run_jobs(max_gpus, |i| {
        let n = i + 1;
        let mut b = ExperimentBuilder::new(*cfg).cpu_app(cpu_app);
        for _ in 0..n {
            b = b.gpu_app(gpu_app);
        }
        let run = b.run();
        ScalingRow {
            gpus: n,
            cpu_perf: run.cpu_perf_vs(&base).expect("runs finish"),
            cc6_residency: run.cc6_residency,
            ssr_rate: run.ssr_rate,
        }
    })
}

/// Renders the scaling sweep.
pub fn render_scaling(rows: &[ScalingRow]) -> String {
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.gpus.to_string(),
                format!("{:.3}", r.cpu_perf),
                format!("{:.1}%", r.cc6_residency * 100.0),
                format!("{:.0}", r.ssr_rate),
            ]
        })
        .collect();
    render_table(&["GPUs", "CPU perf", "CC6", "SSR/s"], &data)
}

/// One point of the coalescing-window sweep.
#[derive(Debug, Clone)]
pub struct WindowRow {
    /// Coalescing window.
    pub window: Ns,
    /// Normalised CPU application performance (vs the no-SSR pairing).
    pub cpu_perf: f64,
    /// GPU SSR rate relative to the zero-window run.
    pub gpu_ratio: f64,
    /// Interrupts per serviced SSR (1.0 = no batching).
    pub interrupts_per_ssr: f64,
}

/// Sweeps the IOMMU coalescing window from 0 to the hardware maximum.
pub fn coalescing_window_sweep(
    ctx: &RunCtx,
    cfg: &SystemConfig,
    cpu_app: &str,
    gpu_app: &str,
    windows_us: &[u64],
) -> Vec<WindowRow> {
    let base = ctx.cache().cpu_baseline(cfg, cpu_app, gpu_app);
    // Window runs are independent; only the normalisation (everything is
    // relative to the *first* window's SSR rate) is order-dependent, so
    // run in parallel and fold the ratios serially afterwards.
    let runs = ctx.par_map(windows_us, |us| {
        let mut cfg2 = *cfg;
        cfg2.coalesce_window = Ns::from_micros(*us);
        ExperimentBuilder::new(cfg2)
            .cpu_app(cpu_app)
            .gpu_app(gpu_app)
            .mitigation(crate::config::Mitigation {
                coalesce: *us > 0,
                ..crate::config::Mitigation::DEFAULT
            })
            .run()
    });
    let zero = runs.first().map(|r| r.ssr_rate).unwrap_or(0.0);
    windows_us
        .iter()
        .zip(&runs)
        .map(|(us, run)| {
            let interrupts: u64 = run.kernel.interrupts_per_core.iter().sum();
            WindowRow {
                window: Ns::from_micros(*us),
                cpu_perf: run.cpu_perf_vs(&base).expect("runs finish"),
                gpu_ratio: if zero > 0.0 { run.ssr_rate / zero } else { 0.0 },
                interrupts_per_ssr: interrupts as f64 / run.kernel.ssrs_serviced.max(1) as f64,
            }
        })
        .collect()
}

/// One point of the outstanding-SSR-limit sweep.
#[derive(Debug, Clone)]
pub struct LimitRow {
    /// Hardware outstanding-SSR limit.
    pub limit: usize,
    /// ubench SSR rate under `th_1` throttling, relative to unthrottled.
    pub throttled_ratio: f64,
}

/// Shows how the QoS backpressure leverage depends on the hardware
/// outstanding-request limit.
pub fn outstanding_limit_sweep(
    ctx: &RunCtx,
    cfg: &SystemConfig,
    limits: &[usize],
) -> Vec<LimitRow> {
    ctx.par_map(limits, |&limit| {
        let mut cfg2 = *cfg;
        cfg2.gpu.max_outstanding = limit;
        let free = ExperimentBuilder::new(cfg2).gpu_app("ubench").run();
        let throttled = ExperimentBuilder::new(cfg2)
            .gpu_app("ubench")
            .qos(QosParams::threshold_percent(1.0))
            .run();
        LimitRow {
            limit,
            throttled_ratio: throttled.ssr_rate_vs(&free),
        }
    })
}

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
    let perfs = ctx.par_map(&[1usize, 2], |&core| run(core));
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
    fn more_gpus_mean_more_interference() {
        let cfg = SystemConfig::a10_7850k();
        // sssp is not service-bound on its own, so extra accelerators
        // genuinely add SSR pressure (ubench alone already saturates the
        // handling chain — an interesting finding in its own right).
        let rows = multi_gpu_scaling(&RunCtx::new(2), &cfg, "x264", "sssp", 3);
        assert_eq!(rows.len(), 3);
        assert!(
            rows[2].cpu_perf < rows[0].cpu_perf - 0.02,
            "3 GPUs should hurt more than 1: {} vs {}",
            rows[2].cpu_perf,
            rows[0].cpu_perf
        );
        assert!(rows[2].ssr_rate > rows[0].ssr_rate * 1.5);
    }

    #[test]
    fn window_sweep_batches_more_with_larger_windows() {
        let cfg = SystemConfig::a10_7850k();
        let rows =
            coalescing_window_sweep(&RunCtx::new(2), &cfg, "blackscholes", "ubench", &[0, 13]);
        assert!(
            rows[1].interrupts_per_ssr < rows[0].interrupts_per_ssr,
            "13µs window should batch: {} vs {}",
            rows[1].interrupts_per_ssr,
            rows[0].interrupts_per_ssr
        );
    }

    #[test]
    fn backpressure_works_across_outstanding_limits() {
        let cfg = SystemConfig::a10_7850k();
        let rows = outstanding_limit_sweep(&RunCtx::new(2), &cfg, &[4, 256]);
        // The sweep's finding (EXPERIMENTS.md): throttled throughput is
        // nearly limit-independent — the service *delay* regulates the
        // rate; the hardware limit only bounds the transient. Both
        // settings must be deeply throttled and close to each other.
        for r in &rows {
            assert!(
                r.throttled_ratio < 0.2,
                "limit {}: ratio {} not throttled",
                r.limit,
                r.throttled_ratio
            );
        }
        assert!(
            (rows[0].throttled_ratio - rows[1].throttled_ratio).abs() < 0.05,
            "limit 4 ratio {} vs limit 256 ratio {}",
            rows[0].throttled_ratio,
            rows[1].throttled_ratio
        );
    }

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
