//! Replicated runs (paper §III: "We ran each combination of CPU and GPU
//! benchmark 3 times to increase confidence in our results").
//!
//! The simulator is deterministic per seed, so replication here means
//! re-running with derived seeds and summarising the spread. Use this to
//! check that a conclusion is not an artifact of one seed's SSR arrival
//! pattern.

use hiss_sim::OnlineStats;

use crate::metrics::RunReport;
use crate::soc::ExperimentBuilder;

/// Summary of one metric across replicas.
#[derive(Debug, Clone, Copy, Default)]
pub struct MetricSummary {
    /// Mean across replicas.
    pub mean: f64,
    /// Population standard deviation.
    pub stddev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl MetricSummary {
    fn from_stats(s: &OnlineStats) -> Self {
        MetricSummary {
            mean: s.mean(),
            stddev: s.stddev(),
            min: s.min(),
            max: s.max(),
        }
    }

    /// Half-width of a ~95% normal confidence interval for the mean.
    pub fn ci95(&self, n: usize) -> f64 {
        if n < 2 {
            return 0.0;
        }
        1.96 * self.stddev / (n as f64).sqrt()
    }
}

/// Aggregate results of `n` replicated runs.
#[derive(Debug, Clone, Default)]
pub struct Replicated {
    /// Number of replicas.
    pub n: usize,
    /// CPU application runtime in seconds (only replicas that finished).
    pub cpu_runtime_s: MetricSummary,
    /// GPU throughput.
    pub gpu_throughput: MetricSummary,
    /// SSR completion rate.
    pub ssr_rate: MetricSummary,
    /// CPU SSR overhead fraction.
    pub cpu_ssr_overhead: MetricSummary,
    /// CC6 residency.
    pub cc6_residency: MetricSummary,
    /// Every individual report, for custom reductions.
    pub reports: Vec<RunReport>,
}

/// Runs the experiment `n` times with seeds derived from the builder's
/// base seed, and summarises the headline metrics.
///
/// # Panics
///
/// Panics if `n` is zero.
///
/// # Example
///
/// ```
/// use hiss::{replicate, ExperimentBuilder, SystemConfig};
///
/// let builder = ExperimentBuilder::new(SystemConfig::a10_7850k())
///     .cpu_app("swaptions")
///     .gpu_app("bfs");
/// let reps = replicate(builder, 3);
/// assert_eq!(reps.n, 3);
/// // Seeds differ, so runs differ — but only by noise, not conclusion.
/// assert!(reps.cpu_runtime_s.stddev / reps.cpu_runtime_s.mean < 0.05);
/// ```
pub fn replicate(builder: ExperimentBuilder, n: usize) -> Replicated {
    assert!(n > 0, "need at least one replica");
    let mut runtime = OnlineStats::new();
    let mut thpt = OnlineStats::new();
    let mut rate = OnlineStats::new();
    let mut overhead = OnlineStats::new();
    let mut cc6 = OnlineStats::new();
    let mut reports = Vec::with_capacity(n);
    let base_seed = builder.base_seed();
    for i in 0..n {
        let report = builder
            .clone()
            .seed(base_seed.wrapping_add(0x9E37_79B9 * i as u64))
            .run();
        if let Some(t) = report.cpu_app_runtime() {
            runtime.push(t.as_secs_f64());
        }
        thpt.push(report.gpu_throughput());
        rate.push(report.ssr_rate());
        overhead.push(report.cpu_ssr_overhead());
        cc6.push(report.cc6_residency());
        reports.push(report);
    }
    Replicated {
        n,
        cpu_runtime_s: MetricSummary::from_stats(&runtime),
        gpu_throughput: MetricSummary::from_stats(&thpt),
        ssr_rate: MetricSummary::from_stats(&rate),
        cpu_ssr_overhead: MetricSummary::from_stats(&overhead),
        cc6_residency: MetricSummary::from_stats(&cc6),
        reports,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;

    #[test]
    fn replicas_vary_but_agree() {
        let builder = ExperimentBuilder::new(SystemConfig::a10_7850k())
            .cpu_app("x264")
            .gpu_app("ubench");
        let reps = replicate(builder, 3);
        assert_eq!(reps.n, 3);
        assert_eq!(reps.reports.len(), 3);
        // Different seeds produce different (but close) runtimes.
        assert!(reps.cpu_runtime_s.max > reps.cpu_runtime_s.min);
        let rel_spread =
            (reps.cpu_runtime_s.max - reps.cpu_runtime_s.min) / reps.cpu_runtime_s.mean;
        assert!(rel_spread < 0.10, "seed spread too wide: {rel_spread}");
        assert!(reps.ssr_rate.mean > 0.0);
    }

    #[test]
    fn ci_shrinks_with_more_replicas() {
        let s = MetricSummary {
            mean: 10.0,
            stddev: 1.0,
            min: 9.0,
            max: 11.0,
        };
        assert!(s.ci95(9) < s.ci95(4));
        assert_eq!(s.ci95(1), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn zero_replicas_rejected() {
        let builder = ExperimentBuilder::new(SystemConfig::a10_7850k()).cpu_app("x264");
        replicate(builder, 0);
    }
}
