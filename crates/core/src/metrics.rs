//! Run-level measurement report.

use hiss_obs::{HistogramSnapshot, MetricValue, MetricsRegistry};
use hiss_sim::Ns;

use crate::trace::Trace;

/// Everything measured in one simulation run.
///
/// The registry is the one copy of the run's results: every accessor
/// below reads it under the name [`Soc`](crate::Soc) publishes, and a
/// key that is missing (or holds another kind of value) reads as 0, or
/// as `None` where the accessor returns an `Option`. So a report rebuilt
/// from a doctored snapshot never panics.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Structured snapshot of every component's counters (`kernel.*`,
    /// `iommu.*`, `cpu.*`, `gpu*.*`, `qos.*`, `run.*`, `energy.*`).
    /// Built purely from deterministic simulation state, so it is
    /// bit-identical across `HISS_THREADS` settings; serialize with
    /// [`MetricsRegistry::to_json`].
    pub metrics: MetricsRegistry,
    /// Activity trace, when requested via
    /// [`ExperimentBuilder::trace_window`](crate::ExperimentBuilder::trace_window).
    pub trace: Option<Trace>,
}

impl RunReport {
    /// Wraps a stored metrics snapshot (the disk store's payload — see
    /// [`crate::store`]). Every accessor reads exactly what the fresh run
    /// read; only `trace` is `None`, since traces are never stored.
    pub fn from_metrics(metrics: MetricsRegistry) -> RunReport {
        RunReport {
            metrics,
            trace: None,
        }
    }

    fn counter(&self, name: &str) -> u64 {
        self.metrics.counter_value(name).unwrap_or(0)
    }

    fn gauge(&self, name: &str) -> f64 {
        self.metrics.gauge_value(name).unwrap_or(0.0)
    }

    /// One field of the `kernel.latency` histogram (`Ns::ZERO` when the
    /// run recorded no SSR latencies).
    fn latency(&self, field: impl Fn(&HistogramSnapshot) -> u64) -> Ns {
        match self.metrics.get("kernel.latency") {
            Some(MetricValue::Histogram(h)) => Ns::from_nanos(field(h)),
            _ => Ns::ZERO,
        }
    }

    /// Wall-clock length of the run (`run.elapsed_ns`).
    pub fn elapsed(&self) -> Ns {
        Ns::from_nanos(self.counter("run.elapsed_ns"))
    }

    /// When the CPU application's last thread finished (its runtime), if
    /// a CPU application was present and finished
    /// (`run.cpu_app_runtime_ns`).
    pub fn cpu_app_runtime(&self) -> Option<Ns> {
        self.metrics
            .counter_value("run.cpu_app_runtime_ns")
            .map(Ns::from_nanos)
    }

    /// GPU throughput: progress per second of wall time (1.0 = a GPU that
    /// never stalls).
    pub fn gpu_throughput(&self) -> f64 {
        self.gauge("run.gpu_throughput")
    }

    /// SSR completions per second of wall time (the ubench metric).
    pub fn ssr_rate(&self) -> f64 {
        self.gauge("run.ssr_rate")
    }

    /// Mean CC6 residency across cores (Fig. 4 / Fig. 9 y-axis).
    pub fn cc6_residency(&self) -> f64 {
        self.gauge("run.cc6_residency")
    }

    /// Fraction of aggregate CPU time spent on SSR overhead.
    pub fn cpu_ssr_overhead(&self) -> f64 {
        self.gauge("run.cpu_ssr_overhead")
    }

    /// Time-averaged L1D coldness across cores running user threads
    /// (proxy for the Fig. 5a miss-rate increase).
    pub fn avg_cache_coldness(&self) -> f64 {
        self.gauge("run.avg_cache_coldness")
    }

    /// Time-averaged branch-predictor coldness (Fig. 5b proxy).
    pub fn avg_branch_coldness(&self) -> f64 {
        self.gauge("run.avg_branch_coldness")
    }

    /// SSRs fully serviced.
    pub fn ssrs_serviced(&self) -> u64 {
        self.counter("kernel.ssrs_serviced")
    }

    /// IPIs sent to wake kernel threads.
    pub fn ipis(&self) -> u64 {
        self.counter("kernel.ipis")
    }

    /// QoS deferral episodes.
    pub fn qos_deferrals(&self) -> u64 {
        self.counter("kernel.qos_deferrals")
    }

    /// Mean end-to-end SSR latency.
    pub fn mean_ssr_latency(&self) -> Ns {
        self.latency(|h| h.mean_ns)
    }

    /// 99th-percentile SSR latency (bucket upper bound).
    pub fn p99_ssr_latency(&self) -> Ns {
        self.latency(|h| h.p99_ns)
    }

    /// SSR interrupts per core (`/proc/interrupts` view): the
    /// `kernel.interrupts.core{i}` counters for `i = 0, 1, …` up to the
    /// first missing one.
    pub fn interrupts_per_core(&self) -> Vec<u64> {
        (0..)
            .map_while(|i| {
                self.metrics
                    .counter_value(&format!("kernel.interrupts.core{i}"))
            })
            .collect()
    }

    /// Total CPU core energy in joules (extension).
    pub fn cpu_joules(&self) -> f64 {
        self.gauge("energy.cpu_joules")
    }

    /// Average CPU power in watts (extension).
    pub fn cpu_avg_watts(&self) -> f64 {
        self.gauge("energy.cpu_avg_watts")
    }

    /// CPU-application performance of this run normalised to a baseline
    /// run (1.0 = no slowdown; the paper's Fig. 3a/6/12a y-axis).
    ///
    /// Returns `None` if either run lacks a finished CPU application.
    pub fn cpu_perf_vs(&self, baseline: &RunReport) -> Option<f64> {
        let mine = self.cpu_app_runtime()?;
        let base = baseline.cpu_app_runtime()?;
        Some(base.as_nanos() as f64 / mine.as_nanos() as f64)
    }

    /// GPU throughput of this run normalised to a baseline run (the
    /// paper's Fig. 3b/6/12b y-axis).
    pub fn gpu_perf_vs(&self, baseline: &RunReport) -> f64 {
        let base = baseline.gpu_throughput();
        if base == 0.0 {
            return 0.0;
        }
        self.gpu_throughput() / base
    }

    /// SSR rate normalised to a baseline (the ubench performance metric
    /// in Figs. 6–7).
    pub fn ssr_rate_vs(&self, baseline: &RunReport) -> f64 {
        let base = baseline.ssr_rate();
        if base == 0.0 {
            return 0.0;
        }
        self.ssr_rate() / base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report whose registry holds just the normalisation inputs.
    fn report(runtime_ms: Option<u64>, gpu_throughput: f64, ssr_rate: f64) -> RunReport {
        let mut m = MetricsRegistry::new();
        if let Some(ms) = runtime_ms {
            m.counter("run.cpu_app_runtime_ns", Ns::from_millis(ms).as_nanos());
        }
        m.gauge("run.gpu_throughput", gpu_throughput);
        m.gauge("run.ssr_rate", ssr_rate);
        RunReport::from_metrics(m)
    }

    #[test]
    fn normalisation_math() {
        let fast = report(Some(10), 0.8, 50_000.0);
        let slow = report(Some(20), 0.4, 25_000.0);
        assert_eq!(slow.cpu_perf_vs(&fast), Some(0.5));
        assert_eq!(slow.gpu_perf_vs(&fast), 0.5);
        assert_eq!(slow.ssr_rate_vs(&fast), 0.5);
    }

    #[test]
    fn missing_runtime_yields_none() {
        let a = report(None, 0.5, 1.0);
        let b = report(Some(1), 0.5, 1.0);
        assert_eq!(a.cpu_perf_vs(&b), None);
        assert_eq!(b.cpu_perf_vs(&a), None);
    }

    #[test]
    fn zero_baseline_throughput_is_zero_not_nan() {
        let a = report(Some(1), 0.5, 1.0);
        let zero = RunReport::default();
        assert_eq!(a.gpu_perf_vs(&zero), 0.0);
        assert_eq!(a.ssr_rate_vs(&zero), 0.0);
    }

    /// A missing key, or one doctored to another kind, reads as 0 or
    /// `None`; per-core interrupts stop at the first gap.
    #[test]
    fn missing_or_mistyped_keys_read_as_zero() {
        let mut m = MetricsRegistry::new();
        m.gauge("run.elapsed_ns", 1.0);
        m.counter("kernel.latency", 7);
        m.counter("kernel.interrupts.core0", 3);
        m.counter("kernel.interrupts.core2", 5);
        let r = RunReport::from_metrics(m);
        assert_eq!(r.elapsed(), Ns::ZERO);
        assert_eq!(r.cpu_app_runtime(), None);
        assert_eq!(r.gpu_throughput(), 0.0);
        assert_eq!(r.ssrs_serviced(), 0);
        assert_eq!(r.mean_ssr_latency(), Ns::ZERO);
        assert_eq!(r.p99_ssr_latency(), Ns::ZERO);
        assert_eq!(r.interrupts_per_core(), vec![3]);
        assert_eq!(
            RunReport::default().interrupts_per_core(),
            Vec::<u64>::new()
        );
    }
}
