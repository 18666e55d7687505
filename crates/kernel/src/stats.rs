//! Kernel-side counters, mirroring what the paper reads from
//! `/proc/interrupts`, IPI counters, and driver instrumentation.

use hiss_obs::MetricsRegistry;
use hiss_sim::{Histogram, OnlineStats};

/// Counters for one simulation run.
#[derive(Debug, Clone)]
pub struct KernelStats {
    /// SSR interrupts taken, per core (`/proc/interrupts` view; §IV-C
    /// observes the default spreads these evenly across all CPUs).
    pub interrupts_per_core: Vec<u64>,
    /// Inter-processor interrupts sent to wake kernel threads (477×
    /// inflation under the microbenchmark, §IV-C).
    pub ipis: u64,
    /// SSRs fully serviced.
    pub ssrs_serviced: u64,
    /// End-to-end SSR latency (raise → completion).
    pub latency: Histogram,
    /// Requests per interrupt batch (coalescing efficacy).
    pub batch_size: OnlineStats,
    /// QoS deferral episodes applied by the governor.
    pub qos_deferrals: u64,
}

impl KernelStats {
    /// Creates zeroed counters for `num_cores` CPUs.
    pub fn new(num_cores: usize) -> Self {
        KernelStats {
            interrupts_per_core: vec![0; num_cores],
            ipis: 0,
            ssrs_serviced: 0,
            latency: Histogram::new(),
            batch_size: OnlineStats::new(),
            qos_deferrals: 0,
        }
    }

    /// Total SSR interrupts across all cores.
    pub fn total_interrupts(&self) -> u64 {
        self.interrupts_per_core.iter().sum()
    }

    /// Largest / smallest per-core interrupt count ratio — 1.0 means
    /// perfectly even spreading (§IV-C), large values mean steering.
    pub fn interrupt_imbalance(&self) -> f64 {
        let max = self.interrupts_per_core.iter().copied().max().unwrap_or(0);
        let min = self.interrupts_per_core.iter().copied().min().unwrap_or(0);
        if min == 0 {
            if max == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            max as f64 / min as f64
        }
    }

    /// Publishes the `/proc/interrupts`-style view into a metrics
    /// registry under `prefix`: per-core and total interrupt counters,
    /// IPI and service counts, the end-to-end latency histogram, and the
    /// batch-size distribution.
    pub fn publish(&self, reg: &mut MetricsRegistry, prefix: &str) {
        for (core, &n) in self.interrupts_per_core.iter().enumerate() {
            reg.counter(format!("{prefix}.interrupts.core{core}"), n);
        }
        reg.counter(
            format!("{prefix}.interrupts.total"),
            self.total_interrupts(),
        );
        reg.counter(format!("{prefix}.ipis"), self.ipis);
        reg.counter(format!("{prefix}.ssrs_serviced"), self.ssrs_serviced);
        reg.counter(format!("{prefix}.qos_deferrals"), self.qos_deferrals);
        reg.histogram(format!("{prefix}.latency"), &self.latency);
        reg.stats(&format!("{prefix}.batch"), &self.batch_size);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiss_sim::Ns;

    #[test]
    fn zeroed_on_creation() {
        let s = KernelStats::new(4);
        assert_eq!(s.total_interrupts(), 0);
        assert_eq!(s.ipis, 0);
        assert_eq!(s.latency.mean(), Ns::ZERO);
        assert_eq!(s.interrupt_imbalance(), 1.0);
    }

    #[test]
    fn imbalance_detects_steering() {
        let mut s = KernelStats::new(4);
        s.interrupts_per_core = vec![100, 100, 100, 100];
        assert_eq!(s.interrupt_imbalance(), 1.0);
        s.interrupts_per_core = vec![400, 0, 0, 0];
        assert!(s.interrupt_imbalance().is_infinite());
        s.interrupts_per_core = vec![300, 50, 25, 25];
        assert_eq!(s.interrupt_imbalance(), 12.0);
    }

    #[test]
    fn total_sums_cores() {
        let mut s = KernelStats::new(2);
        s.interrupts_per_core = vec![3, 9];
        assert_eq!(s.total_interrupts(), 12);
    }

    #[test]
    fn publish_exports_per_core_and_aggregate_counters() {
        let mut s = KernelStats::new(2);
        s.interrupts_per_core = vec![3, 9];
        s.ipis = 477;
        s.ssrs_serviced = 11;
        s.qos_deferrals = 2;
        s.latency.record(Ns::from_micros(25));
        s.batch_size.push(4.0);
        s.batch_size.push(8.0);
        let mut reg = MetricsRegistry::new();
        s.publish(&mut reg, "kernel");
        assert_eq!(reg.counter_value("kernel.interrupts.core0"), Some(3));
        assert_eq!(reg.counter_value("kernel.interrupts.core1"), Some(9));
        assert_eq!(reg.counter_value("kernel.interrupts.total"), Some(12));
        assert_eq!(reg.counter_value("kernel.ipis"), Some(477));
        assert_eq!(reg.counter_value("kernel.ssrs_serviced"), Some(11));
        assert_eq!(reg.counter_value("kernel.qos_deferrals"), Some(2));
        assert_eq!(reg.counter_value("kernel.batch.count"), Some(2));
        assert_eq!(reg.gauge_value("kernel.batch.mean"), Some(6.0));
        match reg.get("kernel.latency") {
            Some(hiss_obs::MetricValue::Histogram(h)) => assert_eq!(h.count, 1),
            other => panic!("expected latency histogram, got {other:?}"),
        }
    }
}
