//! The metrics registry: a flat, ordered map of named measurements.

use std::collections::BTreeMap;

use hiss_sim::{Histogram, OnlineStats};

/// Plain-data summary of a [`hiss_sim::Histogram`], suitable for
/// serialization: count, mean, two headline quantiles, and the non-empty
/// buckets (lower bound in ns → observation count).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Number of recorded observations.
    pub count: u64,
    /// Arithmetic mean, ns.
    pub mean_ns: u64,
    /// Median (bucket upper bound), ns.
    pub p50_ns: u64,
    /// 99th percentile (bucket upper bound), ns.
    pub p99_ns: u64,
    /// `(bucket_lower_bound_ns, count)` for every non-empty bucket, in
    /// ascending bound order.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Snapshots a live histogram.
    pub fn from_histogram(h: &Histogram) -> Self {
        HistogramSnapshot {
            count: h.count(),
            mean_ns: h.mean().as_nanos(),
            p50_ns: h.quantile(0.5).as_nanos(),
            p99_ns: h.quantile(0.99).as_nanos(),
            buckets: h.iter().map(|(lo, c)| (lo.as_nanos(), c)).collect(),
        }
    }
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic event count (interrupts, IPIs, cache hits, …).
    Counter(u64),
    /// Point-in-time or derived value (residency fractions, rates, J).
    Gauge(f64),
    /// Identity metadata riding along with a snapshot (app names, sweep
    /// coordinates) so a snapshot file is self-describing.
    Label(String),
    /// A latency distribution.
    Histogram(HistogramSnapshot),
}

/// A process-light registry of named counters, gauges, labels, and
/// histograms with **deterministic iteration order** (lexicographic by
/// name), so two registries filled with the same values serialize to
/// byte-identical snapshots regardless of insertion order or thread
/// count.
///
/// # Example
///
/// ```
/// use hiss_obs::MetricsRegistry;
///
/// let mut reg = MetricsRegistry::new();
/// reg.counter("kernel.ipis", 477);
/// reg.gauge("run.cc6_residency", 0.86);
/// assert_eq!(reg.counter_value("kernel.ipis"), Some(477));
/// let json = reg.to_json();
/// let back = MetricsRegistry::from_json(&json).unwrap();
/// assert_eq!(back.to_json(), json);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsRegistry {
    metrics: BTreeMap<String, MetricValue>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Sets a counter. Re-registering a name overwrites it.
    pub fn counter(&mut self, name: impl Into<String>, value: u64) {
        self.metrics
            .insert(name.into(), MetricValue::Counter(value));
    }

    /// Sets a gauge.
    pub fn gauge(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), MetricValue::Gauge(value));
    }

    /// Sets a label.
    pub fn label(&mut self, name: impl Into<String>, value: impl Into<String>) {
        self.metrics
            .insert(name.into(), MetricValue::Label(value.into()));
    }

    /// Snapshots a histogram under `name`.
    pub fn histogram(&mut self, name: impl Into<String>, h: &Histogram) {
        self.metrics.insert(
            name.into(),
            MetricValue::Histogram(HistogramSnapshot::from_histogram(h)),
        );
    }

    /// Expands a streaming accumulator into `name.count` (counter) plus
    /// `name.mean` / `name.min` / `name.max` / `name.stddev` gauges.
    /// Empty accumulators publish the count alone; their mean/extrema
    /// are placeholders, not measurements.
    pub fn stats(&mut self, name: &str, s: &OnlineStats) {
        self.counter(format!("{name}.count"), s.count());
        if s.count() > 0 {
            self.gauge(format!("{name}.mean"), s.mean());
            self.gauge(format!("{name}.min"), s.min());
            self.gauge(format!("{name}.max"), s.max());
            self.gauge(format!("{name}.stddev"), s.stddev());
        }
    }

    /// Sets an already-snapshotted value.
    pub fn set(&mut self, name: impl Into<String>, value: MetricValue) {
        self.metrics.insert(name.into(), value);
    }

    /// Builds a registry from `(name, value)` pairs in one go; when a
    /// name repeats, its later value wins, as with repeated
    /// [`MetricsRegistry::set`]. Pairs already in name order (a parsed
    /// snapshot's) cost no reordering.
    pub(crate) fn from_pairs(pairs: Vec<(String, MetricValue)>) -> Self {
        MetricsRegistry {
            metrics: pairs.into_iter().collect(),
        }
    }

    /// Looks up a metric by exact name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics.get(name)
    }

    /// The value of a counter, if `name` is a counter.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match self.metrics.get(name) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// The value of a gauge, if `name` is a gauge.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        match self.metrics.get(name) {
            Some(MetricValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// The value of a label, if `name` is a label.
    pub fn label_value(&self, name: &str) -> Option<&str> {
        match self.metrics.get(name) {
            Some(MetricValue::Label(v)) => Some(v.as_str()),
            _ => None,
        }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// `true` when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Iterates metrics in deterministic (lexicographic) name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.metrics.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Copies every metric of `other` into `self` under `prefix.`
    /// (e.g. `merge_prefixed("runner", &pool_profile_registry)` yields
    /// `runner.jobs`, `runner.wall_s`, …).
    pub fn merge_prefixed(&mut self, prefix: &str, other: &MetricsRegistry) {
        for (name, value) in other.iter() {
            self.metrics
                .insert(format!("{prefix}.{name}"), value.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiss_sim::Ns;

    #[test]
    fn iteration_is_sorted_regardless_of_insertion_order() {
        let mut a = MetricsRegistry::new();
        a.counter("z.last", 1);
        a.counter("a.first", 2);
        a.gauge("m.middle", 0.5);
        let names: Vec<&str> = a.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a.first", "m.middle", "z.last"]);
    }

    #[test]
    fn lookup_is_typed() {
        let mut r = MetricsRegistry::new();
        r.counter("c", 7);
        r.gauge("g", 1.5);
        r.label("l", "x264");
        assert_eq!(r.counter_value("c"), Some(7));
        assert_eq!(r.gauge_value("g"), Some(1.5));
        assert_eq!(r.label_value("l"), Some("x264"));
        // Wrong-type lookups return None rather than coercing.
        assert_eq!(r.counter_value("g"), None);
        assert_eq!(r.gauge_value("c"), None);
        assert_eq!(r.counter_value("missing"), None);
    }

    #[test]
    fn histogram_snapshot_captures_distribution() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(Ns::from_nanos(1_000));
        }
        h.record(Ns::from_millis(1));
        let snap = HistogramSnapshot::from_histogram(&h);
        assert_eq!(snap.count, 100);
        assert_eq!(snap.mean_ns, 10_990);
        assert!(snap.p50_ns <= 2048);
        assert_eq!(snap.buckets.iter().map(|(_, c)| c).sum::<u64>(), 100);
    }

    #[test]
    fn merge_prefixed_namespaces_all_entries() {
        let mut inner = MetricsRegistry::new();
        inner.counter("jobs", 10);
        inner.gauge("wall_s", 0.25);
        let mut outer = MetricsRegistry::new();
        outer.merge_prefixed("runner", &inner);
        assert_eq!(outer.counter_value("runner.jobs"), Some(10));
        assert_eq!(outer.gauge_value("runner.wall_s"), Some(0.25));
    }

    #[test]
    fn reregistering_overwrites() {
        let mut r = MetricsRegistry::new();
        r.counter("x", 1);
        r.counter("x", 2);
        assert_eq!(r.counter_value("x"), Some(2));
        assert_eq!(r.len(), 1);
    }
}
