//! The canonical metric-namespace schema.
//!
//! Every name a component may publish into a [`crate::MetricsRegistry`]
//! is declared here, statically, as a pattern. The schema is the single
//! source of truth three consumers are linted against:
//!
//! - scenario `[expect]` metrics (each maps to a registry name),
//! - `docs/OBSERVABILITY.md` (every documented name must resolve),
//! - live registries produced by a run (conformance test in
//!   `tests/observability.rs`).
//!
//! Patterns are dotted names where a segment may be:
//!
//! - a literal (`ipis`, `cc6_residency`),
//! - an indexed family — a literal ending in `N` (`coreN`, `devN`,
//!   `classN`) matching that stem followed by a decimal index,
//! - `*`, matching exactly one arbitrary segment (sweep-axis labels).

/// The value type a schema entry promises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic `u64` event count.
    Counter,
    /// Point-in-time or derived `f64`.
    Gauge,
    /// Identity metadata string.
    Label,
    /// A latency distribution snapshot.
    Histogram,
}

impl MetricKind {
    /// Lowercase kind name used in docs and diagnostics.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Label => "label",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Which registry a name appears in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// `RunReport::metrics` — deterministic simulation state only.
    Run,
    /// Per-cell identity added by the scenario compiler.
    Cell,
    /// `hiss-cli bench` suite snapshots and the committed
    /// `BENCH_BASELINE.json` (deterministic work counters only).
    Bench,
}

/// One declared name pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchemaEntry {
    /// Dotted pattern, e.g. `cpu.coreN.sleep_cc6_ns`.
    pub pattern: &'static str,
    /// Promised value type.
    pub kind: MetricKind,
    /// Registry the name belongs to.
    pub scope: Scope,
    /// One-line meaning.
    pub doc: &'static str,
}

const fn run_c(pattern: &'static str, doc: &'static str) -> SchemaEntry {
    SchemaEntry {
        pattern,
        kind: MetricKind::Counter,
        scope: Scope::Run,
        doc,
    }
}

const fn run_g(pattern: &'static str, doc: &'static str) -> SchemaEntry {
    SchemaEntry {
        pattern,
        kind: MetricKind::Gauge,
        scope: Scope::Run,
        doc,
    }
}

const fn bench_c(pattern: &'static str, doc: &'static str) -> SchemaEntry {
    SchemaEntry {
        pattern,
        kind: MetricKind::Counter,
        scope: Scope::Bench,
        doc,
    }
}

const fn bench_l(pattern: &'static str, doc: &'static str) -> SchemaEntry {
    SchemaEntry {
        pattern,
        kind: MetricKind::Label,
        scope: Scope::Bench,
        doc,
    }
}

/// The full declared namespace. Kept in publish order per component so a
/// reviewer can diff this against the `publish` methods it mirrors.
pub const SCHEMA: &[SchemaEntry] = &[
    // KernelStats::publish ("kernel")
    run_c("kernel.interrupts.coreN", "SSR interrupts taken by core N"),
    run_c("kernel.interrupts.total", "SSR interrupts across all cores"),
    run_c("kernel.ipis", "wakeup IPIs sent to kernel worker threads"),
    run_c("kernel.ssrs_serviced", "SSRs fully serviced"),
    run_c("kernel.qos_deferrals", "QoS deferral episodes applied"),
    SchemaEntry {
        pattern: "kernel.latency",
        kind: MetricKind::Histogram,
        scope: Scope::Run,
        doc: "end-to-end SSR latency (raise to completion)",
    },
    run_c("kernel.batch.count", "interrupt batches observed"),
    run_g("kernel.batch.mean", "mean requests per interrupt batch"),
    run_g("kernel.batch.min", "smallest interrupt batch"),
    run_g("kernel.batch.max", "largest interrupt batch"),
    run_g("kernel.batch.stddev", "batch-size standard deviation"),
    // IommuStats::publish ("iommu")
    run_c("iommu.requests", "SSRs enqueued to the IOMMU event log"),
    run_c("iommu.interrupts", "log-threshold interrupts raised"),
    run_c("iommu.timer_fires", "batching-timer expirations"),
    run_c(
        "iommu.log_full_flushes",
        "forced flushes on a full event log",
    ),
    run_c("iommu.drained", "requests drained from the event log"),
    // WalkerStats::publish ("iommu.walker")
    run_c("iommu.walker.walks", "page-table walks performed"),
    run_c("iommu.walker.memory_fetches", "memory fetches during walks"),
    run_c("iommu.walker.pwc_hits", "page-walk-cache hits"),
    run_g(
        "iommu.walker.pwc_hit_rate",
        "PWC hit fraction (when walked)",
    ),
    // TimeBreakdown::publish ("cpu.coreN" per core, "cpu.total" summed)
    run_c("cpu.coreN.user_ns", "user-mode application time, core N"),
    run_c("cpu.coreN.top_half_ns", "interrupt top-half time, core N"),
    run_c("cpu.coreN.ipi_ns", "IPI send/receive time, core N"),
    run_c(
        "cpu.coreN.bottom_half_ns",
        "softirq/bottom-half time, core N",
    ),
    run_c("cpu.coreN.worker_ns", "kernel worker-thread time, core N"),
    run_c(
        "cpu.coreN.mode_switch_ns",
        "user/kernel switch time, core N",
    ),
    run_c("cpu.coreN.idle_shallow_ns", "shallow-idle time, core N"),
    run_c("cpu.coreN.sleep_cc6_ns", "CC6 deep-sleep time, core N"),
    run_c(
        "cpu.coreN.cstate_transition_ns",
        "C-state entry/exit, core N",
    ),
    run_c("cpu.coreN.qos_accounting_ns", "QoS governor time, core N"),
    run_c("cpu.coreN.os_tick_ns", "periodic OS tick time, core N"),
    run_g("cpu.coreN.cc6_residency", "CC6 residency fraction, core N"),
    run_g("cpu.coreN.ssr_overhead", "SSR-servicing fraction, core N"),
    SchemaEntry {
        pattern: "cpu.coreN.class",
        kind: MetricKind::Label,
        scope: Scope::Run,
        doc: "criticality class of core N (critical, best_effort)",
    },
    run_c("cpu.total.user_ns", "user-mode application time, all cores"),
    run_c(
        "cpu.total.top_half_ns",
        "interrupt top-half time, all cores",
    ),
    run_c("cpu.total.ipi_ns", "IPI send/receive time, all cores"),
    run_c("cpu.total.bottom_half_ns", "softirq time, all cores"),
    run_c("cpu.total.worker_ns", "kernel worker time, all cores"),
    run_c("cpu.total.mode_switch_ns", "mode-switch time, all cores"),
    run_c("cpu.total.idle_shallow_ns", "shallow-idle time, all cores"),
    run_c("cpu.total.sleep_cc6_ns", "CC6 deep-sleep time, all cores"),
    run_c(
        "cpu.total.cstate_transition_ns",
        "C-state entry/exit, total",
    ),
    run_c(
        "cpu.total.qos_accounting_ns",
        "QoS governor time, all cores",
    ),
    run_c("cpu.total.os_tick_ns", "periodic OS tick time, all cores"),
    run_g("cpu.total.cc6_residency", "whole-package CC6 residency"),
    run_g("cpu.total.ssr_overhead", "whole-package SSR overhead"),
    // publish_device_stats ("devN") — one block per SSR source (GPUs,
    // NICs, DMA engines) in topology order.
    SchemaEntry {
        pattern: "devN.kind",
        kind: MetricKind::Label,
        scope: Scope::Run,
        doc: "device N model kind (gpu, nic, dma)",
    },
    run_c("devN.busy_ns", "device N busy time"),
    run_c("devN.stalled_ns", "device N time stalled on SSRs"),
    run_c("devN.ssrs_raised", "SSRs raised by device N"),
    run_c("devN.ssrs_completed", "SSRs completed for device N"),
    run_c(
        "devN.finished_at_ns",
        "device N work completion time (if any)",
    ),
    run_c(
        "devN.iterations",
        "workload iterations finished on device N",
    ),
    // Governor::publish ("qos"), present only when QoS is enabled
    run_c("qos.deferrals", "interrupts deferred by the governor"),
    run_c("qos.passes", "interrupts passed through immediately"),
    run_c("qos.recorded_ns", "kernel time accounted by the governor"),
    run_g("qos.threshold", "configured kernel-time threshold fraction"),
    // Soc per-class accounting ("qos.classN"), present only when a
    // scenario assigns criticality classes. `qos.classes` is the guard
    // marker the per-class conservation laws key on.
    run_c(
        "qos.classes",
        "criticality classes in the run (2 when enabled)",
    ),
    run_c("qos.classN.requests", "SSRs raised by class-N devices"),
    run_c("qos.classN.drained", "requests drained for class N"),
    run_c("qos.classN.interrupts", "interrupts delivered for class N"),
    run_c("qos.classN.ssrs_serviced", "SSRs serviced for class N"),
    run_c("qos.classN.deferrals", "QoS deferrals hit by class N"),
    run_c(
        "qos.classN.quota_flushes",
        "forced flushes of class N's partitioned log",
    ),
    run_g(
        "qos.classN.mean_latency_us",
        "mean SSR latency for class N, microseconds",
    ),
    run_g(
        "qos.classN.p99_latency_us",
        "99th-percentile SSR latency for class N, microseconds",
    ),
    // Soc::finalize derived metrics ("run", "energy")
    run_c("run.elapsed_ns", "simulated wall time of the run"),
    run_c(
        "run.cpu_app_runtime_ns",
        "CPU benchmark runtime (if it ran)",
    ),
    run_c("run.gpu_progress_ns", "summed GPU busy progress"),
    run_g("run.gpu_throughput", "GPU busy fraction of elapsed time"),
    run_c("run.gpu_iterations", "workload iterations across all GPUs"),
    run_c("run.gpu_ssrs_raised", "SSRs raised by GPU-kind devices"),
    run_c("run.devices", "SSR-raising devices instantiated in the run"),
    run_c(
        "run.aux_ssrs_raised",
        "SSRs raised by non-GPU devices (NIC, DMA)",
    ),
    run_c(
        "run.aux_iterations",
        "workload iterations finished on non-GPU devices",
    ),
    run_g("run.ssr_rate", "SSRs raised per simulated second"),
    run_g("run.cc6_residency", "whole-run CC6 residency fraction"),
    run_g("run.cpu_ssr_overhead", "whole-run SSR-servicing fraction"),
    run_g(
        "run.avg_cache_coldness",
        "mean cache coldness on user cores",
    ),
    run_g(
        "run.avg_branch_coldness",
        "mean branch coldness on user cores",
    ),
    run_c("run.pending_at_end", "SSRs still pending at simulation end"),
    run_c("run.truncated", "1 when the run hit the time limit"),
    run_c(
        "run.events_pushed",
        "events pushed onto the simulation calendar",
    ),
    run_c(
        "run.events_popped",
        "events popped from the simulation calendar",
    ),
    run_c(
        "run.events_peak",
        "high watermark of events pending on the calendar",
    ),
    run_g("energy.cpu_joules", "modeled CPU package energy"),
    run_g("energy.cpu_avg_watts", "modeled average CPU package power"),
    run_c(
        "run.invariants_checked",
        "conservation laws audited when the run was finalized",
    ),
    // Scenario compiler cell identity (compile.rs::cell_metrics)
    SchemaEntry {
        pattern: "cell.cpu_app",
        kind: MetricKind::Label,
        scope: Scope::Cell,
        doc: "CPU benchmark name for this grid cell",
    },
    SchemaEntry {
        pattern: "cell.gpu_app",
        kind: MetricKind::Label,
        scope: Scope::Cell,
        doc: "GPU benchmark name for this grid cell",
    },
    SchemaEntry {
        pattern: "cell.replica",
        kind: MetricKind::Counter,
        scope: Scope::Cell,
        doc: "replica index within the cell",
    },
    SchemaEntry {
        pattern: "cell.topology",
        kind: MetricKind::Label,
        scope: Scope::Cell,
        doc: "declarative device topology of the cell (kind@steer list)",
    },
    SchemaEntry {
        pattern: "cell.axis.*",
        kind: MetricKind::Label,
        scope: Scope::Cell,
        doc: "sweep-axis coordinate (one label per swept key)",
    },
    // hiss-cli bench suite snapshots (crates/scenario bench_suite) and
    // the committed BENCH_BASELINE.json. Everything here is a
    // deterministic work counter or identity label, so `bench check`
    // can hold it to an exact (or banded) tolerance.
    bench_l("bench.suite", "bench suite name this snapshot belongs to"),
    bench_l(
        "bench.baseline.version",
        "baseline file format version (meta line)",
    ),
    bench_l(
        "bench.baseline.reason",
        "operator-supplied reason for the last `bench update`",
    ),
    bench_c("bench.cells", "scenario cells executed by the suite"),
    bench_c(
        "bench.pool.invocations",
        "job-pool invocations during the suite (delta)",
    ),
    bench_c(
        "bench.pool.jobs",
        "jobs scheduled on the pool during the suite (delta)",
    ),
    bench_c(
        "bench.cache.hits",
        "BaselineCache hits during the suite (delta)",
    ),
    bench_c(
        "bench.cache.misses",
        "BaselineCache misses during the suite (delta)",
    ),
    bench_c(
        "bench.cache.entries",
        "distinct BaselineCache entries at suite end",
    ),
    bench_c(
        "bench.alloc.bytes",
        "heap bytes allocated by the probe run (banded ±25%)",
    ),
    bench_c(
        "bench.alloc.allocs",
        "heap allocations by the probe run (banded ±25%)",
    ),
    // hiss-serve serving suite (crates/serve suite.rs): Service and
    // DiskStore lifetime counters after a double submission against a
    // wiped store — all deterministic work counts.
    bench_c("bench.serve.requests", "scenario submissions accepted"),
    bench_c(
        "bench.serve.rejected",
        "submissions rejected by the scenario lint",
    ),
    bench_c(
        "bench.serve.queue_peak",
        "high watermark of cells queued by one submission",
    ),
    bench_c(
        "bench.serve.cells_simulated",
        "cells executed by the engine on a store miss",
    ),
    bench_c(
        "bench.serve.cells_from_store",
        "cells served from the disk store without simulating",
    ),
    bench_c("bench.serve.store_hits", "valid disk-store entry hits"),
    bench_c(
        "bench.serve.store_misses",
        "disk-store lookups that found no valid entry",
    ),
    bench_c(
        "bench.serve.store_invalid",
        "corrupt/truncated/wrong-version entries detected (recomputed)",
    ),
    bench_c(
        "bench.serve.store_writes",
        "entries published to the disk store (write-then-rename)",
    ),
    bench_c(
        "bench.serve.cells_audited",
        "run registries audited against the conservation laws before \
         being served or stored (disk reads and simulations; memo hits \
         run none)",
    ),
    bench_c("bench.cell.*.kernel_ipis", "per-cell kernel.ipis"),
    bench_c(
        "bench.cell.*.kernel_ssrs_serviced",
        "per-cell kernel.ssrs_serviced",
    ),
    bench_c(
        "bench.cell.*.kernel_interrupts",
        "per-cell kernel.interrupts.total",
    ),
    bench_c("bench.cell.*.iommu_requests", "per-cell iommu.requests"),
    bench_c("bench.cell.*.iommu_drained", "per-cell iommu.drained"),
    bench_c("bench.cell.*.walker_walks", "per-cell iommu.walker.walks"),
    bench_c(
        "bench.cell.*.walker_memory_fetches",
        "per-cell iommu.walker.memory_fetches",
    ),
    bench_c("bench.cell.*.events_pushed", "per-cell run.events_pushed"),
    bench_c("bench.cell.*.events_popped", "per-cell run.events_popped"),
    bench_c("bench.cell.*.events_peak", "per-cell run.events_peak"),
    bench_c("bench.cell.*.elapsed_ns", "per-cell run.elapsed_ns"),
    bench_c("bench.cell.*.gpu_iterations", "per-cell run.gpu_iterations"),
    bench_c(
        "bench.cell.*.aux_ssrs_raised",
        "per-cell run.aux_ssrs_raised",
    ),
    bench_c("bench.cell.*.pending_at_end", "per-cell run.pending_at_end"),
    bench_c("bench.total.kernel_ipis", "suite-summed kernel.ipis"),
    bench_c(
        "bench.total.kernel_ssrs_serviced",
        "suite-summed kernel.ssrs_serviced",
    ),
    bench_c(
        "bench.total.kernel_interrupts",
        "suite-summed kernel.interrupts.total",
    ),
    bench_c("bench.total.iommu_requests", "suite-summed iommu.requests"),
    bench_c("bench.total.iommu_drained", "suite-summed iommu.drained"),
    bench_c(
        "bench.total.walker_walks",
        "suite-summed iommu.walker.walks",
    ),
    bench_c(
        "bench.total.walker_memory_fetches",
        "suite-summed iommu.walker.memory_fetches",
    ),
    bench_c(
        "bench.total.events_pushed",
        "suite-summed run.events_pushed",
    ),
    bench_c(
        "bench.total.events_popped",
        "suite-summed run.events_popped",
    ),
    bench_c(
        "bench.total.events_peak",
        "suite-summed run.events_peak (a capacity bound, not a gauge of any single instant)",
    ),
    bench_c("bench.total.elapsed_ns", "suite-summed run.elapsed_ns"),
    bench_c(
        "bench.total.gpu_iterations",
        "suite-summed run.gpu_iterations",
    ),
    bench_c(
        "bench.total.aux_ssrs_raised",
        "suite-summed run.aux_ssrs_raised",
    ),
    bench_c(
        "bench.total.pending_at_end",
        "suite-summed run.pending_at_end",
    ),
];

/// Matches one pattern segment against one name segment.
///
/// `*` matches anything; a literal ending in `N` also matches its stem
/// followed by a decimal index (`coreN` matches `core0`, `core12`).
pub(crate) fn segment_matches(pat: &str, seg: &str) -> bool {
    if pat == "*" || pat == seg {
        return true;
    }
    if let Some(stem) = pat.strip_suffix('N') {
        if let Some(idx) = seg.strip_prefix(stem) {
            return !idx.is_empty() && idx.bytes().all(|b| b.is_ascii_digit());
        }
    }
    false
}

/// Whether `pattern` (dotted, with `N`/`*` placeholders) matches the
/// concrete dotted `name` segment-for-segment.
pub fn pattern_matches(pattern: &str, name: &str) -> bool {
    let mut pats = pattern.split('.');
    let mut segs = name.split('.');
    loop {
        match (pats.next(), segs.next()) {
            (None, None) => return true,
            (Some(p), Some(s)) if segment_matches(p, s) => {}
            _ => return false,
        }
    }
}

/// Looks up the schema entry a concrete metric name conforms to.
pub fn lookup(name: &str) -> Option<&'static SchemaEntry> {
    SCHEMA.iter().find(|e| pattern_matches(e.pattern, name))
}

/// The distinct first segments of every pattern (the namespace roots:
/// `kernel`, `iommu`, `cpu`, `devN`, `qos`, `run`, `energy`, `cell`,
/// `bench`), in first-appearance order.
pub fn roots() -> Vec<&'static str> {
    let mut out: Vec<&'static str> = Vec::new();
    for e in SCHEMA {
        let root = e.pattern.split('.').next().unwrap_or(e.pattern);
        if !out.contains(&root) {
            out.push(root);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_patterns_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for e in SCHEMA {
            assert!(seen.insert(e.pattern), "duplicate pattern {}", e.pattern);
        }
    }

    #[test]
    fn indexed_families_match_digits_only() {
        assert!(pattern_matches(
            "cpu.coreN.sleep_cc6_ns",
            "cpu.core0.sleep_cc6_ns"
        ));
        assert!(pattern_matches(
            "cpu.coreN.sleep_cc6_ns",
            "cpu.core15.sleep_cc6_ns"
        ));
        assert!(!pattern_matches(
            "cpu.coreN.sleep_cc6_ns",
            "cpu.coreX.sleep_cc6_ns"
        ));
        assert!(!pattern_matches(
            "cpu.coreN.sleep_cc6_ns",
            "cpu.core.sleep_cc6_ns"
        ));
        assert!(pattern_matches("devN.busy_ns", "dev3.busy_ns"));
        assert!(!pattern_matches("devN.busy_ns", "dev.busy_ns"));
    }

    #[test]
    fn wildcard_matches_exactly_one_segment() {
        assert!(pattern_matches("cell.axis.*", "cell.axis.qos_percent"));
        assert!(!pattern_matches("cell.axis.*", "cell.axis"));
        assert!(!pattern_matches("cell.axis.*", "cell.axis.a.b"));
    }

    #[test]
    fn lookup_finds_known_names_and_rejects_unknown() {
        let e = lookup("kernel.ipis").expect("kernel.ipis");
        assert_eq!(e.kind, MetricKind::Counter);
        assert_eq!(e.scope, Scope::Run);
        let e = lookup("cpu.total.cc6_residency").expect("cc6_residency");
        assert_eq!(e.kind, MetricKind::Gauge);
        assert!(lookup("cpu.total.cc6").is_none());
        assert!(lookup("kernel.typo").is_none());
        assert!(lookup("cpu.core12.worker_ns").is_some());
    }

    #[test]
    fn roots_cover_the_documented_namespace() {
        let roots = roots();
        for expected in [
            "kernel", "iommu", "cpu", "devN", "qos", "run", "energy", "cell", "bench",
        ] {
            assert!(roots.contains(&expected), "missing root {expected}");
        }
    }

    #[test]
    fn bench_namespace_resolves_with_expected_kinds() {
        let e = lookup("bench.suite").expect("bench.suite");
        assert_eq!(e.kind, MetricKind::Label);
        assert_eq!(e.scope, Scope::Bench);
        let e = lookup("bench.cell.x264-ubench-r0.events_pushed").expect("cell counter");
        assert_eq!(e.kind, MetricKind::Counter);
        assert!(lookup("bench.cell.a.b.events_pushed").is_none());
        assert!(lookup("bench.total.typo").is_none());
    }
}
