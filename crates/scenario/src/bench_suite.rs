//! Bench suite definitions for `hiss-cli bench`.
//!
//! A *suite* executes a fixed workload and condenses it into one
//! [`MetricsRegistry`] snapshot of `bench.*` work counters (see
//! `hiss_obs::schema` and `docs/BENCH.md`). Everything in the snapshot
//! is deterministic: derived from simulation state, pool/cache work
//! totals, and (in the engine suite) the calling thread's allocation
//! tally — never from host timing or scheduling. That is the property
//! that lets `bench check` hold the counters to exact equality against
//! the committed baseline.
//!
//! The suites:
//!
//! - `fig3_quick` — `scenarios/fig3.hiss` in quick mode (the paper's
//!   headline CPU×GPU interference grid),
//! - `qos_quick` — `scenarios/qos_sweep.hiss` in quick mode (QoS
//!   governor sweep, exercising deferral paths fig3 never takes),
//! - `devices` — `scenarios/topology.hiss` in quick mode (a GPU + NIC +
//!   DMA `[topology]`, gating the auxiliary-device SSR path),
//! - `mixed_criticality` — `scenarios/mixed_criticality.hiss` in quick
//!   mode (the `[criticality]` partition under the worst-case
//!   aggressor: core reservation, PPR quota, and per-class coalescing
//!   windows all on the gated path),
//! - `engine` — a direct serial [`ExperimentBuilder`] co-run on the
//!   calling thread, probing allocation traffic and calendar churn
//!   without the pool or cache in the way.

use std::path::Path;

use hiss::{BaselineCache, ExperimentBuilder, MetricsRegistry, SystemConfig};
use hiss_bench::baseline::SuiteSnapshot;
use hiss_bench::AllocProbe;

/// The per-cell counters a suite snapshot records, as
/// `(bench key suffix, run-registry name)` pairs. Each appears both as
/// `bench.cell.<cell-key>.<suffix>` and summed as
/// `bench.total.<suffix>`.
pub const CELL_COUNTERS: &[(&str, &str)] = &[
    ("kernel_ipis", "kernel.ipis"),
    ("kernel_ssrs_serviced", "kernel.ssrs_serviced"),
    ("kernel_interrupts", "kernel.interrupts.total"),
    ("iommu_requests", "iommu.requests"),
    ("iommu_drained", "iommu.drained"),
    ("walker_walks", "iommu.walker.walks"),
    ("walker_memory_fetches", "iommu.walker.memory_fetches"),
    ("events_pushed", "run.events_pushed"),
    ("events_popped", "run.events_popped"),
    ("events_peak", "run.events_peak"),
    ("elapsed_ns", "run.elapsed_ns"),
    ("gpu_iterations", "run.gpu_iterations"),
    ("aux_ssrs_raised", "run.aux_ssrs_raised"),
    ("pending_at_end", "run.pending_at_end"),
];

/// Names of every suite, in execution order.
pub const SUITES: &[&str] = &[
    "engine",
    "fig3_quick",
    "qos_quick",
    "devices",
    "mixed_criticality",
];

/// One cell's identity as a single schema segment: dots in axis values
/// would split into extra pattern segments, so they become underscores
/// (`th_1-ubench-qos_percent=1_5-r0`).
fn cell_key(cpu: &str, gpu: &str, axes: &[(String, String)], replica: u32) -> String {
    let mut key = format!("{cpu}-{gpu}");
    for (k, v) in axes {
        key.push('-');
        key.push_str(&k.replace('.', "_"));
        key.push('=');
        key.push_str(&v.replace('.', "_"));
    }
    key.push_str(&format!("-r{replica}"));
    key
}

/// Shared scaffolding: clears the cache, runs `body`, and folds the
/// pool/cache work deltas into a suite snapshot. Public so `hiss-serve`
/// builds its serving suite on the same scaffolding.
///
/// The counters are deltas of process-wide state, so they are exact
/// only while nothing else in the process uses
/// [`BaselineCache::global()`] or the runner pool during the suite.
/// Another thread that clears the cache or runs a batch meanwhile (a
/// sibling test in the same test binary, say) corrupts the counters,
/// e.g. `bench.cache.entries` reads 0 instead of 27.
pub fn measure(suite: &str, body: impl FnOnce(&mut MetricsRegistry)) -> SuiteSnapshot {
    let cache = BaselineCache::global();
    cache.clear();
    let (inv0, jobs0) = hiss::pool_totals();
    let (hits0, misses0) = (cache.hit_count(), cache.miss_count());

    let mut metrics = MetricsRegistry::new();
    metrics.label("bench.suite", suite);
    body(&mut metrics);

    let (inv1, jobs1) = hiss::pool_totals();
    metrics.counter("bench.pool.invocations", inv1 - inv0);
    metrics.counter("bench.pool.jobs", jobs1 - jobs0);
    metrics.counter("bench.cache.hits", cache.hit_count() - hits0);
    metrics.counter("bench.cache.misses", cache.miss_count() - misses0);
    metrics.counter("bench.cache.entries", cache.len() as u64);

    SuiteSnapshot {
        line: 0,
        suite: suite.to_string(),
        metrics,
    }
}

/// Runs a committed scenario in quick mode and records per-cell and
/// summed work counters.
fn scenario_suite(suite: &str, root: &Path, file: &str) -> Result<SuiteSnapshot, String> {
    let path = root.join("scenarios").join(file);
    let sc = crate::load(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(measure(suite, |metrics| {
        let results = crate::run_with_metrics(&sc, true);
        metrics.counter("bench.cells", results.len() as u64);
        let mut totals: Vec<u64> = vec![0; CELL_COUNTERS.len()];
        for (row, cell) in &results {
            let key = cell_key(&row.cpu_app, &row.gpu_app, &row.axes, row.replica);
            for (i, (suffix, source)) in CELL_COUNTERS.iter().enumerate() {
                let v = cell.counter_value(source).unwrap_or(0);
                metrics.counter(format!("bench.cell.{key}.{suffix}"), v);
                totals[i] += v;
            }
        }
        for (i, (suffix, _)) in CELL_COUNTERS.iter().enumerate() {
            metrics.counter(format!("bench.total.{suffix}"), totals[i]);
        }
    }))
}

/// The engine suite: one serial co-run on the calling thread, so the
/// allocation probe sees exactly the simulation's own traffic (no pool
/// workers, no cache sharing, no scenario machinery).
fn engine_suite() -> SuiteSnapshot {
    measure("engine", |metrics| {
        let probe = AllocProbe::start();
        let report = ExperimentBuilder::new(SystemConfig::default())
            .cpu_app("x264")
            .gpu_app("ubench")
            .run();
        let (bytes, allocs) = probe.finish();
        metrics.counter("bench.cells", 1);
        metrics.counter("bench.alloc.bytes", bytes);
        metrics.counter("bench.alloc.allocs", allocs);
        let key = cell_key("x264", "ubench", &[], 0);
        let mut totals: Vec<u64> = vec![0; CELL_COUNTERS.len()];
        for (i, (suffix, source)) in CELL_COUNTERS.iter().enumerate() {
            let v = report.metrics.counter_value(source).unwrap_or(0);
            metrics.counter(format!("bench.cell.{key}.{suffix}"), v);
            totals[i] += v;
        }
        for (i, (suffix, _)) in CELL_COUNTERS.iter().enumerate() {
            metrics.counter(format!("bench.total.{suffix}"), totals[i]);
        }
    })
}

/// Runs every suite against the repo at `root`, in [`SUITES`] order.
pub fn run_all(root: &Path) -> Result<Vec<SuiteSnapshot>, String> {
    Ok(vec![
        engine_suite(),
        scenario_suite("fig3_quick", root, "fig3.hiss")?,
        scenario_suite("qos_quick", root, "qos_sweep.hiss")?,
        scenario_suite("devices", root, "topology.hiss")?,
        scenario_suite("mixed_criticality", root, "mixed_criticality.hiss")?,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiss_obs::schema;

    #[test]
    fn cell_keys_are_single_schema_segments() {
        let key = cell_key("x264", "ubench", &[("qos_percent".into(), "1.5".into())], 0);
        assert_eq!(key, "x264-ubench-qos_percent=1_5-r0");
        assert!(!key.contains('.'));
        assert!(
            schema::lookup(&format!("bench.cell.{key}.events_pushed")).is_some(),
            "cell key must resolve under bench.cell.*"
        );
    }

    #[test]
    fn cell_counter_sources_exist_in_the_run_schema() {
        for (suffix, source) in CELL_COUNTERS {
            let e = schema::lookup(source).unwrap_or_else(|| panic!("{source} not in schema"));
            assert_eq!(e.kind, schema::MetricKind::Counter, "{source}");
            assert!(
                schema::lookup(&format!("bench.total.{suffix}")).is_some(),
                "bench.total.{suffix} not in schema"
            );
        }
    }

    /// Every name an engine-suite snapshot publishes resolves in the
    /// schema's Bench scope — the same conformance the observability
    /// tests pin for run/cell/profile registries.
    #[test]
    fn engine_snapshot_conforms_to_the_bench_schema() {
        let snap = engine_suite();
        assert!(!snap.metrics.is_empty());
        for (name, _) in snap.metrics.iter() {
            let e = schema::lookup(name).unwrap_or_else(|| panic!("{name} not declared in schema"));
            assert_eq!(e.scope, schema::Scope::Bench, "{name}");
        }
        assert_eq!(snap.metrics.counter_value("bench.cells"), Some(1));
        // (Exact pool/cache deltas are pinned by the single-process CLI
        // e2e in tests/bench.rs — sibling unit tests share the global
        // counters, so here we only require the keys to exist.)
        assert!(snap
            .metrics
            .counter_value("bench.pool.invocations")
            .is_some());
        assert!(snap.metrics.counter_value("bench.cache.misses").is_some());
        assert!(
            snap.metrics
                .counter_value("bench.total.events_pushed")
                .unwrap()
                > 0
        );
    }
}
