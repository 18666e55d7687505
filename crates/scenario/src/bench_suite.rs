//! Bench suite definitions for `hiss-cli bench`.
//!
//! A *suite* executes a fixed workload and condenses it into one
//! [`MetricsRegistry`] snapshot of `bench.*` work counters (see
//! `hiss_obs::schema` and `docs/BENCH.md`). Everything in the snapshot
//! is deterministic: derived from simulation state, the pool/cache work
//! of the suite's own [`RunCtx`], and (in the engine suite) the calling
//! thread's allocation tally — never from host timing or scheduling.
//! That is the property that lets `bench check` hold the counters to
//! exact equality against the committed baseline, and since no state is
//! shared between suites, any number of them may run at once.
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

use hiss::{ExperimentBuilder, MetricsRegistry, RunCtx, SystemConfig};
use hiss_bench::baseline::SuiteSnapshot;
use hiss_bench::AllocProbe;

use crate::Row;

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

/// One cell's identity as a single schema segment: dots in axis values
/// would split into extra pattern segments, so they become underscores
/// (`th_1-ubench-qos_percent=1_5-r0`).
fn cell_key(row: &Row) -> String {
    let mut key = format!("{}-{}", row.cpu_app, row.gpu_app);
    for (k, v) in &row.axes {
        key.push('-');
        key.push_str(&k.replace('.', "_"));
        key.push('=');
        key.push_str(&v.replace('.', "_"));
    }
    key.push_str(&format!("-r{}", row.replica));
    key
}

/// Shared scaffolding: runs `body` on a fresh [`RunCtx`] of `threads`
/// workers and folds that context's pool and cache counters
/// (`bench.pool.*`, `bench.cache.*`) into a suite snapshot. Public so
/// `hiss-serve` builds its serving suite on the same scaffolding.
pub fn measure(
    suite: &str,
    threads: usize,
    body: impl FnOnce(&RunCtx, &mut MetricsRegistry),
) -> SuiteSnapshot {
    let ctx = RunCtx::new(threads);
    let mut metrics = MetricsRegistry::new();
    metrics.label("bench.suite", suite);
    body(&ctx, &mut metrics);

    let (invocations, jobs) = ctx.pool().totals();
    metrics.counter("bench.pool.invocations", invocations);
    metrics.counter("bench.pool.jobs", jobs);
    ctx.cache().publish(&mut metrics, "bench.cache");

    SuiteSnapshot {
        line: 0,
        suite: suite.to_string(),
        metrics,
    }
}

/// Records `bench.cells` and every [`CELL_COUNTERS`] entry, per cell and
/// summed, from the cells' rows and run registries.
fn record_cells(metrics: &mut MetricsRegistry, cells: &[(Row, MetricsRegistry)]) {
    let mut totals = vec![0; CELL_COUNTERS.len()];
    for (row, cell) in cells {
        let key = cell_key(row);
        for ((suffix, source), total) in CELL_COUNTERS.iter().zip(&mut totals) {
            let v = cell.counter_value(source).unwrap_or(0);
            metrics.counter(format!("bench.cell.{key}.{suffix}"), v);
            *total += v;
        }
    }
    metrics.counter("bench.cells", cells.len() as u64);
    for ((suffix, _), total) in CELL_COUNTERS.iter().zip(totals) {
        metrics.counter(format!("bench.total.{suffix}"), total);
    }
}

/// The engine suite: one serial co-run on the calling thread, so the
/// allocation probe sees exactly the simulation's own traffic (no pool
/// workers, no cache sharing, no scenario machinery).
fn engine_suite() -> SuiteSnapshot {
    measure("engine", 1, |_, metrics| {
        let probe = AllocProbe::start();
        let report = ExperimentBuilder::new(SystemConfig::default())
            .cpu_app("x264")
            .gpu_app("ubench")
            .run();
        let (bytes, allocs) = probe.finish();
        metrics.counter("bench.alloc.bytes", bytes);
        metrics.counter("bench.alloc.allocs", allocs);
        let row = Row {
            cpu_app: "x264".into(),
            gpu_app: "ubench".into(),
            ..Row::default()
        };
        record_cells(metrics, &[(row, report.metrics)]);
    })
}

/// Runs the suite named `suite` (listed above; `hiss_serve::suite::SUITES`
/// adds `serve`) against the repo at `root` on `threads` workers. Every
/// suite but `engine` runs a committed scenario in quick mode and records
/// per-cell and summed work counters.
pub fn run_suite(suite: &str, root: &Path, threads: usize) -> Result<SuiteSnapshot, String> {
    let file = match suite {
        "engine" => return Ok(engine_suite()),
        "fig3_quick" => "fig3.hiss",
        "qos_quick" => "qos_sweep.hiss",
        "devices" => "topology.hiss",
        "mixed_criticality" => "mixed_criticality.hiss",
        other => return Err(format!("unknown bench suite {other:?}")),
    };
    let path = root.join("scenarios").join(file);
    let sc = crate::load(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(measure(suite, threads, |ctx, metrics| {
        let results = crate::run_with_metrics(ctx, &sc, true);
        record_cells(metrics, &results);
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiss_obs::schema;

    #[test]
    fn cell_keys_are_single_schema_segments() {
        let key = cell_key(&Row {
            cpu_app: "x264".into(),
            gpu_app: "ubench".into(),
            axes: vec![("qos_percent".into(), "1.5".into())],
            ..Row::default()
        });
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
        // The engine suite runs its one co-run directly: its context sees
        // no pool work and no cache lookups.
        for key in [
            "bench.pool.invocations",
            "bench.pool.jobs",
            "bench.cache.hits",
            "bench.cache.misses",
            "bench.cache.entries",
        ] {
            assert_eq!(snap.metrics.counter_value(key), Some(0), "{key}");
        }
        assert!(
            snap.metrics
                .counter_value("bench.total.events_pushed")
                .unwrap()
                > 0
        );
    }
}
