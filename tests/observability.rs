//! Observability acceptance tests for the `hiss-obs` metrics layer.
//!
//! Two contracts from the design:
//!
//! 1. **Determinism** — `RunReport::metrics` is built purely from
//!    simulation state, so serialized snapshots must be *byte-identical*
//!    whatever the worker count (wall-clock time is measured by the
//!    `hissbench` harness, never in a run snapshot).
//! 2. **Sufficiency** — the paper's headline numbers (the 477× IPI
//!    inflation of §IV-C, the coalescing interrupt reduction of §V-B,
//!    and the 86% → 12% CC6 collapse of Fig. 4) must be reproducible
//!    from parsed JSON snapshots alone, without touching `RunReport`
//!    fields.

use hiss::{
    ExperimentBuilder, MetricsRegistry, Mitigation, QosParams, RunCtx, RunReport, SystemConfig,
};
use hiss_obs::schema::{self, MetricKind, Scope};
use hiss_obs::MetricValue;
use hiss_scenario::{run_with_metrics, Scenario};

const SCENARIO: &str = r#"
[scenario]
name = "obs-probe"
[workload]
cpu = ["x264"]
gpu = ["ubench", "bfs"]
[run]
replicas = 2
[sweep]
mitigation = ["default", "steer+coalesce"]
"#;

/// Serializes every cell snapshot of a batch to its JSON line.
fn snapshot_lines(ctx: &RunCtx, sc: &Scenario) -> Vec<String> {
    run_with_metrics(ctx, sc, true)
        .iter()
        .map(|(_, m)| m.to_json())
        .collect()
}

#[test]
fn snapshots_are_byte_identical_across_worker_counts() {
    let sc = Scenario::from_str(SCENARIO).unwrap();

    let serial = snapshot_lines(&RunCtx::new(1), &sc);
    let parallel = snapshot_lines(&RunCtx::new(8), &sc);

    // 2 gpu × 1 cpu × 2 replicas × 2 sweep points.
    assert_eq!(serial.len(), 8);
    assert_eq!(serial, parallel, "snapshot JSON must not depend on threads");

    for line in &serial {
        let parsed = MetricsRegistry::from_json(line).unwrap();
        assert_eq!(&parsed.to_json(), line, "round-trip must be lossless");
        // Wall-clock profiling is batch-level by design; a run snapshot
        // containing it could never be deterministic.
        for (key, _) in parsed.iter() {
            assert!(
                !key.starts_with("pool.") && !key.starts_with("baseline_cache."),
                "wall-clock metric {key} leaked into a run snapshot"
            );
        }
    }
}

/// Round-trips a report's metrics through JSON, returning only what a
/// consumer of the serialized snapshot would see.
fn reparse(report: &RunReport) -> MetricsRegistry {
    MetricsRegistry::from_json(&report.metrics.to_json()).unwrap()
}

fn counter(m: &MetricsRegistry, key: &str) -> u64 {
    m.counter_value(key)
        .unwrap_or_else(|| panic!("snapshot missing counter {key}"))
}

fn gauge(m: &MetricsRegistry, key: &str) -> f64 {
    m.gauge_value(key)
        .unwrap_or_else(|| panic!("snapshot missing gauge {key}"))
}

/// §IV-C: the 477× IPI headline, measured from snapshots alone. The
/// model's pinned baseline raises no SSR IPIs at all, so the inflation
/// factor is unbounded — comfortably past the paper's near-three
/// orders of magnitude.
#[test]
fn ipi_inflation_reproducible_from_snapshot() {
    let cfg = SystemConfig::a10_7850k();
    let with_ssrs = reparse(
        &ExperimentBuilder::new(cfg)
            .cpu_app("blackscholes")
            .gpu_app("ubench")
            .run(),
    );
    let without_ssrs = reparse(
        &ExperimentBuilder::new(cfg)
            .cpu_app("blackscholes")
            .gpu_app_pinned("ubench")
            .run(),
    );
    assert!(counter(&with_ssrs, "kernel.ipis") > 100);
    assert_eq!(counter(&without_ssrs, "kernel.ipis"), 0);
    // Interrupts evenly spread across the four cores (§IV-C item 1).
    let per_core: Vec<u64> = (0..4)
        .map(|c| counter(&with_ssrs, &format!("kernel.interrupts.core{c}")))
        .collect();
    let max = *per_core.iter().max().unwrap() as f64;
    let min = *per_core.iter().min().unwrap() as f64;
    assert!(min > 0.0 && max / min < 1.5, "imbalance: {per_core:?}");
}

/// §V-B: interrupt coalescing cuts interrupts per serviced SSR (paper:
/// 16% on average), computed purely from two parsed snapshots.
#[test]
fn coalescing_reduction_reproducible_from_snapshot() {
    let cfg = SystemConfig::a10_7850k();
    let rate = |m: &MetricsRegistry| {
        counter(m, "kernel.interrupts.total") as f64 / counter(m, "kernel.ssrs_serviced") as f64
    };
    let reductions: Vec<f64> = ["ubench", "sssp"]
        .iter()
        .map(|gpu_app| {
            let plain = reparse(
                &ExperimentBuilder::new(cfg)
                    .cpu_app("blackscholes")
                    .gpu_app(gpu_app)
                    .run(),
            );
            let coal = reparse(
                &ExperimentBuilder::new(cfg)
                    .cpu_app("blackscholes")
                    .gpu_app(gpu_app)
                    .mitigation(Mitigation {
                        coalesce: true,
                        ..Mitigation::DEFAULT
                    })
                    .run(),
            );
            1.0 - rate(&coal) / rate(&plain)
        })
        .collect();
    let mean = reductions.iter().sum::<f64>() / reductions.len() as f64;
    assert!(
        (0.02..=0.7).contains(&mean),
        "coalescing reduction {mean} (paper: 0.16)"
    );
}

fn kind_matches(value: &MetricValue, kind: MetricKind) -> bool {
    matches!(
        (value, kind),
        (MetricValue::Counter(_), MetricKind::Counter)
            | (MetricValue::Gauge(_), MetricKind::Gauge)
            | (MetricValue::Label(_), MetricKind::Label)
            | (MetricValue::Histogram(_), MetricKind::Histogram)
    )
}

/// Asserts every metric in `reg` is declared in the schema with the
/// right kind, in one of the `scopes`.
fn assert_conforms(reg: &MetricsRegistry, scopes: &[Scope], what: &str) {
    for (name, value) in reg.iter() {
        let entry = schema::lookup(name)
            .unwrap_or_else(|| panic!("{what}: `{name}` is not declared in the schema"));
        assert!(
            kind_matches(value, entry.kind),
            "{what}: `{name}` is a {value:?} but the schema declares {}",
            entry.kind.as_str()
        );
        assert!(
            scopes.contains(&entry.scope),
            "{what}: `{name}` has scope {:?}, outside {scopes:?}",
            entry.scope
        );
    }
}

/// Schema conformance: a real run (with a QoS governor, so `qos.*` is
/// present) and a scenario cell snapshot publish only names the static
/// `hiss_obs::schema` declares — the third leg of the lint triangle
/// (the other two, `[expect]` metrics and `docs/OBSERVABILITY.md`, are
/// checked by `hiss-cli lint`).
#[test]
fn published_metrics_conform_to_the_declared_schema() {
    let cfg = SystemConfig::a10_7850k();
    let report = ExperimentBuilder::new(cfg)
        .cpu_app("x264")
        .gpu_app("ubench")
        .qos(QosParams::threshold_percent(5.0))
        .run();
    assert_conforms(&report.metrics, &[Scope::Run], "run registry");

    let sc = Scenario::from_str(SCENARIO).unwrap();
    for (_, cell) in &run_with_metrics(&RunCtx::new(2), &sc, true) {
        assert_conforms(cell, &[Scope::Run, Scope::Cell], "cell snapshot");
    }
}

/// §IV-B / Fig. 4: ubench SSRs collapse CC6 residency from 86% to 12%;
/// both residencies read back from serialized snapshots.
#[test]
fn cc6_collapse_reproducible_from_snapshot() {
    let cfg = SystemConfig::a10_7850k();
    let quiet = reparse(&ExperimentBuilder::new(cfg).gpu_app_pinned("ubench").run());
    let noisy = reparse(&ExperimentBuilder::new(cfg).gpu_app("ubench").run());
    let no_ssr = gauge(&quiet, "run.cc6_residency");
    let ssr = gauge(&noisy, "run.cc6_residency");
    assert!(no_ssr > 0.75, "no-SSR residency {no_ssr} (paper: 0.86)");
    assert!(ssr < 0.30, "SSR residency {ssr} (paper: 0.12)");
}
