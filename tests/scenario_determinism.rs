//! The batch compiler inherits the runner's determinism contract:
//! scenario results must be bit-identical whatever the worker count,
//! and whatever the baseline-cache state.

use hiss::RunCtx;
use hiss_obs::MetricsRegistry;
use hiss_scenario::{run_with_metrics, Row, Scenario};

/// A scenario exercising every compiler feature that could plausibly
/// interact with scheduling: a mitigation sweep (uncached treated
/// runs), replicas, and the shared baseline cache.
const SCENARIO: &str = r#"
[scenario]
name = "determinism-probe"
[workload]
cpu = ["x264", "raytrace"]
gpu = ["sssp", "ubench"]
[run]
replicas = 2
[sweep]
mitigation = ["default", "steer+coalesce"]
"#;

fn bits(rows: &[(Row, MetricsRegistry)]) -> Vec<(String, String, u32, Option<u64>, u64, u64)> {
    rows.iter()
        .map(|(r, _)| {
            (
                r.cpu_app.clone(),
                r.gpu_app.clone(),
                r.replica,
                r.cpu_perf.map(f64::to_bits),
                r.gpu_perf.to_bits(),
                r.ssrs_serviced,
            )
        })
        .collect()
}

#[test]
fn scenario_batches_are_bit_identical_across_worker_counts() {
    let sc = Scenario::from_str(SCENARIO).unwrap();

    let serial = run_with_metrics(&RunCtx::new(1), &sc, false);

    let ctx = RunCtx::new(8);
    let parallel = run_with_metrics(&ctx, &sc, false);
    // Warm cache: memoized baselines must not change any value.
    let warm = run_with_metrics(&ctx, &sc, false);

    // 2 sweep points × 2 gpu × 2 cpu × 2 replicas.
    assert_eq!(serial.len(), 16);
    assert_eq!(bits(&serial), bits(&parallel));
    assert_eq!(bits(&serial), bits(&warm));
}
