//! Golden-scenario regression harness: every committed
//! `scenarios/*.hiss` file must parse, expand, run in quick mode, and
//! satisfy its own `[expect]` bands — so a behaviour change anywhere in
//! the simulator trips the band of whichever scenario observes it.

use std::path::{Path, PathBuf};

use hiss::RunCtx;
use hiss_scenario::{check, expand, load, output, run_with_metrics, Row, Scenario};

/// The rows of a batch run on `ctx`.
fn run(ctx: &RunCtx, sc: &Scenario, quick: bool) -> Vec<Row> {
    run_with_metrics(ctx, sc, quick)
        .into_iter()
        .map(|(row, _)| row)
        .collect()
}

fn scenarios_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

fn committed_scenarios() -> Vec<PathBuf> {
    let files = hiss_scenario::list_files(&scenarios_dir()).expect("scenarios/ exists");
    assert!(
        files.len() >= 6,
        "expected the committed scenario library, found {files:?}"
    );
    files
}

/// Every committed scenario parses, and both its full and quick grids
/// are non-empty and well-formed.
#[test]
fn committed_scenarios_validate() {
    for path in committed_scenarios() {
        let sc = load(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        for quick in [false, true] {
            let cells = expand(&sc, quick);
            assert!(!cells.is_empty(), "{}: empty grid", path.display());
        }
        assert!(
            !sc.expects.is_empty(),
            "{}: committed scenarios must carry expect bands",
            path.display()
        );
    }
}

/// The harness proper: run every committed scenario in quick mode and
/// enforce its `[expect]` bands.
#[test]
fn committed_scenarios_hold_their_expect_bands() {
    // One context for the library, so packs share their baselines.
    let ctx = RunCtx::new(hiss::thread_count());
    for path in committed_scenarios() {
        let sc = load(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let rows = run(&ctx, &sc, true);
        assert_eq!(rows.len(), expand(&sc, true).len(), "{}", path.display());
        let violations = check(&sc, &rows);
        assert!(
            violations.is_empty(),
            "{}:\n{}",
            path.display(),
            violations
                .iter()
                .map(|v| format!("  {v}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

/// JSON-lines output of a real batch re-parses to the same floats
/// (shortest-round-trip formatting is part of the bit-identity story).
#[test]
fn jsonl_round_trips_real_rows() {
    let sc = Scenario::from_str(
        r#"
[scenario]
name = "roundtrip"
[workload]
cpu = ["raytrace"]
gpu = ["sssp", "ubench"]
"#,
    )
    .unwrap();
    let rows = run(&RunCtx::new(2), &sc, false);
    let jsonl = output::to_jsonl(&rows);
    for (line, row) in jsonl.lines().zip(&rows) {
        // Extract the gpu_perf field textually and re-parse.
        let field = line
            .split("\"gpu_perf\":")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .unwrap();
        let reparsed: f64 = field.parse().unwrap();
        assert_eq!(reparsed.to_bits(), row.gpu_perf.to_bits(), "{line}");
    }
}
