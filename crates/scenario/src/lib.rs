//! # hiss-scenario — declarative experiment scenarios
//!
//! A data-driven experiment layer over the `hiss` engine: an experiment
//! is a `.hiss` file, not Rust code, and the paper's co-run grid
//! figures are committed packs folded by [`figures`]. The crate has:
//!
//! - a **`.hiss` file format** (a dependency-free TOML subset,
//!   [`parse`]) declaring a full experiment: system-config overrides,
//!   mitigation settings, workload mix, cartesian sweep axes,
//!   seeds/replicas, and `[expect]` metric bands,
//! - a **typed spec** ([`spec::Scenario`]) with line-numbered
//!   diagnostics for every schema violation,
//! - a **batch compiler** ([`compile`]) lowering a scenario into pure
//!   jobs on the pool of the caller's [`hiss::RunCtx`], resolving
//!   baselines through that context's [`hiss::BaselineCache`],
//! - **emitters** ([`output`]) for JSON-lines and ASCII tables,
//! - an **expect checker** ([`expect`]) that turns the committed
//!   `scenarios/` library into a golden regression harness
//!   (`tests/scenarios.rs`), and
//! - **figure folds** ([`figures`]): pure functions from the rows of the
//!   committed figure packs to the paper's Figs. 3 to 9 and 12, §IV-C
//!   and the extension sweeps, as `hiss-cli figures` prints them.
//!
//! # Example
//!
//! ```
//! let scenario = hiss_scenario::Scenario::from_str(r#"
//! [scenario]
//! name = "qos-demo"
//! [workload]
//! cpu = ["x264"]
//! gpu = ["ubench"]
//! [sweep]
//! qos_percent = [0, 1]
//! [expect]
//! min_gpu_perf = [0.0, 1.2]
//! "#).unwrap();
//! let pairs = hiss_scenario::run_with_metrics(&hiss::RunCtx::new(2), &scenario, false);
//! let rows: Vec<_> = pairs.into_iter().map(|(row, _)| row).collect();
//! assert_eq!(rows.len(), 2);
//! // th_1 throttling guts ubench throughput relative to no governor.
//! assert!(rows[1].gpu_perf < rows[0].gpu_perf);
//! assert!(hiss_scenario::check(&scenario, &rows).is_empty());
//! ```

pub mod bench_suite;
pub mod compile;
pub mod expect;
pub mod figures;
pub mod lint;
pub mod output;
pub mod parse;
pub mod spec;

pub use compile::{cell_metrics, expand, run_cell_report, run_with_metrics, simulate, Cell, Row};
pub use expect::{check, Violation};
pub use parse::{Document, ScenarioError, Value};
pub use spec::{
    Agg, Expect, Field, Knobs, Metric, Scenario, SweepAxis, Topology, Workload, IDLE_CPU,
};

/// Loads and validates a scenario file from disk. The returned scenario
/// remembers its path ([`Scenario::source`]), so expect violations are
/// reported as `file:line: msg`.
pub fn load(path: &std::path::Path) -> Result<Scenario, ScenarioError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| ScenarioError::new(0, format!("cannot read {}: {e}", path.display())))?;
    let mut sc = Scenario::from_str(&text)?;
    sc.source = Some(path.display().to_string());
    Ok(sc)
}

/// Lists the `.hiss` scenario files under `dir`, sorted by name.
pub fn list_files(dir: &std::path::Path) -> std::io::Result<Vec<std::path::PathBuf>> {
    let mut out: Vec<_> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "hiss"))
        .collect();
    out.sort();
    Ok(out)
}

/// The closest string in `candidates` within edit distance 2 of `input`
/// (typo suggestions for flags and keys). Re-exported from
/// [`hiss_lint`], where the helper now lives so every diagnostic
/// producer shares one implementation.
pub use hiss_lint::nearest;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_suggests_close_typos_only() {
        let flags = ["--steer", "--coalesce", "--mono"];
        assert_eq!(nearest("--coalese", &flags), Some("--coalesce"));
        assert_eq!(nearest("--steer", &flags), Some("--steer"));
        assert_eq!(nearest("--frobnicate", &flags), None);
    }
}
