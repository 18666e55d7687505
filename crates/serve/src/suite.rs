//! The `serve` bench suite: the serving path as a gated, deterministic
//! workload.
//!
//! Reuses [`hiss_scenario::bench_suite::measure`] and composes the
//! scenario crate's suites with one serving suite: submit
//! `scenarios/fig3.hiss` in quick mode twice against a wiped temporary
//! store through an in-process [`Service`]. The first pass misses and
//! simulates every cell; the second serves 100% from the store and
//! must stream byte-identical snapshot lines. Every `bench.serve.*`
//! counter this records is a deterministic work count — `bench check`
//! holds them to exact equality under any worker count. `bench.pool.*`
//! is the service's pool tally; `bench.cache.*` stays 0.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hiss::DiskStore;
use hiss_bench::baseline::SuiteSnapshot;
use hiss_scenario::bench_suite::measure;

use crate::service::Service;

/// Names of every suite, in execution (and baseline file) order: the
/// scenario crate's suites plus the serving suite.
pub const SUITES: &[&str] = &[
    "engine",
    "fig3_quick",
    "qos_quick",
    "devices",
    "mixed_criticality",
    "serve",
];

/// Runs the suite named `suite` (one of [`SUITES`]) against the repo at
/// `root` on `threads` workers.
pub fn run_suite(suite: &str, root: &Path, threads: usize) -> Result<SuiteSnapshot, String> {
    match suite {
        "serve" => serve_suite(root, threads),
        other => hiss_scenario::bench_suite::run_suite(other, root, threads),
    }
}

/// Runs every suite against the repo at `root`, in [`SUITES`] order.
pub fn run_all(root: &Path, threads: usize) -> Result<Vec<SuiteSnapshot>, String> {
    SUITES.iter().map(|s| run_suite(s, root, threads)).collect()
}

/// Double-submits fig3 quick through an in-process service against a
/// wiped store and snapshots the serving counters.
pub fn serve_suite(root: &Path, threads: usize) -> Result<SuiteSnapshot, String> {
    let path = root.join("scenarios").join("fig3.hiss");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("{}: cannot read: {e}", path.display()))?;
    // Under `target/` so a bench run never dirties the working tree;
    // unique per call so concurrent suites in one process never share
    // it; wiped before and removed after so the first pass always cold-
    // misses and reruns are bit-identical.
    static CALLS: AtomicU64 = AtomicU64::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let store_dir = root
        .join("target")
        .join(format!("bench-serve-store-{}-{call}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let store =
        Arc::new(DiskStore::open(&store_dir).map_err(|e| format!("open bench store: {e}"))?);

    let mut streamed_first = Vec::new();
    let mut streamed_second = Vec::new();
    let snapshot = measure("serve", threads, |ctx, metrics| {
        let service = Service::new(Some(Arc::clone(&store)), threads);
        let first = service
            .submit("scenarios/fig3.hiss", &text, true, |m| {
                streamed_first.push(m.to_json())
            })
            .expect("committed fig3.hiss must lint clean");
        let second = service
            .submit("scenarios/fig3.hiss", &text, true, |m| {
                streamed_second.push(m.to_json())
            })
            .expect("committed fig3.hiss must lint clean");
        assert_eq!(
            first.simulated, first.cells,
            "first pass against a wiped store must simulate everything"
        );
        assert_eq!(
            second.from_store, second.cells,
            "re-submission must be 100% store hits"
        );
        assert_eq!(
            streamed_first, streamed_second,
            "served snapshots must be byte-identical to simulated ones"
        );
        service.publish(metrics, "bench.serve");
        ctx.pool().add(service.pool().totals());
    });

    let _ = std::fs::remove_dir_all(&store_dir);
    Ok(snapshot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiss_obs::schema;

    fn repo_root() -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .unwrap()
    }

    #[test]
    fn suite_order_appends_serve() {
        assert_eq!(
            SUITES,
            &[
                "engine",
                "fig3_quick",
                "qos_quick",
                "devices",
                "mixed_criticality",
                "serve"
            ],
            "baseline file order depends on this"
        );
    }

    /// The serving suite's snapshot conforms to the bench schema and
    /// records the double-submission shape: everything simulated once,
    /// then everything served from the store.
    #[test]
    fn serve_snapshot_conforms_and_records_the_double_submission() {
        let snap = serve_suite(&repo_root(), 2).unwrap();
        assert_eq!(snap.suite, "serve");
        for (name, _) in snap.metrics.iter() {
            let e = schema::lookup(name).unwrap_or_else(|| panic!("{name} not in schema"));
            assert_eq!(e.scope, schema::Scope::Bench, "{name}");
        }
        let c = |k: &str| {
            snap.metrics
                .counter_value(k)
                .unwrap_or_else(|| panic!("{k} missing"))
        };
        assert_eq!(c("bench.serve.requests"), 2);
        assert_eq!(c("bench.serve.rejected"), 0);
        let cells = c("bench.serve.queue_peak");
        assert!(cells > 0);
        assert_eq!(c("bench.serve.cells_simulated"), cells);
        assert_eq!(c("bench.serve.cells_from_store"), cells);
        // The first pass misses and publishes each cell once; the
        // second hits each one.
        assert_eq!(c("bench.serve.store_writes"), cells);
        assert_eq!(c("bench.serve.store_hits"), cells);
        assert_eq!(c("bench.serve.store_misses"), cells);
        assert_eq!(c("bench.serve.store_invalid"), 0);
        // Two submissions, one pool call each; the suite's own context
        // does no lookups.
        assert_eq!(c("bench.pool.invocations"), 2);
        assert_eq!(c("bench.pool.jobs"), 2 * cells);
        assert_eq!(c("bench.cache.misses"), 0);
        assert_eq!(c("bench.cache.entries"), 0);
    }
}
