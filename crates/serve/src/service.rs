//! The transport-free service core: validate, execute, count.
//!
//! [`Service`] is everything the server does minus the sockets, so the
//! full submission path — lint gate, grid expansion, store lookups,
//! pool execution, snapshot labelling — is exercisable deterministically
//! from unit tests and the bench suite without binding a port.
//!
//! # Store identity
//!
//! A cell's store key ([`cell_store_key`]) hashes the `Debug` rendering
//! of its fully resolved [`Knobs`](hiss_scenario::Knobs) (system config
//! including the replica-bumped seed, mitigation switches, QoS
//! threshold, GPU count) plus the application names and the rendered
//! `[topology]` (or `"default"`). Sweep coordinates and replica indices
//! are already folded into the knobs, so the key is exactly the
//! simulation's input — two scenarios sharing a cell share its entry. The stored payload is the *bare run registry*
//! (`RunReport::metrics`, no `cell.*` labels); identity labels are
//! re-applied at stream time with the same
//! [`hiss_scenario::cell_metrics`] the batch compiler uses, which keeps
//! a served snapshot byte-identical to a freshly simulated one.
//!
//! # Baselines
//!
//! A store-miss cell also needs its two normalisation baselines (and,
//! for default-configuration cells, the co-run). Each submission runs on
//! its own [`RunCtx`], dropped when the submission ends, whose
//! [`BaselineCache`] is backed by the service's store as a second tier:
//! cells of one submission share a baseline through the cache's
//! single-flight memo, and submissions — across connections and
//! restarts — share it through the store. Memory is therefore bounded
//! by one submission's baselines, not by lifetime traffic. Two
//! concurrent submissions that need the same not-yet-stored baseline
//! may each simulate it; both get the same deterministic result, and
//! the store's write-then-rename publication (one temporary per write)
//! keeps the entry whole.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hiss::{BaselineCache, DiskStore, PoolTally, RunCtx, RunReport, StoreKey};
use hiss_lint::{Diagnostic, Severity};
use hiss_obs::MetricsRegistry;
use hiss_scenario::{cell_metrics, expand, run_cell_report_in, Cell, Scenario};

/// Cells per pool invocation when streaming a submission: small enough
/// that results reach the client incrementally, large enough to keep
/// the workers busy. A constant (not the thread count) so the pool
/// invocation count — a gated bench counter — is identical under any
/// worker count.
pub const STREAM_CHUNK: usize = 8;

/// What one completed submission did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Summary {
    /// Cells in the submission's grid.
    pub cells: u64,
    /// Cells executed by the simulation engine.
    pub simulated: u64,
    /// Cells served from the disk store without simulating.
    pub from_store: u64,
}

/// The content-addressed identity of one scenario cell.
///
/// The `[topology]` rendering participates in the key: a topology fixes
/// the GPU count (so `Knobs` alone looks like a hardwired cell) while
/// attaching auxiliary devices and per-device steering that change the
/// simulation. Cells without a topology hash the literal `"default"`.
pub fn cell_store_key(cell: &Cell) -> StoreKey {
    let topology = cell
        .topology
        .as_ref()
        .map_or_else(|| "default".to_string(), |t| t.render());
    StoreKey::from_parts(&[
        &format!("{:?}", cell.knobs),
        &cell.cpu_app,
        &cell.gpu_app,
        &topology,
    ])
}

/// The deterministic submission handler shared by the TCP server, the
/// bench suite, and the tests. Thread-safe; counters are lifetime
/// totals across all submissions.
#[derive(Debug)]
pub struct Service {
    store: Option<Arc<DiskStore>>,
    threads: usize,
    pool: PoolTally,
    requests: AtomicU64,
    rejected: AtomicU64,
    queue_peak: AtomicU64,
    cells_simulated: AtomicU64,
    cells_from_store: AtomicU64,
    cells_audited: AtomicU64,
    baseline_hits: AtomicU64,
    baseline_misses: AtomicU64,
}

impl Service {
    /// A service backed by `store` (or purely in-memory when `None`)
    /// that runs each submission's cells on `threads` workers.
    pub fn new(store: Option<Arc<DiskStore>>, threads: usize) -> Service {
        Service {
            store,
            threads,
            pool: PoolTally::default(),
            requests: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            queue_peak: AtomicU64::new(0),
            cells_simulated: AtomicU64::new(0),
            cells_from_store: AtomicU64::new(0),
            cells_audited: AtomicU64::new(0),
            baseline_hits: AtomicU64::new(0),
            baseline_misses: AtomicU64::new(0),
        }
    }

    /// The backing disk store, if any.
    pub fn store(&self) -> Option<&Arc<DiskStore>> {
        self.store.as_ref()
    }

    /// Pool work of every submission so far.
    pub fn pool(&self) -> &PoolTally {
        &self.pool
    }

    /// Validates and executes one submission, calling `emit` with each
    /// cell snapshot in deterministic grid order (chunked, so snapshots
    /// stream out as chunks of cells complete).
    ///
    /// Returns the lint diagnostics when the scenario is rejected: any
    /// `Error`-severity finding rejects; warnings alone do not block
    /// execution but are still reported back in that case.
    pub fn submit(
        &self,
        file: &str,
        text: &str,
        quick: bool,
        mut emit: impl FnMut(MetricsRegistry),
    ) -> Result<Summary, Vec<Diagnostic>> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let diags = hiss_scenario::lint::lint_text(file, text);
        if diags.iter().any(|d| d.severity() == Severity::Error) {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(diags);
        }
        // Lint accepted, so parsing cannot fail; keep the error path
        // anyway rather than panicking a long-running server.
        let sc = Scenario::from_str(text).map_err(|e| {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            vec![Diagnostic::new(
                hiss_lint::Code::ScenarioInvalid,
                Some(file),
                e.line,
                e.msg.clone(),
            )]
        })?;
        let cells = expand(&sc, quick);
        self.queue_peak
            .fetch_max(cells.len() as u64, Ordering::Relaxed);
        let mut summary = Summary {
            cells: cells.len() as u64,
            simulated: 0,
            from_store: 0,
        };
        let ctx = RunCtx::new(self.threads).with_store(self.store.clone());
        let baselines = ctx.cache();
        for chunk in cells.chunks(STREAM_CHUNK) {
            let results = ctx.run_jobs(chunk.len(), |i| self.run_cell(&chunk[i], baselines));
            for (snapshot, from_store) in results {
                if from_store {
                    summary.from_store += 1;
                } else {
                    summary.simulated += 1;
                }
                emit(snapshot);
            }
        }
        self.baseline_hits
            .fetch_add(baselines.hit_count(), Ordering::Relaxed);
        self.baseline_misses
            .fetch_add(baselines.miss_count(), Ordering::Relaxed);
        self.pool.add(ctx.pool().totals());
        Ok(summary)
    }

    /// Audits one bare run registry against the run-scope conservation
    /// laws ([`hiss_obs::invariants`]) — the serving-path sanitizer,
    /// always on regardless of build profile or `HISS_SANITIZE`.
    fn audit(&self, reg: &MetricsRegistry) -> hiss_obs::invariants::AuditReport {
        self.cells_audited.fetch_add(1, Ordering::Relaxed);
        hiss_obs::invariants::audit(reg, hiss_obs::schema::Scope::Run)
    }

    /// Serves one cell: disk-store hit if possible, engine otherwise
    /// (resolving baselines through the submission's `baselines` and
    /// publishing the fresh result back to the store). The `bool` is
    /// `true` when the cell came from the store.
    ///
    /// Every registry passes the conservation-law audit before it is
    /// served or stored: a stored entry that parses but violates a law
    /// (a buggy writer, a hand-edit surviving the checksum) is treated
    /// like a corrupt one — recomputed and healed in place — while a
    /// *fresh* result violating a law is a simulator bug and panics
    /// with the named diff rather than poisoning the store.
    fn run_cell(&self, cell: &Cell, baselines: &BaselineCache) -> (MetricsRegistry, bool) {
        let key = cell_store_key(cell);
        if let Some(metrics) = self.store.as_ref().and_then(|store| store.load(&key)) {
            if self.audit(&metrics).clean() {
                self.cells_from_store.fetch_add(1, Ordering::Relaxed);
                let report = RunReport::from_metrics(metrics);
                return (cell_metrics(cell, &report), true);
            }
        }
        let (_, report) = run_cell_report_in(cell, baselines);
        require_clean(&self.audit(&report.metrics), cell);
        if let Some(store) = &self.store {
            // Best-effort publish: a failed write degrades to
            // recompute-next-time, never to a wrong result.
            let _ = store.save(&key, &report.metrics);
        }
        self.cells_simulated.fetch_add(1, Ordering::Relaxed);
        (cell_metrics(cell, &report), false)
    }

    /// Publishes the service's lifetime counters (and the store's, when
    /// one is attached) under `prefix` — the `bench.serve.*` rows when
    /// called with `"bench.serve"`.
    pub fn publish(&self, reg: &mut MetricsRegistry, prefix: &str) {
        for (name, value) in [
            ("requests", &self.requests),
            ("rejected", &self.rejected),
            ("queue_peak", &self.queue_peak),
            ("cells_simulated", &self.cells_simulated),
            ("cells_from_store", &self.cells_from_store),
            ("cells_audited", &self.cells_audited),
            ("baseline_hits", &self.baseline_hits),
            ("baseline_misses", &self.baseline_misses),
        ] {
            reg.counter(format!("{prefix}.{name}"), value.load(Ordering::Relaxed));
        }
        if let Some(store) = &self.store {
            reg.counter(format!("{prefix}.store_hits"), store.hit_count());
            reg.counter(format!("{prefix}.store_misses"), store.miss_count());
            reg.counter(format!("{prefix}.store_invalid"), store.invalid_count());
            reg.counter(format!("{prefix}.store_writes"), store.write_count());
        }
    }
}

/// Aborts on a fresh result that violates its conservation laws — the
/// serving-path twin of the `Soc::finalize` sanitizer, unconditional
/// because a violating result must never enter the disk store.
fn require_clean(audit: &hiss_obs::invariants::AuditReport, cell: &Cell) {
    if audit.clean() {
        return;
    }
    let mut msg = format!(
        "serve sanitizer: fresh result for {}×{} violates its conservation laws\n",
        cell.cpu_app, cell.gpu_app
    );
    for v in &audit.violations {
        msg.push_str("  ");
        msg.push_str(&v.detail);
        msg.push('\n');
    }
    panic!("{msg}");
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: &str = r#"
[scenario]
name = "tiny"
[workload]
cpu = ["x264"]
gpu = ["ubench"]
"#;

    fn tmp_store(name: &str) -> Arc<DiskStore> {
        let dir =
            std::env::temp_dir().join(format!("hiss_serve_service_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Arc::new(DiskStore::open(dir).unwrap())
    }

    #[test]
    fn invalid_scenarios_are_rejected_with_diagnostics() {
        let service = Service::new(None, 1);
        let err = service
            .submit("t.hiss", "[scenario]\nname = \"t\"\n", false, |_| {
                panic!("nothing should stream")
            })
            .unwrap_err();
        assert!(!err.is_empty());
        assert_eq!(err[0].code, hiss_lint::Code::ScenarioInvalid);
        let mut reg = MetricsRegistry::new();
        service.publish(&mut reg, "bench.serve");
        assert_eq!(reg.counter_value("bench.serve.requests"), Some(1));
        assert_eq!(reg.counter_value("bench.serve.rejected"), Some(1));
        assert_eq!(reg.counter_value("bench.serve.cells_simulated"), Some(0));
    }

    #[test]
    fn warnings_alone_do_not_reject() {
        let service = Service::new(None, 1);
        // HL006 (degenerate axis) is Warn severity.
        let text = format!("{TINY}[sweep]\ngpus = [1]\n");
        let mut streamed = 0;
        let summary = service.submit("t.hiss", &text, false, |_| streamed += 1);
        assert_eq!(summary.unwrap().cells, 1);
        assert_eq!(streamed, 1);
    }

    #[test]
    fn second_submission_serves_every_cell_from_the_store() {
        let store = tmp_store("resubmit");
        let service = Service::new(Some(Arc::clone(&store)), 2);

        let mut first = Vec::new();
        let s1 = service
            .submit("tiny.hiss", TINY, false, |m| first.push(m.to_json()))
            .unwrap();
        assert_eq!((s1.cells, s1.simulated, s1.from_store), (1, 1, 0));

        let mut second = Vec::new();
        let s2 = service
            .submit("tiny.hiss", TINY, false, |m| second.push(m.to_json()))
            .unwrap();
        assert_eq!((s2.cells, s2.simulated, s2.from_store), (1, 0, 1));
        // Byte-identical snapshots, zero simulations the second time.
        assert_eq!(first, second);
        assert_eq!(store.hit_count(), 1);
        // The cell plus its three baselines (CPU, idle GPU, default
        // co-run), which the first submission's cache published.
        assert_eq!(store.write_count(), 4);

        let mut reg = MetricsRegistry::new();
        service.publish(&mut reg, "bench.serve");
        assert_eq!(reg.counter_value("bench.serve.cells_from_store"), Some(1));
        assert_eq!(reg.counter_value("bench.serve.store_writes"), Some(4));
        assert_eq!(reg.counter_value("bench.serve.baseline_hits"), Some(0));
        assert_eq!(reg.counter_value("bench.serve.baseline_misses"), Some(3));
        assert_eq!(reg.counter_value("bench.serve.queue_peak"), Some(1));
        // One single-cell chunk per submission.
        assert_eq!(service.pool().totals(), (2, 2));

        std::fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn served_snapshots_match_the_batch_compiler() {
        let store = tmp_store("batch_match");
        let service = Service::new(Some(Arc::clone(&store)), 2);
        // Warm the store, then serve from it.
        service.submit("tiny.hiss", TINY, false, |_| {}).unwrap();
        let mut served = Vec::new();
        service
            .submit("tiny.hiss", TINY, false, |m| served.push(m.to_json()))
            .unwrap();

        let sc = Scenario::from_str(TINY).unwrap();
        let direct: Vec<String> = hiss_scenario::run_with_metrics(&RunCtx::new(2), &sc, false)
            .into_iter()
            .map(|(_, m)| m.to_json())
            .collect();
        assert_eq!(served, direct);

        std::fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn law_violating_store_entries_are_recomputed_and_healed() {
        let store = tmp_store("law_violation");
        let service = Service::new(Some(Arc::clone(&store)), 2);
        let mut first = Vec::new();
        service
            .submit("tiny.hiss", TINY, false, |m| first.push(m.to_json()))
            .unwrap();

        // Doctor the stored registry: bump `run.events_popped` past
        // `run.events_pushed` and rewrite it through the store's own
        // writer, so the entry is perfectly valid on disk — checksummed,
        // parseable — and only the conservation-law audit can reject it.
        let sc = Scenario::from_str(TINY).unwrap();
        let key = cell_store_key(&expand(&sc, false)[0]);
        let mut doctored = store.load(&key).unwrap();
        let pushed = doctored.counter_value("run.events_pushed").unwrap();
        doctored.counter("run.events_popped", pushed + 1);
        store.save(&key, &doctored).unwrap();

        let mut again = Vec::new();
        let summary = service
            .submit("tiny.hiss", TINY, false, |m| again.push(m.to_json()))
            .unwrap();
        // Rejected, recomputed, healed — and still byte-identical.
        assert_eq!((summary.simulated, summary.from_store), (1, 0));
        assert_eq!(first, again);
        let healed = store.load(&key).unwrap();
        assert!(
            hiss_obs::invariants::audit(&healed, hiss_obs::schema::Scope::Run).clean(),
            "entry was healed"
        );

        let mut reg = MetricsRegistry::new();
        service.publish(&mut reg, "bench.serve");
        // First submission audits 1 fresh cell; the second audits the
        // doctored load and the recomputed replacement.
        assert_eq!(reg.counter_value("bench.serve.cells_audited"), Some(3));

        std::fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn corrupt_store_entries_fall_back_to_recompute() {
        let store = tmp_store("corrupt_fallback");
        let service = Service::new(Some(Arc::clone(&store)), 2);
        let mut first = Vec::new();
        service
            .submit("tiny.hiss", TINY, false, |m| first.push(m.to_json()))
            .unwrap();

        // Truncate the single entry on disk.
        let sc = Scenario::from_str(TINY).unwrap();
        let key = cell_store_key(&expand(&sc, false)[0]);
        let path = store.entry_path(&key);
        let bytes = std::fs::read(&path).unwrap();
        store
            .atomic_write(&path, &bytes[..bytes.len() / 2])
            .unwrap();

        let mut again = Vec::new();
        let summary = service
            .submit("tiny.hiss", TINY, false, |m| again.push(m.to_json()))
            .unwrap();
        // Detected, recomputed, republished — and still byte-identical.
        assert_eq!((summary.simulated, summary.from_store), (1, 0));
        assert_eq!(store.invalid_count(), 1);
        assert_eq!(first, again);
        assert!(!store.load(&key).unwrap().is_empty(), "entry was healed");

        std::fs::remove_dir_all(store.root()).unwrap();
    }
}
