//! The transport-free service core: validate, execute, count.
//!
//! [`Service`] is everything the server does minus the sockets, so the
//! full submission path — lint gate, grid expansion, store lookups,
//! pool execution, snapshot labelling — is exercisable deterministically
//! from unit tests and the bench suite without binding a port.
//!
//! # Execution
//!
//! Every submission runs on the service's one [`WorkerPool`] of
//! `threads` workers, whatever the number of connections; the workers
//! start with the first submission. A worker does a cell's CPU work: it
//! writes a memo hit's line, loads and audits the cell's entry, or
//! simulates, audits and encodes a new entry. The submitting
//! (connection) thread gets the cells back in grid order, each as soon
//! as every earlier one is done: it emits the cell's line first, then
//! publishes the cell's entry (the fsync'd write), so no worker waits
//! on the disk and no line waits on a later cell. [`Service::submit`]
//! returns after every entry of the submission is published, so a
//! resubmission after its `done` hits the store for every cell.
//!
//! # Store identity
//!
//! A cell's store key ([`cell_store_key`]) hashes the `Debug` rendering
//! of its fully resolved [`Knobs`](hiss_scenario::Knobs) (system config
//! including the replica-bumped seed, mitigation switches, QoS
//! threshold, GPU count) plus the application names and the rendered
//! `[topology]` (or `"default"`). Sweep coordinates and replica indices
//! are already folded into the knobs, so the key is exactly the
//! simulation's input — two scenarios sharing a cell share its entry.
//! A store miss runs [`hiss_scenario::simulate`], the cell's own
//! simulation and nothing else (the service streams no normalised
//! rows, so it needs no baselines), and publishes one entry. The stored
//! payload is the *bare run registry* (`RunReport::metrics`, no
//! `cell.*` labels); identity labels are re-applied at stream time with
//! the same [`Cell::labelled`] the batch compiler uses, which keeps a
//! served snapshot byte-identical to a freshly simulated one.
//!
//! # Memo
//!
//! Each service holds up to `MEMO_ENTRIES` (1024) verified entries in
//! memory: an entry enters when [`DiskStore::load`] returned it and it
//! passed the audit, and a later hit on its key writes the cell's line
//! with no file read, checksum, decode or audit. That is sound because
//! the entry was audited when it entered and its key names its content:
//! a key's entry never changes. Fresh results do not enter; they are
//! published and enter on their first re-read. The memo holds an entry
//! encoded, with a gap where the `cell.*` labels go ([`JsonGap`], about
//! 3.5 KB for a Fig. 3 cell), so a hit writes the labels into it without
//! building a registry, and a full memo is cleared before the next
//! entry enters.
//! An entry doctored on disk after it entered is not read again by
//! this service; the next process that reads it audits and heals it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use hiss::{DiskStore, PoolTally, StoreKey, WorkerPool};
use hiss_lint::{Diagnostic, Severity};
use hiss_obs::{JsonGap, MetricsRegistry};
use hiss_scenario::{expand, simulate, Cell, Scenario};

/// Most finished cells of one submission that wait to be streamed while
/// its connection is slow to take them (more only when the pool has more
/// workers), so a slow reader cannot grow the buffer.
pub const STREAM_CHUNK: usize = 8;

/// Most verified entries one service holds in its memo. A full memo is
/// cleared before the next entry enters, so it never holds more, and a
/// cleared entry is read from disk once more and enters again.
const MEMO_ENTRIES: usize = 1024;

/// What one completed submission did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Summary {
    /// Cells in the submission's grid.
    pub cells: u64,
    /// Cells executed by the simulation engine.
    pub simulated: u64,
    /// Cells served from the store without simulating: read from disk,
    /// or from the service's memo of entries it read before.
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
    memo: Arc<Memo>,
    pool: WorkerPool,
    requests: AtomicU64,
    rejected: AtomicU64,
    queue_peak: AtomicU64,
    cells_simulated: AtomicU64,
    cells_from_store: AtomicU64,
    /// Conservation-law audits that ran: one per disk read and one per
    /// simulation; a memo hit runs none.
    cells_audited: AtomicU64,
}

impl Service {
    /// A service backed by `store` (or purely in-memory when `None`)
    /// that runs every submission's cells on one pool of `threads`
    /// workers, started by the first submission.
    pub fn new(store: Option<Arc<DiskStore>>, threads: usize) -> Service {
        Service::with_memo_bound(store, threads, MEMO_ENTRIES)
    }

    /// [`Self::new`] with a memo of at most `bound` entries.
    fn with_memo_bound(store: Option<Arc<DiskStore>>, threads: usize, bound: usize) -> Service {
        Service {
            store,
            memo: Arc::new(Memo::new(bound)),
            pool: WorkerPool::new(threads),
            requests: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            queue_peak: AtomicU64::new(0),
            cells_simulated: AtomicU64::new(0),
            cells_from_store: AtomicU64::new(0),
            cells_audited: AtomicU64::new(0),
        }
    }

    /// The backing disk store, if any.
    pub fn store(&self) -> Option<&Arc<DiskStore>> {
        self.store.as_ref()
    }

    /// Pool work of every submission so far: one invocation per
    /// submission, one job per cell.
    pub fn pool(&self) -> &PoolTally {
        self.pool.tally()
    }

    /// Validates and executes one submission, calling `emit` with each
    /// cell's snapshot line (its labelled registry's JSON, no newline) in
    /// deterministic grid order, as soon as the cell and every earlier
    /// one are done. Returns once every new entry is published.
    ///
    /// Returns the lint diagnostics when the scenario is rejected: any
    /// `Error`-severity finding rejects; warnings alone do not block
    /// execution but are still reported back in that case.
    pub fn submit(
        &self,
        file: &str,
        text: &str,
        quick: bool,
        mut emit: impl FnMut(String),
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
        let cells: Arc<[Cell]> = expand(&sc, quick).into();
        self.queue_peak
            .fetch_max(cells.len() as u64, Ordering::Relaxed);
        let mut summary = Summary {
            cells: cells.len() as u64,
            simulated: 0,
            from_store: 0,
        };
        let (store, memo, job_cells) = (
            self.store.clone(),
            Arc::clone(&self.memo),
            Arc::clone(&cells),
        );
        let job = move |i: usize| serve_cell(store.as_deref(), &memo, &job_cells[i]);
        self.pool
            .stream(cells.len(), STREAM_CHUNK, job, |served: Served| {
                self.cells_audited
                    .fetch_add(served.audits, Ordering::Relaxed);
                emit(served.line);
                if let (Some(store), Some((key, entry))) = (&self.store, served.entry) {
                    // Best-effort publish: a failed write degrades to
                    // recompute-next-time, never to a wrong result.
                    let _ = store.save_entry(&key, &entry);
                }
                let (count, total) = if served.simulated {
                    (&mut summary.simulated, &self.cells_simulated)
                } else {
                    (&mut summary.from_store, &self.cells_from_store)
                };
                *count += 1;
                total.fetch_add(1, Ordering::Relaxed);
            });
        Ok(summary)
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

/// A service's memo of verified store entries: every entry that
/// [`DiskStore::load`] returned and that passed the audit, by key, at
/// most `bound` of them. Fresh results never enter it. An entry is held
/// encoded, with a gap at [`LABELS`], so a hit writes the labelled line
/// without decoding or encoding the entry.
#[derive(Debug)]
struct Memo {
    bound: usize,
    entries: Mutex<BTreeMap<StoreKey, Arc<JsonGap>>>,
}

impl Memo {
    fn new(bound: usize) -> Memo {
        Memo {
            bound,
            entries: Mutex::new(BTreeMap::new()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<StoreKey, Arc<JsonGap>>> {
        // No update panics halfway, so a poisoned map is still whole.
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn get(&self, key: &StoreKey) -> Option<Arc<JsonGap>> {
        self.lock().get(key).cloned()
    }

    /// Holds `held` under `key`, clearing a full memo first.
    fn insert(&self, key: StoreKey, held: Arc<JsonGap>) {
        let mut entries = self.lock();
        if entries.len() >= self.bound {
            entries.clear();
        }
        entries.insert(key, held);
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.lock().len()
    }
}

/// The prefix of every identity label [`Cell::labelled`] adds. A bare
/// run registry has no name with it, so the labels of a served line all
/// fall in the gap a held entry leaves at this place.
const LABELS: &str = "cell.";

/// One cell as a worker leaves it for the submitting thread.
struct Served {
    /// The labelled snapshot line to stream.
    line: String,
    /// Conservation-law audits run on the cell (0 to 2).
    audits: u64,
    /// `false` for a store hit.
    simulated: bool,
    /// A simulated cell's key and encoded entry, when there is a store
    /// to publish it to.
    entry: Option<(StoreKey, Vec<u8>)>,
}

/// Audits one bare run registry against the run-scope conservation
/// laws ([`hiss_obs::invariants`]) — the serving-path sanitizer, always
/// on regardless of build profile or `HISS_SANITIZE`.
fn audit(reg: &MetricsRegistry) -> hiss_obs::invariants::AuditReport {
    hiss_obs::invariants::audit(reg, hiss_obs::schema::Scope::Run)
}

/// A worker's share of one cell: a memo hit, or a store hit if the
/// entry loads and audits clean, otherwise one simulation, audited and
/// encoded as the entry to publish.
///
/// Every registry passes the conservation-law audit before it is served
/// or stored: a stored entry that parses but violates a law (a buggy
/// writer, a hand-edit surviving the checksum) is treated like a corrupt
/// one — recomputed and healed in place — while a *fresh* result
/// violating a law is a simulator bug and panics with the named diff
/// rather than poisoning the store. A memo hit runs no audit: its entry
/// passed one when it entered, and its key names its content.
fn serve_cell(store: Option<&DiskStore>, memo: &Memo, cell: &Cell) -> Served {
    let key = cell_store_key(cell);
    let hit = |held: &JsonGap, audits| Served {
        line: held.fill(&cell.labelled(MetricsRegistry::new())),
        audits,
        simulated: false,
        entry: None,
    };
    if let Some(held) = memo.get(&key) {
        return hit(&held, 0);
    }
    let mut audits = 0;
    if let Some(metrics) = store.and_then(|store| store.load(&key)) {
        audits += 1;
        // A stored `cell.` name would not stream as a fresh run's does.
        let bare = || !metrics.iter().any(|(name, _)| name.starts_with(LABELS));
        if audit(&metrics).clean() && bare() {
            let held = Arc::new(metrics.to_json_gap(LABELS));
            let served = hit(&held, audits);
            memo.insert(key, held);
            return served;
        }
    }
    let metrics = simulate(cell).metrics;
    audits += 1;
    require_clean(&audit(&metrics), cell);
    let entry = store.map(|_| (key, hiss::store::encode_entry(&metrics)));
    Served {
        line: cell.labelled(metrics).to_json(),
        audits,
        simulated: true,
        entry,
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
            .submit("tiny.hiss", TINY, false, |line| first.push(line))
            .unwrap();
        assert_eq!((s1.cells, s1.simulated, s1.from_store), (1, 1, 0));

        let mut second = Vec::new();
        let s2 = service
            .submit("tiny.hiss", TINY, false, |line| second.push(line))
            .unwrap();
        assert_eq!((s2.cells, s2.simulated, s2.from_store), (1, 0, 1));
        // Byte-identical snapshots, zero simulations the second time.
        assert_eq!(first, second);
        assert_eq!(store.hit_count(), 1);
        // One simulation, one entry: the service resolves no baselines.
        assert_eq!(store.write_count(), 1);

        let mut reg = MetricsRegistry::new();
        service.publish(&mut reg, "bench.serve");
        assert_eq!(reg.counter_value("bench.serve.cells_from_store"), Some(1));
        assert_eq!(reg.counter_value("bench.serve.store_writes"), Some(1));
        assert_eq!(reg.counter_value("bench.serve.queue_peak"), Some(1));
        // One pool invocation per submission, one job per cell.
        assert_eq!(service.pool().totals(), (2, 2));

        // The second pass read and audited the entry, so it entered the
        // memo: with the file gone, a third pass still streams it, and
        // reads, checksums, decodes and audits nothing.
        let key = cell_store_key(&expand(&Scenario::from_str(TINY).unwrap(), false)[0]);
        std::fs::remove_file(store.entry_path(&key)).unwrap();
        let mut third = Vec::new();
        let s3 = service
            .submit("tiny.hiss", TINY, false, |line| third.push(line))
            .unwrap();
        assert_eq!((s3.cells, s3.simulated, s3.from_store), (1, 0, 1));
        assert_eq!(third, first);
        assert_eq!((store.hit_count(), store.miss_count()), (1, 1));
        let mut reg = MetricsRegistry::new();
        service.publish(&mut reg, "bench.serve");
        assert_eq!(reg.counter_value("bench.serve.cells_audited"), Some(2));
        assert_eq!(reg.counter_value("bench.serve.cells_from_store"), Some(2));

        std::fs::remove_dir_all(store.root()).unwrap();
    }

    /// The memo never holds more than its bound: a full memo is cleared
    /// before the next entry enters, and an entry cleared out is read
    /// from disk again, so every pass streams the same bytes.
    #[test]
    fn the_memo_never_holds_more_than_its_bound() {
        let store = tmp_store("memo_bound");
        let service = Service::with_memo_bound(Some(Arc::clone(&store)), 1, 2);
        let text = format!("{TINY}[sweep]\nqos_percent = [0, 1, 5]\n");
        let mut passes = Vec::new();
        for _ in 0..4 {
            let mut streamed = Vec::new();
            service
                .submit("t.hiss", &text, false, |line| {
                    streamed.push(line);
                    assert!(service.memo.len() <= 2, "memo outgrew its bound");
                })
                .unwrap();
            passes.push(streamed);
        }
        assert!(passes.iter().all(|p| p == &passes[0]));
        // Pass 1 simulates 3 cells; every later pass reads each cell
        // from disk, since a 2-entry memo cleared at every third insert
        // holds no cell that comes round again before it is cleared.
        assert_eq!((store.write_count(), store.hit_count()), (3, 9));
        assert_eq!(service.memo.len(), 1);

        std::fs::remove_dir_all(store.root()).unwrap();
    }

    /// Served streams equal the batch compiler's on both of its paths:
    /// default cells, whose noisy run the batch takes from the co-run
    /// memo, and every knob it lowers onto the builder instead
    /// (mitigation, `gpus`, QoS, `[criticality]` on raytrace only, and a
    /// `[topology]` with a NIC). Fresh and store-served alike.
    #[test]
    fn served_snapshots_match_the_batch_compiler() {
        let store = tmp_store("batch_match");
        let service = Service::new(Some(Arc::clone(&store)), 2);
        let knobs = r#"
[scenario]
name = "knobs"
[workload]
cpu = ["raytrace", "x264"]
gpu = ["ubench"]
[criticality]
critical = ["raytrace"]
critical_devices = [0]
[sweep]
mitigation = ["default", "coalesce"]
gpus = [1, 2]
qos_percent = [0, 5]
"#;
        let topology = format!("{TINY}[topology]\ndevices = [\"gpu\", \"nic\"]\n");
        for text in [TINY, knobs, &topology] {
            let sc = Scenario::from_str(text).unwrap();
            let direct: Vec<String> =
                hiss_scenario::run_with_metrics(&hiss::RunCtx::new(2), &sc, false)
                    .into_iter()
                    .map(|(_, m)| m.to_json())
                    .collect();
            for pass in ["fresh", "stored"] {
                let mut served = Vec::new();
                service
                    .submit("t.hiss", text, false, |line| served.push(line))
                    .unwrap();
                assert_eq!(served, direct, "{pass} stream of {text}");
            }
        }
        // 1 + 16 + 1 cells, of which 17 distinct: the grid's default
        // x264 cell is TINY's. Each distinct cell is simulated and stored
        // exactly once, and read from disk once, by the pass after it;
        // TINY's cell entered the memo on its second pass, so both of the
        // grid's passes serve it from memory.
        assert_eq!(store.write_count(), 17);
        assert_eq!(store.hit_count(), 17);

        std::fs::remove_dir_all(store.root()).unwrap();
    }

    /// Submits TINY, overwrites the cell's entry — and the extra key
    /// `also(cell)` names, if any — with a copy that `doctor` spoiled,
    /// then resubmits. The copy is written through the store's own writer,
    /// so it is perfectly valid on disk — checksummed, parseable — and
    /// only the service's checks of its content can reject it. The
    /// resubmission must recompute, stream byte-identical snapshots and
    /// heal the entry.
    fn resubmit_over_a_doctored_entry(
        name: &str,
        doctor: impl Fn(&mut MetricsRegistry),
        also: impl Fn(&Cell) -> Option<StoreKey>,
    ) {
        let store = tmp_store(name);
        let service = Service::new(Some(Arc::clone(&store)), 2);
        let mut first = Vec::new();
        service
            .submit("tiny.hiss", TINY, false, |line| first.push(line))
            .unwrap();

        let sc = Scenario::from_str(TINY).unwrap();
        let cell = &expand(&sc, false)[0];
        let key = cell_store_key(cell);
        let mut doctored = store.load(&key).unwrap();
        doctor(&mut doctored);
        for k in std::iter::once(key.clone()).chain(also(cell)) {
            store.save(&k, &doctored).unwrap();
        }

        let mut again = Vec::new();
        let summary = service
            .submit("tiny.hiss", TINY, false, |line| again.push(line))
            .unwrap();
        // Rejected, recomputed, healed — and still byte-identical.
        assert_eq!((summary.simulated, summary.from_store), (1, 0));
        assert_eq!(first, again);
        let healed = store.load(&key).unwrap();
        assert!(
            healed.to_json() != doctored.to_json()
                && hiss_obs::invariants::audit(&healed, hiss_obs::schema::Scope::Run).clean(),
            "entry was healed"
        );

        // The doctored entry never entered the memo: a third pass reads
        // the healed entry from disk, audits it and serves it.
        let hits = store.hit_count();
        let mut third = Vec::new();
        let summary = service
            .submit("tiny.hiss", TINY, false, |line| third.push(line))
            .unwrap();
        assert_eq!((summary.simulated, summary.from_store), (0, 1));
        assert_eq!(first, third);
        assert_eq!(store.hit_count(), hits + 1);

        let mut reg = MetricsRegistry::new();
        service.publish(&mut reg, "bench.serve");
        // First submission audits 1 fresh cell; the second audits the
        // doctored load and the recomputed replacement; the third the
        // healed load.
        assert_eq!(reg.counter_value("bench.serve.cells_audited"), Some(4));

        std::fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn law_violating_store_entries_are_recomputed_and_healed() {
        resubmit_over_a_doctored_entry("law_violation", break_a_law, |_| None);
    }

    /// `run.events_popped` bumped past `run.events_pushed`: only the
    /// conservation-law audit can tell.
    fn break_a_law(metrics: &mut MetricsRegistry) {
        let pushed = metrics.counter_value("run.events_pushed").unwrap();
        metrics.counter("run.events_popped", pushed + 1);
    }

    /// A run registry never carries a `cell.` name, and a stored one that
    /// does would not stream as a fresh run does, so it is recomputed.
    #[test]
    fn store_entries_carrying_cell_labels_are_recomputed_and_healed() {
        resubmit_over_a_doctored_entry(
            "cell_label",
            |metrics| metrics.label("cell.cpu_app", "x264"),
            |_| None,
        );
    }

    /// A recompute is a simulation, never another store lookup: the
    /// same doctored registry, also saved under the default co-run's
    /// baseline key (`corun_default`), cannot stand in for the fresh
    /// result.
    #[test]
    fn doctored_corun_entries_cannot_satisfy_a_recompute() {
        resubmit_over_a_doctored_entry("doctored_corun", break_a_law, |cell| {
            Some(StoreKey::from_parts(&[
                &format!("{:?}", cell.knobs.cfg),
                "corun_default",
                &cell.cpu_app,
                &cell.gpu_app,
            ]))
        });
    }

    #[test]
    fn corrupt_store_entries_fall_back_to_recompute() {
        let store = tmp_store("corrupt_fallback");
        let service = Service::new(Some(Arc::clone(&store)), 2);
        let mut first = Vec::new();
        service
            .submit("tiny.hiss", TINY, false, |line| first.push(line))
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
            .submit("tiny.hiss", TINY, false, |line| again.push(line))
            .unwrap();
        // Detected, recomputed, republished — and still byte-identical.
        assert_eq!((summary.simulated, summary.from_store), (1, 0));
        assert_eq!(store.invalid_count(), 1);
        assert_eq!(first, again);
        assert!(!store.load(&key).unwrap().is_empty(), "entry was healed");

        std::fs::remove_dir_all(store.root()).unwrap();
    }
}
