//! The in-process mirror of the program's two paths, with a span around
//! every call into a layer.
//!
//! The served path follows `hiss_serve::Service::submit` and the
//! streaming loop of `hiss_serve::Server`: request decode, lint, parse,
//! expand, then per `STREAM_CHUNK` through `run_jobs_profiled`: store
//! key and load, audit, baselines, `run_cell_report`, audit, save,
//! `cell_metrics`, then encode and client decode of every snapshot. The
//! batch path follows `hiss-cli scenario run --metrics`: parse, expand,
//! one pool invocation over the grid, encode.
//!
//! Every count comes from values these calls return — the pool's
//! [`PoolProfile`], the run snapshots, and the counters of a
//! [`DiskStore`] the mirror opens itself — never from a before/after
//! delta of a process-global counter.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use hiss::{BaselineCache, DiskStore, PoolProfile, RunReport};
use hiss_obs::invariants::audit;
use hiss_obs::schema::Scope;
use hiss_obs::MetricsRegistry;
use hiss_scenario::{cell_metrics, expand, run_cell_report, Cell, Scenario};
use hiss_serve::{cell_store_key, Request, Response};

use crate::load::Digest;
use crate::trace::Recorder;

/// The streaming chunk of `hiss_serve::Service::submit`.
const STREAM_CHUNK: usize = hiss_serve::service::STREAM_CHUNK;

/// Work counts of one replay, summed over its submissions.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Cells expanded.
    pub cells: u64,
    /// Baseline lookups answered by an entry an earlier lookup created.
    pub cache_hits: u64,
    /// Baseline lookups that created (simulated or loaded) the entry.
    pub cache_misses: u64,
    /// `run_cell_report` calls.
    pub soc_runs: u64,
    /// Calendar counters summed over the simulated cells.
    pub events_pushed: u64,
    /// See `events_pushed`.
    pub events_popped: u64,
    /// Largest `run.events_peak` of any simulated cell.
    pub events_peak: u64,
    /// Simulated time summed over simulated cells, ns.
    pub simulated_ns: u64,
    /// Model counters summed over simulated cells.
    pub ssrs_serviced: u64,
    /// See `ssrs_serviced`.
    pub interrupts: u64,
    /// See `ssrs_serviced`.
    pub ipis: u64,
    /// See `ssrs_serviced`.
    pub iommu_requests: u64,
    /// See `ssrs_serviced`.
    pub walker_walks: u64,
    /// Pool invocations.
    pub invocations: u64,
    /// Pool jobs.
    pub jobs: u64,
    /// Sum of job durations, s.
    pub busy_s: f64,
    /// Worker time not spent in a job (`threads × wall − busy`), s.
    pub idle_s: f64,
    /// Sum over jobs of invocation start to job start, s.
    pub queue_wait_s: f64,
    /// Sum over invocations of the busiest worker's job count.
    pub busiest_worker_jobs: u64,
    /// Audits run and snapshots that failed one.
    pub audits: u64,
    /// Snapshots whose audit found a violation.
    pub audit_failures: u64,
    /// Bytes of encoded snapshot lines.
    pub encoded_bytes: u64,
    /// Store entry bytes read on hits and written on saves.
    pub store_bytes_read: u64,
    /// See `store_bytes_read`.
    pub store_bytes_written: u64,
    /// Failed saves.
    pub store_save_errors: u64,
    /// The owned store's counters.
    pub store_hits: u64,
    /// See `store_hits`.
    pub store_misses: u64,
    /// See `store_hits`.
    pub store_invalid: u64,
    /// See `store_hits`.
    pub store_writes: u64,
}

impl Tally {
    fn add_run(&mut self, m: &MetricsRegistry) {
        let c = |name: &str| m.counter_value(name).unwrap_or(0);
        self.soc_runs += 1;
        self.events_pushed += c("run.events_pushed");
        self.events_popped += c("run.events_popped");
        self.events_peak = self.events_peak.max(c("run.events_peak"));
        self.simulated_ns += c("run.elapsed_ns");
        self.ssrs_serviced += c("kernel.ssrs_serviced");
        self.interrupts += c("kernel.interrupts.total");
        self.ipis += c("kernel.ipis");
        self.iommu_requests += c("iommu.requests");
        self.walker_walks += c("iommu.walker.walks");
    }

    fn add_pool(&mut self, p: &PoolProfile, waits: &[f64]) {
        let busy = p.job_s.mean() * p.job_s.count() as f64;
        self.invocations += 1;
        self.jobs += p.jobs as u64;
        self.busy_s += busy;
        self.idle_s += (p.threads as f64 * p.wall_s - busy).max(0.0);
        self.queue_wait_s += waits.iter().sum::<f64>();
        self.busiest_worker_jobs += p.jobs_per_worker.iter().copied().max().unwrap_or(0);
    }
}

/// Which baseline lookups hit: a lookup hits when the cache hands back
/// the very report an earlier lookup of the same key received.
#[derive(Debug, Default)]
struct BaselineTally {
    seen: BTreeMap<String, Arc<RunReport>>,
    hits: u64,
    misses: u64,
}

impl BaselineTally {
    fn record(&mut self, key: String, report: Arc<RunReport>) {
        match self.seen.get(&key) {
            Some(prev) if Arc::ptr_eq(prev, &report) => self.hits += 1,
            _ => {
                self.misses += 1;
                self.seen.insert(key, report);
            }
        }
    }
}

/// One replay: a recorder, the tallies, and (served path) the store.
pub struct Mirror<'a> {
    rec: &'a Recorder,
    store: Option<Arc<DiskStore>>,
    threads: usize,
    tally: Mutex<Tally>,
    baselines: Mutex<BaselineTally>,
}

/// One replayed submission.
#[derive(Debug, Clone)]
pub struct Replayed {
    /// Digest of the snapshot lines, as the client would see them.
    pub digest: u64,
    /// Cell lines.
    pub lines: u64,
    /// Cells served from the store.
    pub from_store: u64,
    /// Pipeline wall time (the root span), s.
    pub total_s: f64,
}

impl<'a> Mirror<'a> {
    /// A fresh replay. The process-wide baseline cache is cleared and
    /// attached to `store` (as `hiss-cli serve` attaches its store), or
    /// detached for the batch path.
    pub fn new(rec: &'a Recorder, store: Option<Arc<DiskStore>>, threads: usize) -> Mirror<'a> {
        let cache = BaselineCache::global();
        cache.clear();
        match &store {
            Some(s) => cache.attach_disk(Arc::clone(s)),
            None => cache.detach_disk(),
        }
        Mirror {
            rec,
            store,
            threads,
            tally: Mutex::new(Tally::default()),
            baselines: Mutex::new(BaselineTally::default()),
        }
    }

    /// The counts so far, plus the owned store's counters.
    pub fn tally(&self) -> Tally {
        let mut t = self.tally.lock().expect("tally poisoned").clone();
        let b = self.baselines.lock().expect("tally poisoned");
        t.cache_hits = b.hits;
        t.cache_misses = b.misses;
        if let Some(s) = &self.store {
            t.store_hits = s.hit_count();
            t.store_misses = s.miss_count();
            t.store_invalid = s.invalid_count();
            t.store_writes = s.write_count();
        }
        t
    }

    fn with_tally(&self, f: impl FnOnce(&mut Tally)) {
        f(&mut self.tally.lock().expect("tally poisoned"));
    }

    /// Resolves the cell's two baselines inside a `cache.baseline` span,
    /// so `run_cell_report` finds them cached and `soc.run` times only
    /// the cell's own simulation.
    fn baselines(&self, req: u32, parent: u32, cell: &Cell) {
        let cache = BaselineCache::global();
        let cfg = &cell.knobs.cfg;
        let (cpu, gpu) = self.rec.span("cache.baseline", req, Some(parent), || {
            (
                cache.cpu_baseline(cfg, &cell.cpu_app, &cell.gpu_app),
                cache.gpu_idle_baseline(cfg, &cell.gpu_app),
            )
        });
        let cfg_key = format!("{cfg:?}");
        let mut b = self.baselines.lock().expect("tally poisoned");
        b.record(
            format!("cpu|{cfg_key}|{}|{}", cell.cpu_app, cell.gpu_app),
            cpu,
        );
        b.record(format!("gpu|{cfg_key}|{}", cell.gpu_app), gpu);
    }

    /// Simulates one cell: baselines, then `run_cell_report`, then (on
    /// the served path, which audits every fresh result) the audit.
    fn simulate(&self, req: u32, parent: u32, cell: &Cell, audited: bool) -> Arc<RunReport> {
        self.baselines(req, parent, cell);
        let (_, report) = self
            .rec
            .span("soc.run", req, Some(parent), || run_cell_report(cell));
        self.with_tally(|t| t.add_run(&report.metrics));
        if audited {
            let clean = self.rec.span("obs.audit", req, Some(parent), || {
                audit(&report.metrics, Scope::Run).clean()
            });
            self.with_tally(|t| {
                t.audits += 1;
                t.audit_failures += u64::from(!clean);
            });
        }
        report
    }

    /// Serves one cell as `Service` does: store hit if the entry loads
    /// and audits clean, otherwise simulate and publish.
    fn serve_cell(&self, req: u32, parent: u32, cell: &Cell) -> (MetricsRegistry, bool) {
        let store = self.store.as_ref().expect("served replays own a store");
        let (key, loaded) = self.rec.span("store.load", req, Some(parent), || {
            let key = cell_store_key(cell);
            let loaded = store.load(&key);
            (key, loaded)
        });
        if let Some(metrics) = loaded {
            let clean = self.rec.span("obs.audit", req, Some(parent), || {
                audit(&metrics, Scope::Run).clean()
            });
            let bytes = std::fs::metadata(store.entry_path(&key)).map_or(0, |m| m.len());
            self.with_tally(|t| {
                t.audits += 1;
                t.store_bytes_read += bytes;
            });
            if clean {
                let snap = self.rec.span("serve.label", req, Some(parent), || {
                    cell_metrics(cell, &RunReport::from_metrics(metrics))
                });
                return (snap, true);
            }
            // A law-violating entry is recomputed, as Service does;
            // the audit failure is not a served-snapshot failure.
        }
        let report = self.simulate(req, parent, cell, true);
        let saved = self.rec.span("store.save", req, Some(parent), || {
            store.save(&key, &report.metrics)
        });
        let bytes = std::fs::metadata(store.entry_path(&key)).map_or(0, |m| m.len());
        self.with_tally(|t| match saved {
            Ok(()) => t.store_bytes_written += bytes,
            Err(_) => t.store_save_errors += 1,
        });
        let snap = self.rec.span("serve.label", req, Some(parent), || {
            cell_metrics(cell, &report)
        });
        (snap, false)
    }

    /// Runs `job` over `cells` in one pool invocation inside a
    /// `runner.invoke` span, each job inside a `runner.job` span.
    fn pool<T: Send>(
        &self,
        req: u32,
        parent: u32,
        cells: &[Cell],
        job: impl Fn(u32, &Cell) -> T + Sync,
    ) -> Vec<T> {
        let inv = self.rec.open("runner.invoke", req, Some(parent));
        let start = Instant::now();
        let (results, profile) = hiss::run_jobs_profiled(self.threads, cells.len(), |i| {
            let wait = start.elapsed().as_secs_f64();
            let span = self.rec.open("runner.job", req, Some(inv.id));
            let out = job(span.id, &cells[i]);
            self.rec.close(span);
            (out, wait)
        });
        self.rec.close(inv);
        let (results, waits): (Vec<T>, Vec<f64>) = results.into_iter().unzip();
        self.with_tally(|t| t.add_pool(&profile, &waits));
        results
    }

    /// Replays one served submission (`request` is the encoded request
    /// line). Mirrors `Service::submit` plus the client's decode.
    pub fn submit(&self, req: u32, request: &str) -> Result<Replayed, String> {
        let t0 = Instant::now();
        let root = self.rec.open("submit", req, None);
        let r = root.id;
        let decoded = self.rec.span("serve.request_decode", req, Some(r), || {
            Request::decode(request)
        })?;
        let Request::Submit { scenario, quick } = decoded else {
            return Err("replayed request is not a submission".to_string());
        };
        let diags = self.rec.span("scenario.lint", req, Some(r), || {
            hiss_scenario::lint::lint_text("submission", &scenario)
        });
        if diags
            .iter()
            .any(|d| d.severity() == hiss_lint::Severity::Error)
        {
            return Err(format!("lint rejected a generated text: {}", diags[0]));
        }
        let sc = self
            .rec
            .span("scenario.parse", req, Some(r), || {
                Scenario::from_str(&scenario)
            })
            .map_err(|e| e.to_string())?;
        let cells = self
            .rec
            .span("scenario.expand", req, Some(r), || expand(&sc, quick));
        self.with_tally(|t| t.cells += cells.len() as u64);
        let mut out = Replayed {
            digest: 0,
            lines: 0,
            from_store: 0,
            total_s: 0.0,
        };
        let mut digest = Digest::default();
        for chunk in cells.chunks(STREAM_CHUNK) {
            let results = self.pool(req, r, chunk, |job, cell| self.serve_cell(req, job, cell));
            for (snapshot, from_store) in results {
                out.from_store += u64::from(from_store);
                let line = self.rec.span("obs.encode", req, Some(r), || {
                    Response::Cell(snapshot).encode()
                });
                let back = self.rec.span("serve.client_decode", req, Some(r), || {
                    Response::decode(&line)
                });
                if !matches!(back, Ok(Response::Cell(_))) {
                    return Err("a cell line did not decode as a cell".to_string());
                }
                self.with_tally(|t| t.encoded_bytes += line.len() as u64);
                digest.line(&line);
                out.lines += 1;
            }
        }
        self.rec.close(root);
        out.digest = digest.value();
        out.total_s = t0.elapsed().as_secs_f64();
        Ok(out)
    }

    /// Replays `hiss-cli scenario run <file> --metrics`: returns the
    /// snapshot lines' digest and count.
    pub fn batch(&self, req: u32, text: &str) -> Result<Replayed, String> {
        let t0 = Instant::now();
        let root = self.rec.open("batch", req, None);
        let r = root.id;
        let sc = self
            .rec
            .span("scenario.parse", req, Some(r), || Scenario::from_str(text))
            .map_err(|e| e.to_string())?;
        let cells = self
            .rec
            .span("scenario.expand", req, Some(r), || expand(&sc, false));
        self.with_tally(|t| t.cells += cells.len() as u64);
        let snapshots = self.pool(req, r, &cells, |job, cell| {
            let report = self.simulate(req, job, cell, false);
            self.rec.span("serve.label", req, Some(job), || {
                cell_metrics(cell, &report)
            })
        });
        let mut digest = Digest::default();
        for snap in &snapshots {
            let line = self.rec.span("obs.encode", req, Some(r), || snap.to_json());
            self.with_tally(|t| t.encoded_bytes += line.len() as u64);
            digest.line(&line);
        }
        self.rec.close(root);
        Ok(Replayed {
            digest: digest.value(),
            lines: snapshots.len() as u64,
            from_store: 0,
            total_s: t0.elapsed().as_secs_f64(),
        })
    }
}
