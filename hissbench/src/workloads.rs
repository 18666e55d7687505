//! The three workloads: preparation, the untraced measured run, output
//! checks, and the traced replay.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

use hiss::DiskStore;
use hiss_obs::invariants::audit;
use hiss_obs::schema::Scope;
use hiss_obs::MetricsRegistry;
use hiss_serve::Request;

use crate::gen;
use crate::load::{self, Digest, Record, Stop};
use crate::mirror::{Mirror, Replayed, Tally};
use crate::proc::{self, Server};
use crate::stats::{median, percentile};
use crate::trace::{self, Recorder};

/// Set-up samples per run; `setup_s` is their median. One more is taken
/// first and discarded, so a cold page cache does not count. The samples
/// are spread over the run (between `sweep_cold` runs; before and after
/// a closed loop), because set-up takes about a millisecond and the
/// host's speed drifts over seconds.
const SETUP_SAMPLES: usize = 41;

/// Unmeasured lead-in of a closed loop, seconds: its submissions are
/// checked but not timed.
const WARMUP_S: f64 = 1.0;

/// The end-to-end metrics, in report order, as `BENCHMARK.json` lists
/// them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cells_per_s", "1/s"),
    ("sim_events_per_s", "1/s"),
    ("submits_per_s", "1/s"),
    ("submit_p50_ms", "ms"),
    ("submit_tail_ms", "ms"),
    ("first_cell_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, in report order, as `BENCHMARK.json` lists
/// them.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("scenario.lint_s", "s"),
    ("scenario.parse_s", "s"),
    ("scenario.expand_s", "s"),
    ("scenario.cells", "count"),
    ("cache.baseline_s", "s"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("soc.run_s", "s"),
    ("soc.runs", "count"),
    ("soc.host_ns_per_event", "ns"),
    ("sim.events_pushed", "count"),
    ("sim.events_popped", "count"),
    ("sim.events_peak", "count"),
    ("sim.simulated_s", "s"),
    ("model.ssrs_serviced", "count"),
    ("model.interrupts", "count"),
    ("model.ipis", "count"),
    ("model.iommu_requests", "count"),
    ("model.walker_walks", "count"),
    ("runner.invocations", "count"),
    ("runner.jobs", "count"),
    ("runner.busy_s", "s"),
    ("runner.idle_s", "s"),
    ("runner.queue_wait_s", "s"),
    ("runner.max_worker_share", "ratio"),
    ("runner.self_s", "s"),
    ("store.load_s", "s"),
    ("store.save_s", "s"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.invalid", "count"),
    ("store.writes", "count"),
    ("store.bytes_read", "B"),
    ("store.bytes_written", "B"),
    ("obs.audit_s", "s"),
    ("obs.audits", "count"),
    ("obs.encode_s", "s"),
    ("obs.bytes", "B"),
    ("serve.request_decode_s", "s"),
    ("serve.label_s", "s"),
    ("serve.client_decode_s", "s"),
    ("serve.residual_s", "s"),
    ("trace.pipeline_s", "s"),
    ("trace.root_self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.submissions", "count"),
];

/// Fails unless `metrics` are exactly `expected`, names and units.
fn check_names(metrics: &[Metric], expected: &[(&str, &str)]) -> Result<(), String> {
    let got: Vec<(&str, &str)> = metrics.iter().map(|m| (m.name, m.unit)).collect();
    if got == expected {
        Ok(())
    } else {
        Err(format!(
            "metrics {got:?} do not match the declared {expected:?}"
        ))
    }
}

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One fresh `scenario run` process per sample over a full grid.
    SweepCold,
    /// Closed loop of repeated submissions, all served from the store.
    ServeReplay,
    /// Closed loop of never-seen submissions, all simulated.
    ServeFresh,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "sweep_cold" => Some(Workload::SweepCold),
            "serve_replay" => Some(Workload::ServeReplay),
            "serve_fresh" => Some(Workload::ServeFresh),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepCold => "sweep_cold",
            Workload::ServeReplay => "serve_replay",
            Workload::ServeFresh => "serve_fresh",
        }
    }

    /// The percentile `submit_tail_ms` reports: the highest one the
    /// workload's minimum sample count supports.
    fn tail_pct(self) -> usize {
        match self {
            Workload::SweepCold => 50,
            Workload::ServeReplay => 99,
            Workload::ServeFresh => 90,
        }
    }

    /// Submissions the traced replay covers.
    fn traced_submissions(self) -> usize {
        match self {
            Workload::SweepCold => 1,
            Workload::ServeReplay => 300,
            Workload::ServeFresh => 40,
        }
    }
}

/// What a run needs to know.
#[derive(Debug)]
pub struct Ctx {
    /// The built `hiss-cli`.
    pub cli: PathBuf,
    /// Work directory of this run (emptied before it starts).
    pub work: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Measuring time, s.
    pub seconds: f64,
    /// Closed-loop connections and pool workers.
    pub nproc: usize,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
    /// Sample count or other context, for the human-readable report.
    pub note: String,
}

fn metric(name: &'static str, unit: &'static str, value: f64, note: impl Into<String>) -> Metric {
    Metric {
        name,
        unit,
        value,
        note: note.into(),
    }
}

/// Operations attempted and failed, with the reasons.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// One line per failure (the first few are printed).
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one operation; `Err` marks it failed.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.failures.push(e);
        }
    }
}

/// The result of one run.
#[derive(Debug)]
pub struct Outcome {
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Output checks.
    pub checks: Checks,
}

/// Runs `workload`, traced or not.
pub fn run(workload: Workload, ctx: &Ctx, traced: bool) -> Result<Outcome, String> {
    let mut checks = Checks::default();
    let untraced = match workload {
        Workload::SweepCold => sweep_cold(ctx, &mut checks)?,
        _ => serve(workload, ctx, &mut checks)?,
    };
    let metrics = if traced {
        let m = traced_run(workload, ctx, &untraced, &mut checks)?;
        check_names(&m, PER_LAYER)?;
        m
    } else {
        let m = end_to_end(workload, &untraced)?;
        check_names(&m, END_TO_END)?;
        m
    };
    Ok(Outcome { metrics, checks })
}

/// The untraced run's samples.
#[derive(Default)]
struct Untraced {
    setup_s: Vec<f64>,
    /// Measured successful operations' latencies (s).
    latency_s: Vec<f64>,
    first_cell_s: Vec<f64>,
    /// Cells, simulated events and operations completed per host second,
    /// with the wall time they were taken over.
    cells_per_s: f64,
    events_per_s: f64,
    submits_per_s: f64,
    elapsed_s: f64,
    peak_rss_mib: f64,
    /// The digest and latency of every successful operation, by index.
    digests: BTreeMap<usize, (u64, f64)>,
    /// `(index, text)` of the measured operations the traced run replays.
    replay: Vec<(usize, String)>,
}

fn end_to_end(workload: Workload, u: &Untraced) -> Result<Vec<Metric>, String> {
    let p50 = percentile(&u.latency_s, 50)?;
    let tail_pct = workload.tail_pct();
    let tail = percentile(&u.latency_s, tail_pct)?;
    let first = percentile(&u.first_cell_s, 50)?;
    let over = format!("over {:.3} s", u.elapsed_s);
    let per_s = |name: &'static str, v: f64| metric(name, "1/s", v, over.clone());
    let ms = |name: &'static str, p: crate::stats::Percentile, pct: usize| {
        metric(
            name,
            "ms",
            p.value * 1e3,
            format!("p{pct} of {}", p.samples),
        )
    };
    Ok(vec![
        metric(
            "setup_s",
            "s",
            median(&u.setup_s),
            format!("median of {}", u.setup_s.len()),
        ),
        per_s("cells_per_s", u.cells_per_s),
        per_s("sim_events_per_s", u.events_per_s),
        per_s("submits_per_s", u.submits_per_s),
        ms("submit_p50_ms", p50, 50),
        ms("submit_tail_ms", tail, tail_pct),
        ms("first_cell_p50_ms", first, 50),
        metric("peak_rss_mb", "MB", u.peak_rss_mib, "VmHWM of the program"),
    ])
}

/// Reads a snapshot file: its lines' digest, line count, summed
/// `run.events_popped`, and (when `audit_lines`) an audit of every line.
fn read_snapshots(path: &Path, audit_lines: bool) -> Result<(u64, u64, u64), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut digest = Digest::default();
    let (mut lines, mut events) = (0u64, 0u64);
    for (i, line) in text.lines().enumerate() {
        digest.line(line);
        lines += 1;
        if audit_lines {
            let m = MetricsRegistry::from_json(line)
                .map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
            let report = audit(&m, Scope::Run);
            if let Some(v) = report.violations.first() {
                return Err(format!("{}:{}: audit: {}", path.display(), i + 1, v.detail));
            }
            events += m.counter_value("run.events_popped").unwrap_or(0);
        }
    }
    Ok((digest.value(), lines, events))
}

fn cli_command(ctx: &Ctx) -> Command {
    let mut cmd = Command::new(&ctx.cli);
    cmd.env("HISS_THREADS", ctx.nproc.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::null());
    cmd
}

/// Runs `hiss-cli scenario run <file> --metrics <out>` to completion.
fn scenario_run(ctx: &Ctx, file: &Path, out: &Path) -> Result<(f64, proc::Exit), String> {
    proc::run_timed(
        cli_command(ctx)
            .args(["scenario", "run"])
            .arg(file)
            .arg("--metrics")
            .arg(out)
            .arg("--no-check"),
    )
    .map_err(|e| format!("spawning scenario run: {e}"))
}

fn grid_cells(text: &str) -> Result<u64, String> {
    let sc = hiss_scenario::Scenario::from_str(text).map_err(|e| e.to_string())?;
    Ok(hiss_scenario::expand(&sc, false).len() as u64)
}

fn sweep_cold(ctx: &Ctx, checks: &mut Checks) -> Result<Untraced, String> {
    let text = gen::sweep_cold(ctx.seed);
    let file = ctx.work.join("sweep.hiss");
    std::fs::write(&file, &text).map_err(|e| format!("{}: {e}", file.display()))?;
    let cells = grid_cells(&text)?;

    let mut u = Untraced::default();
    validate_once(ctx, &file, checks)?;
    // An untimed first run warms the host and yields the reference
    // output: every snapshot is audited, and every later run must be
    // byte-identical to it.
    let out = ctx.work.join("sweep.jsonl");
    let (_, exit) = scenario_run(ctx, &file, &out)?;
    if !exit.ok {
        return Err("the reference scenario run failed".to_string());
    }
    let (want, lines, events) = read_snapshots(&out, true)?;
    if lines != cells {
        return Err(format!(
            "scenario run wrote {lines} snapshots for {cells} cells"
        ));
    }

    // A fresh process per sample, so the baseline cache starts empty.
    let min_done = crate::stats::min_samples_for(Workload::SweepCold.tail_pct());
    let cap = 3.0 * ctx.seconds + 30.0;
    let mut rss = Vec::new();
    let t0 = Instant::now();
    for index in 0.. {
        let elapsed = t0.elapsed().as_secs_f64();
        if (elapsed >= ctx.seconds && u.latency_s.len() >= min_done) || elapsed >= cap {
            break;
        }
        u.setup_s.push(validate_once(ctx, &file, checks)?);
        let _ = std::fs::remove_file(&out);
        let (wall, exit) = scenario_run(ctx, &file, &out)?;
        let result = if !exit.ok {
            Err("scenario run exited with a failure status".to_string())
        } else {
            match read_snapshots(&out, false) {
                Ok((digest, _, _)) if digest == want => Ok(()),
                Ok(_) => Err("snapshots differ from the reference run".to_string()),
                Err(e) => Err(e),
            }
        };
        if result.is_ok() {
            u.latency_s.push(wall);
            // A batch run delivers its first cell when it exits.
            u.first_cell_s.push(wall);
            u.digests.insert(index, (want, wall));
            u.elapsed_s += wall;
            rss.push(exit.maxrss_kib as f64 / 1024.0);
        }
        checks.op(result);
    }
    if rss.is_empty() {
        return Err("no scenario run succeeded".to_string());
    }
    while u.setup_s.len() < SETUP_SAMPLES {
        u.setup_s.push(validate_once(ctx, &file, checks)?);
    }
    // Throughput of the median run, so one run slowed by the host does
    // not move it.
    let wall = median(&u.latency_s);
    u.cells_per_s = cells as f64 / wall;
    u.events_per_s = events as f64 / wall;
    u.submits_per_s = 1.0 / wall;
    u.peak_rss_mib = median(&rss);
    u.replay = vec![(0, text)];
    Ok(u)
}

/// Times one `scenario validate` of `file`, spawn to exit: the batch
/// path's set-up.
fn validate_once(ctx: &Ctx, file: &Path, checks: &mut Checks) -> Result<f64, String> {
    let (wall, exit) = proc::run_timed(cli_command(ctx).args(["scenario", "validate"]).arg(file))
        .map_err(|e| format!("spawning scenario validate: {e}"))?;
    checks.op(if exit.ok {
        Ok(())
    } else {
        Err("scenario validate failed".into())
    });
    Ok(wall)
}

/// Times one server start on `store`, spawn until the port accepts, and
/// stops the server again.
fn serve_setup_once(ctx: &Ctx, store: &Path, checks: &mut Checks) -> Result<f64, String> {
    let (server, setup) = Server::start(&ctx.cli, store, ctx.nproc)?;
    checks.op(server.stop().map(|_| ()));
    Ok(setup)
}

fn submit_line(text: &str) -> String {
    Request::Submit {
        scenario: text.to_string(),
        quick: false,
    }
    .encode()
}

fn serve(workload: Workload, ctx: &Ctx, checks: &mut Checks) -> Result<Untraced, String> {
    let store = ctx.work.join("store");
    let mut u = Untraced::default();
    serve_setup_once(ctx, &store, checks)?;
    for _ in 0..SETUP_SAMPLES / 2 {
        u.setup_s.push(serve_setup_once(ctx, &store, checks)?);
    }

    let replay = workload == Workload::ServeReplay;
    let pool = gen::replay_pool(ctx.seed);
    let draws = gen::replay_draws(ctx.seed, pool.len(), 200_000);
    let text_of = |i: usize| -> String {
        if replay {
            pool[draws[i % draws.len()]].clone()
        } else {
            gen::fresh(ctx.seed, i)
        }
    };

    let (server, _) = Server::start(&ctx.cli, &store, ctx.nproc)?;
    if replay {
        // Untimed warm pass: afterwards every cell is a store hit.
        let mut conn =
            load::Connection::open(&server.addr).map_err(|e| format!("warm pass: {e}"))?;
        for (i, text) in pool.iter().enumerate() {
            let r = conn.submit(i, &submit_line(text));
            checks.op(match r.error {
                Some(e) => Err(format!("warm pass: {e}")),
                None if r.done.1 != r.done.0 => {
                    Err("warm pass served cells from an empty store".into())
                }
                None => Ok(()),
            });
        }
    }
    let stop = Stop {
        warmup: WARMUP_S,
        seconds: ctx.seconds,
        min_done: crate::stats::min_samples_for(workload.tail_pct()),
        cap: 3.0 * ctx.seconds + 30.0,
    };
    let request = |i: usize| submit_line(&text_of(i));
    let (records, elapsed_s) = load::closed_loop(&server.addr, ctx.nproc, stop, &request);
    let exit = server.stop()?;
    while u.setup_s.len() < SETUP_SAMPLES {
        u.setup_s.push(serve_setup_once(ctx, &store, checks)?);
    }
    u.elapsed_s = elapsed_s;
    u.peak_rss_mib = exit.maxrss_kib as f64 / 1024.0;

    // Every submission, warm-up included, is checked against the direct
    // batch run of its text; only those sent after the warm-up are timed.
    let mut reference: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    let (mut cells, mut events) = (0, 0);
    for r in &records {
        let text = text_of(r.index);
        let result = check_served(ctx, workload, r, &text, &mut reference);
        if result.is_ok() {
            u.digests.insert(r.index, (r.digest, r.latency_s));
            if r.sent_s >= WARMUP_S {
                u.latency_s.push(r.latency_s);
                u.first_cell_s.push(r.first_cell_s.unwrap_or(r.latency_s));
                cells += r.lines;
                events += r.events;
                if u.replay.len() < workload.traced_submissions() {
                    u.replay.push((r.index, text));
                }
            }
        }
        checks.op(result);
    }
    u.cells_per_s = cells as f64 / elapsed_s;
    u.events_per_s = events as f64 / elapsed_s;
    u.submits_per_s = u.latency_s.len() as f64 / elapsed_s;
    Ok(u)
}

/// Checks one served submission against the direct batch run of the
/// same text.
fn check_served(
    ctx: &Ctx,
    workload: Workload,
    r: &Record,
    text: &str,
    reference: &mut BTreeMap<String, (u64, u64)>,
) -> Result<(), String> {
    if let Some(e) = &r.error {
        return Err(format!("submission {}: {e}", r.index));
    }
    let (digest, lines) = match reference.get(text) {
        Some(v) => *v,
        None => {
            let (ref_file, ref_out) = (&ctx.work.join("ref.hiss"), &ctx.work.join("ref.jsonl"));
            std::fs::write(ref_file, text).map_err(|e| e.to_string())?;
            let _ = std::fs::remove_file(ref_out);
            let (_, exit) = scenario_run(ctx, ref_file, ref_out)?;
            if !exit.ok {
                return Err(format!(
                    "reference scenario run failed for submission {}",
                    r.index
                ));
            }
            let (digest, lines, _) = read_snapshots(ref_out, true)?;
            reference.insert(text.to_string(), (digest, lines));
            (digest, lines)
        }
    };
    let (cells, simulated, from_store) = r.done;
    if r.lines != cells || cells != lines {
        return Err(format!(
            "submission {}: done says {cells} cells, streamed {}, direct run {lines}",
            r.index, r.lines
        ));
    }
    if r.digest != digest {
        return Err(format!(
            "submission {}: served lines differ from scenario run",
            r.index
        ));
    }
    let expected = match workload {
        Workload::ServeReplay => (0, cells),
        _ => (cells, 0),
    };
    if (simulated, from_store) != expected {
        return Err(format!(
            "submission {}: simulated={simulated} from_store={from_store}, expected {expected:?}",
            r.index
        ));
    }
    Ok(())
}

/// Replays the run's inputs in process, once plain and once traced, and
/// returns the per-layer metrics.
fn traced_run(
    workload: Workload,
    ctx: &Ctx,
    u: &Untraced,
    checks: &mut Checks,
) -> Result<Vec<Metric>, String> {
    let served = workload != Workload::SweepCold;
    let inputs: Vec<String> = if served {
        u.replay.iter().map(|(_, t)| submit_line(t)).collect()
    } else {
        u.replay.iter().map(|(_, t)| t.clone()).collect()
    };
    let replay = |rec: &Recorder, store_dir: &str| -> Result<(Vec<Replayed>, Tally, f64), String> {
        let store = if served {
            // serve_replay reads the store its warm pass filled;
            // serve_fresh starts from an empty one.
            let dir = match workload {
                Workload::ServeReplay => ctx.work.join("store"),
                _ => ctx.work.join(store_dir),
            };
            Some(Arc::new(DiskStore::open(dir).map_err(|e| e.to_string())?))
        } else {
            None
        };
        // One worker per submission on the served path: the closed loop
        // runs nproc submissions on nproc cores, so each gets about one.
        let threads = if served { 1 } else { ctx.nproc };
        let mirror = Mirror::new(rec, store, threads);
        let t0 = Instant::now();
        let mut out = Vec::new();
        for (i, input) in inputs.iter().enumerate() {
            let req = u32::try_from(i).expect("replay index fits u32");
            out.push(if served {
                mirror.submit(req, input)?
            } else {
                mirror.batch(req, input)?
            });
        }
        Ok((out, mirror.tally(), t0.elapsed().as_secs_f64()))
    };
    // An untimed warm-up replay, then traced and plain replays of the
    // same inputs; their wall-time ratio is the tracing overhead.
    replay(&Recorder::new(false), "trace-warm-store")?;
    let rec = Recorder::new(true);
    let (replayed, t, traced_wall) = replay(&rec, "trace-store")?;
    let (_, _, plain_wall) = replay(&Recorder::new(false), "trace-plain-store")?;

    checks.op(if t.audit_failures == 0 && t.store_save_errors == 0 {
        Ok(())
    } else {
        Err(format!(
            "traced replay: {} audit failure(s), {} failed save(s)",
            t.audit_failures, t.store_save_errors
        ))
    });
    let mut residual = 0.0;
    for (i, r) in replayed.iter().enumerate() {
        let index = u.replay[i].0;
        let untraced = if served {
            u.digests.get(&index)
        } else {
            u.digests.values().next()
        };
        let Some(&(digest, latency)) = untraced else {
            return Err(format!("no untraced result for submission {index}"));
        };
        // The mirror must reproduce the untraced output exactly, and hit
        // or miss the store as the server did, or its trace describes
        // some other computation.
        let from_store = if workload == Workload::ServeReplay {
            r.lines
        } else {
            0
        };
        checks.op(if r.digest != digest {
            Err(format!(
                "traced replay of submission {index} differs from the untraced output"
            ))
        } else if r.from_store != from_store {
            Err(format!(
                "traced replay of submission {index} served {} cells from the store",
                r.from_store
            ))
        } else {
            Ok(())
        });
        // A batch run's latency is its process wall; the median run's.
        let latency = if served {
            latency
        } else {
            median(&u.latency_s)
        };
        residual += latency - r.total_s;
    }

    let spans = rec.into_spans();
    // Next to the run's work directory, which is removed at exit;
    // each traced run of a workload replaces the previous trace.
    let trace_path = ctx
        .work
        .with_file_name(format!("{}.trace.jsonl", workload.name()));
    trace::write_jsonl(&spans, &trace_path)
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    eprintln!(
        "hissbench: {} spans written to {}",
        spans.len(),
        trace_path.display()
    );
    let self_s = trace::self_seconds_by_name(&spans);
    let n = replayed.len().max(1) as f64;
    let per = |name: &str| self_s.get(name).copied().unwrap_or(0.0) / n;
    let count = |v: u64| v as f64;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let ns_per_event = if t.events_popped == 0 {
        0.0
    } else {
        per("soc.run") * n * 1e9 / t.events_popped as f64
    };
    let each = format!("mean per submission of {}", replayed.len());
    let s = |name: &'static str, span: &str| metric(name, "s", per(span), each.clone());
    let c = |name: &'static str, v: u64| metric(name, "count", count(v), "");
    Ok(vec![
        s("scenario.lint_s", "scenario.lint"),
        s("scenario.parse_s", "scenario.parse"),
        s("scenario.expand_s", "scenario.expand"),
        c("scenario.cells", t.cells),
        s("cache.baseline_s", "cache.baseline"),
        c("cache.hits", t.cache_hits),
        c("cache.misses", t.cache_misses),
        metric(
            "cache.hit_ratio",
            "ratio",
            ratio(t.cache_hits, t.cache_hits + t.cache_misses),
            "",
        ),
        s("soc.run_s", "soc.run"),
        c("soc.runs", t.soc_runs),
        metric("soc.host_ns_per_event", "ns", ns_per_event, ""),
        c("sim.events_pushed", t.events_pushed),
        c("sim.events_popped", t.events_popped),
        c("sim.events_peak", t.events_peak),
        metric(
            "sim.simulated_s",
            "s",
            t.simulated_ns as f64 / 1e9,
            "summed over simulated cells",
        ),
        c("model.ssrs_serviced", t.ssrs_serviced),
        c("model.interrupts", t.interrupts),
        c("model.ipis", t.ipis),
        c("model.iommu_requests", t.iommu_requests),
        c("model.walker_walks", t.walker_walks),
        c("runner.invocations", t.invocations),
        c("runner.jobs", t.jobs),
        metric("runner.busy_s", "s", t.busy_s / n, each.clone()),
        metric("runner.idle_s", "s", t.idle_s / n, each.clone()),
        metric(
            "runner.queue_wait_s",
            "s",
            t.queue_wait_s / t.jobs.max(1) as f64,
            "mean per job",
        ),
        metric(
            "runner.max_worker_share",
            "ratio",
            ratio(t.busiest_worker_jobs, t.jobs),
            "",
        ),
        metric(
            "runner.self_s",
            "s",
            per("runner.invoke") + per("runner.job"),
            each.clone(),
        ),
        s("store.load_s", "store.load"),
        s("store.save_s", "store.save"),
        c("store.hits", t.store_hits),
        c("store.misses", t.store_misses),
        c("store.invalid", t.store_invalid),
        c("store.writes", t.store_writes),
        metric("store.bytes_read", "B", count(t.store_bytes_read), ""),
        metric("store.bytes_written", "B", count(t.store_bytes_written), ""),
        s("obs.audit_s", "obs.audit"),
        c("obs.audits", t.audits),
        s("obs.encode_s", "obs.encode"),
        metric("obs.bytes", "B", count(t.encoded_bytes), ""),
        s("serve.request_decode_s", "serve.request_decode"),
        s("serve.label_s", "serve.label"),
        s("serve.client_decode_s", "serve.client_decode"),
        metric("serve.residual_s", "s", residual / n, each.clone()),
        metric(
            "trace.pipeline_s",
            "s",
            replayed.iter().map(|r| r.total_s).sum::<f64>() / n,
            each.clone(),
        ),
        metric(
            "trace.root_self_s",
            "s",
            per("submit") + per("batch"),
            each.clone(),
        ),
        metric(
            "trace.overhead_ratio",
            "ratio",
            traced_wall / plain_wall,
            "traced / plain replay wall",
        ),
        c("trace.submissions", replayed.len() as u64),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |obj: &str, key: &str| {
            let at = obj.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
            obj[at..at + obj[at..].find('"').unwrap()].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    #[test]
    fn reported_metrics_match_benchmark_json() {
        let owned = |m: &[(&str, &str)]| -> Vec<(String, String)> {
            m.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(owned(END_TO_END), declared("end_to_end"));
        assert_eq!(owned(PER_LAYER), declared("per_layer"));
    }
}
