//! `hiss-cli` — run HISS experiments from the command line.
//!
//! ```text
//! hiss-cli list
//! hiss-cli run --cpu x264 --gpu ubench [--steer] [--coalesce] [--mono]
//!              [--qos <percent>] [--seed <n>] [--gpus <n>] [--json]
//!              [--metrics <path>]
//! hiss-cli timeline --cpu x264 --gpu ubench --from-us 5000 --to-us 5400
//! hiss-cli figures [--quick]
//! hiss-cli report <snapshot> [--json] [--sanitize]
//! hiss-cli scenario validate <file>...
//! hiss-cli scenario run <file> [--quick] [--json] [--no-check]
//!                      [--metrics <path>] [--sanitize]
//! hiss-cli scenario list [<dir>]
//! hiss-cli lint [<file.hiss>...] [--sources] [--docs] [--bench]
//!               [--invariants] [--all] [--root <dir>]
//!               [--config <lint.toml>]
//! hiss-cli bench run [--json] [--out <path>] [--root <dir>]
//! hiss-cli bench check [--baseline <path>] [--fresh <path>] [--json]
//!                      [--root <dir>]
//! hiss-cli bench update --reason <text> [--baseline <path>]
//!                       [--fresh <path>] [--root <dir>]
//! hiss-cli serve [--addr <host:port>] [--store <dir>] [--threads <n>]
//! hiss-cli submit <file.hiss> [--addr <host:port>] [--quick]
//!                 [--metrics <path>] [--shutdown]
//! ```
//!
//! `report` renders a metrics snapshot file — one JSON object per line,
//! as written by `run --metrics` / `scenario run --metrics` — as ASCII
//! tables, or as JSON-lines (one metric per line) with `--json`.
//! `--sanitize` additionally audits every snapshot line against the
//! declared run-scope conservation laws (`HL403`) and exits nonzero on
//! any violation.
//!
//! `lint` runs static analysis with no simulation: scenario semantic
//! lints over the given `.hiss` files, the determinism source lint over
//! `crates/*/src` (`--sources`, honouring the committed `lint.toml`
//! allowlist), the `docs/OBSERVABILITY.md` metric-schema check
//! (`--docs`), the `BENCH_BASELINE.json` schema check (`--bench`), and
//! the conservation-law checks (`--invariants`: the baseline's
//! bench-scope arithmetic, `HL402`, plus the coverage analysis flagging
//! schema entries and spec knobs nothing committed exercises,
//! `HL404`/`HL405`). `--all` turns every mode on and lints the whole
//! committed scenario library under `<root>/scenarios`. Exit status is
//! nonzero on any finding; the code catalogue is `docs/LINTS.md`.
//!
//! `serve` runs the long-running simulation service (`docs/SERVE.md`):
//! a TCP server accepting scenario submissions over a line-delimited
//! JSON protocol and streaming `cell.*` snapshots back, with every
//! completed cell published to a sharded content-addressed disk store
//! so a re-submission (from any process, across restarts) simulates
//! nothing. `submit` is the matching client; `--shutdown` asks the
//! server to drain gracefully and flush the store.
//!
//! `bench` is the performance-regression subsystem (`docs/BENCH.md`):
//! `run` executes the suites and prints their deterministic work
//! counters (stdout is byte-identical whatever `HISS_THREADS`), `check`
//! compares a fresh run against the committed `BENCH_BASELINE.json` and
//! exits nonzero on any violation, and `update` rewrites the baseline,
//! recording a mandatory `--reason`.
//!
//! `figures` regenerates every table and figure of the paper's
//! evaluation (full app grids; `--quick` for the scaled-down subsets).
//!
//! Unknown flags are errors (with a nearest-match suggestion), never
//! silently ignored. Every command returns its error to `main`, which
//! prints it on stderr and exits 1; a command that ran and found
//! something wrong (lint findings, expect or sanitize violations, a
//! rejected submission) reports it itself and exits 1 the same way.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use hiss::experiments::{extensions, tables};
use hiss::{ExperimentBuilder, Mitigation, Ns, QosParams, RunCtx, RunReport, SystemConfig};
use hiss_bench::baseline::{self, BaselineFile, SuiteSnapshot};
use hiss_bench::compare;
use hiss_scenario as scenario;

/// Count allocation traffic (per thread) so the bench engine suite can
/// report deterministic `bench.alloc.*` counters. Pure delegation to
/// the system allocator otherwise.
#[global_allocator]
static ALLOC: hiss_bench::CountingAlloc = hiss_bench::CountingAlloc::new();

/// Writes formatted output to stdout. A closed stdout (`hiss-cli
/// figures | head -1`) ends the process quietly with status 0, as the
/// reader has all it asked for; any other write error is returned.
fn emit(args: std::fmt::Arguments) -> Result<(), String> {
    use std::io::Write as _;
    match std::io::stdout().lock().write_fmt(args) {
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        written => written.map_err(|e| format!("cannot write to stdout: {e}")),
    }
}

/// `print!` through [`emit`], returning its error from the caller.
macro_rules! out {
    ($($arg:tt)*) => { emit(format_args!($($arg)*))? };
}

/// `println!` through [`emit`], returning its error from the caller.
macro_rules! outln {
    () => { emit(format_args!("\n"))? };
    ($($arg:tt)*) => { emit(format_args!("{}\n", format_args!($($arg)*)))? };
}

/// `main`'s error when the command is missing or unknown.
const USAGE: &str = "usage:\n  hiss-cli list\n  hiss-cli run --cpu <app> --gpu <app> \
     [--pinned] [--steer] [--coalesce] [--mono] [--qos <pct>] \
     [--seed <n>] [--gpus <n>] [--json] [--metrics <path>]\n  \
     hiss-cli timeline --cpu <app> \
     --gpu <app> --from-us <t0> --to-us <t1> [--width <cols>]\n  \
     hiss-cli figures [--quick]\n  \
     hiss-cli report <snapshot> [--json] [--sanitize]\n  \
     hiss-cli scenario validate <file>...\n  \
     hiss-cli scenario run <file> [--quick] [--json] [--no-check] \
     [--metrics <path>] [--sanitize]\n  \
     hiss-cli scenario list [<dir>]\n  \
     hiss-cli lint [<file.hiss>...] [--sources] [--docs] [--bench] \
     [--invariants] [--all] [--root <dir>] [--config <lint.toml>]\n  \
     hiss-cli bench run [--json] [--out <path>] [--root <dir>]\n  \
     hiss-cli bench check [--baseline <path>] [--fresh <path>] \
     [--json] [--root <dir>]\n  \
     hiss-cli bench update --reason <text> [--baseline <path>] \
     [--fresh <path>] [--root <dir>]\n  \
     hiss-cli serve [--addr <host:port>] [--store <dir>] \
     [--threads <n>]\n  \
     hiss-cli submit <file.hiss> [--addr <host:port>] [--quick] \
     [--metrics <path>] [--shutdown]";

/// `path`'s contents, or an error naming it.
fn read(path: impl AsRef<Path>) -> Result<String, String> {
    let path = path.as_ref();
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// Writes `text` to `path`, or returns an error naming it.
fn write(path: impl AsRef<Path>, text: String) -> Result<(), String> {
    let path = path.as_ref();
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Strict flag parser: every `--flag` must appear in the command's
/// allow-list, boolean and value flags are distinguished up front, and
/// anything unknown is an error with a "did you mean" suggestion.
struct Args {
    bools: Vec<&'static str>,
    values: Vec<(&'static str, String)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(
        argv: Vec<String>,
        bool_flags: &[&'static str],
        value_flags: &[&'static str],
    ) -> Result<Args, String> {
        let mut args = Args {
            bools: Vec::new(),
            values: Vec::new(),
            positional: Vec::new(),
        };
        let mut iter = argv.into_iter();
        while let Some(item) = iter.next() {
            if !item.starts_with("--") {
                args.positional.push(item);
                continue;
            }
            if let Some(&flag) = bool_flags.iter().find(|&&f| f == item) {
                args.bools.push(flag);
            } else if let Some(&flag) = value_flags.iter().find(|&&f| f == item) {
                let value = iter
                    .next()
                    .ok_or_else(|| format!("{flag} expects a value"))?;
                args.values.push((flag, value));
            } else {
                let known: Vec<&str> = bool_flags.iter().chain(value_flags).copied().collect();
                let hint = scenario::nearest(&item, &known)
                    .map(|n| format!(" (did you mean {n}?)"))
                    .unwrap_or_default();
                return Err(format!("unknown flag {item}{hint}"));
            }
        }
        Ok(args)
    }

    /// An error for the first positional argument of a command that
    /// takes none.
    fn no_positional(&self) -> Result<(), String> {
        match self.positional.first() {
            Some(stray) => Err(format!("unexpected argument {stray:?}")),
            None => Ok(()),
        }
    }

    fn flag(&self, name: &str) -> bool {
        self.bools.contains(&name)
    }
    fn value(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(f, _)| *f == name)
            .map(|(_, v)| v.as_str())
    }
    /// `name`'s value as a `T` that `valid` accepts, `None` when the
    /// flag is absent. Any other value is an error naming the flag,
    /// what it `expects` and the value: never a silent default.
    fn parsed<T: std::str::FromStr>(
        &self,
        name: &str,
        expects: &str,
        valid: impl Fn(&T) -> bool,
    ) -> Result<Option<T>, String> {
        let Some(v) = self.value(name) else {
            return Ok(None);
        };
        match v.parse() {
            Ok(x) if valid(&x) => Ok(Some(x)),
            _ => Err(format!("{name} expects {expects}, got {v:?}")),
        }
    }
}

fn print_report(r: &RunReport, json: bool) -> Result<(), String> {
    if json {
        outln!("{}", report_json(r));
        return Ok(());
    }
    outln!("elapsed           : {}", r.elapsed);
    if let Some(t) = r.cpu_app_runtime {
        outln!("CPU app runtime   : {t}");
    }
    outln!("GPU throughput    : {:.3}", r.gpu_throughput);
    outln!("SSR rate          : {:.0}/s", r.ssr_rate);
    outln!("SSRs serviced     : {}", r.kernel.ssrs_serviced);
    outln!("mean SSR latency  : {}", r.kernel.mean_ssr_latency);
    outln!("p99 SSR latency   : {}", r.kernel.p99_ssr_latency);
    outln!("interrupts/core   : {:?}", r.kernel.interrupts_per_core);
    outln!("IPIs              : {}", r.kernel.ipis);
    outln!("QoS deferrals     : {}", r.kernel.qos_deferrals);
    outln!("CPU SSR overhead  : {:.2}%", r.cpu_ssr_overhead * 100.0);
    outln!("CC6 residency     : {:.1}%", r.cc6_residency * 100.0);
    outln!(
        "CPU energy        : {:.3} J ({:.2} W avg)",
        r.energy.cpu_joules,
        r.energy.cpu_avg_watts
    );
    Ok(())
}

/// Hand-rolled JSON encoding of the fields scripts typically plot.
fn report_json(r: &RunReport) -> String {
    let runtime = r
        .cpu_app_runtime
        .map(|t| t.as_nanos().to_string())
        .unwrap_or_else(|| "null".into());
    format!(
        concat!(
            "{{\"elapsed_ns\":{},\"cpu_app_runtime_ns\":{},",
            "\"gpu_throughput\":{:.6},\"ssr_rate\":{:.3},",
            "\"ssrs_serviced\":{},\"mean_ssr_latency_ns\":{},",
            "\"p99_ssr_latency_ns\":{},\"interrupts_per_core\":{:?},",
            "\"ipis\":{},\"qos_deferrals\":{},\"cpu_ssr_overhead\":{:.6},",
            "\"cc6_residency\":{:.6},\"cpu_joules\":{:.6}}}"
        ),
        r.elapsed.as_nanos(),
        runtime,
        r.gpu_throughput,
        r.ssr_rate,
        r.kernel.ssrs_serviced,
        r.kernel.mean_ssr_latency.as_nanos(),
        r.kernel.p99_ssr_latency.as_nanos(),
        r.kernel.interrupts_per_core,
        r.kernel.ipis,
        r.kernel.qos_deferrals,
        r.cpu_ssr_overhead,
        r.cc6_residency,
        r.energy.cpu_joules,
    )
}

fn build(cfg: SystemConfig, args: &Args) -> Result<ExperimentBuilder, String> {
    let mut b = ExperimentBuilder::new(cfg);
    if let Some(cpu) = args.value("--cpu") {
        if hiss::CpuAppSpec::by_name(cpu).is_none() {
            return Err(format!("unknown CPU app {cpu:?}; see `hiss-cli list`"));
        }
        b = b.cpu_app(cpu);
    }
    let n_gpus = args
        .parsed("--gpus", "an integer in 1..=64", |n| (1..=64).contains(n))?
        .unwrap_or(1);
    let qos = args.parsed("--qos", "a percentage in (0, 100]", |&p| {
        p > 0.0 && p <= 100.0
    })?;
    if args.value("--gpu").is_none() {
        if let Some(flag) = [
            "--gpus",
            "--pinned",
            "--qos",
            "--steer",
            "--coalesce",
            "--mono",
        ]
        .into_iter()
        .find(|f| args.flag(f) || args.value(f).is_some())
        {
            return Err(format!("{flag} needs --gpu <app>"));
        }
    }
    if let Some(gpu) = args.value("--gpu") {
        if hiss::GpuAppSpec::by_name(gpu).is_none() {
            return Err(format!("unknown GPU app {gpu:?}; see `hiss-cli list`"));
        }
        for _ in 0..n_gpus {
            b = if args.flag("--pinned") {
                b.gpu_app_pinned(gpu)
            } else {
                b.gpu_app(gpu)
            };
        }
    }
    b = b.mitigation(Mitigation {
        steer_single_core: args.flag("--steer"),
        coalesce: args.flag("--coalesce"),
        monolithic_bottom_half: args.flag("--mono"),
    });
    if let Some(p) = qos {
        b = b.qos(QosParams::threshold_percent(p));
    }
    if let Some(seed) = args.parsed("--seed", "a non-negative integer", |_| true)? {
        b = b.seed(seed);
    }
    Ok(b)
}

/// `timeline`'s run, traced over `--from-us`..`--to-us` (µs), and its
/// gantt `--width` (default 100 columns).
fn timeline(cfg: SystemConfig, args: &Args) -> Result<(ExperimentBuilder, usize), String> {
    let us = "a non-negative integer";
    let (Some(from), Some(to)) = (
        args.parsed("--from-us", us, |_| true)?,
        args.parsed("--to-us", us, |_| true)?,
    ) else {
        return Err("timeline requires --from-us and --to-us".into());
    };
    if to <= from {
        return Err("--to-us must exceed --from-us".into());
    }
    let width = args
        .parsed("--width", "a positive integer", |&w| w > 0)?
        .unwrap_or(100);
    let b = build(cfg, args)?.trace_window(Ns::from_micros(from), Ns::from_micros(to));
    Ok((b, width))
}

/// `hiss-cli report <snapshot> [--json] [--sanitize]` — renders a
/// metrics snapshot file (one JSON object per line, as written by
/// `run --metrics` and `scenario run --metrics`) as ASCII tables or
/// JSON-lines. `--sanitize` audits every line against the run-scope
/// conservation laws and exits nonzero on any `HL403` violation.
fn report_command(argv: Vec<String>) -> Result<ExitCode, String> {
    let args = Args::parse(argv, &["--json", "--sanitize"], &[])?;
    let [file] = args.positional.as_slice() else {
        return Err("report requires exactly one snapshot file".into());
    };
    let text = read(file)?;
    let mut first = true;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let reg = hiss::MetricsRegistry::from_json(line)
            .map_err(|e| format!("{file}:{}: {e}", lineno + 1))?;
        if args.flag("--json") {
            out!("{}", reg.to_jsonl());
        } else {
            if !first {
                outln!();
            }
            out!("{}", reg.to_table());
        }
        first = false;
    }
    if first {
        return Err(format!("{file}: no snapshots found"));
    }
    if args.flag("--sanitize") {
        let diags = hiss_lint::invariants::check_snapshot_invariants(file, &text);
        for d in &diags {
            eprintln!("{d}");
        }
        if !diags.is_empty() {
            eprintln!("sanitize: {} violation(s) in {file}", diags.len());
            return Ok(ExitCode::FAILURE);
        }
        eprintln!("sanitize: clean");
    }
    Ok(ExitCode::SUCCESS)
}

/// `hiss-cli lint [<file.hiss>...] [--sources] [--docs] [--bench]
/// [--invariants] [--all] [--root <dir>] [--config <lint.toml>]` —
/// static analysis without running any simulation. `--all` enables
/// every mode and lints the committed scenario library under
/// `<root>/scenarios`. Exits nonzero on any finding (errors and
/// warnings alike), so CI can gate on it.
fn lint_command(argv: Vec<String>) -> Result<ExitCode, String> {
    let args = Args::parse(
        argv,
        &["--sources", "--docs", "--bench", "--invariants", "--all"],
        &["--root", "--config"],
    )?;
    let all = args.flag("--all");
    if args.positional.is_empty()
        && !all
        && !args.flag("--sources")
        && !args.flag("--docs")
        && !args.flag("--bench")
        && !args.flag("--invariants")
    {
        return Err(
            "lint requires scenario files and/or --sources / --docs / --bench / \
                    --invariants / --all"
                .into(),
        );
    }
    let root = PathBuf::from(args.value("--root").unwrap_or("."));
    let mut diags = Vec::new();

    for file in &args.positional {
        diags.extend(scenario::lint::lint_file(Path::new(file)));
    }
    if all {
        let dir = root.join("scenarios");
        let files = scenario::list_files(&dir)
            .map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
        for path in files {
            diags.extend(scenario::lint::lint_file(&path));
        }
    }

    if all || args.flag("--sources") {
        // The allowlist is read from <root>/lint.toml unless --config
        // overrides it; a missing default config just means an empty
        // allowlist, while a missing explicit one is an error.
        let config_path = match args.value("--config") {
            Some(p) => PathBuf::from(p),
            None => root.join("lint.toml"),
        };
        let config_text = match std::fs::read_to_string(&config_path) {
            Ok(t) => t,
            Err(e)
                if args.value("--config").is_none() && e.kind() == std::io::ErrorKind::NotFound =>
            {
                String::new()
            }
            Err(e) => return Err(format!("cannot read {}: {e}", config_path.display())),
        };
        let config = hiss_lint::config::parse(&config_text)
            .map_err(|e| format!("{}:{e}", config_path.display()))?;
        let found = hiss_lint::sources::scan(&root, &config)
            .map_err(|e| format!("source scan under {} failed: {e}", root.display()))?;
        diags.extend(found);
    }

    if all || args.flag("--docs") {
        let doc_rel = "docs/OBSERVABILITY.md";
        let text = read(root.join(doc_rel))?;
        diags.extend(hiss_lint::docs::check_doc(doc_rel, &text));
    }

    let bench_rel = "BENCH_BASELINE.json";
    if all || args.flag("--bench") {
        let text = read(root.join(bench_rel))?;
        diags.extend(hiss_lint::baseline::check_baseline(bench_rel, &text));
    }

    if all || args.flag("--invariants") {
        // The bench-scope conservation laws over the committed baseline
        // (HL402), then the coverage analysis: schema entries and spec
        // knobs that nothing committed exercises (HL404/HL405).
        let text = read(root.join(bench_rel))?;
        diags.extend(hiss_lint::invariants::check_baseline_invariants(
            bench_rel, &text,
        ));
        diags.extend(scenario::lint::check_coverage(&root));
    }

    hiss_lint::diag::sort(&mut diags);
    for d in &diags {
        outln!("{d}");
    }
    let errors = diags
        .iter()
        .filter(|d| d.code.severity() == hiss_lint::Severity::Error)
        .count();
    let warnings = diags.len() - errors;
    if diags.is_empty() {
        outln!("lint: clean");
        Ok(ExitCode::SUCCESS)
    } else {
        outln!("lint: {errors} error(s), {warnings} warning(s)");
        Ok(ExitCode::FAILURE)
    }
}

/// Fresh suite snapshots: loaded from a `--fresh` snapshot file when
/// given (skipping re-simulation, e.g. in tests), executed otherwise.
fn fresh_snapshots(args: &Args, root: &Path) -> Result<Vec<SuiteSnapshot>, String> {
    match args.value("--fresh") {
        Some(path) => {
            let file = baseline::parse(&read(path)?).map_err(|e| format!("{path}: {e}"))?;
            Ok(file.suites)
        }
        None => hiss_serve::suite::run_all(root, hiss::thread_count()),
    }
}

fn load_baseline(path: &Path) -> Result<BaselineFile, String> {
    baseline::parse(&read(path)?).map_err(|e| format!("{}: {e}", path.display()))
}

/// `hiss-cli bench <verb> ...` — the performance-regression subsystem
/// (see `docs/BENCH.md`).
fn bench_command(mut argv: Vec<String>) -> Result<ExitCode, String> {
    if argv.is_empty() {
        return Err("bench requires a verb: run, check, or update".into());
    }
    let verb = argv.remove(0);
    let args = match verb.as_str() {
        "run" => Args::parse(argv, &["--json"], &["--out", "--root"]),
        "check" => Args::parse(argv, &["--json"], &["--baseline", "--fresh", "--root"]),
        "update" => Args::parse(argv, &[], &["--reason", "--baseline", "--fresh", "--root"]),
        other => {
            return Err(format!(
                "unknown bench verb {other:?}: expected run, check, or update"
            ))
        }
    }?;
    args.no_positional()?;
    let root = PathBuf::from(args.value("--root").unwrap_or("."));
    let baseline_path = args
        .value("--baseline")
        .map(PathBuf::from)
        .unwrap_or_else(|| root.join(baseline::DEFAULT_PATH));

    match verb.as_str() {
        "run" => {
            let snaps = fresh_snapshots(&args, &root)?;
            for (i, snap) in snaps.iter().enumerate() {
                if args.flag("--json") {
                    out!("{}", snap.metrics.to_jsonl());
                } else {
                    if i > 0 {
                        outln!();
                    }
                    out!("{}", snap.metrics.to_table());
                }
            }
            if let Some(path) = args.value("--out") {
                write(
                    path,
                    baseline::render("(fresh bench run, not a baseline)", &snaps),
                )?;
            }
            Ok(ExitCode::SUCCESS)
        }
        "check" => {
            let base = load_baseline(&baseline_path).map_err(|e| {
                format!("{e}\n(generate one with `hiss-cli bench update --reason ...`)")
            })?;
            let snaps = fresh_snapshots(&args, &root)?;
            let cmp = compare::compare(&base, &snaps);
            let shown = baseline_path.display().to_string();
            for f in &cmp.findings {
                outln!("{}", f.render(&shown));
            }
            if !cmp.findings.is_empty() {
                // The machine-readable diff through the stock renderers.
                let reg = cmp.to_registry();
                if args.flag("--json") {
                    out!("{}", reg.to_jsonl());
                } else {
                    out!("{}", reg.to_table());
                }
            }
            if cmp.passed() {
                outln!("bench check: ok — {} suites vs {shown}", snaps.len());
                Ok(ExitCode::SUCCESS)
            } else {
                outln!(
                    "bench check: {} violation(s) vs {shown}",
                    cmp.findings.len()
                );
                Ok(ExitCode::FAILURE)
            }
        }
        "update" => {
            let reason = args
                .value("--reason")
                .map(str::trim)
                .filter(|r| !r.is_empty())
                .ok_or("bench update requires --reason <text> explaining why the baseline moved")?;
            let mut snaps = fresh_snapshots(&args, &root)?;
            // Banded counters keep their committed value while the
            // fresh one is inside the band; an unreadable baseline is
            // simply replaced.
            if let Ok(base) = load_baseline(&baseline_path) {
                snaps = compare::merge_banded(&base, snaps);
            }
            write(&baseline_path, baseline::render(reason, &snaps))?;
            outln!(
                "bench update: wrote {} ({} suites; reason: {reason})",
                baseline_path.display(),
                snaps.len()
            );
            Ok(ExitCode::SUCCESS)
        }
        _ => unreachable!("verb validated above"),
    }
}

/// `hiss-cli scenario <verb> ...`
fn scenario_command(mut argv: Vec<String>) -> Result<ExitCode, String> {
    if argv.is_empty() {
        return Err("scenario requires a verb: validate, run, or list".into());
    }
    let verb = argv.remove(0);
    match verb.as_str() {
        "validate" => {
            let args = Args::parse(argv, &[], &[])?;
            if args.positional.is_empty() {
                return Err("scenario validate requires at least one file".into());
            }
            let mut failed = false;
            for file in &args.positional {
                match scenario::load(Path::new(file)) {
                    Ok(sc) => {
                        let cells = scenario::expand(&sc, false).len();
                        let quick = scenario::expand(&sc, true).len();
                        outln!(
                            "{file}: ok — \"{}\", {cells} cells ({quick} quick), {} expect bands",
                            sc.name,
                            sc.expects.len()
                        );
                    }
                    Err(e) => {
                        eprintln!("{file}: {e}");
                        failed = true;
                    }
                }
            }
            if failed {
                Ok(ExitCode::FAILURE)
            } else {
                Ok(ExitCode::SUCCESS)
            }
        }
        "run" => scenario_run(argv),
        "list" => {
            let args = Args::parse(argv, &[], &[])?;
            let dir = match args.positional.as_slice() {
                [] => PathBuf::from("scenarios"),
                [d] => PathBuf::from(d),
                _ => return Err("scenario list takes at most one directory".into()),
            };
            let files = scenario::list_files(&dir)
                .map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
            for path in files {
                match scenario::load(&path) {
                    Ok(sc) => outln!(
                        "{:<28} {:<22} {} cells",
                        path.display(),
                        sc.name,
                        scenario::expand(&sc, false).len()
                    ),
                    Err(e) => outln!("{:<28} INVALID: {e}", path.display()),
                }
            }
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!(
            "unknown scenario verb {other:?}: expected validate, run, or list"
        )),
    }
}

/// `hiss-cli scenario run <file> [--quick] [--json] [--no-check]
/// [--metrics <path>] [--sanitize]`
fn scenario_run(argv: Vec<String>) -> Result<ExitCode, String> {
    let args = Args::parse(
        argv,
        &["--quick", "--json", "--no-check", "--sanitize"],
        &["--metrics"],
    )?;
    let [file] = args.positional.as_slice() else {
        return Err("scenario run requires exactly one file".into());
    };
    let sc = scenario::load(Path::new(file)).map_err(|e| format!("{file}: {e}"))?;
    let sanitize = args.flag("--sanitize");
    if sanitize {
        // Enforce the conservation laws inside every run (the
        // Soc::finalize audit panics on violation), then re-audit the
        // finalized snapshots below as the belt-and-braces second
        // reading.
        hiss::force_sanitize();
    }
    let ctx = RunCtx::new(hiss::thread_count());
    let (rows, snapshots): (Vec<_>, Vec<_>) =
        scenario::run_with_metrics(&ctx, &sc, args.flag("--quick"))
            .into_iter()
            .unzip();
    if let Some(path) = args.value("--metrics") {
        let mut out = String::new();
        for snap in &snapshots {
            out.push_str(&snap.to_json());
            out.push('\n');
        }
        write(path, out)?;
    }
    if sanitize {
        let mut checked = 0usize;
        let mut failures = Vec::new();
        for snap in &snapshots {
            let audit = hiss_obs::invariants::audit(snap, hiss_obs::schema::Scope::Run);
            checked += audit.checked;
            for v in audit.violations {
                failures.push(hiss_lint::Diagnostic::new(
                    hiss_lint::Code::RunInvariantViolated,
                    Some(file.as_str()),
                    0,
                    v.detail,
                ));
            }
        }
        for d in &failures {
            eprintln!("{d}");
        }
        eprintln!(
            "sanitize: {} cell(s), {checked} invariant check(s), {} violation(s)",
            snapshots.len(),
            failures.len()
        );
        if !failures.is_empty() {
            return Ok(ExitCode::FAILURE);
        }
    }
    if args.flag("--json") {
        out!("{}", scenario::output::to_jsonl(&rows));
    } else {
        outln!("scenario \"{}\" — {} rows", sc.name, rows.len());
        out!("{}", scenario::output::to_table(&rows));
    }
    if args.flag("--no-check") {
        return Ok(ExitCode::SUCCESS);
    }
    let violations = scenario::check(&sc, &rows);
    if violations.is_empty() {
        if !args.flag("--json") && !sc.expects.is_empty() {
            outln!("all {} expect bands hold", sc.expects.len());
        }
        Ok(ExitCode::SUCCESS)
    } else {
        // Violations of loaded scenarios render as `file:line: msg`
        // themselves; no prefix needed.
        for v in &violations {
            eprintln!("expect violation: {v}");
        }
        Ok(ExitCode::FAILURE)
    }
}

fn serve_command(argv: Vec<String>) -> Result<ExitCode, String> {
    let args = Args::parse(argv, &[], &["--addr", "--store", "--threads"])?;
    args.no_positional()?;
    // Workers of the service's one pool, shared by every submission;
    // results are bit-identical at any setting.
    let threads = args
        .parsed("--threads", "a positive integer", |&n| n > 0)?
        .unwrap_or_else(hiss::thread_count);
    let addr = args.value("--addr").unwrap_or("127.0.0.1:7477");
    let store_dir = PathBuf::from(args.value("--store").unwrap_or("target/serve-store"));
    let store = hiss::DiskStore::open(&store_dir)
        .map_err(|e| format!("cannot open store {}: {e}", store_dir.display()))?;
    let service = std::sync::Arc::new(hiss_serve::Service::new(
        Some(std::sync::Arc::new(store)),
        threads,
    ));
    let server =
        hiss_serve::Server::bind(addr, service).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let bound = server
        .local_addr()
        .map_err(|e| format!("cannot read bound address: {e}"))?;
    // Machine-readable first line: with --addr host:0 callers parse the
    // actual port from here.
    outln!(
        "hiss-serve: listening on {bound}, store {}",
        store_dir.display()
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.run().map_err(|e| format!("serve failed: {e}"))?;
    outln!("hiss-serve: drained and flushed, bye");
    Ok(ExitCode::SUCCESS)
}

fn submit_command(argv: Vec<String>) -> Result<ExitCode, String> {
    let args = Args::parse(argv, &["--quick", "--shutdown"], &["--addr", "--metrics"])?;
    let addr = args.value("--addr").unwrap_or("127.0.0.1:7477");
    let file = match args.positional.as_slice() {
        [] if args.flag("--shutdown") => None,
        [file] => Some(file),
        _ => return Err("submit requires exactly one file (or just --shutdown)".into()),
    };
    let mut code = ExitCode::SUCCESS;
    if let Some(file) = file {
        let text = read(file)?;
        let submission = hiss_serve::client::submit(addr, &text, args.flag("--quick"))
            .map_err(|e| format!("submit failed: {e}"))?;
        match submission {
            hiss_serve::Submission::Rejected { diagnostics } => {
                for d in &diagnostics {
                    eprintln!("{d}");
                }
                eprintln!(
                    "{file}: rejected by server ({} diagnostics)",
                    diagnostics.len()
                );
                code = ExitCode::FAILURE;
            }
            hiss_serve::Submission::Completed {
                snapshots,
                cells,
                simulated,
                from_store,
            } => {
                let mut out = String::new();
                for line in &snapshots {
                    out.push_str(line);
                    out.push('\n');
                }
                match args.value("--metrics") {
                    Some(path) => write(path, out)?,
                    None => out!("{out}"),
                }
                // Summary on stderr so piped stdout stays pure data.
                eprintln!("submit: cells={cells} simulated={simulated} from_store={from_store}");
            }
        }
    }
    if args.flag("--shutdown") {
        hiss_serve::client::shutdown(addr).map_err(|e| format!("shutdown failed: {e}"))?;
    }
    Ok(code)
}

/// The one failure exit: any command's error is printed here and the
/// process exits 1.
fn main() -> ExitCode {
    match command(std::env::args().skip(1).collect()) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the command `argv` names (the program name stripped).
fn command(mut argv: Vec<String>) -> Result<ExitCode, String> {
    if argv.is_empty() {
        return Err(USAGE.into());
    }
    let name = argv.remove(0);
    let cfg = SystemConfig::a10_7850k();

    // Per-command flag allow-lists; anything else is rejected.
    let args = match name.as_str() {
        "list" | "figures" => Args::parse(argv, &["--quick"], &[])?,
        "run" => Args::parse(
            argv,
            &["--pinned", "--steer", "--coalesce", "--mono", "--json"],
            &["--cpu", "--gpu", "--qos", "--seed", "--gpus", "--metrics"],
        )?,
        "report" => return report_command(argv),
        "timeline" => Args::parse(
            argv,
            &["--pinned", "--steer", "--coalesce", "--mono"],
            &[
                "--cpu",
                "--gpu",
                "--qos",
                "--seed",
                "--gpus",
                "--from-us",
                "--to-us",
                "--width",
            ],
        )?,
        "scenario" => return scenario_command(argv),
        "bench" => return bench_command(argv),
        "lint" => return lint_command(argv),
        "serve" => return serve_command(argv),
        "submit" => return submit_command(argv),
        _ => return Err(USAGE.into()),
    };
    args.no_positional()?;

    match name.as_str() {
        "list" => {
            outln!("CPU applications (PARSEC 2.1 models):");
            for s in hiss::parsec_suite() {
                outln!(
                    "  {:>14}: {} threads, cache sens {:.2}, branch sens {:.2}",
                    s.name,
                    s.threads,
                    s.cache_sensitivity,
                    s.branch_sensitivity
                );
            }
            outln!("\nGPU applications (SSR generators):");
            for s in hiss::gpu_suite() {
                outln!(
                    "  {:>14}: ~{:.0} SSRs/iteration, blocking {:.0}%, kind {:?}",
                    s.name,
                    s.expected_ssrs(),
                    s.profile.blocking_prob * 100.0,
                    s.profile.kind
                );
            }
        }
        "run" => {
            let report = build(cfg, &args)?.run();
            if let Some(path) = args.value("--metrics") {
                let snapshot = format!("{}\n", report.metrics.to_json());
                if path == "-" {
                    out!("{snapshot}");
                } else {
                    write(path, snapshot)?;
                }
            }
            print_report(&report, args.flag("--json"))?;
        }
        "timeline" => {
            let (b, width) = timeline(cfg, &args)?;
            match b.run().trace {
                Some(trace) => outln!("{}", trace.render_gantt(cfg.num_cores, width)),
                None => eprintln!("no trace recorded"),
            }
        }
        "figures" => figures(cfg, args.flag("--quick"))?,
        _ => unreachable!("command validated above"),
    }
    Ok(ExitCode::SUCCESS)
}

fn banner(title: &str) -> Result<(), String> {
    outln!("\n{}", "=".repeat(74));
    outln!("{title}");
    outln!("{}", "=".repeat(74));
    Ok(())
}

/// `hiss-cli figures [--quick]` — regenerates every table and figure of
/// the paper's evaluation, in the paper's layout: the same rows and
/// series the paper plots, produced by the simulator. Every figure is a
/// committed scenario pack folded by `hiss_scenario::figures`, except
/// the tables, the two extensions a pack cannot express and the
/// replication. `--quick` runs the packs' quick subsets. EXPERIMENTS.md
/// records the paper-vs-measured comparison for the most recent full
/// run.
fn figures(cfg: SystemConfig, quick: bool) -> Result<(), String> {
    use scenario::figures::{self as fig, *};
    let ctx = RunCtx::new(hiss::thread_count());
    let run_pack = |text| scenario::run_with_metrics(&ctx, &fig::pack(text), quick);

    banner("Table I — GPU system service requests")?;
    outln!("{}", tables::render_table1(&tables::table1(&cfg)));

    banner("Table II — test system configuration")?;
    outln!("{}", tables::render_table2(&tables::table2(&cfg)));

    banner("Fig. 3a — normalised CPU application performance under GPU SSRs")?;
    let rows3 = run_pack(FIG3_PACK);
    outln!("{}", fig::fig3a(&rows3));

    banner("Fig. 3b — normalised GPU performance under CPU interference")?;
    outln!("{}", fig::fig3b(&rows3));
    let s = fig::fig3_summary(&rows3);
    outln!("{s:#?}");

    banner("Fig. 4 — CC6 residency with and without SSRs")?;
    let rows4 = run_pack(FIG4_PACK);
    outln!("{}", fig::render_fig4(&fig::fig4(&rows4)));

    banner("Fig. 5 — µarchitectural effects of ubench SSRs")?;
    outln!("{}", fig::render_fig5(&fig::fig5(&rows3)));

    banner("§IV-C — interrupt distribution, IPIs, coalescing")?;
    let s4c = fig::section4c(&run_pack(SECTION4C_PACK), &run_pack(SECTION4C_NO_SSR_PACK));
    outln!("{}", fig::render_section4c(&s4c));

    let grid = run_pack(MITIGATION_GRID_PACK);
    for panel in fig::fig6(&grid) {
        banner(&format!(
            "Fig. 6 — {} (CPU and GPU ratios vs default)",
            panel[0].technique.label()
        ))?;
        outln!("{}", fig::render_fig6(&panel));
    }

    banner("Fig. 7 — Pareto: mitigation combinations under ubench")?;
    outln!("{}", fig::render_pareto(&fig::fig7(&grid)));

    banner("Fig. 8 — Pareto: mitigation combinations, full GPU applications")?;
    outln!("{}", fig::render_pareto(&fig::fig8(&grid)));

    banner("Fig. 9 — mitigation techniques vs CC6 residency (ubench)")?;
    outln!("{}", fig::fig9(&rows4, &run_pack(FIG9_PACK)));

    banner("Fig. 12 — QoS throttling (default / th_25 / th_5 / th_1)")?;
    outln!("{}", fig::render_fig12(&fig::fig12(&run_pack(FIG12_PACK))));

    banner("Extension — multi-accelerator scaling (x264 vs N × sssp)")?;
    outln!("{}", fig::scaling(&run_pack(SCALING_PACK)));

    banner("Extension — coalescing window sweep (x264 vs ubench)")?;
    out!("{}", fig::coalescing_window(&run_pack(WINDOW_PACK)));

    banner("Extension — outstanding-SSR-limit sweep (QoS leverage)")?;
    out!("{}", fig::outstanding_limit(&run_pack(LIMIT_PACK)));

    banner("Extension — adaptive QoS threshold (x264 within 10%)")?;
    let a = extensions::adaptive_qos(&ctx, &cfg, "x264", "ubench", 0.10, 5);
    outln!(
        "  threshold th_{:.2}: CPU {:.3}, ubench {:.3}",
        a.threshold_percent,
        a.cpu_perf,
        a.gpu_perf
    );

    banner("Extension — module pairing (shared-L2 siblings, steered handlers)")?;
    let mp = extensions::module_pairing(&ctx, &cfg, "ubench");
    outln!(
        "  victim on core 0: steer to sibling core 1 -> {:.3}; steer to remote core 2 -> {:.3}",
        mp.sibling_perf,
        mp.remote_perf
    );

    banner("Replication — x264 + ubench over 3 seeds (paper §III methodology)")?;
    let reps = hiss::replicate(
        ExperimentBuilder::new(cfg)
            .cpu_app("x264")
            .gpu_app("ubench"),
        3,
    );
    outln!(
        "  runtime {:.3} ms ± {:.3} (95% CI over {} seeds); SSR rate {:.0} ± {:.0}",
        reps.cpu_runtime_s.mean * 1e3,
        reps.cpu_runtime_s.ci95(reps.n) * 1e3,
        reps.n,
        reps.ssr_rate.mean,
        reps.ssr_rate.ci95(reps.n)
    );
    Ok(())
}
