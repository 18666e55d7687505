//! `hissbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path hissbench/Cargo.toml -- \
//!     --workload <sweep_cold|serve_replay|serve_fresh> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the root of a checkout. It builds `hiss-cli` from source,
//! generates the workload's `.hiss` texts from the seed, drives the
//! shipped binary as child processes for `--seconds`, checks every
//! output, and prints each metric by name with its unit. The last line
//! of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics of an in-process traced replay with `--trace 1`.
//! See `hissbench/README.md`.
// The workspace's clippy.toml bans wall-clock reads and threads to keep
// simulation results replayable. Measuring wall time, and driving the
// program from client threads, is this package's whole purpose; no
// simulated state is touched.
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

mod gen;
mod load;
mod mirror;
mod proc;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use workloads::{Ctx, Workload};

const USAGE: &str = "usage: hissbench --workload <sweep_cold|serve_replay|serve_fresh> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| *s > 0)
                        .ok_or_else(|| format!("bad --seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}: expected 0 or 1")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The checkout root: the working directory, which must hold the
/// repository's workspace.
fn checkout_root() -> Result<PathBuf, String> {
    let root = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
    let needed = ["Cargo.toml", "crates/serve/Cargo.toml"];
    match needed.iter().find(|p| !root.join(p).is_file()) {
        Some(missing) => Err(format!(
            "{} is not a hiss checkout (no {missing}); run from the repository root",
            root.display()
        )),
        None => Ok(root),
    }
}

/// JSON for a finite number; Rust's `Display` for `f64` never uses an
/// exponent, so its output is a valid JSON number.
fn json_number(v: f64) -> Result<String, String> {
    if v.is_finite() {
        Ok(format!("{v}"))
    } else {
        Err(format!("non-finite metric value {v}"))
    }
}

fn run(args: &Args) -> Result<String, String> {
    let root = checkout_root()?;
    let cli = proc::build_cli(&root)?;
    let work = root
        .join(".hissbench")
        .join(format!("{}-{}", args.workload.name(), args.seed));
    if work.exists() {
        std::fs::remove_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    }
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Ctx {
        cli,
        work: work.clone(),
        seed: args.seed,
        seconds: args.seconds as f64,
        nproc,
    };
    eprintln!(
        "hissbench: {} seed {} for {} s, trace {}, {nproc} connection(s)/worker(s)",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let outcome = workloads::run(args.workload, &ctx, args.trace);
    // Stores and snapshot files can be large; the trace file is kept.
    let _ = std::fs::remove_dir_all(&work);
    let outcome = outcome?;

    let checks = &outcome.checks;
    for m in &outcome.metrics {
        println!("{:<26} {:>18.6} {:<6} {}", m.name, m.value, m.unit, m.note);
    }
    let error_rate = checks.failed as f64 / checks.attempted.max(1) as f64;
    println!(
        "{:<26} {:>18.6} {:<6} {} failed of {} attempted",
        "error_rate", error_rate, "ratio", checks.failed, checks.attempted
    );
    for f in checks.failures.iter().take(10) {
        println!("failure: {f}");
    }
    let mut fields = Vec::new();
    for m in &outcome.metrics {
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value)?,
            m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        fields.join(", ")
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hissbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("hissbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_are_all_required_and_checked() {
        let a = parse_args(&argv(
            "--workload serve_fresh --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::ServeFresh, 3, 10, true)
        );
        assert!(parse_args(&argv("--workload serve_fresh --seed 3 --seconds 10")).is_err());
        assert!(parse_args(&argv("--workload nope --seed 3 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&argv(
            "--workload sweep_cold --seed 3 --seconds 0 --trace 0"
        ))
        .is_err());
        assert!(parse_args(&argv(
            "--workload sweep_cold --seed 3 --seconds 1 --trace 2"
        ))
        .is_err());
    }

    #[test]
    fn metric_values_render_as_json_numbers() {
        assert_eq!(json_number(1.25).unwrap(), "1.25");
        assert_eq!(json_number(1e-7).unwrap(), "0.0000001");
        assert!(json_number(f64::NAN).is_err());
    }
}
