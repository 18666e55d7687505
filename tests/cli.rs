//! End-to-end tests for `hiss-cli`'s flags and output: a numeric value
//! that does not parse, or is out of range, exits 1 with one message
//! naming the flag and the value. It is never replaced by the flag's
//! default, and it never reaches the simulator. A flag that needs
//! `--gpu` is rejected without it, a usage error exits 1 with its one
//! message, and a closed stdout ends the process quietly with the
//! command's own exit status.

use std::path::Path;
use std::process::{Command, Stdio};

/// Runs `hiss-cli` with `args` and returns its exit code and stderr.
fn cli(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_hiss-cli"))
        .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."))
        .args(args)
        .output()
        .unwrap();
    (out.status.code(), String::from_utf8(out.stderr).unwrap())
}

#[test]
fn bad_numeric_flag_values_are_rejected_by_name() {
    let cases: &[(&[&str], &str)] = &[
        (
            &["run", "--gpus", "abc"],
            r#"--gpus expects an integer in 1..=64, got "abc""#,
        ),
        (
            &["run", "--gpus", "0", "--gpu", "ubench"],
            r#"--gpus expects an integer in 1..=64, got "0""#,
        ),
        (
            &["run", "--seed", "-5"],
            r#"--seed expects a non-negative integer, got "-5""#,
        ),
        (
            &["run", "--qos", "0"],
            r#"--qos expects a percentage in (0, 100], got "0""#,
        ),
        (
            &[
                "timeline",
                "--gpus",
                "abc",
                "--from-us",
                "0",
                "--to-us",
                "100",
            ],
            r#"--gpus expects an integer in 1..=64, got "abc""#,
        ),
        (
            &[
                "timeline",
                "--width",
                "zz",
                "--from-us",
                "0",
                "--to-us",
                "100",
            ],
            r#"--width expects a positive integer, got "zz""#,
        ),
        (
            &[
                "timeline",
                "--width",
                "0",
                "--from-us",
                "0",
                "--to-us",
                "100",
            ],
            r#"--width expects a positive integer, got "0""#,
        ),
        (
            &["timeline", "--from-us", "abc", "--to-us", "100"],
            r#"--from-us expects a non-negative integer, got "abc""#,
        ),
        (
            &["timeline", "--from-us", "0", "--to-us", "1e3"],
            r#"--to-us expects a non-negative integer, got "1e3""#,
        ),
        (
            &["serve", "--threads", "0"],
            r#"--threads expects a positive integer, got "0""#,
        ),
    ];
    for (args, message) in cases {
        let (code, stderr) = cli(args);
        assert_eq!(code, Some(1), "hiss-cli {args:?}: stderr {stderr:?}");
        assert_eq!(stderr, format!("{message}\n"), "hiss-cli {args:?}");
    }
}

#[test]
fn missing_timeline_window_is_named() {
    let (code, stderr) = cli(&["timeline", "--to-us", "100"]);
    assert_eq!(code, Some(1));
    assert_eq!(stderr, "timeline requires --from-us and --to-us\n");
}

/// `--gpus` and `--pinned` configure the GPU application, so without
/// `--gpu` they would silently run no GPU at all.
#[test]
fn flags_that_need_a_gpu_are_rejected_by_name() {
    let cases: &[(&[&str], &str)] = &[
        (&["run", "--cpu", "x264", "--gpus", "2", "--json"], "--gpus"),
        (&["run", "--cpu", "x264", "--pinned", "--json"], "--pinned"),
        (&["run", "--cpu", "x264", "--qos", "1", "--json"], "--qos"),
        (&["run", "--cpu", "x264", "--steer", "--json"], "--steer"),
        (
            &["run", "--cpu", "x264", "--coalesce", "--json"],
            "--coalesce",
        ),
        (&["run", "--cpu", "x264", "--mono", "--json"], "--mono"),
    ];
    for (args, flag) in cases {
        let (code, stderr) = cli(args);
        assert_eq!(code, Some(1), "hiss-cli {args:?}");
        assert_eq!(
            stderr,
            format!("{flag} needs --gpu <app>\n"),
            "hiss-cli {args:?}"
        );
    }
}

/// Usage and input errors of the subcommands: exit 1 with exactly this
/// stderr.
#[test]
fn usage_errors_exit_1_with_their_message() {
    let no_file = "No such file or directory (os error 2)";
    let cases: &[(&[&str], String)] = &[
        (
            &["report"],
            "report requires exactly one snapshot file".into(),
        ),
        (
            &["report", "target/no-such-snapshot.json"],
            format!("cannot read target/no-such-snapshot.json: {no_file}"),
        ),
        (
            &["scenario"],
            "scenario requires a verb: validate, run, or list".into(),
        ),
        (
            &["scenario", "frob"],
            r#"unknown scenario verb "frob": expected validate, run, or list"#.into(),
        ),
        (
            &["scenario", "run", "a.hiss", "b.hiss"],
            "scenario run requires exactly one file".into(),
        ),
        (
            &["bench"],
            "bench requires a verb: run, check, or update".into(),
        ),
        (
            &[
                "bench",
                "check",
                "--baseline",
                "target/no-such-baseline.json",
            ],
            format!(
                "cannot read target/no-such-baseline.json: {no_file}\n\
                 (generate one with `hiss-cli bench update --reason ...`)"
            ),
        ),
        (
            &["lint"],
            "lint requires scenario files and/or --sources / --docs / --bench / \
             --invariants / --all"
                .into(),
        ),
        (
            &["submit"],
            "submit requires exactly one file (or just --shutdown)".into(),
        ),
        (
            &["run", "--jsn"],
            "unknown flag --jsn (did you mean --json?)".into(),
        ),
        (
            &["scenario", "run", "scenarios/fig3.hiss", "--profile"],
            "unknown flag --profile".into(),
        ),
    ];
    for (args, message) in cases {
        let (code, stderr) = cli(args);
        assert_eq!(code, Some(1), "hiss-cli {args:?}: stderr {stderr:?}");
        assert_eq!(stderr, format!("{message}\n"), "hiss-cli {args:?}");
    }
}

/// The write end of a pipe whose only reader has exited, so every
/// write to it fails.
fn closed_pipe() -> Stdio {
    let mut reader = Command::new("true").stdin(Stdio::piped()).spawn().unwrap();
    let write_end = reader.stdin.take().unwrap();
    reader.wait().unwrap();
    Stdio::from(write_end)
}

/// `hiss-cli list | head -1` and the like: once the reader is gone, the
/// next write fails with a broken pipe, and the process ends quietly
/// with status 0 instead of panicking.
#[test]
fn closed_stdout_ends_quietly() {
    let out = Command::new(env!("CARGO_BIN_EXE_hiss-cli"))
        .arg("list")
        .stdout(closed_pipe())
        .output()
        .unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}

#[test]
fn a_failure_verdict_survives_a_closed_stdout() {
    // A baseline with one counter doctored (`bench.cells` 2 -> 12),
    // checked against the committed one: the verdict is a failure,
    // printed on stdout after its findings. The reader having gone
    // must not turn it into a success.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let committed = std::fs::read_to_string(root.join("BENCH_BASELINE.json")).unwrap();
    let doctored = committed.replacen("\"bench.cells\":", "\"bench.cells\":1", 1);
    assert_ne!(doctored, committed, "no bench.cells counter to doctor");
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("closed_stdout_doctored.json");
    std::fs::write(&path, doctored).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_hiss-cli"))
        .current_dir(&root)
        .args([
            "bench",
            "check",
            "--fresh",
            "BENCH_BASELINE.json",
            "--baseline",
        ])
        .arg(&path)
        .stdout(closed_pipe())
        .output()
        .unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(1), "{stderr}");
}

/// The `hiss-cli run` invocations pinned by `tests/golden/cli_run.txt`:
/// a CPU+GPU run, a GPU-only run (no CPU runtime line, `null` in JSON),
/// a QoS-throttled run (nonzero deferrals) and a two-GPU run.
const RUNS: &[&[&str]] = &[
    &["run", "--cpu", "x264", "--gpu", "ubench"],
    &["run", "--gpu", "ubench"],
    &["run", "--cpu", "x264", "--gpu", "ubench", "--qos", "5"],
    &["run", "--cpu", "x264", "--gpu", "ubench", "--gpus", "2"],
];

/// Every pinned run's text and `--json` output, each under a `$ hiss-cli
/// ...` header line, in the golden's layout.
fn run_transcript() -> String {
    let mut transcript = String::new();
    for run in RUNS {
        for json in [false, true] {
            let mut args = run.to_vec();
            if json {
                args.push("--json");
            }
            let out = Command::new(env!("CARGO_BIN_EXE_hiss-cli"))
                .args(&args)
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{args:?} failed:\n{stderr}");
            transcript.push_str(&format!("$ hiss-cli {}\n", args.join(" ")));
            transcript.push_str(&String::from_utf8(out.stdout).unwrap());
        }
    }
    transcript
}

#[test]
fn run_output_matches_the_golden() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/cli_run.txt");
    let golden =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert_eq!(run_transcript(), golden);
}
