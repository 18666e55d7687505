//! End-to-end tests for `hiss-cli`'s flags and output: a numeric value
//! that does not parse, or is out of range, exits 1 with one message
//! naming the flag and the value. It is never replaced by the flag's
//! default, and it never reaches the simulator. A flag that needs
//! `--gpu` is rejected without it, and a closed stdout ends the process
//! quietly.

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

/// `hiss-cli list | head -1` and the like: once the reader is gone, the
/// next write fails with a broken pipe, and the process ends quietly
/// with status 0 instead of panicking.
#[test]
fn closed_stdout_ends_quietly() {
    // A pipe whose only reader has exited, so every write to it fails.
    let mut reader = Command::new("true").stdin(Stdio::piped()).spawn().unwrap();
    let write_end = reader.stdin.take().unwrap();
    reader.wait().unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_hiss-cli"))
        .arg("list")
        .stdout(Stdio::from(write_end))
        .output()
        .unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}
