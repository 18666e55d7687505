//! End-to-end pin of `hiss-cli figures`, the one entry point that
//! regenerates the paper's tables and figures: the quick and full runs
//! exit 0 and print, byte for byte, the committed goldens under
//! `tests/golden/` (every artifact banner in the paper's order, every
//! rendered row). The metrics snapshots behind Fig. 3's quick grid are
//! pinned the same way, byte for byte, at one and at eight workers.

use std::path::Path;
use std::process::Command;

/// Every artifact banner, in print order.
const BANNERS: &[&str] = &[
    "Table I — GPU system service requests",
    "Table II — test system configuration",
    "Fig. 3a — normalised CPU application performance under GPU SSRs",
    "Fig. 3b — normalised GPU performance under CPU interference",
    "Fig. 4 — CC6 residency with and without SSRs",
    "Fig. 5 — µarchitectural effects of ubench SSRs",
    "§IV-C — interrupt distribution, IPIs, coalescing",
    "Fig. 6 — Intr_to_single_core (CPU and GPU ratios vs default)",
    "Fig. 6 — Intr_coalescing (CPU and GPU ratios vs default)",
    "Fig. 6 — Monolithic_bottom_half (CPU and GPU ratios vs default)",
    "Fig. 7 — Pareto: mitigation combinations under ubench",
    "Fig. 8 — Pareto: mitigation combinations, full GPU applications",
    "Fig. 9 — mitigation techniques vs CC6 residency (ubench)",
    "Fig. 12 — QoS throttling (default / th_25 / th_5 / th_1)",
    "Extension — multi-accelerator scaling (x264 vs N × sssp)",
    "Extension — coalescing window sweep (x264 vs ubench)",
    "Extension — outstanding-SSR-limit sweep (QoS leverage)",
    "Extension — adaptive QoS threshold (x264 within 10%)",
    "Extension — module pairing (shared-L2 siblings, steered handlers)",
    "Replication — x264 + ubench over 3 seeds (paper §III methodology)",
];

/// Runs `hiss-cli figures <args>` and returns its stdout.
fn figures(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_hiss-cli"))
        .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."))
        .arg("figures")
        .args(args)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "figures {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

fn golden(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn quick_figures_print_every_artifact_in_order() {
    let stdout = figures(&["--quick"]);

    // Each title sits between two rules, and the titles come in order.
    let rule = "=".repeat(74);
    let mut from = 0;
    for title in BANNERS {
        let banner = format!("\n{rule}\n{title}\n{rule}\n");
        let at = stdout[from..]
            .find(&banner)
            .unwrap_or_else(|| panic!("banner {title:?} missing or out of order"));
        from += at + banner.len();
    }
    assert_eq!(
        stdout.matches(&format!("\n{rule}\n")).count(),
        2 * BANNERS.len(),
        "an artifact banner is not in the list"
    );

    assert!(
        stdout == golden("figures_quick.txt"),
        "figures --quick differs from tests/golden/figures_quick.txt:\n{stdout}"
    );
}

#[test]
fn full_figures_match_the_golden() {
    let stdout = figures(&[]);
    assert!(
        stdout == golden("figures_full.txt"),
        "figures differs from tests/golden/figures_full.txt:\n{stdout}"
    );
}

#[test]
fn fig3_quick_metrics_match_the_golden_at_1_and_8_workers() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let want = golden("fig3_quick_metrics.jsonl");
    for threads in ["1", "8"] {
        let path = Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("fig3_quick_metrics_t{threads}.jsonl"));
        let out = Command::new(env!("CARGO_BIN_EXE_hiss-cli"))
            .current_dir(&root)
            .env("HISS_THREADS", threads)
            .args([
                "scenario",
                "run",
                "scenarios/fig3.hiss",
                "--quick",
                "--metrics",
            ])
            .arg(&path)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "scenario run at {threads} workers failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let got = std::fs::read_to_string(&path).unwrap();
        assert!(
            got == want,
            "HISS_THREADS={threads}: snapshots differ from tests/golden/fig3_quick_metrics.jsonl:\n{got}"
        );
    }
}
