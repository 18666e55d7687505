//! End-to-end pin of `hiss-cli figures`, the one entry point that
//! regenerates the paper's tables and figures: the quick run exits 0,
//! prints every artifact banner in the paper's order, and its Fig. 3a
//! block is exactly the library's rendering of the quick grid.

use std::path::Path;
use std::process::Command;

use hiss::experiments::{fig3, test_cpu_subset, test_gpu_subset};

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

#[test]
fn quick_figures_print_every_artifact_in_order() {
    let out = Command::new(env!("CARGO_BIN_EXE_hiss-cli"))
        .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."))
        .args(["figures", "--quick"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "figures --quick failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();

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

    // The Fig. 3a block is the library rendering of the quick grid.
    let rows = fig3::fig3_with(
        &hiss::SystemConfig::a10_7850k(),
        &test_cpu_subset(),
        &test_gpu_subset(),
    );
    let block = format!(
        "\n{}\n{rule}\n{}\n\n{rule}\n{}\n",
        BANNERS[2],
        fig3::render(&rows, |r| r.cpu_perf),
        BANNERS[3]
    );
    assert!(
        stdout.contains(&block),
        "Fig. 3a block differs from fig3::render:\n{stdout}"
    );
}
