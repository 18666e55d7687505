//! QoS guarantee demo (paper §VI): bound CPU interference from a
//! misbehaving accelerator by backpressuring its SSRs.
//!
//! Sweeps the governor threshold for a victim application against the
//! SSR-flooding microbenchmark, then runs the adaptive-threshold search
//! (the paper's future-work extension).
//!
//! ```text
//! cargo run --release --example qos_guarantee
//! ```

use hiss::experiments::extensions;
use hiss::{RunCtx, SystemConfig};
use hiss_scenario::figures::{self, FIG12_PACK, LIMIT_PACK};
use hiss_scenario::Value;

fn main() {
    let cfg = SystemConfig::a10_7850k();
    let ctx = RunCtx::new(hiss::thread_count());

    println!("Fig. 12 — QoS throttling sweep (victims vs ubench)\n");
    let mut fig12 = figures::pack(FIG12_PACK);
    fig12.workload.cpu = ["x264", "fluidanimate", "swaptions"]
        .map(String::from)
        .to_vec();
    let rows = figures::fig12(&hiss_scenario::run_with_metrics(&ctx, &fig12, false));
    println!("{}", figures::render_fig12(&rows));
    println!("Reading: th_1 restores CPU performance to within a few percent");
    println!("of the no-SSR baseline while accelerator throughput collapses —");
    println!("the configured ceiling is an enforced guarantee, not a hint.\n");

    println!("Adaptive threshold (extension): loosest th_x keeping x264 within 10%\n");
    let r = extensions::adaptive_qos(&ctx, &cfg, "x264", "ubench", 0.10, 5);
    println!(
        "  chosen threshold : th_{:.2} ({:.2}% of CPU time)",
        r.threshold_percent, r.threshold_percent
    );
    println!("  CPU performance  : {:.3} (floor was 0.90)", r.cpu_perf);
    println!("  ubench throughput: {:.3} of unhindered", r.gpu_perf);

    println!("\nBackpressure leverage vs hardware outstanding-SSR limit:\n");
    let mut limits = figures::pack(LIMIT_PACK);
    limits.sweeps[0].values = [8, 64, 256].map(Value::Int).to_vec();
    let rows = hiss_scenario::run_with_metrics(&ctx, &limits, false);
    print!("{}", figures::outstanding_limit(&rows));
}
