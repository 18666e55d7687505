//! Interference sweep: a scaled-down Fig. 3 grid plus the §IV-C
//! interrupt analysis.
//!
//! Shows how each CPU application suffers under each GPU SSR generator
//! and, symmetrically, how CPU work delays the accelerator. Uses a
//! 5 × 3 subset so it finishes in seconds; the full 13 × 6 grid is
//! regenerated by `hiss-cli figures`.
//!
//! ```text
//! cargo run --release --example interference_sweep
//! ```

use hiss::RunCtx;
use hiss_scenario::figures::{self, FIG3_PACK, SECTION4C_NO_SSR_PACK, SECTION4C_PACK};

fn main() {
    let ctx = RunCtx::new(hiss::thread_count());
    let mut fig3 = figures::pack(FIG3_PACK);
    fig3.workload.cpu = [
        "blackscholes",
        "fluidanimate",
        "raytrace",
        "streamcluster",
        "x264",
    ]
    .map(String::from)
    .to_vec();
    fig3.workload.gpu = ["bfs", "sssp", "ubench"].map(String::from).to_vec();

    println!("Fig. 3a — CPU application performance under GPU SSRs");
    println!("(normalised to the same pairing without SSRs; lower = more interference)\n");
    let rows = hiss_scenario::run_with_metrics(&ctx, &fig3, false);
    println!("{}", figures::fig3a(&rows));

    println!("Fig. 3b — GPU performance while CPU applications run");
    println!("(normalised to the GPU with idle CPUs)\n");
    println!("{}", figures::fig3b(&rows));

    let s = figures::fig3_summary(&rows);
    println!(
        "worst CPU loss under ubench : {:.1}%  (paper: up to 44%)",
        (1.0 - s.worst_cpu_ubench) * 100.0
    );
    println!(
        "mean  CPU loss under ubench : {:.1}%  (paper: 28% average)",
        (1.0 - s.mean_cpu_ubench) * 100.0
    );
    println!(
        "worst GPU loss from CPU work: {:.1}%  (paper: up to 18%)",
        (1.0 - s.worst_gpu) * 100.0
    );
    println!();

    println!("§IV-C — sources of SSR overhead\n");
    let run_pack = |text| hiss_scenario::run_with_metrics(&ctx, &figures::pack(text), false);
    let analysis = figures::section4c(&run_pack(SECTION4C_PACK), &run_pack(SECTION4C_NO_SSR_PACK));
    println!("{}", figures::render_section4c(&analysis));
}
