//! Quickstart: reproduce the paper's headline observation in one page.
//!
//! Runs fluidanimate (CPU) against SSSP (GPU, demand paging) on the
//! simulated A10-7850K, with and without SSRs, and prints the resulting
//! interference plus the Table I/II configuration being simulated.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use hiss::experiments::tables;
use hiss::{ExperimentBuilder, SystemConfig};

fn main() {
    let cfg = SystemConfig::a10_7850k();

    println!("Table I — GPU system service requests\n");
    println!("{}", tables::render_table1(&tables::table1(&cfg)));
    println!("Table II — test system configuration\n");
    println!("{}", tables::render_table2(&tables::table2(&cfg)));

    // The paper's worst full-application pairing (§IV-A).
    let baseline = ExperimentBuilder::new(cfg)
        .cpu_app("fluidanimate")
        .gpu_app_pinned("sssp") // memory pinned up-front: no SSRs
        .run();
    let noisy = ExperimentBuilder::new(cfg)
        .cpu_app("fluidanimate")
        .gpu_app("sssp") // demand paging: every new page faults
        .run();

    println!(
        "fluidanimate + sssp, no SSRs  : runtime {}",
        baseline.cpu_app_runtime().unwrap()
    );
    println!(
        "fluidanimate + sssp, with SSRs: runtime {}",
        noisy.cpu_app_runtime().unwrap()
    );
    let perf = noisy.cpu_perf_vs(&baseline).unwrap();
    println!("normalised CPU performance    : {perf:.3}  (paper Fig. 3a: 0.69)");
    println!();
    println!("SSRs serviced      : {}", noisy.ssrs_serviced());
    println!(
        "interrupts per core: {:?}  (evenly spread, §IV-C)",
        noisy.interrupts_per_core()
    );
    println!("IPIs               : {}", noisy.ipis());
    println!("mean SSR latency   : {}", noisy.mean_ssr_latency());
    println!(
        "CPU SSR overhead   : {:.1}%",
        noisy.cpu_ssr_overhead() * 100.0
    );
    println!("CC6 residency      : {:.1}%", noisy.cc6_residency() * 100.0);
    println!(
        "CPU energy         : {:.3} J ({:.1} W avg)",
        noisy.cpu_joules(),
        noisy.cpu_avg_watts()
    );
}
