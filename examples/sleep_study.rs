//! Sleep and energy study (paper §IV-B, §V-E): how GPU SSRs destroy CPU
//! deep-sleep residency, and how much each mitigation recovers.
//!
//! Reproduces Fig. 4 (per-application CC6 residency) and Fig. 9
//! (residency across mitigation combinations under ubench), extended
//! with the energy model.
//!
//! ```text
//! cargo run --release --example sleep_study
//! ```

use hiss::experiments::{fig4, fig9};
use hiss::{ExperimentBuilder, Mitigation, RunCtx, SystemConfig};

fn main() {
    let cfg = SystemConfig::a10_7850k();
    let ctx = RunCtx::new(hiss::thread_count());

    println!("Fig. 4 — CC6 residency with and without SSRs (no CPU work)\n");
    let rows = fig4::fig4(&ctx, &cfg);
    println!("{}", fig4::render(&rows));
    println!("Reading: bfs clusters faults early and lets the CPUs sleep");
    println!("afterwards; the streaming applications keep at least one core");
    println!("awake; ubench nearly eliminates sleep (paper: 86% -> 12%).\n");

    println!("Fig. 9 — mitigation techniques vs sleep (ubench)\n");
    let rows = fig9::fig9(&ctx, &cfg);
    println!("{}", fig9::render(&rows));
    println!("Reading: steering confines the wake-ups to the steered core,");
    println!("letting the others sleep; coalescing alone still wakes every");
    println!("core (paper §V-E).\n");

    println!("Energy extension: average CPU power while ubench runs\n");
    let quiet = ExperimentBuilder::new(cfg).gpu_app_pinned("ubench").run();
    let noisy = ExperimentBuilder::new(cfg).gpu_app("ubench").run();
    let steered = ExperimentBuilder::new(cfg)
        .gpu_app("ubench")
        .mitigation(Mitigation {
            steer_single_core: true,
            ..Mitigation::DEFAULT
        })
        .run();
    for (label, r) in [
        ("no SSRs", &quiet),
        ("SSRs, default", &noisy),
        ("SSRs, steered", &steered),
    ] {
        println!(
            "  {label:>14}: {:5.2} W avg  (CC6 {:4.1}%)",
            r.energy.cpu_avg_watts,
            r.cc6_residency * 100.0
        );
    }
}
