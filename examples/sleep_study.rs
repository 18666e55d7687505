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

use hiss::{ExperimentBuilder, Mitigation, RunCtx, SystemConfig};
use hiss_scenario::figures::{self, FIG4_PACK, FIG9_PACK};

fn main() {
    let cfg = SystemConfig::a10_7850k();
    let ctx = RunCtx::new(hiss::thread_count());
    let run_pack = |text| hiss_scenario::run_with_metrics(&ctx, &figures::pack(text), false);

    println!("Fig. 4 — CC6 residency with and without SSRs (no CPU work)\n");
    let rows4 = run_pack(FIG4_PACK);
    println!("{}", figures::render_fig4(&figures::fig4(&rows4)));
    println!("Reading: bfs clusters faults early and lets the CPUs sleep");
    println!("afterwards; the streaming applications keep at least one core");
    println!("awake; ubench nearly eliminates sleep (paper: 86% -> 12%).\n");

    println!("Fig. 9 — mitigation techniques vs sleep (ubench)\n");
    println!("{}", figures::fig9(&rows4, &run_pack(FIG9_PACK)));
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
