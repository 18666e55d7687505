//! Accelerator-rich future projection (paper §I/§IV: "this problem may be
//! exacerbated as future chips include many such accelerators").
//!
//! Scales the number of concurrent SSR-generating accelerators and
//! measures CPU interference, sleep residency, and aggregate SSR traffic;
//! then shows that the QoS governor keeps its guarantee even with many
//! accelerators attached.
//!
//! ```text
//! cargo run --release --example accelerator_scaling
//! ```

use hiss::{ExperimentBuilder, QosParams, RunCtx, SystemConfig};
use hiss_scenario::figures::{self, SCALING_PACK};
use hiss_scenario::Value;

fn main() {
    let cfg = SystemConfig::a10_7850k();
    let ctx = RunCtx::new(hiss::thread_count());
    let mut pack = figures::pack(SCALING_PACK);

    println!("Multi-accelerator scaling: x264 vs N copies of sssp\n");
    let rows = hiss_scenario::run_with_metrics(&ctx, &pack, false);
    println!("{}", figures::scaling(&rows));
    println!("Reading: every added accelerator steals more CPU time and");
    println!("sleep opportunity — the paper's motivation for treating SSR");
    println!("interference as a first-class QoS problem.\n");

    println!("The saturation effect: N copies of ubench\n");
    pack.workload.gpu = vec!["ubench".into()];
    pack.sweeps[0].values = (1..=3).map(Value::Int).collect();
    let rows = hiss_scenario::run_with_metrics(&ctx, &pack, false);
    println!("{}", figures::scaling(&rows));
    println!("Reading: one ubench already saturates the SSR service chain,");
    println!("so additional copies mostly starve each other rather than");
    println!("adding CPU damage.\n");

    println!("QoS with four accelerators attached (th_2):\n");
    let mut b = ExperimentBuilder::new(cfg).cpu_app("x264");
    for _ in 0..4 {
        b = b.gpu_app("sssp");
    }
    let unprotected = b.run();
    let mut b = ExperimentBuilder::new(cfg)
        .cpu_app("x264")
        .qos(QosParams::threshold_percent(2.0));
    for _ in 0..4 {
        b = b.gpu_app("sssp");
    }
    let protected = b.run();
    println!(
        "  unprotected: SSR overhead {:.1}%, runtime {}",
        unprotected.cpu_ssr_overhead() * 100.0,
        unprotected.cpu_app_runtime().unwrap()
    );
    println!(
        "  th_2       : SSR overhead {:.1}%, runtime {}",
        protected.cpu_ssr_overhead() * 100.0,
        protected.cpu_app_runtime().unwrap()
    );
}
