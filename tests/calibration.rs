//! Calibration suite: pins the simulator to the paper's headline numbers.
//!
//! Each test encodes one quantitative claim from the paper as a tolerance
//! band. The simulator is not expected to match absolute numbers from the
//! authors' testbed — the bands check that *who wins, by roughly what
//! factor, and where the crossovers fall* reproduce (see EXPERIMENTS.md
//! for the per-figure comparison and known deviations).
//!
//! Figures run their committed packs (`hiss_scenario::figures`) over
//! the workload subset each claim needs.

use hiss::{ExperimentBuilder, Mitigation, RunCtx, SystemConfig};
use hiss_obs::MetricsRegistry;
use hiss_scenario::figures::{
    self, FIG12_PACK, FIG3_PACK, FIG4_PACK, SECTION4C_NO_SSR_PACK, SECTION4C_PACK,
};
use hiss_scenario::{run_with_metrics, Row};

fn cfg() -> SystemConfig {
    SystemConfig::a10_7850k()
}

/// Runs the pack `text` over the `cpu` × `gpu` subset of its workload.
fn run_subset(text: &str, cpu: &[&str], gpu: &[&str]) -> Vec<(Row, MetricsRegistry)> {
    let mut sc = figures::pack(text);
    sc.workload.cpu = cpu.iter().map(|s| s.to_string()).collect();
    sc.workload.gpu = gpu.iter().map(|s| s.to_string()).collect();
    run_with_metrics(&RunCtx::new(hiss::thread_count()), &sc, false)
}

fn cpu_perf(row: &Row) -> f64 {
    row.cpu_perf
        .expect("calibration cells finish the CPU application")
}

/// §I / §IV-A: "GPU system service requests can degrade contemporaneous
/// CPU application performance by up to 44%" (x264 under ubench) "and by
/// 28% on average".
#[test]
fn ubench_cpu_degradation_band() {
    let cpu: Vec<&str> = hiss::parsec_suite().iter().map(|s| s.name).collect();
    let pairs = run_subset(FIG3_PACK, &cpu, &["ubench"]);
    let s = figures::fig3_summary(&pairs);
    let rows: Vec<&Row> = pairs.iter().map(|(r, _)| r).collect();
    assert!(
        (0.50..=0.80).contains(&s.worst_cpu_ubench),
        "worst-case CPU perf under ubench: {} (paper: 0.56)",
        s.worst_cpu_ubench
    );
    assert!(
        (0.65..=0.88).contains(&s.mean_cpu_ubench),
        "mean CPU perf under ubench: {} (paper: 0.72)",
        s.mean_cpu_ubench
    );
    // The worst-affected application is one of the µarch-sensitive ones.
    let worst = rows
        .iter()
        .min_by(|a, b| cpu_perf(a).total_cmp(&cpu_perf(b)))
        .unwrap();
    assert!(
        ["x264", "fluidanimate"].contains(&worst.cpu_app.as_str()),
        "unexpected worst app {}",
        worst.cpu_app
    );
    // raytrace (single-threaded) is the least affected (paper §IV-A).
    let best = rows
        .iter()
        .max_by(|a, b| cpu_perf(a).total_cmp(&cpu_perf(b)))
        .unwrap();
    assert_eq!(best.cpu_app, "raytrace");
}

/// §IV-A: full-application SSRs cost the CPU up to 31% (fluidanimate with
/// SSSP), 12% on average for the worst generator.
#[test]
fn full_app_cpu_degradation_band() {
    let pairs = run_subset(
        FIG3_PACK,
        &["fluidanimate", "x264", "raytrace", "swaptions"],
        &["sssp", "bpt"],
    );
    let rows: Vec<&Row> = pairs.iter().map(|(r, _)| r).collect();
    for r in &rows {
        let perf = cpu_perf(r);
        // Single-threaded raytrace barely interacts with low-rate
        // generators: its cell can land within noise of 1.0.
        let ceiling = if r.cpu_app == "raytrace" { 1.01 } else { 1.0 };
        assert!(
            perf < ceiling,
            "{}+{}: full apps must still interfere ({})",
            r.cpu_app,
            r.gpu_app,
            perf
        );
        assert!(
            perf > 0.6,
            "{}+{}: implausibly strong interference ({})",
            r.cpu_app,
            r.gpu_app,
            perf
        );
    }
    // fluidanimate is hit harder than swaptions by the same generator.
    let get = |c: &str, g: &str| {
        cpu_perf(
            rows.iter()
                .find(|r| r.cpu_app == c && r.gpu_app == g)
                .unwrap(),
        )
    };
    assert!(get("fluidanimate", "sssp") < get("swaptions", "sssp"));
}

/// §IV-A / Fig. 3b: unrelated CPU work can delay SSR handling and reduce
/// accelerator throughput by up to 18%; streamcluster is the worst
/// delayer (the paper's average GPU drop for it is 8%).
#[test]
fn busy_cpus_delay_gpu_service() {
    let cpu: Vec<&str> = hiss::parsec_suite().iter().map(|s| s.name).collect();
    let pairs = run_subset(FIG3_PACK, &cpu, &["sssp", "ubench"]);
    let rows: Vec<&Row> = pairs.iter().map(|(r, _)| r).collect();
    let sssp_stream = rows
        .iter()
        .find(|r| r.cpu_app == "streamcluster" && r.gpu_app == "sssp")
        .unwrap();
    assert!(
        sssp_stream.gpu_perf < 0.95,
        "streamcluster should delay sssp: {}",
        sssp_stream.gpu_perf
    );
    // streamcluster is the worst CPU workload for each GPU app.
    for gpu in ["sssp", "ubench"] {
        let worst = rows
            .iter()
            .filter(|r| r.gpu_app == gpu)
            .min_by(|a, b| a.gpu_perf.total_cmp(&b.gpu_perf))
            .unwrap();
        assert_eq!(
            worst.cpu_app, "streamcluster",
            "worst delayer for {gpu} was {}",
            worst.cpu_app
        );
    }
}

/// §IV-B / Fig. 4: ubench SSRs collapse CC6 residency from 86% to 12%;
/// bfs (clustered early) loses far less than the streaming apps.
#[test]
fn cc6_residency_collapse() {
    let rows = figures::fig4(&run_subset(
        FIG4_PACK,
        &["idle"],
        &["bfs", "sssp", "ubench"],
    ));
    let get = |n: &str| rows.iter().find(|r| r.gpu_app == n).unwrap();
    let ubench = get("ubench");
    assert!(
        ubench.cc6_no_ssr > 0.75,
        "no-SSR residency {} (paper: 0.86)",
        ubench.cc6_no_ssr
    );
    assert!(
        ubench.cc6_ssr < 0.30,
        "ubench SSR residency {} (paper: 0.12)",
        ubench.cc6_ssr
    );
    assert!(
        get("bfs").lost_points() < get("sssp").lost_points(),
        "bfs ({}) should lose fewer points than sssp ({})",
        get("bfs").lost_points(),
        get("sssp").lost_points()
    );
}

/// §IV-C: SSR interrupts are evenly spread across all CPUs; IPIs inflate
/// by orders of magnitude; coalescing cuts interrupts (paper: 16%
/// average).
#[test]
fn section4c_interrupt_analysis() {
    let ctx = RunCtx::new(hiss::thread_count());
    let run = |text| run_with_metrics(&ctx, &figures::pack(text), false);
    let s = figures::section4c(&run(SECTION4C_PACK), &run(SECTION4C_NO_SSR_PACK));
    assert!(
        s.interrupt_imbalance < 1.2,
        "interrupts not evenly spread: {:?}",
        s.interrupts_per_core
    );
    assert!(s.ipis_with_ssrs > 100);
    assert_eq!(s.ipis_without_ssrs, 0, "no SSRs → no SSR IPIs");
    assert!(
        (0.05..=0.7).contains(&s.coalescing_reduction),
        "coalescing reduction {} (paper: 0.16)",
        s.coalescing_reduction
    );
}

/// §V-C / Fig. 6f: the monolithic bottom half raises GPU throughput by
/// around 2× for the microbenchmark while *increasing* CPU overhead
/// (paper: +35% overhead for ubench).
#[test]
fn monolithic_trade_off() {
    let c = cfg();
    let mono = Mitigation {
        monolithic_bottom_half: true,
        ..Mitigation::DEFAULT
    };
    let base = ExperimentBuilder::new(c)
        .cpu_app("fluidanimate")
        .gpu_app_pinned("ubench")
        .run();
    let def = ExperimentBuilder::new(c)
        .cpu_app("fluidanimate")
        .gpu_app("ubench")
        .run();
    let m = ExperimentBuilder::new(c)
        .cpu_app("fluidanimate")
        .gpu_app("ubench")
        .mitigation(mono)
        .run();
    let gpu_gain = m.ssr_rate / def.ssr_rate;
    assert!(
        gpu_gain > 1.5,
        "monolithic ubench gain {gpu_gain} (paper: >2x)"
    );
    let cpu_def = def.cpu_perf_vs(&base).unwrap();
    let cpu_mono = m.cpu_perf_vs(&base).unwrap();
    assert!(
        cpu_mono < cpu_def,
        "monolithic should cost CPU performance: {cpu_mono} vs {cpu_def}"
    );
}

/// §V-B / Fig. 6d: coalescing raises ubench throughput (more requests per
/// interrupt before the stall) while helping or at least not hurting the
/// CPU.
#[test]
fn coalescing_trade_off() {
    let c = cfg();
    let coal = Mitigation {
        coalesce: true,
        ..Mitigation::DEFAULT
    };
    let def = ExperimentBuilder::new(c)
        .cpu_app("x264")
        .gpu_app("ubench")
        .run();
    let m = ExperimentBuilder::new(c)
        .cpu_app("x264")
        .gpu_app("ubench")
        .mitigation(coal)
        .run();
    assert!(
        m.ssr_rate > def.ssr_rate * 1.1,
        "coalescing ubench rate {} vs {}",
        m.ssr_rate,
        def.ssr_rate
    );
    assert!(
        m.kernel.mean_batch > 1.3,
        "batching {}",
        m.kernel.mean_batch
    );
    let base = ExperimentBuilder::new(c)
        .cpu_app("x264")
        .gpu_app_pinned("ubench")
        .run();
    assert!(m.cpu_perf_vs(&base).unwrap() >= def.cpu_perf_vs(&base).unwrap() - 0.02);
}

/// §VI / Fig. 12: `th_1` caps the average CPU loss near the threshold
/// (paper: <4% from 28%) at the cost of collapsing accelerator
/// throughput (paper: to ~5% of unhindered).
#[test]
fn qos_threshold_sweep() {
    let rows = figures::fig12(&run_subset(
        FIG12_PACK,
        &["x264", "fluidanimate", "swaptions"],
        &["ubench"],
    ));
    let avg = |t: &str, f: fn(&figures::Fig12Row) -> f64| {
        let v: Vec<f64> = rows.iter().filter(|r| r.throttle == t).map(f).collect();
        hiss_sim_mean(&v)
    };
    let cpu_def = avg("default", |r| r.cpu_perf);
    let cpu_th1 = avg("th_1", |r| r.cpu_perf);
    let gpu_def = avg("default", |r| r.gpu_perf);
    let gpu_th1 = avg("th_1", |r| r.gpu_perf);
    assert!(
        cpu_th1 > 0.90,
        "th_1 should cap CPU loss near 1-4% plus pollution residue: {cpu_th1}"
    );
    assert!(cpu_th1 > cpu_def + 0.05, "QoS must recover CPU perf");
    assert!(
        gpu_th1 < 0.25,
        "th_1 should collapse ubench throughput (paper: ~5%): {gpu_th1}"
    );
    assert!(gpu_th1 < gpu_def * 0.35);
    // The measured SSR overhead respects the configured ceiling loosely
    // ("the CPU performance loss can be slightly more than x% because our
    // driver enforces the limit periodically").
    for r in rows.iter().filter(|r| r.throttle == "th_1") {
        assert!(
            r.ssr_overhead < 0.05,
            "{}: overhead {} far above th_1",
            r.cpu_app,
            r.ssr_overhead
        );
    }
}

fn hiss_sim_mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// §V-A observations: steering pins every interrupt to one core; with
/// GPU-only runs it lets the other cores sleep (Fig. 9: 12% → ~50%).
#[test]
fn steering_recovers_sleep() {
    let c = cfg();
    let steer = Mitigation {
        steer_single_core: true,
        ..Mitigation::DEFAULT
    };
    let def = ExperimentBuilder::new(c).gpu_app("ubench").run();
    let s = ExperimentBuilder::new(c)
        .gpu_app("ubench")
        .mitigation(steer)
        .run();
    assert!(
        s.cc6_residency > def.cc6_residency + 0.15,
        "steering should recover sleep: {} vs {}",
        s.cc6_residency,
        def.cc6_residency
    );
    assert_eq!(s.kernel.interrupts_per_core[1..].iter().sum::<u64>(), 0);
}
