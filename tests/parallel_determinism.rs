//! The parallel experiment engine must be invisible in the output:
//! figure grids computed on the job pool are required to be bit-for-bit
//! identical to the serial path, whatever the worker count and whatever
//! the cache state. These tests pin that contract for a representative
//! row-grid (the `fig3` pack) and a reduced grid (the mitigation grid's
//! Fig. 7 fold), including the `HISS_THREADS` override the runner sizes
//! itself from.

use hiss::experiments::BaselineCache;
use hiss::{
    run_jobs_on, CoreId, CriticalityConfig, DeviceSpec, DmaParams, ExperimentBuilder, NicParams,
    SystemConfig,
};
use hiss_obs::MetricsRegistry;
use hiss_scenario::figures::{self, ParetoPoint, FIG3_PACK, MITIGATION_GRID_PACK};
use hiss_scenario::{run_with_metrics, Row};

/// Exact (bit-level) fingerprint of a Fig. 3 grid.
fn fig3_bits(rows: &[(Row, MetricsRegistry)]) -> Vec<(String, String, u64, u64)> {
    rows.iter()
        .map(|(r, _)| {
            (
                r.cpu_app.clone(),
                r.gpu_app.clone(),
                r.cpu_perf.expect("fig3 cells finish").to_bits(),
                r.gpu_perf.to_bits(),
            )
        })
        .collect()
}

/// Exact (bit-level) fingerprint of a Pareto chart.
fn pareto_bits(points: &[ParetoPoint]) -> Vec<(String, u64, u64)> {
    points
        .iter()
        .map(|p| {
            (
                p.mitigation.label(),
                p.cpu_geomean.to_bits(),
                p.gpu_geomean.to_bits(),
            )
        })
        .collect()
}

/// One test owns the `HISS_THREADS` variable end to end: tests within a
/// binary run on concurrent threads, so the env mutation must not be
/// split across several `#[test]` functions.
#[test]
fn hiss_threads_1_and_8_produce_identical_grids() {
    let cfg = SystemConfig::a10_7850k();
    let fig3 = figures::pack(FIG3_PACK);
    let gpu: Vec<&str> = fig3.gpu_apps(true).iter().map(String::as_str).collect();
    // The quick CPU subset against ubench, default vs coalescing only.
    let mut grid = figures::pack(MITIGATION_GRID_PACK);
    grid.workload.quick_gpu = vec!["ubench".to_string()];
    grid.sweeps[0]
        .values
        .retain(|v| ["default", "coalesce"].contains(&v.render().as_str()));
    let pareto = || figures::fig7(&run_with_metrics(&grid, true));

    std::env::set_var("HISS_THREADS", "1");
    BaselineCache::global().clear();
    let fig3_serial = run_with_metrics(&fig3, true);
    let pareto_serial = pareto();

    // The calendar's own accounting must be as thread-invariant as the
    // simulation results: per-run events pushed/popped/peak are part of
    // the bench gate, so the runner must not perturb them either.
    let counters = |threads: &str| -> Vec<(u64, u64, u64)> {
        std::env::set_var("HISS_THREADS", threads);
        let n: usize = threads.parse().expect("numeric HISS_THREADS");
        run_jobs_on(n, gpu.len(), |i| {
            let r = ExperimentBuilder::new(cfg)
                .cpu_app("x264")
                .gpu_app(gpu[i])
                .run();
            (
                r.metrics.counter_value("run.events_pushed").unwrap(),
                r.metrics.counter_value("run.events_popped").unwrap(),
                r.metrics.counter_value("run.events_peak").unwrap(),
            )
        })
    };
    let counters_serial = counters("1");

    // Mixed device topologies (GPU + NIC + DMA, one steered) must be as
    // thread-invariant as the all-GPU grids: the full metric snapshot —
    // `devN.*` rows included — is pinned byte-identical across worker
    // counts.
    let device_snapshots = |threads: &str| -> Vec<String> {
        std::env::set_var("HISS_THREADS", threads);
        let n: usize = threads.parse().expect("numeric HISS_THREADS");
        run_jobs_on(n, gpu.len(), |i| {
            ExperimentBuilder::new(cfg)
                .cpu_app("x264")
                .gpu_app(gpu[i])
                .device(DeviceSpec::Nic(NicParams::default()))
                .device_steered(DeviceSpec::Dma(DmaParams::default()), Some(CoreId(2)))
                .run()
                .metrics
                .to_json()
        })
    };
    let devices_serial = device_snapshots("1");

    // Mixed-criticality partitions publish per-class metric families
    // (`qos.classN.*`) and reroute interrupts off reserved cores; both
    // must be as thread-invariant as everything else, snapshot
    // byte-identical across worker counts.
    let crit_snapshots = |threads: &str| -> Vec<String> {
        std::env::set_var("HISS_THREADS", threads);
        let n: usize = threads.parse().expect("numeric HISS_THREADS");
        run_jobs_on(n, gpu.len(), |i| {
            ExperimentBuilder::new(cfg)
                .cpu_app("x264")
                .gpu_app(gpu[i])
                .device(DeviceSpec::Nic(NicParams::default()))
                .criticality(CriticalityConfig {
                    critical_device_mask: 0b10,
                    ..CriticalityConfig::default()
                })
                .run()
                .metrics
                .to_json()
        })
    };
    let crit_serial = crit_snapshots("1");

    std::env::set_var("HISS_THREADS", "8");
    BaselineCache::global().clear();
    let fig3_parallel = run_with_metrics(&fig3, true);
    let pareto_parallel = pareto();
    let counters_parallel = counters("8");
    let devices_parallel = device_snapshots("8");
    let crit_parallel = crit_snapshots("8");

    // And once more against a *warm* cache: memoized baselines must not
    // change any value either.
    std::env::set_var("HISS_THREADS", "8");
    let fig3_warm = run_with_metrics(&fig3, true);
    std::env::remove_var("HISS_THREADS");

    assert_eq!(
        fig3_serial.len(),
        fig3.cpu_apps(true).len() * fig3.gpu_apps(true).len()
    );
    assert_eq!(fig3_bits(&fig3_serial), fig3_bits(&fig3_parallel));
    assert_eq!(fig3_bits(&fig3_serial), fig3_bits(&fig3_warm));
    assert_eq!(pareto_bits(&pareto_serial), pareto_bits(&pareto_parallel));
    assert_eq!(counters_serial, counters_parallel);
    assert_eq!(devices_serial, devices_parallel);
    assert_eq!(crit_serial, crit_parallel);
    for snap in &crit_serial {
        assert!(
            snap.contains("\"qos.classes\":2") && snap.contains("\"qos.class0.requests\""),
            "per-class rows missing from snapshot: {snap}"
        );
    }
    for snap in &devices_serial {
        assert!(
            snap.contains("\"dev1.kind\":\"nic\"") && snap.contains("\"dev2.kind\":\"dma\""),
            "device rows missing from snapshot: {snap}"
        );
    }
    for (pushed, popped, peak) in counters_serial {
        // Conservation: peak is a real high watermark, and the loop's
        // early exit is the only reason pops may trail pushes.
        assert!(peak >= 1 && peak <= pushed);
        assert!(popped <= pushed);
    }
}

/// The runner itself, driven with explicit worker counts over real
/// simulation jobs: scheduling must not leak into results or order.
#[test]
fn explicit_worker_counts_agree_on_simulation_results() {
    let cfg = SystemConfig::a10_7850k();
    let cells: Vec<(&str, &str)> = ["x264", "raytrace"]
        .iter()
        .flat_map(|c| ["sssp", "ubench"].iter().map(move |g| (*c, *g)))
        .collect();
    let job = |i: usize| {
        let (cpu_app, gpu_app) = cells[i];
        let r = ExperimentBuilder::new(cfg)
            .cpu_app(cpu_app)
            .gpu_app(gpu_app)
            .run();
        (
            r.elapsed,
            r.cpu_app_runtime,
            r.kernel.ssrs_serviced,
            r.kernel.ipis,
        )
    };
    let serial = run_jobs_on(1, cells.len(), job);
    for threads in [2, 4, 8] {
        let parallel = run_jobs_on(threads, cells.len(), job);
        assert_eq!(serial, parallel, "threads={threads}");
    }
}
