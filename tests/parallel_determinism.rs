//! The parallel experiment engine must be invisible in the output:
//! figure grids computed on the job pool are required to be bit-for-bit
//! identical to the serial path, whatever the worker count and whatever
//! the cache state. These tests pin that contract for a representative
//! row-grid (the `fig3` pack) and a reduced grid (the mitigation grid's
//! Fig. 7 fold), on contexts of 1 and 8 workers.

use hiss::{
    CoreId, CriticalityConfig, DeviceSpec, DmaParams, ExperimentBuilder, NicParams, RunCtx,
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
    let pareto = |ctx: &RunCtx| figures::fig7(&run_with_metrics(ctx, &grid, true));

    let serial = RunCtx::new(1);
    let fig3_serial = run_with_metrics(&serial, &fig3, true);
    let pareto_serial = pareto(&serial);

    // The calendar's own accounting must be as thread-invariant as the
    // simulation results: per-run events pushed/popped/peak are part of
    // the bench gate, so the runner must not perturb them either.
    let counters = |ctx: &RunCtx| -> Vec<(u64, u64, u64)> {
        ctx.run_jobs(gpu.len(), |i| {
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
    let counters_serial = counters(&serial);

    // Mixed device topologies (GPU + NIC + DMA, one steered) must be as
    // thread-invariant as the all-GPU grids: the full metric snapshot —
    // `devN.*` rows included — is pinned byte-identical across worker
    // counts.
    let device_snapshots = |ctx: &RunCtx| -> Vec<String> {
        ctx.run_jobs(gpu.len(), |i| {
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
    let devices_serial = device_snapshots(&serial);

    // Mixed-criticality partitions publish per-class metric families
    // (`qos.classN.*`) and reroute interrupts off reserved cores; both
    // must be as thread-invariant as everything else, snapshot
    // byte-identical across worker counts.
    let crit_snapshots = |ctx: &RunCtx| -> Vec<String> {
        ctx.run_jobs(gpu.len(), |i| {
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
    let crit_serial = crit_snapshots(&serial);

    let parallel = RunCtx::new(8);
    let fig3_parallel = run_with_metrics(&parallel, &fig3, true);
    let pareto_parallel = pareto(&parallel);
    let counters_parallel = counters(&parallel);
    let devices_parallel = device_snapshots(&parallel);
    let crit_parallel = crit_snapshots(&parallel);

    // And once more against the same, now *warm* cache: memoized
    // baselines must not change any value either.
    let fig3_warm = run_with_metrics(&parallel, &fig3, true);

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
            r.elapsed(),
            r.cpu_app_runtime(),
            r.ssrs_serviced(),
            r.ipis(),
        )
    };
    let serial = RunCtx::new(1).run_jobs(cells.len(), job);
    for threads in [2, 4, 8] {
        let parallel = RunCtx::new(threads).run_jobs(cells.len(), job);
        assert_eq!(serial, parallel, "threads={threads}");
    }
}
