//! The batch compiler: lowers a validated [`Scenario`] into pure
//! simulation jobs on the [`hiss::runner`] pool.
//!
//! A scenario expands into a cartesian grid of **cells**:
//!
//! ```text
//! sweep axis 1 × … × sweep axis N × GPU app × CPU app × replica
//! ```
//!
//! with the first sweep axis as the outermost loop and replicas
//! innermost. With no sweeps and one replica this is the paper's
//! GPU-major `gpu × cpu` grid; a cell's result is a pure function of its
//! knobs, so rows are bit-identical whatever the worker count. The
//! paper's grid figures are folds over these rows ([`crate::figures`]).
//!
//! A batch runs on the [`RunCtx`] its caller passes: every cell resolves
//! its normalisation baselines through the context's [`BaselineCache`]
//! (an [`IDLE_CPU`] cell has no CPU baseline), and cells whose knobs are
//! the paper's default configuration take their own run from the cache
//! too, sharing it with every other cell and batch on that context: a
//! co-run is the `corun_default` entry, a `pinned` co-run the
//! `cpu_baseline` entry and an idle-CPU run the `gpu_idle_baseline`
//! entry. [`simulate`] is a cell's own run without baselines, which is
//! all the service needs.

use hiss::{
    BaselineCache, CoreId, DeviceKind, DeviceSpec, DmaParams, ExperimentBuilder, GpuAppSpec,
    Mitigation, NicParams, QosParams, RunCtx, RunReport,
};
use hiss_obs::MetricsRegistry;

use crate::spec::{Knobs, Scenario, Topology, IDLE_CPU};

/// One fully resolved simulation job of a scenario batch.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// CPU (PARSEC) application, or [`IDLE_CPU`] for none.
    pub cpu_app: String,
    /// GPU application.
    pub gpu_app: String,
    /// Sweep-axis coordinates, `(field key, rendered value)`, in axis
    /// order. Empty when the scenario has no `[sweep]` section.
    pub axes: Vec<(String, String)>,
    /// Replica index (0-based; replica *i* runs with `seed + i`).
    pub replica: u32,
    /// The cell's resolved knobs.
    pub knobs: Knobs,
    /// Declarative device topology, when the scenario has `[topology]`.
    pub topology: Option<Topology>,
}

/// One result row: the cell's coordinates plus every metric an
/// `[expect]` band can constrain.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Row {
    /// CPU application.
    pub cpu_app: String,
    /// GPU application.
    pub gpu_app: String,
    /// Sweep-axis coordinates, as in [`Cell::axes`].
    pub axes: Vec<(String, String)>,
    /// Replica index.
    pub replica: u32,
    /// Normalised CPU application performance (Fig. 3a semantics:
    /// against the same pairing with no SSRs). `None` on an
    /// [`IDLE_CPU`] cell, or if the CPU application did not finish
    /// within the simulation-time cap.
    pub cpu_perf: Option<f64>,
    /// Normalised GPU performance (Fig. 3b semantics: against the GPU on
    /// idle CPUs; SSR-rate ratio for `ubench`, work-throughput ratio
    /// otherwise).
    pub gpu_perf: f64,
    /// CPU application runtime in nanoseconds, if it finished.
    pub cpu_runtime_ns: Option<u64>,
    /// Absolute GPU throughput (1.0 = a GPU that never stalls).
    pub gpu_throughput: f64,
    /// SSR completions per second.
    pub ssr_rate: f64,
    /// SSRs fully serviced.
    pub ssrs_serviced: u64,
    /// Mean end-to-end SSR latency, µs.
    pub mean_ssr_latency_us: f64,
    /// p99 end-to-end SSR latency, µs.
    pub p99_ssr_latency_us: f64,
    /// Mean CC6 residency across cores.
    pub cc6_residency: f64,
    /// Fraction of aggregate CPU time spent on SSR servicing.
    pub ssr_overhead: f64,
    /// Inter-processor interrupts sent.
    pub ipis: u64,
    /// QoS deferral episodes.
    pub qos_deferrals: u64,
    /// SSRs raised by non-GPU devices (NIC, DMA); 0 for all-GPU cells.
    pub aux_ssrs_raised: u64,
    /// p99 end-to-end latency of critical-class SSRs, µs; 0 on cells
    /// without a criticality partition.
    pub critical_p99_latency_us: f64,
    /// Events pushed onto the simulation calendar.
    pub events_pushed: u64,
    /// Events popped from the calendar (`<= events_pushed` always).
    pub events_popped: u64,
}

/// Expands a scenario into its cell grid for the given mode.
///
/// Quick mode swaps in the `[workload]` quick subsets; sweep axes and
/// replicas are preserved (scenario authors control quick cost through
/// `quick_cpu`/`quick_gpu`).
pub fn expand(sc: &Scenario, quick: bool) -> Vec<Cell> {
    let cpu_apps = sc.cpu_apps(quick);
    let gpu_apps = sc.gpu_apps(quick);
    let mut cells = Vec::new();
    let mut coords = vec![0usize; sc.sweeps.len()];
    loop {
        // Resolve the current sweep point.
        let mut knobs = sc.base;
        let mut axes = Vec::with_capacity(sc.sweeps.len());
        for (axis, &i) in sc.sweeps.iter().zip(&coords) {
            let value = &axis.values[i];
            axis.field
                .apply(&mut knobs, value, axis.line)
                .expect("sweep values were validated at parse time");
            axes.push((axis.field.key.to_string(), value.render()));
        }
        for gpu_app in gpu_apps {
            for cpu_app in cpu_apps {
                for replica in 0..sc.replicas {
                    let mut k = knobs;
                    k.cfg.seed = k.cfg.seed.wrapping_add(replica as u64);
                    // `[criticality]` lowers per cell: only cells whose
                    // CPU application holds the critical class run the
                    // partitioning machinery; the rest of the grid is
                    // the unprotected control group.
                    if !sc.critical_apps.iter().any(|a| a == cpu_app) {
                        k.criticality = None;
                    }
                    cells.push(Cell {
                        cpu_app: cpu_app.clone(),
                        gpu_app: gpu_app.clone(),
                        axes: axes.clone(),
                        replica,
                        knobs: k,
                        topology: sc.topology.clone(),
                    });
                }
            }
        }
        // Odometer over sweep axes, last axis fastest.
        let mut dim = sc.sweeps.len();
        loop {
            if dim == 0 {
                return cells;
            }
            dim -= 1;
            coords[dim] += 1;
            if coords[dim] < sc.sweeps[dim].values.len() {
                break;
            }
            coords[dim] = 0;
        }
    }
}

/// `run_cell_report_in` against the process-wide cache
/// ([`BaselineCache`]'s `global()`). Kept only for the `hissbench`
/// harness, which calls it with this signature; it goes when that
/// harness moves to [`RunCtx`].
pub fn run_cell_report(cell: &Cell) -> (Row, std::sync::Arc<RunReport>) {
    run_cell_report_in(cell, BaselineCache::global())
}

/// A batch cell: its own run plus its baselines, memoized in `cache`.
/// A cell with default settings takes its run from the cache: a co-run
/// is the `corun_default` entry, a pinned co-run the `cpu_baseline`
/// entry, an idle-CPU run the `gpu_idle_baseline` entry. The rest
/// [`simulate`].
fn run_cell_report_in(cell: &Cell, cache: &BaselineCache) -> (Row, std::sync::Arc<RunReport>) {
    let cfg = &cell.knobs.cfg;
    let idle = cell.cpu_app == IDLE_CPU;
    let base = (!idle).then(|| cache.cpu_baseline(cfg, &cell.cpu_app, &cell.gpu_app));
    let gpu_base = cache.gpu_idle_baseline(cfg, &cell.gpu_app);
    // Topology cells never take their own run from the cache: its key
    // is only (config, cpu_app, gpu_app), which cannot distinguish
    // device lists.
    let is_default = cell.knobs.mitigation == Mitigation::DEFAULT
        && cell.knobs.qos_percent == 0.0
        && cell.knobs.gpus == 1
        && cell.knobs.criticality.is_none()
        && cell.topology.is_none();
    let run = match (&base, cell.knobs.pinned) {
        (Some(_), false) if is_default => cache.corun_default(cfg, &cell.cpu_app, &cell.gpu_app),
        (Some(base), true) if is_default => std::sync::Arc::clone(base),
        (None, false) if is_default => std::sync::Arc::clone(&gpu_base),
        _ => std::sync::Arc::new(simulate(cell)),
    };
    let row = row_from_report(cell, &run, base.as_deref(), &gpu_base);
    (row, run)
}

/// The cell's own simulation, no baselines: its knobs and `[topology]`
/// lowered onto an [`ExperimentBuilder`]. The serving layer
/// (`hiss-serve`) runs exactly this on a store miss; for a cell with
/// default settings it is the same run as the memo entry the batch path
/// takes.
pub fn simulate(cell: &Cell) -> RunReport {
    let mut b = ExperimentBuilder::new(cell.knobs.cfg);
    if cell.cpu_app != IDLE_CPU {
        b = b.cpu_app(&cell.cpu_app);
    }
    b = b.mitigation(cell.knobs.mitigation);
    let gpu = || {
        let spec = GpuAppSpec::by_name(&cell.gpu_app)
            .expect("workload names were validated at parse time");
        if cell.knobs.pinned {
            spec.pinned()
        } else {
            spec
        }
    };
    if let Some(top) = &cell.topology {
        for (kind, steer) in top.devices.iter().zip(&top.steer) {
            let spec = match kind {
                DeviceKind::Gpu => DeviceSpec::Gpu(gpu()),
                DeviceKind::Nic => DeviceSpec::Nic(NicParams::default()),
                DeviceKind::Dma => DeviceSpec::Dma(DmaParams::default()),
            };
            b = b.device_steered(spec, steer.map(CoreId));
        }
    } else {
        for _ in 0..cell.knobs.gpus {
            b = b.gpu_spec(gpu());
        }
    }
    if cell.knobs.qos_percent > 0.0 {
        b = b.qos(QosParams::threshold_percent(cell.knobs.qos_percent));
    }
    if let Some(c) = cell.knobs.criticality {
        b = b.criticality(c);
    }
    b.run()
}

/// The cell's metrics snapshot: the run's registry [`Cell::labelled`].
pub fn cell_metrics(cell: &Cell, run: &RunReport) -> MetricsRegistry {
    cell.labelled(run.metrics.clone())
}

impl Cell {
    /// `metrics` (a bare run registry) plus `cell.*` labels (application
    /// names, replica, sweep coordinates), so a snapshot file is
    /// self-describing without the surrounding row. `hiss-serve` labels
    /// stored and fresh registries with it, which keeps a served
    /// snapshot byte-identical to the batch compiler's.
    pub fn labelled(&self, mut metrics: MetricsRegistry) -> MetricsRegistry {
        metrics.label("cell.cpu_app", &self.cpu_app);
        metrics.label("cell.gpu_app", &self.gpu_app);
        metrics.counter("cell.replica", self.replica as u64);
        if let Some(top) = &self.topology {
            metrics.label("cell.topology", top.render());
        }
        for (key, value) in &self.axes {
            metrics.label(format!("cell.axis.{key}"), value);
        }
        metrics
    }
}

/// `gpu_app`'s figure metric of `run` against `base`: ubench's is SSR
/// throughput, full applications use work throughput.
pub(crate) fn gpu_perf_vs(gpu_app: &str, run: &RunReport, base: &RunReport) -> f64 {
    if gpu_app == "ubench" {
        run.ssr_rate_vs(base)
    } else {
        run.gpu_perf_vs(base)
    }
}

fn row_from_report(
    cell: &Cell,
    run: &RunReport,
    base: Option<&RunReport>,
    gpu_base: &RunReport,
) -> Row {
    Row {
        cpu_app: cell.cpu_app.clone(),
        gpu_app: cell.gpu_app.clone(),
        axes: cell.axes.clone(),
        replica: cell.replica,
        cpu_perf: base.and_then(|base| run.cpu_perf_vs(base)),
        gpu_perf: gpu_perf_vs(&cell.gpu_app, run, gpu_base),
        cpu_runtime_ns: run.cpu_app_runtime().map(|t| t.as_nanos()),
        gpu_throughput: run.gpu_throughput(),
        ssr_rate: run.ssr_rate(),
        ssrs_serviced: run.ssrs_serviced(),
        mean_ssr_latency_us: run.mean_ssr_latency().as_micros_f64(),
        p99_ssr_latency_us: run.p99_ssr_latency().as_micros_f64(),
        cc6_residency: run.cc6_residency(),
        ssr_overhead: run.cpu_ssr_overhead(),
        ipis: run.ipis(),
        qos_deferrals: run.qos_deferrals(),
        aux_ssrs_raised: run
            .metrics
            .counter_value("run.aux_ssrs_raised")
            .unwrap_or(0),
        critical_p99_latency_us: run
            .metrics
            .gauge_value("qos.class0.p99_latency_us")
            .unwrap_or(0.0),
        events_pushed: run.metrics.counter_value("run.events_pushed").unwrap_or(0),
        events_popped: run.metrics.counter_value("run.events_popped").unwrap_or(0),
    }
}

/// One cell's row and metrics snapshot (the run's
/// [`hiss::RunReport::metrics`] registry plus `cell.*` identity labels).
fn run_cell(ctx: &RunCtx, cell: &Cell) -> (Row, MetricsRegistry) {
    let (row, report) = run_cell_report_in(cell, ctx.cache());
    (row, cell_metrics(cell, &report))
}

/// Expands and executes a scenario on `ctx`'s pool, returning each
/// cell's row and metrics snapshot in grid order. Both are built purely
/// from deterministic simulation state, so they are bit-identical
/// whatever the worker count and whatever the cache holds.
pub fn run_with_metrics(ctx: &RunCtx, sc: &Scenario, quick: bool) -> Vec<(Row, MetricsRegistry)> {
    let cells = expand(sc, quick);
    ctx.run_jobs(cells.len(), |i| run_cell(ctx, &cells[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Scenario;

    #[test]
    fn grid_is_gpu_major_with_sweeps_outermost() {
        let sc = Scenario::from_str(
            r#"
[scenario]
name = "t"
[workload]
cpu = ["x264", "vips"]
gpu = ["bfs", "sssp"]
[run]
replicas = 2
[sweep]
gpus = [1, 2]
"#,
        )
        .unwrap();
        let cells = expand(&sc, false);
        assert_eq!(cells.len(), 2 * 2 * 2 * 2);
        // First block: gpus=1, gpu-major, replicas innermost.
        assert_eq!(cells[0].axes, vec![("gpus".to_string(), "1".to_string())]);
        assert_eq!(
            (
                cells[0].cpu_app.as_str(),
                cells[0].gpu_app.as_str(),
                cells[0].replica
            ),
            ("x264", "bfs", 0)
        );
        assert_eq!(cells[1].replica, 1);
        assert_eq!(cells[2].cpu_app, "vips");
        assert_eq!(cells[4].gpu_app, "sssp");
        // Second sweep block.
        assert_eq!(cells[8].axes, vec![("gpus".to_string(), "2".to_string())]);
        assert_eq!(cells[8].knobs.gpus, 2);
        // Replica 1 bumps the seed.
        assert_eq!(cells[1].knobs.cfg.seed, cells[0].knobs.cfg.seed + 1);
    }

    #[test]
    fn quick_mode_uses_quick_subsets() {
        let sc = Scenario::from_str(
            r#"
[scenario]
name = "t"
[workload]
cpu = ["x264", "vips", "ferret"]
gpu = ["bfs", "sssp", "ubench"]
quick_cpu = ["x264"]
quick_gpu = ["ubench"]
"#,
        )
        .unwrap();
        assert_eq!(expand(&sc, false).len(), 9);
        let quick = expand(&sc, true);
        assert_eq!(quick.len(), 1);
        assert_eq!(quick[0].cpu_app, "x264");
        assert_eq!(quick[0].gpu_app, "ubench");
    }

    #[test]
    fn cc6_axis_round_trips() {
        let sc = Scenario::from_str(
            r#"
[scenario]
name = "t"
[workload]
cpu = ["x264"]
gpu = ["ubench"]
[sweep]
cc6 = [true, false]
"#,
        )
        .unwrap();
        let cells = expand(&sc, false);
        assert_eq!(cells.len(), 2);
        assert!(cells[0].knobs.cfg.cpu.cstate.entry_threshold < hiss::Ns::MAX);
        assert_eq!(cells[1].knobs.cfg.cpu.cstate.entry_threshold, hiss::Ns::MAX);
    }

    #[test]
    fn metrics_snapshots_carry_cell_identity_and_mirror_rows() {
        let sc = Scenario::from_str(
            r#"
[scenario]
name = "t"
[workload]
cpu = ["x264"]
gpu = ["ubench"]
[sweep]
qos_percent = [0, 1]
"#,
        )
        .unwrap();
        let ctx = RunCtx::new(2);
        let pairs = run_with_metrics(&ctx, &sc, false);
        assert_eq!(pairs.len(), 2);
        for (row, m) in &pairs {
            assert_eq!(m.label_value("cell.cpu_app"), Some("x264"));
            assert_eq!(m.label_value("cell.gpu_app"), Some("ubench"));
            assert_eq!(m.counter_value("cell.replica"), Some(0));
            assert_eq!(
                m.label_value("cell.axis.qos_percent"),
                Some(row.axes[0].1.as_str())
            );
            assert_eq!(m.counter_value("kernel.ipis"), Some(row.ipis));
            assert_eq!(
                m.counter_value("kernel.ssrs_serviced"),
                Some(row.ssrs_serviced)
            );
            assert_eq!(m.gauge_value("run.cc6_residency"), Some(row.cc6_residency));
        }
        // A warm re-run on the same context agrees row-for-row.
        assert_eq!(run_with_metrics(&ctx, &sc, false), pairs);
    }

    /// Cells with default settings take their run from the cache's
    /// memos instead of simulating: a co-run is the `corun_default`
    /// entry, a pinned co-run the `cpu_baseline` entry, an idle-CPU run
    /// the `gpu_idle_baseline` entry. Each is the run [`simulate`]
    /// makes for the cell.
    #[test]
    fn default_cells_reuse_the_baseline_memos() {
        let sc = Scenario::from_str(
            r#"
[scenario]
name = "t"
[workload]
cpu = ["x264", "idle"]
gpu = ["ubench"]
[sweep]
pinned = [false, true]
"#,
        )
        .unwrap();
        let cells = expand(&sc, false);
        let cache = BaselineCache::default();
        let runs: Vec<_> = cells
            .iter()
            .map(|c| run_cell_report_in(c, &cache))
            .collect();
        // Seven lookups over three keys: x264's co-run and CPU baseline
        // and ubench's idle-CPU run. Only the pinned idle cell simulates.
        assert_eq!((cache.miss_count(), cache.hit_count()), (3, 4));
        let cfg = &cells[0].knobs.cfg;
        let memo = [
            cache.corun_default(cfg, "x264", "ubench"),
            cache.gpu_idle_baseline(cfg, "ubench"),
            cache.cpu_baseline(cfg, "x264", "ubench"),
        ];
        for (i, memo) in memo.iter().enumerate() {
            assert!(std::sync::Arc::ptr_eq(&runs[i].1, memo), "cell {i}");
        }
        for (cell, (_, run)) in cells.iter().zip(&runs) {
            assert_eq!(simulate(cell).metrics.to_json(), run.metrics.to_json());
        }
        let rows: Vec<&Row> = runs.iter().map(|(row, _)| row).collect();
        assert_eq!(rows[2].cpu_perf, Some(1.0));
        for idle in [rows[1], rows[3]] {
            assert_eq!((idle.cpu_perf, idle.cpu_runtime_ns), (None, None));
        }
        assert_eq!(rows[1].gpu_perf, 1.0);
        assert_eq!(rows[3].ssrs_serviced, 0);
    }

    /// The acceptance gate for the device generalisation: a `[topology]`
    /// of N `gpu` devices is the same simulation as the hardwired
    /// `gpus = N` knob — every row bit-identical, through both the
    /// builder path (N = 2) and the co-run-cache default path (N = 1).
    #[test]
    fn all_gpu_topology_is_bit_identical_to_the_hardwired_gpus_knob() {
        let base = r#"
[scenario]
name = "t"
[workload]
cpu = ["x264"]
gpu = ["ubench", "sssp"]
"#;
        for (knob, topo) in [
            (
                "[system]\ngpus = 2\n",
                "[topology]\ndevices = [\"gpu\", \"gpu\"]\n",
            ),
            ("", "[topology]\ndevices = [\"gpu\"]\n"),
        ] {
            let hardwired = Scenario::from_str(&format!("{base}{knob}")).unwrap();
            let declared = Scenario::from_str(&format!("{base}{topo}")).unwrap();
            let ctx = RunCtx::new(2);
            let json = |sc| -> Vec<String> {
                run_with_metrics(&ctx, sc, false)
                    .iter()
                    .map(|(row, _)| crate::output::row_json(row))
                    .collect()
            };
            let (a_json, b_json) = (json(&hardwired), json(&declared));
            assert_eq!(a_json, b_json, "topology {topo:?} diverged from {knob:?}");
        }
    }

    #[test]
    fn topology_cells_carry_their_identity_and_aux_ssrs() {
        let sc = Scenario::from_str(
            r#"
[scenario]
name = "t"
[workload]
cpu = ["x264"]
gpu = ["ubench"]
[topology]
devices = ["gpu", "nic", "dma"]
steer = [-1, 3, -1]
"#,
        )
        .unwrap();
        let pairs = run_with_metrics(&RunCtx::new(2), &sc, false);
        assert_eq!(pairs.len(), 1);
        let (row, m) = &pairs[0];
        assert_eq!(m.label_value("cell.topology"), Some("gpu@-,nic@3,dma@-"));
        assert_eq!(m.counter_value("run.devices"), Some(3));
        assert!(row.aux_ssrs_raised > 0, "NIC+DMA must raise SSRs");
        assert_eq!(
            m.counter_value("run.aux_ssrs_raised"),
            Some(row.aux_ssrs_raised)
        );
    }

    /// `[criticality]` lowers per CPU application: only critical-listed
    /// apps keep the partition config, and those cells publish per-class
    /// metrics (the `cell.*` snapshot carries them) while the control
    /// cells stay class-free.
    #[test]
    fn criticality_lowers_onto_critical_cells_only() {
        let sc = Scenario::from_str(
            r#"
[scenario]
name = "t"
[workload]
cpu = ["raytrace", "x264"]
gpu = ["ubench"]
[criticality]
critical = ["raytrace"]
critical_devices = [0]
"#,
        )
        .unwrap();
        let cells = expand(&sc, false);
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].cpu_app, "raytrace");
        let c = cells[0].knobs.criticality.expect("critical cell keeps it");
        assert_eq!(c.critical_device_mask, 0b1);
        assert!(cells[1].knobs.criticality.is_none(), "x264 is the control");

        let pairs = run_with_metrics(&RunCtx::new(2), &sc, false);
        let (crit_row, crit_m) = &pairs[0];
        assert_eq!(crit_m.counter_value("qos.classes"), Some(2));
        assert_eq!(
            crit_m.gauge_value("qos.class0.p99_latency_us"),
            Some(crit_row.critical_p99_latency_us)
        );
        assert!(crit_row.critical_p99_latency_us > 0.0);
        let (ctrl_row, ctrl_m) = &pairs[1];
        assert_eq!(ctrl_m.counter_value("qos.classes"), None);
        assert_eq!(ctrl_row.critical_p99_latency_us, 0.0);
    }
}
