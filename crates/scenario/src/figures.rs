//! The paper's figures as pure folds over scenario-pack rows.
//!
//! Every figure of `hiss-cli figures` except Tables I/II and the
//! extensions that need a search or a custom victim is a committed pack
//! run once through [`run_with_metrics`] plus a fold here over its
//! `(Row, MetricsRegistry)` pairs:
//!
//! | pack | folds | paper artifact |
//! |---|---|---|
//! | [`FIG3_PACK`] | [`fig3a`], [`fig3b`], [`fig3_summary`] | Fig. 3a/3b — CPU and GPU performance under SSR interference |
//! | [`FIG4_PACK`] | [`fig4`] | Fig. 4 — CC6 residency with and without SSRs |
//! | [`FIG3_PACK`] | [`fig5`] | Fig. 5a/5b — µarchitectural pollution from ubench SSRs |
//! | [`SECTION4C_PACK`], [`SECTION4C_NO_SSR_PACK`] | [`section4c`] | §IV-C — interrupt spread, IPI inflation, coalescing reduction |
//! | [`MITIGATION_GRID_PACK`] | [`fig6`] | Fig. 6 — each mitigation technique in isolation |
//! | [`MITIGATION_GRID_PACK`] | [`fig7`], [`fig8`] | Figs. 7/8 — mitigation-combination Pareto frontiers |
//! | [`FIG9_PACK`] (+ [`FIG4_PACK`]) | [`fig9`] | Fig. 9 — CC6 residency across mitigation combinations |
//! | [`FIG12_PACK`] | [`fig12`] | Fig. 12a/12b — QoS throttling (`th_25`/`th_5`/`th_1`) |
//! | [`SCALING_PACK`] | [`scaling`] | beyond the paper: CPU interference vs. number of GPUs |
//! | [`WINDOW_PACK`] | [`coalescing_window`] | beyond the paper: coalescing-window sweep |
//! | [`LIMIT_PACK`] | [`outstanding_limit`] | beyond the paper: QoS leverage vs. outstanding-SSR limit |
//!
//! Rows already carry the Fig. 3 normalisations; folds that need a
//! different denominator or a per-core counter wrap the runs' snapshots
//! with [`RunReport::from_metrics`] and call the report's accessors.
//!
//! [`run_with_metrics`]: crate::run_with_metrics

use hiss::experiments::render_table;
use hiss::{Mitigation, Ns, RunReport};
use hiss_obs::MetricsRegistry;

use crate::compile::{gpu_perf_vs, Row};
use crate::parse::Value;
use crate::spec::{Field, Knobs, Scenario};

/// `scenarios/fig3.hiss`: Figs. 3a, 3b and 5.
pub const FIG3_PACK: &str = include_str!("../../../scenarios/fig3.hiss");
/// `scenarios/mitigation_grid.hiss`: Figs. 6, 7 and 8.
pub const MITIGATION_GRID_PACK: &str = include_str!("../../../scenarios/mitigation_grid.hiss");
/// `scenarios/fig12.hiss`: Fig. 12.
pub const FIG12_PACK: &str = include_str!("../../../scenarios/fig12.hiss");
/// `scenarios/fig4.hiss`: Fig. 4, and Fig. 9's no-SSR bar.
pub const FIG4_PACK: &str = include_str!("../../../scenarios/fig4.hiss");
/// `scenarios/fig9.hiss`: Fig. 9's mitigation bars.
pub const FIG9_PACK: &str = include_str!("../../../scenarios/fig9.hiss");
/// `scenarios/section4c.hiss`: §IV-C's co-runs.
pub const SECTION4C_PACK: &str = include_str!("../../../scenarios/section4c.hiss");
/// `scenarios/section4c_no_ssr.hiss`: §IV-C's no-SSR pairing.
pub const SECTION4C_NO_SSR_PACK: &str = include_str!("../../../scenarios/section4c_no_ssr.hiss");
/// `scenarios/accelerator_scaling.hiss`: the multi-GPU scaling sweep.
pub const SCALING_PACK: &str = include_str!("../../../scenarios/accelerator_scaling.hiss");
/// `scenarios/coalescing_window.hiss`: the coalescing-window sweep.
pub const WINDOW_PACK: &str = include_str!("../../../scenarios/coalescing_window.hiss");
/// `scenarios/outstanding_limit.hiss`: the outstanding-SSR-limit sweep.
pub const LIMIT_PACK: &str = include_str!("../../../scenarios/outstanding_limit.hiss");

/// Parses one of the embedded packs above.
pub fn pack(text: &str) -> Scenario {
    text.parse().expect("committed figure packs parse")
}

/// Calibrated cold-miss conversion constant for Fig. 5 (see [`fig5`]).
const K_CACHE: f64 = 0.022;
/// Branch-predictor analogue of [`K_CACHE`].
const K_BRANCH: f64 = 0.024;

fn cpu_perf(row: &Row) -> f64 {
    row.cpu_perf
        .expect("figure cells finish the CPU application")
}

fn axis<'a>(row: &'a Row, key: &str) -> Option<&'a str> {
    row.axes
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

/// The row's `mitigation` sweep point ([`Mitigation::DEFAULT`] when the
/// pack has no such axis).
fn mitigation(row: &Row) -> Mitigation {
    let mut knobs = Knobs::default();
    if let Some(combo) = axis(row, "mitigation") {
        Field::by_key("mitigation")
            .expect("the combo knob is in the table")
            .apply(&mut knobs, &Value::Str(combo.to_string()), 0)
            .expect("sweep values were validated at parse time");
    }
    knobs.mitigation
}

fn report(metrics: &MetricsRegistry) -> RunReport {
    RunReport::from_metrics(metrics.clone())
}

/// Distinct values of `key(row)` in order of first appearance.
fn distinct<T: PartialEq>(rows: &[(Row, MetricsRegistry)], key: impl Fn(&Row) -> T) -> Vec<T> {
    let mut out = Vec::new();
    for (row, _) in rows {
        let k = key(row);
        if !out.contains(&k) {
            out.push(k);
        }
    }
    out
}

/// Renders a grid in the paper's layout: one row per CPU application,
/// one column per GPU application (sorted by name).
fn render_grid(rows: &[(Row, MetricsRegistry)], metric: impl Fn(&Row) -> f64) -> String {
    let cpu_apps = distinct(rows, |r| r.cpu_app.clone());
    let mut gpu_apps = distinct(rows, |r| r.gpu_app.clone());
    gpu_apps.sort();
    let mut header = vec!["CPU app"];
    header.extend(gpu_apps.iter().map(String::as_str));
    let data: Vec<Vec<String>> = cpu_apps
        .iter()
        .map(|cpu_app| {
            let mut line = vec![cpu_app.clone()];
            for gpu_app in &gpu_apps {
                let cell = rows
                    .iter()
                    .find(|(r, _)| &r.cpu_app == cpu_app && &r.gpu_app == gpu_app)
                    .map(|(r, _)| format!("{:.3}", metric(r)))
                    .unwrap_or_else(|| "-".into());
                line.push(cell);
            }
            line
        })
        .collect();
    render_table(&header, &data)
}

/// Fig. 3a: CPU application performance while the GPU application
/// creates SSRs, normalised to the same pair with no SSRs.
pub fn fig3a(rows: &[(Row, MetricsRegistry)]) -> String {
    render_grid(rows, cpu_perf)
}

/// Fig. 3b: GPU performance while the CPU application runs, normalised
/// to the GPU running with idle CPUs.
pub fn fig3b(rows: &[(Row, MetricsRegistry)]) -> String {
    render_grid(rows, |r| r.gpu_perf)
}

/// Summary statistics the paper quotes in §IV-A.
#[derive(Debug, Clone, Copy)]
pub struct Fig3Summary {
    /// Worst CPU degradation from a full GPU application (paper: −31%,
    /// fluidanimate with SSSP).
    pub worst_cpu_full_apps: f64,
    /// Mean CPU performance across the full-application grid (paper
    /// quotes a 12% average loss for the worst full app).
    pub mean_cpu_full_apps: f64,
    /// Worst CPU degradation under ubench (paper: −44%, x264).
    pub worst_cpu_ubench: f64,
    /// Mean CPU performance under ubench (paper: −28% average).
    pub mean_cpu_ubench: f64,
    /// Worst GPU degradation from CPU interference (paper: −18%, SSSP
    /// with streamcluster).
    pub worst_gpu: f64,
    /// Mean GPU performance across the grid (paper: −4% average).
    pub mean_gpu: f64,
}

/// Reduces Fig. 3 rows to the paper's headline numbers.
pub fn fig3_summary(rows: &[(Row, MetricsRegistry)]) -> Fig3Summary {
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let cpu_where = |ubench: bool| -> Vec<f64> {
        rows.iter()
            .filter(|(r, _)| (r.gpu_app == "ubench") == ubench)
            .map(|(r, _)| cpu_perf(r))
            .collect()
    };
    let cpu_full = cpu_where(false);
    let cpu_u = cpu_where(true);
    let gpu_all: Vec<f64> = rows.iter().map(|(r, _)| r.gpu_perf).collect();
    Fig3Summary {
        worst_cpu_full_apps: min(&cpu_full),
        mean_cpu_full_apps: hiss_sim::mean(&cpu_full),
        worst_cpu_ubench: min(&cpu_u),
        mean_cpu_ubench: hiss_sim::mean(&cpu_u),
        worst_gpu: min(&gpu_all),
        mean_gpu: hiss_sim::mean(&gpu_all),
    }
}

/// One cluster of Fig. 4.
#[derive(Debug, Clone)]
pub struct Fig4Row {
    /// GPU benchmark.
    pub gpu_app: String,
    /// CC6 residency with SSRs disabled (`no_SSR`).
    pub cc6_no_ssr: f64,
    /// CC6 residency with SSRs enabled (`gpu_SSR`).
    pub cc6_ssr: f64,
}

impl Fig4Row {
    /// Percentage points of residency lost to SSRs.
    pub fn lost_points(&self) -> f64 {
        (self.cc6_no_ssr - self.cc6_ssr) * 100.0
    }
}

/// The row of `gpu_app` whose `pinned` sweep point is `pin`.
fn find_pinned<'a>(rows: &'a [(Row, MetricsRegistry)], gpu_app: &str, pin: bool) -> &'a Row {
    rows.iter()
        .map(|(r, _)| r)
        .find(|r| r.gpu_app == gpu_app && (axis(r, "pinned") == Some("true")) == pin)
        .unwrap_or_else(|| panic!("the Fig. 4 pack runs {gpu_app} with pinned = {pin}"))
}

/// Fig. 4: per GPU application (in pack order), the CC6 residency of its
/// idle-CPU run with the pinned (no-SSR) and the demand-paging variant.
pub fn fig4(rows: &[(Row, MetricsRegistry)]) -> Vec<Fig4Row> {
    distinct(rows, |r| r.gpu_app.clone())
        .into_iter()
        .map(|gpu_app| Fig4Row {
            cc6_no_ssr: find_pinned(rows, &gpu_app, true).cc6_residency,
            cc6_ssr: find_pinned(rows, &gpu_app, false).cc6_residency,
            gpu_app,
        })
        .collect()
}

/// Renders Fig. 4 as text (percent residency, higher is better).
pub fn render_fig4(rows: &[Fig4Row]) -> String {
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.gpu_app.clone(),
                format!("{:.1}%", r.cc6_no_ssr * 100.0),
                format!("{:.1}%", r.cc6_ssr * 100.0),
                format!("{:.1}", r.lost_points()),
            ]
        })
        .collect();
    render_table(&["GPU app", "no_SSR", "gpu_SSR", "lost (pts)"], &data)
}

/// One bar pair of Fig. 5.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// CPU benchmark.
    pub cpu_app: String,
    /// Relative L1D miss-rate increase caused by ubench SSRs (Fig. 5a;
    /// 0.25 = “25 % more misses than the native run”).
    pub l1d_miss_increase: f64,
    /// Relative branch-misprediction increase (Fig. 5b).
    pub branch_miss_increase: f64,
}

/// Fig. 5 from the `ubench` rows of the Fig. 3 pack.
///
/// The paper measures, with hardware performance counters, how much the
/// microbenchmark's SSRs *increase* each CPU application's L1D miss
/// rate and branch misprediction rate. The simulator's equivalent
/// observable is time-averaged structure *coldness* (the statistical
/// dual of occupancy stolen by kernel handlers — see `hiss-mem`); the
/// mapping to a relative rate increase uses the same first-order model
/// that drives the IPC penalty:
///
/// ```text
/// extra_miss_rate   = coldness × cache_sensitivity × K
/// relative increase = extra_miss_rate / native_miss_rate
/// ```
///
/// with `K` the fraction of a fully-cold application's accesses that
/// miss again while re-warming (one constant for the whole suite).
pub fn fig5(rows: &[(Row, MetricsRegistry)]) -> Vec<Fig5Row> {
    rows.iter()
        .filter(|(r, _)| r.gpu_app == "ubench")
        .map(|(r, m)| {
            let spec = hiss_workloads::CpuAppSpec::by_name(&r.cpu_app)
                .expect("workload names were validated at parse time");
            let noisy = report(m);
            Fig5Row {
                cpu_app: r.cpu_app.clone(),
                l1d_miss_increase: noisy.avg_cache_coldness() * spec.cache_sensitivity * K_CACHE
                    / spec.base_l1d_miss_rate,
                branch_miss_increase: noisy.avg_branch_coldness()
                    * spec.branch_sensitivity
                    * K_BRANCH
                    / spec.base_branch_miss_rate,
            }
        })
        .collect()
}

/// Renders both Fig. 5 panels as one table.
pub fn render_fig5(rows: &[Fig5Row]) -> String {
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.cpu_app.clone(),
                format!("{:.1}%", r.l1d_miss_increase * 100.0),
                format!("{:.1}%", r.branch_miss_increase * 100.0),
            ]
        })
        .collect();
    render_table(
        &["CPU app", "L1D miss increase", "branch mispredict increase"],
        &data,
    )
}

/// The §IV-C measurements.
#[derive(Debug, Clone)]
pub struct Section4c {
    /// Per-core SSR interrupt counts of the default ubench co-run.
    pub interrupts_per_core: Vec<u64>,
    /// max/min per-core interrupt ratio (≈1.0 = evenly spread).
    pub interrupt_imbalance: f64,
    /// IPIs with ubench generating SSRs.
    pub ipis_with_ssrs: u64,
    /// IPIs with ubench running but generating no SSRs.
    pub ipis_without_ssrs: u64,
    /// Interrupt-count reduction from coalescing, averaged over the GPU
    /// suite (0.16 = 16 % fewer interrupts).
    pub coalescing_reduction: f64,
}

impl Section4c {
    /// The paper's 477× headline: IPI inflation factor (infinite when
    /// the no-SSR run had zero IPIs — the model's baseline has none at
    /// all, which the paper's near-three-orders-of-magnitude ratio
    /// reflects).
    pub fn ipi_inflation(&self) -> f64 {
        if self.ipis_without_ssrs == 0 {
            f64::INFINITY
        } else {
            self.ipis_with_ssrs as f64 / self.ipis_without_ssrs as f64
        }
    }
}

/// Interrupts per serviced SSR of a run (1.0 = no batching).
fn interrupts_per_ssr(run: &RunReport) -> f64 {
    let interrupts: u64 = run.interrupts_per_core().iter().sum();
    interrupts as f64 / run.ssrs_serviced().max(1) as f64
}

/// §IV-C from the rows of [`SECTION4C_PACK`] (one CPU application
/// against the GPU suite, `mitigation` swept over `default` and
/// `coalesce`) and of [`SECTION4C_NO_SSR_PACK`] (the same CPU
/// application against the pinned ubench). The spread and the IPIs with
/// SSRs come from the default `ubench` co-run; the coalescing reduction
/// is the mean over the suite of the cut in interrupts per serviced SSR.
pub fn section4c(rows: &[(Row, MetricsRegistry)], no_ssr: &[(Row, MetricsRegistry)]) -> Section4c {
    let run_of = |gpu_app: &str, combo: Mitigation| {
        rows.iter()
            .find(|(r, _)| r.gpu_app == gpu_app && mitigation(r) == combo)
            .map(|(_, m)| report(m))
            .unwrap_or_else(|| panic!("the §IV-C pack runs {gpu_app} under {combo:?}"))
    };
    let coalesce = Mitigation {
        coalesce: true,
        ..Mitigation::DEFAULT
    };
    let reductions: Vec<f64> = distinct(rows, |r| r.gpu_app.clone())
        .iter()
        .filter_map(|gpu_app| {
            let plain = interrupts_per_ssr(&run_of(gpu_app, Mitigation::DEFAULT));
            let coal = interrupts_per_ssr(&run_of(gpu_app, coalesce));
            (plain > 0.0).then(|| 1.0 - coal / plain)
        })
        .collect();
    let with_ssrs = run_of("ubench", Mitigation::DEFAULT);
    let without_ssrs = no_ssr
        .iter()
        .find(|(r, _)| r.gpu_app == "ubench")
        .map(|(r, _)| r)
        .expect("the no-SSR pack runs ubench");
    let counts = with_ssrs.interrupts_per_core();
    let max = *counts.iter().max().unwrap_or(&0) as f64;
    let min = *counts.iter().min().unwrap_or(&0) as f64;
    Section4c {
        interrupt_imbalance: if min > 0.0 { max / min } else { f64::INFINITY },
        interrupts_per_core: counts,
        ipis_with_ssrs: with_ssrs.ipis(),
        ipis_without_ssrs: without_ssrs.ipis,
        coalescing_reduction: hiss_sim::mean(&reductions),
    }
}

/// Renders the §IV-C findings.
pub fn render_section4c(s: &Section4c) -> String {
    let rows = vec![
        vec![
            "interrupts per core".into(),
            format!("{:?}", s.interrupts_per_core),
        ],
        vec![
            "interrupt imbalance (max/min)".into(),
            format!("{:.2}", s.interrupt_imbalance),
        ],
        vec!["IPIs with SSRs".into(), s.ipis_with_ssrs.to_string()],
        vec!["IPIs without SSRs".into(), s.ipis_without_ssrs.to_string()],
        vec![
            "IPI inflation".into(),
            if s.ipi_inflation().is_infinite() {
                ">> 477x (baseline has none)".into()
            } else {
                format!("{:.0}x", s.ipi_inflation())
            },
        ],
        vec![
            "coalescing interrupt reduction".into(),
            format!("{:.1}%", s.coalescing_reduction * 100.0),
        ],
    ];
    render_table(&["Measurement", "Value"], &rows)
}

/// One grid cell of one Fig. 6 panel pair.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// The single technique under test.
    pub technique: Mitigation,
    /// CPU benchmark.
    pub cpu_app: String,
    /// GPU benchmark.
    pub gpu_app: String,
    /// CPU application performance relative to the default configuration
    /// (>1: the technique helped the CPU).
    pub cpu_ratio: f64,
    /// GPU performance relative to the default configuration.
    pub gpu_ratio: f64,
}

/// Fig. 6: one panel per single-technique `mitigation` sweep point, in
/// axis order, each cell normalised to the `default` sweep point of the
/// same CPU × GPU cell (interrupts spread, no coalescing, split
/// handler).
pub fn fig6(rows: &[(Row, MetricsRegistry)]) -> Vec<Vec<Fig6Row>> {
    let combos: Vec<Mitigation> = rows.iter().map(|(r, _)| mitigation(r)).collect();
    let default_of = |treated: &Row| {
        rows.iter()
            .zip(&combos)
            .find(|((r, _), m)| {
                **m == Mitigation::DEFAULT
                    && r.cpu_app == treated.cpu_app
                    && r.gpu_app == treated.gpu_app
                    && r.replica == treated.replica
            })
            .map(|((_, m), _)| report(m))
            .expect("the grid sweeps the default configuration")
    };
    let single = |m: &Mitigation| {
        [m.steer_single_core, m.coalesce, m.monolithic_bottom_half]
            .iter()
            .filter(|on| **on)
            .count()
            == 1
    };
    distinct(rows, mitigation)
        .iter()
        .filter(|m| single(m))
        .map(|technique| {
            rows.iter()
                .zip(&combos)
                .filter(|(_, m)| *m == technique)
                .map(|((r, m), _)| {
                    let treated = report(m);
                    let default = default_of(r);
                    Fig6Row {
                        technique: *technique,
                        cpu_app: r.cpu_app.clone(),
                        gpu_app: r.gpu_app.clone(),
                        cpu_ratio: treated
                            .cpu_perf_vs(&default)
                            .expect("both runs finish the CPU application"),
                        gpu_ratio: gpu_perf_vs(&r.gpu_app, &treated, &default),
                    }
                })
                .collect()
        })
        .collect()
}

/// Renders one Fig. 6 panel pair.
pub fn render_fig6(rows: &[Fig6Row]) -> String {
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.technique.label(),
                r.cpu_app.clone(),
                r.gpu_app.clone(),
                format!("{:.3}", r.cpu_ratio),
                format!("{:.3}", r.gpu_ratio),
            ]
        })
        .collect();
    render_table(
        &["technique", "CPU app", "GPU app", "CPU ratio", "GPU ratio"],
        &data,
    )
}

/// One point of a Pareto chart.
#[derive(Debug, Clone)]
pub struct ParetoPoint {
    /// The mitigation combination.
    pub mitigation: Mitigation,
    /// Geometric-mean normalised CPU workload performance (x-axis,
    /// right is better).
    pub cpu_geomean: f64,
    /// Geometric-mean normalised GPU performance (y-axis, up is better).
    pub gpu_geomean: f64,
}

impl ParetoPoint {
    /// `true` if `other` dominates this point (better or equal on both
    /// axes, strictly better on one).
    pub fn dominated_by(&self, other: &ParetoPoint) -> bool {
        other.cpu_geomean >= self.cpu_geomean
            && other.gpu_geomean >= self.gpu_geomean
            && (other.cpu_geomean > self.cpu_geomean || other.gpu_geomean > self.gpu_geomean)
    }
}

/// Marks the Pareto-optimal subset of `points`.
pub fn pareto_frontier(points: &[ParetoPoint]) -> Vec<bool> {
    points
        .iter()
        .map(|p| !points.iter().any(|q| p.dominated_by(q)))
        .collect()
}

/// One Pareto point per `mitigation` sweep point, in axis order: the
/// geometric means of the Fig. 3-normalised CPU and GPU performance over
/// the rows `keep` selects.
fn pareto(rows: &[(Row, MetricsRegistry)], keep: impl Fn(&Row) -> bool) -> Vec<ParetoPoint> {
    distinct(rows, mitigation)
        .into_iter()
        .map(|combo| {
            let picked: Vec<&Row> = rows
                .iter()
                .map(|(r, _)| r)
                .filter(|r| keep(r) && mitigation(r) == combo)
                .collect();
            let cpu: Vec<f64> = picked.iter().map(|r| cpu_perf(r)).collect();
            let gpu: Vec<f64> = picked.iter().map(|r| r.gpu_perf).collect();
            ParetoPoint {
                mitigation: combo,
                cpu_geomean: hiss_sim::geomean(&cpu),
                gpu_geomean: hiss_sim::geomean(&gpu),
            }
        })
        .collect()
}

/// Fig. 7 (the accelerator-rich-future projection): the Pareto points of
/// the `ubench` rows.
pub fn fig7(rows: &[(Row, MetricsRegistry)]) -> Vec<ParetoPoint> {
    pareto(rows, |r| r.gpu_app == "ubench")
}

/// Fig. 8 (today's applications): the Pareto points of every other GPU
/// application's rows.
pub fn fig8(rows: &[(Row, MetricsRegistry)]) -> Vec<ParetoPoint> {
    pareto(rows, |r| r.gpu_app != "ubench")
}

/// Renders a Pareto chart as a table, flagging frontier points.
pub fn render_pareto(points: &[ParetoPoint]) -> String {
    let frontier = pareto_frontier(points);
    let data: Vec<Vec<String>> = points
        .iter()
        .zip(&frontier)
        .map(|(p, on)| {
            vec![
                p.mitigation.label(),
                format!("{:.3}", p.cpu_geomean),
                format!("{:.3}", p.gpu_geomean),
                if *on { "pareto".into() } else { "".into() },
            ]
        })
        .collect();
    render_table(&["combination", "CPU geomean", "GPU geomean", ""], &data)
}

/// Fig. 9: the `ubench_no_SSR` bar (the pinned ubench row of
/// [`FIG4_PACK`], `fig4_rows`), then one bar per `mitigation` sweep
/// point of [`FIG9_PACK`] in axis order, each the run's CC6 residency.
pub fn fig9(fig4_rows: &[(Row, MetricsRegistry)], rows: &[(Row, MetricsRegistry)]) -> String {
    let no_ssr = (
        "ubench_no_SSR".to_string(),
        find_pinned(fig4_rows, "ubench", true),
    );
    let data: Vec<Vec<String>> = std::iter::once(no_ssr)
        .chain(rows.iter().map(|(r, _)| (mitigation(r).label(), r)))
        .map(|(label, r)| vec![label, format!("{:.1}%", r.cc6_residency * 100.0)])
        .collect();
    render_table(&["configuration", "CC6 residency"], &data)
}

/// One bar group entry of Fig. 12.
#[derive(Debug, Clone)]
pub struct Fig12Row {
    /// CPU benchmark.
    pub cpu_app: String,
    /// Throttle label: `default` (governor off) or `th_N`.
    pub throttle: String,
    /// Fig. 12a: normalised CPU application performance.
    pub cpu_perf: f64,
    /// Fig. 12b: normalised ubench throughput.
    pub gpu_perf: f64,
    /// Measured fraction of CPU time spent on SSR servicing.
    pub ssr_overhead: f64,
}

/// Fig. 12: each CPU application's rows in `qos_percent` axis order,
/// labelled `default` (0, governor off) or `th_N`.
pub fn fig12(rows: &[(Row, MetricsRegistry)]) -> Vec<Fig12Row> {
    distinct(rows, |r| r.cpu_app.clone())
        .iter()
        .flat_map(|cpu_app| {
            rows.iter()
                .filter(move |(r, _)| &r.cpu_app == cpu_app)
                .map(|(r, _)| Fig12Row {
                    cpu_app: r.cpu_app.clone(),
                    throttle: match axis(r, "qos_percent") {
                        None | Some("0") => "default".to_string(),
                        Some(pct) => format!("th_{pct}"),
                    },
                    cpu_perf: cpu_perf(r),
                    gpu_perf: r.gpu_perf,
                    ssr_overhead: r.ssr_overhead,
                })
        })
        .collect()
}

/// Renders Fig. 12 as text.
pub fn render_fig12(rows: &[Fig12Row]) -> String {
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.cpu_app.clone(),
                r.throttle.clone(),
                format!("{:.3}", r.cpu_perf),
                format!("{:.3}", r.gpu_perf),
                format!("{:.1}%", r.ssr_overhead * 100.0),
            ]
        })
        .collect();
    render_table(
        &[
            "CPU app",
            "throttle",
            "CPU perf",
            "ubench perf",
            "SSR overhead",
        ],
        &data,
    )
}

/// Beyond the paper (the accelerator-rich SoCs of its motivation): one
/// line per `gpus` sweep point of [`SCALING_PACK`].
pub fn scaling(rows: &[(Row, MetricsRegistry)]) -> String {
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|(r, _)| {
            vec![
                axis(r, "gpus").unwrap_or("1").to_string(),
                format!("{:.3}", cpu_perf(r)),
                format!("{:.1}%", r.cc6_residency * 100.0),
                format!("{:.0}", r.ssr_rate),
            ]
        })
        .collect();
    render_table(&["GPUs", "CPU perf", "CC6", "SSR/s"], &data)
}

/// Beyond the paper (the 13 µs window is a hardware maximum, not an
/// optimum): one line per `coalesce_window_us` sweep point of
/// [`WINDOW_PACK`], with the SSR rate relative to the first window's and
/// the interrupts per serviced SSR (1.00 = no batching). The zero window
/// is the uncoalesced run: with coalescing on and a zero window the
/// IOMMU raises every request at once, the same simulation as
/// coalescing off.
pub fn coalescing_window(rows: &[(Row, MetricsRegistry)]) -> String {
    let first = rows.first().map_or(0.0, |(r, _)| r.ssr_rate);
    rows.iter()
        .map(|(r, m)| {
            let us = axis(r, "coalesce_window_us")
                .and_then(|us| us.parse().ok())
                .expect("the window pack sweeps coalesce_window_us");
            format!(
                "  window {:>8}: CPU {:.3}  GPU ratio {:.3}  interrupts/SSR {:.2}\n",
                Ns::from_micros(us).to_string(),
                cpu_perf(r),
                if first > 0.0 { r.ssr_rate / first } else { 0.0 },
                interrupts_per_ssr(&report(m))
            )
        })
        .collect()
}

/// Beyond the paper (the QoS governor leans on the hardware
/// outstanding-SSR limit): one line per `outstanding_limit` sweep point
/// of [`LIMIT_PACK`], giving its th_1 row's SSR rate as a share of the
/// unthrottled rate. That share is the row's `gpu_perf`: an `idle` cell
/// is normalised to the idle-CPU run at its own limit, which is the
/// pack's `qos_percent = 0` cell.
pub fn outstanding_limit(rows: &[(Row, MetricsRegistry)]) -> String {
    rows.iter()
        .map(|(r, _)| r)
        .filter(|r| axis(r, "qos_percent") == Some("1"))
        .map(|r| {
            format!(
                "  limit {:>4}: throttled ubench at {:.1}% of unhindered\n",
                axis(r, "outstanding_limit").expect("the limit pack sweeps outstanding_limit"),
                r.gpu_perf * 100.0
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::run_with_metrics;

    /// Runs `text` over the `cpu` × `gpu` subset of its workload and,
    /// when `combos` is non-empty, only those `mitigation` sweep points.
    fn run_subset(
        text: &str,
        cpu: &[&str],
        gpu: &[&str],
        combos: &[&str],
    ) -> Vec<(Row, MetricsRegistry)> {
        let mut sc = pack(text);
        sc.workload.cpu = cpu.iter().map(|s| s.to_string()).collect();
        sc.workload.gpu = gpu.iter().map(|s| s.to_string()).collect();
        if !combos.is_empty() {
            sc.sweeps[0]
                .values
                .retain(|v| combos.contains(&v.render().as_str()));
        }
        run_with_metrics(&hiss::RunCtx::new(2), &sc, false)
    }

    #[test]
    fn subset_grid_shows_interference_both_ways() {
        let rows = run_subset(
            FIG3_PACK,
            &["fluidanimate", "raytrace"],
            &["sssp", "ubench"],
            &[],
        );
        assert_eq!(rows.len(), 4);
        for (r, _) in &rows {
            let cpu = cpu_perf(r);
            assert!(
                cpu > 0.3 && cpu <= 1.02,
                "{}+{} cpu_perf {}",
                r.cpu_app,
                r.gpu_app,
                cpu
            );
            assert!(
                r.gpu_perf > 0.3 && r.gpu_perf <= 1.25,
                "{}+{} gpu_perf {}",
                r.cpu_app,
                r.gpu_app,
                r.gpu_perf
            );
        }
        // ubench hurts the CPU more than sssp does, for each CPU app.
        let perf = |c: &str, g: &str| {
            rows.iter()
                .find(|(r, _)| r.cpu_app == c && r.gpu_app == g)
                .map(|(r, _)| cpu_perf(r))
                .unwrap()
        };
        assert!(perf("fluidanimate", "ubench") < perf("fluidanimate", "sssp"));
        // raytrace (single-threaded) suffers less than fluidanimate.
        assert!(perf("raytrace", "ubench") > perf("fluidanimate", "ubench"));
    }

    #[test]
    fn render_produces_grid() {
        let row = Row {
            cpu_app: "x264".into(),
            gpu_app: "ubench".into(),
            cpu_perf: Some(0.56),
            gpu_perf: 0.97,
            ..Row::default()
        };
        let text = fig3a(&[(row, MetricsRegistry::new())]);
        assert!(text.contains("x264"));
        assert!(text.contains("0.560"));
    }

    #[test]
    fn pollution_is_visible_and_app_dependent() {
        let rows = fig5(&run_subset(
            FIG3_PACK,
            &["fluidanimate", "canneal", "x264"],
            &["ubench"],
            &[],
        ));
        for r in &rows {
            assert!(
                r.l1d_miss_increase > 0.0,
                "{} shows no cache pollution",
                r.cpu_app
            );
            assert!(
                r.branch_miss_increase > 0.0,
                "{} shows no branch pollution",
                r.cpu_app
            );
        }
        // canneal's native miss rate is huge, so its *relative* increase
        // is small (matches the paper's low canneal bar).
        let get = |n: &str| rows.iter().find(|r| r.cpu_app == n).unwrap();
        assert!(get("canneal").l1d_miss_increase < get("fluidanimate").l1d_miss_increase);
        // x264 dominates the branch panel.
        assert!(get("x264").branch_miss_increase > get("canneal").branch_miss_increase);
    }

    #[test]
    fn monolithic_helps_gpu_throughput() {
        // Busy 4-thread apps: the kthread wake+IPI saving is on the
        // critical path (idle-CPU runs are dominated by CC6 wake latency
        // instead, which monolithic does not change).
        let panels = fig6(&run_subset(
            MITIGATION_GRID_PACK,
            &["fluidanimate"],
            &["sssp", "ubench"],
            &["default", "mono"],
        ));
        assert_eq!(panels.len(), 1);
        assert_eq!(panels[0].len(), 2);
        for r in &panels[0] {
            assert!(
                r.gpu_ratio > 1.1,
                "{}+{}: monolithic should speed the GPU, got {}",
                r.cpu_app,
                r.gpu_app,
                r.gpu_ratio
            );
        }
    }

    #[test]
    fn coalescing_slows_latency_bound_gpu_apps() {
        let panels = fig6(&run_subset(
            MITIGATION_GRID_PACK,
            &["blackscholes"],
            &["sssp"],
            &["default", "coalesce"],
        ));
        // The paper sees up to a 50% slowdown for SSSP: its blocking SSRs
        // wait out the coalescing window.
        assert!(
            panels[0][0].gpu_ratio < 0.95,
            "coalescing should hurt sssp, got {}",
            panels[0][0].gpu_ratio
        );
    }

    #[test]
    fn steering_concentrates_harm() {
        let panels = fig6(&run_subset(
            MITIGATION_GRID_PACK,
            &["x264"],
            &["ubench"],
            &["default", "steer"],
        ));
        // With ubench inundating all cores by default, steering moves the
        // interrupts off three of the four cores; CPU performance must
        // not collapse (paper: steering *helps* under ubench).
        assert!(
            panels[0][0].cpu_ratio > 0.9,
            "steering under ubench should not hurt broadly, got {}",
            panels[0][0].cpu_ratio
        );
    }

    /// Per GPU app, SSRs cut the idle CPUs' residency, and bfs (which
    /// clusters its SSRs early) loses much less than ubench (paper: 14
    /// points vs 74).
    #[test]
    fn ssrs_always_reduce_residency() {
        let rows = fig4(&run_subset(FIG4_PACK, &["idle"], &["bfs", "ubench"], &[]));
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(
                r.cc6_ssr < r.cc6_no_ssr,
                "{}: SSRs should cut residency ({} vs {})",
                r.gpu_app,
                r.cc6_ssr,
                r.cc6_no_ssr
            );
            assert!(r.cc6_no_ssr > 0.6, "{} baseline too awake", r.gpu_app);
        }
        let (bfs, ubench) = (&rows[0], &rows[1]);
        assert_eq!(
            (bfs.gpu_app.as_str(), ubench.gpu_app.as_str()),
            ("bfs", "ubench")
        );
        assert!(
            bfs.lost_points() < ubench.lost_points(),
            "bfs lost {} pts, ubench {} pts",
            bfs.lost_points(),
            ubench.lost_points()
        );
    }

    #[test]
    fn render_shows_percentages() {
        let rows = vec![Fig4Row {
            gpu_app: "ubench".into(),
            cc6_no_ssr: 0.86,
            cc6_ssr: 0.12,
        }];
        let text = render_fig4(&rows);
        assert!(text.contains("86.0%"));
        assert!(text.contains("12.0%"));
        assert!(text.contains("74.0"));
    }

    /// SSRs crater residency; steering recovers a large part of it by
    /// letting the un-steered cores sleep (paper: 12% -> ~50%).
    #[test]
    fn mitigations_recover_sleep_time() {
        let fig4_rows = run_subset(FIG4_PACK, &["idle"], &["ubench"], &["true"]);
        let rows = run_subset(FIG9_PACK, &["idle"], &["ubench"], &["default", "steer"]);
        let text = fig9(&fig4_rows, &rows);
        let labels: Vec<&str> = text
            .lines()
            .skip(2)
            .map(|l| l.rsplit_once("  ").unwrap().0.trim())
            .collect();
        assert_eq!(labels, ["ubench_no_SSR", "Default", "Intr_to_single_core"]);
        let no_ssr = fig4_rows[0].0.cc6_residency;
        let [default, steered] = [0, 1].map(|i| rows[i].0.cc6_residency);
        assert!(no_ssr > 0.7, "no_SSR residency {no_ssr}");
        assert!(default < no_ssr * 0.6, "default residency {default}");
        assert!(
            steered > default + 0.1,
            "steering should recover sleep: {steered} vs {default}"
        );
    }

    /// §IV-C: interrupts evenly spread over the four cores, IPIs only
    /// once SSRs flow, and coalescing cuts interrupts by a double-digit
    /// percentage (paper: 16% average).
    #[test]
    fn measurements_match_paper_shape() {
        let ctx = hiss::RunCtx::new(2);
        let run = |text| run_with_metrics(&ctx, &pack(text), false);
        let s = section4c(&run(SECTION4C_PACK), &run(SECTION4C_NO_SSR_PACK));
        assert_eq!(s.interrupts_per_core.len(), 4);
        assert!(
            s.interrupt_imbalance < 1.5,
            "imbalance {}",
            s.interrupt_imbalance
        );
        assert!(s.ipis_with_ssrs > 100);
        assert_eq!(s.ipis_without_ssrs, 0);
        assert!(s.ipi_inflation().is_infinite());
        assert!(
            s.coalescing_reduction > 0.05 && s.coalescing_reduction < 0.6,
            "reduction {}",
            s.coalescing_reduction
        );
    }

    /// sssp is not service-bound on its own, so extra accelerators add
    /// SSR pressure and CPU harm.
    #[test]
    fn more_gpus_mean_more_interference() {
        let rows = run_subset(SCALING_PACK, &["x264"], &["sssp"], &["1", "2", "3"]);
        assert_eq!(scaling(&rows).lines().count(), 2 + 3);
        let (one, three) = (&rows[0].0, &rows[2].0);
        assert!(
            cpu_perf(three) < cpu_perf(one) - 0.02,
            "3 GPUs should hurt more than 1: {} vs {}",
            cpu_perf(three),
            cpu_perf(one)
        );
        assert!(three.ssr_rate > one.ssr_rate * 1.5);
    }

    #[test]
    fn window_sweep_batches_more_with_larger_windows() {
        let rows = run_subset(WINDOW_PACK, &["blackscholes"], &["ubench"], &["0", "13"]);
        let text = coalescing_window(&rows);
        assert!(text.starts_with("  window      0ns: "), "{text}");
        assert!(text.contains("GPU ratio 1.000"), "{text}");
        let [zero, max] = [0, 1].map(|i| interrupts_per_ssr(&report(&rows[i].1)));
        assert!(max < zero, "13µs window should batch: {max} vs {zero}");
    }

    /// The window pack's zero-window point stands for the uncoalesced
    /// run: coalescing with a zero window raises every request at once,
    /// so the whole metrics snapshot is bit-identical to coalescing off.
    #[test]
    fn zero_window_coalescing_is_uncoalesced() {
        let mut sc = pack(WINDOW_PACK);
        sc.sweeps[0].values = vec![Value::Int(0)];
        let on = &crate::expand(&sc, false)[0];
        assert!(on.knobs.mitigation.coalesce);
        let off = crate::Cell {
            knobs: Knobs {
                mitigation: Mitigation::DEFAULT,
                ..on.knobs
            },
            ..on.clone()
        };
        assert_eq!(
            crate::simulate(on).metrics.to_json(),
            crate::simulate(&off).metrics.to_json()
        );
    }

    /// Throttled throughput is nearly limit-independent: the service
    /// delay regulates the rate, the hardware limit only bounds the
    /// transient (EXPERIMENTS.md). Both settings are deeply throttled
    /// and close to each other. A throttled row's `gpu_perf` is its rate
    /// over the unthrottled row's at the same limit.
    #[test]
    fn backpressure_works_across_outstanding_limits() {
        let mut sc = pack(LIMIT_PACK);
        sc.sweeps[0].values = vec![Value::Int(4), Value::Int(256)];
        let rows = run_with_metrics(&hiss::RunCtx::new(2), &sc, false);
        let rate = |i: usize| rows[i].0.ssr_rate;
        let ratios = [rate(1) / rate(0), rate(3) / rate(2)];
        assert_eq!(ratios, [rows[1].0.gpu_perf, rows[3].0.gpu_perf]);
        assert_eq!(outstanding_limit(&rows).lines().count(), 2);
        for (limit, ratio) in [4, 256].iter().zip(ratios) {
            assert!(ratio < 0.2, "limit {limit}: ratio {ratio} not throttled");
        }
        assert!(
            (ratios[0] - ratios[1]).abs() < 0.05,
            "limit 4 ratio {} vs limit 256 ratio {}",
            ratios[0],
            ratios[1]
        );
    }

    fn point(cpu: f64, gpu: f64) -> ParetoPoint {
        ParetoPoint {
            mitigation: Mitigation::DEFAULT,
            cpu_geomean: cpu,
            gpu_geomean: gpu,
        }
    }

    #[test]
    fn frontier_marks_non_dominated_points() {
        let pts = vec![
            point(0.5, 1.8),
            point(0.7, 1.0),
            point(0.6, 0.9),
            point(0.4, 0.5),
        ];
        let frontier = pareto_frontier(&pts);
        assert_eq!(frontier, vec![true, true, false, false]);
    }

    #[test]
    fn dominance_is_strict() {
        let a = point(0.5, 1.0);
        let b = point(0.5, 1.0);
        assert!(!a.dominated_by(&b));
        assert!(a.dominated_by(&point(0.5, 1.1)));
    }

    #[test]
    fn subset_pareto_default_is_not_optimal() {
        // The paper's key observation: the default configuration is not
        // Pareto optimal in either chart.
        let pts = fig7(&run_subset(
            MITIGATION_GRID_PACK,
            &["x264", "raytrace"],
            &["ubench"],
            &["default", "coalesce", "coalesce+mono"],
        ));
        assert_eq!(pts[0].mitigation, Mitigation::DEFAULT);
        let frontier = pareto_frontier(&pts);
        assert!(
            !frontier[0],
            "default should be dominated: {:?}",
            pts.iter()
                .map(|p| (p.cpu_geomean, p.gpu_geomean))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn tighter_thresholds_trade_gpu_for_cpu() {
        let rows = fig12(&run_subset(FIG12_PACK, &["x264"], &["ubench"], &[]));
        let get = |t: &str| rows.iter().find(|r| r.throttle == t).unwrap();
        let default = get("default");
        let th1 = get("th_1");
        // th_1 must sharply improve CPU performance over default…
        assert!(
            th1.cpu_perf > default.cpu_perf + 0.05,
            "th_1 {} vs default {}",
            th1.cpu_perf,
            default.cpu_perf
        );
        // …while collapsing ubench throughput (paper: to ~5%).
        assert!(
            th1.gpu_perf < default.gpu_perf * 0.4,
            "th_1 gpu {} vs default {}",
            th1.gpu_perf,
            default.gpu_perf
        );
        // Monotonicity across the sweep.
        let th5 = get("th_5");
        let th25 = get("th_25");
        assert!(th1.gpu_perf <= th5.gpu_perf + 0.02);
        assert!(th5.gpu_perf <= th25.gpu_perf + 0.02);
        assert!(th1.ssr_overhead <= th5.ssr_overhead + 0.01);
        assert!(th5.ssr_overhead <= th25.ssr_overhead + 0.01);
    }
}
