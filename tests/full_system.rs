//! Whole-system integration tests: cross-crate invariants that must hold
//! for *any* configuration — conservation of time and requests,
//! determinism, and graceful behaviour at configuration extremes.

use hiss::{
    ExperimentBuilder, Mitigation, Ns, QosParams, RunReport, SystemConfig, TimeBreakdown,
    TimeCategory,
};
use proptest::prelude::*;

fn cfg() -> SystemConfig {
    SystemConfig::a10_7850k()
}

/// The per-core ledgers a run published as `cpu.core{i}.{category}_ns`
/// counters, one per core up to the first core missing one.
fn ledgers(r: &RunReport) -> Vec<TimeBreakdown> {
    (0..)
        .map_while(|i| {
            let mut b = TimeBreakdown::new();
            for c in TimeCategory::ALL {
                let name = format!("cpu.core{i}.{}_ns", c.name());
                b.add(c, Ns::from_nanos(r.metrics.counter_value(&name)?));
            }
            Some(b)
        })
        .collect()
}

/// `iommu.drained + run.pending_at_end == iommu.requests`: every logged
/// request was drained or is still pending.
fn requests_conserved(r: &RunReport) -> bool {
    let c = |name: &str| r.metrics.counter_value(name).unwrap();
    c("iommu.drained") + c("run.pending_at_end") == c("iommu.requests")
}

fn all_pairs() -> Vec<(&'static str, &'static str)> {
    let mut v = Vec::new();
    for c in ["swaptions", "streamcluster", "raytrace"] {
        for g in ["bfs", "sssp", "ubench"] {
            v.push((c, g));
        }
    }
    v
}

/// Every core's ledger covers (approximately) the whole run, for every
/// workload pairing and mitigation.
#[test]
fn ledgers_conserve_wall_time_across_grid() {
    for (c, g) in all_pairs() {
        for m in [
            Mitigation::DEFAULT,
            Mitigation {
                steer_single_core: true,
                coalesce: true,
                monolithic_bottom_half: true,
            },
        ] {
            let r = ExperimentBuilder::new(cfg())
                .cpu_app(c)
                .gpu_app(g)
                .mitigation(m)
                .run();
            let ledgers = ledgers(&r);
            assert_eq!(ledgers.len(), cfg().num_cores);
            for (i, b) in ledgers.iter().enumerate() {
                let ratio = b.total().as_nanos() as f64 / r.elapsed().as_nanos() as f64;
                assert!(
                    (0.95..=1.05).contains(&ratio),
                    "{c}+{g} {m:?}: core {i} ledger covers {ratio:.4} of wall time"
                );
            }
        }
    }
}

/// Every raised SSR is eventually serviced (none lost in the
/// IOMMU→kernel→GPU pipeline) in runs that drain fully.
#[test]
fn no_ssr_is_lost() {
    for (c, g) in all_pairs() {
        let r = ExperimentBuilder::new(cfg()).cpu_app(c).gpu_app(g).run();
        assert!(r.ssrs_serviced() > 0, "{c}+{g}: no SSRs serviced at all");
        // IOMMU-side conservation: logged = drained + still-pending.
        assert!(requests_conserved(&r), "{c}+{g}");
    }
}

/// Identical configuration and seed produce bit-identical reports.
#[test]
fn determinism_across_the_grid() {
    for (c, g) in all_pairs() {
        let run = || {
            ExperimentBuilder::new(cfg())
                .cpu_app(c)
                .gpu_app(g)
                .qos(QosParams::threshold_percent(5.0))
                .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.cpu_app_runtime(), b.cpu_app_runtime(), "{c}+{g}");
        assert_eq!(a.elapsed(), b.elapsed(), "{c}+{g}");
        assert_eq!(a.ssrs_serviced(), b.ssrs_serviced(), "{c}+{g}");
        assert_eq!(a.ipis(), b.ipis(), "{c}+{g}");
        assert_eq!(a.interrupts_per_core(), b.interrupts_per_core(), "{c}+{g}");
    }
}

/// A 1-core system still works (everything lands on core 0).
#[test]
fn single_core_system() {
    let mut c = cfg();
    c.num_cores = 1;
    let r = ExperimentBuilder::new(c).gpu_app("sssp").run();
    assert!(r.ssrs_serviced() > 0);
    assert_eq!(r.interrupts_per_core().len(), 1);
    assert_eq!(r.ipis(), 0, "one core cannot IPI itself");
}

/// An 8-core system spreads interrupts across all eight.
#[test]
fn eight_core_system() {
    let mut c = cfg();
    c.num_cores = 8;
    let r = ExperimentBuilder::new(c).gpu_app("ubench").run();
    assert_eq!(r.interrupts_per_core().len(), 8);
    assert!(r.interrupts_per_core().iter().all(|&n| n > 0));
}

/// GPU-only pinned runs terminate in exactly the kernel's work time.
#[test]
fn pinned_gpu_run_is_exact() {
    let spec = hiss::GpuAppSpec::by_name("xsbench").unwrap();
    let r = ExperimentBuilder::new(cfg())
        .gpu_app_pinned("xsbench")
        .run();
    assert_eq!(r.elapsed(), spec.total_work);
    let progress = r.metrics.counter_value("run.gpu_progress_ns");
    assert_eq!(progress, Some(spec.total_work.as_nanos()));
    assert!((r.gpu_throughput() - 1.0).abs() < 1e-9);
}

/// The energy model orders configurations sensibly: a run that sleeps
/// more draws less average power.
#[test]
fn energy_tracks_sleep() {
    let quiet = ExperimentBuilder::new(cfg()).gpu_app_pinned("ubench").run();
    let noisy = ExperimentBuilder::new(cfg()).gpu_app("ubench").run();
    assert!(
        quiet.cpu_avg_watts() < noisy.cpu_avg_watts(),
        "sleepy run should draw less power: {} vs {}",
        quiet.cpu_avg_watts(),
        noisy.cpu_avg_watts()
    );
}

/// The per-core breakdown's SSR overhead matches the report's aggregate.
#[test]
fn overhead_aggrees_with_breakdowns() {
    let r = ExperimentBuilder::new(cfg())
        .cpu_app("ferret")
        .gpu_app("ubench")
        .run();
    let mut whole = TimeBreakdown::new();
    for b in &ledgers(&r) {
        whole.merge(b);
    }
    assert!((whole.ssr_overhead_fraction() - r.cpu_ssr_overhead()).abs() < 1e-9);
    // And some of each overhead category exists under the default config.
    for cat in [
        TimeCategory::TopHalf,
        TimeCategory::Ipi,
        TimeCategory::BottomHalf,
        TimeCategory::Worker,
        TimeCategory::ModeSwitch,
    ] {
        assert!(whole.get(cat) > Ns::ZERO, "missing {cat:?} time");
    }
}

fn report_fingerprint(r: &RunReport) -> (u64, u64, Option<Ns>) {
    (r.ssrs_serviced(), r.ipis(), r.cpu_app_runtime())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any mitigation combination, QoS setting, and seed yields a run
    /// that terminates, conserves requests, and keeps ledgers consistent.
    #[test]
    fn arbitrary_configs_are_well_formed(
        bits in 0u8..8,
        qos_pct in proptest::option::of(1.0f64..40.0),
        seed in 0u64..1000,
        cpu_idx in 0usize..13,
        gpu_idx in 0usize..6,
    ) {
        let m = Mitigation {
            steer_single_core: bits & 1 != 0,
            coalesce: bits & 2 != 0,
            monolithic_bottom_half: bits & 4 != 0,
        };
        let cpu = hiss::parsec_suite()[cpu_idx].name;
        let gpu = hiss::gpu_suite()[gpu_idx].name;
        let mut b = ExperimentBuilder::new(cfg())
            .cpu_app(cpu)
            .gpu_app(gpu)
            .mitigation(m)
            .seed(seed);
        if let Some(pct) = qos_pct {
            b = b.qos(QosParams::threshold_percent(pct));
        }
        let r = b.run();
        prop_assert!(r.cpu_app_runtime().is_some(), "{cpu}+{gpu} did not finish");
        prop_assert!(requests_conserved(&r));
        prop_assert!(r.cpu_ssr_overhead() >= 0.0 && r.cpu_ssr_overhead() <= 1.0);
        prop_assert!(r.cc6_residency() >= 0.0 && r.cc6_residency() <= 1.0);
        for b in &ledgers(&r) {
            let ratio = b.total().as_nanos() as f64 / r.elapsed().as_nanos() as f64;
            prop_assert!((0.9..=1.1).contains(&ratio), "ledger ratio {ratio}");
        }
        // Determinism double-check on one random config.
        if seed % 5 == 0 {
            let mut b2 = ExperimentBuilder::new(cfg())
                .cpu_app(cpu)
                .gpu_app(gpu)
                .mitigation(m)
                .seed(seed);
            if let Some(pct) = qos_pct {
                b2 = b2.qos(QosParams::threshold_percent(pct));
            }
            let r2 = b2.run();
            prop_assert_eq!(report_fingerprint(&r), report_fingerprint(&r2));
        }
    }
}
