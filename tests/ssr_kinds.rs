//! End-to-end tests over the full Table I service catalogue: every SSR
//! kind flows through the whole pipeline, and its system-level impact
//! tracks the paper's qualitative complexity ordering.

use hiss::{ExperimentBuilder, GpuAppSpec, Ns, SsrKind, SystemConfig};

fn cfg() -> SystemConfig {
    SystemConfig::a10_7850k()
}

fn run_kind(kind: SsrKind) -> hiss::RunReport {
    let spec = GpuAppSpec::by_name("spmv").unwrap().with_kind(kind);
    let mut b = ExperimentBuilder::new(cfg());
    b = b.gpu_spec(spec);
    b.run()
}

/// Every kind completes all of its SSRs through the full chain.
#[test]
fn every_kind_flows_end_to_end() {
    for kind in SsrKind::ALL {
        let r = run_kind(kind);
        assert!(r.ssrs_serviced() > 50, "{kind:?}: {}", r.ssrs_serviced());
        let c = |name: &str| r.metrics.counter_value(name).unwrap();
        assert_eq!(
            c("iommu.drained") + c("run.pending_at_end"),
            c("iommu.requests"),
            "{kind:?} lost requests"
        );
        assert!(
            c("run.gpu_iterations") >= 1,
            "{kind:?} kernel never finished"
        );
    }
}

/// End-to-end latency tracks the Table I complexity ordering: signals are
/// the fastest service, hard page faults the slowest.
#[test]
fn latency_tracks_table1_complexity() {
    let lat = |k: SsrKind| run_kind(k).mean_ssr_latency();
    let signal = lat(SsrKind::Signal);
    let soft = lat(SsrKind::SoftPageFault);
    let migration = lat(SsrKind::PageMigration);
    let fs = lat(SsrKind::FileSystem);
    let hard = lat(SsrKind::HardPageFault);
    assert!(signal < soft, "signal {signal} vs soft {soft}");
    assert!(soft < migration, "soft {soft} vs migration {migration}");
    assert!(migration < fs, "migration {migration} vs fs {fs}");
    assert!(fs < hard, "fs {fs} vs hard {hard}");
}

/// Costlier services steal more CPU time at the same request rate.
#[test]
fn cpu_overhead_tracks_complexity() {
    let overhead = |k: SsrKind| {
        let spec = GpuAppSpec::by_name("spmv").unwrap().with_kind(k);
        ExperimentBuilder::new(cfg())
            .cpu_app("swaptions")
            .gpu_spec(spec)
            .run()
            .cpu_ssr_overhead()
    };
    let signal = overhead(SsrKind::Signal);
    let hard = overhead(SsrKind::HardPageFault);
    assert!(
        hard > signal * 1.5,
        "hard faults ({hard}) should cost notably more than signals ({signal})"
    );
}

/// Expensive services also slow the GPU more (its blocking faults wait
/// longer), and the QoS governor still bounds them.
#[test]
fn qos_covers_expensive_services() {
    let spec = GpuAppSpec::by_name("sssp")
        .unwrap()
        .with_kind(SsrKind::HardPageFault);
    let r = ExperimentBuilder::new(cfg())
        .cpu_app("swaptions")
        .gpu_spec(spec)
        .qos(hiss::QosParams::threshold_percent(2.0))
        .run();
    assert!(r.cpu_app_runtime().is_some());
    assert!(
        r.cpu_ssr_overhead() < 0.04,
        "governor failed on hard faults: {}",
        r.cpu_ssr_overhead()
    );
}

/// The pinned baseline is identical regardless of the configured kind
/// (no SSRs are generated at all).
#[test]
fn pinned_baseline_is_kind_independent() {
    let mut elapsed: Option<Ns> = None;
    for kind in SsrKind::ALL {
        let spec = GpuAppSpec::by_name("spmv")
            .unwrap()
            .with_kind(kind)
            .pinned();
        let r = ExperimentBuilder::new(cfg()).gpu_spec(spec).run();
        assert_eq!(r.ssrs_serviced(), 0);
        match elapsed {
            None => elapsed = Some(r.elapsed()),
            Some(e) => assert_eq!(e, r.elapsed(), "{kind:?}"),
        }
    }
}
