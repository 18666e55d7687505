//! The mixed-criticality protection story, run as a counterfactual:
//! `scenarios/mixed_criticality.hiss` pins that core reservation keeps
//! the critical application at >= 98% of baseline under the worst-case
//! aggressor (the golden harness in `scenarios.rs` enforces the
//! committed bands). This test flips `reserve = false` on the loaded
//! scenario and demonstrates the same bands are then *violated* — the
//! gate is load-bearing, not vacuously wide.

use std::path::{Path, PathBuf};

use hiss::RunCtx;
use hiss_scenario::{check, load, run_with_metrics};

fn scenario_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/mixed_criticality.hiss")
}

#[test]
fn critical_bound_is_violated_without_core_reservation() {
    let mut sc = load(&scenario_path()).expect("committed scenario loads");
    let crit = sc
        .base
        .criticality
        .as_mut()
        .expect("mixed_criticality.hiss declares a [criticality] section");
    assert!(crit.reserve, "the committed scenario reserves cores");
    crit.reserve = false;

    let rows: Vec<_> = run_with_metrics(&RunCtx::new(2), &sc, true)
        .into_iter()
        .map(|(row, _)| row)
        .collect();
    let protected = rows
        .iter()
        .find(|r| r.cpu_app == "raytrace")
        .expect("critical app row");
    let cpu_perf = protected.cpu_perf.expect("raytrace finishes");
    assert!(
        cpu_perf < 0.98,
        "without reservation the aggressor must push the critical app \
         below the committed bound, got {cpu_perf}"
    );

    let violations = check(&sc, &rows);
    assert!(
        violations.iter().any(|v| v.msg.contains("max_cpu_perf")),
        "dropping reservation must trip the max_cpu_perf band: {violations:?}"
    );
}

/// The partition's other half: with reservation off, the per-class
/// split still adds up (the guarded conservation laws hold) and the
/// critical class still exists — reservation changes *where* interrupts
/// land, not the class accounting.
#[test]
fn class_accounting_survives_reservation_toggle() {
    let mut sc = load(&scenario_path()).expect("committed scenario loads");
    sc.base.criticality.as_mut().unwrap().reserve = false;
    let pairs = run_with_metrics(&RunCtx::new(2), &sc, true);
    let (_, m) = pairs
        .iter()
        .find(|(r, _)| r.cpu_app == "raytrace")
        .expect("critical app cell");
    assert_eq!(m.counter_value("qos.classes"), Some(2));
    let class = |c: usize, stem: &str| m.counter_value(&format!("qos.class{c}.{stem}")).unwrap();
    assert!(class(0, "requests") > 0, "NIC requests are critical-class");
    assert!(class(1, "requests") > 0, "aggressor is best-effort");
    assert_eq!(
        class(0, "requests") + class(1, "requests"),
        m.counter_value("iommu.requests").unwrap(),
        "per-class split must conserve the total"
    );
}
