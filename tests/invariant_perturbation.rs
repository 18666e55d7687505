//! Perturbation tests on the conservation-law sanitizer
//! (`hiss_obs::invariants`): a finalized run snapshot must audit clean
//! exactly as produced, and flipping any single counter must be caught
//! whenever it breaks a declared law. The proptests cross-check the
//! auditor against a naive re-evaluation of the invariant table, on
//! mutated run snapshots and on synthetic registries of both scopes, so
//! a bug in the auditor's one-pass tallying cannot hide behind the
//! table it shares with the oracle's *selection* of laws.

use std::sync::OnceLock;

use hiss::{CriticalityConfig, ExperimentBuilder, SystemConfig};
use hiss_obs::invariants::{
    audit, invariants_for, is_concrete, AuditReport, Invariant, Rel, Term, Violation, INVARIANTS,
};
use hiss_obs::schema::{pattern_matches, Scope};
use hiss_obs::{MetricValue, MetricsRegistry};
use proptest::prelude::*;

/// One finalized run registry, computed once — the perturbation corpus.
fn base_snapshot() -> &'static MetricsRegistry {
    static SNAP: OnceLock<MetricsRegistry> = OnceLock::new();
    SNAP.get_or_init(|| {
        ExperimentBuilder::new(SystemConfig::a10_7850k())
            .cpu_app("x264")
            .gpu_app("ubench")
            .run()
            .metrics
    })
}

/// A criticality-class run: publishes the `qos.classes` marker, so the
/// guarded per-class split laws are armed in this corpus.
fn crit_snapshot() -> &'static MetricsRegistry {
    static SNAP: OnceLock<MetricsRegistry> = OnceLock::new();
    SNAP.get_or_init(|| {
        ExperimentBuilder::new(SystemConfig::a10_7850k())
            .cpu_app("x264")
            .gpu_app("ubench")
            .criticality(CriticalityConfig::default())
            .run()
            .metrics
    })
}

/// Independent re-implementation of guard applicability (the auditor's
/// `applies` is deliberately not reused here).
fn guard_applies(inv: &Invariant, reg: &MetricsRegistry) -> bool {
    match inv.guard {
        None => true,
        Some(g) => reg.iter().any(|(name, _)| pattern_matches(g, name)),
    }
}

fn counter_names(reg: &MetricsRegistry) -> Vec<String> {
    reg.iter()
        .filter(|(_, v)| matches!(v, MetricValue::Counter(_)))
        .map(|(n, _)| n.to_string())
        .collect()
}

/// Naive term evaluation, written against the public pattern matcher.
fn eval_term(reg: &MetricsRegistry, term: Term) -> u128 {
    let mut acc: u128 = 0;
    for (name, value) in reg.iter() {
        if !pattern_matches(term.pattern(), name) {
            continue;
        }
        match term {
            Term::Sum(_) => {
                if let MetricValue::Counter(v) = value {
                    acc += *v as u128;
                }
            }
            Term::Count(_) => acc += 1,
        }
    }
    acc
}

/// Naive rendering of one side for a violation's detail string.
fn describe_side(terms: &[Term], value: u128) -> String {
    let rendered: Vec<String> = terms
        .iter()
        .map(|t| match *t {
            Term::Sum(p) if is_concrete(p) => p.to_string(),
            Term::Sum(p) => format!("Σ {p}"),
            Term::Count(p) => format!("#({p})"),
        })
        .collect();
    format!("{} = {value}", rendered.join(" + "))
}

/// Re-evaluates every law of `scope` from scratch, one registry scan
/// per term: the oracle the auditor is differentially tested against,
/// down to `checked`, both sides and the detail text.
fn naive_audit(reg: &MetricsRegistry, scope: Scope) -> AuditReport {
    let mut report = AuditReport::default();
    for inv in invariants_for(scope) {
        if !guard_applies(inv, reg) {
            continue;
        }
        report.checked += 1;
        let lhs: u128 = inv.lhs.iter().map(|t| eval_term(reg, *t)).sum();
        let rhs: u128 = inv.rhs.iter().map(|t| eval_term(reg, *t)).sum();
        let holds = match inv.rel {
            Rel::Eq => lhs == rhs,
            Rel::Le => lhs <= rhs,
        };
        if !holds {
            report.violations.push(Violation {
                name: inv.name,
                lhs,
                rhs,
                detail: format!(
                    "invariant `{}` violated: {}, expected {} {} ({})",
                    inv.name,
                    describe_side(inv.lhs, lhs),
                    inv.rel.as_str(),
                    describe_side(inv.rhs, rhs),
                    inv.doc,
                ),
            });
        }
    }
    report
}

/// Every pattern the law table ranges over (terms and guards, both
/// scopes), in table order with repeats removed.
fn law_patterns() -> Vec<&'static str> {
    let mut out: Vec<&'static str> = Vec::new();
    for inv in INVARIANTS {
        for p in inv
            .lhs
            .iter()
            .chain(inv.rhs)
            .map(|t| t.pattern())
            .chain(inv.guard)
        {
            if !out.contains(&p) {
                out.push(p);
            }
        }
    }
    out
}

/// Names that share a family's literal prefix but not its pattern, or
/// that `*` must not reach across segments.
const NEAR_MISSES: &[&str] = &[
    "cpu.core3.class",
    "cpu.core12.class",
    "cpu.core.user_ns",
    "cpu.coreX.user_ns",
    "cpu.core1x.user_ns",
    "cpu.core0",
    "cpu.total",
    "run.devices.count",
    "devices.kind",
    "dev.kind",
    "devX.kind",
    "dev0.kind.extra",
    "dev.ssrs_raised",
    "qos.class.requests",
    "qos.classX.requests",
    "qos.classes.requests",
    "kernel.interrupts.core",
    "kernel.interrupts",
    "iommu",
    "bench.cell.elapsed_ns",
    "bench.cell.a.b.elapsed_ns",
    "bench.cells.x",
    "bench.total",
];

/// Indices for `N` families: single and multi-digit, leading zeros.
const INDICES: &[&str] = &["0", "1", "2", "7", "10", "12", "99", "123", "01"];

/// Segments a `*` stands for (the bench cell ids).
const CELL_IDS: &[&str] = &["x264-ubench-r0", "c", "a-b-r12", "cell"];

/// A concrete name for `pattern`: each `N` family segment takes an
/// index and each `*` a cell id, chosen by `pick`.
fn instantiate(pattern: &str, pick: u64) -> String {
    let mut draw = pick;
    pattern
        .split('.')
        .map(|seg| {
            let choice = draw as usize;
            draw = draw.rotate_right(7) ^ 0x9e37_79b9;
            if seg == "*" {
                CELL_IDS[choice % CELL_IDS.len()].to_string()
            } else if let Some(stem) = seg.strip_suffix('N') {
                format!("{stem}{}", INDICES[choice % INDICES.len()])
            } else {
                seg.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join(".")
}

/// A synthetic value of one of the four kinds, from one draw.
fn synthetic_value(kind: u8, v: u64) -> MetricValue {
    match kind % 6 {
        // Counters dominate and stay small, so sides collide often
        // enough that equalities hold as well as break.
        0..=2 => MetricValue::Counter(v % 5),
        3 => MetricValue::Gauge(v as f64 / 8.0),
        4 => MetricValue::Label(format!("l{v}")),
        _ => {
            let mut h = hiss_sim::Histogram::new();
            h.record(hiss_sim::Ns::from_nanos(v % 10_000 + 1));
            MetricValue::Histogram(hiss_obs::HistogramSnapshot::from_histogram(&h))
        }
    }
}

/// Whether `name` contributes to one side of `terms` as a summed
/// counter.
fn in_sums(name: &str, terms: &[Term]) -> bool {
    terms
        .iter()
        .any(|t| matches!(t, Term::Sum(_)) && pattern_matches(t.pattern(), name))
}

#[test]
fn untouched_snapshot_audits_clean_and_round_trips_byte_for_byte() {
    let reg = base_snapshot();
    let report = audit(reg, Scope::Run);
    assert!(report.clean(), "{:?}", report.violations);
    assert!(report.checked > 0, "no run-scope laws were evaluated");

    let json = reg.to_json();
    let back = MetricsRegistry::from_json(&json).expect("round trip parses");
    assert_eq!(back.to_json(), json, "round trip must be byte-identical");
    assert!(audit(&back, Scope::Run).clean());
}

/// For every equality law, bumping a counter that appears on exactly
/// one of its sides must produce a violation naming that law. This is
/// the sanitizer's whole job stated as a sweep: no single-counter
/// corruption of a conserved quantity goes unnoticed.
#[test]
fn every_one_sided_bump_on_an_equality_is_flagged() {
    // The default corpus leaves the guarded class laws dormant; the
    // criticality corpus arms them, so together the sweep covers the
    // whole equality table.
    let exercised = one_sided_bump_sweep(base_snapshot());
    assert!(
        exercised.len() >= 5,
        "only {exercised:?} equality laws exercised"
    );
    // The device-split laws tie `devN.*` to the run's GPU/auxiliary totals.
    for law in ["device_ssr_split", "gpu_iterations_total"] {
        assert!(
            exercised.contains(&law),
            "{law} not exercised: {exercised:?}"
        );
    }
    let with_classes = one_sided_bump_sweep(crit_snapshot());
    assert!(
        with_classes.len() >= exercised.len() + 6,
        "class corpus exercised only {with_classes:?} (base {exercised:?})"
    );
}

/// Bumps one counter per applicable equality law and returns the names
/// of the laws it exercised.
fn one_sided_bump_sweep(base: &MetricsRegistry) -> Vec<&'static str> {
    let names = counter_names(base);
    let mut exercised = Vec::new();
    for inv in invariants_for(Scope::Run).filter(|i| i.rel == Rel::Eq) {
        if !guard_applies(inv, base) {
            continue; // guarded law whose marker this corpus lacks
        }
        let Some(name) = names
            .iter()
            .find(|n| in_sums(n, inv.lhs) != in_sums(n, inv.rhs))
        else {
            continue; // law over families this workload never publishes
        };
        exercised.push(inv.name);
        let mut reg = base.clone();
        let old = reg.counter_value(name).unwrap();
        reg.counter(name.clone(), old + 1);
        let report = audit(&reg, Scope::Run);
        assert!(
            report.violations.iter().any(|v| v.name == inv.name),
            "bumping `{name}` did not trip `{}`: {:?}",
            inv.name,
            report.violations
        );
    }
    exercised
}

/// The per-class split laws police exactly the runs that carry classes:
/// dormant (and unfireable) on a default snapshot, armed and tight on a
/// criticality snapshot.
#[test]
fn guarded_class_laws_police_only_runs_that_carry_classes() {
    let base = base_snapshot();
    assert!(base.counter_value("qos.classes").is_none());
    let base_checked = audit(base, Scope::Run).checked;

    let crit = crit_snapshot();
    let report = audit(crit, Scope::Run);
    assert!(report.clean(), "{:?}", report.violations);
    assert!(
        report.checked >= base_checked + 6,
        "class marker must arm the guarded laws: {} vs {}",
        report.checked,
        base_checked
    );

    // A single lost best-effort request is caught by the armed split law.
    let mut reg = crit.clone();
    let old = reg.counter_value("qos.class1.requests").unwrap();
    reg.counter("qos.class1.requests".to_string(), old + 1);
    let broken = audit(&reg, Scope::Run);
    assert!(
        broken
            .violations
            .iter()
            .any(|v| v.name == "class_requests_split"),
        "{:?}",
        broken.violations
    );
}

/// Multi-digit indices feed their family's sums; names that only share
/// a family's literal prefix (the per-core class labels, `run.devices`
/// beside `devN.*`, a `*` that would have to span two segments) and
/// non-counter values under `Sum` patterns feed nothing.
#[test]
fn multi_digit_indices_and_near_misses_tally_like_the_oracle() {
    let mut reg = MetricsRegistry::new();
    reg.counter("cpu.core2.user_ns", 5);
    reg.counter("cpu.core12.user_ns", 7);
    reg.label("cpu.core12.class", "critical");
    reg.counter("cpu.core.user_ns", 100);
    reg.counter("cpu.total.user_ns", 12);
    reg.counter("run.devices", 2);
    reg.label("dev0.kind", "gpu");
    reg.label("dev10.kind", "nic");
    reg.label("devices.kind", "none");
    reg.counter("dev10.ssrs_raised", 4);
    reg.counter("run.gpu_ssrs_raised", 4);
    reg.gauge("dev0.ssrs_raised", 3.0);
    reg.counter("qos.classes", 2);
    reg.counter("qos.class1.requests", 4);
    reg.counter("qos.class10.requests", 1);
    reg.counter("iommu.requests", 4);
    reg.counter("iommu.drained", 4);
    reg.counter("qos.class10.drained", 4);
    let report = audit(&reg, Scope::Run);
    assert_eq!(report, naive_audit(&reg, Scope::Run));
    let broken: Vec<(&str, u128, u128)> = report
        .violations
        .iter()
        .map(|v| (v.name, v.lhs, v.rhs))
        .collect();
    assert_eq!(broken, [("class_requests_split", 5, 4)], "{report:?}");

    let mut bench = MetricsRegistry::new();
    bench.counter("bench.cells", 2);
    bench.counter("bench.cell.a-b-r0.elapsed_ns", 10);
    bench.counter("bench.cell.c-d-r12.elapsed_ns", 20);
    bench.counter("bench.cell.a.b.elapsed_ns", 1_000);
    let mut h = hiss_sim::Histogram::new();
    h.record(hiss_sim::Ns::from_nanos(50));
    bench.histogram("bench.cell.e-f-r1.walker_walks", &h);
    bench.counter("bench.total.elapsed_ns", 30);
    bench.counter("bench.total.walker_walks", 0);
    let report = audit(&bench, Scope::Bench);
    assert_eq!(report, naive_audit(&bench, Scope::Bench));
    assert!(report.clean(), "{:?}", report.violations);
}

/// The boundary case of the calendar bound: popped = pushed is legal,
/// popped = pushed + 1 is not, and the violation names the law with
/// both sides of the failed comparison.
#[test]
fn calendar_bound_is_tight() {
    let pushed = base_snapshot().counter_value("run.events_pushed").unwrap();

    let mut reg = base_snapshot().clone();
    reg.counter("run.events_popped", pushed);
    assert!(audit(&reg, Scope::Run).clean());

    reg.counter("run.events_popped", pushed + 1);
    let report = audit(&reg, Scope::Run);
    let v = report
        .violations
        .iter()
        .find(|v| v.name == "events_popped_bounded")
        .expect("overshoot must be flagged");
    assert!(v.detail.contains("run.events_popped"), "{}", v.detail);
    assert!(v.detail.contains(&(pushed + 1).to_string()), "{}", v.detail);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Differential sweep: perturb one arbitrary counter by an
    /// arbitrary amount in either direction; the auditor must report
    /// exactly the laws the naive evaluator says are broken — no
    /// misses, no false alarms — and any one-sided hit on an equality
    /// must surface.
    #[test]
    fn audit_agrees_with_naive_reevaluation_under_mutation(
        idx in 0usize..10_000,
        delta in 1u64..1_001,
        bump_up in any::<bool>(),
    ) {
        let base = base_snapshot();
        let names = counter_names(base);
        let name = &names[idx % names.len()];
        let mut reg = base.clone();
        let old = reg.counter_value(name).unwrap();
        let new = if bump_up {
            old.saturating_add(delta)
        } else {
            old.saturating_sub(delta)
        };
        reg.counter(name.clone(), new);

        let report = audit(&reg, Scope::Run);
        prop_assert_eq!(&report, &naive_audit(&reg, Scope::Run));
        let got: Vec<&str> = report.violations.iter().map(|v| v.name).collect();

        if new != old {
            for inv in invariants_for(Scope::Run).filter(|i| i.rel == Rel::Eq) {
                if guard_applies(inv, &reg) && in_sums(name, inv.lhs) != in_sums(name, inv.rhs) {
                    prop_assert!(
                        got.contains(&inv.name),
                        "mutating `{}` must trip `{}`",
                        name,
                        inv.name
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Differential sweep over synthetic registries built from the law
    /// table's own patterns: multi-digit and zero-padded indices, `*`
    /// cell ids, near-miss names, and gauges, labels and histograms
    /// under `Sum` patterns. Both scopes are audited on every
    /// registry, and the full reports must match the oracle.
    #[test]
    fn audit_agrees_with_naive_reevaluation_on_synthetic_registries(
        entries in proptest::collection::vec((0usize..1_000, any::<u64>(), 0u8..6, 0u64..1_000), 0..48),
        base in 0u8..3,
    ) {
        let patterns = law_patterns();
        let mut reg = match base {
            0 => MetricsRegistry::new(),
            1 => base_snapshot().clone(),
            _ => crit_snapshot().clone(),
        };
        for (which, pick, kind, v) in entries {
            let name = if which % 4 == 0 {
                NEAR_MISSES[which / 4 % NEAR_MISSES.len()].to_string()
            } else {
                instantiate(patterns[which % patterns.len()], pick)
            };
            reg.set(name, synthetic_value(kind, v));
        }
        for scope in [Scope::Run, Scope::Bench] {
            prop_assert_eq!(audit(&reg, scope), naive_audit(&reg, scope));
        }
    }
}
