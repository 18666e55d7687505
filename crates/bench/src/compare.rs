//! The bench comparator: fresh suite snapshots vs the committed
//! baseline, with per-counter tolerance classes.
//!
//! Every metric name falls into exactly one class:
//!
//! | class | names | tolerance |
//! |---|---|---|
//! | allocation | `bench.alloc.*` | ±[`ALLOC_BAND`] relative band |
//! | counter | any other counter | exact |
//! | identity | labels | exact |
//!
//! Deterministic work counters get no band at all: the simulator is
//! bit-reproducible, so *any* drift is a real behaviour change (or an
//! intentional one, recorded via `bench update --reason`). Allocation
//! counts are deterministic for a fixed toolchain but legitimately move
//! when `std` internals change, hence the band.
//!
//! Every finding is a violation, and so are missing/extra names and
//! whole suites.

use hiss_obs::{MetricValue, MetricsRegistry};

use crate::baseline::{BaselineFile, SuiteSnapshot};

/// Relative tolerance band for `bench.alloc.*` counters.
pub const ALLOC_BAND: f64 = 0.25;

/// One comparator violation, anchored to the baseline line it concerns.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Suite the finding belongs to.
    pub suite: String,
    /// Metric name (empty for whole-suite findings).
    pub name: String,
    /// 1-based baseline line (0 when the suite is absent from the
    /// baseline entirely).
    pub line: usize,
    /// Human-readable explanation with both values.
    pub msg: String,
}

impl Finding {
    /// Renders `path:line: violation: suite: name: msg`, matching the
    /// `file:line:` shape of the lint diagnostics so editors can jump.
    pub fn render(&self, path: &str) -> String {
        let subject = if self.name.is_empty() {
            self.suite.clone()
        } else {
            format!("{} {}", self.suite, self.name)
        };
        format!("{path}:{}: violation: {subject}: {}", self.line, self.msg)
    }
}

/// Result of one `bench check` comparison.
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    /// All findings, in baseline order then name order.
    pub findings: Vec<Finding>,
}

impl Comparison {
    /// `true` when no violation was found.
    pub fn passed(&self) -> bool {
        self.findings.is_empty()
    }

    /// The findings as a label-only registry (`diff.<suite>.<name>` →
    /// `violation: msg`), so the existing obs renderers (`to_table`,
    /// `to_jsonl`) produce the table / JSON-lines diff.
    pub fn to_registry(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        for f in &self.findings {
            let key = if f.name.is_empty() {
                format!("diff.{}", f.suite)
            } else {
                format!("diff.{}.{}", f.suite, f.name)
            };
            reg.label(key, format!("violation: {}", f.msg));
        }
        reg
    }
}

fn show(v: &MetricValue) -> String {
    match v {
        MetricValue::Counter(c) => c.to_string(),
        MetricValue::Gauge(g) => format!("{g:?}"),
        MetricValue::Label(s) => format!("{s:?}"),
        MetricValue::Histogram(h) => format!("histogram(count={})", h.count),
    }
}

/// Compares one metric present in both snapshots.
fn compare_value(
    suite: &str,
    name: &str,
    line: usize,
    base: &MetricValue,
    fresh: &MetricValue,
    out: &mut Vec<Finding>,
) {
    let msg = if name.starts_with("bench.alloc.") {
        match (base, fresh) {
            (MetricValue::Counter(0), MetricValue::Counter(0)) => return,
            // No relative drift exists against nothing.
            (MetricValue::Counter(0), MetricValue::Counter(f)) => format!(
                "allocation grew from a zero baseline (baseline 0, fresh {f}); \
                 the ±{:.0}% band cannot absorb it",
                ALLOC_BAND * 100.0
            ),
            (MetricValue::Counter(b), MetricValue::Counter(f)) => {
                let (bf, ff) = (*b as f64, *f as f64);
                if (ff - bf).abs() / bf <= ALLOC_BAND {
                    return;
                }
                format!(
                    "allocation drifted {:+.1}% (baseline {b}, fresh {f}, band ±{:.0}%)",
                    (ff / bf - 1.0) * 100.0,
                    ALLOC_BAND * 100.0
                )
            }
            _ => format!(
                "alloc entry must be a counter (baseline {}, fresh {})",
                show(base),
                show(fresh)
            ),
        }
    } else if base != fresh {
        format!("baseline {} != fresh {}", show(base), show(fresh))
    } else {
        return;
    };
    out.push(Finding {
        suite: suite.to_string(),
        name: name.to_string(),
        line,
        msg,
    });
}

/// Compares fresh suite snapshots against a parsed baseline.
///
/// Order: suites in baseline order (then fresh-only suites), names in
/// registry (lexicographic) order — deterministic, so two runs render
/// byte-identical reports.
pub fn compare(baseline: &BaselineFile, fresh: &[SuiteSnapshot]) -> Comparison {
    let mut findings = Vec::new();

    for base in &baseline.suites {
        let finding = |name: &str, msg: String| Finding {
            suite: base.suite.clone(),
            name: name.to_string(),
            line: base.line,
            msg,
        };
        let Some(f) = fresh.iter().find(|s| s.suite == base.suite) else {
            findings.push(finding(
                "",
                "suite in baseline but not produced by this run".into(),
            ));
            continue;
        };
        // Names present in both, then baseline-only, then fresh-only.
        for (name, bval) in base.metrics.iter() {
            match f.metrics.get(name) {
                Some(fval) => {
                    compare_value(&base.suite, name, base.line, bval, fval, &mut findings);
                }
                None => findings.push(finding(
                    name,
                    format!("in baseline ({}) but missing from fresh run", show(bval)),
                )),
            }
        }
        for (name, fval) in f.metrics.iter() {
            if base.metrics.get(name).is_none() {
                findings.push(finding(
                    name,
                    format!(
                        "fresh run produced {} but the baseline has no such entry",
                        show(fval)
                    ),
                ));
            }
        }
    }

    for f in fresh {
        if baseline.suite(&f.suite).is_none() {
            findings.push(Finding {
                suite: f.suite.clone(),
                name: String::new(),
                line: 0,
                msg: "suite produced by this run but absent from the baseline".into(),
            });
        }
    }

    Comparison { findings }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline;

    fn snap(suite: &str, fill: impl FnOnce(&mut MetricsRegistry)) -> SuiteSnapshot {
        let mut m = MetricsRegistry::new();
        m.label("bench.suite", suite);
        fill(&mut m);
        SuiteSnapshot {
            line: 0,
            suite: suite.to_string(),
            metrics: m,
        }
    }

    fn base_file(suites: &[SuiteSnapshot]) -> BaselineFile {
        baseline::parse(&baseline::render("test", suites)).unwrap()
    }

    #[test]
    fn identical_snapshots_pass_clean() {
        let s = snap("engine", |m| {
            m.counter("bench.total.events_pushed", 42);
            m.counter("bench.alloc.bytes", 1000);
        });
        let cmp = compare(&base_file(std::slice::from_ref(&s)), &[s]);
        assert!(cmp.passed(), "{:?}", cmp.findings);
        assert!(cmp.findings.is_empty());
    }

    #[test]
    fn exact_counter_drift_of_one_is_a_violation() {
        let b = snap("engine", |m| m.counter("bench.total.events_pushed", 42));
        let f = snap("engine", |m| m.counter("bench.total.events_pushed", 43));
        let cmp = compare(&base_file(&[b]), &[f]);
        assert!(!cmp.passed());
        assert_eq!(cmp.findings.len(), 1);
        let fd = &cmp.findings[0];
        assert_eq!(fd.name, "bench.total.events_pushed");
        assert!(fd.msg.contains("42") && fd.msg.contains("43"), "{}", fd.msg);
        // The baseline line number points at the suite's JSON line.
        assert_eq!(fd.line, 2);
    }

    #[test]
    fn missing_baseline_key_is_a_violation() {
        let b = snap("engine", |m| {
            m.counter("bench.total.events_pushed", 42);
            m.counter("bench.cells", 3);
        });
        let f = snap("engine", |m| m.counter("bench.total.events_pushed", 42));
        let cmp = compare(&base_file(&[b]), &[f]);
        assert!(!cmp.passed());
        assert!(cmp.findings[0].msg.contains("missing from fresh run"));
        assert_eq!(cmp.findings[0].name, "bench.cells");

        // A stale wall-clock gauge is no exception: suites publish no
        // timing, so a leftover entry fails the check like any other.
        let stale = snap("engine", |m| {
            m.counter("bench.cells", 3);
            m.gauge("bench.wall.t1.s", 0.5);
        });
        let fresh = snap("engine", |m| m.counter("bench.cells", 3));
        let cmp = compare(&base_file(&[stale]), &[fresh]);
        assert!(!cmp.passed());
        assert_eq!(cmp.findings.len(), 1, "{:?}", cmp.findings);
        assert_eq!(cmp.findings[0].name, "bench.wall.t1.s");
        assert!(cmp.findings[0].msg.contains("missing from fresh run"));
    }

    #[test]
    fn extra_fresh_key_is_a_violation() {
        let b = snap("engine", |m| m.counter("bench.cells", 3));
        let f = snap("engine", |m| {
            m.counter("bench.cells", 3);
            m.counter("bench.total.events_pushed", 9);
        });
        let cmp = compare(&base_file(&[b]), &[f]);
        assert!(!cmp.passed());
        assert!(cmp.findings[0].msg.contains("no such entry"));
    }

    #[test]
    fn missing_and_extra_suites_are_violations() {
        let b = snap("engine", |m| m.counter("bench.cells", 1));
        let f = snap("fig3_quick", |m| m.counter("bench.cells", 1));
        let cmp = compare(&base_file(&[b]), &[f]);
        assert_eq!(cmp.findings.len(), 2);
        assert!(cmp
            .findings
            .iter()
            .any(|x| x.suite == "engine" && x.line == 2));
        assert!(cmp
            .findings
            .iter()
            .any(|x| x.suite == "fig3_quick" && x.line == 0));
    }

    #[test]
    fn alloc_band_tolerates_small_drift_and_flags_large() {
        let b = snap("engine", |m| m.counter("bench.alloc.bytes", 1000));
        let ok = snap("engine", |m| m.counter("bench.alloc.bytes", 1200));
        assert!(compare(&base_file(std::slice::from_ref(&b)), &[ok]).passed());
        let bad = snap("engine", |m| m.counter("bench.alloc.bytes", 1300));
        let cmp = compare(&base_file(&[b]), &[bad]);
        assert!(!cmp.passed());
        assert!(
            cmp.findings[0].msg.contains("+30.0%"),
            "{}",
            cmp.findings[0].msg
        );
    }

    #[test]
    fn alloc_zero_baseline_flags_any_nonzero_fresh() {
        let b = snap("engine", |m| m.counter("bench.alloc.bytes", 0));
        let same = snap("engine", |m| m.counter("bench.alloc.bytes", 0));
        assert!(compare(&base_file(std::slice::from_ref(&b)), &[same]).passed());
        let grew = snap("engine", |m| m.counter("bench.alloc.bytes", 1));
        let cmp = compare(&base_file(&[b]), &[grew]);
        assert!(!cmp.passed());
        // The message names the zero baseline instead of dividing by it.
        let msg = &cmp.findings[0].msg;
        assert!(
            msg.contains("zero baseline") && msg.contains("fresh 1"),
            "{msg}"
        );
        assert!(!msg.contains("inf"), "{msg}");
    }

    #[test]
    fn label_drift_is_a_violation() {
        let b = snap("engine", |m| m.label("bench.baseline.version", "x"));
        let f = snap("engine", |m| m.label("bench.baseline.version", "y"));
        assert!(!compare(&base_file(&[b]), &[f]).passed());
    }

    #[test]
    fn findings_render_file_line_style_and_registry_diff() {
        let b = snap("engine", |m| m.counter("bench.cells", 3));
        let f = snap("engine", |m| m.counter("bench.cells", 4));
        let cmp = compare(&base_file(&[b]), &[f]);
        let line = cmp.findings[0].render("BENCH_BASELINE.json");
        assert!(
            line.starts_with("BENCH_BASELINE.json:2: violation: engine bench.cells:"),
            "{line}"
        );
        let reg = cmp.to_registry();
        assert_eq!(reg.len(), 1);
        assert!(reg
            .label_value("diff.engine.bench.cells")
            .unwrap()
            .contains("violation"));
        // And it renders through the stock obs renderers.
        assert!(reg.to_table().contains("diff.engine.bench.cells"));
        assert!(reg.to_jsonl().contains("diff.engine.bench.cells"));
    }
}
