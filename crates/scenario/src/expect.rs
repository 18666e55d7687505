//! Evaluation of `[expect]` metric bands against batch results — the
//! mechanism that turns committed scenario files into a golden
//! regression harness.

use crate::compile::Row;
use crate::spec::{Agg, Expect, Scenario, IDLE_CPU};

/// One failed expectation.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Scenario file the band came from, when known ([`crate::load`]
    /// records it on the scenario; `from_str` scenarios have none).
    pub file: Option<String>,
    /// Line of the `[expect]` band (or `[run] rows`) in the scenario
    /// file.
    pub line: usize,
    /// Human-readable description of the failure.
    pub msg: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (&self.file, self.line) {
            (Some(file), 0) => write!(f, "{file}: {}", self.msg),
            (Some(file), line) => write!(f, "{file}:{line}: {}", self.msg),
            (None, 0) => write!(f, "{}", self.msg),
            (None, line) => write!(f, "line {line}: {}", self.msg),
        }
    }
}

/// Aggregates the selected values, or `None` when there are none — an
/// empty selection has no minimum or maximum. The fold identities
/// (±INFINITY) are not real data: they render as nonsense `actual inf`
/// reports and silently satisfy a band whose matching bound is itself
/// infinite, so the caller reports the empty selection explicitly.
fn aggregate(agg: Agg, values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some(match agg {
        Agg::Mean => hiss_sim::mean(values),
        Agg::Min => values.iter().copied().fold(f64::INFINITY, f64::min),
        Agg::Max => values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    })
}

/// Evaluates one band against the rows. `file` attributes any violation
/// to the scenario file the band came from.
pub fn check_band(expect: &Expect, rows: &[Row], file: Option<&str>) -> Option<Violation> {
    let violation = |msg: String| {
        Some(Violation {
            file: file.map(str::to_string),
            line: expect.line,
            msg,
        })
    };
    let mut values = Vec::with_capacity(rows.len());
    for row in rows {
        match (expect.metric.value)(row) {
            Some(v) => values.push(v),
            None => {
                let why = if row.cpu_app == IDLE_CPU {
                    "runs no CPU application"
                } else {
                    "did not finish its CPU application within the simulation-time cap"
                };
                return violation(format!(
                    "{}: cell {}×{} {why}",
                    expect.describe(),
                    row.cpu_app,
                    row.gpu_app
                ));
            }
        }
    }
    let Some(actual) = aggregate(expect.agg, &values) else {
        return violation(format!(
            "{}: no result rows to aggregate",
            expect.describe()
        ));
    };
    if actual < expect.lo || actual > expect.hi || actual.is_nan() {
        return violation(format!("{}: actual {actual}", expect.describe()));
    }
    None
}

/// Evaluates every expectation of a scenario (the pinned row count plus
/// all metric bands) against its batch results.
pub fn check(sc: &Scenario, rows: &[Row]) -> Vec<Violation> {
    let file = sc.source.as_deref();
    let mut violations = Vec::new();
    if let Some(want) = sc.expected_rows {
        if rows.len() != want {
            violations.push(Violation {
                file: file.map(str::to_string),
                line: 0,
                msg: format!("expected {want} result rows, got {}", rows.len()),
            });
        }
    }
    for expect in &sc.expects {
        violations.extend(check_band(expect, rows, file));
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Scenario;

    fn row(cpu_perf: f64, p99_us: f64) -> Row {
        Row {
            cpu_app: "x264".into(),
            gpu_app: "ubench".into(),
            axes: Vec::new(),
            replica: 0,
            cpu_perf: Some(cpu_perf),
            gpu_perf: 0.9,
            cpu_runtime_ns: Some(1),
            gpu_throughput: 0.5,
            ssr_rate: 1000.0,
            ssrs_serviced: 10,
            mean_ssr_latency_us: 20.0,
            p99_ssr_latency_us: p99_us,
            cc6_residency: 0.1,
            ssr_overhead: 0.05,
            ipis: 3,
            qos_deferrals: 0,
            aux_ssrs_raised: 0,
            critical_p99_latency_us: 0.0,
            events_pushed: 100,
            events_popped: 90,
        }
    }

    fn scenario(expects: &str) -> Scenario {
        Scenario::from_str(&format!(
            "[scenario]\nname = \"t\"\n[workload]\ncpu = [\"x264\"]\ngpu = [\"ubench\"]\n\
             [expect]\n{expects}"
        ))
        .unwrap()
    }

    #[test]
    fn bands_pass_and_fail_on_aggregates() {
        let sc = scenario("mean_cpu_perf = [0.5, 0.8]\nmax_p99_latency_us = [0, 100]\n");
        let ok = vec![row(0.6, 50.0), row(0.7, 99.0)];
        assert!(check(&sc, &ok).is_empty());

        let bad = vec![row(0.6, 50.0), row(0.95, 150.0)];
        let violations = check(&sc, &bad);
        assert_eq!(violations.len(), 1, "{violations:?}"); // mean 0.775 ok, p99 150 > 100
        assert!(violations[0].msg.contains("max_p99_latency_us"));
        assert!(violations[0].msg.contains("150"));
    }

    #[test]
    fn min_aggregation() {
        let sc = scenario("min_cpu_perf = [0.65, 1.0]\n");
        assert!(check(&sc, &[row(0.7, 1.0), row(0.8, 1.0)]).is_empty());
        let v = check(&sc, &[row(0.7, 1.0), row(0.6, 1.0)]);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn unfinished_cpu_app_is_a_violation() {
        let sc = scenario("mean_cpu_perf = [0.0, 1.0]\n");
        let mut r = row(0.5, 1.0);
        r.cpu_perf = None;
        let v = check(&sc, &[r.clone()]);
        assert_eq!(v.len(), 1);
        assert!(v[0].msg.contains("did not finish"), "{}", v[0].msg);
        r.cpu_app = IDLE_CPU.into();
        let v = check(&sc, &[r]);
        assert_eq!(
            v[0].msg,
            "mean_cpu_perf in [0, 1]: cell idle×ubench runs no CPU application"
        );
    }

    #[test]
    fn empty_rows_violate_every_band() {
        let sc = scenario("mean_gpu_perf = [0.0, 1.0]\n");
        let v = check(&sc, &[]);
        assert_eq!(v.len(), 1);
        assert!(v[0].msg.contains("no result rows"), "{}", v[0].msg);
    }

    #[test]
    fn min_and_max_over_empty_selection_are_violations_not_infinities() {
        // Regression: `aggregate` used to fold Min/Max from ±INFINITY,
        // so over an empty selection a `min_*` band saw +INFINITY
        // (silently PASSING any `[lo, ∞)`-shaped band) and a `max_*`
        // band saw -INFINITY. Both must be reported as violations.
        let sc = scenario("min_cpu_perf = [0.5, 1.0]\nmax_p99_latency_us = [0, 100]\n");
        let v = check(&sc, &[]);
        assert_eq!(v.len(), 2, "{v:?}");
        for violation in &v {
            assert!(
                violation.msg.contains("no result rows"),
                "{}",
                violation.msg
            );
            assert!(!violation.msg.contains("inf"), "{}", violation.msg);
        }
    }

    #[test]
    fn violations_carry_the_scenario_source_file() {
        let mut sc = scenario("mean_gpu_perf = [10.0, 11.0]\n");
        sc.source = Some("scenarios/demo.hiss".to_string());
        let v = check(&sc, &[row(0.5, 1.0)]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].file.as_deref(), Some("scenarios/demo.hiss"));
        let rendered = v[0].to_string();
        assert!(rendered.starts_with("scenarios/demo.hiss:"), "{rendered}");
        // Line is embedded between the file and the message.
        assert!(
            rendered.contains(&format!(":{}: ", v[0].line)),
            "{rendered}"
        );

        // Without a source, rendering falls back to the line-only form.
        let sc = scenario("mean_gpu_perf = [10.0, 11.0]\n");
        let v = check(&sc, &[row(0.5, 1.0)]);
        assert!(v[0].to_string().starts_with("line "), "{}", v[0]);
    }

    #[test]
    fn pinned_row_count() {
        let mut sc = scenario("mean_gpu_perf = [0.0, 1.0]\n");
        sc.expected_rows = Some(2);
        let v = check(&sc, &[row(0.5, 1.0)]);
        assert_eq!(v.len(), 1);
        assert!(v[0].msg.contains("expected 2 result rows"), "{}", v[0].msg);
    }
}
