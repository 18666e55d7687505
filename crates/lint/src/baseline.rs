//! The bench-baseline half of the metric-schema pass: every entry in
//! the committed `BENCH_BASELINE.json` must live in the `bench.*`
//! namespace and resolve in the [`hiss_obs::schema`] declaration with
//! the declared kind (`HL203`). This keeps the baseline — which
//! `hiss-cli bench check` gates CI on — from drifting into names or
//! types no component publishes.
//!
//! The file is JSON-lines: one [`hiss_obs::MetricsRegistry`] snapshot
//! per line (see `hiss_bench::baseline` for the writer/reader).
//! Unparseable lines are reported as `HL203` too, with the line number,
//! so a truncated or hand-mangled baseline cannot lint clean.

use hiss_obs::schema::{self, MetricKind, Scope};
use hiss_obs::{MetricValue, MetricsRegistry};

use crate::diag::{nearest, Code, Diagnostic};

/// The kind a stored value actually has.
fn kind_of(value: &MetricValue) -> MetricKind {
    match value {
        MetricValue::Counter(_) => MetricKind::Counter,
        MetricValue::Gauge(_) => MetricKind::Gauge,
        MetricValue::Label(_) => MetricKind::Label,
        MetricValue::Histogram(_) => MetricKind::Histogram,
    }
}

/// Lints baseline text against the schema. `file` is the label used in
/// diagnostics; lines are 1-based.
pub fn check_baseline(file: &str, text: &str) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let bench_patterns: Vec<&str> = schema::SCHEMA
        .iter()
        .filter(|e| e.scope == Scope::Bench)
        .map(|e| e.pattern)
        .collect();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let reg = match MetricsRegistry::from_json(line) {
            Ok(reg) => reg,
            Err(e) => {
                diags.push(Diagnostic::new(
                    Code::BenchMetricNotInSchema,
                    Some(file),
                    line_no,
                    format!("unparseable snapshot line: {e}"),
                ));
                continue;
            }
        };
        for (name, value) in reg.iter() {
            if !name.starts_with("bench.") {
                diags.push(Diagnostic::new(
                    Code::BenchMetricNotInSchema,
                    Some(file),
                    line_no,
                    format!("`{name}` is outside the bench.* namespace"),
                ));
                continue;
            }
            let Some(entry) = schema::lookup(name) else {
                let mut msg = format!("`{name}` is not in the hiss-obs schema");
                if let Some(suggestion) = nearest(name, &bench_patterns) {
                    msg.push_str(&format!(" (did you mean `{suggestion}`?)"));
                }
                diags.push(Diagnostic::new(
                    Code::BenchMetricNotInSchema,
                    Some(file),
                    line_no,
                    msg,
                ));
                continue;
            };
            let actual = kind_of(value);
            if entry.kind != actual {
                diags.push(Diagnostic::new(
                    Code::BenchMetricNotInSchema,
                    Some(file),
                    line_no,
                    format!(
                        "`{name}` is declared as a {} but stored as a {}",
                        entry.kind.as_str(),
                        actual.as_str()
                    ),
                ));
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(fill: impl FnOnce(&mut MetricsRegistry)) -> String {
        let mut reg = MetricsRegistry::new();
        fill(&mut reg);
        reg.to_json()
    }

    #[test]
    fn conforming_baseline_lines_lint_clean() {
        let text = format!(
            "{}\n{}\n",
            line(|r| {
                r.label("bench.baseline.version", "1");
                r.label("bench.baseline.reason", "initial");
            }),
            line(|r| {
                r.label("bench.suite", "engine");
                r.counter("bench.cells", 1);
                r.counter("bench.cell.x264-ubench-r0.events_pushed", 42);
                r.counter("bench.total.events_pushed", 42);
            }),
        );
        let diags = check_baseline("BENCH_BASELINE.json", &text);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn unknown_and_misplaced_names_are_flagged_with_lines() {
        let text = format!(
            "{}\n{}\n{}\n",
            line(|r| r.counter("kernel.ipis", 1)),
            line(|r| r.counter("bench.total.typo_counter", 1)),
            // Suites publish no wall-clock, so a stale timing gauge
            // left in a baseline names nothing the schema declares.
            line(|r| r.gauge("bench.wall.t1.s", 0.25)),
        );
        let diags = check_baseline("BENCH_BASELINE.json", &text);
        assert_eq!(diags.len(), 3, "{diags:?}");
        assert!(diags[0].msg.contains("outside the bench.* namespace"));
        assert_eq!(diags[0].line, 1);
        assert!(diags[1].msg.contains("not in the hiss-obs schema"));
        assert_eq!(diags[1].line, 2);
        assert!(diags[2]
            .msg
            .contains("`bench.wall.t1.s` is not in the hiss-obs schema"));
        assert_eq!(diags[2].line, 3);
        assert!(diags.iter().all(|d| d.code == Code::BenchMetricNotInSchema));
    }

    #[test]
    fn kind_mismatch_is_flagged() {
        // bench.cells is declared as a counter; store it as a label.
        let text = line(|r| r.label("bench.cells", "3"));
        let diags = check_baseline("b.json", &text);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(
            diags[0]
                .msg
                .contains("declared as a counter but stored as a label"),
            "{}",
            diags[0].msg
        );
    }

    #[test]
    fn unparseable_lines_are_flagged_not_skipped() {
        let diags = check_baseline("b.json", "{not json\n");
        assert_eq!(diags.len(), 1);
        assert!(diags[0].msg.contains("unparseable"), "{}", diags[0].msg);
        assert_eq!(diags[0].line, 1);
    }

    #[test]
    fn near_miss_names_get_a_suggestion() {
        let text = line(|r| r.counter("bench.cellz", 1));
        let diags = check_baseline("b.json", &text);
        assert_eq!(diags.len(), 1);
        assert!(
            diags[0].msg.contains("did you mean `bench.cells`?"),
            "{}",
            diags[0].msg
        );
    }
}
