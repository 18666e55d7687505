//! The conservation-law half of the static analysis: snapshot files are
//! audited against the declared invariant table
//! ([`hiss_obs::invariants`]) without running anything.
//!
//! - [`check_baseline_invariants`] (`HL402`) re-audits every snapshot
//!   line of the committed `BENCH_BASELINE.json` at [`Scope::Bench`], so
//!   a baseline whose `bench.total.X` counters stop agreeing with their
//!   per-cell sums — a hand-edit, a bad merge, a writer bug — cannot
//!   lint clean even though every individual name still resolves in the
//!   schema (`HL203` checks names; this pass checks the arithmetic
//!   *between* them).
//! - [`check_snapshot_invariants`] (`HL403`) audits run-registry
//!   snapshot lines (`hiss-cli report <file> --sanitize`) at
//!   [`Scope::Run`], surfacing the runtime sanitizer's findings as
//!   `file:line` diagnostics for snapshots produced elsewhere.
//! - [`check_dead_metrics`] (`HL404`) is the coverage direction: every
//!   schema entry must be exercised by *something* committed — a
//!   scenario `[expect]`, a baseline entry, a documentation row — or it
//!   is dead namespace the next metric-family PR will trip over.

use std::collections::BTreeSet;

use hiss_obs::invariants::{audit, AuditReport};
use hiss_obs::schema::{self, Scope};
use hiss_obs::MetricsRegistry;

use crate::diag::{Code, Diagnostic};

/// Runs `scope`'s conservation laws over each JSON-lines snapshot of
/// `text`, attributing violations (and unparseable lines) to
/// `file:line` under `code`.
fn check_lines(file: &str, text: &str, scope: Scope, code: Code) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
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
                    code,
                    Some(file),
                    line_no,
                    format!("unparseable snapshot line: {e}"),
                ));
                continue;
            }
        };
        let AuditReport { violations, .. } = audit(&reg, scope);
        for v in violations {
            diags.push(Diagnostic::new(code, Some(file), line_no, v.detail));
        }
    }
    diags
}

/// Lints the committed bench baseline against the bench-scope
/// conservation laws (`HL402`). `file` labels diagnostics; lines are
/// 1-based snapshot lines.
pub fn check_baseline_invariants(file: &str, text: &str) -> Vec<Diagnostic> {
    check_lines(file, text, Scope::Bench, Code::BaselineInvariantViolated)
}

/// Audits run-registry snapshot lines against the run-scope
/// conservation laws (`HL403`) — the static face of the runtime
/// sanitizer, for snapshot files produced by `scenario run --metrics`
/// or served out of a disk store.
pub fn check_snapshot_invariants(file: &str, text: &str) -> Vec<Diagnostic> {
    check_lines(file, text, Scope::Run, Code::RunInvariantViolated)
}

/// Flags schema entries no committed artifact exercises (`HL404`).
///
/// `exercised` is the union of names gathered by the caller: scenario
/// `[expect]` registry mappings, every name in `BENCH_BASELINE.json`,
/// every backticked name in `docs/OBSERVABILITY.md`. Members follow the
/// documentation conventions — concrete (`cpu.core0.user_ns`),
/// placeholder-spelled (`cpu.coreN.user_ns`), or prefix-wildcarded
/// (`bench.pool.*`) — and an entry counts as exercised when any member covers
/// its pattern. Diagnostics are attributed to `attribute_to` (the
/// artifact where coverage should be added).
pub fn check_dead_metrics(exercised: &BTreeSet<String>, attribute_to: &str) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for entry in schema::SCHEMA {
        let covered = exercised
            .iter()
            .any(|name| crate::docs::doc_name_covers(name, entry.pattern));
        if !covered {
            diags.push(Diagnostic::new(
                Code::DeadMetric,
                Some(attribute_to),
                0,
                format!(
                    "schema entry `{}` is exercised by no committed scenario, \
                     bench suite, or doc — document it or remove it",
                    entry.pattern
                ),
            ));
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
    fn consistent_baseline_lines_pass() {
        let text = format!(
            "{}\n{}\n",
            line(|r| {
                r.label("bench.baseline.version", "1");
                r.label("bench.baseline.reason", "initial");
            }),
            line(|r| {
                r.label("bench.suite", "engine");
                r.counter("bench.cells", 1);
                r.counter("bench.cell.x264-ubench-r0.elapsed_ns", 42);
                r.counter("bench.total.elapsed_ns", 42);
            }),
        );
        let diags = check_baseline_invariants("BENCH_BASELINE.json", &text);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn total_not_matching_cell_sum_is_flagged_with_file_and_line() {
        let text = format!(
            "{}\n{}\n",
            line(|r| r.label("bench.baseline.version", "1")),
            line(|r| {
                r.label("bench.suite", "engine");
                r.counter("bench.cells", 2);
                r.counter("bench.cell.a-b-r0.elapsed_ns", 40);
                r.counter("bench.cell.c-d-r0.elapsed_ns", 2);
                r.counter("bench.total.elapsed_ns", 41);
            }),
        );
        let diags = check_baseline_invariants("BENCH_BASELINE.json", &text);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::BaselineInvariantViolated);
        assert_eq!(diags[0].file.as_deref(), Some("BENCH_BASELINE.json"));
        assert_eq!(diags[0].line, 2);
        assert!(
            diags[0].msg.contains("bench_elapsed_ns_total"),
            "{}",
            diags[0].msg
        );
        assert!(
            diags[0].to_string().starts_with("BENCH_BASELINE.json:2: "),
            "{}",
            diags[0]
        );
    }

    #[test]
    fn run_snapshot_violations_surface_as_hl403() {
        let good = line(|r| {
            r.counter("run.events_pushed", 10);
            r.counter("run.events_popped", 10);
        });
        let bad = line(|r| {
            r.counter("run.events_pushed", 10);
            r.counter("run.events_popped", 11);
        });
        let text = format!("{good}\n{bad}\n");
        let diags = check_snapshot_invariants("runs.jsonl", &text);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::RunInvariantViolated);
        assert_eq!(diags[0].line, 2);
        assert!(
            diags[0].msg.contains("events_popped_bounded"),
            "{}",
            diags[0].msg
        );
    }

    #[test]
    fn unparseable_snapshot_lines_are_flagged() {
        let diags = check_snapshot_invariants("runs.jsonl", "{nope\n");
        assert_eq!(diags.len(), 1);
        assert!(diags[0].msg.contains("unparseable"), "{}", diags[0].msg);
    }

    #[test]
    fn dead_metrics_are_flagged_and_full_coverage_is_clean() {
        // Exercise everything: quote each pattern spelling verbatim.
        let all: BTreeSet<String> = schema::SCHEMA
            .iter()
            .map(|e| e.pattern.to_string())
            .collect();
        assert!(check_dead_metrics(&all, "docs/OBSERVABILITY.md").is_empty());

        // Drop one entry: exactly that entry is reported dead.
        let mut partial = all.clone();
        partial.remove("kernel.ipis");
        let diags = check_dead_metrics(&partial, "docs/OBSERVABILITY.md");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::DeadMetric);
        assert!(diags[0].msg.contains("`kernel.ipis`"), "{}", diags[0].msg);

        // Concrete names exercise their indexed family.
        let mut concrete = all;
        concrete.remove("cpu.coreN.user_ns");
        concrete.insert("cpu.core0.user_ns".to_string());
        assert!(check_dead_metrics(&concrete, "d.md").is_empty());
    }
}
