//! Scenario semantic lints (`HL000`–`HL011`, `HL201`): static analysis
//! of `.hiss` files with **no simulation executed**.
//!
//! Three layers run in order, stopping at the first that fails:
//!
//! 1. parse + schema validation (the existing [`crate::parse`] /
//!    [`crate::spec`] diagnostics, surfaced with their stable codes),
//! 2. semantic checks on the validated [`Scenario`] — bands that can
//!    never bind, degenerate or duplicated sweep grids (reusing the
//!    [`crate::compile`] lowering in dry-run mode), base keys a sweep
//!    axis shadows, pinned row counts that disagree with the grid,
//! 3. the metric-schema half-check: every `[expect]` metric's registry
//!    mapping must exist in [`hiss_obs::schema`].
//!
//! All findings report through [`hiss_lint::Diagnostic`]; the catalogue
//! with examples is `docs/LINTS.md`.

use std::collections::BTreeSet;
use std::path::Path;

use hiss_lint::{Code, Diagnostic};

use crate::parse::{Document, Section};
use crate::spec::{Agg, Field, Knobs, Metric, Scenario};

/// Lints one scenario file on disk. The path is the diagnostic label.
pub fn lint_file(path: &Path) -> Vec<Diagnostic> {
    let label = path.display().to_string();
    match std::fs::read_to_string(path) {
        Ok(text) => lint_text(&label, &text),
        Err(e) => vec![Diagnostic::new(
            Code::ScenarioInvalid,
            Some(&label),
            0,
            format!("cannot read file: {e}"),
        )],
    }
}

/// Lints scenario text, attributing findings to `file`.
pub fn lint_text(file: &str, text: &str) -> Vec<Diagnostic> {
    let doc = match crate::parse::parse(text) {
        Ok(doc) => doc,
        Err(e) => return vec![from_error(file, &e)],
    };
    let sc = match Scenario::from_document(&doc) {
        Ok(sc) => sc,
        Err(e) => return vec![from_error(file, &e)],
    };
    let mut diags = Vec::new();
    check_row_selection(file, &doc, &sc, &mut diags);
    check_contradictory_bands(file, &sc, &mut diags);
    check_sweep_axes(file, &sc, &mut diags);
    check_shadowed_base_keys(file, &doc, &sc, &mut diags);
    check_pinned_rows(file, &doc, &sc, &mut diags);
    check_expect_schema(file, &sc, &mut diags);
    check_invariant_bands(file, &sc, &mut diags);
    hiss_lint::diag::sort(&mut diags);
    diags
}

/// Converts a parse/validation error into a coded diagnostic.
fn from_error(file: &str, e: &crate::parse::ScenarioError) -> Diagnostic {
    Diagnostic::new(
        e.code.unwrap_or(Code::ScenarioInvalid),
        Some(file),
        e.line,
        e.msg.clone(),
    )
}

fn entry_line(doc: &Document, section: &str, key: &str) -> usize {
    doc.section(section)
        .and_then(|s| s.get(key))
        .map(|e| e.line)
        .unwrap_or(0)
}

/// HL003 — an empty quick-mode subset makes every `[expect]` band (and
/// the whole quick run) vacuous: zero cells, zero rows, nothing to
/// aggregate.
fn check_row_selection(file: &str, doc: &Document, sc: &Scenario, out: &mut Vec<Diagnostic>) {
    for (key, list) in [
        ("quick_cpu", &sc.workload.quick_cpu),
        ("quick_gpu", &sc.workload.quick_gpu),
    ] {
        if list.is_empty() {
            out.push(Diagnostic::new(
                Code::EmptyRowSelection,
                Some(file),
                entry_line(doc, "workload", key),
                format!(
                    "`{key} = []` selects no rows: quick mode produces an empty grid \
                     and no band can ever bind"
                ),
            ));
        }
    }
}

/// HL004 — a `min_*` band whose lower bound exceeds a `max_*` band's
/// upper bound over the same metric: the minimum of a selection can
/// never exceed its maximum, so the pair is unsatisfiable.
fn check_contradictory_bands(file: &str, sc: &Scenario, out: &mut Vec<Diagnostic>) {
    for min_band in sc.expects.iter().filter(|e| e.agg == Agg::Min) {
        for max_band in sc
            .expects
            .iter()
            .filter(|e| e.agg == Agg::Max && e.metric == min_band.metric)
        {
            if min_band.lo > max_band.hi {
                out.push(Diagnostic::new(
                    Code::ContradictoryBands,
                    Some(file),
                    min_band.line.max(max_band.line),
                    format!(
                        "bands `{}` and `{}` are contradictory: the minimum would have \
                         to be at least {} while the maximum stays at most {}",
                        min_band.key, max_band.key, min_band.lo, max_band.hi
                    ),
                ));
            }
        }
    }
}

/// Renders the observable part of resolved knobs for duplicate
/// detection (every field is `Debug`, and two cells with equal debug
/// renderings run the identical simulation).
fn knob_key(knobs: &Knobs) -> String {
    format!("{knobs:?}")
}

/// HL006/HL007/HL008 (per axis) — degenerate axes, literal duplicate
/// values, and distinct values that resolve to identical knobs (e.g.
/// the `"mono"` / `"monolithic"` combo aliases).
fn check_sweep_axes(file: &str, sc: &Scenario, out: &mut Vec<Diagnostic>) {
    let mut any_duplicates = false;
    for axis in &sc.sweeps {
        if axis.values.len() == 1 {
            out.push(Diagnostic::new(
                Code::DegenerateSweepAxis,
                Some(file),
                axis.line,
                format!(
                    "sweep axis {:?} has a single value; move it to [system]/[mitigation] \
                     or add more points",
                    axis.field.key
                ),
            ));
        }
        // Resolve each value against the base knobs in isolation; two
        // values with the same resolution duplicate every cell pair.
        let resolved: Vec<String> = axis
            .values
            .iter()
            .map(|v| {
                let mut scratch = sc.base;
                axis.field
                    .apply(&mut scratch, v, axis.line)
                    .expect("sweep values were validated at parse time");
                knob_key(&scratch)
            })
            .collect();
        for j in 1..axis.values.len() {
            for i in 0..j {
                if axis.values[i] == axis.values[j] {
                    any_duplicates = true;
                    out.push(Diagnostic::new(
                        Code::DuplicateSweepValue,
                        Some(file),
                        axis.line,
                        format!(
                            "sweep axis {:?} lists value {} twice",
                            axis.field.key,
                            axis.values[j].render()
                        ),
                    ));
                } else if resolved[i] == resolved[j] {
                    any_duplicates = true;
                    out.push(Diagnostic::new(
                        Code::DuplicateCells,
                        Some(file),
                        axis.line,
                        format!(
                            "sweep values {} and {} of axis {:?} resolve to identical \
                             configurations: every cell of the grid is duplicated",
                            axis.values[i].render(),
                            axis.values[j].render(),
                            axis.field.key
                        ),
                    ));
                }
            }
        }
    }
    // Cross-axis duplicates (two axes driving the same underlying knob)
    // only show up in the full grid; skip when per-axis findings already
    // explain the collision.
    if any_duplicates || sc.sweeps.len() < 2 {
        return;
    }
    let mut seen = BTreeSet::new();
    for cell in crate::compile::expand(sc, false) {
        let key = format!(
            "{}|{}|{}|{}",
            knob_key(&cell.knobs),
            cell.cpu_app,
            cell.gpu_app,
            cell.replica
        );
        if !seen.insert(key) {
            let coords: Vec<String> = cell.axes.iter().map(|(k, v)| format!("{k}={v}")).collect();
            out.push(Diagnostic::new(
                Code::DuplicateCells,
                Some(file),
                sc.sweeps[0].line,
                format!(
                    "sweep point {} duplicates an earlier cell: two axis combinations \
                     resolve to identical configurations",
                    coords.join(", ")
                ),
            ));
            return; // one report explains the whole collision class
        }
    }
}

/// The knobs a document's `[system]`/`[mitigation]`/`[criticality]`
/// sections set, with the line of each entry.
fn base_knobs(doc: &Document) -> impl Iterator<Item = (&Section, &'static Field, usize)> {
    doc.sections.iter().flat_map(|section| {
        section.entries.iter().filter_map(move |e| {
            Field::in_section(&section.name, &e.key).map(|field| (section, field, e.line))
        })
    })
}

/// HL009 — a `[system]`/`[mitigation]`/`[criticality]` key that a sweep
/// axis fully overrides: its base value is never used by any cell.
fn check_shadowed_base_keys(file: &str, doc: &Document, sc: &Scenario, out: &mut Vec<Diagnostic>) {
    for (section, field, line) in base_knobs(doc) {
        let Some(axis) = sc.sweeps.iter().find(|a| a.field.drives(field)) else {
            continue;
        };
        out.push(Diagnostic::new(
            Code::UnusedBaseKey,
            Some(file),
            line,
            format!(
                "[{}] {:?} is overridden by the {:?} sweep axis on every cell; \
                 its value here is never used",
                section.name, field.key, axis.field.key
            ),
        ));
    }
}

/// The number of rows a full (or quick) run of the scenario produces.
fn grid_rows(sc: &Scenario, quick: bool) -> usize {
    let sweep: usize = sc.sweeps.iter().map(|a| a.values.len()).product();
    sweep * sc.cpu_apps(quick).len() * sc.gpu_apps(quick).len() * sc.replicas as usize
}

/// HL011 — `[run] rows` pins a count matching neither the full nor the
/// quick grid, so the row-count expectation fails in every mode.
fn check_pinned_rows(file: &str, doc: &Document, sc: &Scenario, out: &mut Vec<Diagnostic>) {
    let Some(rows) = sc.expected_rows else {
        return;
    };
    let full = grid_rows(sc, false);
    let quick = grid_rows(sc, true);
    if rows != full && rows != quick {
        out.push(Diagnostic::new(
            Code::RowsMismatch,
            Some(file),
            entry_line(doc, "run", "rows"),
            format!(
                "`rows = {rows}` matches neither the full grid ({full} rows) nor the \
                 quick grid ({quick} rows)"
            ),
        ));
    }
}

/// HL201 — every `[expect]` metric with a registry mapping must resolve
/// in the `hiss-obs` schema (guards against spec/schema drift).
fn check_expect_schema(file: &str, sc: &Scenario, out: &mut Vec<Diagnostic>) {
    for expect in &sc.expects {
        let Some(key) = expect.metric.registry_key else {
            continue;
        };
        if hiss_obs::schema::lookup(key).is_none() {
            out.push(Diagnostic::new(
                Code::ExpectMetricNotInSchema,
                Some(file),
                expect.line,
                format!(
                    "expect metric `{}` maps to registry name `{key}`, which is not \
                     declared in the hiss-obs schema",
                    expect.metric.key
                ),
            ));
        }
    }
}

/// HL401 — band pairs that contradict a declared conservation law.
///
/// For a law `a ≤ b` whose sides are both single concrete metrics an
/// `[expect]` band can constrain, the row-wise ordering lifts to
/// aggregates whenever the constrained aggregates are themselves
/// ordered (`min ≤ mean ≤ max` over one metric): `g1(a) ≤ g2(b)` for
/// any aggregate pair with `rank(g1) ≤ rank(g2)`. A lower bound on
/// `g1(a)` above an upper bound on `g2(b)` is therefore unsatisfiable
/// by *any* run — not a tight band but a logical impossibility — and is
/// rejected statically. Equalities are checked in both directions.
fn check_invariant_bands(file: &str, sc: &Scenario, out: &mut Vec<Diagnostic>) {
    use hiss_obs::invariants::{Invariant, Rel, Term, INVARIANTS};

    let metric_for = |registry_name: &str| {
        Metric::ALL
            .iter()
            .find(|m| m.registry_key == Some(registry_name))
    };
    let rank = |agg: Agg| match agg {
        Agg::Min => 0,
        Agg::Mean => 1,
        Agg::Max => 2,
    };
    let mut flag_le = |inv: &Invariant, a: &Metric, b: &Metric| {
        // a ≤ b row-wise; contradiction: lower-bounding g1(a) above
        // g2(b)'s upper bound with rank(g1) ≤ rank(g2).
        for lo_band in sc.expects.iter().filter(|e| e.metric == a) {
            for hi_band in sc.expects.iter().filter(|e| e.metric == b) {
                if rank(lo_band.agg) <= rank(hi_band.agg) && lo_band.lo > hi_band.hi {
                    out.push(Diagnostic::new(
                        Code::ExpectContradictsInvariant,
                        Some(file),
                        lo_band.line.max(hi_band.line),
                        format!(
                            "bands `{}` and `{}` contradict the `{}` conservation law \
                             ({} {} {}): {} would have to reach {} while {} stays at most {}",
                            lo_band.key,
                            hi_band.key,
                            inv.name,
                            a.key,
                            inv.rel.as_str(),
                            b.key,
                            lo_band.key,
                            lo_band.lo,
                            hi_band.key,
                            hi_band.hi
                        ),
                    ));
                }
            }
        }
    };
    for inv in INVARIANTS {
        let (&[Term::Sum(l)], &[Term::Sum(r)]) = (inv.lhs, inv.rhs) else {
            continue;
        };
        let (Some(a), Some(b)) = (metric_for(l), metric_for(r)) else {
            continue;
        };
        flag_le(inv, a, b);
        if inv.rel == Rel::Eq {
            flag_le(inv, b, a);
        }
    }
}

/// Library-wide coverage lints over every committed scenario: `HL404`
/// (schema entries nothing exercises) and `HL405` (spec knobs no
/// scenario sets). `root` is the repo root holding `scenarios/`,
/// `BENCH_BASELINE.json`, and `docs/OBSERVABILITY.md`; the scenario
/// grids are expanded in dry-run mode (the same lowering `HL008` uses),
/// never executed.
pub fn check_coverage(root: &Path) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut exercised_metrics: BTreeSet<String> = BTreeSet::new();
    let mut exercised_fields: BTreeSet<&'static str> = BTreeSet::new();

    // Committed scenario library: expect metrics + every knob set in
    // [system]/[mitigation]/[criticality] or swept.
    let dir = root.join("scenarios");
    let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "hiss"))
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    for path in &files {
        let Ok(text) = std::fs::read_to_string(path) else {
            continue; // unreadable files are lint_file's finding, not ours
        };
        let Ok(doc) = crate::parse::parse(&text) else {
            continue; // parse errors are lint_file's finding, not ours
        };
        let Ok(sc) = Scenario::from_document(&doc) else {
            continue;
        };
        for expect in &sc.expects {
            if let Some(key) = expect.metric.registry_key {
                exercised_metrics.insert(key.to_string());
            }
        }
        // A knob also exercises the switches it aliases, so
        // `mitigation = ["steer", ...]` exercises `steer` too (the same
        // aliasing the HL009 shadow check accounts for).
        let base = base_knobs(&doc).map(|(_, field, _)| field);
        for field in base.chain(sc.sweeps.iter().map(|a| a.field)) {
            exercised_fields.insert(field.key);
            exercised_fields.extend(field.aliases);
        }
    }

    // Committed bench baseline: every stored name is exercised.
    if let Ok(text) = std::fs::read_to_string(root.join("BENCH_BASELINE.json")) {
        for line in text.lines().map(str::trim).filter(|l| !l.is_empty()) {
            if let Ok(reg) = hiss_obs::MetricsRegistry::from_json(line) {
                for (name, _) in reg.iter() {
                    exercised_metrics.insert(name.to_string());
                }
            }
        }
    }

    // Observability doc: every documented name row is exercised.
    if let Ok(text) = std::fs::read_to_string(root.join("docs/OBSERVABILITY.md")) {
        exercised_metrics.extend(hiss_lint::docs::documented_names(&text));
    }

    diags.extend(hiss_lint::invariants::check_dead_metrics(
        &exercised_metrics,
        "docs/OBSERVABILITY.md",
    ));

    let scenarios_label = dir.display().to_string();
    for field in Field::ALL {
        if !exercised_fields.contains(field.key) {
            diags.push(Diagnostic::new(
                Code::DeadKnob,
                Some(&scenarios_label),
                0,
                format!(
                    "spec knob `{}` is set by no committed scenario — \
                     exercise it in the library or retire it from the grammar",
                    field.key
                ),
            ));
        }
    }

    hiss_lint::diag::sort(&mut diags);
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = r#"
[scenario]
name = "t"
[workload]
cpu = ["x264"]
gpu = ["ubench"]
"#;

    fn lint(extra: &str) -> Vec<Diagnostic> {
        lint_text("t.hiss", &format!("{BASE}{extra}"))
    }

    fn codes(diags: &[Diagnostic]) -> Vec<Code> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_scenario_yields_no_diagnostics() {
        assert_eq!(lint(""), Vec::new());
        assert_eq!(
            lint("[sweep]\nqos_percent = [0, 1, 5]\n[expect]\nmean_cpu_perf = [0, 1]\n"),
            Vec::new()
        );
    }

    #[test]
    fn parse_and_spec_errors_carry_their_codes() {
        let d = lint("[expect]\nmean_cpu_pref = [0, 1]\n");
        assert_eq!(codes(&d), vec![Code::UnknownExpectMetric]);
        assert!(d[0].msg.contains("did you mean"), "{}", d[0].msg);
        assert_eq!(d[0].file.as_deref(), Some("t.hiss"));
        assert_eq!(d[0].line, 8);

        assert_eq!(
            codes(&lint("[expect]\nmean_cpu_perf = [1, 0]\n")),
            vec![Code::EmptyExpectBand]
        );
        assert_eq!(
            codes(&lint("[sweep]\ngpus = []\n")),
            vec![Code::EmptySweepAxis]
        );
        assert_eq!(
            codes(&lint("[run]\nreplicas = 0\n")),
            vec![Code::BadReplicas]
        );
        // Anything without a specific class falls back to HL000.
        assert_eq!(
            codes(&lint_text("t.hiss", "[scenario]\nname = \"t\"\n")),
            vec![Code::ScenarioInvalid]
        );
    }

    #[test]
    fn empty_quick_selection_is_flagged() {
        let text = r#"
[scenario]
name = "t"
[workload]
cpu = ["x264"]
gpu = ["ubench"]
quick_cpu = []
"#;
        let d = lint_text("t.hiss", text);
        assert_eq!(codes(&d), vec![Code::EmptyRowSelection]);
        assert_eq!(d[0].line, 7);
    }

    #[test]
    fn contradictory_min_max_bands_are_flagged() {
        let d = lint("[expect]\nmin_cpu_perf = [0.9, 1.0]\nmax_cpu_perf = [0.0, 0.5]\n");
        assert_eq!(codes(&d), vec![Code::ContradictoryBands]);
        assert_eq!(d[0].line, 9);
        // Compatible bands are fine.
        assert!(
            lint("[expect]\nmin_cpu_perf = [0.1, 1.0]\nmax_cpu_perf = [0.0, 0.9]\n").is_empty()
        );
    }

    #[test]
    fn degenerate_and_duplicate_axes_are_flagged() {
        let d = lint("[sweep]\ngpus = [2]\n");
        assert_eq!(codes(&d), vec![Code::DegenerateSweepAxis]);

        let d = lint("[sweep]\ngpus = [1, 2, 1]\n");
        assert_eq!(codes(&d), vec![Code::DuplicateSweepValue]);
        assert!(d[0].msg.contains('1'), "{}", d[0].msg);
    }

    #[test]
    fn aliasing_mitigation_combos_duplicate_cells() {
        let d = lint("[sweep]\nmitigation = [\"mono\", \"monolithic\"]\n");
        assert_eq!(codes(&d), vec![Code::DuplicateCells]);
        assert!(d[0].msg.contains("identical"), "{}", d[0].msg);
    }

    #[test]
    fn cross_axis_duplicates_are_found_in_the_grid() {
        // `steer` as a bool axis and as part of a combo axis collide:
        // (steer=true, default) == (steer=false, "steer").
        let d = lint("[sweep]\nsteer = [true, false]\nmitigation = [\"default\", \"steer\"]\n");
        assert_eq!(codes(&d), vec![Code::DuplicateCells]);
    }

    #[test]
    fn shadowed_base_keys_warn() {
        let d = lint("[system]\ngpus = 2\n[sweep]\ngpus = [1, 2]\n");
        assert_eq!(codes(&d), vec![Code::UnusedBaseKey]);
        assert_eq!(d[0].line, 8);

        // A combo axis shadows the individual switches.
        let d = lint("[mitigation]\nsteer = true\n[sweep]\nmitigation = [\"default\", \"mono\"]\n");
        assert_eq!(codes(&d), vec![Code::UnusedBaseKey]);

        // …but an individual switch does not shadow an unrelated one.
        assert!(lint("[mitigation]\ncoalesce = true\n[sweep]\nsteer = [true, false]\n").is_empty());
    }

    #[test]
    fn pinned_rows_must_match_a_grid() {
        // 1 cpu × 1 gpu × 2 sweep values × 2 replicas = 4 rows.
        let d = lint("[run]\nreplicas = 2\nrows = 5\n[sweep]\ngpus = [1, 2]\n");
        assert_eq!(codes(&d), vec![Code::RowsMismatch]);
        assert!(d[0].msg.contains("4 rows"), "{}", d[0].msg);
        assert!(lint("[run]\nreplicas = 2\nrows = 4\n[sweep]\ngpus = [1, 2]\n").is_empty());
    }

    #[test]
    fn out_of_range_steer_targets_lint_as_hl012() {
        let d = lint("[system]\nsteer_target = 9\n");
        assert_eq!(codes(&d), vec![Code::SteerTargetOutOfRange]);
        assert_eq!(d[0].code.as_str(), "HL012");
        assert_eq!(d[0].file.as_deref(), Some("t.hiss"));
        assert_eq!(d[0].line, 8);

        let d = lint("[topology]\ndevices = [\"gpu\", \"dma\"]\nsteer = [2, 4]\n");
        assert_eq!(codes(&d), vec![Code::SteerTargetOutOfRange]);
        assert_eq!(d[0].line, 9);

        // In-range targets lint clean, topology or not.
        assert!(lint("[system]\nsteer_target = 3\n").is_empty());
        assert!(lint("[topology]\ndevices = [\"gpu\", \"nic\"]\nsteer = [-1, 3]\n").is_empty());
    }

    #[test]
    fn bands_contradicting_a_conservation_law_are_flagged() {
        // popped ≤ pushed always holds, so forcing min(popped) ≥ 1000
        // while capping max(pushed) ≤ 500 is unsatisfiable by any run.
        let d = lint("[expect]\nmin_events_popped = [1000, 2000]\nmax_events_pushed = [0, 500]\n");
        assert_eq!(codes(&d), vec![Code::ExpectContradictsInvariant]);
        assert_eq!(d[0].code.as_str(), "HL401");
        assert_eq!(d[0].file.as_deref(), Some("t.hiss"));
        assert_eq!(d[0].line, 9);
        assert!(d[0].msg.contains("events_popped_bounded"), "{}", d[0].msg);

        // Same bounds the other way round are satisfiable.
        assert!(lint(
            "[expect]\nmin_events_pushed = [1000, 1e15]\nmax_events_popped = [0, 1e15]\n"
        )
        .is_empty());
        // max(popped) above mean(pushed)'s cap is NOT a contradiction:
        // one large row can carry the maximum while the mean stays low.
        assert!(lint(
            "[expect]\nmax_events_popped = [1000, 1e15]\nmean_events_pushed = [0, 500]\n"
        )
        .is_empty());
        // …but min(popped) above mean(pushed)'s cap is one.
        let d = lint("[expect]\nmin_events_popped = [1000, 1e15]\nmean_events_pushed = [0, 500]\n");
        assert_eq!(codes(&d), vec![Code::ExpectContradictsInvariant]);
    }

    #[test]
    fn coverage_flags_dead_knobs_and_dead_metrics() {
        let root = std::env::temp_dir().join(format!("hiss-coverage-test-{}", std::process::id()));
        let scen_dir = root.join("scenarios");
        std::fs::create_dir_all(&scen_dir).unwrap();
        std::fs::write(
            scen_dir.join("only.hiss"),
            format!("{BASE}[sweep]\nqos_percent = [0, 5]\n[expect]\nmean_ipis = [0, 1e12]\n"),
        )
        .unwrap();
        let diags = check_coverage(&root);
        std::fs::remove_dir_all(&root).unwrap();

        let dead_knobs: Vec<&str> = diags
            .iter()
            .filter(|d| d.code == Code::DeadKnob)
            .map(|d| d.msg.as_str())
            .collect();
        assert!(
            dead_knobs.iter().any(|m| m.contains("`cores`")),
            "{dead_knobs:?}"
        );
        assert!(
            !dead_knobs.iter().any(|m| m.contains("`qos_percent`")),
            "swept knobs are exercised: {dead_knobs:?}"
        );
        // With no baseline and no doc, nearly everything is dead — but
        // the expect-mapped metric is exercised.
        let dead_metrics: Vec<&str> = diags
            .iter()
            .filter(|d| d.code == Code::DeadMetric)
            .map(|d| d.msg.as_str())
            .collect();
        assert!(
            dead_metrics.iter().any(|m| m.contains("`run.elapsed_ns`")),
            "{dead_metrics:?}"
        );
        assert!(
            !dead_metrics.iter().any(|m| m.contains("`kernel.ipis`")),
            "expect-exercised metrics are covered: {dead_metrics:?}"
        );
    }

    #[test]
    fn expect_metrics_resolve_in_the_obs_schema() {
        // Every metric in the catalog that maps to a registry name must
        // resolve — this is the drift guard itself, as a unit test.
        for metric in crate::spec::Metric::ALL {
            if let Some(key) = metric.registry_key {
                assert!(
                    hiss_obs::schema::lookup(key).is_some(),
                    "metric {:?} maps to `{key}`, absent from the schema",
                    metric.key
                );
            }
        }
        // And therefore a scenario using all of them lints clean.
        let all_bands = "[expect]\nmean_cc6_residency = [0, 1]\nmax_ipis = [0, 1e12]\n\
                         mean_ssr_latency_us = [0, 1e9]\nmin_gpu_throughput = [0, 1]\n";
        assert!(lint(all_bands).is_empty());
    }
}
