//! The docs half of the metric-schema pass: every dotted metric name
//! written in `docs/OBSERVABILITY.md` must resolve against the
//! [`hiss_obs::schema`] declaration, so the documentation cannot drift
//! from what components actually publish.
//!
//! Candidate names are backtick-quoted spans that look like metric
//! names: dotted, lowercase/underscore/digit segments, optionally using
//! the documentation conventions the schema itself uses (`coreN`,
//! `devN`, `workerN` index families and a trailing `.*` wildcard for
//! "everything under this prefix"). Spans carrying non-name characters
//! (placeholders like `<name>`, code fragments, file names with known
//! extensions) are not candidates.

use hiss_obs::schema;

use crate::diag::{nearest, Code, Diagnostic};

/// File extensions that disqualify a dotted span from being a metric
/// name (`runner.rs`, `lint.toml`, … share the dotted shape).
const FILE_EXTENSIONS: &[&str] = &["rs", "md", "toml", "json", "jsonl", "hiss", "yml", "csv"];

/// Whether a backtick span is shaped like a metric name we should
/// check.
fn is_candidate(span: &str) -> bool {
    if !span.contains('.') || span.starts_with('.') || span.ends_with('.') {
        return false;
    }
    if !span
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '*')
    {
        return false;
    }
    let segments: Vec<&str> = span.split('.').collect();
    if segments.iter().any(|s| s.is_empty()) {
        return false;
    }
    if let Some(last) = segments.last() {
        if FILE_EXTENSIONS.contains(last) {
            return false;
        }
    }
    // Only spans rooted in the declared namespace are metric names;
    // `a.out` or `foo.bar` in prose is not our business.
    let root = segments[0];
    schema::roots()
        .iter()
        .any(|r| r == &root || doc_segment_matches(root, r))
}

/// Matches one documented segment against one schema-pattern segment.
///
/// Docs may write the family placeholder itself (`coreN`), a concrete
/// index (`core0`), or `*`; the schema side may be a literal, an
/// `N`-family, or `*`.
fn doc_segment_matches(doc: &str, pat: &str) -> bool {
    if doc == pat || pat == "*" || doc == "*" {
        return true;
    }
    if let Some(stem) = pat.strip_suffix('N') {
        if let Some(idx) = doc.strip_prefix(stem) {
            return !idx.is_empty() && idx.bytes().all(|b| b.is_ascii_digit());
        }
    }
    false
}

/// Whether a documented name (concrete, placeholder-spelled, or ending
/// in `.*`) covers one specific schema pattern — the building block for
/// both directions of the docs/schema agreement: "does this doc name
/// resolve?" (here) and "is this schema entry documented anywhere?"
/// (the `HL404` coverage lint in [`crate::invariants`]).
pub(crate) fn doc_name_covers(name: &str, pattern: &str) -> bool {
    let (prefix, wildcard_tail) = match name.strip_suffix(".*") {
        Some(p) => (p, true),
        None => (name, false),
    };
    let doc_segs: Vec<&str> = prefix.split('.').collect();
    let pat_segs: Vec<&str> = pattern.split('.').collect();
    if wildcard_tail {
        // `kernel.batch.*` covers any entry strictly under the prefix.
        pat_segs.len() > doc_segs.len()
            && doc_segs
                .iter()
                .zip(&pat_segs)
                .all(|(d, p)| doc_segment_matches(d, p))
    } else {
        pat_segs.len() == doc_segs.len()
            && doc_segs
                .iter()
                .zip(&pat_segs)
                .all(|(d, p)| doc_segment_matches(d, p))
    }
}

/// Whether a documented name (possibly ending in `.*`) is covered by at
/// least one schema pattern.
fn doc_name_in_schema(name: &str) -> bool {
    schema::SCHEMA
        .iter()
        .any(|e| doc_name_covers(name, e.pattern))
}

/// Every candidate metric name documented in `text` (deduplicated, in
/// order of first appearance) — the "docs exercise these" input to the
/// coverage lint.
pub fn documented_names(text: &str) -> Vec<String> {
    let mut seen = std::collections::BTreeSet::new();
    let mut out = Vec::new();
    for (_, span) in backtick_spans(text) {
        if is_candidate(span) && seen.insert(span) {
            out.push(span.to_string());
        }
    }
    out
}

/// Extracts backtick spans with their 1-based line numbers.
fn backtick_spans(text: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let mut rest = line;
        let mut offset = 0;
        while let Some(start) = rest.find('`') {
            let after = &rest[start + 1..];
            match after.find('`') {
                Some(end) => {
                    out.push((idx + 1, &after[..end]));
                    offset += start + 1 + end + 1;
                    rest = &line[offset..];
                }
                None => break,
            }
        }
    }
    out
}

/// Lints a documentation file's metric names against the schema.
/// `file` is the label used in diagnostics.
pub fn check_doc(file: &str, text: &str) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let patterns: Vec<&str> = schema::SCHEMA.iter().map(|e| e.pattern).collect();
    for (line, span) in backtick_spans(text) {
        if !is_candidate(span) {
            continue;
        }
        if doc_name_in_schema(span) {
            continue;
        }
        let mut msg = format!("documented metric `{span}` is not in the hiss-obs schema");
        if let Some(suggestion) = nearest(span, &patterns) {
            msg.push_str(&format!(" (did you mean `{suggestion}`?)"));
        }
        diags.push(Diagnostic::new(
            Code::DocMetricNotInSchema,
            Some(file),
            line,
            msg,
        ));
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_and_indexed_names_resolve() {
        assert!(doc_name_in_schema("kernel.ipis"));
        assert!(doc_name_in_schema("cpu.core0.sleep_cc6_ns"));
        assert!(doc_name_in_schema("cpu.coreN.sleep_cc6_ns"));
        assert!(doc_name_in_schema("dev1.busy_ns"));
        assert!(doc_name_in_schema("devN.iterations"));
        assert!(!doc_name_in_schema("cpu.total.cc6"));
        assert!(!doc_name_in_schema("kernel.ipi_count"));
    }

    #[test]
    fn trailing_wildcard_covers_prefixes() {
        assert!(doc_name_in_schema("kernel.batch.*"));
        assert!(doc_name_in_schema("cpu.coreN.*"));
        assert!(doc_name_in_schema("devN.*"));
        assert!(doc_name_in_schema("bench.pool.*"));
        assert!(doc_name_in_schema("cell.axis.*"));
        assert!(!doc_name_in_schema("kernel.nothing.*"));
        // `kernel.latency.*` has nothing strictly under it (it is a
        // histogram leaf), so the wildcard form does not resolve.
        assert!(!doc_name_in_schema("kernel.latency.*"));
    }

    #[test]
    fn candidate_filter_skips_non_metrics() {
        assert!(is_candidate("run.cc6_residency"));
        assert!(is_candidate("cell.axis.*"));
        assert!(!is_candidate("runner.rs"));
        assert!(!is_candidate("lint.toml"));
        assert!(!is_candidate("no_dots"));
        assert!(!is_candidate("cell.axis.<name>"));
        assert!(!is_candidate("foo.bar")); // unknown root: not ours
        assert!(!is_candidate("run.")); // malformed
    }

    #[test]
    fn check_doc_flags_unknown_names_with_suggestion() {
        let text = "The gauge `cpu.total.cc6` and counter `kernel.ipis` are listed.\n";
        let diags = check_doc("docs/OBSERVABILITY.md", text);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::DocMetricNotInSchema);
        assert_eq!(diags[0].line, 1);
        assert!(diags[0].msg.contains("cpu.total.cc6"), "{}", diags[0].msg);
    }

    #[test]
    fn backtick_extraction_finds_all_spans_per_line() {
        let spans = backtick_spans("a `one` b `two`\n`three`\n");
        assert_eq!(spans, vec![(1, "one"), (1, "two"), (2, "three")]);
    }
}
