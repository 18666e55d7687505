//! The committed `BENCH_BASELINE.json` file format.
//!
//! JSON-lines, one [`MetricsRegistry`] snapshot per line, reusing the
//! registry's lossless single-line round-trip (`to_json`/`from_json`):
//!
//! - line 1 is the **meta** snapshot: `bench.baseline.version` and the
//!   operator's `bench.baseline.reason` from the last `bench update`,
//! - every following line is one **suite** snapshot, identified by its
//!   `bench.suite` label, carrying that suite's deterministic work
//!   counters.
//!
//! Suite lines are kept sorted by suite name so `bench update` produces
//! minimal diffs, and every parsed line remembers its 1-based line
//! number so comparator findings can render `BENCH_BASELINE.json:7:`
//! the way the lint diagnostics do.

use hiss_obs::MetricsRegistry;

/// Current baseline file format version (the meta line's
/// `bench.baseline.version` label).
pub const FORMAT_VERSION: &str = "1";

/// Default baseline path, relative to the repository root.
pub const DEFAULT_PATH: &str = "BENCH_BASELINE.json";

/// One suite snapshot with the line it came from (1-based; 0 for
/// freshly generated snapshots that have no file position yet).
#[derive(Debug, Clone)]
pub struct SuiteSnapshot {
    /// 1-based source line in the baseline file, 0 if synthetic.
    pub line: usize,
    /// Suite name (the `bench.suite` label).
    pub suite: String,
    /// The full metric snapshot for this suite.
    pub metrics: MetricsRegistry,
}

/// A parsed baseline file.
#[derive(Debug, Clone)]
pub struct BaselineFile {
    /// Meta snapshot (version + reason labels).
    pub meta: MetricsRegistry,
    /// Suite snapshots in file order.
    pub suites: Vec<SuiteSnapshot>,
}

impl BaselineFile {
    /// Looks up a suite snapshot by name.
    pub fn suite(&self, name: &str) -> Option<&SuiteSnapshot> {
        self.suites.iter().find(|s| s.suite == name)
    }

    /// The operator reason recorded by the last `bench update`.
    pub fn reason(&self) -> Option<&str> {
        self.meta.label_value("bench.baseline.reason")
    }
}

/// Parses baseline text (JSON-lines) into a [`BaselineFile`].
///
/// Errors carry the offending 1-based line number and are formatted
/// `line N: message`.
pub fn parse(text: &str) -> Result<BaselineFile, String> {
    let mut meta: Option<MetricsRegistry> = None;
    let mut suites = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let reg = MetricsRegistry::from_json(line).map_err(|e| format!("line {line_no}: {e}"))?;
        match meta {
            None => {
                let version = reg
                    .label_value("bench.baseline.version")
                    .ok_or_else(|| {
                        format!("line {line_no}: first line must be the meta snapshot (missing bench.baseline.version)")
                    })?;
                if version != FORMAT_VERSION {
                    return Err(format!(
                        "line {line_no}: unsupported baseline version {version:?} (this build reads {FORMAT_VERSION:?})"
                    ));
                }
                meta = Some(reg);
            }
            Some(_) => {
                let suite = reg
                    .label_value("bench.suite")
                    .ok_or_else(|| {
                        format!("line {line_no}: suite snapshot missing bench.suite label")
                    })?
                    .to_string();
                if suites.iter().any(|s: &SuiteSnapshot| s.suite == suite) {
                    return Err(format!("line {line_no}: duplicate suite {suite:?}"));
                }
                suites.push(SuiteSnapshot {
                    line: line_no,
                    suite,
                    metrics: reg,
                });
            }
        }
    }
    let meta = meta.ok_or_else(|| "empty baseline file".to_string())?;
    Ok(BaselineFile { meta, suites })
}

/// Renders a baseline file: meta line first, then suites sorted by
/// name, one JSON line each, trailing newline.
pub fn render(reason: &str, suites: &[SuiteSnapshot]) -> String {
    let mut meta = MetricsRegistry::new();
    meta.label("bench.baseline.version", FORMAT_VERSION);
    meta.label("bench.baseline.reason", reason);

    let mut sorted: Vec<&SuiteSnapshot> = suites.iter().collect();
    sorted.sort_by(|a, b| a.suite.cmp(&b.suite));

    let mut out = meta.to_json();
    out.push('\n');
    for s in sorted {
        out.push_str(&s.metrics.to_json());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn suite(name: &str) -> SuiteSnapshot {
        let mut m = MetricsRegistry::new();
        m.label("bench.suite", name);
        m.counter("bench.cells", 3);
        m.counter("bench.total.events_pushed", 1234);
        SuiteSnapshot {
            line: 0,
            suite: name.to_string(),
            metrics: m,
        }
    }

    #[test]
    fn render_parse_round_trips() {
        let text = render("initial", &[suite("fig3_quick"), suite("engine")]);
        let file = parse(&text).expect("round trip");
        assert_eq!(file.reason(), Some("initial"));
        assert_eq!(file.suites.len(), 2);
        // Sorted by suite name, and line numbers are real positions.
        assert_eq!(file.suites[0].suite, "engine");
        assert_eq!(file.suites[0].line, 2);
        assert_eq!(file.suites[1].suite, "fig3_quick");
        assert_eq!(file.suites[1].line, 3);
        assert_eq!(
            file.suite("fig3_quick")
                .unwrap()
                .metrics
                .counter_value("bench.total.events_pushed"),
            Some(1234)
        );
    }

    #[test]
    fn parse_rejects_missing_meta_and_bad_version() {
        assert!(parse("").unwrap_err().contains("empty"));
        let no_version = suite("x").metrics.to_json();
        assert!(parse(&no_version).unwrap_err().contains("line 1"));
        let text = render("r", &[]).replace("\"1\"", "\"99\"");
        assert!(parse(&text).unwrap_err().contains("version"));
    }

    #[test]
    fn parse_rejects_duplicate_and_unnamed_suites() {
        let text = render("r", &[suite("a"), suite("a")]);
        let err = parse(&text).unwrap_err();
        assert!(err.contains("line 3") && err.contains("duplicate"), "{err}");

        let mut anon = MetricsRegistry::new();
        anon.counter("bench.cells", 1);
        let text = format!("{}{}\n", render("r", &[]), anon.to_json());
        let err = parse(&text).unwrap_err();
        assert!(err.contains("missing bench.suite"), "{err}");
    }
}
