//! Human- and script-facing renderings of a snapshot: a two-column
//! ASCII table and JSON-lines (one metric per line).

use crate::json::{json_escape_into, push_gauge, push_value, value_len_hint};
use crate::registry::{MetricValue, MetricsRegistry};

fn value_cell(value: &MetricValue) -> String {
    match value {
        MetricValue::Counter(v) => v.to_string(),
        MetricValue::Gauge(v) => {
            let mut cell = String::new();
            push_gauge(&mut cell, *v);
            cell
        }
        MetricValue::Label(s) => s.clone(),
        MetricValue::Histogram(h) => format!(
            "count={} mean={}ns p50={}ns p99={}ns ({} buckets)",
            h.count,
            h.mean_ns,
            h.p50_ns,
            h.p99_ns,
            h.buckets.len()
        ),
    }
}

fn kind_cell(value: &MetricValue) -> &'static str {
    match value {
        MetricValue::Counter(_) => "counter",
        MetricValue::Gauge(_) => "gauge",
        MetricValue::Label(_) => "label",
        MetricValue::Histogram(_) => "histogram",
    }
}

impl MetricsRegistry {
    /// Renders the snapshot as a fixed-width ASCII table
    /// (`metric | kind | value`), metrics in deterministic name order.
    pub fn to_table(&self) -> String {
        let header = ["metric", "kind", "value"];
        let rows: Vec<[String; 3]> = self
            .iter()
            .map(|(name, value)| {
                [
                    name.to_string(),
                    kind_cell(value).to_string(),
                    value_cell(value),
                ]
            })
            .collect();
        let mut widths = [header[0].len(), header[1].len(), header[2].len()];
        for row in &rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let fmt_row = |cells: [&str; 3]| -> String {
            format!(
                "{:<w0$}  {:<w1$}  {}",
                cells[0],
                cells[1],
                cells[2],
                w0 = widths[0],
                w1 = widths[1]
            )
        };
        let mut out = fmt_row(header);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 4));
        out.push('\n');
        for row in &rows {
            out.push_str(&fmt_row([&row[0], &row[1], &row[2]]));
            out.push('\n');
        }
        out
    }

    /// Renders the snapshot as JSON-lines: one
    /// `{"metric":"<name>","value":<value>}` object per line, in
    /// deterministic name order (trailing newline included when
    /// non-empty).
    pub fn to_jsonl(&self) -> String {
        const FRAME: &str = "{\"metric\":\"\",\"value\":}\n";
        let hint: usize = self
            .iter()
            .map(|(name, value)| FRAME.len() + name.len() + value_len_hint(value))
            .sum();
        let mut out = String::with_capacity(hint);
        for (name, value) in self.iter() {
            out.push_str("{\"metric\":\"");
            json_escape_into(&mut out, name);
            out.push_str("\",\"value\":");
            push_value(&mut out, value);
            out.push_str("}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsRegistry {
        let mut r = MetricsRegistry::new();
        r.counter("kernel.ipis", 477);
        r.gauge("run.cc6_residency", 0.86);
        r.label("cell.cpu_app", "x264");
        r
    }

    #[test]
    fn table_is_aligned_and_sorted() {
        let text = sample().to_table();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].starts_with("metric"));
        // Sorted: cell.* < kernel.* < run.*
        assert!(lines[2].starts_with("cell.cpu_app"));
        assert!(lines[3].starts_with("kernel.ipis"));
        assert!(lines[4].starts_with("run.cc6_residency"));
        assert!(lines[3].contains("counter"));
        assert!(lines[3].contains("477"));
    }

    #[test]
    fn jsonl_emits_one_metric_per_line() {
        let text = sample().to_jsonl();
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("{\"metric\":\"kernel.ipis\",\"value\":477}"));
        assert!(text.contains("{\"metric\":\"run.cc6_residency\",\"value\":0.86}"));
        assert!(text.contains("{\"metric\":\"cell.cpu_app\",\"value\":\"x264\"}"));
    }

    #[test]
    fn empty_registry_renders() {
        let r = MetricsRegistry::new();
        assert_eq!(r.to_jsonl(), "");
        assert!(r.to_table().starts_with("metric"));
    }
}
