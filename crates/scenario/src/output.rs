//! Result emitters: JSON-lines for scripts, a fixed-width ASCII table
//! (through [`hiss::experiments::render_table`]) for terminals.
//!
//! JSON floats are printed with Rust's shortest-round-trip formatting,
//! so re-parsing reproduces every value bit-exactly — the scenario
//! harness compares figure reproductions at the bit level.

use std::fmt::Write as _;

use crate::compile::Row;

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Encodes one row as a single-line JSON object.
pub fn row_json(row: &Row) -> String {
    let mut out = String::with_capacity(256);
    out.push('{');
    let _ = write!(out, "\"cpu_app\":\"{}\"", json_escape(&row.cpu_app));
    let _ = write!(out, ",\"gpu_app\":\"{}\"", json_escape(&row.gpu_app));
    for (key, value) in &row.axes {
        let _ = write!(
            out,
            ",\"axis_{}\":\"{}\"",
            json_escape(key),
            json_escape(value)
        );
    }
    let _ = write!(out, ",\"replica\":{}", row.replica);
    let cpu_perf = row
        .cpu_perf
        .map(json_f64)
        .unwrap_or_else(|| "null".to_string());
    let _ = write!(out, ",\"cpu_perf\":{cpu_perf}");
    let _ = write!(out, ",\"gpu_perf\":{}", json_f64(row.gpu_perf));
    let runtime = row
        .cpu_runtime_ns
        .map(|t| t.to_string())
        .unwrap_or_else(|| "null".to_string());
    let _ = write!(out, ",\"cpu_runtime_ns\":{runtime}");
    let _ = write!(out, ",\"gpu_throughput\":{}", json_f64(row.gpu_throughput));
    let _ = write!(out, ",\"ssr_rate\":{}", json_f64(row.ssr_rate));
    let _ = write!(out, ",\"ssrs_serviced\":{}", row.ssrs_serviced);
    let _ = write!(
        out,
        ",\"mean_ssr_latency_us\":{}",
        json_f64(row.mean_ssr_latency_us)
    );
    let _ = write!(
        out,
        ",\"p99_ssr_latency_us\":{}",
        json_f64(row.p99_ssr_latency_us)
    );
    let _ = write!(out, ",\"cc6_residency\":{}", json_f64(row.cc6_residency));
    let _ = write!(out, ",\"ssr_overhead\":{}", json_f64(row.ssr_overhead));
    let _ = write!(out, ",\"ipis\":{}", row.ipis);
    let _ = write!(out, ",\"qos_deferrals\":{}", row.qos_deferrals);
    let _ = write!(out, ",\"aux_ssrs_raised\":{}", row.aux_ssrs_raised);
    let _ = write!(
        out,
        ",\"critical_p99_latency_us\":{}",
        json_f64(row.critical_p99_latency_us)
    );
    let _ = write!(out, ",\"events_pushed\":{}", row.events_pushed);
    let _ = write!(out, ",\"events_popped\":{}", row.events_popped);
    out.push('}');
    out
}

/// Encodes a batch as JSON-lines (one object per row, trailing newline).
pub fn to_jsonl(rows: &[Row]) -> String {
    let mut out = String::new();
    for row in rows {
        out.push_str(&row_json(row));
        out.push('\n');
    }
    out
}

/// Renders a batch as a fixed-width ASCII table.
pub fn to_table(rows: &[Row]) -> String {
    let replicated = rows.iter().any(|r| r.replica > 0);
    let mut header = vec!["CPU app", "GPU app"];
    if let Some(first) = rows.first() {
        header.extend(first.axes.iter().map(|(k, _)| k.as_str()));
    }
    if replicated {
        header.push("rep");
    }
    header.extend(["CPU perf", "GPU perf", "SSR/s", "p99 us", "CC6", "overhead"]);

    let mut data: Vec<Vec<String>> = Vec::with_capacity(rows.len());
    for r in rows {
        let mut row = vec![r.cpu_app.clone(), r.gpu_app.clone()];
        row.extend(r.axes.iter().map(|(_, v)| v.clone()));
        if replicated {
            row.push(r.replica.to_string());
        }
        row.push(
            r.cpu_perf
                .map(|p| format!("{p:.3}"))
                .unwrap_or_else(|| "-".into()),
        );
        row.push(format!("{:.3}", r.gpu_perf));
        row.push(format!("{:.0}", r.ssr_rate));
        row.push(format!("{:.1}", r.p99_ssr_latency_us));
        row.push(format!("{:.1}%", r.cc6_residency * 100.0));
        row.push(format!("{:.2}%", r.ssr_overhead * 100.0));
        data.push(row);
    }

    hiss::experiments::render_table(&header, &data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> Row {
        Row {
            cpu_app: "x264".into(),
            gpu_app: "ubench".into(),
            axes: vec![("qos_percent".into(), "5".into())],
            replica: 0,
            cpu_perf: Some(0.5625),
            gpu_perf: 0.25,
            cpu_runtime_ns: Some(123_456),
            gpu_throughput: 0.75,
            ssr_rate: 42_000.0,
            ssrs_serviced: 1000,
            mean_ssr_latency_us: 21.5,
            p99_ssr_latency_us: 99.0,
            cc6_residency: 0.125,
            ssr_overhead: 0.0625,
            ipis: 7,
            qos_deferrals: 3,
            aux_ssrs_raised: 0,
            critical_p99_latency_us: 0.0,
            events_pushed: 5000,
            events_popped: 4900,
        }
    }

    #[test]
    fn json_round_trips_floats_exactly() {
        let r = row();
        let json = row_json(&r);
        assert!(json.contains("\"cpu_perf\":0.5625"), "{json}");
        assert!(json.contains("\"axis_qos_percent\":\"5\""), "{json}");
        assert!(json.contains("\"cpu_runtime_ns\":123456"), "{json}");
        // Exactly one object per line.
        let lines = to_jsonl(&[r.clone(), r]);
        assert_eq!(lines.lines().count(), 2);
    }

    #[test]
    fn null_for_unfinished_cpu_app() {
        let mut r = row();
        r.cpu_perf = None;
        r.cpu_runtime_ns = None;
        let json = row_json(&r);
        assert!(json.contains("\"cpu_perf\":null"), "{json}");
        assert!(json.contains("\"cpu_runtime_ns\":null"), "{json}");
    }

    #[test]
    fn table_has_axis_column_and_aligns() {
        let text = to_table(&[row()]);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("qos_percent"));
        assert!(lines[2].contains("x264"));
        assert!(lines[2].contains("0.562"));
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    fn escaping_is_json_safe() {
        assert_eq!(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
        assert_eq!(json_f64(f64::NAN), "null");
    }
}
