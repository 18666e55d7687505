//! What of the paper's evaluation is not a scenario pack.
//!
//! | module | contents |
//! |---|---|
//! | [`tables`] | Table I (SSR catalogue), Table II (system configuration) |
//! | [`cache`] | [`BaselineCache`], the per-[`RunCtx`](crate::RunCtx) memo of baseline runs |
//! | [`extensions`] | beyond the paper: adaptive QoS (a bisection) and module pairing (a custom victim) |
//!
//! Every figure that is a grid of cells — Figs. 3 to 9 and 12, §IV-C,
//! and the multi-GPU, coalescing-window and outstanding-limit sweeps —
//! is a committed scenario pack plus a pure fold over its rows, in
//! `hiss_scenario::figures`.

pub mod cache;
pub mod extensions;
pub mod tables;

pub use cache::BaselineCache;

/// Renders a fixed-width text table: a header row plus data rows.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_table_aligns_columns() {
        let s = render_table(
            &["app", "perf"],
            &[
                vec!["x264".into(), "0.56".into()],
                vec!["fluidanimate".into(), "0.69".into()],
            ],
        );
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("app"));
        assert!(lines[2].ends_with("0.56"));
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn render_table_handles_empty_header() {
        // Regression: `widths.len() - 1` underflowed on an empty header.
        let s = render_table(&[], &[]);
        assert_eq!(s, "\n\n");
    }

    #[test]
    fn baselines_are_quiet() {
        let cfg = crate::SystemConfig::a10_7850k();
        let cache = BaselineCache::default();
        let base = cache.cpu_baseline(&cfg, "swaptions", "bfs");
        assert_eq!(base.ssrs_serviced(), 0);
        assert!(base.cpu_app_runtime().is_some());
        let idle = cache.gpu_idle_baseline(&cfg, "bfs");
        assert!(idle.ssrs_serviced() > 0);
        assert!(idle.cpu_app_runtime().is_none());
    }
}
