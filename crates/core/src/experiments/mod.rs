//! Experiment runners for the paper artifacts that are not co-run grids.
//!
//! Each submodule corresponds to one artifact and returns structured rows
//! plus a plain-text rendering identical in shape to what the paper
//! reports:
//!
//! | module | paper artifact |
//! |---|---|
//! | [`tables`] | Table I (SSR catalogue), Table II (system configuration) |
//! | [`fig4`] | Fig. 4 — CC6 residency with and without SSRs |
//! | [`section4c`] | §IV-C — interrupt spreading, IPI inflation, coalescing reduction |
//! | [`fig9`] | Fig. 9 — CC6 residency across mitigation combinations |
//! | [`extensions`] | beyond the paper: multi-GPU scaling, window/limit sweeps, adaptive QoS |
//!
//! Every runner takes the [`RunCtx`](crate::RunCtx) it fans its jobs out
//! on and resolves its normalisation baselines through that context's
//! [`BaselineCache`].
//!
//! The co-run grid figures (Figs. 3, 5, 6, 7, 8 and 12) are committed
//! scenario packs plus pure folds over their rows, in
//! `hiss_scenario::figures`.

pub mod fig4;
pub mod fig9;
pub mod section4c;
pub mod tables;

pub mod cache;
pub mod extensions;

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
        assert_eq!(base.kernel.ssrs_serviced, 0);
        assert!(base.cpu_app_runtime.is_some());
        let idle = cache.gpu_idle_baseline(&cfg, "bfs");
        assert!(idle.kernel.ssrs_serviced > 0);
        assert!(idle.cpu_app_runtime.is_none());
    }
}
