//! Fig. 4 — CPU low-power (CC6) sleep-state residency with and without
//! GPU system service requests.
//!
//! Methodology (paper §IV-B): the GPU application runs with *no* CPU-only
//! work; the fraction of time the CPUs spend in CC6 is measured for the
//! pinned (no-SSR) and demand-paging (SSR) variants of each benchmark.

use crate::config::SystemConfig;
use crate::experiments::render_table;
use crate::runner::RunCtx;
use crate::soc::ExperimentBuilder;

/// One cluster of Fig. 4.
#[derive(Debug, Clone)]
pub struct Fig4Row {
    /// GPU benchmark.
    pub gpu_app: String,
    /// CC6 residency with SSRs disabled (`no_SSR`).
    pub cc6_no_ssr: f64,
    /// CC6 residency with SSRs enabled (`gpu_SSR`).
    pub cc6_ssr: f64,
}

impl Fig4Row {
    /// Percentage points of residency lost to SSRs.
    pub fn lost_points(&self) -> f64 {
        (self.cc6_no_ssr - self.cc6_ssr) * 100.0
    }
}

/// Runs Fig. 4 for an explicit GPU-application subset (one parallel job
/// per benchmark; the SSR run is the shared idle-CPU baseline).
pub fn fig4_with(ctx: &RunCtx, cfg: &SystemConfig, gpu_apps: &[&str]) -> Vec<Fig4Row> {
    ctx.par_map(gpu_apps, |gpu_app| {
        let quiet = ExperimentBuilder::new(*cfg).gpu_app_pinned(gpu_app).run();
        let noisy = ctx.cache().gpu_idle_baseline(cfg, gpu_app);
        Fig4Row {
            gpu_app: gpu_app.to_string(),
            cc6_no_ssr: quiet.cc6_residency,
            cc6_ssr: noisy.cc6_residency,
        }
    })
}

/// Runs the full six-application Fig. 4.
pub fn fig4(ctx: &RunCtx, cfg: &SystemConfig) -> Vec<Fig4Row> {
    let gpu: Vec<&str> = hiss_workloads::gpu_suite().iter().map(|s| s.name).collect();
    fig4_with(ctx, cfg, &gpu)
}

/// Renders Fig. 4 as text (percent residency, higher is better).
pub fn render(rows: &[Fig4Row]) -> String {
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.gpu_app.clone(),
                format!("{:.1}%", r.cc6_no_ssr * 100.0),
                format!("{:.1}%", r.cc6_ssr * 100.0),
                format!("{:.1}", r.lost_points()),
            ]
        })
        .collect();
    render_table(&["GPU app", "no_SSR", "gpu_SSR", "lost (pts)"], &data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ssrs_always_reduce_residency() {
        let cfg = SystemConfig::a10_7850k();
        let rows = fig4_with(&RunCtx::new(2), &cfg, &["bfs", "ubench"]);
        for r in &rows {
            assert!(
                r.cc6_ssr < r.cc6_no_ssr,
                "{}: SSRs should cut residency ({} vs {})",
                r.gpu_app,
                r.cc6_ssr,
                r.cc6_no_ssr
            );
            assert!(r.cc6_no_ssr > 0.6, "{} baseline too awake", r.gpu_app);
        }
        // bfs clusters SSRs early, so it loses much less than ubench
        // (paper: 14 points vs 74 points).
        let bfs = rows.iter().find(|r| r.gpu_app == "bfs").unwrap();
        let ubench = rows.iter().find(|r| r.gpu_app == "ubench").unwrap();
        assert!(
            bfs.lost_points() < ubench.lost_points(),
            "bfs lost {} pts, ubench {} pts",
            bfs.lost_points(),
            ubench.lost_points()
        );
    }

    #[test]
    fn render_shows_percentages() {
        let rows = vec![Fig4Row {
            gpu_app: "ubench".into(),
            cc6_no_ssr: 0.86,
            cc6_ssr: 0.12,
        }];
        let text = render(&rows);
        assert!(text.contains("86.0%"));
        assert!(text.contains("12.0%"));
        assert!(text.contains("74.0"));
    }
}
