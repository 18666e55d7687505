//! Fig. 9 — mitigation techniques' effect on CPU sleep states.
//!
//! CC6 residency while ubench runs with no CPU-side work: first the
//! no-SSR baseline, then the SSR-generating run under each of the eight
//! mitigation combinations.

use crate::config::{Mitigation, SystemConfig};
use crate::experiments::render_table;
use crate::runner::RunCtx;
use crate::soc::ExperimentBuilder;

/// One bar of Fig. 9.
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// Bar label (`ubench_no_SSR` or a mitigation combination).
    pub label: String,
    /// CC6 residency in `[0, 1]`.
    pub cc6_residency: f64,
}

/// Runs Fig. 9 for explicit combinations (the no-SSR baseline is always
/// prepended).
pub fn fig9_with(ctx: &RunCtx, cfg: &SystemConfig, combos: &[Mitigation]) -> Vec<Fig9Row> {
    // Job 0 is the pinned no-SSR baseline; jobs 1.. are the mitigation
    // combinations, so the output keeps the figure's bar order.
    ctx.run_jobs(combos.len() + 1, |i| {
        if i == 0 {
            let quiet = ExperimentBuilder::new(*cfg).gpu_app_pinned("ubench").run();
            return Fig9Row {
                label: "ubench_no_SSR".into(),
                cc6_residency: quiet.cc6_residency,
            };
        }
        let m = combos[i - 1];
        let run = if m == Mitigation::DEFAULT {
            ctx.cache().gpu_idle_baseline(cfg, "ubench")
        } else {
            std::sync::Arc::new(
                ExperimentBuilder::new(*cfg)
                    .gpu_app("ubench")
                    .mitigation(m)
                    .run(),
            )
        };
        Fig9Row {
            label: m.label(),
            cc6_residency: run.cc6_residency,
        }
    })
}

/// Runs the full Fig. 9 (all eight combinations).
pub fn fig9(ctx: &RunCtx, cfg: &SystemConfig) -> Vec<Fig9Row> {
    fig9_with(ctx, cfg, &Mitigation::all_combinations())
}

/// Renders Fig. 9 as text.
pub fn render(rows: &[Fig9Row]) -> String {
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![r.label.clone(), format!("{:.1}%", r.cc6_residency * 100.0)])
        .collect();
    render_table(&["configuration", "CC6 residency"], &data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mitigations_recover_sleep_time() {
        let cfg = SystemConfig::a10_7850k();
        let combos = vec![
            Mitigation::DEFAULT,
            Mitigation {
                steer_single_core: true,
                ..Mitigation::DEFAULT
            },
        ];
        let rows = fig9_with(&RunCtx::new(2), &cfg, &combos);
        assert_eq!(rows.len(), 3);
        let no_ssr = rows[0].cc6_residency;
        let default = rows[1].cc6_residency;
        let steered = rows[2].cc6_residency;
        // SSRs crater residency; steering recovers a large part of it by
        // letting the un-steered cores sleep (paper: 12% -> ~50%).
        assert!(no_ssr > 0.7, "no_SSR residency {no_ssr}");
        assert!(default < no_ssr * 0.6, "default residency {default}");
        assert!(
            steered > default + 0.1,
            "steering should recover sleep: {steered} vs {default}"
        );
    }
}
