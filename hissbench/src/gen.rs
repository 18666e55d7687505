//! The seeded workload generator: every `.hiss` text the program sees
//! comes from here, and the same seed gives byte-identical texts.

/// SplitMix64: tiny, seedable, and stable across platforms.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A simulation seed: positive and well inside the `seed` knob's range.
    fn sim_seed(&mut self) -> u64 {
        1 + self.next_u64() % 1_000_000_000
    }
}

/// The PARSEC CPU applications (the paper's Fig. 3 rows).
pub const CPU_APPS: [&str; 13] = [
    "blackscholes",
    "bodytrack",
    "canneal",
    "dedup",
    "facesim",
    "ferret",
    "fluidanimate",
    "freqmine",
    "raytrace",
    "streamcluster",
    "swaptions",
    "vips",
    "x264",
];

/// The GPU applications (the paper's Fig. 3 columns).
pub const GPU_APPS: [&str; 6] = ["bfs", "bpt", "spmv", "sssp", "xsbench", "ubench"];

/// The §V mitigation combinations used on `serve_fresh` submissions.
const FRESH_MITIGATIONS: [&str; 6] = [
    "default",
    "steer",
    "coalesce",
    "mono",
    "steer+coalesce",
    "coalesce+mono",
];

fn quoted(items: &[&str]) -> String {
    let q: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
    format!("[{}]", q.join(", "))
}

/// `sweep_cold`: every CPU × GPU application, a mitigation axis with
/// `default` and two §V combinations, and two simulation seeds derived
/// from `seed` — 13 × 6 × 3 × 2 = 468 cells. Baselines are shared
/// across the mitigation axis, so the baseline cache is exercised.
pub fn sweep_cold(seed: u64) -> String {
    let mut rng = Rng::new(seed, 1);
    let a = rng.sim_seed();
    let b = a + 1 + rng.below(1000) as u64;
    format!(
        "[scenario]\nname = \"sweep-cold\"\n\n[workload]\ncpu = {}\ngpu = {}\n\n\
         [sweep]\nmitigation = [\"default\", \"coalesce\", \"steer+coalesce+mono\"]\n\
         seed = [{a}, {b}]\n",
        quoted(&CPU_APPS),
        quoted(&GPU_APPS)
    )
}

/// The `serve_replay` text pool: one text per committed pack, each
/// reproducing that pack's quick grid (fig3, fig6_mitigations,
/// qos_sweep, topology, mixed_criticality, multi_gpu, timing_knobs,
/// cc6_ablation, pareto) with a simulation seed derived from `seed`.
pub fn replay_pool(seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed, 2);
    let mut s = || rng.sim_seed();
    vec![
        format!(
            "[scenario]\nname = \"replay-fig3\"\n[workload]\n\
             cpu = [\"fluidanimate\", \"raytrace\", \"streamcluster\", \"x264\"]\n\
             gpu = [\"bfs\", \"sssp\", \"ubench\"]\n[system]\nseed = {}\n",
            s()
        ),
        format!(
            "[scenario]\nname = \"replay-fig6\"\n[workload]\ncpu = [\"fluidanimate\"]\n\
             gpu = [\"sssp\", \"ubench\"]\n[system]\nseed = {}\n\
             [sweep]\nmitigation = [\"default\", \"steer\", \"coalesce\", \"mono\"]\n",
            s()
        ),
        format!(
            "[scenario]\nname = \"replay-qos\"\n[workload]\ncpu = [\"x264\"]\ngpu = [\"ubench\"]\n\
             [system]\nseed = {}\n[sweep]\nqos_percent = [0, 1, 5, 25]\n",
            s()
        ),
        format!(
            "[scenario]\nname = \"replay-topology\"\n[workload]\ncpu = [\"x264\"]\n\
             gpu = [\"ubench\"]\n[system]\nseed = {}\n[topology]\n\
             devices = [\"gpu\", \"nic\", \"dma\"]\nsteer = [-1, 3, -1]\n\
             [sweep]\nmitigation = [\"default\", \"steer+coalesce\"]\n",
            s()
        ),
        format!(
            "[scenario]\nname = \"replay-criticality\"\n[workload]\n\
             cpu = [\"raytrace\", \"x264\"]\ngpu = [\"aggressor\"]\n[system]\nseed = {}\n\
             [topology]\ndevices = [\"gpu\", \"nic\"]\n[criticality]\n\
             critical = [\"raytrace\"]\ncritical_devices = [1]\nreserve = true\n\
             critical_cores = 1\nppr_quota_percent = 50\ncritical_window_us = 0\n\
             best_effort_window_us = 13\n",
            s()
        ),
        format!(
            "[scenario]\nname = \"replay-multi-gpu\"\n[workload]\ncpu = [\"x264\"]\n\
             gpu = [\"ubench\"]\n[system]\nseed = {}\n[sweep]\ngpus = [1, 2, 4]\n",
            s()
        ),
        {
            let a = s();
            format!(
                "[scenario]\nname = \"replay-timing\"\n[workload]\ncpu = [\"x264\"]\n\
                 gpu = [\"ubench\"]\n[system]\ncores = 4\ntimer_tick_us = 1000\n\
                 max_sim_time_ms = 300\nsteer_target = 3\ncoalesce_window_us = 10\n\
                 [mitigation]\nsteer = true\ncoalesce = true\n[sweep]\nseed = [{a}, {}]\n",
                a + 1
            )
        },
        format!(
            "[scenario]\nname = \"replay-cc6\"\n[workload]\ncpu = [\"raytrace\"]\n\
             gpu = [\"sssp\"]\n[system]\nseed = {}\n[sweep]\ncc6 = [true, false]\n",
            s()
        ),
        format!(
            "[scenario]\nname = \"replay-pareto\"\n[workload]\ncpu = [\"x264\"]\n\
             gpu = [\"ubench\"]\n[system]\nseed = {}\n[sweep]\nmitigation = [\n    \
             \"default\", \"steer\", \"coalesce\", \"mono\",\n    \
             \"steer+coalesce\", \"steer+mono\", \"coalesce+mono\",\n    \
             \"steer+coalesce+mono\",\n]\n",
            s()
        ),
    ]
}

/// The `serve_replay` submission order: `n` draws, with repeats, from a
/// pool of `pool` texts, as consecutive seeded permutations of the pool,
/// so every run sees the same mix of texts whatever its length.
pub fn replay_draws(seed: u64, pool: usize, n: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed, 3);
    let mut draws = Vec::with_capacity(n + pool);
    while draws.len() < n {
        draws.extend(permutation(&mut rng, pool));
    }
    draws.truncate(n);
    draws
}

/// The `i`-th `serve_fresh` submission: two CPU applications × one GPU
/// application × six mitigation combinations = 12 cells (more than one
/// streaming chunk), at a simulation seed no earlier submission of the
/// run used. Applications cycle through seeded permutations, so every
/// run of a few dozen submissions sees the same application mix.
pub fn fresh(seed: u64, i: usize) -> String {
    let mut rng = Rng::new(seed, 4);
    let base = rng.sim_seed();
    let cpu = permutation(&mut rng, CPU_APPS.len());
    let gpu = permutation(&mut rng, GPU_APPS.len());
    let (a, b) = (cpu[(2 * i) % cpu.len()], cpu[(2 * i + 1) % cpu.len()]);
    format!(
        "[scenario]\nname = \"fresh-{i}\"\n[workload]\ncpu = {}\ngpu = [\"{}\"]\n\
         [system]\nseed = {}\n[sweep]\nmitigation = {}\n",
        quoted(&[CPU_APPS[a], CPU_APPS[b]]),
        GPU_APPS[gpu[i % gpu.len()]],
        base + i as u64,
        quoted(&FRESH_MITIGATIONS)
    )
}

/// A seeded permutation of `0..n` (Fisher–Yates).
fn permutation(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for k in (1..n).rev() {
        p.swap(k, rng.below(k + 1));
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells(text: &str) -> usize {
        let sc = hiss_scenario::Scenario::from_str(text).expect("generated text parses");
        hiss_scenario::expand(&sc, false).len()
    }

    fn lint_clean(text: &str) {
        let diags = hiss_scenario::lint::lint_text("gen.hiss", text);
        assert!(diags.is_empty(), "{text}\n{diags:?}");
    }

    #[test]
    fn same_seed_gives_byte_identical_texts() {
        for seed in [0, 1, 42, u64::MAX] {
            assert_eq!(sweep_cold(seed), sweep_cold(seed));
            assert_eq!(replay_pool(seed), replay_pool(seed));
            assert_eq!(replay_draws(seed, 9, 500), replay_draws(seed, 9, 500));
            assert_eq!(fresh(seed, 3), fresh(seed, 3));
        }
        assert_ne!(sweep_cold(1), sweep_cold(2));
        assert_ne!(replay_pool(1), replay_pool(2));
        assert_ne!(replay_draws(1, 9, 50), replay_draws(2, 9, 50));
        assert_ne!(fresh(1, 0), fresh(2, 0));
    }

    #[test]
    fn generated_texts_lint_clean_with_the_documented_grid_sizes() {
        let seed = 7;
        lint_clean(&sweep_cold(seed));
        assert_eq!(cells(&sweep_cold(seed)), 13 * 6 * 3 * 2);
        let pool = replay_pool(seed);
        let sizes: Vec<usize> = pool.iter().map(|t| cells(t)).collect();
        assert_eq!(sizes, vec![12, 8, 4, 2, 2, 3, 2, 2, 8]);
        for t in &pool {
            lint_clean(t);
        }
        for i in 0..20 {
            lint_clean(&fresh(seed, i));
            assert_eq!(cells(&fresh(seed, i)), 12);
        }
    }

    #[test]
    fn fresh_submissions_never_reuse_a_seed_and_draw_every_pool_text() {
        let seeds: std::collections::BTreeSet<String> = (0..200)
            .map(|i| {
                let t = fresh(9, i);
                t.lines()
                    .find(|l| l.starts_with("seed"))
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(seeds.len(), 200);
        let draws = replay_draws(9, 9, 500);
        assert!((0..9).all(|k| draws.contains(&k)));
    }
}
