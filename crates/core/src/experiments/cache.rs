//! Memoization of baseline (and default-configuration) simulation runs,
//! one cache per [`RunCtx`](crate::RunCtx).
//!
//! Every figure normalises against the same two baselines — the paper's
//! Fig. 3a "no-SSR pairing" ([`BaselineCache::cpu_baseline`]) and the
//! Fig. 3b "idle CPUs" run ([`BaselineCache::gpu_idle_baseline`]) — and
//! several artifacts (Fig. 3 cells, the Fig. 6 denominators, Fig. 12's
//! `default` bars, the Pareto sweep's `Default` combination) additionally
//! share the *default-configuration co-run*
//! ([`BaselineCache::corun_default`]). Before this cache existed the
//! Pareto sweep alone re-simulated the identical 13 × 6 baseline grid for
//! each of its 8 mitigation combinations.
//!
//! Caching is sound because a run is a pure function of
//! `(SystemConfig, workloads, mitigation, seed)` and bit-for-bit
//! deterministic (`soc::tests::runs_are_deterministic`): a memoized
//! report is indistinguishable from a recomputed one, so cached parallel
//! runs remain identical to serial uncached runs.
//!
//! The key is the `Debug` rendering of [`SystemConfig`] (which
//! round-trips every `f64` field exactly and covers the seed) plus the
//! run kind and application names. Every kind runs the default
//! mitigation, so the config is keyed in its
//! [`effective`](SystemConfig::effective) form under it: a sweep of the
//! coalescing window or the steering target shares its baselines.
//! Entries are a few kilobytes (traces are never cached); a full
//! figures regeneration holds a few hundred.
// Sanctioned exemption (see lint.toml): the map is probed by key only,
// never iterated, so hash order cannot reach any result.
#![allow(clippy::disallowed_types)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::config::{Mitigation, SystemConfig};
use crate::metrics::RunReport;
use crate::soc::ExperimentBuilder;
use crate::store::{DiskStore, StoreKey};

/// Which baseline flavour an entry holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Kind {
    /// CPU app + pinned (no-SSR) GPU app — the Fig. 3a denominator.
    CpuBaseline,
    /// GPU app alone on idle CPUs — the Fig. 3b denominator.
    GpuIdle,
    /// CPU app + GPU app, default mitigation, no QoS — the Fig. 6/12
    /// denominator and the default Pareto point.
    CorunDefault,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Key {
    cfg: String,
    kind: Kind,
    cpu_app: String,
    gpu_app: String,
}

impl Kind {
    /// Stable spelling used in disk-store fingerprints.
    fn as_str(self) -> &'static str {
        match self {
            Kind::CpuBaseline => "cpu_baseline",
            Kind::GpuIdle => "gpu_idle",
            Kind::CorunDefault => "corun_default",
        }
    }
}

impl Key {
    fn new(cfg: &SystemConfig, kind: Kind, cpu_app: &str, gpu_app: &str) -> Self {
        Key {
            // Debug formatting round-trips f64 fields exactly, giving a
            // faithful fingerprint without requiring Hash/Eq on a struct
            // full of floats.
            cfg: format!("{:?}", cfg.effective(Mitigation::DEFAULT)),
            kind,
            cpu_app: cpu_app.to_string(),
            gpu_app: gpu_app.to_string(),
        }
    }

    /// The key's content-addressed disk-store identity.
    fn store_key(&self) -> StoreKey {
        StoreKey::from_parts(&[&self.cfg, self.kind.as_str(), &self.cpu_app, &self.gpu_app])
    }
}

/// Memoizes baseline [`RunReport`]s for every experiment run on one
/// [`RunCtx`](crate::RunCtx).
///
/// Thread-safe and shared: grid cells running on the context's
/// [`runner`](crate::runner) pool hit it concurrently. Entries are
/// *single-flight*: the map hands out a per-key [`OnceLock`] cell under
/// a short-lived lock, and the simulation itself runs inside
/// `OnceLock::get_or_init` — so concurrent misses on different keys
/// proceed in parallel, while a second worker needing an in-flight key
/// blocks on that cell instead of duplicating the (millisecond-scale)
/// run.
#[derive(Debug, Default)]
pub struct BaselineCache {
    map: Mutex<HashMap<Key, Arc<OnceLock<Arc<RunReport>>>>>,
    /// Optional second tier, `hissbench` shim only (see
    /// [`Self::attach_disk`]).
    disk: Mutex<Option<Arc<DiskStore>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl BaselineCache {
    /// A process-wide cache, kept (with [`Self::clear`],
    /// [`Self::attach_disk`] and [`Self::detach_disk`]) only for the
    /// `hissbench` harness until it moves to
    /// [`RunCtx::cache`](crate::RunCtx::cache).
    pub fn global() -> &'static BaselineCache {
        static GLOBAL: OnceLock<BaselineCache> = OnceLock::new();
        GLOBAL.get_or_init(BaselineCache::default)
    }

    /// `cpu_app` against the pinned (no-SSR) variant of `gpu_app` — the
    /// paper's Fig. 3a normalisation baseline.
    pub fn cpu_baseline(&self, cfg: &SystemConfig, cpu_app: &str, gpu_app: &str) -> Arc<RunReport> {
        self.get_or_run(Key::new(cfg, Kind::CpuBaseline, cpu_app, gpu_app), || {
            ExperimentBuilder::new(*cfg)
                .cpu_app(cpu_app)
                .gpu_app_pinned(gpu_app)
                .run()
        })
    }

    /// `gpu_app` alone on idle CPUs — the Fig. 3b normalisation baseline.
    pub fn gpu_idle_baseline(&self, cfg: &SystemConfig, gpu_app: &str) -> Arc<RunReport> {
        self.get_or_run(Key::new(cfg, Kind::GpuIdle, "", gpu_app), || {
            ExperimentBuilder::new(*cfg).gpu_app(gpu_app).run()
        })
    }

    /// `cpu_app` against `gpu_app` under the default configuration (no
    /// mitigation, no QoS) — shared by Fig. 3 cells, the Fig. 6 and
    /// Fig. 12 denominators, and the Pareto `Default` combination.
    pub fn corun_default(
        &self,
        cfg: &SystemConfig,
        cpu_app: &str,
        gpu_app: &str,
    ) -> Arc<RunReport> {
        self.get_or_run(Key::new(cfg, Kind::CorunDefault, cpu_app, gpu_app), || {
            ExperimentBuilder::new(*cfg)
                .cpu_app(cpu_app)
                .gpu_app(gpu_app)
                .run()
        })
    }

    /// Attaches a content-addressed [`DiskStore`] as a second cache
    /// tier (`hissbench` shim, see [`Self::global`]). Misses in the
    /// in-memory map consult the store before simulating, and freshly
    /// computed reports are published to it (atomically — see
    /// [`DiskStore::save`]).
    pub fn attach_disk(&self, store: Arc<DiskStore>) {
        *self.disk.lock().expect("cache poisoned") = Some(store);
    }

    /// Detaches any attached disk tier (`hissbench` shim, see
    /// [`Self::global`]).
    pub fn detach_disk(&self) {
        *self.disk.lock().expect("cache poisoned") = None;
    }

    fn get_or_run(&self, key: Key, run: impl FnOnce() -> RunReport) -> Arc<RunReport> {
        let skey = key.store_key();
        let cell = {
            let mut map = self.map.lock().expect("cache poisoned");
            match map.entry(key) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    Arc::clone(e.get())
                }
                std::collections::hash_map::Entry::Vacant(v) => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    Arc::clone(v.insert(Arc::new(OnceLock::new())))
                }
            }
        };
        // Simulate (or load) outside the map lock; get_or_init
        // serialises only the workers that need this same key.
        Arc::clone(cell.get_or_init(|| {
            let disk = self.disk.lock().expect("cache poisoned").clone();
            if let Some(store) = &disk {
                if let Some(metrics) = store.load(&skey) {
                    return Arc::new(RunReport::from_metrics(metrics));
                }
            }
            let report = run();
            if let Some(store) = &disk {
                // Best-effort: a failed publish (disk full, permissions)
                // degrades to recompute-next-time, never to a wrong result.
                let _ = store.save(&skey, &report.metrics);
            }
            Arc::new(report)
        }))
    }

    /// Drops every entry (`hissbench` shim, see [`Self::global`]; a fresh
    /// [`RunCtx`](crate::RunCtx) has a cold cache).
    pub fn clear(&self) {
        self.map.lock().expect("cache poisoned").clear();
    }

    /// Number of memoized runs currently held.
    fn len(&self) -> usize {
        self.map.lock().expect("cache poisoned").len()
    }

    /// Lifetime lookup hits — the key existed, though its run may still
    /// have been in flight (monotonic, survives [`Self::clear`]).
    pub fn hit_count(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime lookup misses — each corresponds to exactly one
    /// simulation run (monotonic, survives [`Self::clear`]).
    pub fn miss_count(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Publishes the cache's lifetime counters into a metrics registry
    /// under `prefix`. They count a whole batch's lookups, so they belong
    /// in batch-level profiles and bench snapshots, never in a per-run
    /// [`RunReport`] snapshot.
    pub fn publish(&self, reg: &mut hiss_obs::MetricsRegistry, prefix: &str) {
        reg.counter(format!("{prefix}.hits"), self.hit_count());
        reg.counter(format!("{prefix}.misses"), self.miss_count());
        reg.counter(format!("{prefix}.entries"), self.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memoized_reports_match_fresh_runs() {
        let cache = BaselineCache::default();
        let cfg = SystemConfig::a10_7850k();
        let cached = cache.cpu_baseline(&cfg, "swaptions", "bfs");
        let fresh = ExperimentBuilder::new(cfg)
            .cpu_app("swaptions")
            .gpu_app_pinned("bfs")
            .run();
        assert_eq!(cached.cpu_app_runtime(), fresh.cpu_app_runtime());
        assert_eq!(cached.elapsed(), fresh.elapsed());
        assert_eq!(cached.ssrs_serviced(), fresh.ssrs_serviced());
    }

    #[test]
    fn second_lookup_hits() {
        let cache = BaselineCache::default();
        let cfg = SystemConfig::a10_7850k();
        let a = cache.gpu_idle_baseline(&cfg, "bfs");
        let b = cache.gpu_idle_baseline(&cfg, "bfs");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.hit_count(), 1);
        assert_eq!(cache.miss_count(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_configs_do_not_collide() {
        let cache = BaselineCache::default();
        let cfg = SystemConfig::a10_7850k();
        let mut other = cfg;
        other.seed = cfg.seed ^ 1;
        let a = cache.gpu_idle_baseline(&cfg, "ubench");
        let b = cache.gpu_idle_baseline(&other, "ubench");
        assert_eq!(cache.len(), 2);
        // Different seeds genuinely differ in outcome.
        assert_ne!(a.ssrs_serviced(), b.ssrs_serviced());
    }

    /// A default-mitigation run never reads the coalescing window or the
    /// steering target, so configs differing only there share an entry,
    /// and the shared report is the one either config simulates.
    #[test]
    fn window_and_steer_target_sweeps_share_baselines() {
        let cache = BaselineCache::default();
        let cfg = SystemConfig::a10_7850k();
        let mut other = cfg;
        other.coalesce_window = hiss_sim::Ns::from_micros(2);
        other.steer_target = hiss_cpu::CoreId(3);
        let a = cache.gpu_idle_baseline(&cfg, "ubench");
        let b = cache.gpu_idle_baseline(&other, "ubench");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((cache.hit_count(), cache.miss_count()), (1, 1));
        let fresh = ExperimentBuilder::new(other).gpu_app("ubench").run();
        assert_eq!(fresh.metrics.to_json(), b.metrics.to_json());
    }

    #[test]
    fn kinds_are_disjoint() {
        let cache = BaselineCache::default();
        let cfg = SystemConfig::a10_7850k();
        cache.cpu_baseline(&cfg, "x264", "ubench");
        cache.corun_default(&cfg, "x264", "ubench");
        assert_eq!(cache.len(), 2);
        cache.clear();
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn disk_tier_round_trips_metrics_byte_identically() {
        let dir = std::env::temp_dir().join(format!("hiss-cache-disk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = SystemConfig::a10_7850k();

        // First process: miss everywhere, simulate, publish to disk.
        let store = Arc::new(DiskStore::open(&dir).expect("open store"));
        let writer = BaselineCache::default();
        writer.attach_disk(Arc::clone(&store));
        let fresh = writer.corun_default(&cfg, "x264", "ubench");
        assert_eq!(store.write_count(), 1);
        assert_eq!(store.hit_count(), 0);

        // Second process (fresh in-memory cache, same store): the run
        // must come back from disk with byte-identical metrics, so
        // bit-exact accessors — no simulation.
        let reader = BaselineCache::default();
        let disk = Arc::new(DiskStore::open(&dir).expect("reopen store"));
        reader.attach_disk(Arc::clone(&disk));
        let loaded = reader.corun_default(&cfg, "x264", "ubench");
        assert_eq!(disk.hit_count(), 1);
        assert_eq!(disk.write_count(), 0);
        assert_eq!(loaded.metrics.to_json(), fresh.metrics.to_json());
        assert_eq!(loaded.elapsed(), fresh.elapsed());
        assert_eq!(loaded.ssrs_serviced(), fresh.ssrs_serviced());
        assert_eq!(
            loaded.gpu_throughput().to_bits(),
            fresh.gpu_throughput().to_bits()
        );

        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn publish_exports_lifetime_counters() {
        let cache = BaselineCache::default();
        let cfg = SystemConfig::a10_7850k();
        cache.gpu_idle_baseline(&cfg, "bfs");
        cache.gpu_idle_baseline(&cfg, "bfs");
        let mut reg = hiss_obs::MetricsRegistry::new();
        cache.publish(&mut reg, "baseline_cache");
        assert_eq!(reg.counter_value("baseline_cache.hits"), Some(1));
        assert_eq!(reg.counter_value("baseline_cache.misses"), Some(1));
        assert_eq!(reg.counter_value("baseline_cache.entries"), Some(1));
    }
}
