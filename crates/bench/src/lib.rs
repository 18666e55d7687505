//! # hiss-bench — the bench gate behind `hiss-cli bench`
//!
//! The performance-regression subsystem that holds the simulator's
//! deterministic work counters to the committed `BENCH_BASELINE.json`
//! (see `docs/BENCH.md`):
//!
//! - [`alloc`] — a counting global allocator and per-thread
//!   [`AllocProbe`] for deterministic allocation counters,
//! - [`baseline`] — the committed `BENCH_BASELINE.json` format
//!   (JSON-lines of [`hiss_obs::MetricsRegistry`] snapshots),
//! - [`compare`] — the comparator `bench check` gates on.
//!
//! Nothing here reads a clock. Wall-clock time is measured by the
//! standalone `hissbench` package (`hissbench/README.md`), and the
//! paper's tables and figures are printed by `hiss-cli figures`.

pub mod alloc;
pub mod baseline;
pub mod compare;

pub use alloc::{AllocProbe, CountingAlloc};
