//! # hiss-mem — memory-hierarchy models
//!
//! Microarchitectural substrate for the HISS simulator. GPU system service
//! requests (SSRs) hurt CPU applications two ways (paper §II-D): *directly*
//! (stolen cycles in handlers) and *indirectly* (the kernel handler evicts
//! user state from caches and branch predictors, so user code runs slower
//! after every interrupt — the blue cross-hatched 'b' segments of Fig. 2).
//! This crate models the indirect channel:
//!
//! - [`Cache`]: a structural set-associative cache with per-owner occupancy
//!   tracking, used to *derive and validate* pollution behaviour,
//! - [`GsharePredictor`]: a structural branch predictor, same role,
//! - [`WarmthModel`]: the fast statistical model actually used inside
//!   figure-scale simulations (exponential decay of "warmth" while the
//!   kernel runs, exponential refill while user code runs),
//! - [`PageId`]: the virtual page a GPU demand fault (an SSR) names.
//!
//! The structural and statistical models are cross-checked in integration
//! tests — the warmth model is the one that runs inside experiments
//! because figure grids simulate hundreds of milliseconds across 80+
//! configurations.

pub mod branch;
pub mod cache;
pub mod page;
pub mod pollution;

pub use branch::GsharePredictor;
pub use cache::{AccessResult, Cache, CacheConfig, Owner};
pub use page::PageId;
pub use pollution::{PollutionParams, WarmthModel};
