//! # hiss-obs — structured observability for HISS
//!
//! The paper's entire argument rests on counters — interrupt counts per
//! core, IPI inflation (477×), CC6 residency, SSR latency distributions
//! — but each component crate historically kept its own ad-hoc stats
//! struct and every figure module copied out the two or three fields it
//! plotted. This crate is the uniform surface those counters publish
//! into:
//!
//! - [`MetricsRegistry`] — a zero-dependency, process-light map of named
//!   counters / gauges / labels / histograms with **deterministic
//!   iteration order**, so snapshots are byte-identical however many
//!   worker threads produced the underlying run,
//! - JSON snapshots ([`MetricsRegistry::to_json`] /
//!   [`MetricsRegistry::from_json`]) with shortest-round-trip float
//!   formatting: re-parsing a snapshot reproduces every value bit-exactly.
//!   Neither direction makes a temporary per metric;
//!   [`MetricsRegistry::write_json`] appends to a caller's buffer and
//!   [`json_escape_into`] is the one JSON string escaper,
//! - renderers ([`MetricsRegistry::to_table`],
//!   [`MetricsRegistry::to_jsonl`]) backing `hiss-cli report`.
//!
//! Component crates (`hiss-kernel`, `hiss-iommu`, `hiss-cpu`,
//! `hiss-qos`) implement `publish(&self, &mut MetricsRegistry)` on their
//! stats types; `hiss::Soc` assembles the per-run snapshot exposed as
//! `RunReport::metrics`, with one `devN.*` block per SSR source.
//!
//! # Naming convention
//!
//! Dotted lowercase paths, component first: `kernel.ipis`,
//! `kernel.interrupts.core0`, `iommu.walker.pwc_hits`,
//! `cpu.core1.sleep_cc6_ns`, `dev0.ssrs_completed`, `run.cc6_residency`.
//! Identity metadata (application names, sweep coordinates) rides along
//! as labels under `cell.*` so a snapshot file is self-describing.
//!
//! The full namespace is declared statically in [`schema`]; `hiss-cli
//! lint` checks scenario `[expect]` metrics and `docs/OBSERVABILITY.md`
//! against it so specs, docs, and the registry cannot drift.
//!
//! On top of the schema, [`invariants`] declares the conservation laws
//! the namespace obeys (SSR chain accounting, per-core sums, bench
//! totals vs cells) as one table that the runtime sanitizer, the
//! baseline lint, and the expect-band lint all enforce.

pub mod invariants;
mod json;
mod registry;
mod render;
pub mod schema;

pub use json::{json_escape_into, JsonGap};
pub use registry::{HistogramSnapshot, MetricValue, MetricsRegistry};
