//! # hiss — Host Interference from GPU System Services
//!
//! A full-system reproduction of **“Interference from GPU System Service
//! Requests”** (Basu, Greathouse, Venkataramani, Veselý — IISWC 2018) as
//! a deterministic discrete-event simulation of a heterogeneous SoC.
//!
//! Modern GPUs can request OS services — page faults, signals, file
//! access — but cannot execute them: the host CPUs must. The paper shows
//! on real hardware that these **system service requests (SSRs)**
//! breach performance isolation: a single GPU can slow unrelated CPU
//! applications by up to 44 %, collapse CPU deep-sleep residency from
//! 86 % to 12 %, and itself lose 18 % throughput to busy CPUs. It then
//! evaluates three mitigations (interrupt steering, coalescing, a
//! monolithic bottom-half handler) and contributes an OS **QoS governor**
//! that backpressures the GPU by delaying SSR service.
//!
//! This crate composes the substrate crates into a simulated AMD
//! A10-7850K-class SoC ([`Soc`]) and exposes every experiment of the
//! paper's evaluation as a library function ([`experiments`]).
//!
//! # Quickstart
//!
//! ```
//! use hiss::{ExperimentBuilder, SystemConfig};
//!
//! // fluidanimate (CPU) versus SSSP (GPU, demand paging) — the paper's
//! // worst full-application pairing.
//! let report = ExperimentBuilder::new(SystemConfig::a10_7850k())
//!     .cpu_app("fluidanimate")
//!     .gpu_app("sssp")
//!     .run();
//! let baseline = ExperimentBuilder::new(SystemConfig::a10_7850k())
//!     .cpu_app("fluidanimate")
//!     .gpu_app_pinned("sssp") // same GPU work, no SSRs
//!     .run();
//! let normalized = baseline.cpu_app_runtime.unwrap().as_nanos() as f64
//!     / report.cpu_app_runtime.unwrap().as_nanos() as f64;
//! assert!(normalized < 1.0); // SSRs cost the CPU application performance
//! ```

pub mod config;
pub mod energy;
pub mod experiments;
pub mod metrics;
pub mod replicate;
pub mod runner;
pub mod sanitize;
pub mod soc;
pub mod store;
pub mod trace;

pub use config::{CriticalityConfig, Mitigation, MitigationConfig, SystemConfig};
pub use energy::{EnergyParams, EnergyReport};
pub use experiments::BaselineCache;
pub use metrics::RunReport;
pub use replicate::{replicate, MetricSummary, Replicated};
pub use runner::{
    run_jobs_profiled, thread_count, thread_count_from, PoolProfile, PoolTally, RunCtx,
};
pub use sanitize::{force_sanitize, sanitize_enabled};
pub use soc::{ExperimentBuilder, Soc};
pub use store::{DiskStore, StoreKey};
pub use trace::{Trace, TraceSpan, Tracer};

// Re-export the substrate vocabulary a downstream user needs.
pub use hiss_cpu::{CoreId, TimeBreakdown, TimeCategory};
pub use hiss_gpu::{SsrKind, SsrProfile};
pub use hiss_iommu::MsiSteering;
pub use hiss_kernel::HandlerCosts;
pub use hiss_obs::{HistogramSnapshot, MetricValue, MetricsRegistry};
pub use hiss_qos::QosParams;
pub use hiss_sim::Ns;
pub use hiss_workloads::{
    gpu_suite, parsec_suite, CpuAppSpec, DeviceKind, DeviceSpec, DmaParams, GpuAppSpec, NicParams,
};
