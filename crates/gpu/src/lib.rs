//! # hiss-gpu — accelerator (GPU) model
//!
//! The accelerator side of the HISS simulator. A [`Gpu`] executes an
//! abstract kernel (an amount of work measured in nanoseconds of full-speed
//! execution) while generating **system service requests** (SSRs) — demand
//! page faults and signals — according to an [`SsrProfile`] drawn from the
//! workload catalog.
//!
//! Two mechanisms throttle a real GPU that requests OS services, and both
//! are modelled explicitly (paper §VI builds its QoS scheme on them):
//!
//! 1. **The hardware limit on outstanding SSRs.** An accelerator must hold
//!    state for every in-flight request; when [`GpuParams::max_outstanding`]
//!    requests are unserved, the GPU stalls until one completes. This is
//!    the backpressure channel the QoS governor exploits.
//! 2. **Data dependence.** A wavefront that faulted may be unable to
//!    proceed until the fault is served. [`SsrProfile::blocking_prob`]
//!    captures how often an SSR sits on the kernel's critical path (high
//!    for SSSP's irregular graph walks, near zero for the streaming
//!    microbenchmark that always has other parallel work).
//!
//! The [`Gpu`] is a passive state machine: the SoC event loop asks it for
//! its next self-event ([`Gpu::next_event`]), advances it
//! ([`Gpu::advance_to`]), delivers raised SSRs to the IOMMU, and feeds
//! completions back ([`Gpu::on_ssr_complete`]). A generation counter
//! ([`Gpu::generation`]) lets the event loop discard stale scheduled
//! events after asynchronous state changes.

pub mod model;
pub mod request;

pub use model::{Gpu, GpuEventKind, GpuParams};
pub use request::{SsrId, SsrKind, SsrProfile, SsrRequest};

// Re-exported so downstream device models can mint fault pages without a
// direct hiss-mem dependency.
pub use hiss_mem::PageId;
