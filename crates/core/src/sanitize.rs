//! Runtime metrics-sanitizer switch.
//!
//! Every finalized run is audited against the declared conservation
//! laws ([`hiss_obs::invariants`]) and publishes how many were checked
//! as `run.invariants_checked`. Whether a violation **aborts** the run
//! is controlled here:
//!
//! - debug builds (so the whole test suite) always fail hard,
//! - release builds fail hard when `HISS_SANITIZE=1` (or `true`, `yes`,
//!   `on`) is set, or when a front-end calls [`force_sanitize`] (only
//!   `hiss-cli scenario run --sanitize` does).
//!
//! The audit itself always runs and the counter is always published, so
//! snapshots stay byte-identical whatever the enforcement mode. The
//! serving path does not flip this switch: `hiss_serve::Service` audits
//! every cell it serves itself.

use std::sync::OnceLock;

static ENABLED: OnceLock<bool> = OnceLock::new();

fn env_requests_sanitize() -> bool {
    matches!(
        std::env::var("HISS_SANITIZE").ok().as_deref(),
        Some("1") | Some("true") | Some("yes") | Some("on")
    )
}

/// Turns hard-failure enforcement on for the rest of the process, as if
/// `HISS_SANITIZE=1` had been set. `hiss-cli scenario run --sanitize`
/// calls it before any run. The switch is set once per process: once it
/// has been read as off, this call changes nothing and violations keep
/// being counted without aborting.
pub fn force_sanitize() {
    ENABLED.get_or_init(|| true);
}

/// Whether a conservation-law violation must abort the run: always in
/// debug builds, opt-in via `HISS_SANITIZE` / [`force_sanitize`] in
/// release builds. The environment is read once per process.
pub fn sanitize_enabled() -> bool {
    cfg!(debug_assertions) || *ENABLED.get_or_init(env_requests_sanitize)
}

#[cfg(test)]
mod tests {
    #[test]
    fn debug_builds_always_enforce() {
        // The test suite compiles with debug assertions, which is
        // exactly the "always-on in tests" guarantee.
        assert!(super::sanitize_enabled());
    }
}
