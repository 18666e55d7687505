//! Property tests on the QoS governor's end-to-end guarantees (paper
//! §VI): the whole point of the mechanism is that the administrator's
//! threshold actually *bounds* CPU overhead, for any workload and any
//! mitigation combination, by backpressuring the accelerator.

use hiss::{ExperimentBuilder, Mitigation, QosParams, SystemConfig};
use proptest::prelude::*;

fn cfg() -> SystemConfig {
    SystemConfig::a10_7850k()
}

/// The headline guarantee: measured SSR overhead stays near the
/// configured ceiling (the paper allows slight overshoot because the
/// limit is enforced periodically, not continuously).
#[test]
fn overhead_respects_threshold() {
    for pct in [1.0, 5.0, 25.0] {
        let r = ExperimentBuilder::new(cfg())
            .cpu_app("x264")
            .gpu_app("ubench")
            .qos(QosParams::threshold_percent(pct))
            .run();
        let ceiling = pct / 100.0;
        assert!(
            r.cpu_ssr_overhead() <= ceiling * 1.6 + 0.005,
            "th_{pct}: overhead {} exceeds ceiling {}",
            r.cpu_ssr_overhead(),
            ceiling
        );
    }
}

/// Tighter thresholds never allow more accelerator throughput.
#[test]
fn throughput_monotone_in_threshold() {
    let rate = |pct: f64| {
        ExperimentBuilder::new(cfg())
            .cpu_app("swaptions")
            .gpu_app("ubench")
            .qos(QosParams::threshold_percent(pct))
            .run()
            .ssr_rate()
    };
    let r1 = rate(1.0);
    let r5 = rate(5.0);
    let r25 = rate(25.0);
    assert!(r1 <= r5 * 1.05, "th_1 {} vs th_5 {}", r1, r5);
    assert!(r5 <= r25 * 1.05, "th_5 {} vs th_25 {}", r5, r25);
    assert!(r1 < r25 * 0.6, "sweep should span a real range");
}

/// Backpressure works through the hardware outstanding-SSR limit: under
/// heavy throttling the GPU spends most of its time stalled, and the
/// stall clears once the governor is removed.
#[test]
fn backpressure_stalls_the_gpu() {
    let free = ExperimentBuilder::new(cfg()).gpu_app("ubench").run();
    let throttled = ExperimentBuilder::new(cfg())
        .gpu_app("ubench")
        .qos(QosParams::threshold_percent(1.0))
        .run();
    assert!(throttled.qos_deferrals() > 100);
    assert!(throttled.gpu_throughput() < free.gpu_throughput() * 0.5);
    // Deferral shows up as SSR latency, not as extra CPU burn.
    assert!(throttled.mean_ssr_latency() > free.mean_ssr_latency() * 2);
    assert!(throttled.cpu_ssr_overhead() < free.cpu_ssr_overhead());
}

/// QoS composes with every §V mitigation (they are orthogonal — paper
/// §VI: "it is also orthogonal to (and can run in conjunction with) the
/// techniques of Section V").
#[test]
fn qos_composes_with_mitigations() {
    for bits in 0u8..8 {
        let m = Mitigation {
            steer_single_core: bits & 1 != 0,
            coalesce: bits & 2 != 0,
            monolithic_bottom_half: bits & 4 != 0,
        };
        let r = ExperimentBuilder::new(cfg())
            .cpu_app("vips")
            .gpu_app("ubench")
            .mitigation(m)
            .qos(QosParams::threshold_percent(2.0))
            .run();
        assert!(
            r.cpu_app_runtime().is_some(),
            "{}: run did not finish",
            m.label()
        );
        assert!(
            r.cpu_ssr_overhead() < 0.06,
            "{}: overhead {} not capped",
            m.label(),
            r.cpu_ssr_overhead()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// For any threshold and workload pairing, the governor caps overhead
    /// near the ceiling and the run terminates.
    #[test]
    fn threshold_is_honoured_everywhere(
        pct in 1.0f64..30.0,
        cpu_idx in 0usize..13,
        seed in 0u64..100,
    ) {
        let cpu = hiss::parsec_suite()[cpu_idx].name;
        let r = ExperimentBuilder::new(cfg())
            .cpu_app(cpu)
            .gpu_app("ubench")
            .qos(QosParams::threshold_percent(pct))
            .seed(seed)
            .run();
        prop_assert!(r.cpu_app_runtime().is_some());
        let ceiling = pct / 100.0;
        prop_assert!(
            r.cpu_ssr_overhead() <= ceiling * 1.6 + 0.01,
            "{cpu} th_{pct}: overhead {} vs ceiling {ceiling}",
            r.cpu_ssr_overhead()
        );
    }

    /// With QoS the CPU application is never *slower* than without it,
    /// for heavily-interfering workloads.
    #[test]
    fn qos_never_hurts_the_victim(pct in 1.0f64..10.0, seed in 0u64..50) {
        let base = ExperimentBuilder::new(cfg())
            .cpu_app("fluidanimate")
            .gpu_app("ubench")
            .seed(seed)
            .run();
        let throttled = ExperimentBuilder::new(cfg())
            .cpu_app("fluidanimate")
            .gpu_app("ubench")
            .qos(QosParams::threshold_percent(pct))
            .seed(seed)
            .run();
        let a = throttled.cpu_app_runtime().unwrap().as_nanos() as f64;
        let b = base.cpu_app_runtime().unwrap().as_nanos() as f64;
        prop_assert!(a <= b * 1.02, "QoS made the victim slower: {a} vs {b}");
    }
}
