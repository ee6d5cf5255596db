//! Determinism regression tests for the simulation kernel (time-wheel
//! event queue, activity gating, allocation-free hot loop).
//!
//! Three layers of protection:
//!
//! 1. **Repeatability** — two runs of the same `SimulationConfig` + seed
//!    produce identical delivered-packet counts, latency histograms and
//!    final cycle.
//! 2. **Pinned trajectories** — every routing mechanism under a benign and
//!    an adversarial pattern, the scenario patterns, the bursty and ramp
//!    injectors and two phase schedules are each run through a full drain
//!    and compared with literal fingerprints. The tables were captured
//!    while a second, independent kernel (binary-heap event queue, full
//!    router scan every cycle) still ran alongside and reproduced every
//!    value bit for bit; the pins now carry that kernel's role as the
//!    oracle. The 500-bin latency histogram is pinned through its FNV-1a
//!    digest.
//! 3. **Golden pin** — one configuration's summary is pinned to literal
//!    values, so a change in any RNG stream, event ordering or allocator
//!    tie-break turns up as a diff in review rather than silently shifting
//!    every future result.
//!
//! No configuration here names a kernel, so the builder reads
//! `DF_SIM_KERNEL` and CI replays every pin at each worker count it tests.

use contention_dragonfly::engine::codec::fnv1a64;
use contention_dragonfly::prelude::*;

fn config(routing: RoutingKind, pattern: PatternKind, load: f64, seed: u64) -> SimulationConfig {
    SimulationConfig::builder()
        .topology(DragonflyParams::small())
        .network(NetworkConfig::fast_test())
        .routing(routing)
        .pattern(pattern)
        .offered_load(load)
        .warmup_cycles(200)
        .measurement_cycles(600)
        .seed(seed)
        .build()
        .expect("valid configuration")
}

/// Everything that must match between two equivalent runs.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    delivered_window: u64,
    delivered_total: u64,
    generated_phits: u64,
    final_cycle: u64,
    in_flight: u64,
    latency_bits: u64,
    hops_bits: u64,
    p99_bits: u64,
    misroute_global_bits: u64,
    histogram_bins: Vec<u64>,
    drained: bool,
}

/// A [`Fingerprint`] as the tables below pin it: every scalar field in
/// declaration order, with the latency histogram folded into its FNV-1a
/// digest.
type Pin = (u64, u64, u64, u64, u64, u64, u64, u64, u64, u64, bool);

impl Fingerprint {
    fn pin(&self) -> Pin {
        let bins: Vec<u8> = self
            .histogram_bins
            .iter()
            .flat_map(|b| b.to_le_bytes())
            .collect();
        (
            self.delivered_window,
            self.delivered_total,
            self.generated_phits,
            self.final_cycle,
            self.in_flight,
            self.latency_bits,
            self.hops_bits,
            self.p99_bits,
            self.misroute_global_bits,
            fnv1a64(&bins),
            self.drained,
        )
    }
}

fn run_fingerprint(cfg: SimulationConfig) -> Fingerprint {
    let mut net = Network::new(cfg.clone());
    net.run_cycles(cfg.warmup_cycles);
    let start = net.cycle();
    net.metrics_mut().start_measurement(start);
    net.run_cycles(cfg.measurement_cycles);
    let drained = net.drain(100_000);
    let summary = net.metrics().window_summary();
    Fingerprint {
        delivered_window: summary.delivered_packets,
        delivered_total: net.metrics().delivered_packets_total(),
        generated_phits: net.metrics().generated_phits_total,
        final_cycle: net.cycle(),
        in_flight: net.in_flight(),
        latency_bits: summary.avg_packet_latency.to_bits(),
        hops_bits: summary.avg_hops.to_bits(),
        p99_bits: summary.p99_latency.to_bits(),
        misroute_global_bits: summary.global_misroute_fraction.to_bits(),
        histogram_bins: net.metrics().latency_histogram().bins().to_vec(),
        drained,
    }
}

#[test]
fn same_seed_same_fingerprint() {
    let a = run_fingerprint(config(RoutingKind::Base, PatternKind::Uniform, 0.25, 42));
    let b = run_fingerprint(config(RoutingKind::Base, PatternKind::Uniform, 0.25, 42));
    assert_eq!(a, b, "identical config + seed must reproduce exactly");
    assert!(a.drained);
}

#[test]
fn different_seed_different_fingerprint() {
    let a = run_fingerprint(config(RoutingKind::Base, PatternKind::Uniform, 0.25, 1));
    let b = run_fingerprint(config(RoutingKind::Base, PatternKind::Uniform, 0.25, 2));
    assert_ne!(a, b, "different seeds must explore different trajectories");
}

/// `(routing, pattern, pin)` for every routing mechanism under UN at load
/// 0.1 and ADV+1 at load 0.35, seed 7.
#[rustfmt::skip]
const PINNED_ROUTING: &[(&str, &str, Pin)] = &[
    ("MIN", "UN", (566, 706, 5648, 850, 0, 0x4045CEED00E79377, 0x4002BDF6F43D832C, 0x4051800000000000, 0x0000000000000000, 0xDF1AB1A30482BC74, true)),
    ("MIN", "ADV+1", (2338, 2517, 20136, 2454, 0, 0x4089912AB402A0BE, 0x4003F11BCFD2732F, 0x409AB80000000000, 0x0000000000000000, 0xF52C08BB8E7773AD, true)),
    ("VAL", "UN", (593, 706, 5648, 897, 0, 0x4054974FDD76B7EF, 0x4013B24B1DC99AFC, 0x405E000000000000, 0x3FEF83AB62DC2B2C, 0x732C086040ECDC5A, true)),
    ("VAL", "ADV+1", (2215, 2517, 20136, 942, 0, 0x405E61A1EBE3CCAB, 0x40140FB7E17CEFEE, 0x4069000000000000, 0x3FF0000000000000, 0xD5319FE9EF88E5D1, true)),
    ("PB", "UN", (568, 706, 5648, 850, 0, 0x4046D240E6C2B44B, 0x4003EA5DBF193D4D, 0x4059000000000000, 0x3FB12073615A240E, 0x7EE6AC44F17B37FC, true)),
    ("PB", "ADV+1", (2171, 2517, 20136, 931, 0, 0x40590EDB9036B6C6, 0x401081B5B62EEE69, 0x4064000000000000, 0x3FE41EA89F6CD69C, 0xC4D57974E1EA8932, true)),
    ("OLM", "UN", (569, 706, 5648, 850, 0, 0x404A358A1F7E6CE2, 0x4007EA677AD37567, 0x4059000000000000, 0x3FD2C8A92ABDDCE8, 0xFFFA5E031BA7D5FC, true)),
    ("OLM", "ADV+1", (2112, 2517, 20136, 895, 0, 0x40528BC1F07C1F15, 0x400F7E0F83E0F839, 0x405E000000000000, 0x3FE84D9364D9364E, 0x30A618BC4BDC8421, true)),
    ("Base", "UN", (566, 706, 5648, 850, 0, 0x4045CEED00E79377, 0x4002BDF6F43D832C, 0x4051800000000000, 0x0000000000000000, 0xDF1AB1A30482BC74, true)),
    ("Base", "ADV+1", (2212, 2517, 20136, 1023, 0, 0x405D0D993ACAC351, 0x400BD91D2A2067AD, 0x406B800000000000, 0x3FE35B32759586B6, 0x8A2E7AD64E685D1A, true)),
    ("Hybrid", "UN", (569, 706, 5648, 850, 0, 0x4049D6287DF9B385, 0x400773A09E5E7B49, 0x4059000000000000, 0x3FD0DF280ACC4296, 0xFF0A23D7C867EFC6, true)),
    ("Hybrid", "ADV+1", (2107, 2517, 20136, 899, 0, 0x405229A4E00BA9FE, 0x400EB9689C7DDFB9, 0x405E000000000000, 0x3FE6E3345DCC3DB9, 0x52AB253E2EBE7FB3, true)),
    ("ECtN", "UN", (566, 706, 5648, 850, 0, 0x4045CEED00E79377, 0x4002BDF6F43D832C, 0x4051800000000000, 0x0000000000000000, 0xDF1AB1A30482BC74, true)),
    ("ECtN", "ADV+1", (2212, 2517, 20136, 994, 0, 0x405BD95FD38F0B8B, 0x400B8302508CBB0F, 0x406A400000000000, 0x3FE3EF55A45707DF, 0x84F132F488A674EA, true)),
];

#[test]
fn routing_mechanisms_reproduce_the_pinned_trajectories() {
    // The heap→wheel swap and the activity gate must not change a single
    // event ordering: check every routing mechanism under both a benign
    // and an adversarial pattern, at a quiet and a saturating load.
    let mut expected = PINNED_ROUTING.iter();
    for routing in RoutingKind::ALL {
        for (pattern, load) in [
            (PatternKind::Uniform, 0.1),
            (PatternKind::Adversarial { offset: 1 }, 0.35),
        ] {
            let got = run_fingerprint(config(routing, pattern, load, 7)).pin();
            let &(er, ep, pin) = expected.next().expect("one row per combination");
            assert_eq!(
                (er, ep),
                (routing.label(), pattern.label().as_str()),
                "table order drifted"
            );
            assert_eq!(
                got, pin,
                "{routing:?} under {pattern:?} at load {load}: diverged from the pin"
            );
        }
    }
    assert!(expected.next().is_none(), "stale rows");
}

#[test]
fn kernels_match_on_transient_schedules() {
    // Phase switches exercise the drain fast-forward guard (the clock must
    // not jump over a traffic change) and mid-run load changes.
    let schedule = TrafficSchedule::switch_at(
        PatternKind::Uniform,
        PatternKind::Adversarial { offset: 1 },
        400,
    );
    let cfg = SimulationConfig::builder()
        .topology(DragonflyParams::small())
        .network(NetworkConfig::fast_test())
        .routing(RoutingKind::Ectn)
        .schedule(schedule)
        .offered_load(0.25)
        .warmup_cycles(400)
        .measurement_cycles(400)
        .seed(3)
        .build()
        .unwrap();
    #[rustfmt::skip]
    let pin: Pin = (954, 1777, 14216, 964, 0, 0x40569B81577AE6CA, 0x400826A439F656ED, 0x4065400000000000, 0x3FD54428C9CB6795, 0xDAE3D105CA381A57, true);
    assert_eq!(run_fingerprint(cfg).pin(), pin);
}

/// `(routing, pattern, pin)` for the scenario patterns at load 0.25,
/// seed 13.
#[rustfmt::skip]
const PINNED_PATTERNS: &[(&str, &str, Pin)] = &[
    ("OLM", "PERM(17)", (1494, 1817, 14536, 883, 0, 0x40509A8F4015EEDB, 0x400E1ABB1DD0B4F4, 0x405B800000000000, 0x3FE3C50E0D05D373, 0x5634B36D310B50D5, true)),
    ("OLM", "HOT(4x50%)", (1567, 1798, 14384, 2128, 0, 0x4080CE5202F0CE82, 0x40107CD075A043F7, 0x4096580000000000, 0x3FE7DF537B580E60, 0x505B388BCAF409AA, true)),
    ("OLM", "BITCOMP", (1493, 1817, 14536, 898, 0, 0x4051D41ABFB32ED0, 0x40105BE7FEA0D601, 0x405E000000000000, 0x3FE5E7A6D65563F7, 0x5AB362E447642DA1, true)),
    ("OLM", "BITREV", (1488, 1817, 14536, 891, 0, 0x4050AC1605816057, 0x400E2D6B5AD6B5A9, 0x405B800000000000, 0x3FE4000000000000, 0xD6F1E4E6C5358B8E, true)),
    ("OLM", "LOC(60%)", (1407, 1798, 14384, 881, 0, 0x40431CA81E9131AD, 0x3FFEAB64FB16612E, 0x4059000000000000, 0x3FC63294D53E0B48, 0x04E361CA243348CC, true)),
    ("Base", "PERM(17)", (1453, 1817, 14536, 875, 0, 0x40484AB410358F9B, 0x4002AB9B388E5C00, 0x4056800000000000, 0x3F568D4D589F45F2, 0x972BC346F5590089, true)),
    ("Base", "HOT(4x50%)", (1552, 1798, 14384, 2128, 0, 0x407FDEC893CB3764, 0x40033A0FD5C5F025, 0x4097E80000000000, 0x3F87C0A8E83F5718, 0x0D11DC808FCDB0A1, true)),
    ("Base", "BITCOMP", (1572, 1817, 14536, 981, 0, 0x405BF07D11967939, 0x400B5A8B66450C5B, 0x406CC00000000000, 0x3FDB4700A6C21DF7, 0x0EDD774CBB708335, true)),
    ("Base", "BITREV", (1439, 1817, 14536, 855, 0, 0x40478E0DE0556486, 0x4002F525E49A6B1B, 0x4054000000000000, 0x0000000000000000, 0xECAB1701791306C6, true)),
    ("Base", "LOC(60%)", (1391, 1798, 14384, 850, 0, 0x404085E3A865971D, 0x3FF85FB37072D751, 0x4051800000000000, 0x0000000000000000, 0x90465FC8E9A09F89, true)),
    ("ECtN", "PERM(17)", (1453, 1817, 14536, 875, 0, 0x40484AB410358F9B, 0x4002AB9B388E5C00, 0x4056800000000000, 0x3F568D4D589F45F2, 0x972BC346F5590089, true)),
    ("ECtN", "HOT(4x50%)", (1552, 1798, 14384, 2128, 0, 0x407FDEC893CB3764, 0x40033A0FD5C5F025, 0x4097E80000000000, 0x3F87C0A8E83F5718, 0x0D11DC808FCDB0A1, true)),
    ("ECtN", "BITCOMP", (1572, 1817, 14536, 997, 0, 0x405BB0B12E3FD64A, 0x400B3375E73F2F85, 0x406CC00000000000, 0x3FDB5BD8EA80FA23, 0x527F7E2BF63B6415, true)),
    ("ECtN", "BITREV", (1439, 1817, 14536, 855, 0, 0x40478E0DE0556486, 0x4002F525E49A6B1B, 0x4054000000000000, 0x0000000000000000, 0xECAB1701791306C6, true)),
    ("ECtN", "LOC(60%)", (1391, 1798, 14384, 850, 0, 0x404085E3A865971D, 0x3FF85FB37072D751, 0x4051800000000000, 0x0000000000000000, 0x90465FC8E9A09F89, true)),
];

#[test]
fn kernels_match_on_new_patterns() {
    // The scenario subsystem's destination maps (permutation-style), the
    // hotspot weight split and the group-local mix must not perturb event
    // ordering.
    let mut expected = PINNED_PATTERNS.iter();
    for routing in [RoutingKind::Olm, RoutingKind::Base, RoutingKind::Ectn] {
        for pattern in [
            PatternKind::Permutation { seed: 17 },
            PatternKind::Hotspot {
                hotspots: 4,
                fraction: 0.5,
            },
            PatternKind::BitComplement,
            PatternKind::BitReversal,
            PatternKind::GroupLocal {
                local_fraction: 0.6,
            },
        ] {
            let got = run_fingerprint(config(routing, pattern, 0.25, 13)).pin();
            let &(er, ep, pin) = expected.next().expect("one row per combination");
            assert_eq!(
                (er, ep),
                (routing.label(), pattern.label().as_str()),
                "table order drifted"
            );
            assert_eq!(
                got, pin,
                "{routing:?} under {pattern:?}: diverged from the pin"
            );
        }
    }
    assert!(expected.next().is_none(), "stale rows");
}

fn injector_config(injection: InjectionKind, seed: u64) -> SimulationConfig {
    SimulationConfig::builder()
        .topology(DragonflyParams::small())
        .network(NetworkConfig::fast_test())
        .routing(RoutingKind::Ectn)
        .schedule(TrafficSchedule::switch_at(
            PatternKind::Uniform,
            PatternKind::Adversarial { offset: 1 },
            400,
        ))
        .injection(injection)
        .offered_load(0.25)
        .warmup_cycles(400)
        .measurement_cycles(400)
        .seed(seed)
        .build()
        .expect("valid configuration")
}

/// `(injection, pin)` for the bursty and ramp injectors, seed 21.
#[rustfmt::skip]
const PINNED_INJECTORS: &[(&str, Pin)] = &[
    ("bursty(40on/60off)", (1003, 1835, 14680, 969, 0, 0x4057AF37E574A466, 0x4007D10971944A91, 0x406A400000000000, 0x3FD4FE369EC177B4, 0x70B12C2D843DBED6, true)),
    ("ramp(20%->500)", (971, 1345, 10760, 989, 0, 0x4058F8AF0F8E1AE5, 0x400882C4AE0194F1, 0x406B800000000000, 0x3FD5AF530C642F75, 0x6A2F8B07B6823FEC, true)),
];

#[test]
fn bursty_and_ramp_injection_rerun_identically_and_match_across_kernels() {
    // Rerun identity plus the pinned trajectory for the new injection
    // processes under a UN→ADV+1 phase change — the combination that
    // exercises the drain fast-forward guard, mid-run load changes and the
    // injectors' internal Markov/ramp state at once.
    let injections = [
        InjectionKind::Bursty {
            mean_on: 40.0,
            mean_off: 60.0,
        },
        InjectionKind::Ramp {
            start_fraction: 0.2,
            ramp_cycles: 500,
        },
    ];
    for (injection, &(label, pin)) in injections.into_iter().zip(PINNED_INJECTORS) {
        assert_eq!(injection.label(), label, "table order drifted");
        let a = run_fingerprint(injector_config(injection, 21));
        let b = run_fingerprint(injector_config(injection, 21));
        assert_eq!(a, b, "{injection:?}: rerun must reproduce exactly");
        assert_eq!(a.pin(), pin, "{injection:?}: diverged from the pin");
        let other_seed = run_fingerprint(injector_config(injection, 22));
        assert_ne!(a, other_seed, "{injection:?}: seed must matter");
    }
}

#[test]
fn kernels_match_on_multi_phase_scenarios_with_load_overrides() {
    // A three-phase scenario with a per-phase load override: phase switches
    // must land on exact cycles.
    let scenario = Scenario::named("UN-storm-UN")
        .injection(InjectionKind::Bursty {
            mean_on: 30.0,
            mean_off: 30.0,
        })
        .phase(PatternKind::Uniform, 300)
        .phase_at_load(PatternKind::Adversarial { offset: 1 }, 0.35, 300)
        .hold(PatternKind::Uniform);
    let cfg = SimulationConfig::builder()
        .topology(DragonflyParams::small())
        .network(NetworkConfig::fast_test())
        .routing(RoutingKind::Base)
        .scenario(&scenario)
        .offered_load(0.15)
        .warmup_cycles(300)
        .measurement_cycles(600)
        .seed(5)
        .build()
        .unwrap();
    #[rustfmt::skip]
    let pin: Pin = (1461, 1789, 14312, 956, 0, 0x4055CBA6FCABB7CC, 0x4007AA7DCF49C4C1, 0x406A400000000000, 0x3FD4750C70D7DFC2, 0xAC8279F1A9AB9866, true);
    assert_eq!(run_fingerprint(cfg).pin(), pin);
}

#[test]
fn golden_summary_is_pinned() {
    // Pinned fingerprint for one configuration. If this test fails, the
    // change altered simulation semantics (RNG streams, event ordering,
    // allocation tie-breaks, ...) — that may be intentional, but it must be
    // a conscious decision: update the constants below in the same commit
    // and call it out in the PR description.
    let fp = run_fingerprint(config(
        RoutingKind::Base,
        PatternKind::Adversarial { offset: 1 },
        0.2,
        9,
    ));
    assert!(fp.drained, "golden run must drain");
    assert_eq!(fp.in_flight, 0);
    // Pinned on the Base/ADV+1/0.2/seed-9 fast-test configuration; the mean
    // latency is pinned by exact f64 bit pattern (≈ 100.115351 cycles).
    assert_eq!(fp.delivered_window, 1_153);
    assert_eq!(fp.delivered_total, 1_336);
    assert_eq!(fp.final_cycle, 954);
    assert_eq!(fp.latency_bits, 0x4059_0761_EA3D_B971);
}
