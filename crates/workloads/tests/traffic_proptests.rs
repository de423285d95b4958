//! Property-based tests for the open-loop traffic generator: the arrival
//! process is a pure function of `(seed, pattern, rates)` — bit-exact
//! across instantiations and isolated from every other RNG stream in the
//! system (the fault injector's plan RNG, other traffic instances), so a
//! serving run replays and recovers bit-identically.

use proptest::prelude::*;
use yukta_workloads::traffic::SERVICE_CAP_GI;
use yukta_workloads::{Traffic, TrafficConfig, TrafficPattern};

fn pattern_strategy() -> impl Strategy<Value = TrafficPattern> {
    prop_oneof![
        Just(TrafficPattern::Constant),
        Just(TrafficPattern::diurnal()),
        Just(TrafficPattern::bursty()),
        Just(TrafficPattern::flash_crowd()),
    ]
}

fn config_strategy() -> impl Strategy<Value = TrafficConfig> {
    (
        pattern_strategy(),
        1.0..200.0f64,  // base rate (rps)
        0.2..2.5f64,    // load factor
        0u64..u64::MAX, // seed
    )
        .prop_map(
            |(pattern, base_rate_rps, load_factor, seed)| TrafficConfig {
                pattern,
                base_rate_rps,
                load_factor,
                seed,
                ..Default::default()
            },
        )
}

/// Ticks `n` controller periods and returns the full request trace.
fn trace(cfg: TrafficConfig, n: usize) -> Vec<(u64, u64)> {
    let mut t = Traffic::new(cfg);
    let mut out = Vec::new();
    for _ in 0..n {
        for r in t.tick(0.5) {
            out.push((r.arrival_s.to_bits(), r.demand_gi.to_bits()));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn same_seed_and_pattern_bit_reproduce_the_trace(cfg in config_strategy()) {
        prop_assert!(cfg.validate().is_ok());
        prop_assert_eq!(trace(cfg, 120), trace(cfg, 120));
    }

    #[test]
    fn traffic_streams_are_isolated_from_each_other(
        cfg in config_strategy(),
        other_seed in 0u64..u64::MAX,
    ) {
        // Interleaving draws from an unrelated generator (standing in for
        // the fault injector's plan RNG or a second tenant) must not
        // perturb this stream: each `Traffic` owns a private salted RNG.
        let solo = trace(cfg, 120);
        let mut subject = Traffic::new(cfg);
        let mut bystander = Traffic::new(TrafficConfig {
            seed: other_seed,
            ..cfg
        });
        let mut interleaved = Vec::new();
        for _ in 0..120 {
            let _ = bystander.tick(0.5);
            for r in subject.tick(0.5) {
                interleaved.push((r.arrival_s.to_bits(), r.demand_gi.to_bits()));
            }
            let _ = bystander.tick(0.5);
        }
        prop_assert_eq!(solo, interleaved);
    }

    #[test]
    fn arrivals_are_ordered_in_window_and_demands_bounded(cfg in config_strategy()) {
        let mut t = Traffic::new(cfg);
        let mut now = 0.0f64;
        let mut last_arrival = 0.0f64;
        for _ in 0..120 {
            let next = now + 0.5;
            for r in t.tick(0.5) {
                prop_assert!(r.arrival_s >= now - 1e-9, "arrival before tick start");
                prop_assert!(r.arrival_s <= next + 1e-9, "arrival after tick end");
                prop_assert!(r.arrival_s >= last_arrival - 1e-9, "arrivals out of order");
                last_arrival = r.arrival_s;
                prop_assert!(r.demand_gi > 0.0);
                prop_assert!(r.demand_gi <= SERVICE_CAP_GI + 1e-12);
            }
            now = next;
        }
    }
}
