//! Property-based tests for the board simulator's physical invariants.

use proptest::prelude::*;
use yukta_board::board::{Actuation, Board, Placement};
use yukta_board::config::{BIG, BoardConfig, Cluster};
use yukta_board::perf::{ThreadLoad, multiplex, thread_gips};
use yukta_board::power::cluster_power;

fn actuation_strategy() -> impl Strategy<Value = Actuation> {
    (
        0.2..2.0f64,
        0.2..1.4f64,
        1usize..=4,
        1usize..=4,
        0usize..=8,
        1.0..4.0f64,
        1.0..4.0f64,
    )
        .prop_map(|(fb, fl, nb, nl, tb, pb, pl)| Actuation {
            f_big: Some(fb),
            f_little: Some(fl),
            big_cores: Some(nb),
            little_cores: Some(nl),
            placement: Some(Placement {
                threads_big: tb,
                packing_big: pb,
                packing_little: pl,
            }),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn power_is_nonnegative_and_bounded(act in actuation_strategy()) {
        let mut board = Board::new(BoardConfig::odroid_xu3());
        board.actuate(&act);
        let loads = vec![ThreadLoad::nominal(); 8];
        for _ in 0..200 {
            let rep = board.step(&loads);
            prop_assert!(rep.p_big >= 0.0 && rep.p_big < 10.0);
            prop_assert!(rep.p_little >= 0.0 && rep.p_little < 2.0);
            prop_assert!(rep.t_hot >= 20.0 && rep.t_hot < 130.0);
        }
    }

    #[test]
    fn energy_and_instructions_are_monotone(act in actuation_strategy()) {
        let mut board = Board::new(BoardConfig::odroid_xu3());
        board.actuate(&act);
        let loads = vec![ThreadLoad::nominal(); 8];
        let mut last_e = 0.0;
        let mut last_i = 0.0;
        for _ in 0..100 {
            board.step(&loads);
            prop_assert!(board.energy() >= last_e);
            prop_assert!(board.total_instructions() >= last_i);
            last_e = board.energy();
            last_i = board.total_instructions();
        }
    }

    #[test]
    fn actuation_is_always_snapped_legal(act in actuation_strategy()) {
        let mut board = Board::new(BoardConfig::odroid_xu3());
        board.actuate(&act);
        let st = board.state();
        // Frequencies on the DVFS grid.
        let steps_b = (st.f_big - 0.2) / 0.1;
        prop_assert!((steps_b - steps_b.round()).abs() < 1e-9);
        prop_assert!((0.2..=2.0).contains(&st.f_big));
        prop_assert!((0.2..=1.4).contains(&st.f_little));
        prop_assert!((1..=4).contains(&st.big_cores));
        prop_assert!((1..=4).contains(&st.little_cores));
    }

    #[test]
    fn thread_progress_conserves_cluster_totals(act in actuation_strategy()) {
        let mut board = Board::new(BoardConfig::odroid_xu3());
        board.actuate(&act);
        let loads = vec![ThreadLoad::nominal(); 8];
        for _ in 0..50 {
            let rep = board.step(&loads);
            let sum: f64 = rep.thread_progress.iter().sum();
            prop_assert!((sum - rep.instr_big - rep.instr_little).abs() < 1e-9);
        }
    }

    #[test]
    fn gips_monotone_in_share(f in 0.2..2.0f64, mi in 0.0..1.0f64, s1 in 0.0..1.0f64, s2 in 0.0..1.0f64) {
        let (lo, hi) = if s1 <= s2 { (s1, s2) } else { (s2, s1) };
        let g_lo = thread_gips(&BIG, 1.0, mi, f, lo);
        let g_hi = thread_gips(&BIG, 1.0, mi, f, hi);
        prop_assert!(g_lo <= g_hi + 1e-12);
    }

    #[test]
    fn multiplex_uses_at_most_available_cores(t in 0usize..20, c in 0usize..8, p in 0.5..5.0f64) {
        let m = multiplex(t, c, p);
        prop_assert!(m.cores_used <= c);
        if t > 0 && c > 0 {
            prop_assert!(m.cores_used >= 1);
            prop_assert!(m.share_per_thread > 0.0 && m.share_per_thread <= 1.0);
        }
    }

    #[test]
    fn cluster_power_monotone_in_busy(busy1 in 0.0..4.0f64, busy2 in 0.0..4.0f64, f in 0.2..2.0f64) {
        let (lo, hi) = if busy1 <= busy2 { (busy1, busy2) } else { (busy2, busy1) };
        let p_lo = cluster_power(&BIG, 4, lo, f, 60.0).total();
        let p_hi = cluster_power(&BIG, 4, hi, f, 60.0).total();
        prop_assert!(p_lo <= p_hi + 1e-12);
    }

    #[test]
    fn sensor_reading_lags_but_tracks(f in 0.6..1.4f64) {
        // Stay in the TMU-safe envelope: above ~1.5 GHz with all threads on
        // big, the emergency heuristics keep the power moving and there is
        // no steady state for the lagging sensor to converge to.
        let mut board = Board::new(BoardConfig::odroid_xu3());
        board.actuate(&Actuation {
            f_big: Some(f),
            placement: Some(Placement { threads_big: 8, packing_big: 2.0, packing_little: 1.0 }),
            ..Default::default()
        });
        let loads = vec![ThreadLoad::nominal(); 8];
        let mut true_p = 0.0;
        for _ in 0..300 {
            true_p = board.step(&loads).p_big;
        }
        let sensed = board.read_power(Cluster::Big);
        // After 3 s of steady operation the lagging sensor is within 20%.
        prop_assert!((sensed - true_p).abs() <= 0.2 * true_p.max(0.5),
            "sensed {sensed} vs true {true_p}");
    }
}
