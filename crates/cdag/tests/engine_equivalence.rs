//! Property tests of the pebble engine ([`PebbleGame`]) on randomized
//! small CDAGs and the paper kernels: the MIN ≤ LRU optimality invariant,
//! loads monotone in the red budget, and agreement with the miss-curve
//! engines of `iolb-memsim` (the trace OPT curve never exceeds a legal
//! play's loads).

use iolb_cdag::{Cdag, NodeSpec, PebbleGame, SpillPolicy};
use iolb_ir::{ArrayId, StmtId};
use proptest::prelude::*;
use rand::prelude::*;

/// Builds a random layered CDAG: `n_inputs` input nodes followed by
/// `n_computes` compute nodes in schedule order, each compute drawing up to
/// `max_preds` predecessors from strictly earlier nodes.
fn random_cdag(seed: u64, n_inputs: usize, n_computes: usize, max_preds: usize) -> Cdag {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut kinds = Vec::with_capacity(n_inputs + n_computes);
    for f in 0..n_inputs {
        kinds.push(NodeSpec::Input {
            array: ArrayId(0),
            flat: f,
        });
    }
    for c in 0..n_computes {
        kinds.push(NodeSpec::Compute {
            stmt: StmtId(0),
            iv: vec![c as i32].into(),
        });
    }
    let mut edges = Vec::new();
    for c in 0..n_computes {
        let id = (n_inputs + c) as u32;
        let k = rng.gen_range(0..=max_preds.min(n_inputs + c));
        for _ in 0..k {
            let p = rng.gen_range(0..n_inputs + c) as u32;
            edges.push((p, id));
        }
    }
    Cdag::from_edges(kinds, edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// MIN (farthest next use) never loads more than LRU on the same play.
    #[test]
    fn min_policy_never_beaten_by_lru(
        seed in 0u64..1_000_000,
        n_computes in 1usize..40,
    ) {
        let g = random_cdag(seed, 4, n_computes, 3);
        let min_s = g.max_in_degree() + 1;
        for s in [min_s, min_s + 2, min_s + 7] {
            let game = PebbleGame::new(&g, s);
            let lru = game.play_program_order(SpillPolicy::Lru).unwrap();
            let min = game.play_program_order(SpillPolicy::MinNextUse).unwrap();
            prop_assert!(min.loads <= lru.loads, "seed={seed} S={s}");
        }
    }

    /// Loads are monotone non-increasing in the red budget (the MIN
    /// policy is a demand stack algorithm for a fixed order).
    #[test]
    fn min_loads_monotone_in_budget(
        seed in 0u64..1_000_000,
        n_computes in 1usize..30,
    ) {
        let g = random_cdag(seed, 3, n_computes, 3);
        let min_s = g.max_in_degree() + 1;
        let mut prev = u64::MAX;
        for s in min_s..min_s + 6 {
            let stats = PebbleGame::new(&g, s)
                .play_program_order(SpillPolicy::MinNextUse)
                .unwrap();
            prop_assert!(stats.loads <= prev, "seed={seed} S={s}");
            prev = stats.loads;
        }
    }

    /// Model bridge: the MIN miss curve of the program-order value-access
    /// trace lower-bounds *every* legal play's loads (a play's pebble
    /// moves are one valid replacement schedule for the trace; optimal
    /// replacement can only do better), and the LRU curve is bitwise the
    /// `LruSim`/`BeladySim` replay of the same trace at every budget.
    #[test]
    fn trace_curves_bound_pebble_plays(
        seed in 0u64..1_000_000,
        n_inputs in 1usize..6,
        n_computes in 1usize..40,
        max_preds in 0usize..4,
    ) {
        let g = random_cdag(seed, n_inputs, n_computes, max_preds);
        let min_s = g.max_in_degree() + 1;
        let mut trace = Vec::new();
        g.packed_program_order_trace(&mut trace);
        let horizon = min_s + 8;
        let mut eng = iolb_memsim::CurveEngine::new();
        let opt = eng.opt_packed(&trace, horizon);
        let lru = eng.lru_packed(&trace, horizon);
        for s in min_s..min_s + 8 {
            let play_min = PebbleGame::new(&g, s)
                .play_program_order(SpillPolicy::MinNextUse)
                .unwrap();
            prop_assert!(
                opt.loads(s) <= play_min.loads,
                "seed={seed} S={s}: trace OPT {} > pebble MIN play {}",
                opt.loads(s),
                play_min.loads
            );
            let mut sim = iolb_memsim::LruSim::new(s);
            prop_assert_eq!(sim.run_packed(&trace).loads, lru.loads(s));
            prop_assert_eq!(
                iolb_memsim::BeladySim::new(s).run_packed(&trace).loads,
                opt.loads(s)
            );
        }
    }
}

/// On every paper kernel at several budgets: MIN ≤ LRU, and the pebble
/// engine agrees with the curve engine — the OPT curve of the
/// program-order value-access trace sits at or below the MIN play's loads
/// (soundness against the real derivation is asserted in `iolb-bench`'s
/// sweep).
#[test]
fn engines_agree_on_all_paper_kernels() {
    let cases: Vec<(iolb_ir::Program, Vec<i64>)> = vec![
        (iolb_kernels::program("mgs"), vec![12, 6]),
        (iolb_kernels::program("qr_hh_a2v"), vec![12, 6]),
        (iolb_kernels::program("qr_hh_v2q"), vec![12, 6]),
        (iolb_kernels::program("gebd2"), vec![10, 5]),
        (iolb_kernels::program("gehd2"), vec![9]),
        (iolb_kernels::program("gemm"), vec![6, 6, 6]),
        (iolb_kernels::program("tiled/mgs_tiled"), vec![12, 6, 2]),
        (
            iolb_kernels::program("tiled/qr_hh_a2v_tiled"),
            vec![12, 6, 2],
        ),
    ];
    for (program, params) in cases {
        let g = iolb_cdag::build_cdag(&program, &params);
        let min_s = g.max_in_degree() + 1;
        let mut trace = Vec::new();
        g.packed_program_order_trace(&mut trace);
        let opt = iolb_memsim::CurveEngine::new().opt_packed(&trace, min_s + 11);
        for s in [min_s, min_s + 3, min_s + 11] {
            let game = PebbleGame::new(&g, s);
            let lru = game.play_program_order(SpillPolicy::Lru).unwrap();
            let min = game.play_program_order(SpillPolicy::MinNextUse).unwrap();
            assert!(min.loads <= lru.loads, "{} S={s}", program.name);
            assert!(
                opt.loads(s) <= min.loads,
                "{} S={s}: trace OPT {} > pebble MIN play {}",
                program.name,
                opt.loads(s),
                min.loads
            );
        }
    }
}
