//! The two curve engines price every shipped kernel identically: the
//! materialized `CurveEngine` on the packed program-order trace and the
//! sharded `ShardedCurveEngine` fed from `Cdag::program_order_trace`, at
//! the default chunk length (one shard) and at a small prime one that puts
//! shard boundaries all through every trace. Production prices each trace
//! on one engine only (the size rule of `iolb_bench::sweep::price_curves`),
//! so this test is what keeps the two pinned to each other on the real
//! kernels.
//!
//! A release-only test (`#[ignore]`d; run it with `cargo test --release -p
//! iolb-bench --test curve_engines -- --ignored`) prices the four `regime`
//! kernels at their full sizes through `price_curves` and checks every
//! dense-grid point against `LruSim` / `BeladySim` replays.

use iolb_bench::sweep::{dense_s_offsets, price_curves, CROSS_CHECK_CAP};
use iolb_cdag::{try_build_cdag, SpillPolicy};
use iolb_govern::{Budget, CancelToken};
use iolb_ir::parse_kernel;
use iolb_memsim::{BeladySim, CurveEngine, LruSim, ShardedCurveEngine};
use std::path::{Path, PathBuf};

/// `kernels/tiled/*.iolb` declare no defaults; they run at the size of the
/// crate's Appendix A unit tests (M, N, B).
const TILED_PARAMS: [i64; 3] = [24, 12, 4];

/// A prime shard length far below every trace's length.
const PRIME_CHUNK: usize = 251;

/// The `.iolb` files directly inside `dir`, sorted by name.
fn iolb_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "iolb"))
        .collect();
    files.sort();
    files
}

#[test]
fn shipped_kernels_price_identically_on_both_engines() {
    let kernels = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../kernels");
    let token = CancelToken::unlimited();
    let mut priced = 0usize;
    for (dir, tiled) in [(kernels.clone(), false), (kernels.join("tiled"), true)] {
        for path in iolb_files(&dir) {
            let name = path.file_stem().unwrap().to_string_lossy().into_owned();
            let src = std::fs::read_to_string(&path).expect("readable kernel file");
            let kernel = parse_kernel(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
            let params = if tiled {
                TILED_PARAMS.to_vec()
            } else {
                kernel
                    .default_params()
                    .unwrap_or_else(|e| panic!("{name}: {e}"))
            };
            let cdag = try_build_cdag(&kernel.program, &params, &Budget::unlimited(), &token)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let mut packed = Vec::new();
            cdag.packed_program_order_trace(&mut packed);
            assert!(packed.len() > 4 * PRIME_CHUNK, "{name}: trace too short");
            // The sweep's horizon at the dense grid.
            let horizon = cdag.max_in_degree() + 1 + dense_s_offsets().last().unwrap();

            let mut reference = CurveEngine::new();
            let lru = reference.try_lru_packed(&packed, horizon, &token).unwrap();
            let opt = reference.try_opt_packed(&packed, horizon, &token).unwrap();
            let source = cdag.program_order_trace();
            for chunk in [iolb_memsim::DEFAULT_CHUNK_LEN, PRIME_CHUNK] {
                let engine = ShardedCurveEngine::with_chunk_len(chunk);
                let sharded_lru = engine.try_lru(&source, horizon, &token).unwrap();
                let sharded_opt = engine.try_opt(&source, horizon, &token).unwrap();
                assert_eq!(sharded_lru.accesses(), packed.len() as u64, "{name}");
                assert_eq!(sharded_opt.accesses(), packed.len() as u64, "{name}");
                for s in 1..=horizon {
                    assert_eq!(
                        sharded_lru.loads(s),
                        lru.loads(s),
                        "{name} {params:?}, chunk {chunk}: LRU loads at S={s}"
                    );
                    assert_eq!(
                        sharded_opt.loads(s),
                        opt.loads(s),
                        "{name} {params:?}, chunk {chunk}: OPT loads at S={s}"
                    );
                }
            }
            priced += 1;
        }
    }
    assert_eq!(priced, 13, "11 shipped kernels and 2 tiled orders");
}

/// The kernels and sizes where the hourglass bound wins (`S ≪ M`): the
/// traces run to 1–2·10⁶ events, so their OPT stacks fill the whole
/// dense-grid horizon.
const REGIME: [(&str, [(&str, i64); 2]); 4] = [
    ("mgs", [("M", 512), ("N", 32)]),
    ("qr_hh_a2v", [("M", 256), ("N", 32)]),
    ("qr_hh_v2q", [("M", 256), ("N", 32)]),
    ("gebd2", [("M", 128), ("N", 32)]),
];

#[test]
#[ignore = "release-only: replays two simulators per grid point on 10^6-event traces"]
fn regime_kernels_price_like_the_simulators_at_every_grid_point() {
    let kernels = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../kernels");
    let token = CancelToken::unlimited();
    for (name, sizes) in REGIME {
        let path = kernels.join(format!("{name}.iolb"));
        let src = std::fs::read_to_string(&path).expect("readable kernel file");
        let kernel = parse_kernel(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut params = kernel
            .default_params()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        for (param, value) in sizes {
            let i = kernel.program.params.iter().position(|p| p == param);
            params[i.unwrap_or_else(|| panic!("{name} has no parameter {param}"))] = value;
        }
        let cdag = try_build_cdag(&kernel.program, &params, &Budget::unlimited(), &token)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut packed = Vec::new();
        cdag.packed_program_order_trace(&mut packed);
        assert!(
            packed.len() as u64 <= CROSS_CHECK_CAP,
            "{name}: priced materialized"
        );
        // The sweep's dense grid and horizon.
        let min_s = cdag.max_in_degree() + 1;
        let s_values: Vec<usize> = dense_s_offsets().iter().map(|off| min_s + off).collect();
        let horizon = *s_values.last().unwrap();
        let [lru, opt] = price_curves(
            &cdag.program_order_trace(),
            [SpillPolicy::Lru, SpillPolicy::MinNextUse],
            horizon,
            CROSS_CHECK_CAP,
            &token,
        )
        .unwrap_or_else(|e| panic!("{name}: {e}"));
        for s in s_values {
            assert_eq!(
                lru.loads(s),
                LruSim::new(s).run_packed(&packed).loads,
                "{name} {params:?}: LRU loads at S={s}"
            );
            assert_eq!(
                opt.loads(s),
                BeladySim::new(s).run_packed(&packed).loads,
                "{name} {params:?}: OPT loads at S={s}"
            );
        }
    }
}
