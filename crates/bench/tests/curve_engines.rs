//! The two curve engines price every shipped kernel identically: the
//! materialized `CurveEngine` on the packed program-order trace and the
//! sharded `ShardedCurveEngine` fed from `Cdag::program_order_trace`, at
//! the default chunk length (one shard) and at a small prime one that puts
//! shard boundaries all through every trace. Production prices each trace
//! on one engine only (the size rule of `iolb_bench::sweep::price_curves`),
//! so this test is what keeps the two pinned to each other on the real
//! kernels.

use iolb_bench::sweep::dense_s_offsets;
use iolb_cdag::try_build_cdag;
use iolb_govern::{Budget, CancelToken};
use iolb_ir::parse_kernel;
use iolb_memsim::{CurveEngine, ShardedCurveEngine};
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
