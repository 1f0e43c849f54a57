//! Concurrency determinism of the result cache.
//!
//! N workers hammering one shared [`Pipeline`] with the same kernel
//! batch must produce reports bitwise-identical to a sequential run on a
//! fresh pipeline, and the hit/miss counters must be *deterministic*:
//! in-flight deduplication guarantees misses = distinct keys on every
//! layer — raw sources on the parse layer, (kernel × options) on the
//! report layer, (kernel × options without the grid) on the priced
//! layer — no matter how the threads interleave.

use iolb_bench::sweep::sweep_report_json;
use iolb_service::{AnalysisOptions, Pipeline, ShardedCache};
use std::path::PathBuf;

fn kernels_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../kernels")
}

/// Kernels of the batch: small fixed sizes so the full pipeline (sweep
/// included) stays fast.
const KERNELS: [(&str, &str); 4] = [
    ("gemm_tiled.iolb", "M=8,N=8,K=8"),
    ("cholesky.iolb", "N=10"),
    ("mgs.iolb", "M=10,N=6"),
    ("syrk.iolb", "N=9,K=5"),
];

/// The batch: every kernel on two grids of one horizon, `no_tightness`
/// to skip the tuner, so each kernel is two report keys and one priced
/// key.
fn batch() -> Vec<(String, AnalysisOptions)> {
    let mk = |file: &str, params: &str, grid: &str| {
        let src = std::fs::read_to_string(kernels_dir().join(file)).expect("kernel");
        let mut opts = AnalysisOptions::default();
        opts.set("params", params).expect("params");
        opts.set("s-grid", grid).expect("grid");
        opts.set("no-tightness", "").expect("flag");
        (src, opts)
    };
    ["0,8,32", "0,4,32"]
        .iter()
        .flat_map(|grid| KERNELS.iter().map(|(file, params)| mk(file, params, grid)))
        .collect()
}

/// Serializes one analysis answer to its deterministic byte form.
fn fingerprint(pipeline: &Pipeline, src: &str, opts: &AnalysisOptions) -> String {
    let answer = pipeline.analyze(src, opts).expect("analyze");
    let o = &answer.outcome;
    let sweep = o
        .sweep
        .as_ref()
        .map(|r| sweep_report_json(r, true))
        .unwrap_or_default();
    format!(
        "{}|{:?}|{}|{}|{}",
        o.name, o.params, o.certified_instances, o.sound, sweep
    )
}

#[test]
fn concurrent_workers_match_sequential_bitwise_with_deterministic_counters() {
    let batch = batch();

    // Sequential reference on its own pipeline.
    let reference: Vec<String> = {
        let pipeline = Pipeline::new();
        batch
            .iter()
            .map(|(src, opts)| fingerprint(&pipeline, src, opts))
            .collect()
    };

    // 8 workers × the same batch on one shared pipeline. Workers walk the
    // batch at different starting offsets so the interleaving actually
    // exercises concurrent same-key requests.
    const WORKERS: usize = 8;
    let pipeline = Pipeline::new();
    let all: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|w| {
                let pipeline = &pipeline;
                let batch = &batch;
                scope.spawn(move || {
                    (0..batch.len())
                        .map(|i| {
                            let (src, opts) = &batch[(i + w) % batch.len()];
                            fingerprint(pipeline, src, opts)
                        })
                        .collect::<Vec<String>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker"))
            .collect()
    });

    for (w, results) in all.iter().enumerate() {
        for (i, got) in results.iter().enumerate() {
            let expected = &reference[(i + w) % batch.len()];
            assert_eq!(
                got, expected,
                "worker {w} item {i}: concurrent report differs from sequential"
            );
        }
    }

    // Deterministic counters: misses = distinct keys, everything else a
    // hit — regardless of scheduling. The priced layer sees only report
    // misses: one per report key, two per priced key.
    let stats = pipeline.cache().stats();
    assert_eq!(stats.report.misses, batch.len() as u64);
    assert_eq!(
        stats.report.hits,
        (WORKERS * batch.len()) as u64 - batch.len() as u64
    );
    assert_eq!(stats.priced.misses, KERNELS.len() as u64);
    assert_eq!(stats.priced.hits, (batch.len() - KERNELS.len()) as u64);
    assert_eq!(pipeline.cache().priced_entries(), KERNELS.len());
    assert_eq!(stats.parse.misses, KERNELS.len() as u64);
    assert_eq!(
        stats.parse.hits,
        (WORKERS * batch.len()) as u64 - KERNELS.len() as u64
    );
    assert_eq!(pipeline.cache().report_entries(), batch.len());
}

#[test]
fn disjoint_keys_under_eviction_pressure_keep_counters_deterministic() {
    // 8 workers insert fully disjoint key ranges into a cache far too
    // small to hold them. However the threads interleave, the counter
    // identities must come out exact: no shared keys means zero hits and
    // one miss per request, and every miss either survived to the end or
    // was evicted — conservation holds even while eviction races the
    // inserts on every shard.
    const WORKERS: u128 = 8;
    const PER_WORKER: u128 = 200;
    let cache: ShardedCache<u128, u64> = ShardedCache::with_capacity(16);
    std::thread::scope(|scope| {
        for w in 0..WORKERS {
            let cache = &cache;
            scope.spawn(move || {
                for i in 0..PER_WORKER {
                    let key = w * 1_000_000 + i;
                    let v = cache
                        .get_or_compute(key, || Ok::<_, ()>(key as u64 * 3))
                        .expect("compute");
                    assert_eq!(*v, key as u64 * 3);
                }
            });
        }
    });
    let stats = cache.stats();
    let total = (WORKERS * PER_WORKER) as u64;
    assert_eq!(stats.hits, 0, "disjoint keys can never hit");
    assert_eq!(stats.misses, total, "every request is a miss");
    assert_eq!(
        stats.evictions,
        stats.misses - cache.len() as u64,
        "evictions must account for every miss not still resident"
    );
    assert!(
        cache.len() <= cache.capacity(),
        "len {} over capacity {}",
        cache.len(),
        cache.capacity()
    );
    assert!(
        stats.evictions > 0,
        "capacity 16 must have forced evictions"
    );
}
