//! The priced layer serves the bytes the whole uncached chain would.
//!
//! A report-layer miss that differs from an earlier request only in its S
//! grid is answered from the request's grid-independent step (the bounds,
//! the CDAG facts, the engine profiles and both miss curves), read at the
//! new grid. Every such body must equal `outcome_body(&analyze_uncached(..))`
//! byte for byte, and the requests the layer must not answer — a grid past
//! the entry's horizon, a rung below full, tightness, fault injection — run
//! the full path.

use iolb_core::govern::CancelToken;
use iolb_service::{
    analyze_uncached, outcome_body, AnalysisOptions, LayerStats, Pipeline, ReportStore,
    ServeSource, DEFAULT_REPORT_CAPACITY,
};
use rayon::prelude::*;
use std::path::PathBuf;

/// The dense default grid's offsets (`dense_s_offsets`).
const DENSE: [usize; 32] = [
    0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 13, 16, 19, 23, 27, 32, 38, 45, 54, 64, 76, 91, 108, 128,
    139, 152, 166, 181, 197, 215, 256,
];

/// Points of every drawn grid, both ends of the dense grid included.
const GRID_POINTS: usize = 16;

fn kernels_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../kernels")
}

/// Every shipped kernel (`kernels/*.iolb`), sorted by file name.
fn shipped_kernels() -> Vec<(String, String)> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(kernels_dir())
        .expect("kernels dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "iolb"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let name = p.file_stem().expect("stem").to_string_lossy().into_owned();
            (name, std::fs::read_to_string(&p).expect("kernel"))
        })
        .collect()
}

/// `count` seeded grids by the `serve` workload's rule: the dense grid's
/// two ends plus `GRID_POINTS − 2` distinct inner points, ascending.
fn seeded_grids(seed: u64, count: usize) -> Vec<String> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move |bound: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % bound as u64) as usize
    };
    (0..count)
        .map(|_| {
            let mut inner: Vec<usize> = DENSE[1..DENSE.len() - 1].to_vec();
            for i in 0..GRID_POINTS - 2 {
                let j = i + next(inner.len() - i);
                inner.swap(i, j);
            }
            inner.truncate(GRID_POINTS - 2);
            inner.sort_unstable();
            let mut grid = vec![DENSE[0]];
            grid.extend(inner);
            grid.push(DENSE[DENSE.len() - 1]);
            grid.iter()
                .map(usize::to_string)
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect()
}

/// A kernel at its defaults without the tuner, on `grid`.
fn opts(grid: &str) -> AnalysisOptions {
    let mut o = AnalysisOptions::default();
    o.set("no-tightness", "").expect("flag");
    o.set("s-grid", grid).expect("grid");
    o
}

/// The whole uncached chain's body for the same request.
fn uncached_body(src: &str, o: &AnalysisOptions) -> String {
    outcome_body(&analyze_uncached(src, o, &CancelToken::unlimited()).expect("analysis"))
}

/// A fresh store directory, removed again on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("iolb_priced_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn layer(hits: u64, misses: u64) -> LayerStats {
    LayerStats {
        hits,
        misses,
        evictions: 0,
    }
}

#[test]
fn layer_served_bodies_equal_the_uncached_chain_on_every_shipped_kernel() {
    let scratch = Scratch::new("identity");
    let store = ReportStore::open(&scratch.0).expect("store");
    let pipeline = Pipeline::with_store(DEFAULT_REPORT_CAPACITY, store);
    let kernels = shipped_kernels();
    assert_eq!(kernels.len(), 11, "the shipped kernel set changed");
    let grids = seeded_grids(1, 20);
    let mut served = Vec::new();
    for (name, src) in &kernels {
        for grid in &grids {
            let answer = pipeline.serve(src, &opts(grid)).expect("serve");
            // A layer-served request is still a report-layer miss.
            assert_eq!(answer.source, ServeSource::Computed, "{name} {grid}");
            served.push((name, src, grid, answer.body));
        }
    }
    // The references are whole uncached runs, the expensive part: run
    // them on the pool.
    let references: Vec<String> = served
        .par_iter()
        .map(|(_, src, grid, _)| uncached_body(src, &opts(grid)))
        .collect();
    for ((name, _, grid, body), reference) in served.iter().zip(&references) {
        assert_eq!(**body, *reference, "{name} grid {grid}");
    }
    let stats = pipeline.cache().stats();
    let requests = (kernels.len() * grids.len()) as u64;
    let distinct = kernels.len() as u64;
    assert_eq!(stats.priced, layer(requests - distinct, distinct));
    assert_eq!(stats.report, layer(0, requests));
    assert_eq!(pipeline.cache().priced_entries(), kernels.len());
    let appended = pipeline.store().expect("store").stats().appends;
    assert_eq!(appended, requests, "every miss is journaled");
}

#[test]
fn a_grid_past_the_horizon_is_priced_again_and_replaces_the_entry() {
    let pipeline = Pipeline::new();
    let src = std::fs::read_to_string(kernels_dir().join("syrk.iolb")).expect("kernel");
    for (grid, priced) in [
        ("0,4,64", layer(0, 1)),
        ("0,16,32", layer(1, 1)),
        ("0,8,300", layer(1, 2)),
        ("0,2,128,300", layer(2, 2)),
    ] {
        let o = opts(grid);
        let served = pipeline.serve(&src, &o).expect("serve");
        assert_eq!(*served.body, uncached_body(&src, &o), "grid {grid}");
        assert_eq!(pipeline.cache().stats().priced, priced, "grid {grid}");
        assert_eq!(pipeline.cache().priced_entries(), 1, "grid {grid}");
    }
}

#[test]
fn a_rung_below_full_runs_the_full_path_and_admits_nothing() {
    let pipeline = Pipeline::new();
    let src = std::fs::read_to_string(kernels_dir().join("syrk.iolb")).expect("kernel");
    // syrk's trace at its defaults: a work ceiling of 10 trace lengths
    // affords a 5-point grid but not a 16-point one.
    let mut probe = opts("0,1,2,3,4");
    probe.set("max-work", "1").expect("budget");
    let needed = analyze_uncached(&src, &probe, &CancelToken::unlimited())
        .expect("bounds-only outcome")
        .degrade
        .expect("degraded")
        .work_needed
        / 5;
    let budgeted = |grid: &str| {
        let mut o = opts(grid);
        o.set("max-work", &(10 * needed).to_string())
            .expect("budget");
        o
    };
    let wide = grids_of(16);
    // No entry yet: admission puts the wide grid on the coarse rung.
    let coarse = budgeted(&wide);
    let served = pipeline.serve(&src, &coarse).expect("serve");
    assert!(served.body.contains("\"degradation\": \"coarse\""));
    assert_eq!(*served.body, uncached_body(&src, &coarse));
    assert_eq!(pipeline.cache().stats().priced, layer(0, 0));
    // A short grid under the same budget is full: it is admitted.
    let short = budgeted("0,4,64");
    let served = pipeline.serve(&src, &short).expect("serve");
    assert_eq!(*served.body, uncached_body(&src, &short));
    assert_eq!(pipeline.cache().stats().priced, layer(0, 1));
    // With the entry present, its stored estimate sends the wide grid to
    // the coarse rung again, past the layer, and the entry stays.
    let again = budgeted(&grids_of(15));
    let served = pipeline.serve(&src, &again).expect("serve");
    assert!(served.body.contains("\"degradation\": \"coarse\""));
    assert_eq!(*served.body, uncached_body(&src, &again));
    assert_eq!(pipeline.cache().stats().priced, layer(0, 1));
    let short_again = budgeted("0,8,64");
    pipeline.serve(&src, &short_again).expect("serve");
    assert_eq!(pipeline.cache().stats().priced, layer(1, 1));
}

/// The first `points` offsets of the dense grid, as a grid spec.
fn grids_of(points: usize) -> String {
    DENSE[..points]
        .iter()
        .map(usize::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

#[test]
fn tightness_and_injected_requests_run_the_full_path() {
    let pipeline = Pipeline::new();
    let src = std::fs::read_to_string(kernels_dir().join("syrk.iolb")).expect("kernel");
    let mut small = opts("0,4,16");
    small.set("params", "N=9,K=5").expect("params");
    pipeline.serve(&src, &small).expect("serve");
    assert_eq!(pipeline.cache().stats().priced, layer(0, 1));

    let mut tight = small.clone();
    tight.no_tightness = false;
    tight.set("s-grid", "0,8,16").expect("grid");
    let served = pipeline.serve(&src, &tight).expect("serve");
    assert!(served.body.contains("\"tightness\": {"));
    assert_eq!(*served.body, uncached_body(&src, &tight));

    let mut injected = small.clone();
    injected.set("s-grid", "0,2,16").expect("grid");
    injected
        .set("inject", "panic@store_append")
        .expect("inject");
    let served = pipeline.serve(&src, &injected).expect("serve");
    assert_eq!(*served.body, uncached_body(&src, &injected));
    assert_eq!(pipeline.cache().stats().priced, layer(0, 1));
}

#[test]
fn a_request_refused_before_pricing_answers_the_uncached_error() {
    let pipeline = Pipeline::new();
    let src = std::fs::read_to_string(kernels_dir().join("syrk.iolb")).expect("kernel");
    let mut over_budget = opts("0,4,16");
    over_budget.set("max-trace", "10").expect("budget");
    let mut unknown_param = opts("0,4,16");
    unknown_param.set("params", "Q=3").expect("params");
    for o in [over_budget, unknown_param] {
        let served = pipeline.serve(&src, &o).expect_err("refused");
        let uncached = analyze_uncached(&src, &o, &CancelToken::unlimited()).expect_err("refused");
        assert_eq!(served, uncached);
        assert_eq!(pipeline.cache().stats().priced, layer(0, 0));
        assert_eq!(pipeline.cache().priced_entries(), 0);
    }
}
