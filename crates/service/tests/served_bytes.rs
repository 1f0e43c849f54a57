//! A memory hit serves stored bytes.
//!
//! `Pipeline::serve` renders a report entry's `serve/v1` body at most
//! once and hands the same `Arc` to every later hit; with a store
//! attached, the store's index keeps that same allocation. Pointer
//! equality is what pins "no render on a hit": a re-rendered body would
//! carry the same bytes in a fresh allocation.

use iolb_service::{
    canonicalize, outcome_body, AnalysisOptions, Pipeline, ReportStore, ServeSource,
    DEFAULT_REPORT_CAPACITY,
};
use std::path::PathBuf;
use std::sync::{Arc, Barrier};

fn syrk() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../kernels/syrk.iolb");
    std::fs::read_to_string(path).expect("kernel")
}

/// Small sizes and no tuner, so every pipeline run is quick; `grid`
/// varies the options fingerprint (one report key per grid).
fn opts(grid: &str) -> AnalysisOptions {
    let mut o = AnalysisOptions::default();
    o.set("params", "N=9,K=5").expect("params");
    o.set("s-grid", grid).expect("grid");
    o.set("no-tightness", "").expect("flag");
    o
}

/// A fresh store directory, removed again on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("iolb_served_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }

    fn store(&self) -> ReportStore {
        ReportStore::open(&self.0).expect("store")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn a_second_serve_hits_memory_with_the_same_body() {
    let pipeline = Pipeline::new();
    let (src, o) = (syrk(), opts("0,8,32"));
    let first = pipeline.serve(&src, &o).expect("serve");
    let again = pipeline.serve(&src, &o).expect("serve");
    assert_eq!(first.source, ServeSource::Computed);
    assert_eq!(again.source, ServeSource::Memory);
    assert!(Arc::ptr_eq(&first.body, &again.body), "the hit re-rendered");
    let report = pipeline.cache().stats().report;
    assert_eq!((report.hits, report.misses), (1, 1));
}

#[test]
fn serve_after_analyze_renders_the_entry_once() {
    let pipeline = Pipeline::new();
    let (src, o) = (syrk(), opts("0,8,32"));
    let analyzed = pipeline.analyze(&src, &o).expect("analyze");
    assert!(!analyzed.cached);
    let first = pipeline.serve(&src, &o).expect("serve");
    assert_eq!(first.source, ServeSource::Memory);
    assert_eq!(*first.body, outcome_body(&analyzed.outcome));
    let again = pipeline.serve(&src, &o).expect("serve");
    assert_eq!(again.source, ServeSource::Memory);
    assert!(Arc::ptr_eq(&first.body, &again.body), "the hit re-rendered");
}

#[test]
fn the_store_index_keeps_the_computed_body() {
    let scratch = Scratch::new("shared");
    let pipeline = Pipeline::with_store(DEFAULT_REPORT_CAPACITY, scratch.store());
    let (src, o) = (syrk(), opts("0,8,32"));
    let served = pipeline.serve(&src, &o).expect("serve");
    assert_eq!(served.source, ServeSource::Computed);
    let (_, hash) = canonicalize(&src).expect("canonical");
    let stored = pipeline
        .store()
        .expect("store attached")
        .get(hash, &o.fingerprint())
        .expect("appended");
    assert!(
        Arc::ptr_eq(&served.body, &stored),
        "the store copied the body"
    );
}

#[test]
fn an_evicted_key_comes_back_from_the_store_byte_identical() {
    let scratch = Scratch::new("evicted");
    // Capacity 1 keeps one entry per shard, so some key among the first
    // seventeen must share a shard with an earlier one and evict it.
    let pipeline = Pipeline::with_store(1, scratch.store());
    let src = syrk();
    let mut served = Vec::new();
    for s in 1..=17 {
        let o = opts(&format!("0,{s}"));
        let answer = pipeline.serve(&src, &o).expect("serve");
        assert_eq!(answer.source, ServeSource::Computed);
        served.push((o, answer.body));
        if pipeline.cache().stats().report.evictions > 0 {
            break;
        }
    }
    assert!(
        pipeline.cache().stats().report.evictions > 0,
        "nothing was evicted"
    );
    let mut from_store = 0;
    for (o, body) in &served {
        let again = pipeline.serve(&src, o).expect("serve");
        assert_ne!(again.source, ServeSource::Computed);
        assert_eq!(*again.body, **body);
        if again.source == ServeSource::Store {
            from_store += 1;
        }
    }
    assert!(from_store > 0, "no evicted key was answered by the store");
}

#[test]
fn concurrent_serves_of_a_fresh_key_compute_once_and_share_one_body() {
    const THREADS: usize = 8;
    let pipeline = Pipeline::new();
    let (src, o) = (syrk(), opts("0,8,32"));
    let start = Barrier::new(THREADS);
    let answers: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    pipeline.serve(&src, &o).expect("serve")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker"))
            .collect()
    });
    let computed = answers
        .iter()
        .filter(|a| a.source == ServeSource::Computed)
        .count();
    assert_eq!(computed, 1);
    assert!(answers
        .iter()
        .all(|a| Arc::ptr_eq(&a.body, &answers[0].body)));
}

#[test]
fn an_injected_request_on_a_cached_key_still_runs_the_pipeline() {
    let pipeline = Pipeline::new();
    let (src, o) = (syrk(), opts("0,8,32"));
    let cached = pipeline.serve(&src, &o).expect("serve");
    let before = pipeline.cache().stats();
    // Armed at a store seam, which the analysis never polls: the request
    // succeeds, and it must not have been answered by any layer.
    let mut injected = o.clone();
    injected
        .set("inject", "panic@store_append")
        .expect("inject");
    let answer = pipeline.serve(&src, &injected).expect("serve");
    assert_eq!(answer.source, ServeSource::Computed);
    assert_eq!(*answer.body, *cached.body);
    assert!(!Arc::ptr_eq(&answer.body, &cached.body));
    assert_eq!(pipeline.cache().stats(), before);
}
