//! `iolb_service` — the analysis service core.
//!
//! The full I/O lower-bound pipeline of the `iolb` CLI (parse →
//! admission → access certification → σ/hourglass derivation → CDAG +
//! miss-curve sweep → tightness), lifted out of the front-end into a
//! [`Pipeline`] of composable, individually-callable stages, each
//! threaded through the `govern` budget/cancellation seams. Because the
//! pipeline is deterministic, finished reports sit behind a three-layer
//! content-hash [`ResultCache`]: raw source → canonical text (the
//! pretty-printed round-trip, so formatting variants share an entry),
//! (canonical hash × option fingerprint without the S grid) → the
//! request's grid-independent step, and (canonical hash ×
//! option fingerprint) → finished [`AnalysisOutcome`] plus, once served,
//! its rendered `serve/v1` body.
//!
//! Front-ends stay thin: the `iolb` CLI renders outcomes as text/JSON,
//! the `iolbd` daemon serves them over HTTP. Both drive the same
//! [`Pipeline::analyze`].

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod cache;
pub mod options;
pub mod pipeline;
pub mod render;
pub mod request;
pub mod store;

pub use cache::{fnv1a_128, CacheStats, LayerStats, ShardedCache};
pub use iolb_bench::json;
pub use options::{AnalysisOptions, FLAG_KEYS};
pub use pipeline::{
    analyze_uncached, canonicalize, canonicalize_kernel, AnalysisOutcome, CachedAnalysis,
    CanonEntry, ClassicalSummary, DegradeInfo, Derived, HourglassSummary, Pipeline, ResultCache,
    ServeSource, ServedAnalysis, SplitSummary, DEFAULT_REPORT_CAPACITY,
};
pub use render::outcome_body;
pub use request::AnalyzeRequest;
pub use store::{
    RealIo, RecoveryStats, ReportStore, StoreIo, StoreKey, StoreStats, JOURNAL_FILE, SNAPSHOT_FILE,
};
