//! Computational DAGs and the red-white pebble game.
//!
//! The paper's I/O model is formalized on the CDAG of a program (§2): nodes
//! are statement instances (plus input data), edges are flow dependencies,
//! and the red-white pebble game of Olivry et al. plays schedules without
//! recomputation. This crate provides:
//!
//! * [`graph`] — the CDAG itself plus the set analyses the K-partitioning
//!   proof talks about: insets, convexity, path/dependency-chain queries,
//! * [`build`] — exact CDAG construction from an interpreted program run
//!   (last-writer tracking over every array cell),
//! * [`pebble`] — the red-white pebble game engine with pluggable spill
//!   policies (LRU and a MIN-style farthest-next-use policy), which turns a
//!   topological schedule into a *valid play* and counts its loads,
//! * [`bound`] — graph-level I/O lower bounds that need nothing but the
//!   CDAG (input floor, DAG-visit partition accounting, certified spectral
//!   boundary bound), covering kernels the symbolic derivation refuses.
//!
//! Pebble-game loads of any schedule upper-bound nothing and lower-bound
//! nothing by themselves — but they are valid plays, so every derived lower
//! bound must sit below the best play found. This is the workspace's
//! empirical validation harness for `iolb-core`.

pub mod bound;
pub mod build;
pub mod graph;
pub mod pebble;

pub use bound::{input_floor, SpectralProfile, VisitProfile, SPECTRAL_NODE_CAP};
pub use build::{build_cdag, try_build_cdag, CdagBuilder, Wiring};
pub use graph::{Cdag, NodeId, NodeKind, NodeSpec, ProgramOrderTrace};
pub use pebble::{PebbleError, PebbleGame, PlayStats, SpillPolicy};
