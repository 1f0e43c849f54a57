//! `iolb-core` — the paper's contribution: automatic I/O lower-bound
//! derivation with the hourglass pattern.
//!
//! Pipeline (mirroring IOLB extended with §3–§4 of the paper):
//!
//! 1. [`phi`] — dependence-path projections `Φ` of a statement, the
//!    Brascamp–Lieb exponent LP and its subgroup-condition soundness check,
//! 2. [`classical`] — the state-of-the-art K-partitioning bound (§2):
//!    `|E| ≤ (K/m)^σ` with the disjoint-inset refinement, wrapped through
//!    Theorem 1 at the optimal `K = σS/(σ−1)`,
//! 3. [`hourglass`] — detection of the hourglass pattern (§3.2), empirical
//!    certification of the dependency-chain property on exact CDAGs, and
//!    the tightened derivation of §4 (`U(K) = K²/W + 2K`, `K = 2S`,
//!    plus the small-S branch and §5.3's loop splitting),
//! 4. [`theorems`] — the paper's closed forms (Theorems 5–9, Figure 4,
//!    Figure 5) pinned as expressions for parity tests and table
//!    regeneration,
//! 5. [`report`] — table generators for Figures 4 and 5.

pub mod classical;
pub mod engine;
pub mod hourglass;
pub mod phi;
pub mod report;
pub mod theorems;

/// Resource governance (budgets, cancellation, typed errors, fault
/// injection) — the service-core substrate, re-exported so consumers can
/// write `iolb_core::govern::Budget` without depending on the governance
/// crate directly.
pub use iolb_govern as govern;

pub use classical::ClassicalBound;
pub use engine::{
    best_engine_bound, BoundEngine, BoundProvenance, EngineCurve, EngineProfile, EngineRegistry,
    Profile,
};
pub use hourglass::{HourglassBound, HourglassPattern};
pub use phi::PhiSet;

use iolb_ir::{deps, Program, StmtId};
use std::collections::BTreeSet;

/// Symbolic variable of the fast-memory size.
pub fn s_var() -> iolb_symbolic::Var {
    iolb_symbolic::Var::new("S")
}

/// Load-bearing support of a boundary-crossing flow edge: common dims the
/// producer shares identically, plus the consumer dims its pinned axes
/// map through — except axes reached by a self-referencing non-identity
/// map (shift / reflection), which behave like translations and are
/// dropped.
fn crossing_support(e: &deps::FlowEdge, common: &[iolb_ir::DimId]) -> BTreeSet<iolb_ir::DimId> {
    let mut out: BTreeSet<iolb_ir::DimId> = common
        .iter()
        .copied()
        .filter(|d| !e.determined.contains_key(d) && !e.translated.contains(d))
        .collect();
    for (dp, expr) in &e.determined {
        let uses: BTreeSet<iolb_ir::DimId> = expr.dims_used().collect();
        if common.contains(dp) && *expr != iolb_ir::Aff::dim(*dp) && uses.contains(dp) {
            continue; // shift/reflection along dp: translation-like
        }
        out.extend(uses);
    }
    out
}

/// An analyzed program: dependence projections certified at the given
/// observation sizes.
pub struct Analysis<'p> {
    /// The program under analysis.
    pub program: &'p Program,
    /// Per-read merged projections.
    pub projections: Vec<deps::ReadProjection>,
}

impl<'p> Analysis<'p> {
    /// Observes producers at each parameter vector, unifies, and returns the
    /// certified analysis.
    ///
    /// # Errors
    /// Fails when an observed dependence cannot be explained structurally.
    pub fn run(program: &'p Program, observe_at: &[Vec<i64>]) -> Result<Analysis<'p>, String> {
        let projections = deps::read_projections(program, observe_at)?;
        Ok(Analysis {
            program,
            projections,
        })
    }

    /// The projection set Φ of one statement.
    pub fn phi(&self, stmt: StmtId) -> PhiSet {
        PhiSet::for_statement(self.program, stmt, &self.projections)
    }

    /// Classical K-partitioning bound for the sub-CDAG of `stmt`.
    pub fn classical_bound(&self, stmt: StmtId) -> ClassicalBound {
        classical::derive(self.program, stmt, &self.phi(stmt))
    }

    /// Classical bound, or `None` when no sound bound is derivable for the
    /// statement — the non-panicking path arbitrary DSL workloads go
    /// through. Refusal cases:
    ///
    /// * the projections cannot cover the iteration space (stencil-like
    ///   statements), or
    /// * the *load-bearing* projections alone cannot cover it. A read fed
    ///   (even partly) by a **cheap** producer — a statement whose values
    ///   are transitively producible from no reads at all, like a plain
    ///   initializer chain — imposes no load requirement: a schedule may
    ///   materialize those values inside any K-partition segment at zero
    ///   I/O cost (writes are free in the red-white model). If coverage
    ///   only exists thanks to such reads, the K-partition footprint
    ///   argument does not lower-bound *loads*, and the kernel-space
    ///   fuzzer exhibits executions below the would-be bound.
    pub fn try_classical_bound(&self, stmt: StmtId) -> Option<ClassicalBound> {
        if !self.load_bearing_coverage(stmt) {
            return None;
        }
        classical::try_derive(self.program, stmt, &self.phi(stmt))
    }

    /// Whether the union of *load-bearing* supports of `stmt`'s read
    /// projections covers every loop dimension of the statement.
    ///
    /// The load-bearing support of a read is the part of its footprint
    /// that demonstrably forces slow-memory traffic:
    ///
    /// * a program-input edge bears its full access support;
    /// * a *translated* (previous-iteration) producer edge bears its
    ///   support — the live-in family of a K-partition segment;
    /// * a *same-iteration* producer edge bears none of its own support —
    ///   the producing instance can always execute adjacent to the
    ///   consumer inside the segment, materializing the value at zero
    ///   load cost. Its requirement is instead the producer's own reads'
    ///   load-bearing footprint, *composed* through the consumer→producer
    ///   iteration map (IOLB's dependence-path composition). A zero-read
    ///   initializer chain therefore contributes nothing, while an
    ///   expensive panel statement (Cholesky's `Sc`) passes its operand
    ///   footprint through.
    ///
    /// Per read, alternatives intersect (a value obtainable through any
    /// free path imposes no load); per statement, operands union.
    fn load_bearing_coverage(&self, stmt: StmtId) -> bool {
        let mut covered: BTreeSet<iolb_ir::DimId> = BTreeSet::new();
        for rp in self.projections.iter().filter(|r| r.stmt == stmt) {
            let mut visiting = vec![stmt];
            covered.extend(self.read_lb_support(rp, &mut visiting));
        }
        self.program
            .stmt(stmt)
            .dims
            .iter()
            .all(|d| covered.contains(d))
    }

    /// Load-bearing support of one read: the intersection over its
    /// producer alternatives (every observed feed must force traffic for
    /// the family to count).
    fn read_lb_support(
        &self,
        rp: &deps::ReadProjection,
        visiting: &mut Vec<StmtId>,
    ) -> BTreeSet<iolb_ir::DimId> {
        let mut acc: Option<BTreeSet<iolb_ir::DimId>> = None;
        for e in &rp.edges {
            let sup = self.edge_lb_support(e, visiting);
            acc = Some(match acc {
                None => sup,
                Some(prev) => prev.intersection(&sup).copied().collect(),
            });
        }
        acc.unwrap_or_default()
    }

    /// Load-bearing support of one flow edge, in the consumer's dims.
    fn edge_lb_support(
        &self,
        e: &deps::FlowEdge,
        visiting: &mut Vec<StmtId>,
    ) -> BTreeSet<iolb_ir::DimId> {
        let p = match e.producer {
            deps::Producer::Input => return e.support.clone(),
            deps::Producer::Stmt(p) => p,
        };
        let common = self.program.common_dims(p, e.consumer);
        // Translated (previous-iteration) edges, and edges whose producer
        // is pinned to a *different* iteration of a shared loop
        // (`A[k][j]` written at `k′ = i`), cross segment boundaries: in
        // the no-recompute model those values sit across arbitrarily many
        // intervening accesses, a genuine reload family. Their support is
        // taken directly — minus any dim the producer reaches by a
        // self-referencing non-identity map (`i′ = i − 1` shifts,
        // `i′ = N−1−i` reflections): along such an axis the producing
        // instance runs boundedly close to (or exactly at) the consumer,
        // so like a translation the axis cannot multiply the footprint.
        let crosses = common
            .iter()
            .any(|d| matches!(e.determined.get(d), Some(expr) if *expr != iolb_ir::Aff::dim(*d)));
        if !e.translated.is_empty() || crosses {
            return crossing_support(e, &common);
        }
        // Adjacent (same-iteration) value: the producing instance can
        // always execute right next to the consumer, so the requirement
        // is the producer's own operand footprint, composed through the
        // consumer→producer map. Cycles carry no grounded data (a
        // self-feeding adjacent chain never reaches slow memory).
        if visiting.contains(&p) {
            return BTreeSet::new();
        }
        visiting.push(p);
        let mut producer_sup: BTreeSet<iolb_ir::DimId> = BTreeSet::new();
        for rp in self.projections.iter().filter(|r| r.stmt == p) {
            producer_sup.extend(self.read_lb_support(rp, visiting));
        }
        visiting.pop();
        // Pull the producer-dim footprint back to consumer dims: pinned
        // dims map through their unification expression, common dims map
        // identically, producer-private dims (its own reduction loops)
        // are dropped — a conservative shrink of the support.
        let mut out = BTreeSet::new();
        for d in producer_sup {
            if let Some(expr) = e.determined.get(&d) {
                out.extend(expr.dims_used());
            } else if common.contains(&d) {
                out.insert(d);
            }
        }
        out
    }

    /// Detects the hourglass pattern on `stmt` (§3.2), if present.
    pub fn detect_hourglass(&self, stmt: StmtId) -> Option<HourglassPattern> {
        hourglass::detect(self.program, stmt, &self.projections)
    }

    /// Hourglass-tightened bound (§4) for a detected pattern.
    pub fn hourglass_bound(&self, pattern: &HourglassPattern) -> HourglassBound {
        hourglass::derive(self.program, pattern, &hourglass::SplitChoice::None)
    }
}
