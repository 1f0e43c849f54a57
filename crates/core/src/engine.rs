//! The unified graph-level bound-engine API.
//!
//! The symbolic σ/hourglass derivation is per-statement and refuses every
//! kernel outside its affine class. The engines behind [`BoundEngine`]
//! instead work on the raw CDAG at a concrete fast-memory size `S`, so
//! every kernel that builds a graph gets *some* sound lower bound. The
//! [`EngineRegistry`] holds the engine set a request selected; report rows
//! carry the max over all applicable engines, tagged with the winning
//! [`BoundProvenance`].
//!
//! Engine math lives in [`iolb_cdag::bound`]; this module owns the typed
//! API: provenance, trait, registry, selection parsing, and batch
//! evaluation over an S grid.

use iolb_cdag::bound::{input_floor, SpectralProfile, VisitProfile};
use iolb_cdag::Cdag;

/// Where a reported lower bound came from. Serialized stably (snake_case
/// via [`BoundProvenance::as_str`]) in pebble-sweep/v5 rows — replaces the
/// stringly-typed bound naming older schemas implied by column position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BoundProvenance {
    /// Symbolic K-partition σ-bound (§2 of the paper).
    Classical,
    /// Symbolic hourglass bound (§3–§4 of the paper).
    Hourglass,
    /// Graph-level: every consumed input is loaded at least once.
    InputFloor,
    /// Graph-level: DAG-visit segment/partition accounting.
    Visit,
    /// Graph-level: certified spectral boundary bound.
    Spectral,
}

impl BoundProvenance {
    /// Stable serialization name (snake_case, never changes meaning
    /// across schema generations).
    pub fn as_str(self) -> &'static str {
        match self {
            BoundProvenance::Classical => "classical",
            BoundProvenance::Hourglass => "hourglass",
            BoundProvenance::InputFloor => "input_floor",
            BoundProvenance::Visit => "visit",
            BoundProvenance::Spectral => "spectral",
        }
    }

    /// Inverse of [`as_str`](BoundProvenance::as_str).
    pub fn parse(s: &str) -> Option<BoundProvenance> {
        Some(match s {
            "classical" => BoundProvenance::Classical,
            "hourglass" => BoundProvenance::Hourglass,
            "input_floor" => BoundProvenance::InputFloor,
            "visit" => BoundProvenance::Visit,
            "spectral" => BoundProvenance::Spectral,
            _ => return None,
        })
    }
}

impl std::fmt::Display for BoundProvenance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A graph-level lower-bound engine over `(Cdag, S)`.
///
/// Implementations must be *sound*: `bound(g, s)` is a lower bound on the
/// loads of every complete execution of `g` with fast-memory capacity
/// `s`, in the red-white cost model (read misses only, no recomputation).
/// The differential fuzz oracle enforces `bound ≤ OPT(S)` at every swept
/// `S` on random kernels, including kernels the symbolic path refuses.
pub trait BoundEngine: Send + Sync {
    /// Stable selection name (the `--engines` vocabulary).
    fn name(&self) -> &'static str;

    /// Provenance tag reported for bounds this engine wins.
    fn provenance(&self) -> BoundProvenance;

    /// Lower bound on loads at capacity `s`, or `None` when the engine
    /// does not apply to this graph (e.g. above a size cap).
    fn bound(&self, cdag: &Cdag, s: usize) -> Option<u64>;

    /// Batch evaluation over an S grid; engines override this to share
    /// per-graph preparation across the grid.
    fn bounds(&self, cdag: &Cdag, s_values: &[usize]) -> Vec<Option<u64>> {
        s_values.iter().map(|&s| self.bound(cdag, s)).collect()
    }
}

/// [`BoundProvenance::InputFloor`] engine: `S`-independent, always
/// applicable, exact count of consumed inputs.
pub struct InputFloorEngine;

impl BoundEngine for InputFloorEngine {
    fn name(&self) -> &'static str {
        "input-floor"
    }

    fn provenance(&self) -> BoundProvenance {
        BoundProvenance::InputFloor
    }

    fn bound(&self, cdag: &Cdag, _s: usize) -> Option<u64> {
        Some(input_floor(cdag))
    }

    fn bounds(&self, cdag: &Cdag, s_values: &[usize]) -> Vec<Option<u64>> {
        let floor = input_floor(cdag);
        vec![Some(floor); s_values.len()]
    }
}

/// [`BoundProvenance::Visit`] engine: DAG-visit segment partitioning with
/// degree-counting in-set accounting. Always applicable.
pub struct VisitEngine;

impl BoundEngine for VisitEngine {
    fn name(&self) -> &'static str {
        "visit"
    }

    fn provenance(&self) -> BoundProvenance {
        BoundProvenance::Visit
    }

    fn bound(&self, cdag: &Cdag, s: usize) -> Option<u64> {
        Some(VisitProfile::new(cdag).bound(s))
    }

    fn bounds(&self, cdag: &Cdag, s_values: &[usize]) -> Vec<Option<u64>> {
        let profile = VisitProfile::new(cdag);
        s_values.iter().map(|&s| Some(profile.bound(s))).collect()
    }
}

/// [`BoundProvenance::Spectral`] engine: certified `λ₂` boundary bound.
/// Inapplicable (`None`) above [`iolb_cdag::SPECTRAL_NODE_CAP`] nodes or
/// on edgeless graphs.
pub struct SpectralEngine;

impl BoundEngine for SpectralEngine {
    fn name(&self) -> &'static str {
        "spectral"
    }

    fn provenance(&self) -> BoundProvenance {
        BoundProvenance::Spectral
    }

    fn bound(&self, cdag: &Cdag, s: usize) -> Option<u64> {
        SpectralProfile::new(cdag).map(|p| p.bound(s))
    }

    fn bounds(&self, cdag: &Cdag, s_values: &[usize]) -> Vec<Option<u64>> {
        match SpectralProfile::new(cdag) {
            Some(profile) => s_values.iter().map(|&s| Some(profile.bound(s))).collect(),
            None => vec![None; s_values.len()],
        }
    }
}

/// One engine's bounds over an S grid, tagged with its provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineCurve {
    /// Which engine produced the curve.
    pub provenance: BoundProvenance,
    /// `bounds[i]` is the bound at `s_values[i]`; `None` = inapplicable.
    pub bounds: Vec<Option<u64>>,
}

impl EngineCurve {
    /// The bound at grid index `i` (`None` when inapplicable).
    pub fn at(&self, i: usize) -> Option<u64> {
        self.bounds.get(i).copied().flatten()
    }
}

/// The engine set one request selected. Construction is by name list, so
/// the CLI flag, the daemon request-body option, and the options
/// fingerprint all share one vocabulary.
pub struct EngineRegistry {
    engines: Vec<Box<dyn BoundEngine>>,
}

/// Canonical selection-name order (also the evaluation order).
const ENGINE_NAMES: [&str; 3] = ["input-floor", "visit", "spectral"];

fn engine_by_name(name: &str) -> Option<Box<dyn BoundEngine>> {
    Some(match name {
        "input-floor" => Box::new(InputFloorEngine),
        "visit" => Box::new(VisitEngine),
        "spectral" => Box::new(SpectralEngine),
        _ => return None,
    })
}

impl Default for EngineRegistry {
    fn default() -> Self {
        EngineRegistry::all()
    }
}

impl EngineRegistry {
    /// Every built-in engine, in canonical order.
    pub fn all() -> EngineRegistry {
        EngineRegistry {
            engines: ENGINE_NAMES
                .iter()
                .map(|n| engine_by_name(n).expect("built-in engine"))
                .collect(),
        }
    }

    /// The empty registry (graph-level bounds disabled).
    pub fn none() -> EngineRegistry {
        EngineRegistry {
            engines: Vec::new(),
        }
    }

    /// Parses a selection spec: `all`, `none`, or a comma-separated list
    /// of engine names (deduplicated, canonical order).
    ///
    /// # Errors
    /// Human-readable diagnostic naming the unknown engine and the valid
    /// vocabulary.
    pub fn select(spec: &str) -> Result<EngineRegistry, String> {
        match spec.trim() {
            "all" | "" => return Ok(EngineRegistry::all()),
            "none" => return Ok(EngineRegistry::none()),
            _ => {}
        }
        let mut wanted = Vec::new();
        for raw in spec.split(',') {
            let name = raw.trim();
            if !ENGINE_NAMES.contains(&name) {
                return Err(format!(
                    "unknown bound engine `{name}` (want all, none, or a list of {})",
                    ENGINE_NAMES.join(", ")
                ));
            }
            if !wanted.contains(&name) {
                wanted.push(name);
            }
        }
        let engines = ENGINE_NAMES
            .iter()
            .filter(|n| wanted.contains(n))
            .map(|n| engine_by_name(n).expect("built-in engine"))
            .collect();
        Ok(EngineRegistry { engines })
    }

    /// Selected engine names, canonical order.
    pub fn names(&self) -> Vec<&'static str> {
        self.engines.iter().map(|e| e.name()).collect()
    }

    /// Canonical spec string (`none` for the empty registry, `all` for
    /// the full one) — the options-fingerprint component.
    pub fn fingerprint(&self) -> String {
        if self.engines.is_empty() {
            "none".to_string()
        } else if self.engines.len() == ENGINE_NAMES.len() {
            "all".to_string()
        } else {
            self.names().join(",")
        }
    }

    /// Whether no engine is selected.
    pub fn is_empty(&self) -> bool {
        self.engines.is_empty()
    }

    /// Evaluates every selected engine over the S grid.
    pub fn evaluate(&self, cdag: &Cdag, s_values: &[usize]) -> Vec<EngineCurve> {
        self.engines
            .iter()
            .map(|e| EngineCurve {
                provenance: e.provenance(),
                bounds: e.bounds(cdag, s_values),
            })
            .collect()
    }
}

/// Best engine bound at grid index `i`: the maximum over applicable
/// engines, with the winning provenance (ties keep the earlier engine in
/// canonical order, so the choice is deterministic).
pub fn best_engine_bound(curves: &[EngineCurve], i: usize) -> Option<(u64, BoundProvenance)> {
    let mut best: Option<(u64, BoundProvenance)> = None;
    for c in curves {
        if let Some(b) = c.at(i) {
            if best.is_none_or(|(v, _)| b > v) {
                best = Some((b, c.provenance));
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // test-only assertions
    use super::*;
    use iolb_cdag::NodeSpec;
    use iolb_ir::{ArrayId, StmtId};

    fn tiny_graph() -> Cdag {
        // Two inputs feeding one compute feeding another.
        let kinds = vec![
            NodeSpec::Input {
                array: ArrayId(0),
                flat: 0,
            },
            NodeSpec::Input {
                array: ArrayId(0),
                flat: 1,
            },
            NodeSpec::Compute {
                stmt: StmtId(0),
                iv: Box::new([0]),
            },
            NodeSpec::Compute {
                stmt: StmtId(0),
                iv: Box::new([1]),
            },
        ];
        Cdag::from_edges(kinds, vec![(0, 2), (1, 2), (2, 3)])
    }

    #[test]
    fn provenance_round_trips_stably() {
        for p in [
            BoundProvenance::Classical,
            BoundProvenance::Hourglass,
            BoundProvenance::InputFloor,
            BoundProvenance::Visit,
            BoundProvenance::Spectral,
        ] {
            assert_eq!(BoundProvenance::parse(p.as_str()), Some(p));
        }
        assert_eq!(BoundProvenance::parse("bogus"), None);
        // The serialized names are frozen: renaming one breaks every
        // consumer of pebble-sweep/v5.
        assert_eq!(BoundProvenance::InputFloor.as_str(), "input_floor");
    }

    #[test]
    fn selection_parses_and_fingerprints_canonically() {
        assert_eq!(EngineRegistry::all().fingerprint(), "all");
        assert_eq!(EngineRegistry::none().fingerprint(), "none");
        assert_eq!(EngineRegistry::select("").unwrap().fingerprint(), "all");
        let sel = EngineRegistry::select("spectral, input-floor").unwrap();
        assert_eq!(sel.fingerprint(), "input-floor,spectral");
        assert_eq!(sel.names(), vec!["input-floor", "spectral"]);
        // Duplicates collapse; order is canonical.
        let dup = EngineRegistry::select("visit,visit").unwrap();
        assert_eq!(dup.fingerprint(), "visit");
        assert!(EngineRegistry::select("frobnicate").is_err());
        assert!(EngineRegistry::select("all")
            .unwrap()
            .names()
            .contains(&"visit"));
    }

    #[test]
    fn registry_evaluates_and_best_bound_tags_provenance() {
        let g = tiny_graph();
        let s_values = [1usize, 2, 4];
        let curves = EngineRegistry::all().evaluate(&g, &s_values);
        assert_eq!(curves.len(), 3);
        // The input floor is 2 at every S.
        let floor = curves
            .iter()
            .find(|c| c.provenance == BoundProvenance::InputFloor)
            .unwrap();
        assert_eq!(floor.bounds, vec![Some(2); 3]);
        let (best, who) = best_engine_bound(&curves, 0).unwrap();
        assert!(best >= 2);
        assert!(matches!(
            who,
            BoundProvenance::InputFloor | BoundProvenance::Visit | BoundProvenance::Spectral
        ));
        // Empty registry yields no bound.
        let none = EngineRegistry::none().evaluate(&g, &s_values);
        assert!(best_engine_bound(&none, 0).is_none());
    }

    #[test]
    fn batch_and_single_evaluation_agree() {
        let g = tiny_graph();
        let s_values = [1usize, 3, 8];
        for engine in [
            Box::new(InputFloorEngine) as Box<dyn BoundEngine>,
            Box::new(VisitEngine),
            Box::new(SpectralEngine),
        ] {
            let batch = engine.bounds(&g, &s_values);
            for (i, &s) in s_values.iter().enumerate() {
                assert_eq!(batch[i], engine.bound(&g, s), "{} S={s}", engine.name());
            }
        }
    }
}
