//! Benchmark/experiment harness: regenerates every table and figure of the
//! paper's evaluation (see DESIGN.md §5 for the experiment index).
//!
//! Binaries (each prints a table to stdout):
//!
//! * `fig4` — Figure 4: asymptotic old vs new bounds per kernel,
//! * `fig5` — Figure 5: full parametric bounds, paper vs engine parity,
//! * `theorems` — Theorems 5–9 instantiated on parameter grids,
//! * `tiled_mgs` — Appendix A.1: measured tiled-MGS I/O vs `½M²N²/S`,
//! * `tiled_a2v` — Appendix A.2: measured tiled-A2V I/O vs the model,
//! * `pebble_validation` — bounds vs pebble-game plays on exact CDAGs,
//! * `sandwich` — lower bound ≤ simulated tiled I/O ≤ O(upper model),
//!   including the S ≈ M regime crossover of §5.1.
//!
//! Criterion benches under `benches/` time the same artifacts.
//!
//! Every paper kernel comes from its shipped `kernels/*.iolb` file
//! ([`PAPER_KERNELS`]), and the Appendix A tiled Fig. 8/9 orders from
//! `kernels/tiled/*.iolb` ([`TILED_MGS`], [`TILED_A2V`]), priced by
//! [`sweep_tiled`] on the curve engine. No table or sweep runs
//! `iolb-kernels`: its f64 semantics check the same files numerically in
//! tests (`benches/kernels_native.rs` times its native f64
//! implementations).

pub mod json;
pub mod scale;
pub mod sweep;
pub mod tightness;

use iolb_cdag::SpillPolicy;
use iolb_core::report::KernelReport;
use iolb_govern::CancelToken;
use iolb_ir::parse::{parse_kernel, KernelFile};
use iolb_ir::{for_each_instance, DeclaredAccesses, Program};
use iolb_memsim::MissCurve;
use iolb_symbolic::Var;
use std::collections::BTreeMap;

/// One paper kernel as shipped in `kernels/`: the file is the only source
/// of its IR, its analyzed statement (`analyze`) and its §5.3 binding
/// (`split`); the row adds the display name and the two validation-sweep
/// size tiers.
pub struct PaperKernel {
    /// Display name, as in the paper's tables.
    pub name: &'static str,
    /// The `.iolb` source text.
    pub source: &'static str,
    /// Parameters of the full (CI gate) sweep tier, in program order.
    pub full: &'static [i64],
    /// Parameters of the small (fast test) sweep tier, in program order.
    pub small: &'static [i64],
}

impl PaperKernel {
    /// Parses the shipped file.
    ///
    /// # Panics
    /// Panics when the file does not parse (a build-time constant).
    pub fn parse(&self) -> KernelFile {
        parse_kernel(self.source).unwrap_or_else(|e| panic!("{}: {e}", self.name))
    }

    /// Derives the kernel's classical and hourglass bounds at the file's
    /// `default` parameters ([`KernelReport::from_file`]).
    ///
    /// # Panics
    /// Panics when the derivation fails (the tables cannot be produced).
    pub fn report(&self) -> KernelReport {
        KernelReport::from_file(self.name, &self.parse())
            .unwrap_or_else(|e| panic!("derivation failed for {}: {e}", self.name))
    }
}

/// The six paper kernels. The first five carry the hourglass pattern
/// (Figures 4/5, Theorems 5–9); GEMM, last, is the classical baseline the
/// validation sweep adds.
pub const PAPER_KERNELS: [PaperKernel; 6] = [
    PaperKernel {
        name: "MGS",
        source: include_str!("../../../kernels/mgs.iolb"),
        full: &[64, 32],
        small: &[12, 6],
    },
    PaperKernel {
        name: "QR HH A2V",
        source: include_str!("../../../kernels/qr_hh_a2v.iolb"),
        full: &[40, 20],
        small: &[14, 6],
    },
    PaperKernel {
        name: "QR HH V2Q",
        source: include_str!("../../../kernels/qr_hh_v2q.iolb"),
        full: &[40, 20],
        small: &[14, 6],
    },
    PaperKernel {
        name: "GEBD2",
        source: include_str!("../../../kernels/gebd2.iolb"),
        full: &[36, 18],
        small: &[12, 6],
    },
    PaperKernel {
        name: "GEHD2",
        source: include_str!("../../../kernels/gehd2.iolb"),
        full: &[25],
        small: &[11],
    },
    PaperKernel {
        name: "GEMM",
        source: include_str!("../../../kernels/gemm.iolb"),
        full: &[48, 48, 48],
        small: &[8, 8, 8],
    },
];

/// The row of [`PAPER_KERNELS`] with display name `name`.
///
/// # Panics
/// Panics on a name the table does not have.
pub fn paper_kernel(name: &str) -> &'static PaperKernel {
    PAPER_KERNELS
        .iter()
        .find(|k| k.name == name)
        .unwrap_or_else(|| panic!("no paper kernel named {name}"))
}

/// Runs the derivation engine on the five hourglass kernels.
///
/// # Panics
/// Panics when a derivation fails (the tables cannot be produced).
pub fn derive_all() -> Vec<KernelReport> {
    PAPER_KERNELS[..5].iter().map(PaperKernel::report).collect()
}

/// One Appendix A tiled order: its shipped `.iolb` file (parameters
/// `M, N, B`), the paper kernel whose hourglass bound it sandwiches, and
/// the appendix's block size and I/O formulas.
pub struct TiledOrder {
    /// The `.iolb` source text.
    pub source: &'static str,
    /// Display name of the [`PAPER_KERNELS`] row giving the lower bound.
    pub kernel: &'static str,
    /// Block size `B` for `(M, S)`.
    pub block_size: fn(usize, usize) -> usize,
    /// Read-cost model for `(M, N, B)`.
    pub reads_model: fn(usize, usize, usize) -> f64,
    /// Headline I/O for `(M, N, S)`.
    pub headline: fn(usize, usize, usize) -> f64,
}

/// Appendix A.1: the tiled left-looking MGS order of Fig. 8.
pub const TILED_MGS: TiledOrder = TiledOrder {
    source: include_str!("../../../kernels/tiled/mgs_tiled.iolb"),
    kernel: "MGS",
    block_size: a1_block_size,
    reads_model: a1_reads_model,
    headline: a1_io_headline,
};

/// Appendix A.2: the tiled A2V order of Fig. 9.
pub const TILED_A2V: TiledOrder = TiledOrder {
    source: include_str!("../../../kernels/tiled/qr_hh_a2v_tiled.iolb"),
    kernel: "QR HH A2V",
    // A.2 sizes its blocks under A.1's constraint `M(B+1) < S`.
    block_size: a1_block_size,
    reads_model: a2_reads_model,
    headline: a2_io_headline,
};

/// Appendix A.1 block size: largest `B` with `M(B+1) < S` (at least 1).
pub fn a1_block_size(m: usize, s: usize) -> usize {
    (s / m).saturating_sub(1).max(1)
}

/// Appendix A.1 read-cost model for the tiled ordering at block size `B`:
/// `½·MN²/B` (panel reloads) + `MN` (block loads).
pub fn a1_reads_model(m: usize, n: usize, block: usize) -> f64 {
    let (m, n, b) = (m as f64, n as f64, block as f64);
    0.5 * m * n * n / b + m * n
}

/// Appendix A.1 headline I/O: `½·M²N²/S`.
pub fn a1_io_headline(m: usize, n: usize, s: usize) -> f64 {
    let (m, n, s) = (m as f64, n as f64, s as f64);
    0.5 * m * m * n * n / s
}

/// Appendix A.2 read-cost model at block size `B`:
/// `(½MN² − N³/6)/B` (reflector reloads) + `2MN` (block moves).
pub fn a2_reads_model(m: usize, n: usize, block: usize) -> f64 {
    let (m, n, b) = (m as f64, n as f64, block as f64);
    (0.5 * m * n * n - n * n * n / 6.0) / b + 2.0 * m * n
}

/// Appendix A.2 headline I/O: `½(M²N² − MN³/3)/S`.
pub fn a2_io_headline(m: usize, n: usize, s: usize) -> f64 {
    let (m, n, s) = (m as f64, n as f64, s as f64);
    0.5 * (m * m * n * n - m * n * n * n / 3.0) / s
}

/// Measured-vs-model row for the Appendix A experiments.
#[derive(Debug, Clone)]
pub struct TiledIoRow {
    /// Fast-memory size.
    pub s: usize,
    /// Chosen block size `B = ⌊S/M⌋ − 1`.
    pub block: usize,
    /// Measured loads under LRU.
    pub lru_loads: u64,
    /// Measured loads under Belady-MIN.
    pub min_loads: u64,
    /// Appendix read model at this block size.
    pub model: f64,
    /// Headline `½M²N²/S`-style value.
    pub headline: f64,
    /// Hourglass lower bound at these parameters.
    pub lower_bound: f64,
}

/// The packed declared-access cell trace of `program` in program order.
///
/// # Panics
/// Panics on an out-of-range access (the shipped files are build-time
/// constants).
fn declared_trace(program: &Program, params: &[i64]) -> Vec<u64> {
    let accesses = DeclaredAccesses::bind(program, params);
    let mut trace = Vec::new();
    for_each_instance(program, params, |stmt, dims| {
        tightness::push_instance_trace(program, &accesses, stmt, dims, &mut trace)
            .unwrap_or_else(|e| panic!("{}: {e}", program.name));
    });
    trace
}

/// Sweeps a tiled order over `S`: at each `S` the order runs at block size
/// `B(M, S)`, its declared-access trace is priced under LRU and Belady-MIN
/// by the curve engine, and both are set against the appendix model and
/// the paper kernel's hourglass lower bound. The S values sharing a block
/// size share one trace and one pass per policy
/// ([`sweep::price_curves`]), at the group's largest S.
pub fn sweep_tiled(order: &TiledOrder, m: usize, n: usize, s_values: &[usize]) -> Vec<TiledIoRow> {
    let program = parse_kernel(order.source)
        .unwrap_or_else(|e| panic!("{}: {e}", order.kernel))
        .program;
    let report = paper_kernel(order.kernel).report();
    let token = CancelToken::unlimited();
    let mut horizons: BTreeMap<usize, usize> = BTreeMap::new();
    for &s in s_values {
        let horizon = horizons.entry((order.block_size)(m, s)).or_insert(s);
        *horizon = (*horizon).max(s);
    }
    let curves: BTreeMap<usize, [MissCurve; 2]> = horizons
        .into_iter()
        .map(|(block, horizon)| {
            let trace = declared_trace(&program, &[m as i64, n as i64, block as i64]);
            let curves = sweep::price_curves(
                &trace,
                [SpillPolicy::Lru, SpillPolicy::MinNextUse],
                horizon,
                sweep::CROSS_CHECK_CAP,
                &token,
            )
            .unwrap_or_else(|e| panic!("{} at B={block}: {e}", program.name));
            (block, curves)
        })
        .collect();
    s_values
        .iter()
        .map(|&s| {
            let block = (order.block_size)(m, s);
            let [lru, min] = &curves[&block];
            let env = [
                (Var::new("M"), m as i128),
                (Var::new("N"), n as i128),
                (iolb_core::s_var(), s as i128),
            ];
            TiledIoRow {
                s,
                block,
                lru_loads: lru.loads(s),
                min_loads: min.loads(s),
                model: (order.reads_model)(m, n, block),
                headline: (order.headline)(m, n, s),
                lower_bound: report.new.combined.eval_ints_f64(&env),
            }
        })
        .collect()
}

/// Renders a tiled-I/O sweep as a table.
pub fn render_tiled_table(title: &str, m: usize, n: usize, rows: &[TiledIoRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}  (M={m}, N={n})\n"));
    out.push_str(&format!(
        "{:>8} {:>6} {:>12} {:>12} {:>14} {:>14} {:>14} {:>8}\n",
        "S", "B", "LRU loads", "MIN loads", "model reads", "headline", "lower bound", "MIN/LB"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:>8} {:>6} {:>12} {:>12} {:>14.0} {:>14.0} {:>14.0} {:>8.2}\n",
            r.s,
            r.block,
            r.lru_loads,
            r.min_loads,
            r.model,
            r.headline,
            r.lower_bound,
            r.min_loads as f64 / r.lower_bound.max(1.0),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_all_produces_five_reports() {
        let reports = derive_all();
        assert_eq!(reports.len(), 5);
        assert!(reports.iter().any(|r| r.split), "GEHD2 splits");
    }

    #[test]
    fn tiled_mgs_sweep_is_sandwiched() {
        let rows = sweep_tiled(&TILED_MGS, 48, 24, &[256, 512, 1024]);
        for r in &rows {
            // LB ≤ measured; measured within a constant of the model.
            assert!(r.lower_bound <= r.min_loads as f64, "S={}", r.s);
            assert!(r.min_loads <= r.lru_loads);
            assert!((r.min_loads as f64) < 3.0 * r.model, "S={}", r.s);
            let ratio = r.lru_loads as f64 / r.model;
            assert!(
                ratio < 4.0,
                "S={}: measured {} vs model {}",
                r.s,
                r.lru_loads,
                r.model
            );
        }
        // I/O decreases as S grows.
        assert!(rows.windows(2).all(|w| w[1].lru_loads <= w[0].lru_loads));
    }

    /// LRU loads of `program`'s declared-access trace at capacity `s`.
    fn lru_loads(program: &Program, params: &[i64], s: usize) -> u64 {
        let [lru] = sweep::price_curves(
            &declared_trace(program, params),
            [SpillPolicy::Lru],
            s,
            sweep::CROSS_CHECK_CAP,
            &CancelToken::unlimited(),
        )
        .unwrap();
        lru.loads(s)
    }

    /// The tiled order at `B = ⌊S/M⌋ − 1` against the shipped untiled
    /// kernel, at M=24, N=12, S=128 (B = 4).
    fn assert_tiled_beats_untiled(order: &TiledOrder) {
        let (m, n, s) = (24usize, 12usize, 128usize);
        let block = (order.block_size)(m, s) as i64;
        let untiled = lru_loads(
            &paper_kernel(order.kernel).parse().program,
            &[m as i64, n as i64],
            s,
        );
        let tiled = lru_loads(
            &parse_kernel(order.source).unwrap().program,
            &[m as i64, n as i64, block],
            s,
        );
        assert!(tiled < untiled, "tiled {tiled} < untiled {untiled}");
    }

    #[test]
    fn tiled_mgs_beats_untiled_under_lru() {
        assert_tiled_beats_untiled(&TILED_MGS);
    }

    #[test]
    fn tiled_a2v_beats_untiled_under_lru() {
        assert_tiled_beats_untiled(&TILED_A2V);
    }

    #[test]
    fn appendix_models_are_consistent() {
        // With B = ⌊S/M⌋−1 ≈ S/M, the panel-reload term of the reads model
        // approaches the headline ½M²N²/S (the MN block-move term is lower
        // order in the paper's regime).
        let (m, n, s) = (64usize, 32, 512);
        let b = a1_block_size(m, s);
        let panel = a1_reads_model(m, n, b) - (m * n) as f64;
        let headline = a1_io_headline(m, n, s);
        assert!((panel / headline) < 2.0 && (panel / headline) > 0.5);
    }
}
