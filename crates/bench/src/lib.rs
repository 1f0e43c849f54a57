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
//! ([`PAPER_KERNELS`]). The builders of `iolb-kernels` serve only the
//! Appendix A experiments: the tiled Fig. 8/9 programs and their f64
//! inputs.

pub mod scale;
pub mod sweep;
pub mod tightness;

use iolb_core::report::KernelReport;
use iolb_ir::parse::{parse_kernel, KernelFile};

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

/// Sweeps the tiled MGS ordering (Fig. 8) over `S`, measuring I/O in the
/// two-level simulator and comparing against Appendix A.1's model and the
/// Theorem 5 lower bound.
pub fn sweep_tiled_mgs(m: usize, n: usize, s_values: &[usize]) -> Vec<TiledIoRow> {
    use iolb_symbolic::Var;
    let program = iolb_kernels::mgs::tiled_executable();
    let a = iolb_kernels::Matrix::random(m, n, 0xA11CE);
    let report = paper_kernel("MGS").report();
    s_values
        .iter()
        .map(|&s| {
            let block = iolb_kernels::mgs::a1_block_size(m, s);
            let params = vec![m as i64, n as i64, block as i64];
            let init = |a0: &iolb_kernels::Matrix| {
                let d = a0.data.clone();
                move |arr: iolb_ir::ArrayId, f: usize| if arr.0 == 0 { d[f] } else { 0.0 }
            };
            let lru = iolb_kernels::sinks::measure_lru_io(&program, &params, s, init(&a));
            let min = iolb_kernels::sinks::measure_min_io(&program, &params, s, init(&a));
            let env = [
                (Var::new("M"), m as i128),
                (Var::new("N"), n as i128),
                (iolb_core::s_var(), s as i128),
            ];
            TiledIoRow {
                s,
                block,
                lru_loads: lru.loads,
                min_loads: min.loads,
                model: iolb_kernels::mgs::a1_reads_model(m, n, block),
                headline: iolb_kernels::mgs::a1_io_headline(m, n, s),
                lower_bound: report.new.combined.eval_ints_f64(&env),
            }
        })
        .collect()
}

/// Appendix A.2 sweep for the tiled A2V ordering (Fig. 9).
pub fn sweep_tiled_a2v(m: usize, n: usize, s_values: &[usize]) -> Vec<TiledIoRow> {
    use iolb_symbolic::Var;
    let program = iolb_kernels::householder::a2v_tiled_executable();
    let a = iolb_kernels::Matrix::random(m, n, 0xB0B);
    let report = paper_kernel("QR HH A2V").report();
    s_values
        .iter()
        .map(|&s| {
            let block = iolb_kernels::householder::a2_block_size(m, s);
            let params = vec![m as i64, n as i64, block as i64];
            let init = |a0: &iolb_kernels::Matrix| {
                let d = a0.data.clone();
                move |arr: iolb_ir::ArrayId, f: usize| if arr.0 == 0 { d[f] } else { 0.0 }
            };
            let lru = iolb_kernels::sinks::measure_lru_io(&program, &params, s, init(&a));
            let min = iolb_kernels::sinks::measure_min_io(&program, &params, s, init(&a));
            let env = [
                (Var::new("M"), m as i128),
                (Var::new("N"), n as i128),
                (iolb_core::s_var(), s as i128),
            ];
            TiledIoRow {
                s,
                block,
                lru_loads: lru.loads,
                min_loads: min.loads,
                model: iolb_kernels::householder::a2_reads_model(m, n, block),
                headline: iolb_kernels::householder::a2_io_headline(m, n, s),
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
        let rows = sweep_tiled_mgs(48, 24, &[256, 512, 1024]);
        for r in &rows {
            // LB ≤ measured; measured within a constant of the model.
            assert!(r.lower_bound <= r.min_loads as f64, "S={}", r.s);
            assert!(r.min_loads <= r.lru_loads);
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
}
