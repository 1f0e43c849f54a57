//! Bridges from the builder-reference interpreter to the cache simulator.
//!
//! Two shapes, both single-materialization at worst:
//!
//! * [`MemSimSink`] streams every access straight into an LRU simulator —
//!   no trace is ever materialized, so arbitrarily long executions fit in
//!   memory,
//! * [`measure_min_io`] / [`measure_lru_min_io`] run the interpreter once
//!   into the packed `TraceSink` encoding and feed the simulators directly
//!   from the packed words — the old intermediate `Vec<Access>` decode pass
//!   is gone.

use crate::interp::{cell_bases, ExecSink, Executable, Interpreter, Store, TraceSink};
use iolb_ir::{ArrayId, Program};
use iolb_memsim::LruSim;

/// [`ExecSink`] that streams every access straight into an LRU cache
/// simulator — no trace materialization, so arbitrarily long executions fit
/// in memory.
#[derive(Debug)]
pub struct MemSimSink {
    sim: LruSim,
    base: Vec<usize>,
}

impl MemSimSink {
    /// Creates a streaming simulator for a program instantiation.
    pub fn new(program: &Program, params: &[i64], capacity: usize) -> MemSimSink {
        let (base, num_cells) = cell_bases(program, params);
        MemSimSink {
            // Pre-size the cell table: ids are dense in [0, total cells).
            sim: LruSim::with_cells(capacity, num_cells),
            base,
        }
    }

    /// Final statistics (with dirty flush).
    pub fn finish(self) -> iolb_memsim::IoStats {
        self.sim.finish()
    }
}

impl ExecSink for MemSimSink {
    fn on_read(&mut self, array: ArrayId, flat: usize) {
        self.sim.read(self.base[array.0 as usize] + flat);
    }
    fn on_write(&mut self, array: ArrayId, flat: usize) {
        self.sim.write(self.base[array.0 as usize] + flat);
    }
}

/// Runs `exe` at `params` with input init `f(array, flat)` and returns
/// the LRU I/O statistics for fast-memory capacity `s` (streaming — no
/// trace materialization).
pub fn measure_lru_io(
    exe: &Executable,
    params: &[i64],
    s: usize,
    init: impl FnMut(ArrayId, usize) -> f64,
) -> iolb_memsim::IoStats {
    let mut sink = MemSimSink::new(&exe.program, params, s);
    let mut store = Store::init(&exe.program, params, init);
    Interpreter::new(exe, params).run(&mut store, &mut sink);
    sink.finish()
}

/// Runs `exe` and returns the Belady-MIN (optimal replacement) I/O
/// statistics for capacity `s` — materializes the packed trace once and
/// simulates straight from it.
pub fn measure_min_io(
    exe: &Executable,
    params: &[i64],
    s: usize,
    init: impl FnMut(ArrayId, usize) -> f64,
) -> iolb_memsim::IoStats {
    let mut sink = TraceSink::new(&exe.program, params);
    let mut store = Store::init(&exe.program, params, init);
    Interpreter::new(exe, params).run(&mut store, &mut sink);
    iolb_memsim::BeladySim::new(s).run_packed(&sink.packed)
}

/// Runs `exe` once and returns `(LRU, MIN)` statistics for capacity `s`
/// from the same packed trace — one interpreter execution, one trace, both
/// policies.
pub fn measure_lru_min_io(
    exe: &Executable,
    params: &[i64],
    s: usize,
    init: impl FnMut(ArrayId, usize) -> f64,
) -> (iolb_memsim::IoStats, iolb_memsim::IoStats) {
    let mut sink = TraceSink::new(&exe.program, params);
    let mut store = Store::init(&exe.program, params, init);
    Interpreter::new(exe, params).run(&mut store, &mut sink);
    let mut lru = LruSim::with_cells(s, sink.num_cells);
    lru.run_packed(&sink.packed);
    let lru_stats = lru.finish();
    let min_stats = iolb_memsim::BeladySim::new(s).run_packed(&sink.packed);
    (lru_stats, min_stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Semantics;
    use iolb_ir::{Access as IrAccess, ProgramBuilder};

    /// Two sequential passes over x[0..N].
    fn two_pass() -> Executable {
        let mut b = ProgramBuilder::new("two_pass_sink", &["N"]);
        let mut sem = Semantics::default();
        let x = b.array("x", &[b.p("N")]);
        let acc = b.scalar("acc");
        let wa = IrAccess::new(acc, vec![]);
        sem.def(b.stmt("Z", vec![], vec![wa.clone()]), move |c| {
            c.wr(acc, &[], 0.0)
        });
        for pass in 0..2 {
            let i = b.open("i", b.c(0), b.p("N"));
            let xi = IrAccess::new(x, vec![b.d(i)]);
            let nm = format!("S{pass}");
            sem.def(
                b.stmt(&nm, vec![xi, wa.clone()], vec![wa.clone()]),
                move |c| {
                    let v = c.rd(x, &[c.v(0)]) + c.rd(acc, &[]);
                    c.wr(acc, &[], v);
                },
            );
            b.close();
        }
        Executable::new(b.finish(), sem)
    }

    #[test]
    fn streaming_lru_measures_reuse() {
        let p = two_pass();
        // Capacity 4 < N=8 (+acc): thrash → 16 loads of x.
        let small = measure_lru_io(&p, &[8], 4, |_, f| f as f64);
        assert_eq!(small.loads, 16);
        // Capacity 16 keeps x resident: 8 loads.
        let big = measure_lru_io(&p, &[8], 16, |_, f| f as f64);
        assert_eq!(big.loads, 8);
    }

    #[test]
    fn min_never_worse_than_lru() {
        let p = two_pass();
        for s in [2usize, 3, 5, 9, 20] {
            let lru = measure_lru_io(&p, &[8], s, |_, f| f as f64);
            let min = measure_min_io(&p, &[8], s, |_, f| f as f64);
            assert!(min.loads <= lru.loads, "S={s}");
        }
    }

    #[test]
    fn fused_path_matches_separate_measurements() {
        let p = two_pass();
        for s in [2usize, 4, 9, 20] {
            let lru = measure_lru_io(&p, &[8], s, |_, f| f as f64);
            let min = measure_min_io(&p, &[8], s, |_, f| f as f64);
            let (lru2, min2) = measure_lru_min_io(&p, &[8], s, |_, f| f as f64);
            assert_eq!(lru, lru2, "S={s}");
            assert_eq!(min, min2, "S={s}");
        }
    }
}
