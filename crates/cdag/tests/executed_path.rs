//! `build_cdag` (declared accesses through the checked evaluator) against
//! the CDAG of the *performed* accesses: the kernel files' f64 closures
//! run through the `iolb-kernels` interpreter, every performed read wired
//! to the last writer of its cell by [`CdagBuilder`]. The two must agree
//! node for node, edge for edge.

use iolb_cdag::{build_cdag, Cdag, CdagBuilder, NodeId};
use iolb_ir::{parse_program, ArrayId, StmtId};
use iolb_kernels::interp::{array_ids, ExecSink, Executable, Interpreter, Semantics, Store};

/// [`CdagBuilder`] fed by the interpreter's performed accesses.
struct Executed(CdagBuilder);

impl ExecSink for Executed {
    fn on_stmt(&mut self, stmt: StmtId, iv: &[i64]) {
        self.0.stmt(stmt, iv);
    }
    fn on_read(&mut self, array: ArrayId, flat: usize) {
        self.0.read(array, flat);
    }
    fn on_write(&mut self, array: ArrayId, flat: usize) {
        self.0.write(array, flat);
    }
}

/// The CDAG of `exe`'s performed accesses at `params`.
fn build_cdag_executed(exe: &Executable, params: &[i64]) -> Cdag {
    let mut sink = Executed(CdagBuilder::new());
    let mut store = Store::init(&exe.program, params, |a, f| {
        1.0 + a.0 as f64 + f as f64 * 0.25
    });
    Interpreter::new(exe, params).run(&mut store, &mut sink);
    sink.0.finish()
}

fn assert_same_graph(exe: &Executable, params: &[i64]) {
    let p = &exe.program;
    let fast = build_cdag(p, params);
    let slow = build_cdag_executed(exe, params);
    assert_eq!(fast.len(), slow.len(), "{}: node count", p.name);
    assert_eq!(fast.num_edges(), slow.num_edges(), "{}: edge count", p.name);
    assert_eq!(fast.num_computes(), slow.num_computes(), "{}", p.name);
    for v in 0..fast.len() as u32 {
        assert_eq!(
            fast.preds(NodeId(v)),
            slow.preds(NodeId(v)),
            "{}: preds of {v}",
            p.name
        );
        assert_eq!(
            fast.kind(NodeId(v)),
            slow.kind(NodeId(v)),
            "{}: kind of {v}",
            p.name
        );
    }
}

/// prefix-sum: `for i in 1..N { x[i] = x[i] + x[i-1] }`
#[test]
fn declared_path_matches_executed_path() {
    let program = parse_program(
        "kernel prefix_cdag(N) { array x[N]; for i in 1..N { S: x[i] = op(x[i], x[i - 1]); } }",
    )
    .unwrap();
    let exe = Executable::attach(program, |p| {
        let [x] = array_ids(p, ["x"])?;
        Ok(Semantics::default().on("S", move |c| {
            let v = c.rd(x, &[c.v(0)]) + c.rd(x, &[c.v(0) - 1]);
            c.wr(x, &[c.v(0)], v);
        }))
    })
    .unwrap();
    assert_same_graph(&exe, &[7]);
}

/// The fast path must agree with the executed ground truth on every
/// shipped paper kernel file, not just toys.
#[test]
fn declared_path_matches_executed_path_on_paper_kernels() {
    let cases: [(&str, &[i64]); 8] = [
        ("mgs", &[10, 5]),
        ("tiled/mgs_tiled", &[10, 5, 2]),
        ("qr_hh_a2v", &[10, 5]),
        ("qr_hh_v2q", &[10, 5]),
        ("tiled/qr_hh_a2v_tiled", &[10, 5, 2]),
        ("gebd2", &[8, 4]),
        ("gehd2", &[8]),
        ("gemm", &[5, 4, 3]),
    ];
    for (stem, params) in cases {
        assert_same_graph(&iolb_kernels::executable(stem), params);
    }
}
