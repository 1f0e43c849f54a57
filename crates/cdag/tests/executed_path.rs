//! `build_cdag` (declared accesses through the checked evaluator) against
//! the CDAG of the *performed* accesses: the builder kernels' f64 closures
//! run through the `iolb-kernels` interpreter, every performed read wired
//! to the last writer of its cell by [`CdagBuilder`]. The two must agree
//! node for node, edge for edge.

use iolb_cdag::{build_cdag, Cdag, CdagBuilder, NodeId};
use iolb_ir::{Access, ArrayId, ProgramBuilder, StmtId};
use iolb_kernels::interp::{ExecSink, Executable, Interpreter, Semantics, Store};

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
    let mut b = ProgramBuilder::new("prefix_cdag", &["N"]);
    let mut sem = Semantics::default();
    let x = b.array("x", &[b.p("N")]);
    let i = b.open("i", b.c(1), b.p("N"));
    let xi = Access::new(x, vec![b.d(i)]);
    let xm = Access::new(x, vec![b.d(i) - 1]);
    sem.def(b.stmt("S", vec![xi.clone(), xm], vec![xi]), move |c| {
        let v = c.rd(x, &[c.v(0)]) + c.rd(x, &[c.v(0) - 1]);
        c.wr(x, &[c.v(0)], v);
    });
    b.close();
    assert_same_graph(&Executable::new(b.finish(), sem), &[7]);
}

/// The fast path must agree with the executed ground truth on every
/// paper kernel, not just toys.
#[test]
fn declared_path_matches_executed_path_on_paper_kernels() {
    let cases: Vec<(Executable, Vec<i64>)> = vec![
        (iolb_kernels::mgs::executable(), vec![10, 5]),
        (iolb_kernels::mgs::tiled_executable(), vec![10, 5, 2]),
        (iolb_kernels::householder::a2v_executable(), vec![10, 5]),
        (iolb_kernels::householder::v2q_executable(), vec![10, 5]),
        (
            iolb_kernels::householder::a2v_tiled_executable(),
            vec![10, 5, 2],
        ),
        (iolb_kernels::gebd2::executable(), vec![8, 4]),
        (iolb_kernels::gehd2::executable(), vec![8]),
        (iolb_kernels::gemm::executable(), vec![5, 4, 3]),
    ];
    for (exe, params) in &cases {
        assert_same_graph(exe, params);
    }
}
