//! Empirical check of Lemma 3 (the structural core of the paper's proof)
//! on exact CDAGs: a *convex* set containing hourglass-statement instances
//! at temporal iterations k and k+2 (same neutral j) must contain an entire
//! reduction/broadcast line in between — `|φ_i(E′_{j,k+1})| ≥ W`.

use iolb_cdag::{build_cdag, Cdag, NodeId, NodeKind};
use iolb_ir::{Access, Program, ProgramBuilder, StmtId};
use std::collections::BTreeSet;

/// Miniature MGS core (SR/SU cycle) — same shape as the paper's Fig. 2.
fn mini_mgs() -> Program {
    let mut b = ProgramBuilder::new("lemma3_mgs", &["M", "N"]);
    let a = b.array("A", &[b.p("M"), b.p("N")]);
    let r = b.array("R", &[b.p("N"), b.p("N")]);
    let k = b.open("k", b.c(0), b.p("N"));
    let j = b.open("j", b.d(k) + 1, b.p("N"));
    let w_r = Access::new(r, vec![b.d(k), b.d(j)]);
    b.stmt("S0", vec![], vec![w_r.clone()]);
    let i1 = b.open("i", b.c(0), b.p("M"));
    let rd_aik = Access::new(a, vec![b.d(i1), b.d(k)]);
    let rd_aij = Access::new(a, vec![b.d(i1), b.d(j)]);
    b.stmt("SR", vec![rd_aik, rd_aij, w_r.clone()], vec![w_r.clone()]);
    b.close();
    let i2 = b.open("i", b.c(0), b.p("M"));
    let rd_aik2 = Access::new(a, vec![b.d(i2), b.d(k)]);
    let rw_aij2 = Access::new(a, vec![b.d(i2), b.d(j)]);
    b.stmt(
        "SU",
        vec![rd_aik2, rw_aij2.clone(), w_r.clone()],
        vec![rw_aij2],
    );
    b.close();
    b.close();
    b.close();
    b.finish()
}

fn nodes_of(g: &Cdag, stmt: StmtId, pred: impl Fn(&[i32]) -> bool) -> Vec<NodeId> {
    (0..g.len() as u32)
        .map(NodeId)
        .filter(|v| match g.kind(*v) {
            NodeKind::Compute { stmt: s, iv } if s == stmt => pred(iv),
            _ => false,
        })
        .collect()
}

#[test]
fn convex_closure_spanning_two_ticks_contains_full_lines() {
    let (m, n) = (7i64, 5i64);
    let p = mini_mgs();
    let g = build_cdag(&p, &[m, n]);
    let su = p.stmt_id("SU").unwrap();
    let sr = p.stmt_id("SR").unwrap();
    // Seed: SU[k=0, j=3, i=0] and SU[k=2, j=3, i=0].
    let seed: BTreeSet<NodeId> = [
        g.node_of(su, &[0, 3, 0]).unwrap(),
        g.node_of(su, &[2, 3, 0]).unwrap(),
    ]
    .into_iter()
    .collect();
    let e = g.convex_closure(&seed);
    assert!(g.is_convex(&e));
    // Lemma 3(2): the slice at the intermediate tick k=1 contains the whole
    // reduction line SR[1, 3, ·] and the whole broadcast line SU[1, 3, ·]:
    // |φ_i| = W = M on both statements.
    for (stmt, name) in [(sr, "SR"), (su, "SU")] {
        let line = nodes_of(&g, stmt, |iv| iv[0] == 1 && iv[1] == 3);
        assert_eq!(line.len(), m as usize, "{name} line has W = M instances");
        for v in line {
            assert!(e.contains(&v), "{name} instance missing from convex set");
        }
    }
    // Lemma 3(1): the j = 3 slice of E is one connected component — every
    // member reaches (or is reached by) the seed chain; spot-check with the
    // in-set being sizeable (≥ W, the paper's |InSet(E′)| > M argument).
    let inset = g.inset(&e);
    assert!(
        inset.len() >= m as usize,
        "inset {} must exceed the width M = {m}",
        inset.len()
    );
}

#[test]
fn flat_sets_avoid_the_width_obligation() {
    // A set confined to a single temporal tick (the F part of §4.1) does
    // NOT need to contain full lines: a 2-element convex subset of one
    // SU line stays 2 elements.
    let p = mini_mgs();
    let g = build_cdag(&p, &[7, 5]);
    let su = p.stmt_id("SU").unwrap();
    let seed: BTreeSet<NodeId> = [
        g.node_of(su, &[1, 3, 0]).unwrap(),
        g.node_of(su, &[1, 3, 1]).unwrap(),
    ]
    .into_iter()
    .collect();
    let e = g.convex_closure(&seed);
    // No dependency chain links same-tick SU instances of different i.
    assert_eq!(e.len(), 2, "flat slice stays flat: {e:?}");
    assert!(g.is_convex(&e));
}

#[test]
fn hourglass_chain_count_matches_paper_width() {
    // §3.2's width statement for MGS: the chains between SU[k,j,i] and
    // SU[k+2,j,i] pass through 2M statement instances (SR[k+1,j,·] and
    // SU[k+1,j,·]).
    let (m, n) = (6i64, 5i64);
    let p = mini_mgs();
    let g = build_cdag(&p, &[m, n]);
    let su = p.stmt_id("SU").unwrap();
    let sr = p.stmt_id("SR").unwrap();
    // Endpoints at i = 0 so the serialized R-accumulation chain at the
    // intermediate tick is fully between them.
    let a = g.node_of(su, &[0, 4, 0]).unwrap();
    let b = g.node_of(su, &[2, 4, 0]).unwrap();
    // Nodes on a-to-b chains at the strictly intermediate tick k = 1
    // (the paper counts the instances *between* the two endpoints).
    let mut on_chain = 0usize;
    for v in 0..g.len() as u32 {
        let v = NodeId(v);
        if g.has_path(a, v) && g.has_path(v, b) && v != a && v != b {
            if let NodeKind::Compute { stmt, iv } = g.kind(v) {
                if (stmt == su || stmt == sr) && iv[0] == 1 {
                    on_chain += 1;
                }
            }
        }
    }
    assert_eq!(
        on_chain,
        2 * m as usize,
        "2M = {} SR/SU instances at the intermediate tick of the k→k+2 chains",
        2 * m
    );
}
