//! Property: tiled and untiled enumeration of a random [`Program`] produce
//! identical instance multisets — `tile_program` may only *reorder* the
//! schedule, never add, drop, or relabel an instance.

use iolb_ir::schedule::{enumerate_instances, tile_program, TileSpec};
use iolb_ir::{Access, Aff, ArrayId, DimId, LoopStep, Program, ProgramBuilder, StmtId};
use proptest::prelude::*;

/// Minimal deterministic PRNG (xorshift64*) seeded by proptest.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn flip(&mut self) -> bool {
        self.below(2) == 0
    }
}

struct Builder {
    b: ProgramBuilder,
    g: Gen,
    a2: ArrayId,
    open: Vec<DimId>,
    stmt_ct: u32,
    loop_ct: u32,
    /// Names of generated unit-step forward loops (the tileable set).
    tileable: Vec<String>,
}

impl Builder {
    /// Nonnegative affine bound expressions over open dims and parameters.
    fn lo_aff(&mut self) -> Aff {
        match self.g.below(3) {
            0 if !self.open.is_empty() => {
                let d = *self.open.last().unwrap();
                self.b.d(d) + 1
            }
            1 => self.b.c(self.g.below(3) as i64),
            _ => self.b.c(0),
        }
    }

    fn hi_aff(&mut self) -> Aff {
        match self.g.below(3) {
            0 => self.b.p("P"),
            1 => self.b.p("Q") + 2,
            _ => self.b.p("P") + self.g.below(3) as i64,
        }
    }

    fn body(&mut self, depth: u32) {
        let items = 1 + self.g.below(2);
        for _ in 0..items {
            if depth < 4 && self.g.flip() {
                self.random_loop(depth);
            } else {
                self.random_stmt();
            }
        }
    }

    fn random_loop(&mut self, depth: u32) {
        let name = format!("i{}", self.loop_ct);
        self.loop_ct += 1;
        let lo = vec![self.lo_aff()];
        let mut hi = vec![self.hi_aff()];
        if self.g.below(4) == 0 {
            hi.push(self.b.p("Q") + 1);
        }
        // Mostly tileable (unit forward) loops, with some strided/reversed
        // ones in the mix (tile specs avoid those).
        let (step, reverse) = match self.g.below(6) {
            0 => (LoopStep::Const(2), false),
            1 => (LoopStep::One, true),
            _ => (LoopStep::One, false),
        };
        if step == LoopStep::One && !reverse {
            self.tileable.push(name.clone());
        }
        let d = self.b.open_general(&name, lo, hi, step, reverse);
        self.open.push(d);
        self.body(depth + 1);
        self.open.pop();
        self.b.close();
    }

    fn random_stmt(&mut self) {
        let name = format!("S{}", self.stmt_ct);
        self.stmt_ct += 1;
        let w = Access::new(self.a2, vec![Aff::zero(), Aff::zero()]);
        self.b.stmt(&name, vec![], vec![w]);
    }
}

/// Builds a random loop-tree program plus the names of its tileable loops.
fn random_program(seed: u64) -> (Program, Vec<String>) {
    let mut builder = Builder {
        b: ProgramBuilder::new("rand_tile", &["P", "Q"]),
        g: Gen(seed | 1),
        a2: ArrayId(0),
        open: Vec::new(),
        stmt_ct: 0,
        loop_ct: 0,
        tileable: Vec::new(),
    };
    let (p, q) = (builder.b.p("P"), builder.b.p("Q"));
    builder.a2 = builder.b.array("A", &[p + 3, q + 3]);
    builder.body(0);
    let tileable = std::mem::take(&mut builder.tileable);
    (builder.b.finish(), tileable)
}

fn sorted(mut v: Vec<(StmtId, Vec<i32>)>) -> Vec<(StmtId, Vec<i32>)> {
    v.sort();
    v
}

proptest! {
    /// Tiling any subset of the tileable loops with arbitrary sizes leaves
    /// the `(stmt, iv)` instance multiset unchanged at every size point.
    #[test]
    fn tiled_enumeration_is_a_permutation(
        seed in 0u64..(1 << 48),
        sizes in proptest::collection::vec(1i64..6, 1..4),
        p in 1i64..6,
        q in 1i64..6,
    ) {
        let (program, tileable) = random_program(seed);
        prop_assume!(!tileable.is_empty());
        let specs: Vec<TileSpec> = tileable
            .iter()
            .zip(sizes.iter())
            .map(|(name, &s)| TileSpec::new(name, s))
            .collect();
        let tiled = tile_program(&program, &specs).expect("valid tiling");
        let params = [p, q];
        let base = enumerate_instances(&program, &params);
        let blocked = enumerate_instances(&tiled, &params);
        prop_assert_eq!(base.len(), blocked.len(), "instance counts differ");
        prop_assert_eq!(sorted(base), sorted(blocked), "instance multisets differ");
    }
}
