//! DSL round-trip property: `parse(print(p))` is structurally identical to
//! `p` for randomized [`ProgramBuilder`] programs covering the full builder
//! surface (nested/strided/reversed loops, `max`/`min` bounds, triangular
//! subscripts, scalars) — and `parse(print(k))` preserves full
//! [`KernelFile`]s including randomized `schedule { tile … }` blocks —
//! plus golden tests pinning parse-error messages and spans for malformed
//! input (schedule and split directives included).

use iolb_ir::parse::{assert_kernel_roundtrip, assert_roundtrip, parse_kernel, TileDirective};
use iolb_ir::{Access, Aff, ArrayId, DimId, KernelFile, LoopStep, Program, ProgramBuilder};
use proptest::prelude::*;

/// Minimal deterministic PRNG (xorshift64*) so program generation needs
/// nothing beyond a seed from proptest.
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
    a1: ArrayId,
    sc: ArrayId,
    open: Vec<DimId>,
    stmt_ct: u32,
    loop_ct: u32,
    /// Loop names eligible for `schedule { tile … }` (unit-step forward).
    tileable: Vec<String>,
}

impl Builder {
    /// A random affine expression over the open dims and parameters.
    fn aff(&mut self) -> Aff {
        let base = match self.g.below(4) {
            0 if !self.open.is_empty() => {
                let d = self.open[self.g.below(self.open.len() as u64) as usize];
                self.b.d(d)
            }
            1 => self.b.p("P"),
            2 => self.b.p("Q"),
            _ => self.b.c(self.g.below(5) as i64),
        };
        match self.g.below(4) {
            0 => base + self.g.below(3) as i64,
            1 => base - 1,
            2 if !self.open.is_empty() => {
                let d = self.open[self.g.below(self.open.len() as u64) as usize];
                base + self.b.d(d) * (self.g.below(3) as i64 + 1)
            }
            _ => base,
        }
    }

    fn access(&mut self) -> Access {
        match self.g.below(3) {
            0 => Access::new(self.a2, vec![self.aff(), self.aff()]),
            1 => Access::new(self.a1, vec![self.aff()]),
            _ => Access::new(self.sc, vec![]),
        }
    }

    fn body(&mut self, depth: u32) {
        let items = 1 + self.g.below(2);
        for _ in 0..items {
            if depth < 3 && self.g.flip() {
                self.random_loop(depth);
            } else {
                self.random_stmt();
            }
        }
    }

    fn random_loop(&mut self, depth: u32) {
        let name = format!("i{}", self.loop_ct);
        self.loop_ct += 1;
        let lo_first = if !self.open.is_empty() && self.g.flip() {
            let d = *self.open.last().unwrap();
            self.b.d(d) + 1
        } else {
            self.b.c(0)
        };
        let lo = if self.g.below(4) == 0 {
            vec![lo_first, self.b.c(1)]
        } else {
            vec![lo_first]
        };
        let hi_first = match self.g.below(3) {
            0 => self.b.p("P"),
            1 => self.b.p("Q"),
            _ => self.b.p("P") + 2,
        };
        let hi = if self.g.below(4) == 0 {
            vec![hi_first, self.b.p("Q") + 1]
        } else {
            vec![hi_first]
        };
        let step = match self.g.below(4) {
            0 => LoopStep::Const(2),
            1 => LoopStep::Param(self.b.pid("Q")),
            _ => LoopStep::One,
        };
        let reverse = self.g.below(4) == 0;
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
        let n_reads = self.g.below(3) as usize;
        let reads: Vec<Access> = (0..n_reads).map(|_| self.access()).collect();
        let mut writes = vec![self.access()];
        if self.g.below(4) == 0 {
            writes.push(self.access());
        }
        self.b.stmt(&name, reads, writes);
    }
}

/// Builds a random program exercising the whole DSL surface, plus the
/// names of its tileable loops (for schedule-block generation).
fn random_program_with_tileable(seed: u64) -> (Program, Vec<String>) {
    let mut builder = Builder {
        b: ProgramBuilder::new("rand_prog", &["P", "Q"]),
        g: Gen(seed | 1),
        a2: ArrayId(0),
        a1: ArrayId(0),
        sc: ArrayId(0),
        open: Vec::new(),
        stmt_ct: 0,
        loop_ct: 0,
        tileable: Vec::new(),
    };
    let (p, q) = (builder.b.p("P"), builder.b.p("Q"));
    builder.a2 = builder.b.array("A", &[p.clone(), q]);
    builder.a1 = builder.b.array("B", &[p]);
    builder.sc = builder.b.scalar("s");
    builder.body(0);
    let tileable = builder.tileable.clone();
    (builder.b.finish(), tileable)
}

/// Builds a random program exercising the whole DSL surface.
fn random_program(seed: u64) -> Program {
    random_program_with_tileable(seed).0
}

proptest! {
    /// print → parse → structural equality over the randomized builder
    /// surface (the paper kernels are covered separately in iolb-cli's
    /// parity tests).
    #[test]
    fn randomized_programs_round_trip(seed in 0u64..(1 << 48)) {
        let p = random_program(seed);
        assert_roundtrip(&p);
    }

    /// Full-file round-trip with a randomized `schedule { tile … }` block:
    /// directives over random tileable loops (random sized/unsized mix)
    /// print and re-parse to the identical [`KernelFile`]. Previously the
    /// round-trip proptests only covered schedule-less programs.
    #[test]
    fn randomized_schedules_round_trip(seed in 0u64..(1 << 48)) {
        let (program, tileable) = random_program_with_tileable(seed);
        let mut g = Gen(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        let mut schedule: Vec<TileDirective> = Vec::new();
        for name in &tileable {
            if schedule.iter().any(|d| d.loop_name == *name) {
                continue; // duplicate loop names are rejected by the parser
            }
            if g.flip() {
                let size = match g.below(3) {
                    0 => Some(1 + g.below(16) as i64),
                    _ => None,
                };
                schedule.push(TileDirective { loop_name: name.clone(), size });
            }
        }
        let kernel = KernelFile {
            program,
            analyze: None,
            defaults: vec![("P".to_string(), 5 + g.below(8) as i64),
                           ("Q".to_string(), 3 + g.below(8) as i64)],
            split: None,
            schedule,
        };
        assert_kernel_roundtrip(&kernel);
    }
}

/// Golden parse-error cases: exact message fragment and span.
#[test]
fn golden_parse_errors() {
    let cases: &[(&str, u32, &str)] = &[
        ("", 1, "expected keyword `kernel`"),
        ("kernel", 1, "expected identifier"),
        (
            "kernel k(N) { scalar x;",
            1,
            "expected `for`, a statement, or `}`",
        ),
        (
            "kernel k(N) {\n  array A[N];\n  S: A[N + ] = op();\n}",
            3,
            "expected affine term",
        ),
        (
            "kernel k(N) {\n  array A[N];\n  S: A[z] = op();\n}",
            3,
            "unknown variable z",
        ),
        (
            "kernel k(N) {\n  array A[N];\n  for i in 0..N step 0 { S: A[i] = op(); }\n}",
            3,
            "loop step must be positive",
        ),
        (
            "kernel k(N) {\n  array A[N];\n  for i in 0..N step W { S: A[i] = op(); }\n}",
            3,
            "step W is not a program parameter",
        ),
        (
            "kernel k(N) {\n  array A[N][i];\n  S: A[0][0] = op();\n}",
            2,
            "unknown variable i",
        ),
        (
            "kernel k(N) {\n  scalar x;\n  S: x = f(x);\n}",
            3,
            "expected keyword `op`",
        ),
        (
            "kernel k(N) {\n  scalar x;\n  split Ms = N/0;\n  S: x = op();\n}",
            3,
            "expected non-zero integer divisor",
        ),
        (
            "kernel k(N) { array A; S: A = op(); }",
            1,
            "needs at least one `[extent]`",
        ),
        ("kernel k(N) @", 1, "unexpected character `@`"),
        // --- malformed `schedule` directives -------------------------------
        (
            "kernel k(N) {\n  array A[N];\n  schedule { tile z; }\n  for i in 0..N { S: A[i] = op(); }\n}",
            3,
            "`tile z` names no loop of the kernel",
        ),
        (
            "kernel k(N) {\n  array A[N];\n  schedule { tile i -3; }\n  for i in 0..N { S: A[i] = op(); }\n}",
            3,
            "expected `;`",
        ),
        (
            "kernel k(N) {\n  array A[N];\n  schedule { tile i 0; }\n  for i in 0..N { S: A[i] = op(); }\n}",
            3,
            "tile size for i must be ≥ 1",
        ),
        (
            "kernel k(N) {\n  array A[N];\n  schedule { tile i 2; tile i 4; }\n  for i in 0..N { S: A[i] = op(); }\n}",
            3,
            "duplicate `tile` directive for loop i",
        ),
        (
            "kernel k(N) {\n  array A[N];\n  schedule { tile i; }\n  schedule { tile i; }\n  for i in 0..N { S: A[i] = op(); }\n}",
            4,
            "duplicate `schedule` block",
        ),
        (
            "kernel k(N) {\n  array A[N];\n  schedule { tile i 4; }\n  for i in 0..N step 2 { S: A[i] = op(); }\n}",
            3,
            "targets a strided or reversed loop",
        ),
        (
            "kernel k(N) {\n  array A[N];\n  schedule { banana i; }\n  for i in 0..N { S: A[i] = op(); }\n}",
            3,
            "expected keyword `tile`",
        ),
        // --- out-of-range / malformed `split` bindings ---------------------
        (
            "kernel k(N) {\n  scalar x;\n  split Ms = W/2;\n  S: x = op();\n}",
            3,
            "unknown parameter W in split expression",
        ),
        (
            "kernel k(N) {\n  scalar x;\n  split Ms = 2*W;\n  S: x = op();\n}",
            3,
            "unknown parameter W in split expression",
        ),
        (
            "kernel k(N) {\n  scalar x;\n  split Ms = N/2;\n  split Ms = N/3;\n  S: x = op();\n}",
            4,
            "duplicate `split` directive",
        ),
        (
            "kernel k(N) {\n  scalar x;\n  split Ms = ;\n  S: x = op();\n}",
            3,
            "expected split-expression term",
        ),
    ];
    for (src, line, frag) in cases {
        let err = parse_kernel(src).expect_err(src);
        assert!(
            err.msg.contains(frag),
            "source {src:?}: expected fragment {frag:?} in {:?}",
            err.msg
        );
        assert_eq!(err.span.line, *line, "source {src:?}: line of {err}");
    }
}

/// Errors format with position prefix (the CLI's user-facing surface).
#[test]
fn error_display_has_position() {
    let err = parse_kernel("kernel k(N) {\n  junk!\n}").unwrap_err();
    let text = err.to_string();
    assert!(
        text.starts_with("parse error at line 2, col"),
        "got: {text}"
    );
}
