//! VAL-P: times CDAG construction plus a full pebble play for MGS, and
//! asserts the bound-vs-play soundness as a side effect.
use criterion::{criterion_group, criterion_main, Criterion};
use iolb_cdag::{build_cdag, PebbleGame, SpillPolicy};
use iolb_symbolic::Var;

fn bench(c: &mut Criterion) {
    let program = iolb_bench::paper_kernel("MGS").parse().program;
    let params = [16i64, 8];
    let cdag = build_cdag(&program, &params);
    let analysis = iolb_core::Analysis::run(&program, &[params.to_vec()]).unwrap();
    let su = program.stmt_id("SU").unwrap();
    let pat = analysis.detect_hourglass(su).unwrap();
    let hb = analysis.hourglass_bound(&pat);
    let env = [(Var::new("M"), 16i128), (Var::new("N"), 8)];
    for s in [8usize, 16, 32] {
        let play = PebbleGame::new(&cdag, s)
            .play_program_order(SpillPolicy::MinNextUse)
            .unwrap();
        assert!(hb.eval_floor(&env, s as i128) <= play.loads as f64);
    }
    let mut g = c.benchmark_group("pebble_validation");
    g.sample_size(10);
    g.bench_function("mgs_16x8_cdag_build", |b| {
        b.iter(|| build_cdag(&program, &params))
    });
    g.bench_function("mgs_16x8_play_min_s16", |b| {
        b.iter(|| {
            PebbleGame::new(&cdag, 16)
                .play_program_order(SpillPolicy::MinNextUse)
                .unwrap()
        })
    });
    g.finish();
}
criterion_group!(benches, bench);
criterion_main!(benches);
