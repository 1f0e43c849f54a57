//! APXA1: times the tiled-MGS I/O measurement (declared-access trace +
//! LRU and OPT curve passes) that regenerates the Appendix A.1 table.
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("apx_a1_tiled_mgs");
    g.sample_size(10);
    let (m, n) = (48usize, 24usize);
    for s in [256usize, 512, 1024] {
        g.bench_with_input(BenchmarkId::from_parameter(s), &s, |b, &s| {
            b.iter(|| iolb_bench::sweep_tiled(&iolb_bench::TILED_MGS, m, n, &[s]))
        });
    }
    g.finish();
}
criterion_group!(benches, bench);
criterion_main!(benches);
