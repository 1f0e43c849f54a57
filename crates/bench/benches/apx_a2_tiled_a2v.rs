//! APXA2: times the tiled-A2V I/O measurement that regenerates the
//! Appendix A.2 table.
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("apx_a2_tiled_a2v");
    g.sample_size(10);
    let (m, n) = (48usize, 24usize);
    for s in [256usize, 512, 1024] {
        g.bench_with_input(BenchmarkId::from_parameter(s), &s, |b, &s| {
            b.iter(|| iolb_bench::sweep_tiled(&iolb_bench::TILED_A2V, m, n, &[s]))
        });
    }
    g.finish();
}
criterion_group!(benches, bench);
criterion_main!(benches);
