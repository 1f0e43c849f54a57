//! FIG4: times a full old+new derivation per kernel at the shipped file's
//! `default` parameters (the engine itself is a deliverable; Figure 4 is
//! regenerated from these derivations).
use criterion::{criterion_group, criterion_main, Criterion};
use iolb_core::report::KernelReport;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig4_derivation");
    g.sample_size(10);
    for kernel in &iolb_bench::PAPER_KERNELS[..5] {
        let file = kernel.parse();
        g.bench_function(kernel.name, |b| {
            b.iter(|| KernelReport::from_file(kernel.name, &file).expect("derivation"))
        });
    }
    g.finish();
}
criterion_group!(benches, bench);
criterion_main!(benches);
