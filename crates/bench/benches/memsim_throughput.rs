//! Substrate throughput: accesses/second of the LRU and Belady-MIN
//! simulators (they gate how large the Appendix sweeps can go), on a
//! packed trace (`(cell << 1) | write` per event).
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use iolb_memsim::{BeladySim, LruSim};
use rand::prelude::*;

fn bench(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let trace: Vec<u64> = (0..200_000)
        .map(|_| {
            let cell: u64 = rng.gen_range(0..4096);
            (cell << 1) | rng.gen_bool(0.3) as u64
        })
        .collect();
    let mut g = c.benchmark_group("memsim_throughput");
    g.sample_size(10);
    g.throughput(Throughput::Elements(trace.len() as u64));
    g.bench_function("lru_200k", |b| {
        b.iter(|| {
            let mut sim = LruSim::new(1024);
            sim.run_packed(&trace);
            sim.finish()
        })
    });
    g.bench_function("belady_min_200k", |b| {
        b.iter(|| BeladySim::new(1024).run_packed(&trace))
    });
    g.finish();
}
criterion_group!(benches, bench);
criterion_main!(benches);
