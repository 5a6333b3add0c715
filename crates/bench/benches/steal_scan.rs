//! Microbenchmark: the Figure 3 victim-queue steal scan (§3.6).
//!
//! Every idle transition in Hawk triggers up to `cap` victim scans, so the
//! scan must be cheap both when it succeeds and (especially) when the
//! fast-path rejects an ineligible victim. The cases live in
//! `hawk_bench::micro`; hawkbench's per-layer `cluster.steal_scan_ns`
//! times the same scan on each workload's cluster.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("steal_scan");
    for mut case in hawk_bench::micro::steal_scan_cases() {
        group.bench_function(case.name.clone(), |b| b.iter(|| black_box((case.run)())));
    }
    group.finish();
}

criterion_group!(benches, bench_scan);
criterion_main!(benches);
