//! Microbenchmark: future-event-list throughput.
//!
//! The simulator's hot loop is dominated by event-queue pushes and pops;
//! a paper-scale Figure 5 sweep processes hundreds of millions of events.
//! The cases live in `hawk_bench::micro`; hawkbench's per-layer
//! `simcore.engine_ns_per_event` times the engine at each workload's
//! population of pending events.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

fn bench_push_pop(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    for mut case in hawk_bench::micro::event_queue_cases() {
        group.throughput(Throughput::Elements(case.elements));
        group.bench_function(case.name.clone(), |b| b.iter(|| black_box((case.run)())));
    }
    group.finish();
}

criterion_group!(benches, bench_push_pop);
criterion_main!(benches);
