//! The real-time prototype (§3.8 / §4.10): node monitors, distributed
//! schedulers and the centralized scheduler as live threads exchanging
//! messages, with tasks executing as wall-clock sleeps.
//!
//! The prototype is a *backend* for the same `Scheduler` policies the
//! simulator runs: the `Hawk::new(0.17)` and `Sparrow::new()` values
//! below are exactly the ones every simulation example uses. Runs a
//! scaled-down Google-trace sample under both and prints the same
//! comparison as the simulator — in a few seconds of real time.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example prototype_cluster
//! ```

use hawk::prelude::*;
use hawk::workload::sample::{arrivals_for_load_multiplier, PrototypeSampleConfig};

fn main() {
    // 110 jobs (100 short + 10 long) on 100 worker threads; durations
    // scaled 20,000× down so long tasks are tens of milliseconds.
    let sample_cfg = PrototypeSampleConfig {
        short_jobs: 100,
        long_jobs: 10,
        cluster_size: 100,
        duration_divisor: 20_000,
    };
    let sample = sample_cfg.generate(5);
    let mut rng = SimRng::seed_from_u64(77);
    // Load multiplier 1.2: just below saturation on the 100-node cluster.
    let trace = arrivals_for_load_multiplier(&sample, 1.2, 100, &mut rng);
    println!(
        "prototype sample: {} jobs, span {:.2} s of wall time per run",
        trace.len(),
        trace.span().as_secs_f64()
    );

    // The prototype's cell: 100 workers, the sample's cutoff, utilization
    // sampled every 50 ms of wall time.
    let cell = Experiment::builder()
        .nodes(100)
        .cutoff(sample_cfg.cutoff())
        .util_interval(SimDuration::from_millis(50))
        .trace(trace);
    let real_time = ProtoBackend::real_time();

    println!("running Hawk on 100 worker threads...");
    let hawk = cell
        .clone()
        .scheduler(Hawk::new(0.17))
        .build()
        .run_on(&real_time);
    println!("running Sparrow on 100 worker threads...");
    let sparrow = cell.scheduler(Sparrow::new()).build().run_on(&real_time);

    for class in [JobClass::Short, JobClass::Long] {
        let hp = hawk.runtime_percentile(class, 90.0).unwrap_or(f64::NAN);
        let sp = sparrow.runtime_percentile(class, 90.0).unwrap_or(f64::NAN);
        println!(
            "{class} jobs: p90 Hawk {:.0} ms vs Sparrow {:.0} ms (ratio {:.3})",
            hp * 1e3,
            sp * 1e3,
            hp / sp
        );
    }
    println!(
        "median utilization: Hawk {:.0}%, Sparrow {:.0}% ({} steals)",
        hawk.median_utilization * 100.0,
        sparrow.median_utilization * 100.0,
        hawk.steals
    );
}
