//! Shape checks: miniature versions of the paper's figures, asserted.
//!
//! Each test runs a 100×-scaled experiment cell and asserts the figure's
//! qualitative claim — who wins, and on which side of 1.0 the normalized
//! ratios fall. The bench binaries regenerate the full curves; these tests
//! keep the claims from regressing.

use hawk::prelude::*;
use hawk::workload::google::{GoogleTraceConfig, GOOGLE_SHORT_PARTITION};

/// The 100×-scaled high-load cell (≈ the paper's 15,000-node point).
fn loaded_cell() -> ExperimentBuilder {
    Experiment::builder()
        .nodes(150)
        .trace(GoogleTraceConfig::with_scale(100, 900).generate(21))
}

fn run(base: &ExperimentBuilder, scheduler: impl Scheduler + 'static) -> MetricsReport {
    base.clone().scheduler(scheduler).run()
}

#[test]
fn fig08_shape_centralized_penalizes_short_jobs_under_load() {
    let base = loaded_cell();
    let hawk = run(&base, Hawk::new(GOOGLE_SHORT_PARTITION));
    let central = run(&base, Centralized::new());
    let short = compare(&hawk, &central, JobClass::Short);
    assert!(
        short.p90_ratio.unwrap() < 1.0,
        "Hawk should beat centralized for short p90 under load: {:?}",
        short.p90_ratio
    );
}

#[test]
fn fig09_shape_centralized_slightly_better_for_long_jobs() {
    let base = loaded_cell();
    let hawk = run(&base, Hawk::new(GOOGLE_SHORT_PARTITION));
    let central = run(&base, Centralized::new());
    let long = compare(&hawk, &central, JobClass::Long);
    // Centralized can use the whole cluster for long jobs; Hawk only the
    // general partition. Hawk's ratio sits at or above 1, but not wildly.
    let p50 = long.p50_ratio.unwrap();
    assert!(
        p50 > 0.9 && p50 < 2.0,
        "long p50 Hawk/centralized out of band: {p50}"
    );
}

#[test]
fn fig10_shape_split_cluster_hurts_short_jobs() {
    let base = loaded_cell();
    let hawk = run(&base, Hawk::new(GOOGLE_SHORT_PARTITION));
    let split = run(&base, SplitCluster::new(GOOGLE_SHORT_PARTITION));
    let short = compare(&hawk, &split, JobClass::Short);
    assert!(
        short.p50_ratio.unwrap() < 1.0,
        "Hawk should beat the split cluster for shorts: {:?}",
        short.p50_ratio
    );
}

#[test]
fn fig12_13_shape_benefits_hold_across_cutoffs() {
    // One parallel sweep over the cutoff axis for both schedulers.
    let results = loaded_cell()
        .sweep()
        .scheduler(Hawk::new(GOOGLE_SHORT_PARTITION))
        .scheduler(Sparrow::new())
        .cutoffs([750u64, 1_129, 2_000].map(Cutoff::from_secs))
        .run_all();
    for cutoff_secs in [750u64, 1_129, 2_000] {
        let cutoff = Cutoff::from_secs(cutoff_secs);
        let hawk = &results
            .find(|c| c.scheduler == "hawk" && c.cutoff == cutoff)
            .unwrap()
            .report;
        let sparrow = &results
            .find(|c| c.scheduler == "sparrow" && c.cutoff == cutoff)
            .unwrap()
            .report;
        let short = compare(hawk, sparrow, JobClass::Short);
        assert!(
            short.p90_ratio.unwrap() < 0.9,
            "cutoff {cutoff_secs}s: short p90 ratio {:?}",
            short.p90_ratio
        );
    }
}

#[test]
fn fig15_shape_higher_steal_cap_helps() {
    let base = loaded_cell();
    let cap1 = run(&base, Hawk::new(GOOGLE_SHORT_PARTITION).steal_cap(1));
    let cap10 = run(&base, Hawk::new(GOOGLE_SHORT_PARTITION).steal_cap(10));
    let short = compare(&cap10, &cap1, JobClass::Short);
    assert!(
        short.p90_ratio.unwrap() < 1.0,
        "cap 10 should beat cap 1 for short p90: {:?}",
        short.p90_ratio
    );
    assert!(cap10.steals >= cap1.steals);
}

/// ROADMAP 9's first decision: probe avoidance earns its place. Eagle-style
/// bouncing (`Hawk::probe_avoidance(4)`) steers short probes off servers
/// holding long work, so it must lower short-job latency against plain
/// Hawk at both the median and the 90th percentile, at every one of ten
/// simulator seeds. The ratios read 0.80–0.84 (p50) and 0.84–0.93 (p90)
/// over those seeds, so the 1.0 line sits outside their spread.
#[test]
fn probe_avoidance_shape_bouncing_lowers_short_latency() {
    for seed in 1..=10 {
        let base = loaded_cell().seed(seed);
        let plain = run(&base, Hawk::new(GOOGLE_SHORT_PARTITION));
        let avoiding = run(&base, Hawk::new(GOOGLE_SHORT_PARTITION).probe_avoidance(4));
        let short = compare(&avoiding, &plain, JobClass::Short);
        let (p50, p90) = (short.p50_ratio.unwrap(), short.p90_ratio.unwrap());
        assert!(
            p50 < 1.0 && p90 < 1.0,
            "seed {seed}: probe avoidance over plain Hawk, short p50 {p50:.3}, p90 {p90:.3}"
        );
    }
}
