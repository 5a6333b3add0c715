//! Cross-crate integration tests: trace generators → schedulers → metrics,
//! exercising the public facade API the way a downstream user would.

use hawk::prelude::*;
use hawk::workload::google::{GoogleTraceConfig, GOOGLE_SHORT_PARTITION};
use hawk::workload::kmeans::KmeansTraceConfig;
use hawk::workload::motivation::MotivationConfig;

/// A small but genuinely loaded Google-like configuration (scaled 100×:
/// 150 nodes ≈ the paper's 15,000-node high-load point).
fn loaded_google() -> ExperimentBuilder {
    Experiment::builder()
        .nodes(150)
        .trace(GoogleTraceConfig::with_scale(100, 800).generate(11))
}

#[test]
fn headline_result_hawk_beats_sparrow_for_short_jobs_under_load() {
    let base = loaded_google();
    let hawk = base
        .clone()
        .scheduler(Hawk::new(GOOGLE_SHORT_PARTITION))
        .run();
    let sparrow = base.scheduler(Sparrow::new()).run();
    let short = compare(&hawk, &sparrow, JobClass::Short);
    assert!(
        short.p50_ratio.unwrap() < 0.8,
        "short p50 ratio {:?}",
        short.p50_ratio
    );
    assert!(
        short.p90_ratio.unwrap() < 0.8,
        "short p90 ratio {:?}",
        short.p90_ratio
    );
    // Hawk must actually be stealing in this regime.
    assert!(hawk.steals > 0);
    assert_eq!(sparrow.steals, 0);
    // Every steal came out of a queue walk, and the candidate index kept
    // the walks well under the ten victims an attempt contacts.
    assert!(hawk.steals <= hawk.steal_scans);
    assert!(hawk.steal_scans < hawk.steal_attempts * 5);
    assert_eq!(sparrow.steal_scans, 0);
    // The per-kind table accounts for every event but the harness's own
    // utilization samples.
    for report in [&hawk, &sparrow] {
        let sampled = report.utilization_samples.len() as u64;
        let by_kind: u64 = report.events_by_kind.iter().sum();
        assert_eq!(by_kind + sampled, report.events);
    }
}

#[test]
fn ablations_degrade_the_component_they_remove() {
    // The no-centralized effect needs the paper's ratio of long-job task
    // count to general-partition size, which survives 10× scaling but not
    // 100×; run this one at 1,500 nodes (the scaled 15,000-node point).
    let results = Experiment::builder()
        .nodes(1_500)
        .trace(GoogleTraceConfig::with_scale(10, 2_500).generate(11))
        .sweep()
        .scheduler(Hawk::new(GOOGLE_SHORT_PARTITION))
        .scheduler(Hawk::new(GOOGLE_SHORT_PARTITION).without_stealing())
        .scheduler(Hawk::new(GOOGLE_SHORT_PARTITION).without_centralized())
        .run_all();
    let hawk = results.get("hawk", 1_500).unwrap();
    let no_steal = results.get("hawk-wout-stealing", 1_500).unwrap();
    let no_central = results.get("hawk-wout-centralized", 1_500).unwrap();
    // Figure 7's two sharpest findings, at reduced scale: removing
    // stealing hurts short jobs; removing the centralized scheduler hurts
    // long jobs.
    let steal_effect = compare(no_steal, hawk, JobClass::Short);
    assert!(
        steal_effect.p90_ratio.unwrap() > 1.2,
        "no-steal short p90 ratio {:?}",
        steal_effect.p90_ratio
    );
    let central_effect = compare(no_central, hawk, JobClass::Long);
    assert!(
        central_effect.p50_ratio.unwrap() > 1.1,
        "no-central long p50 ratio {:?}",
        central_effect.p50_ratio
    );
}

#[test]
fn motivation_scenario_shows_head_of_line_blocking() {
    // §2.3 at 10× reduction: Sparrow leaves short jobs queued behind
    // 20,000 s tasks; utilization stays high yet shorts run ≫ 100 s.
    let trace = MotivationConfig {
        jobs: 150,
        mean_interarrival: SimDuration::from_secs(333),
        ..Default::default()
    }
    .generate(3);
    let report = Experiment::builder()
        .nodes(1_500)
        .scheduler(Sparrow::new())
        .trace(trace)
        .run();
    let runtimes = report.runtimes(JobClass::Short);
    let blocked = runtimes.iter().filter(|&&r| r > 1_000.0).count();
    assert!(
        blocked as f64 / runtimes.len() as f64 > 0.3,
        "only {blocked}/{} short jobs blocked",
        runtimes.len()
    );
    assert!(report.median_utilization > 0.5);
}

#[test]
fn all_schedulers_complete_every_derived_workload() {
    for cfg in [
        KmeansTraceConfig::cloudera_c(300),
        KmeansTraceConfig::facebook(300),
        KmeansTraceConfig::yahoo(300),
    ] {
        let mut gen = cfg;
        // Speed the arrivals up so the small job count still loads the
        // small cluster.
        gen.mean_interarrival = gen.mean_interarrival * 40;
        let trace = gen.generate(5);
        let jobs = trace.len();
        let results = Experiment::builder()
            .nodes(400)
            .cutoff(Cutoff::from_secs(gen.default_cutoff_secs))
            .trace(trace)
            .sweep()
            .scheduler(Hawk::new(gen.short_partition_fraction.max(0.05)))
            .scheduler(Sparrow::new())
            .scheduler(Centralized::new())
            .run_all();
        for cell in results.iter() {
            assert_eq!(cell.report.results.len(), jobs, "{}", cell.scheduler);
            for r in &cell.report.results {
                assert!(r.completion >= r.submission);
            }
        }
    }
}

#[test]
fn trace_round_trips_through_json() {
    let trace = GoogleTraceConfig::with_scale(100, 50).generate(1);
    let text = trace.to_json_lines();
    let back = Trace::from_json_lines(&text).unwrap();
    assert_eq!(trace, back);
    // And the round-tripped trace simulates identically.
    let base = Experiment::builder().nodes(64).scheduler(Hawk::new(0.17));
    let a = base.clone().trace(trace).run();
    let b = base.trace(back).run();
    assert_eq!(a.results, b.results);
}

#[test]
fn prototype_and_simulator_agree_on_an_idle_cluster() {
    // On an unloaded cluster both should report runtimes ≈ the longest
    // task (scheduling overheads differ, but within tens of milliseconds).
    let sample = hawk::workload::sample::PrototypeSampleConfig {
        short_jobs: 30,
        long_jobs: 3,
        cluster_size: 50,
        duration_divisor: 10_000,
    };
    let trace = sample.generate(9);
    let mut rng = SimRng::seed_from_u64(10);
    // Multiplier 5 = offered load 0.2 on 50 workers: a mostly idle cluster.
    let trace = hawk::workload::sample::arrivals_for_load_multiplier(&trace, 5.0, 50, &mut rng);

    let proto = run_prototype(
        &trace,
        std::sync::Arc::new(Hawk::new(0.17)),
        &ProtoConfig {
            workers: 50,
            cutoff: sample.cutoff(),
            ..ProtoConfig::default()
        },
    );
    let sim = Experiment::builder()
        .nodes(50)
        .cutoff(sample.cutoff())
        .scheduler(Hawk::new(0.17))
        .trace(&trace)
        .run();
    // Pair per-job runtimes; the prototype should track the simulator
    // within messaging overhead for the majority of jobs.
    let mut close = 0;
    for (p, s) in proto.results.iter().zip(&sim.results) {
        let diff = (p.runtime().as_secs_f64() - s.runtime().as_secs_f64()).abs();
        if diff < 0.15 {
            close += 1;
        }
    }
    assert!(
        close * 10 >= trace.len() * 7,
        "only {close}/{} jobs within 150 ms of the simulator",
        trace.len()
    );
}

#[test]
fn misestimation_preserves_true_class_grouping() {
    let base = loaded_google().scheduler(Hawk::new(GOOGLE_SHORT_PARTITION));
    let exact = base.clone().run();
    let fuzzy = base.misestimate(MisestimateRange::symmetric(0.9)).run();
    // True classes are identical across the two runs (they depend only on
    // the trace and cutoff), so the comparison groups stay aligned.
    for (a, b) in exact.results.iter().zip(&fuzzy.results) {
        assert_eq!(a.true_class, b.true_class);
    }
    // And misestimation must actually flip some scheduling decisions.
    let flipped = fuzzy
        .results
        .iter()
        .filter(|r| r.scheduled_class != r.true_class)
        .count();
    assert!(flipped > 0, "0.1-1.9 misestimation flipped no jobs");
}
