//! Tests for the `Experiment` builder / `Sweep` API.
//!
//! The load-bearing property: a parallel [`Sweep::run_all`] is
//! bit-identical to sequential execution of the same cells for every
//! scheduler, cluster size and seed. Plus an extensibility
//! check: a scheduler defined *in this test file*, against the public
//! trait only, runs on the unmodified driver.

use std::sync::Arc;

use proptest::prelude::*;

use hawk::core::Route;
use hawk::prelude::*;
use hawk::workload::motivation::MotivationConfig;

fn arc<S: Scheduler + 'static>(s: S) -> Arc<dyn Scheduler> {
    Arc::new(s)
}

fn arb_scheduler() -> impl Strategy<Value = Arc<dyn Scheduler>> {
    prop_oneof![
        (0.05f64..0.4).prop_map(|f| arc(Hawk::new(f))),
        Just(arc(Sparrow::new())),
        Just(arc(Centralized::new())),
        (0.1f64..0.4).prop_map(|f| arc(SplitCluster::new(f))),
    ]
}

fn arb_trace() -> impl Strategy<Value = Trace> {
    (1usize..30, 1u64..40).prop_map(|(jobs, gap)| {
        MotivationConfig {
            jobs,
            short_tasks: 4,
            long_tasks: 12,
            mean_interarrival: SimDuration::from_secs(gap),
            ..Default::default()
        }
        .generate(jobs as u64 ^ gap)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `Sweep::run_all` (parallel) produces bit-identical reports to
    /// sequential single-cell execution, for the same seeds.
    #[test]
    fn parallel_sweep_matches_sequential(
        trace in arb_trace(),
        scheduler in arb_scheduler(),
        nodes in 4usize..40,
        seed_lo in 0u64..1_000,
    ) {
        let seeds = [seed_lo, seed_lo + 1, seed_lo + 2];
        let sweep = Experiment::builder()
            .nodes(nodes)
            .trace(&trace)
            .scheduler_shared(scheduler)
            .sweep()
            .seeds(seeds)
            .threads(3);
        let parallel = sweep.run_all();
        let sequential = sweep.run_all_sequential();
        prop_assert_eq!(parallel.cells.len(), 3);

        for ((p, s), seed) in parallel.cells.iter().zip(&sequential.cells).zip(seeds) {
            prop_assert_eq!(p.seed, seed);
            // Parallel == sequential, bit for bit.
            prop_assert_eq!(&p.report.results, &s.report.results);
            prop_assert_eq!(p.report.events, s.report.events);
            prop_assert_eq!(p.report.steals, s.report.steals);
            prop_assert_eq!(&p.report.utilization_samples, &s.report.utilization_samples);
        }
    }
}

/// A deliberately quirky scheduler defined outside `hawk-core`: every job
/// is probed at exactly one uniformly random server per task ("blind
/// single probe"). Exercises the driver through nothing but the public
/// trait.
struct BlindSingleProbe;

impl Scheduler for BlindSingleProbe {
    fn name(&self) -> String {
        "blind-single-probe".to_string()
    }

    fn route(&self, _class: JobClass) -> Route {
        Route::Distributed(hawk::core::Scope::Whole)
    }

    fn probe_targets(
        &self,
        view: &PlacementView<'_>,
        tasks: usize,
        rng: &mut SimRng,
        out: &mut Vec<ServerId>,
    ) {
        out.extend((0..tasks).map(|_| view.random_server(rng)));
    }
}

#[test]
fn custom_scheduler_plugs_into_the_unmodified_driver() {
    let trace = MotivationConfig {
        jobs: 40,
        short_tasks: 4,
        long_tasks: 12,
        ..Default::default()
    }
    .generate(5);
    let report = Experiment::builder()
        .nodes(64)
        .scheduler(BlindSingleProbe)
        .trace(trace)
        .run();
    assert_eq!(report.scheduler, "blind-single-probe");
    assert_eq!(report.results.len(), 40);
    for r in &report.results {
        assert!(r.completion >= r.submission);
    }
    // No steal capability declared, so the driver never steals.
    assert_eq!(report.steals, 0);
    assert_eq!(report.steal_attempts, 0);
}

#[test]
fn sweep_scales_across_heterogeneous_policies() {
    let trace = MotivationConfig {
        jobs: 30,
        short_tasks: 4,
        long_tasks: 10,
        ..Default::default()
    }
    .generate(8);
    let results = Experiment::builder()
        .nodes(48)
        .trace(trace)
        .sweep()
        .scheduler(Hawk::new(0.2))
        .scheduler(Sparrow::new())
        .scheduler(BlindSingleProbe)
        .nodes([48, 96])
        .run_all();
    assert_eq!(results.cells.len(), 6);
    for cell in results.iter() {
        assert_eq!(cell.report.results.len(), 30, "{}", cell.scheduler);
    }
    assert!(results.get("blind-single-probe", 96).is_some());
}
