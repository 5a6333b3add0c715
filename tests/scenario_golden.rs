//! Scenario-layer golden contract.
//!
//! Two halves:
//!
//! 1. **Equivalence** (property test): a [`ScenarioSpec`] with dynamics
//!    disabled and speed 1.0 everywhere — however those are spelled
//!    (`Uniform`, an all-ones `PerServer` profile, a zero-fraction
//!    `TwoTier`, an explicitly empty script) — must produce digests
//!    byte-identical to the pinned `golden_determinism` constants for all
//!    four schedulers. The scenario layer is pure plumbing until a knob
//!    actually turns.
//! 2. **Churn pin**: one churn + heterogeneous Hawk scenario is pinned to
//!    its own digest, so scenario behavior (failure draining, migration,
//!    revival, speed scaling) can never drift silently either.
//!
//! To re-pin after an intentional behavioral change: `scripts/repin.sh`.

use std::sync::Arc;

use hawk_core::scheduler::{Centralized, Hawk, Scheduler, Sparrow, SplitCluster};
use hawk_core::{AdmissionPolicy, Experiment, FatTreeParams, MetricsReport, TopologySpec};
use hawk_simcore::{SimDuration, SimTime};
use hawk_workload::google::GOOGLE_SHORT_PARTITION;
use hawk_workload::scenario::{DynamicsScript, ScenarioSpec, SpeedSpec};
use proptest::prelude::*;
use proptest::ProptestConfig;

mod support;
use support::{
    churn_scenario, digest_report, golden_scenario, saturation_policy, saturation_scenario,
    CENTRALIZED_DIGEST, CHURN_HETERO_HAWK_DIGEST, FAT_TREE_HAWK_DIGEST, GOLDEN_NODES, HAWK_DIGEST,
    SATURATION_ADMISSION_HAWK_DIGEST, SIM_SEED, SPARROW_DIGEST, SPLIT_CLUSTER_DIGEST, TRACE_SEED,
};

fn run_scenario(scenario: &ScenarioSpec, scheduler: Arc<dyn Scheduler>) -> MetricsReport {
    run_scenario_with(scenario, scheduler, TopologySpec::paper_default())
}

fn run_scenario_with(
    scenario: &ScenarioSpec,
    scheduler: Arc<dyn Scheduler>,
    topology: TopologySpec,
) -> MetricsReport {
    Experiment::builder()
        .scenario(scenario, TRACE_SEED)
        .scheduler_shared(scheduler)
        .nodes(GOLDEN_NODES)
        .seed(SIM_SEED)
        .topology(topology)
        .run()
}

fn scheduler_and_pin(index: usize) -> (Arc<dyn Scheduler>, u64) {
    match index {
        0 => (Arc::new(Hawk::new(GOOGLE_SHORT_PARTITION)), HAWK_DIGEST),
        1 => (Arc::new(Sparrow::new()), SPARROW_DIGEST),
        2 => (Arc::new(Centralized::new()), CENTRALIZED_DIGEST),
        3 => (
            Arc::new(SplitCluster::new(GOOGLE_SHORT_PARTITION)),
            SPLIT_CLUSTER_DIGEST,
        ),
        _ => unreachable!(),
    }
}

/// The distinct spellings of "no dynamics, speed 1.0 everywhere".
fn identity_speeds(variant: usize) -> SpeedSpec {
    match variant {
        0 => SpeedSpec::Uniform,
        1 => SpeedSpec::PerServer(vec![1.0; GOLDEN_NODES]),
        2 => SpeedSpec::TwoTier {
            slow_fraction: 0.0,
            slow_speed: 0.25,
        },
        3 => SpeedSpec::TwoTier {
            slow_fraction: 0.5,
            slow_speed: 1.0,
        },
        _ => unreachable!(),
    }
}

/// One dynamics-off golden cell: must be byte-identical to the classic
/// pinned digest and structurally churn-free.
fn assert_identity_cell(scheduler_index: usize, speed_variant: usize) {
    let (scheduler, pinned) = scheduler_and_pin(scheduler_index);
    let scenario = golden_scenario()
        .speeds(identity_speeds(speed_variant))
        .dynamics(DynamicsScript::none());
    let report = run_scenario(&scenario, scheduler);
    assert_eq!(report.migrations, 0);
    assert_eq!(report.abandons, 0);
    assert_eq!(
        report.network.total_msgs(),
        0,
        "the constant topology is placement-blind and must classify nothing"
    );
    let digest = digest_report(&report);
    assert_eq!(
        digest, pinned,
        "scenario plumbing changed behavior: scheduler {scheduler_index} speeds \
         {speed_variant} got {digest:#018x}, pinned {pinned:#018x}",
    );
}

/// Every (scheduler × identity-speed spelling) cell, exhaustively: a
/// regression in any single combination cannot slip through sampling.
#[test]
fn dynamics_off_grid_matches_pinned_digests_exhaustively() {
    for scheduler_index in 0..4 {
        for speed_variant in 0..4 {
            assert_identity_cell(scheduler_index, speed_variant);
        }
    }
}

proptest! {
    // The exhaustive grid test above is the coverage guarantee; the
    // property form re-samples the same space with proptest's own seeds
    // (and scales via PROPTEST_CASES) as required by the scenario-layer
    // test plan.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Dynamics off + unit speeds ⇒ byte-identical to the classic pinned
    /// digests, regardless of scheduler or how the identity is spelled.
    #[test]
    fn dynamics_off_scenario_matches_pinned_digests(
        scheduler_index in 0usize..4,
        speed_variant in 0usize..4,
    ) {
        assert_identity_cell(scheduler_index, speed_variant);
    }
}

/// The distinct spellings of "admission off": no policy at all, or a
/// policy whose budget can never bind. Every spelling must be
/// byte-identical to the classic pins — the admission seam (and the
/// always-on streaming sinks riding the same report) is pure plumbing
/// until a budget actually binds.
fn identity_admission(variant: usize) -> Option<AdmissionPolicy> {
    match variant {
        0 => None,
        1 => Some(AdmissionPolicy {
            headroom: f64::INFINITY,
            ..AdmissionPolicy::default()
        }),
        2 => Some(AdmissionPolicy {
            window: SimDuration::from_secs(3_600),
            headroom: 1e18,
            max_defer_windows: 0,
            protect_short: false,
        }),
        _ => unreachable!(),
    }
}

/// Serving-mode identity: admission-off spellings across the full
/// four-scheduler grid must reproduce the classic pinned digests, and
/// the new report counters must stay structurally zero. (The streaming
/// sinks are always on — this grid is also the proof they never perturb
/// the digested fields.)
#[test]
fn admission_off_grid_matches_pinned_digests() {
    for scheduler_index in 0..4 {
        for admission_variant in 0..3 {
            let (scheduler, pinned) = scheduler_and_pin(scheduler_index);
            let mut builder = Experiment::builder()
                .scenario(&golden_scenario(), TRACE_SEED)
                .scheduler_shared(scheduler)
                .nodes(GOLDEN_NODES)
                .seed(SIM_SEED);
            if let Some(policy) = identity_admission(admission_variant) {
                builder = builder.admission(policy);
            }
            let report = builder.run();
            assert_eq!(report.admission.sheds(), 0);
            assert_eq!(report.admission.deferrals(), 0);
            let digest = digest_report(&report);
            assert_eq!(
                digest, pinned,
                "admission-off spelling {admission_variant} perturbed scheduler \
                 {scheduler_index}: got {digest:#018x}, pinned {pinned:#018x}",
            );
        }
    }
}

/// The serving-mode pin: the saturation scenario under admission control
/// completes, sheds real work from the overload plateau while the
/// protected short lane stays open, and digests deterministically.
#[test]
fn saturation_admission_digest_pinned() {
    let report = Experiment::builder()
        .scenario(&saturation_scenario(), TRACE_SEED)
        .scheduler(Hawk::new(GOOGLE_SHORT_PARTITION))
        .nodes(GOLDEN_NODES)
        .seed(SIM_SEED)
        .admission(saturation_policy())
        .run();
    assert_eq!(report.results.len(), support::GOLDEN_JOBS);
    assert!(
        report.admission.sheds() > 0,
        "the plateau must overrun the admission budget"
    );
    assert_eq!(
        report.admission.sheds_short, 0,
        "protected shorts must never shed"
    );
    assert!(
        report.admission.deferrals() > 0,
        "overload must defer before it sheds"
    );
    // Streaming sinks exclude shed jobs; exact results include them as
    // zero-runtime completions.
    let shed = report.admission.sheds() as usize;
    let streamed = (report.streaming.short.jobs + report.streaming.long.jobs) as usize;
    assert_eq!(streamed + shed, support::GOLDEN_JOBS);
    let digest = digest_report(&report);
    if std::env::var_os("HAWK_PRINT_DIGESTS").is_some() {
        println!("pub const SATURATION_ADMISSION_HAWK_DIGEST: u64 = {digest:#018x};");
    }
    assert_eq!(
        digest, SATURATION_ADMISSION_HAWK_DIGEST,
        "saturation/admission cell drifted: got {digest:#018x} — see module docs to re-pin"
    );
}

#[test]
fn churn_heterogeneous_digest_pinned() {
    let report = run_scenario(
        &churn_scenario(),
        Arc::new(Hawk::new(GOOGLE_SHORT_PARTITION)),
    );
    assert!(
        report.migrations > 0,
        "rolling churn must actually relocate work"
    );
    let digest = digest_report(&report);
    if std::env::var_os("HAWK_PRINT_DIGESTS").is_some() {
        println!("pub const CHURN_HETERO_HAWK_DIGEST: u64 = {digest:#018x};");
    }
    assert_eq!(
        digest, CHURN_HETERO_HAWK_DIGEST,
        "churn scenario drifted: got {digest:#018x} — see module docs to re-pin intentionally"
    );
}

/// Churn runs are themselves deterministic: the digest pin above is a
/// value, this is the property.
#[test]
fn churn_runs_are_bit_identical() {
    let scenario = churn_scenario();
    let a = run_scenario(&scenario, Arc::new(Hawk::new(GOOGLE_SHORT_PARTITION)));
    let b = run_scenario(&scenario, Arc::new(Hawk::new(GOOGLE_SHORT_PARTITION)));
    assert_eq!(digest_report(&a), digest_report(&b));
    assert_eq!(a.migrations, b.migrations);
    assert_eq!(a.abandons, b.abandons);
}

/// A fat-tree Hawk run is pinned like the flat-network cells: the
/// topology layer itself can never drift silently.
#[test]
fn fat_tree_hawk_digest_pinned() {
    let report = run_scenario_with(
        &golden_scenario(),
        Arc::new(Hawk::new(GOOGLE_SHORT_PARTITION)),
        TopologySpec::FatTree(FatTreeParams::default()),
    );
    // The topology actually classified traffic: a 300-node cell spans
    // multiple racks and pods under the default geometry.
    assert!(report.network.rack_local_msgs > 0);
    assert!(report.network.cross_rack_msgs > 0);
    assert!(report.network.cross_pod_msgs > 0);
    let digest = digest_report(&report);
    if std::env::var_os("HAWK_PRINT_DIGESTS").is_some() {
        println!("pub const FAT_TREE_HAWK_DIGEST: u64 = {digest:#018x};");
    }
    assert_ne!(
        digest, HAWK_DIGEST,
        "a fat tree must actually perturb message timing"
    );
    assert_eq!(
        digest, FAT_TREE_HAWK_DIGEST,
        "fat-tree run drifted: got {digest:#018x} — see module docs to re-pin intentionally"
    );
}

/// Turning a knob must actually change behavior (guards against the
/// scenario layer silently not being wired through).
#[test]
fn churn_and_speeds_change_the_digest() {
    let hawk = || -> Arc<dyn Scheduler> { Arc::new(Hawk::new(GOOGLE_SHORT_PARTITION)) };
    let static_digest = digest_report(&run_scenario(&golden_scenario(), hawk()));
    assert_eq!(static_digest, HAWK_DIGEST);

    let slow = golden_scenario().speeds(SpeedSpec::TwoTier {
        slow_fraction: 0.25,
        slow_speed: 0.5,
    });
    assert_ne!(
        digest_report(&run_scenario(&slow, hawk())),
        static_digest,
        "heterogeneous speeds must perturb the run"
    );

    let churn = golden_scenario().dynamics(DynamicsScript::rolling(
        &[0, 10, 20],
        SimTime::from_secs(500),
        SimDuration::from_secs(400),
        SimDuration::from_secs(250),
        12,
    ));
    assert_ne!(
        digest_report(&run_scenario(&churn, hawk())),
        static_digest,
        "churn must perturb the run"
    );
}
