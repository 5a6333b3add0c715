//! Golden determinism digests: the behavioral contract of the engine.
//!
//! Each test runs a small fixed-seed Google-like trace through one of the
//! paper's four schedulers and hashes the *entire* [`MetricsReport`] —
//! per-job results included — into a single 64-bit digest, then compares it
//! against a pinned constant.
//!
//! The pinned digests were produced by the pre-rework engine (binary-heap
//! event queue, linear cluster scans, commit d65d7bf). The indexed-engine
//! rework (timing-wheel event queue, incremental cluster indexes) is
//! required to be *bit-identical* in behavior: any drift — a reordered
//! tie-break, a skipped RNG draw, a changed placement — fails these tests
//! loudly rather than silently shifting every figure.
//!
//! If a future PR changes scheduler behavior *on purpose*, re-pin the
//! constants with `scripts/repin.sh` (it runs the band suites first, then
//! prints every constant of `support/mod.rs` paste-ready), noting the
//! behavioral change next to each moved pin.

use std::sync::Arc;

use hawk_core::scheduler::{Centralized, Hawk, Scheduler, Sparrow, SplitCluster};
use hawk_core::{Experiment, MetricsReport};
use hawk_workload::google::{GoogleTraceConfig, GOOGLE_SHORT_PARTITION};
use hawk_workload::Trace;

mod support;
use support::{
    digest_report, CENTRALIZED_DIGEST, GOLDEN_JOBS, GOLDEN_NODES, HAWK_DIGEST, SIM_SEED,
    SPARROW_DIGEST, SPLIT_CLUSTER_DIGEST, TRACE_SEED,
};

/// A 10x-scaled Google-like workload: large enough to exercise probing,
/// late binding (including cancels), central placement, partitioning and
/// stealing; small enough to run in well under a second per scheduler.
fn golden_trace() -> Arc<Trace> {
    Arc::new(GoogleTraceConfig::with_scale(10, GOLDEN_JOBS).generate(TRACE_SEED))
}

fn run(scheduler: impl Scheduler + 'static) -> MetricsReport {
    Experiment::builder()
        .trace(golden_trace())
        .scheduler(scheduler)
        .nodes(GOLDEN_NODES)
        .seed(SIM_SEED)
        .run()
}

fn check(name: &str, scheduler: impl Scheduler + 'static, pinned: u64) {
    let report = run(scheduler);
    let digest = digest_report(&report);
    if std::env::var_os("HAWK_PRINT_DIGESTS").is_some() {
        println!("pub const {name}: u64 = {digest:#018x};");
    }
    assert_eq!(
        digest, pinned,
        "{name} drifted: got {digest:#018x}, pinned {pinned:#018x} — \
         the engine's behavior changed (see module docs to re-pin intentionally)"
    );
}

#[test]
fn hawk_digest_pinned() {
    check(
        "HAWK_DIGEST",
        Hawk::new(GOOGLE_SHORT_PARTITION),
        HAWK_DIGEST,
    );
}

#[test]
fn sparrow_digest_pinned() {
    check("SPARROW_DIGEST", Sparrow::new(), SPARROW_DIGEST);
}

#[test]
fn centralized_digest_pinned() {
    check("CENTRALIZED_DIGEST", Centralized::new(), CENTRALIZED_DIGEST);
}

#[test]
fn split_cluster_digest_pinned() {
    check(
        "SPLIT_CLUSTER_DIGEST",
        SplitCluster::new(GOOGLE_SHORT_PARTITION),
        SPLIT_CLUSTER_DIGEST,
    );
}

/// The digest function itself is part of the contract: if its
/// serialization changes, every pinned constant silently changes meaning.
/// Freeze it against a tiny synthetic report.
#[test]
fn digest_function_is_stable() {
    use hawk_simcore::SimTime;
    use hawk_workload::{JobClass, JobId};

    let report = MetricsReport {
        scheduler: "probe".to_string(),
        nodes: 7,
        results: vec![hawk_core::JobResult {
            job: JobId(0),
            true_class: JobClass::Short,
            scheduled_class: JobClass::Long,
            submission: SimTime::from_secs(1),
            completion: SimTime::from_secs(3),
            num_tasks: 2,
        }],
        median_utilization: 0.5,
        max_utilization: 1.0,
        utilization_samples: vec![0.5, 1.0],
        makespan: SimTime::from_secs(3),
        events: 11,
        steals: 1,
        steal_attempts: 4,
        steal_scans: 2,
        events_by_kind: [3; hawk_core::Event::KINDS.len()],
        migrations: 0,
        abandons: 0,
        network: hawk_core::NetworkStats::default(),
        sharded: None,
        streaming: hawk_core::StreamingStats::default(),
        admission: hawk_core::AdmissionStats::default(),
    };
    assert_eq!(digest_report(&report), 5542435923394299797);
}

/// Two runs of the same cell are bit-identical (the digests above pin the
/// value; this pins the property, independent of any constant).
#[test]
fn repeated_runs_are_bit_identical() {
    let a = run(Hawk::new(GOOGLE_SHORT_PARTITION));
    let b = run(Hawk::new(GOOGLE_SHORT_PARTITION));
    assert_eq!(digest_report(&a), digest_report(&b));
}
