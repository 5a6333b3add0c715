//! Sim ↔ prototype conformance: the paper's §4.4 cross-check, in-repo.
//!
//! The paper validates its simulator against a real Spark-based prototype
//! by running the same workload through both and checking that the
//! qualitative conclusions match (Figures 16/17). This suite does the
//! same with the two in-repo backends: one policy grid (Hawk + Sparrow),
//! one [`ScenarioSpec`], one seed — executed by the discrete-event
//! [`SimBackend`] and by the prototype's deterministic virtual-clock
//! [`ProtoBackend`], which runs the *same* `Arc<dyn Scheduler>` values on
//! its node daemons.
//!
//! Pinned claims, asserted in **both** backends:
//!
//! 1. under high load (~90 % offered), Hawk beats Sparrow on
//!    90th-percentile short-job runtime by a wide margin (§4.2);
//! 2. centralized long-job placement keeps long-job slowdown bounded —
//!    both absolutely and relative to Sparrow (§4.2, Figure 5b);
//! 3. the backends agree quantitatively within a tolerance band on the
//!    headline percentiles (the Figure 16/17 "simulation matches
//!    implementation" claim);
//! 4. the prototype's virtual mode is byte-deterministic: two consecutive
//!    seeded runs produce identical reports, digest and all;
//! 5. an illegal cell is refused alike: the simulator's two harnesses and
//!    the prototype panic with the same message, and so is a dynamics
//!    script that takes down the whole central scope.

// The shared digest helpers also carry the golden constants used by the
// determinism suites; this binary only needs the digest function (the
// module allows dead_code internally for exactly this reason).
mod support;

use std::sync::Arc;

use hawk_core::scheduler::{Hawk, Sparrow};
use hawk_core::{Backend, Experiment, MetricsReport, Scheduler, SimBackend};
use hawk_proto::ProtoBackend;
use hawk_simcore::stats::percentile_of_sorted;
use hawk_workload::scenario::{ScenarioSpec, TraceFamily};
use hawk_workload::{JobClass, Trace};

use support::{digest_report, SIM_SEED, TRACE_SEED};

/// The conformance cell: a Google-like workload at the paper's ~90 %
/// offered load on a 100-node cluster (scale 150 ⇒ 15,000/150 nodes at
/// the ρ=0.9 calibration anchor).
const NODES: usize = 100;
const JOBS: usize = 400;
const SCALE: u64 = 150;

fn conformance_scenario() -> ScenarioSpec {
    ScenarioSpec::new(TraceFamily::Google { scale: SCALE }, JOBS)
}

fn run_cell(
    trace: &Arc<Trace>,
    scheduler: Arc<dyn Scheduler>,
    backend: &dyn Backend,
) -> MetricsReport {
    Experiment::builder()
        .nodes(NODES)
        .trace(trace)
        .seed(SIM_SEED)
        .scheduler_shared(scheduler)
        .build()
        .run_on(backend)
}

/// p90 of per-long-job slowdown: runtime over the job's ideal perfectly
/// parallel runtime (its longest task).
fn p90_long_slowdown(report: &MetricsReport, trace: &Trace) -> f64 {
    let mut slowdowns: Vec<f64> = report
        .results
        .iter()
        .filter(|r| r.true_class == JobClass::Long)
        .map(|r| {
            let job = trace.job(r.job);
            let ideal = job
                .tasks
                .iter()
                .map(|d| d.as_secs_f64())
                .fold(0.0f64, f64::max);
            r.runtime().as_secs_f64() / ideal.max(1e-9)
        })
        .collect();
    slowdowns.sort_by(|a, b| a.partial_cmp(b).expect("no NaN slowdowns"));
    assert!(!slowdowns.is_empty(), "the scenario must contain long jobs");
    percentile_of_sorted(&slowdowns, 90.0)
}

#[test]
fn policy_grid_holds_the_papers_claims_in_both_backends() {
    let trace = Arc::new(conformance_scenario().trace(TRACE_SEED));
    let sim = SimBackend;
    let proto = ProtoBackend::deterministic();
    let backends: [(&str, &dyn Backend); 2] = [("sim", &sim), ("proto", &proto)];

    for (backend_name, backend) in backends {
        let hawk = run_cell(&trace, Arc::new(Hawk::new(0.17)), backend);
        let sparrow = run_cell(&trace, Arc::new(Sparrow::new()), backend);
        assert_eq!(hawk.results.len(), JOBS, "{backend_name}");
        assert_eq!(sparrow.results.len(), JOBS, "{backend_name}");

        // Claim 1 (§4.2): Hawk wins big on short-job tail latency under
        // high load. The measured ratio is ≈0.25 in both backends; 0.5
        // leaves a wide robustness margin.
        let hawk_short = hawk.summary(JobClass::Short).p90.expect("short jobs");
        let sparrow_short = sparrow.summary(JobClass::Short).p90.expect("short jobs");
        assert!(
            hawk_short < 0.5 * sparrow_short,
            "{backend_name}: Hawk p90 short {hawk_short:.1}s not clearly \
             better than Sparrow {sparrow_short:.1}s"
        );

        // Claim 2 (§4.2, Figure 5b): the centralized long-job placement
        // keeps long jobs bounded — Hawk gives up some long-job latency
        // for its short-job wins (smaller general partition) but stays
        // within 2× of Sparrow (measured ≈1.43×), and the absolute p90
        // slowdown stays moderate on this backlogged cell (measured ≈32).
        let hawk_long = hawk.summary(JobClass::Long).p90.expect("long jobs");
        let sparrow_long = sparrow.summary(JobClass::Long).p90.expect("long jobs");
        assert!(
            hawk_long < 2.0 * sparrow_long,
            "{backend_name}: Hawk p90 long {hawk_long:.1}s vs Sparrow \
             {sparrow_long:.1}s exceeds the 2x bound"
        );
        let slowdown = p90_long_slowdown(&hawk, &trace);
        assert!(
            slowdown < 60.0,
            "{backend_name}: Hawk p90 long-job slowdown {slowdown:.1} unbounded"
        );

        // Hawk's rescue mechanism must actually fire; Sparrow never
        // steals.
        assert!(hawk.steals > 0, "{backend_name}: Hawk never stole");
        assert_eq!(sparrow.steals, 0, "{backend_name}: Sparrow stole");
    }
}

#[test]
fn backends_agree_quantitatively_on_headline_percentiles() {
    // The Figure 16/17 claim: simulation and implementation agree in
    // trend, with the implementation carrying extra messaging hops. The
    // virtual prototype tracks the simulator within 30 % on every
    // headline percentile (measured: ≤6 %).
    let trace = Arc::new(conformance_scenario().trace(TRACE_SEED));
    for scheduler in [
        Arc::new(Hawk::new(0.17)) as Arc<dyn Scheduler>,
        Arc::new(Sparrow::new()) as Arc<dyn Scheduler>,
    ] {
        let name = scheduler.name();
        let sim = run_cell(&trace, Arc::clone(&scheduler), &SimBackend);
        let proto = run_cell(&trace, scheduler, &ProtoBackend::deterministic());
        for class in [JobClass::Short, JobClass::Long] {
            for p in [50.0, 90.0] {
                let s = sim.runtime_percentile(class, p).expect("jobs of class");
                let pr = proto.runtime_percentile(class, p).expect("jobs of class");
                let ratio = pr / s;
                assert!(
                    (0.7..=1.3).contains(&ratio),
                    "{name}/{class:?} p{p}: proto {pr:.2}s vs sim {s:.2}s \
                     (ratio {ratio:.3}) outside the conformance band"
                );
            }
        }
    }
}

#[test]
fn backends_agree_on_a_fat_tree_cell() {
    use hawk_core::{FatTreeParams, TopologySpec};

    // The same conformance cell on a k-ary fat tree instead of the flat
    // constant network: both backends charge every hop through the same
    // `TopologySpec`, so the quantitative band must hold under
    // placement-dependent delays too.
    let trace = Arc::new(conformance_scenario().trace(TRACE_SEED));
    let topology = TopologySpec::FatTree(FatTreeParams::default());
    let build = |scheduler: Arc<dyn Scheduler>| {
        Experiment::builder()
            .nodes(NODES)
            .trace(&trace)
            .seed(SIM_SEED)
            .topology(topology)
            .scheduler_shared(scheduler)
            .build()
    };
    let sim = build(Arc::new(Hawk::new(0.17))).run_on(&SimBackend);
    let proto = build(Arc::new(Hawk::new(0.17))).run_on(&ProtoBackend::deterministic());
    for class in [JobClass::Short, JobClass::Long] {
        for p in [50.0, 90.0] {
            let s = sim.runtime_percentile(class, p).expect("jobs of class");
            let pr = proto.runtime_percentile(class, p).expect("jobs of class");
            let ratio = pr / s;
            assert!(
                (0.7..=1.3).contains(&ratio),
                "fat-tree {class:?} p{p}: proto {pr:.2}s vs sim {s:.2}s \
                 (ratio {ratio:.3}) outside the conformance band"
            );
        }
    }
    // Both backends actually observed topology-classified traffic, and
    // the steal-locality counters fire where stealing exists (Hawk).
    for (name, report) in [("sim", &sim), ("proto", &proto)] {
        assert!(
            report.network.rack_local_msgs > 0 && report.network.cross_rack_msgs > 0,
            "{name}: fat tree classified no traffic: {:?}",
            report.network
        );
        assert!(
            report.network.steal_transfers > 0,
            "{name}: Hawk stole but no transfer was recorded"
        );
    }
}

/// Rack-first stealing is not decorative: under the locality policy the
/// rack-local steal rate must exceed the placement-blind baseline by at
/// least an order of magnitude — in **both** backends, since both route
/// steal transfers through the same [`TopologySpec`]. On this cell
/// (4-host racks, ~83 general servers) a blind thief picks a same-rack
/// victim ~3/82 of the time (~4 %; `latency_topology` measures ~0.4 % on
/// the default 16-host-rack geometry at scale), while the rack-first
/// policy front-loads the contact list with the whole rack block.
#[test]
fn rack_first_stealing_concentrates_steals_in_both_backends() {
    use hawk_core::{FatTreeParams, TopologySpec};

    let trace = Arc::new(conformance_scenario().trace(TRACE_SEED));
    let topology =
        TopologySpec::FatTree(FatTreeParams::default().hosts_per_rack(4).racks_per_pod(2));
    let run = |scheduler: Arc<dyn Scheduler>, backend: &dyn Backend| {
        Experiment::builder()
            .nodes(NODES)
            .trace(&trace)
            .seed(SIM_SEED)
            .topology(topology)
            .scheduler_shared(scheduler)
            .build()
            .run_on(backend)
    };
    let sim = SimBackend;
    let proto = ProtoBackend::deterministic();
    let backends: [(&str, &dyn Backend); 2] = [("sim", &sim), ("proto", &proto)];
    for (backend_name, backend) in backends {
        let blind = run(Arc::new(Hawk::new(0.17)), backend);
        let local = run(Arc::new(Hawk::new(0.17).rack_first_stealing()), backend);
        let blind_rate = blind
            .network
            .rack_local_steal_rate()
            .expect("placement-blind cell never stole");
        let local_rate = local
            .network
            .rack_local_steal_rate()
            .expect("locality cell never stole");
        // Measured on this seed: sim 0.21% blind / 3.2% rack-first,
        // proto 0.41% / 4.9% — ratios ~15x and ~12x.
        assert!(
            local_rate >= 10.0 * blind_rate,
            "{backend_name}: rack-first stealing is not concentrating transfers: \
             rack-local rate {:.1}% vs blind baseline {:.1}% (< 10x)",
            local_rate * 100.0,
            blind_rate * 100.0
        );
        // The locality policy changes victim *order*, not steal efficacy:
        // the rescue mechanism still fires at full strength.
        assert!(
            local.steals > 0,
            "{backend_name}: locality policy never stole"
        );
    }
}

#[test]
fn fault_axis_preserves_the_papers_claims() {
    use hawk_core::SimConfig;
    use hawk_proto::{run_prototype, FaultSpec};
    use hawk_simcore::SimTime;

    // The fault axis of the §4.4 cross-check: the same conformance cell
    // on a hostile network — 1 % drops, duplicates, 2 ms reorder jitter
    // ([`FaultSpec::chaos`]) plus a scripted partition islanding ten
    // workers (hosts 40–49: no scheduler daemons live there) for 100 s
    // mid-run. The hardened protocol must land every job, keep the
    // paper's qualitative claims, and track the *fault-free* simulator
    // within a wider band than the clean 0.7..1.3 one.
    let trace = Arc::new(conformance_scenario().trace(TRACE_SEED));
    let faults = FaultSpec::chaos().partition(
        SimTime::from_secs(100),
        SimTime::from_secs(200),
        (40..50).collect(),
    );
    let cfg = ProtoBackend::deterministic()
        .faults(faults)
        .config_for(&SimConfig {
            nodes: NODES,
            seed: SIM_SEED,
            ..SimConfig::default()
        });
    let hawk = run_prototype(&trace, Arc::new(Hawk::new(0.17)), &cfg);
    let sparrow = run_prototype(&trace, Arc::new(Sparrow::new()), &cfg);

    // Losses and duplicates actually happened and the recovery machinery
    // engaged — yet every job completed.
    assert_eq!(hawk.results.len(), JOBS, "faulty Hawk lost jobs");
    assert_eq!(sparrow.results.len(), JOBS, "faulty Sparrow lost jobs");
    assert!(
        hawk.drops > 0 && hawk.dups > 0,
        "the fault cell was not hostile: {} drops, {} dups",
        hawk.drops,
        hawk.dups
    );
    assert!(
        hawk.retries + hawk.timeouts_fired + hawk.relaunched > 0,
        "recovery machinery never engaged"
    );

    // Byte-deterministic, fault counters included: the exact drop/dup/
    // retry counts are a per-seed invariant.
    let again = run_prototype(&trace, Arc::new(Hawk::new(0.17)), &cfg);
    assert_eq!(
        hawk, again,
        "faulty conformance run diverged across replays"
    );

    // From here on the runs are read as the simulator reads its own.
    let hawk = hawk.into_metrics("hawk".into(), NODES);
    let sparrow = sparrow.into_metrics("sparrow".into(), NODES);

    // Claim 1 under faults: Hawk still clearly wins short-job tails.
    let hawk_short = hawk
        .runtime_percentile(JobClass::Short, 90.0)
        .expect("short jobs");
    let sparrow_short = sparrow
        .runtime_percentile(JobClass::Short, 90.0)
        .expect("short jobs");
    assert!(
        hawk_short < 0.5 * sparrow_short,
        "faulty: Hawk p90 short {hawk_short:.1}s not clearly better than \
         Sparrow {sparrow_short:.1}s"
    );
    // Claim 2 under faults: centralized long placement stays bounded.
    let hawk_long = hawk
        .runtime_percentile(JobClass::Long, 90.0)
        .expect("long jobs");
    let sparrow_long = sparrow
        .runtime_percentile(JobClass::Long, 90.0)
        .expect("long jobs");
    assert!(
        hawk_long < 2.0 * sparrow_long,
        "faulty: Hawk p90 long {hawk_long:.1}s vs Sparrow {sparrow_long:.1}s \
         exceeds the 2x bound"
    );

    // The faulty prototype tracks the fault-free simulator within the
    // documented wider band: timeouts, retries and relaunches add real
    // latency, so the clean 0.7..1.3 conformance band loosens to
    // 0.5..2.0.
    let sim = run_cell(&trace, Arc::new(Hawk::new(0.17)), &SimBackend);
    for class in [JobClass::Short, JobClass::Long] {
        for p in [50.0, 90.0] {
            let s = sim.runtime_percentile(class, p).expect("jobs of class");
            let pr = hawk.runtime_percentile(class, p).expect("jobs of class");
            let ratio = pr / s;
            assert!(
                (0.5..=2.0).contains(&ratio),
                "faulty {class:?} p{p}: proto {pr:.2}s vs fault-free sim \
                 {s:.2}s (ratio {ratio:.3}) outside the fault band"
            );
        }
    }
}

/// The hardened protocol's delivery sequence, pinned: the conformance cell
/// under chaos, a 100 s partition and rolling churn over three general-
/// partition servers (so central relocations, relaunch chains, bind and
/// steal timers all fire), and its clean-network twin on the unhardened
/// path. The pins were captured before the router's event list and the
/// chains' bookkeeping were rebuilt; both are pure speed-ups, so every
/// counter and every job runtime must replay exactly.
#[test]
fn hardened_chaos_cell_replays_the_pinned_delivery_sequence() {
    use hawk_core::SimConfig;
    use hawk_proto::{run_prototype, FaultSpec};
    use hawk_simcore::{SimDuration, SimTime};
    use hawk_workload::scenario::DynamicsScript;
    use support::{print_proto_pins, proto_pin, CLEAN_PROTO_PINS, HARDENED_CHAOS_PINS};

    let trace = Arc::new(conformance_scenario().trace(TRACE_SEED));
    let chaos = FaultSpec::chaos().partition(
        SimTime::from_secs(100),
        SimTime::from_secs(200),
        (40..50).collect(),
    );
    let replayed = [
        ("HARDENED_CHAOS_PINS", chaos, HARDENED_CHAOS_PINS),
        ("CLEAN_PROTO_PINS", FaultSpec::none(), CLEAN_PROTO_PINS),
    ]
    .map(|(name, faults, pins)| {
        let replayed = [0, 1].map(|k| {
            let cfg = ProtoBackend::deterministic()
                .faults(faults.clone())
                .config_for(&SimConfig {
                    nodes: NODES,
                    seed: SIM_SEED + k,
                    dynamics: DynamicsScript::rolling(
                        &[0, 1, 2],
                        SimTime::from_secs(500),
                        SimDuration::from_secs(2_000),
                        SimDuration::from_secs(1_000),
                        6,
                    ),
                    ..SimConfig::default()
                });
            let report = run_prototype(&trace, Arc::new(Hawk::new(0.17)), &cfg);
            assert_eq!(report.results.len(), JOBS);
            proto_pin(&report)
        });
        if std::env::var_os("HAWK_PRINT_DIGESTS").is_some() {
            print_proto_pins(name, &replayed);
        }
        (name, replayed, pins)
    });
    for (name, replayed, pins) in replayed {
        assert_eq!(replayed, pins, "{name} at SIM_SEED and SIM_SEED + 1");
    }
}

/// The serving axis of the §4.4 cross-check: the pinned saturation
/// scenario (bursty overload plateau) under admission control, run
/// through both backends.
///
/// The admission plan is computed from pure pre-run inputs (trace,
/// capacity, cutoff, dynamics, policy), so the two backends must agree
/// on the shed/deferral counters **exactly**, not within a band — any
/// divergence means one backend's gate drifted from the shared plan.
/// The streaming percentiles over admitted jobs then get the usual
/// quantitative conformance band.
#[test]
fn saturation_axis_sheds_exactly_and_streams_within_band() {
    use hawk_workload::google::GOOGLE_SHORT_PARTITION;
    use support::{saturation_policy, saturation_scenario, GOLDEN_JOBS, GOLDEN_NODES};

    let trace = Arc::new(saturation_scenario().trace(TRACE_SEED));
    let build = || {
        Experiment::builder()
            .nodes(GOLDEN_NODES)
            .trace(&trace)
            .seed(SIM_SEED)
            .admission(saturation_policy())
            .scheduler(Hawk::new(GOOGLE_SHORT_PARTITION))
            .build()
    };
    let sim = build().run_on(&SimBackend);
    let proto = build().run_on(&ProtoBackend::deterministic());

    // Exact counter parity, and the cell genuinely overloaded: longs
    // were both deferred and shed, shorts were never shed (protected).
    assert_eq!(
        sim.admission, proto.admission,
        "backends disagree on admission counters"
    );
    assert!(sim.admission.sheds() > 0, "the saturation cell never shed");
    assert!(
        sim.admission.deferrals() > 0,
        "the saturation cell never deferred"
    );
    assert_eq!(sim.admission.sheds_short, 0, "protected shorts were shed");

    // Every job is accounted for in both reports; shed jobs appear as
    // zero-runtime results (completion == submission) in equal numbers.
    for (name, report) in [("sim", &sim), ("proto", &proto)] {
        assert_eq!(report.results.len(), GOLDEN_JOBS, "{name} lost jobs");
        let zero_runtime = report
            .results
            .iter()
            .filter(|r| r.completion == r.submission)
            .count() as u64;
        assert_eq!(
            zero_runtime,
            report.admission.sheds(),
            "{name}: shed bookkeeping does not match zero-runtime results"
        );
        let streamed = report.streaming.short.jobs + report.streaming.long.jobs;
        assert_eq!(
            streamed + report.admission.sheds(),
            GOLDEN_JOBS as u64,
            "{name}: streaming sinks saw the wrong admitted population"
        );
    }

    // Streaming p90s over the admitted jobs track across backends within
    // the standard conformance band.
    for (class, s, pr) in [
        ("short", sim.streaming.short.p90, proto.streaming.short.p90),
        ("long", sim.streaming.long.p90, proto.streaming.long.p90),
    ] {
        let s = s.expect("sim streamed no jobs of class");
        let pr = pr.expect("proto streamed no jobs of class");
        let ratio = pr / s;
        assert!(
            (0.7..=1.3).contains(&ratio),
            "{class} streaming p90: proto {pr:.2}s vs sim {s:.2}s \
             (ratio {ratio:.3}) outside the conformance band"
        );
    }
}

#[test]
fn virtual_prototype_is_byte_deterministic() {
    let trace = Arc::new(conformance_scenario().trace(TRACE_SEED));
    let backend = ProtoBackend::deterministic();
    let first = run_cell(&trace, Arc::new(Hawk::new(0.17)), &backend);
    let second = run_cell(&trace, Arc::new(Hawk::new(0.17)), &backend);
    // Byte-identical: every field of the canonical serialization, not
    // just the headline numbers.
    assert_eq!(
        digest_report(&first),
        digest_report(&second),
        "two seeded virtual-prototype runs diverged"
    );
    assert_eq!(first.results, second.results);
    assert_eq!(first.utilization_samples, second.utilization_samples);

    // And the seed genuinely matters (no accidental constant behaviour).
    let reseeded = Experiment::builder()
        .nodes(NODES)
        .trace(&trace)
        .seed(SIM_SEED + 1)
        .scheduler(Hawk::new(0.17))
        .build()
        .run_on(&backend);
    assert_ne!(digest_report(&first), digest_report(&reseeded));
}

#[test]
fn proto_backend_honours_scenario_dynamics_and_speeds() {
    use hawk_simcore::{SimDuration, SimTime};
    use hawk_workload::scenario::{DynamicsScript, SpeedSpec};

    // A smaller churning, heterogeneous cell: the scenario knobs thread
    // through the prototype workers just like the driver, every job still
    // completes, and migrations are observed in both backends.
    let scenario = ScenarioSpec::new(TraceFamily::Google { scale: 300 }, 120)
        .dynamics(DynamicsScript::rolling(
            &[0, 1, 2],
            SimTime::from_secs(500),
            SimDuration::from_secs(2_000),
            SimDuration::from_secs(1_000),
            6,
        ))
        .speeds(SpeedSpec::TwoTier {
            slow_fraction: 0.25,
            slow_speed: 0.5,
        });
    let trace = Arc::new(scenario.trace(TRACE_SEED));
    let build = || {
        Experiment::builder()
            .nodes(50)
            .trace(&trace)
            .seed(SIM_SEED)
            .dynamics(scenario.dynamics.clone())
            .speeds(scenario.speeds.clone())
            .scheduler(Hawk::new(0.17))
            .build()
    };
    let sim = build().run_on(&SimBackend);
    let proto = build().run_on(&ProtoBackend::deterministic());
    for (name, report) in [("sim", &sim), ("proto", &proto)] {
        assert_eq!(report.results.len(), 120, "{name}");
        assert!(
            report.migrations + report.abandons > 0,
            "{name}: churn produced no relocations"
        );
    }
    // Deterministic under dynamics too.
    let again = build().run_on(&ProtoBackend::deterministic());
    assert_eq!(digest_report(&proto), digest_report(&again));
}

/// Illegal cells, refused alike in every harness: one table of the cell
/// rules `hawk_core::check_cell` enforces, each broken cell run through
/// the single-stream `Driver`, a 2-shard `ShardedDriver` and the virtual
/// prototype. All three must panic at construction with the same message,
/// except that the prototype, which reports no live windows, refuses any
/// cell that sets `live_window` — a zero one included — with its own
/// message, naming the field, before `check_cell` runs.
#[test]
fn every_harness_refuses_an_illegal_cell_with_the_same_message() {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use hawk_cluster::ServerId;
    use hawk_core::scheduler::SplitCluster;
    use hawk_core::{ExperimentBuilder, PlacementView, Route, Scope};
    use hawk_simcore::{SimDuration, SimRng, SimTime};
    use hawk_workload::scenario::DynamicsScript;
    use hawk_workload::{Job, JobId};

    /// Long jobs placed centrally on the general partition, short jobs on
    /// the whole cluster: two scopes for one central scheduler.
    struct TwoCentralScopes;
    impl Scheduler for TwoCentralScopes {
        fn name(&self) -> String {
            "two-central-scopes".into()
        }
        fn route(&self, class: JobClass) -> Route {
            match class {
                JobClass::Long => Route::Central(Scope::General),
                JobClass::Short => Route::Central(Scope::Whole),
            }
        }
        fn probe_targets(
            &self,
            _: &PlacementView<'_>,
            _: usize,
            _: &mut SimRng,
            _: &mut Vec<ServerId>,
        ) {
            unreachable!("no class is probed")
        }
    }

    let job = |id, at, secs| Job {
        id: JobId(id),
        submission: SimTime::from_secs(at),
        tasks: vec![SimDuration::from_secs(secs); 2],
        generated_class: None,
    };
    let trace = Trace::new(vec![job(0, 0, 1), job(1, 1, 2_000)]).unwrap();
    let cell = || {
        Experiment::builder()
            .nodes(4)
            .trace(&trace)
            .scheduler(Sparrow::new())
    };
    let no_live = "the prototype backend reports no live windows; drop `.live_window(..)`";
    // Each rule, its broken cell, and the prototype's message when it is
    // not the simulator's.
    let rules: [(&str, ExperimentBuilder, Option<&str>); 6] = [
        (
            "dynamics script touches server 9",
            cell().dynamics(DynamicsScript::none().down_at(SimTime::from_secs(1), 9)),
            None,
        ),
        (
            "route targets the short partition but none is reserved",
            cell().scheduler(SplitCluster::new(0.0)),
            None,
        ),
        (
            "central routes must share a scope",
            cell().scheduler(TwoCentralScopes),
            None,
        ),
        (
            "centralized route over an empty scope",
            cell().scheduler(Hawk::new(1.0)),
            None,
        ),
        (
            "util_interval",
            cell().util_interval(SimDuration::ZERO),
            None,
        ),
        (
            "live_window must be positive",
            cell().live_window(SimDuration::ZERO),
            Some(no_live),
        ),
    ];
    let proto = ProtoBackend::deterministic();
    type Harness<'a> = (&'a str, usize, &'a dyn Backend);
    let harnesses: [Harness; 3] = [
        ("driver", 1, &SimBackend),
        ("sharded", 2, &SimBackend),
        ("proto", 1, &proto),
    ];
    // What a harness panics with on `builder`'s cell, which breaks `rule`.
    let refusal = |(harness, shards, backend): Harness, rule: &str, builder: &ExperimentBuilder| {
        let cell = builder.clone().shards(shards).build();
        let payload = catch_unwind(AssertUnwindSafe(|| cell.run_on(backend)))
            .expect_err(&format!("{harness} ran a cell breaking `{rule}`"));
        match payload.downcast::<String>() {
            Ok(message) => *message,
            Err(payload) => payload
                .downcast_ref::<&str>()
                .map_or_else(String::new, |message| message.to_string()),
        }
    };
    for (rule, builder, proto_message) in rules {
        let messages = harnesses.map(|harness| refusal(harness, rule, &builder));
        assert!(
            messages[0].contains(rule),
            "driver refused `{rule}` with {:?}",
            messages[0]
        );
        assert_eq!(messages[1], messages[0], "sharded vs driver on `{rule}`");
        assert_eq!(
            messages[2],
            proto_message.unwrap_or(&messages[0]),
            "proto vs driver on `{rule}`"
        );
    }
    // A positive live window runs in the simulator and not on the prototype.
    let live = cell().live_window(SimDuration::from_secs(1));
    assert!(live.clone().build().run().live.is_some());
    assert_eq!(refusal(harnesses[2], "live_window", &live), no_live);
}

/// A dynamics script that takes down every server of the central scope is
/// refused the same way by every harness: the first task that has to move
/// finds no live server to go to, and `CentralScheduler::migrate` panics
/// with one message in the `Driver`, a 2-shard `ShardedDriver` and the
/// virtual prototype (which would otherwise hand the task from one down
/// worker to the other forever).
#[test]
fn every_harness_refuses_a_whole_scope_outage_with_the_same_message() {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use hawk_core::scheduler::Centralized;
    use hawk_simcore::{SimDuration, SimTime};
    use hawk_workload::scenario::DynamicsScript;
    use hawk_workload::{Job, JobId};

    let trace = Trace::new(vec![Job {
        id: JobId(0),
        submission: SimTime::from_secs(2),
        tasks: vec![SimDuration::from_secs(10); 2],
        generated_class: None,
    }])
    .unwrap();
    let dynamics = DynamicsScript::none()
        .down_at(SimTime::from_secs(1), 0)
        .down_at(SimTime::from_secs(1), 1);
    let proto = ProtoBackend::deterministic();
    let harnesses: [(&str, usize, &dyn Backend); 3] = [
        ("driver", 1, &SimBackend),
        ("sharded", 2, &SimBackend),
        ("proto", 1, &proto),
    ];
    for (harness, shards, backend) in harnesses {
        let cell = Experiment::builder()
            .nodes(2)
            .trace(&trace)
            .scheduler(Centralized::new())
            .dynamics(dynamics.clone())
            .shards(shards)
            .build();
        let payload = catch_unwind(AssertUnwindSafe(|| cell.run_on(backend)))
            .expect_err(&format!("{harness} ran a cell with its whole scope down"));
        let message = payload
            .downcast_ref::<&str>()
            .map_or_else(String::new, |message| message.to_string());
        assert!(
            message.contains("central scope has no live servers to migrate a task to"),
            "{harness} refused with {message:?}"
        );
    }
}
