//! Property-based tests over randomly generated workloads and
//! configurations: the simulator must uphold its invariants for *every*
//! input, not just the paper's — in both simulator harnesses: three
//! whole-cell properties draw `shards` from {1, 2, 3, 5}, so a case runs
//! `Driver` or `ShardedDriver` (and, with `nodes` starting at 2, shard
//! counts above the node count, which must clamp), a fourth runs one
//! static cell on all four shard counts and compares the per-kind event
//! counts across the harnesses, and a fifth holds steal accounting on all
//! four shard counts *and* on a fault-free `hawk-proto` virtual run of the
//! same cell (the suite's first prototype leg). The first of the three
//! also runs its cell on `hawk-proto`'s virtual router, under 0–3
//! generated down/up windows (the suite's only churn), and holds every
//! utilization sample in [0, 1] in both runs. A sixth puts a generated
//! `AdmissionPolicy` on the cell, so arrivals are deferred and re-fire and
//! jobs are shed, and holds arrivals = completions + sheds on `Driver`, 2,
//! 3 and 5 cores (admission control is simulator-only) — and, against the
//! `AdmissionPlan` computed from the same inputs, that every harness
//! submits each job at its trace time, completes a deferred one no sooner
//! than its admitted window allows, and leaves exactly the shed jobs out
//! of its streaming summary.
//!
//! A seventh holds every task to exactly one launch under the first
//! property's churn: `events_by_kind[task_finish]` equals the trace's task
//! count on `Driver` and on 2, 3 and 5 cores, and so does the `TaskFinish`
//! count in the deliveries of a fault-free `hawk-proto` virtual run.
//!
//! An eighth runs the cell on the *hardened* `hawk-proto` virtual router
//! under a fault script that eventually heals (ROADMAP 6(2)): drop and
//! duplicate probability 0–5 %, reorder jitter 0–5 ms and 0–2 partition
//! windows that close before the last arrival. Every job completes exactly
//! once, no sooner than its submission, no utilization sample exceeds 1,
//! and a second run is byte-identical. Mutations that fail it (each checked
//! by hand): a distributed scheduler's per-job chain not re-armed after a
//! fire, or the central daemon's (a lost probe or task strands its job and
//! the router runs dry); and a late `TaskDone` of a finished job panicking
//! at either scheduler instead of doing nothing (duplicates reach a freed
//! job slot). One that does not: a victim whose grant went unacked
//! dropping the entries instead of relocating them — the per-job chains
//! re-probe and relaunch what was lost, so every job still completes;
//! `worker::tests::hardened_steal_grant_gives_up_and_relocates` catches it.
//!
//! Nothing enqueues on a down server: `Server::enqueue` debug-asserts that
//! its server is up, and `Cluster` and the prototype `Worker` both enqueue
//! through it, so every churned case checks it in every harness under
//! tier-1's debug profile. For a case to reach it, an entry must be in
//! flight to a server when that server fails, so half of the generated
//! windows go down less than one network hop after a job's submission
//! (`DownAt::InFlight`). A mutation that fails it (checked by hand):
//! removing the down check of `hawk_core::land`, which `Core::on_arrive`
//! and the prototype worker's `on_arrive` both land every arrival with,
//! fails every churned property through the assert. When the check had a
//! copy on each side, removing `Core`'s failed the first and seventh,
//! removing the worker's (on `WorkerMsg::Assign`) the first and seventh,
//! and with the same draws mapped to whole seconds instead neither
//! failed. The assert cannot catch a core that missed its own `NodeDown` (that
//! server's stat word never goes down); only
//! `shard::tests::a_down_server_runs_nothing_whichever_core_owns_it` does.
//!
//! A mutation that fails the first (checked by hand): utilization's usable
//! capacity leaving out the down servers still draining a task
//! (`Cluster::utilization`), so a sample reads above 1.
//!
//! A mutation that fails the seventh (checked by hand): the queues' task
//! arena recycling a slot before its entry leaves the queue
//! (`QueueSlab::push_back` freeing the slot it has just filled, so the
//! next queued task takes it over). It fails at the first case, when a
//! queued task reaches the head of its queue and reads a freed slot.
//!
//! Mutations against the sixth (each checked by hand). Fail it: the
//! harnesses' streamed-arrival test (`protocol::Arrivals::stream`) taking
//! an admission-deferred re-fire for the streamed arrival, so the job after
//! the re-fired one arrives a second time; a shed counted as a completion
//! (`Core::on_job_arrival` running a shed job like an admitted one, so no
//! result has zero runtime); and the streaming fold counting shed jobs
//! (`StreamingStats::from_results`).
//!
//! Mutations of `Core::try_steal` against the fifth (each checked by
//! hand). Fail it: the remote victims of an attempt dropped instead of
//! chained into a `StealRequest` (a core's attempts that stole nothing
//! asked nobody); a steal counted at both ends of a remote transfer
//! (`steals > steal_scans`). Does *not* fail it, or any counter: the draw
//! going on after a successful scan — the thief takes a second group and
//! every count stays in range — which
//! `protocol::tests::a_successful_scan_stops_the_draw` pins instead.
//!
//! Mutations of `crates/core/src/shard.rs` that fail the first four
//! properties (each checked by hand): `Router::send` filing a
//! `StolenArrive` under the sending core — the victim's, not the thief's
//! (a ranged `Cluster` is asked for a server it does not store); and
//! `Endpoint::Central` resolved to the sending core instead of core 0
//! ("central bookkeeping for a centrally-routed job": a `CentralTaskDone`
//! reached a core without the central scheduler). `Router::owns` one
//! server short at the upper range boundary fails them under debug
//! assertions (tier-1's profile: `debug_assert!(net.owns(server))` in
//! `Core::on_arrive`); in release the run stays live and
//! deterministic — the misjudged server is stolen from by request, like a
//! remote one — and only the pinned 4-shard digest in `sharded_golden.rs`
//! moves. One that does *not* fail them, not even the first, whose cells
//! now churn: one core left out when `ShardedDriver::new` seeds the
//! dynamics script. Every job still completes and every sample stays in
//! range; only the first property's 48 cases take seconds instead of
//! milliseconds. `shard::tests::a_down_server_runs_nothing_whichever_core_owns_it`
//! catches it (the core that missed its own server's `NodeDown` runs tasks
//! there).

use std::sync::Arc;

use proptest::prelude::*;

use hawk::core::{AdmissionDecision, AdmissionPlan, AdmissionPolicy};
use hawk::prelude::*;
use hawk::proto::{FaultSpec, MsgKind};
use hawk::workload::scenario::NodeChange;

/// Strategy: a small random trace (jobs with random arrival gaps and task
/// durations), kept small enough that a case simulates in milliseconds.
fn arb_trace() -> impl Strategy<Value = Trace> {
    let job = (0u64..200, proptest::collection::vec(1u64..3_000, 1..12));
    proptest::collection::vec(job, 1..25).prop_map(|jobs| {
        let mut at = 0u64;
        let jobs = jobs
            .into_iter()
            .enumerate()
            .map(|(i, (gap, tasks))| {
                at += gap;
                Job {
                    id: JobId(i as u32),
                    submission: SimTime::from_secs(at),
                    tasks: tasks.into_iter().map(SimDuration::from_secs).collect(),
                    generated_class: None,
                }
            })
            .collect();
        Trace::new(jobs).expect("generated jobs are valid")
    })
}

/// `trace` with every submission mapped by `at` and every task duration
/// by `duration`.
fn retimed(
    trace: &Trace,
    at: impl Fn(SimTime) -> SimTime,
    duration: impl Fn(SimDuration) -> SimDuration,
) -> Trace {
    let jobs = trace
        .jobs()
        .iter()
        .map(|job| Job {
            submission: at(job.submission),
            tasks: job.tasks.iter().map(|&d| duration(d)).collect(),
            ..job.clone()
        })
        .collect();
    Trace::new(jobs).expect("retimed jobs are valid")
}

/// A run stops at its last completion, which `ShardedDriver` sees one
/// message later than `Driver`: whatever is in flight then is counted by
/// one and not the other. A one-task job submitted after every queue has
/// drained makes the last completion a quiet one.
fn with_quiet_last_job(trace: &Trace) -> Trace {
    let last = trace.jobs().last().expect("generated traces are non-empty");
    let quiet = last.submission + trace.total_task_seconds() + SimDuration::from_secs(1_000);
    let mut jobs = trace.jobs().to_vec();
    jobs.push(Job {
        id: JobId(jobs.len() as u32),
        submission: quiet,
        tasks: vec![SimDuration::from_secs(10)],
        generated_class: None,
    });
    Trace::new(jobs).expect("generated jobs are valid")
}

/// The slot of a protocol event kind in `MetricsReport::events_by_kind`.
fn kind(name: &str) -> usize {
    hawk::core::Event::KINDS
        .iter()
        .position(|&kind| kind == name)
        .expect("a protocol event kind")
}

/// Strategy: the harness axis — one shard is `Driver`, more are
/// `ShardedDriver` (clamped to the node count).
fn arb_shards() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(2), Just(3), Just(5)]
}

/// When a drawn window takes its server down: at a whole second, or
/// `micros` after the submission of the trace's `job`-th job (modulo its
/// length). The second kind stays under one network hop (the default
/// network's 500 µs), so a probe or central assignment sent at that
/// submission is in flight to the server when it fails.
#[derive(Clone, Copy, Debug)]
enum DownAt {
    Secs(u64),
    InFlight { job: usize, micros: u64 },
}

/// Strategy: 0–3 down/up windows, each `(server pick, down at, downtime
/// in seconds)`.
fn arb_windows() -> impl Strategy<Value = Vec<(u32, DownAt, u64)>> {
    let down_at = prop_oneof![
        (0u64..5_000).prop_map(DownAt::Secs),
        (0usize..25, 0u64..500).prop_map(|(job, micros)| DownAt::InFlight { job, micros }),
    ];
    proptest::collection::vec((0u32..40, down_at, 1u64..3_000), 0..4)
}

/// `windows` as a dynamics script over general-partition servers other
/// than server 0, so no scope empties.
fn churn(
    scheduler: &dyn Scheduler,
    trace: &Trace,
    nodes: usize,
    windows: Vec<(u32, DownAt, u64)>,
) -> DynamicsScript {
    let general = Partition::new(nodes, scheduler.short_partition_fraction()).general_count();
    let mut dynamics = DynamicsScript::none();
    if general > 1 {
        for (pick, down_at, downtime) in windows {
            let server = 1 + pick % (general as u32 - 1);
            let from = match down_at {
                DownAt::Secs(secs) => SimTime::from_secs(secs),
                DownAt::InFlight { job, micros } => {
                    let submission = trace.jobs()[job % trace.len()].submission;
                    SimTime::from_micros(submission.as_micros() + micros)
                }
            };
            dynamics = dynamics
                .down_at(from, server)
                .up_at(from + SimDuration::from_secs(downtime), server);
        }
    }
    dynamics
}

fn arc<S: Scheduler + 'static>(s: S) -> Arc<dyn Scheduler> {
    Arc::new(s)
}

type SchedulerArm = Box<dyn Strategy<Value = Arc<dyn Scheduler>>>;

/// Every policy arm but probe bouncing. Each is legal on any cell of two
/// nodes or more: `SplitCluster` routes its short jobs to the short
/// partition, so its fraction starts at 0.25, which rounds to one reserved
/// server of two.
fn scheduler_arms() -> Vec<SchedulerArm> {
    use proptest::strategy::boxed;
    vec![
        boxed((0.05f64..0.5).prop_map(|f| arc(Hawk::new(f)))),
        boxed(Just(arc(Sparrow::new()))),
        boxed(Just(arc(Centralized::new()))),
        boxed((0.25f64..0.5).prop_map(|f| arc(SplitCluster::new(f)))),
        boxed((0.05f64..0.5).prop_map(|f| arc(Hawk::new(f).without_centralized()))),
        boxed(Just(arc(Hawk::new(0.17).without_partition()))),
        boxed((0.05f64..0.5).prop_map(|f| arc(Hawk::new(f).without_stealing()))),
        boxed((1usize..30).prop_map(|cap| arc(Hawk::new(0.2).steal_cap(cap)))),
    ]
}

/// Strategy: any of the scheduling policies, as trait objects, probe
/// bouncing (`Hawk::probe_avoidance`) included.
fn arb_scheduler() -> impl Strategy<Value = Arc<dyn Scheduler>> {
    let mut arms = scheduler_arms();
    arms.push(proptest::strategy::boxed(
        (1u8..4).prop_map(|limit| arc(Hawk::new(0.2).probe_avoidance(limit))),
    ));
    proptest::strategy::Union::new(arms)
}

/// Strategy: any policy that never bounces a probe. A bounced probe is
/// re-sent from where it lands, which no other policy does.
fn arb_unbounced_scheduler() -> impl Strategy<Value = Arc<dyn Scheduler>> {
    proptest::strategy::Union::new(scheduler_arms())
}

/// A fault script's drawn parameters: drop and duplicate probabilities,
/// reorder jitter in µs, and partition windows `(first host, hosts, from,
/// length)` with `from` and `length` in thousandths of the trace's span.
type FaultDraw = (f64, f64, u64, Vec<(u32, u32, u64, u64)>);

/// Strategy: a fault script that eventually heals — drop and duplicate
/// probability 0–5 %, reorder jitter 0–5 ms, 0–2 partition windows.
fn arb_faults() -> impl Strategy<Value = FaultDraw> {
    let window = (0u32..40, 1u32..4, 0u64..1_000, 1u64..1_000);
    (
        0.0f64..0.05,
        0.0f64..0.05,
        0u64..5_000,
        proptest::collection::vec(window, 0..3),
    )
}

/// `draw` as a [`FaultSpec`] over `nodes` hosts whose every partition
/// window closes before `trace`'s last arrival: each islands a run of
/// hosts, wrapping around the host range.
fn healing_faults(trace: &Trace, nodes: usize, draw: FaultDraw) -> FaultSpec {
    let (drop, duplicate, jitter, windows) = draw;
    let mut faults = FaultSpec::none()
        .drop_probability(drop)
        .duplicate_probability(duplicate)
        .reorder_jitter(SimDuration::from_micros(jitter));
    let last = trace
        .jobs()
        .last()
        .expect("non-empty")
        .submission
        .as_micros();
    for (first, hosts, from, length) in windows {
        let from = last * from / 1_000;
        let until = (from + (last * length / 1_000).max(1)).min(last);
        if from < until {
            let island = (first..first + hosts).map(|h| h % nodes as u32).collect();
            faults = faults.partition(
                SimTime::from_micros(from),
                SimTime::from_micros(until),
                island,
            );
        }
    }
    faults
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Liveness and sanity under churn, in every harness — the drawn
    /// shard count and a `hawk-proto` virtual run of the same cell: every
    /// job completes, no job finishes before its submission plus its
    /// longest task, the makespan covers the serial bound, and every
    /// utilization sample lies in [0, 1] (running servers never exceed
    /// the usable capacity). The cell takes 0–3 down/up windows over
    /// general-partition servers other than server 0, so no scope empties,
    /// some of them aimed at entries in flight (`DownAt::InFlight`).
    #[test]
    fn every_job_completes_with_sane_runtimes(
        trace in arb_trace(),
        scheduler in arb_scheduler(),
        nodes in 2usize..40,
        seed in 0u64..1_000,
        cutoff_secs in 50u64..2_500,
        shards in arb_shards(),
        windows in arb_windows(),
    ) {
        let cell = Experiment::builder()
            .nodes(nodes)
            .dynamics(churn(&*scheduler, &trace, nodes, windows))
            .scheduler_shared(scheduler)
            .cutoff(Cutoff::from_secs(cutoff_secs))
            .seed(seed)
            .trace(&trace);
        let sane = |report: &MetricsReport, harness: &str| {
            prop_assert_eq!(report.results.len(), trace.len(), "{}", harness);
            for (job, result) in trace.jobs().iter().zip(&report.results) {
                prop_assert_eq!(result.job, job.id);
                prop_assert!(result.completion >= result.submission);
                // A job can never beat its longest task.
                let runtime = result.runtime().as_secs_f64();
                let critical = job.critical_task().as_secs_f64();
                prop_assert!(
                    runtime + 1e-9 >= critical,
                    "{}: job {} ran {runtime}s < critical task {critical}s",
                    harness,
                    job.id
                );
            }
            // Work conservation: nodes × makespan ≥ total task-seconds.
            let capacity = report.makespan.as_secs_f64() * nodes as f64;
            prop_assert!(capacity + 1e-6 >= trace.total_task_seconds().as_secs_f64());
            prop_assert!(
                report.utilization_samples.iter().all(|u| (0.0..=1.0).contains(u)),
                "{}: utilization outside [0, 1]: {:?}",
                harness,
                report.utilization_samples
            );
        };
        sane(&cell.clone().shards(shards).run(), &format!("{shards} shards"));
        sane(&cell.build().run_on(&ProtoBackend::deterministic()), "proto");
    }

    /// Liveness under a fault script that eventually heals, on the
    /// hardened `hawk-proto` virtual router (ROADMAP 6(2)): with drops,
    /// duplicates and reorder jitter throughout and partition windows that
    /// close before the last arrival, every job completes exactly once
    /// and no sooner than it was submitted, no utilization sample exceeds
    /// 1, a thief banks one grant per steal attempt at most, and a second
    /// run of the cell is byte-identical.
    #[test]
    fn every_job_completes_under_faults_that_heal(
        trace in arb_trace(),
        scheduler in arb_scheduler(),
        // Five nodes and up: every drawn split reserves a short server.
        nodes in 5usize..40,
        seed in 0u64..1_000,
        cutoff_secs in 50u64..2_500,
        draw in arb_faults(),
    ) {
        let faults = healing_faults(&trace, nodes, draw);
        let cell = Experiment::builder()
            .nodes(nodes)
            .scheduler_shared(scheduler)
            .cutoff(Cutoff::from_secs(cutoff_secs))
            .seed(seed)
            .trace(&trace)
            .build();
        let cfg = ProtoBackend::deterministic().faults(faults).config_for(cell.sim());
        let run = || run_prototype(cell.trace(), Arc::clone(cell.scheduler()), &cfg);
        let report = run();
        prop_assert_eq!(report.results.len(), trace.len());
        for (job, result) in trace.jobs().iter().zip(&report.results) {
            prop_assert_eq!(result.job, job.id);
            prop_assert!(result.completion >= result.submission);
        }
        prop_assert!(
            report.utilization_samples.iter().all(|&u| u <= 1.0),
            "utilization above 1: {:?}",
            report.utilization_samples
        );
        prop_assert!(
            report.steals <= report.steal_attempts,
            "{} steals over {} attempts",
            report.steals,
            report.steal_attempts
        );
        prop_assert_eq!(format!("{report:?}"), format!("{:?}", run()));
    }

    /// Every task launches exactly once, in every harness, under the first
    /// property's churn: each of the trace's tasks finishes once —
    /// `events_by_kind[task_finish]` is the trace's task count on `Driver`
    /// and on 2, 3 and 5 cores, and so is the `TaskFinish` count in the
    /// deliveries of a fault-free `hawk-proto` virtual run. A relocated
    /// entry, a stolen group and a bind that races a failure all resolve
    /// to one launch.
    #[test]
    fn every_task_launches_exactly_once(
        trace in arb_trace(),
        scheduler in arb_scheduler(),
        nodes in 2usize..40,
        seed in 0u64..1_000,
        windows in arb_windows(),
    ) {
        let cell = Experiment::builder()
            .nodes(nodes)
            .dynamics(churn(&*scheduler, &trace, nodes, windows))
            .scheduler_shared(scheduler)
            .seed(seed)
            .trace(&trace);
        let tasks = trace.total_tasks();
        for shards in [1usize, 2, 3, 5] {
            let report = cell.clone().shards(shards).run();
            prop_assert_eq!(report.events_by_kind[kind("task_finish")], tasks, "{} shards", shards);
        }
        let cell = cell.build();
        let cfg = ProtoBackend::deterministic().config_for(cell.sim());
        let proto = run_prototype(cell.trace(), Arc::clone(cell.scheduler()), &cfg);
        prop_assert_eq!(proto.deliveries[MsgKind::TaskFinish], tasks, "proto");
    }

    /// Bit-level determinism for arbitrary configurations.
    #[test]
    fn identical_seeds_reproduce_identical_reports(
        trace in arb_trace(),
        scheduler in arb_scheduler(),
        nodes in 2usize..32,
        seed in 0u64..1_000,
        shards in arb_shards(),
    ) {
        let cell = Experiment::builder()
            .nodes(nodes)
            .shards(shards)
            .scheduler_shared(scheduler)
            .seed(seed)
            .trace(trace)
            .build();
        let a = cell.run();
        let b = cell.run();
        prop_assert_eq!(a.results, b.results);
        prop_assert_eq!(a.events, b.events);
        prop_assert_eq!(a.steals, b.steals);
        prop_assert_eq!(a.utilization_samples, b.utilization_samples);
    }

    /// Cross-harness event accounting on static cells (no churn, no probe
    /// bounce): a probe binds or is cancelled exactly once and a task
    /// arrives and finishes exactly once wherever its endpoints are
    /// hosted, so five protocol event kinds count the same on `Driver` and
    /// on 2, 3 and 5 cores. The sixth, `bind_request`, is one per
    /// `bind_response` on every sharded run and never occurs on `Driver`,
    /// which on a flat static cell decides a bind as its request leaves.
    /// What `ShardedDriver` adds — steal requests and completion messages
    /// — never occurs on `Driver` either. No bouncing policy: a bounce's
    /// retry server comes from the landing core's probe stream, so the
    /// harnesses retry elsewhere and count different bounces.
    #[test]
    fn protocol_event_counts_agree_across_harnesses(
        trace in arb_trace(),
        scheduler in arb_unbounced_scheduler(),
        nodes in 2usize..40,
        seed in 0u64..1_000,
    ) {
        let cell = Experiment::builder()
            .nodes(nodes)
            .scheduler_shared(scheduler)
            .seed(seed)
            .trace(with_quiet_last_job(&trace));
        let counts = |shards: usize| cell.clone().shards(shards).run().events_by_kind;
        let single = counts(1);
        for added in ["bind_request", "steal_request", "task_done", "central_task_done"] {
            prop_assert_eq!(single[kind(added)], 0, "{} on Driver", added);
        }
        for shards in [2, 3, 5] {
            let sharded = counts(shards);
            prop_assert_eq!(
                sharded[kind("bind_request")],
                sharded[kind("bind_response")],
                "{} shards",
                shards
            );
            for shared in [
                "job_arrival",
                "probe_arrive",
                "task_arrive",
                "bind_response",
                "task_finish",
            ] {
                prop_assert_eq!(
                    sharded[kind(shared)],
                    single[kind(shared)],
                    "{} at {} shards",
                    shared,
                    shards
                );
            }
        }
    }

    /// Steal accounting in every harness — `Driver`, 2, 3 and 5 cores, and
    /// a fault-free `hawk-proto` virtual run of the same cell: a steal
    /// takes an attempt (and, on the simulator harnesses, a scan), an
    /// attempt scans at most `cap` victims, a policy that does not steal
    /// counts nothing, and every job completes exactly once whatever was
    /// stolen from whom. On cores, an attempt that drew every candidate
    /// and stole nothing locally has asked a remote victim.
    #[test]
    fn steal_accounting_holds_in_every_harness(
        trace in arb_trace(),
        nodes in 2usize..40,
        seed in 0u64..1_000,
        policy in 0usize..4,
        short_fraction in 0.05f64..0.5,
        cap in prop_oneof![Just(1usize), Just(3), Just(10), Just(40)],
    ) {
        let (scheduler, cap) = match policy {
            0 => (arc(Hawk::new(short_fraction).steal_cap(cap)), cap as u64),
            // No short partition: every server is a candidate victim, so
            // two cores or more always leave some of them remote.
            1 => (arc(Hawk::new(0.17).without_partition().steal_cap(cap)), cap as u64),
            2 => (arc(Hawk::new(short_fraction).without_stealing()), 0),
            _ => (arc(Sparrow::new()), 0),
        };
        // The quiet last job leaves one server to go idle as the run
        // ends: at most its request is still in flight.
        let trace = with_quiet_last_job(&trace);
        let cell = Experiment::builder()
            .nodes(nodes)
            .scheduler_shared(scheduler)
            .seed(seed)
            .trace(&trace);
        let completes_once = |report: &MetricsReport| {
            report.results.len() == trace.len()
                && report.results.iter().zip(trace.jobs()).all(|(r, job)| r.job == job.id)
        };
        for shards in [1usize, 2, 3, 5] {
            let report = cell.clone().shards(shards).run();
            prop_assert!(completes_once(&report), "{} shards", shards);
            let (steals, scans, attempts) =
                (report.steals, report.steal_scans, report.steal_attempts);
            prop_assert!(
                steals <= scans && scans <= cap * attempts && steals <= attempts,
                "{} shards: {} steals, {} scans, {} attempts at cap {}",
                shards, steals, scans, attempts, cap
            );
            if shards > 1 && policy == 1 && cap as usize >= nodes {
                let requests = report.events_by_kind[kind("steal_request")];
                prop_assert!(
                    requests + 1 >= attempts - steals,
                    "{} shards: {} attempts, {} steals, {} requests",
                    shards, attempts, steals, requests
                );
            }
        }
        let proto = cell.build().run_on(&ProtoBackend::deterministic());
        prop_assert!(completes_once(&proto), "proto");
        prop_assert!(proto.steals <= proto.steal_attempts);
        prop_assert!(cap > 0 || proto.steal_attempts == 0);
    }

    /// Arrivals = completions + sheds, in every simulator harness —
    /// `Driver` and 2, 3 and 5 cores (admission control is simulator-only)
    /// — under an admission policy that defers and sheds: every job
    /// either completes once, no sooner than its longest task allows, or
    /// is shed with a zero runtime, and the shed ones are exactly the
    /// plan's. Against the plan computed from the same inputs, every
    /// result is submitted at its trace submission, a deferred job
    /// completes no sooner than its admitted window plus its longest task,
    /// and the streaming summary counts every job but the shed ones. Every
    /// job's arrival fires once, and once more if it was deferred.
    #[test]
    fn every_arrival_completes_once_or_is_shed(
        trace in arb_trace(),
        scheduler in arb_scheduler(),
        nodes in 2usize..40,
        seed in 0u64..1_000,
        window_secs in 10u64..2_000,
        headroom in 0.05f64..1.0,
        max_defer_windows in 0u32..4,
        protect_short in any::<bool>(),
    ) {
        let admission = AdmissionPolicy {
            window: SimDuration::from_secs(window_secs),
            headroom,
            max_defer_windows,
            protect_short,
        };
        let cell = Experiment::builder()
            .nodes(nodes)
            .scheduler_shared(scheduler)
            .seed(seed)
            .admission(admission)
            .trace(&trace);
        let plan = AdmissionPlan::compute(
            &trace,
            nodes,
            SimConfig::default().cutoff,
            &DynamicsScript::none(),
            admission,
        );
        let balances = |report: &MetricsReport| {
            prop_assert_eq!(report.results.len(), trace.len());
            let mut sheds = 0;
            for (job, result) in trace.jobs().iter().zip(&report.results) {
                prop_assert_eq!(result.job, job.id);
                prop_assert_eq!(result.submission, job.submission);
                if result.runtime() == SimDuration::ZERO {
                    sheds += 1;
                } else {
                    prop_assert!(result.runtime() >= job.critical_task(), "{:?}", result);
                }
                if let AdmissionDecision::Defer { until } = plan.decision(job.id) {
                    prop_assert!(
                        result.completion >= until + job.critical_task(),
                        "deferred to {}: {:?}",
                        until,
                        result
                    );
                }
            }
            prop_assert_eq!(sheds, report.admission.sheds());
            prop_assert_eq!(
                report.streaming.short.jobs + report.streaming.long.jobs,
                trace.len() as u64 - plan.stats().sheds()
            );
        };
        for shards in [1usize, 2, 3, 5] {
            let report = cell.clone().shards(shards).run();
            balances(&report);
            prop_assert_eq!(
                report.events_by_kind[kind("job_arrival")],
                trace.len() as u64 + report.admission.deferrals(),
                "{} shards",
                shards
            );
        }
    }

    /// ROADMAP 8(1), an identity: redundant lifecycle entries are no-ops.
    /// A membership change is a transition, so a `down` of a server that
    /// is already down and an `up` of a server that is already up change
    /// nothing. The first property's churn script gets, beside each drawn
    /// entry, a copy of it (an `up` copied is an up with no down before
    /// it), and 0–2 ups of server 0, which no window touches. Every job's
    /// result must be byte-identical to the clean script's, on `Driver` and
    /// on a fault-free `hawk-proto` virtual run. A mutation that fails it
    /// (checked by hand): `CentralScheduler::fail` without its already-down
    /// guard, which is what the prototype's central daemon called before
    /// the guard moved into it. A repeated down then stacks a second
    /// penalty that the up does not remove, so the daemon never places on
    /// that server again.
    #[test]
    fn redundant_lifecycle_entries_are_no_ops(
        trace in arb_trace(),
        scheduler in arb_scheduler(),
        nodes in 2usize..40,
        seed in 0u64..1_000,
        windows in arb_windows(),
        copies in proptest::collection::vec(any::<bool>(), 6..7),
        ups in proptest::collection::vec(0u64..5_000, 0..3),
    ) {
        let clean = churn(&*scheduler, &trace, nodes, windows);
        let mut noisy = DynamicsScript::none();
        for (i, event) in clean.events().iter().enumerate() {
            let copies = 1 + usize::from(copies[i % copies.len()]);
            for _ in 0..copies {
                noisy = match event.change {
                    NodeChange::Down(server) => noisy.down_at(event.at, server),
                    NodeChange::Up(server) => noisy.up_at(event.at, server),
                };
            }
        }
        for secs in ups {
            noisy = noisy.up_at(SimTime::from_secs(secs), 0);
        }
        let cell = |dynamics: DynamicsScript| {
            Experiment::builder()
                .nodes(nodes)
                .dynamics(dynamics)
                .scheduler_shared(Arc::clone(&scheduler))
                .seed(seed)
                .trace(&trace)
                .build()
        };
        let (clean, noisy) = (cell(clean), cell(noisy));
        prop_assert_eq!(clean.run().results, noisy.run().results, "Driver");
        let proto = ProtoBackend::deterministic();
        prop_assert_eq!(clean.run_on(&proto).results, noisy.run_on(&proto).results, "proto");
    }

    /// ROADMAP 8(1), an identity: the ablation algebra. Hawk with stealing,
    /// the short partition and central placement all taken away is Sparrow,
    /// so its results are byte-identical to `Sparrow::new()`'s, on `Driver`
    /// and on a fault-free `hawk-proto` virtual run, under the first
    /// property's churn. A mutation that fails it (checked by hand):
    /// `Hawk::without_partition` keeping the reserved fraction, so long
    /// probes stay off the short partition that Sparrow's reach.
    #[test]
    fn hawk_without_its_three_components_is_sparrow(
        trace in arb_trace(),
        fraction in 0.05f64..0.5,
        nodes in 2usize..40,
        seed in 0u64..1_000,
        cutoff_secs in 50u64..2_500,
        windows in arb_windows(),
    ) {
        let ablated = Hawk::new(fraction)
            .without_stealing()
            .without_partition()
            .without_centralized();
        let dynamics = churn(&Sparrow::new(), &trace, nodes, windows);
        let cell = |scheduler: Arc<dyn Scheduler>| {
            Experiment::builder()
                .nodes(nodes)
                .dynamics(dynamics.clone())
                .scheduler_shared(scheduler)
                .cutoff(Cutoff::from_secs(cutoff_secs))
                .seed(seed)
                .trace(&trace)
                .build()
        };
        let (hawk, sparrow) = (cell(arc(ablated)), cell(arc(Sparrow::new())));
        prop_assert_eq!(hawk.run().results, sparrow.run().results, "Driver");
        let proto = ProtoBackend::deterministic();
        prop_assert_eq!(hawk.run_on(&proto).results, sparrow.run_on(&proto).results, "proto");
    }

    /// ROADMAP 8(1), an identity: a down/up window that closes before the
    /// first arrival is no window. The trace starts `lead` seconds late and
    /// 1–3 windows over any servers open and close within the lead;
    /// results, steals and steal attempts must be byte-identical to the
    /// same cell without them, on `Driver` and on a fault-free `hawk-proto`
    /// virtual run. On `Driver` this compares the two bind paths: a cell
    /// with a dynamics script sends each bind request as an event, and one
    /// without decides the bind as the request leaves and sends the
    /// response a round trip later. The two agree because requests reach a
    /// job's scheduler in the order they were sent, and because the paths
    /// order a response differently only against a message sent while its
    /// request is in flight and landing on the response's microsecond. With
    /// whole-second submissions and durations, such a message must leave an
    /// even number of one-way delays past a second; every send of the
    /// `arb_scheduler` policies leaves an odd number past one, except a
    /// job's probes and placements at its whole-second arrival, which no
    /// chain of these traces' few hundred binds reaches. It draws no
    /// probe-bouncing policy because a bounced probe is re-sent where it
    /// lands, an even number of delays past a second, onto the bind
    /// responses' grid (`repro ext_probe_avoidance` moved with the
    /// one-event bind). A mutation that fails it (checked by hand): the
    /// one-event path sending its response after one one-way delay instead
    /// of the round trip.
    #[test]
    fn a_window_closed_before_the_first_arrival_is_no_window(
        trace in arb_trace(),
        scheduler in arb_unbounced_scheduler(),
        nodes in 2usize..40,
        seed in 0u64..1_000,
        lead_secs in 1u64..100,
        windows in proptest::collection::vec((0u32..40, 0u64..1_000, 1u64..1_000), 1..4),
    ) {
        let lead = SimDuration::from_secs(lead_secs);
        let trace = retimed(&trace, |at| at + lead, |d| d);
        // Each window opens and closes within the lead: `from` and its
        // length are thousandths of the lead and of what is left of it.
        let mut dynamics = DynamicsScript::none();
        for (pick, from, length) in windows {
            let server = pick % nodes as u32;
            let from = lead.as_micros() * from / 1_000;
            let until = from + ((lead.as_micros() - from) * length / 1_000).max(1);
            dynamics = dynamics
                .down_at(SimTime::from_micros(from), server)
                .up_at(SimTime::from_micros(until), server);
        }
        let cell = |dynamics: DynamicsScript| {
            Experiment::builder()
                .nodes(nodes)
                .dynamics(dynamics)
                .scheduler_shared(Arc::clone(&scheduler))
                .seed(seed)
                .trace(&trace)
                .build()
        };
        let (calm, windowed) = (cell(DynamicsScript::none()), cell(dynamics));
        let outcome = |r: MetricsReport| (r.results, r.steals, r.steal_attempts);
        prop_assert_eq!(outcome(calm.run()), outcome(windowed.run()), "Driver");
        let proto = ProtoBackend::deterministic();
        prop_assert_eq!(
            outcome(calm.run_on(&proto)),
            outcome(windowed.run_on(&proto)),
            "proto"
        );
    }

    /// ROADMAP 8(1), an identity: a flat fat tree is the constant network.
    /// With every link class at the paper's 500 µs and no transmission
    /// time, `FatTree` and `FatTreeContended` charge each message what
    /// `TopologySpec::paper_default()` charges, whatever the drawn rack and
    /// pod sizes, so results, steals and steal attempts must be
    /// byte-identical to it, on `Driver` and on a fault-free `hawk-proto`
    /// virtual run. On `Driver` this also pits the fat trees' two-event
    /// bind against the constant network's one-event bind, which the
    /// whole-second traces keep from tying (see the window identity above).
    /// No bouncing policy, for the window identity's reason. A mutation
    /// that fails it (checked by hand): `Geometry::propagation` charging a
    /// same-host message 0 instead of `rack_local`.
    #[test]
    fn a_flat_fat_tree_is_the_constant_network(
        trace in arb_trace(),
        scheduler in arb_unbounced_scheduler(),
        nodes in 2usize..40,
        seed in 0u64..1_000,
        hosts_per_rack in 1usize..8,
        racks_per_pod in 1usize..4,
    ) {
        let hop = SimDuration::from_micros(500);
        let flat = FatTreeParams {
            hosts_per_rack,
            racks_per_pod,
            rack_local: hop,
            cross_rack: hop,
            cross_pod: hop,
            msg_tx: SimDuration::ZERO,
            ..FatTreeParams::default()
        };
        let cell = |topology: TopologySpec| {
            Experiment::builder()
                .nodes(nodes)
                .topology(topology)
                .scheduler_shared(Arc::clone(&scheduler))
                .seed(seed)
                .trace(&trace)
                .build()
        };
        let outcome = |r: MetricsReport| (r.results, r.steals, r.steal_attempts);
        let proto = ProtoBackend::deterministic();
        let constant = cell(TopologySpec::paper_default());
        let (base, base_proto) = (outcome(constant.run()), outcome(constant.run_on(&proto)));
        for topology in [TopologySpec::FatTree(flat), TopologySpec::FatTreeContended(flat)] {
            let fat = cell(topology);
            prop_assert_eq!(outcome(fat.run()), base.clone(), "Driver, {:?}", topology);
            prop_assert_eq!(
                outcome(fat.run_on(&proto)),
                base_proto.clone(),
                "proto, {:?}",
                topology
            );
        }
    }

    /// ROADMAP 8(1), an identity: time scaling. Multiplying every
    /// submission and task duration, the network's one-way and
    /// steal-transfer delays, the cutoff and `util_interval` by k ∈ {2, 3}
    /// keeps every ordering, tie and class, so every completion is exactly
    /// k times as late, with the same steals and steal attempts, on
    /// `Driver` and on a fault-free `hawk-proto` virtual run. Each case
    /// runs twice: static, where `Driver` takes the one-event bind, and
    /// under 0–3 generated down/up windows whose times are multiplied by k
    /// too, where it takes the two-event bind and drains failed servers'
    /// queues. Mutations that fail it (each checked by hand): the one-event
    /// bind path sending its response at the paper's fixed 1 ms round trip
    /// instead of the cell's own; a task drained off a failed server
    /// migrating a fixed 1 ms instead of one hop (`Core::replace`).
    #[test]
    fn scaling_every_time_by_k_scales_every_completion_by_k(
        trace in arb_trace(),
        scheduler in arb_scheduler(),
        nodes in 2usize..40,
        seed in 0u64..1_000,
        cutoff_secs in 50u64..2_500,
        one_way_micros in 1u64..2_000,
        transfer_micros in prop_oneof![Just(0u64), 1u64..2_000],
        util_secs in 20u64..500,
        windows in arb_windows(),
        churned in any::<bool>(),
    ) {
        let script = if churned {
            churn(&*scheduler, &trace, nodes, windows)
        } else {
            DynamicsScript::none()
        };
        let cell = |k: u64| {
            let mut dynamics = DynamicsScript::none();
            for scripted in script.events() {
                let at = SimTime::from_micros(scripted.at.as_micros() * k);
                dynamics = match scripted.change {
                    NodeChange::Down(server) => dynamics.down_at(at, server),
                    NodeChange::Up(server) => dynamics.up_at(at, server),
                };
            }
            let network = NetworkModel {
                delay: SimDuration::from_micros(one_way_micros * k),
                steal_transfer_delay: SimDuration::from_micros(transfer_micros * k),
            };
            let scaled = retimed(
                &trace,
                |at| SimTime::from_micros(at.as_micros() * k),
                |d| SimDuration::from_micros(d.as_micros() * k),
            );
            Experiment::builder()
                .nodes(nodes)
                .topology(TopologySpec::Constant(network))
                .scheduler_shared(Arc::clone(&scheduler))
                .cutoff(Cutoff::from_secs(cutoff_secs * k))
                .util_interval(SimDuration::from_secs(util_secs * k))
                .dynamics(dynamics)
                .seed(seed)
                .trace(scaled)
                .build()
        };
        let proto = ProtoBackend::deterministic();
        let (base, base_proto) = (cell(1).run(), cell(1).run_on(&proto));
        let outcome = |r: MetricsReport| (r.results, r.steals, r.steal_attempts);
        for k in [2u64, 3] {
            let scaled_by_k = |report: &MetricsReport| {
                let results: Vec<JobResult> = report
                    .results
                    .iter()
                    .map(|r| JobResult {
                        submission: SimTime::from_micros(r.submission.as_micros() * k),
                        completion: SimTime::from_micros(r.completion.as_micros() * k),
                        ..*r
                    })
                    .collect();
                (results, report.steals, report.steal_attempts)
            };
            prop_assert_eq!(outcome(cell(k).run()), scaled_by_k(&base), "Driver, k = {}", k);
            prop_assert_eq!(
                outcome(cell(k).run_on(&proto)),
                scaled_by_k(&base_proto),
                "proto, k = {}",
                k
            );
        }
    }

    /// ROADMAP 8(1), an identity: probe avoidance on a trace with no long
    /// job is plain Hawk. A probe bounces only off a server holding long
    /// work, and with the cutoff above every task no job is long, so no
    /// server ever holds any: every probe lands as plain Hawk's does, and
    /// results, steals and steal attempts are byte-identical, on `Driver`
    /// and on a fault-free `hawk-proto` virtual run, under the first
    /// property's churn. It guards `hawk_core::land`, the one function both
    /// harnesses land an arrival with. A mutation that fails it (checked by
    /// hand): `Hawk::bounce_probe` without its `holds_long_work` term, so a
    /// short probe bounces off any server until the limit.
    #[test]
    fn probe_avoidance_without_long_jobs_is_plain_hawk(
        trace in arb_trace(),
        fraction in 0.05f64..0.5,
        limit in 1u8..4,
        nodes in 2usize..40,
        seed in 0u64..1_000,
        windows in arb_windows(),
    ) {
        let plain = Hawk::new(fraction);
        let dynamics = churn(&plain, &trace, nodes, windows);
        // `arb_trace`'s tasks are shorter than 3,000 s, and so is every mean.
        let cell = |scheduler: Arc<dyn Scheduler>| {
            Experiment::builder()
                .nodes(nodes)
                .dynamics(dynamics.clone())
                .scheduler_shared(scheduler)
                .cutoff(Cutoff::from_secs(3_000))
                .seed(seed)
                .trace(&trace)
                .build()
        };
        let avoiding = cell(arc(plain.probe_avoidance(limit)));
        let plain = cell(arc(plain));
        let outcome = |r: MetricsReport| (r.results, r.steals, r.steal_attempts);
        prop_assert_eq!(outcome(avoiding.run()), outcome(plain.run()), "Driver");
        let proto = ProtoBackend::deterministic();
        prop_assert_eq!(
            outcome(avoiding.run_on(&proto)),
            outcome(plain.run_on(&proto)),
            "proto"
        );
    }

    /// ROADMAP 7(1), an identity: stealing without long jobs is no
    /// stealing. A victim's queue holds a stealable group only behind long
    /// work (Figure 3), and with the cutoff above every task no job is
    /// long, so no steal attempt finds anything: `steals` is 0, and results
    /// are byte-identical to `Hawk::without_stealing`'s, on `Driver` and on
    /// a fault-free `hawk-proto` virtual run, under the first property's
    /// churn. Only results are compared: Hawk's idle servers still make
    /// steal attempts, and the prototype's are messages. A mutation that
    /// fails it (checked by hand): `steal::eligible_run` without its
    /// long-work conditions (no early return, and a walk that starts as if
    /// it had seen a long entry), so a victim gives up its first run of
    /// queued shorts. It fails on the prototype leg, whose victim scans its
    /// own queue on every request; the `Driver` leg fails only if the
    /// steal-candidate bit ignores long work too.
    #[test]
    fn stealing_without_long_jobs_is_no_stealing(
        trace in arb_trace(),
        fraction in 0.05f64..0.5,
        nodes in 2usize..40,
        seed in 0u64..1_000,
        windows in arb_windows(),
    ) {
        let hawk = Hawk::new(fraction);
        let dynamics = churn(&hawk, &trace, nodes, windows);
        // `arb_trace`'s tasks are shorter than 3,000 s, and so is every mean.
        let cell = |scheduler: Arc<dyn Scheduler>| {
            Experiment::builder()
                .nodes(nodes)
                .dynamics(dynamics.clone())
                .scheduler_shared(scheduler)
                .cutoff(Cutoff::from_secs(3_000))
                .seed(seed)
                .trace(&trace)
                .build()
        };
        let (stealing, idle) = (cell(arc(hawk)), cell(arc(hawk.without_stealing())));
        let proto = ProtoBackend::deterministic();
        for (harness, with, without) in [
            ("Driver", stealing.run(), idle.run()),
            ("proto", stealing.run_on(&proto), idle.run_on(&proto)),
        ] {
            prop_assert_eq!(with.steals, 0, "{}", harness);
            prop_assert_eq!(with.results, without.results, "{}", harness);
        }
    }

    /// ROADMAP 7(1), an identity: with every job long, Hawk without a
    /// short partition is the fully centralized scheduler. The cutoff sits
    /// below every task, so every job goes to the central scheduler, whose
    /// scope with nothing reserved is the whole cluster, and no probe is
    /// ever queued for an idle server to steal. Results are byte-identical
    /// to `Centralized`'s, on `Driver` and on a fault-free `hawk-proto`
    /// virtual run, under the first property's churn. Only results are
    /// compared: Hawk's idle servers still make steal attempts, which find
    /// nothing. A mutation that fails it (checked by hand): `Hawk::new(0.17)`
    /// in place of `Hawk::new(0.0)`, which confines long jobs to the
    /// general partition.
    #[test]
    fn hawk_on_long_jobs_without_a_short_partition_is_centralized(
        trace in arb_trace(),
        nodes in 2usize..40,
        seed in 0u64..1_000,
        windows in arb_windows(),
    ) {
        let dynamics = churn(&Centralized::new(), &trace, nodes, windows);
        let cell = |scheduler: Arc<dyn Scheduler>| {
            Experiment::builder()
                .nodes(nodes)
                .dynamics(dynamics.clone())
                .scheduler_shared(scheduler)
                .cutoff(Cutoff(SimDuration::ZERO))
                .seed(seed)
                .trace(&trace)
                .build()
        };
        let hawk = cell(arc(Hawk::new(0.0)));
        let centralized = cell(arc(Centralized::new()));
        prop_assert_eq!(hawk.run().results, centralized.run().results, "Driver");
        let proto = ProtoBackend::deterministic();
        prop_assert_eq!(
            hawk.run_on(&proto).results,
            centralized.run_on(&proto).results,
            "proto"
        );
    }

    /// ROADMAP 8(1), an identity: a speed profile that slows no server is
    /// the uniform one. `SpeedSpec::TwoTier` with no slow servers,
    /// `TwoTier` whose slow tier runs at 1.0 and `PerServer` at 1.0
    /// everywhere each give results, steals and steal attempts
    /// byte-identical to `Uniform`'s, on `Driver` and on a fault-free
    /// `hawk-proto` virtual run, under the first property's churn.
    /// `scenario_golden` checks the same profiles on one static `Driver`
    /// cell. A mutation that fails it (checked by hand):
    /// `SpeedSpec::resolve` marking server `i` slow when its cumulative
    /// quota does not fall (`after >= before`), so a zero fraction slows
    /// every server.
    #[test]
    fn a_speed_profile_that_slows_nothing_is_uniform(
        trace in arb_trace(),
        scheduler in arb_scheduler(),
        nodes in 2usize..40,
        seed in 0u64..1_000,
        windows in arb_windows(),
        slow_speed in 0.25f64..4.0,
        slow_fraction in 0.0f64..1.0,
    ) {
        let dynamics = churn(&*scheduler, &trace, nodes, windows);
        let cell = |speeds: SpeedSpec| {
            Experiment::builder()
                .nodes(nodes)
                .dynamics(dynamics.clone())
                .speeds(speeds)
                .scheduler_shared(Arc::clone(&scheduler))
                .seed(seed)
                .trace(&trace)
                .build()
        };
        let outcome = |r: MetricsReport| (r.results, r.steals, r.steal_attempts);
        let proto = ProtoBackend::deterministic();
        let uniform = cell(SpeedSpec::Uniform);
        let (base, base_proto) = (outcome(uniform.run()), outcome(uniform.run_on(&proto)));
        for speeds in [
            SpeedSpec::TwoTier { slow_fraction: 0.0, slow_speed },
            SpeedSpec::TwoTier { slow_fraction, slow_speed: 1.0 },
            SpeedSpec::PerServer(vec![1.0; nodes]),
        ] {
            let profiled = cell(speeds.clone());
            prop_assert_eq!(outcome(profiled.run()), base.clone(), "Driver, {:?}", speeds);
            prop_assert_eq!(
                outcome(profiled.run_on(&proto)),
                base_proto.clone(),
                "proto, {:?}",
                speeds
            );
        }
    }

    /// Misestimation never breaks liveness and never changes true classes.
    #[test]
    fn misestimation_is_safe(
        trace in arb_trace(),
        nodes in 2usize..32,
        delta in 0.1f64..0.95,
        seed in 0u64..500,
        shards in arb_shards(),
    ) {
        let base = Experiment::builder()
            .nodes(nodes)
            .shards(shards)
            .scheduler(Hawk::new(0.2))
            .seed(seed)
            .trace(trace);
        let exact = base.clone().run();
        let fuzzy = base
            .misestimate(MisestimateRange::symmetric(delta))
            .run();
        prop_assert_eq!(exact.results.len(), fuzzy.results.len());
        for (a, b) in exact.results.iter().zip(&fuzzy.results) {
            prop_assert_eq!(a.true_class, b.true_class);
        }
    }

    /// ROADMAP 8(1), an identity: a misestimation range of [1, 1] is no
    /// misestimation. Every factor drawn is 1 and the estimate stream is
    /// split off the root either way, so every result — the scheduled
    /// class, which the report reads off the run's estimates, included —
    /// and the steal counts are byte-identical, under churn, on `Driver`
    /// and on 2, 3 and 5 cores. There is no prototype leg: `ProtoBackend`
    /// refuses any misestimation range. A mutation that fails it (checked
    /// by hand): `RunInputs::new` splitting the estimate stream off the
    /// root only when a range is set, which moves every core's streams.
    #[test]
    fn an_exact_misestimation_range_is_no_misestimation(
        trace in arb_trace(),
        scheduler in arb_scheduler(),
        nodes in 2usize..40,
        seed in 0u64..1_000,
        shards in arb_shards(),
        windows in arb_windows(),
    ) {
        let base = Experiment::builder()
            .nodes(nodes)
            .shards(shards)
            .dynamics(churn(&*scheduler, &trace, nodes, windows))
            .scheduler_shared(Arc::clone(&scheduler))
            .seed(seed)
            .trace(trace);
        let outcome = |r: MetricsReport| (r.results, r.steals, r.steal_attempts);
        prop_assert_eq!(
            outcome(base.clone().run()),
            outcome(base.misestimate(MisestimateRange::exact()).run()),
            "{} shard(s)",
            shards
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The steal scan only ever takes short entries, takes them as one
    /// consecutive group positioned after a long element, and preserves
    /// everything else in order.
    #[test]
    fn steal_scan_takes_a_consecutive_short_group(
        entries in proptest::collection::vec(any::<bool>(), 0..20),
        running_long in any::<bool>(),
    ) {
        use hawk::cluster::{QueueEntry, QueueSlab, Server, TaskSpec};
        use hawk::cluster::steal::steal_from;

        let mk = |long: bool, id: u32| -> QueueEntry {
            QueueEntry::Task(TaskSpec {
                job: JobId(id),
                duration: SimDuration::from_secs(10),
                estimate: SimDuration::from_secs(10),
                class: if long { JobClass::Long } else { JobClass::Short },
                task: 0,
                attempt: 0,
            })
        };

        let mut queues = QueueSlab::new(1);
        let mut server = Server::default();
        // Occupy the slot first so later entries queue.
        server.enqueue(&mut queues, 0, mk(running_long, 9_999));
        let before: Vec<bool> = entries.clone();
        for (i, long) in entries.iter().enumerate() {
            server.enqueue(&mut queues, 0, mk(*long, i as u32));
        }

        let stolen = steal_from(&mut server, &mut queues, 0);
        prop_assert_eq!(server.check_invariants(&queues, 0), Ok(()));

        // 1. Only short entries are stolen.
        for e in &stolen {
            prop_assert!(e.is_short());
        }
        // 2. The stolen ids form a consecutive index range.
        let ids: Vec<u32> = stolen.iter().map(|e| e.job().0).collect();
        for w in ids.windows(2) {
            prop_assert_eq!(w[1], w[0] + 1);
        }
        // 3. The element preceding the group (or the slot) is long.
        if let Some(&first) = ids.first() {
            if first == 0 {
                prop_assert!(running_long);
            } else {
                prop_assert!(before[first as usize - 1]);
            }
            // 4. The group is maximal: the entry after the last stolen one
            // is long or absent.
            let last = *ids.last().unwrap() as usize;
            if last + 1 < before.len() {
                prop_assert!(before[last + 1]);
            }
        } else {
            // Nothing stolen: either no long anywhere, or no short after
            // the first long element.
            let first_long = if running_long {
                Some(0)
            } else {
                before.iter().position(|&l| l).map(|p| p + 1)
            };
            match first_long {
                None => {}
                Some(start) => {
                    // All entries from `start` (queue positions) onwards,
                    // until the next long, must not contain shorts... i.e.
                    // no short exists after a long anywhere before another
                    // long would terminate an empty group. Simplest check:
                    // no short entry follows the first long element.
                    let from = if running_long { 0 } else { start };
                    prop_assert!(
                        before[from..].iter().all(|&l| l),
                        "shorts remained after a long: {:?}",
                        before
                    );
                }
            }
        }
        // 5. Queue length is conserved.
        prop_assert_eq!(server.queue_len() + stolen.len(), before.len());
    }

    /// Percentiles are monotone in p and bounded by the extremes.
    #[test]
    fn percentiles_are_monotone_and_bounded(
        values in proptest::collection::vec(0.0f64..1e6, 1..100),
        p1 in 0.0f64..100.0,
        p2 in 0.0f64..100.0,
    ) {
        use hawk::simcore::stats::percentile;
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let a = percentile(&values, lo).unwrap();
        let b = percentile(&values, hi).unwrap();
        prop_assert!(a <= b + 1e-9);
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(a >= min - 1e-9 && b <= max + 1e-9);
    }

    /// The centralized scheduler balances any assignment pattern: after
    /// assigning jobs with equal estimates, per-server load differs by at
    /// most one task estimate.
    #[test]
    fn central_scheduler_balances(
        scope in 1usize..50,
        jobs in proptest::collection::vec(1usize..40, 1..20),
        est in 1u64..10_000,
    ) {
        let mut sched = CentralScheduler::new(scope);
        let est = SimDuration::from_secs(est);
        for t in jobs {
            sched.assign_job(t, est);
        }
        let waits: Vec<u64> = (0..scope)
            .map(|i| sched.estimated_wait(hawk::cluster::ServerId(i as u32)).as_micros())
            .collect();
        let spread = waits.iter().max().unwrap() - waits.iter().min().unwrap();
        prop_assert!(spread <= est.as_micros());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1_000))]

    /// The generators draw only legal cells: every `arb_scheduler` policy
    /// passes `check_cell` on every node count a property draws (2 and up).
    #[test]
    fn every_drawn_scheduler_fits_every_drawn_cell(
        scheduler in arb_scheduler(),
        nodes in 2usize..40,
    ) {
        hawk::core::check_cell(
            &*scheduler,
            nodes,
            &DynamicsScript::none(),
            SimConfig::default().util_interval,
        );
    }
}
