//! The traced run: where one cell's wall-clock goes, layer by layer.
//!
//! Two kinds of number come out of it, both taken from this file's side of
//! each crate's public API (spans inside the layers are a later change):
//!
//! * **spans** around the calls a cell is made of — driver construction,
//!   the event loop in chunks, the report — plus the workload's own
//!   counters read from its report;
//! * **layer replays**: a layer's public functions driven directly with an
//!   operation mix sized from those counters, timed as a batch, giving a
//!   unit cost per operation. `count x unit cost` shares of the event loop
//!   are *computed*, not measured, and are labelled so.
//!
//! The end-to-end metrics never come from here; `trace.overhead_share`
//! relates this run's spans to an untraced run of the same cell.

use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;

use hawk_cluster::{
    Cluster, NetworkModel, Partition, QueueEntry, ServerId, StealGranularity, TaskSpec,
};
use hawk_core::scheduler::Scheduler;
use hawk_core::{
    AdmissionPlan, CentralScheduler, Driver, Endpoint, MetricsReport, ProbePlanner, Route, Scope,
    ShardedDriver, SimConfig, StealPolicy,
};
use hawk_proto::{run_prototype, FaultSpec};
use hawk_simcore::{Engine, SimDuration, SimRng, SimTime};
use hawk_workload::arrivals::SaturationArrivals;
use hawk_workload::scenario::retime;
use hawk_workload::{JobClass, JobId, Trace};

use crate::alloc::Window;
use crate::metrics::LayerValues;
use crate::run::{timed_repeat, timed_setups, Effort, Gate, Outcome};
use crate::spans::Tracer;
use crate::stats::median;
use crate::workloads::{
    check_repeat, google_config, proto_trace, split_proto, Kind, Prepared, ProtoCounters, Workload,
    SERVING_CALM_MEAN, SERVING_OVERLOAD, SHARD_WORKERS, TRACE_SEED,
};

/// Events per `Driver::step_events` call in the traced event loop: coarse
/// enough that a span's two clock reads vanish against the chunk, fine
/// enough that the trace file shows ns/event over the course of the run.
const LOOP_CHUNK_EVENTS: u64 = 1 << 20;

/// Untraced timed repeats the traced run makes for its overhead base.
const BASE_REPEATS: usize = 2;

/// Operations per layer replay: enough that the batch takes tens of
/// milliseconds, so one pair of clock reads times it well.
const REPLAY_OPS: usize = 1 << 20;

/// Replays index pre-drawn inputs through a power-of-two ring, keeping the
/// random draws out of the timed loops.
const RING: usize = 1 << 12;

/// The traced cell: the report plus the three phase durations.
struct Phases {
    report: MetricsReport,
    proto: Option<ProtoCounters>,
    construct_s: f64,
    loop_s: f64,
    report_s: f64,
    allocs: u64,
    cpu_s: f64,
}

pub fn run_traced(workload: &Workload, effort: &Effort, seed: u64, tracer: &mut Tracer) -> Outcome {
    let mut values = LayerValues::new();

    let setup = tracer.enter("setup");
    let (prepared, setup_times) = timed_setups(
        workload,
        &Effort {
            setups: 1,
            max_setups: 1,
            ..*effort
        },
        seed,
    );
    tracer.exit(setup);
    let setup_s = setup_times[0];
    let trace = Arc::clone(prepared.trace());

    // The untraced base for `trace.overhead_share`: warm-up, then timed
    // repeats exactly as the untraced run makes them.
    let mut gate = Gate::new(&trace);
    drop(prepared.run());
    let mut base_walls = Vec::new();
    for index in 0..BASE_REPEATS {
        let repeat = timed_repeat(&prepared);
        gate.admit(index, &repeat.facts);
        base_walls.push(repeat.wall_s);
    }
    let base_wall_s = median(&base_walls);

    let cell = tracer.enter("cell");
    let phases = match &prepared {
        Prepared::Sim { cell, workers } if cell.sim().shards > 1 => {
            traced_sharded(&trace, cell.scheduler(), cell.sim(), *workers, tracer)
        }
        Prepared::Sim { cell, .. } => {
            traced_single_stream(&trace, cell.scheduler(), cell.sim(), tracer)
        }
        Prepared::Proto { scheduler, cfg, .. } => {
            let window = Window::open();
            let (report, run_s) = tracer.time("proto.run_prototype", || {
                run_prototype(&trace, Arc::clone(scheduler), cfg)
            });
            let allocs = window.calls();
            let (report, proto) = split_proto(report, scheduler.name(), cfg.workers);
            Phases {
                report,
                proto,
                construct_s: 0.0,
                loop_s: run_s,
                report_s: 0.0,
                allocs,
                cpu_s: 0.0,
            }
        }
    };
    tracer.exit(cell);
    let facts = check_repeat(&phases.report, &trace, phases.proto.is_some());
    gate.admit(BASE_REPEATS, &facts);

    let report = &phases.report;
    let tasks = facts.tasks.max(1) as f64;
    let traced_wall_s = phases.construct_s + phases.loop_s + phases.report_s;
    values.set("trace.cell_s", traced_wall_s);
    values.set("trace.base_wall_s", base_wall_s);
    values.set(
        "trace.overhead_share",
        (traced_wall_s - base_wall_s) / base_wall_s,
    );
    values.set("core.allocs_per_run", phases.allocs as f64);

    // Counters every backend reports.
    values.set("cluster.steals", report.steals as f64);
    values.set("cluster.steal_attempts", report.steal_attempts as f64);
    values.set(
        "cluster.steal_success_ratio",
        ratio(report.steals as f64, report.steal_attempts as f64),
    );
    values.set("cluster.migrations", report.migrations as f64);
    values.set("cluster.abandons", report.abandons as f64);
    values.set("net.msgs", report.network.total_msgs() as f64);
    values.set(
        "net.rack_local_steal_rate",
        report.network.rack_local_steal_rate().unwrap_or(0.0),
    );
    values.set("core.admission_sheds", report.admission.sheds() as f64);
    values.set(
        "core.admission_deferrals",
        report.admission.deferrals() as f64,
    );
    values.set(
        "core.shed_share",
        ratio(report.admission.sheds() as f64, trace.len() as f64),
    );

    let replay = tracer.enter("replay");
    let trace_gen = |tracer: &mut Tracer, generate: &dyn Fn() -> Trace| {
        median_of(3, || tracer.time("workload.trace_gen", generate).1)
    };
    match (&prepared, phases.proto) {
        (Prepared::Proto { scheduler, .. }, Some(counters)) => {
            values.note_seconds("proto.run_s", phases.loop_s);
            values.set("proto.messages", report.events as f64);
            values.set(
                "proto.ns_per_message",
                ratio(phases.loop_s * 1e9, report.events as f64),
            );
            values.set("proto.drops", counters.drops as f64);
            values.set("proto.dups", counters.dups as f64);
            values.set("proto.retries", counters.retries as f64);
            values.set("proto.timeouts_fired", counters.timeouts_fired as f64);
            values.set("proto.relaunched", counters.relaunched as f64);
            values.set("proto.relaunch_ratio", counters.relaunched as f64 / tasks);

            // The same cell on a clean network: the historical no-timer
            // path, the same layer used differently.
            let clean_cfg = workload.proto_config(seed, FaultSpec::none());
            let (clean, clean_s) = tracer.time("proto.clean_run", || {
                run_prototype(&trace, Arc::clone(scheduler), &clean_cfg)
            });
            let (clean, _) = split_proto(clean, scheduler.name(), clean_cfg.workers);
            gate.admit_other("clean run", &check_repeat(&clean, &trace, true));
            values.note_seconds("proto.clean_run_s", clean_s);
            values.set("proto.fault_overhead", ratio(phases.loop_s, clean_s));

            // The central daemon keeps a shadow `Cluster` of this size.
            let (nodes, short_fraction) = (workload.nodes, scheduler.short_partition_fraction());
            let build_s = median_of(3, || {
                tracer
                    .time("cluster.build", || Cluster::new(nodes, short_fraction))
                    .1
            });
            values.set("cluster.build_s", build_s);

            let jobs = trace.len();
            values.set(
                "workload.trace_gen_s",
                trace_gen(tracer, &|| proto_trace(jobs)),
            );
        }
        (Prepared::Sim { cell, workers }, _) => {
            values.set("simcore.events", report.events as f64);
            values.set("simcore.events_per_task", report.events as f64 / tasks);
            values.note_seconds("core.driver_construct_s", phases.construct_s);
            values.note_seconds("core.event_loop_s", phases.loop_s);
            values.note_seconds("core.report_s", phases.report_s);
            values.set("core.construct_share", phases.construct_s / traced_wall_s);
            values.set("core.report_share", phases.report_s / traced_wall_s);
            values.set(
                "core.host_ns_per_event",
                ratio(phases.loop_s * 1e9, report.events as f64),
            );

            if let Some(stats) = report.sharded {
                values.set("core.shard_epochs", stats.epochs as f64);
                values.set("core.shard_merge_envelopes", stats.merge_envelopes as f64);
                values.set(
                    "core.shard_envelopes_per_epoch",
                    ratio(stats.merge_envelopes as f64, stats.epochs as f64),
                );
                values.set(
                    "core.shard_cpu_over_wall",
                    ratio(phases.cpu_s, traced_wall_s),
                );
                sharded_comparisons(
                    &trace,
                    cell.scheduler(),
                    cell.sim(),
                    (*workers, traced_wall_s, report.events),
                    tracer,
                    &mut gate,
                    &mut values,
                );
            }

            let jobs = trace.len();
            let nodes = workload.nodes;
            let generate = || google_config(nodes, jobs).generate(TRACE_SEED);
            let gen_s = match workload.kind {
                // The serving trace is the scale-3 family, then retimed.
                Kind::HawkServing => {
                    let family = || {
                        hawk_workload::scenario::TraceFamily::Google { scale: 3 }
                            .generate(jobs, TRACE_SEED)
                    };
                    let base = family();
                    let retime_s = median_of(3, || {
                        let mut rng = SimRng::seed_from_u64(TRACE_SEED);
                        let mut ramp = SaturationArrivals::new(
                            SERVING_CALM_MEAN,
                            SERVING_OVERLOAD,
                            base.len(),
                        );
                        tracer
                            .time("workload.retime", || retime(&base, &mut ramp, &mut rng))
                            .1
                    });
                    values.note_seconds("workload.retime_s", retime_s);
                    values.set("workload.retime_share", retime_s / setup_s);
                    trace_gen(tracer, &family)
                }
                _ => trace_gen(tracer, &generate),
            };
            values.set("workload.trace_gen_s", gen_s);

            let replays = Replays {
                trace: &trace,
                scheduler: cell.scheduler().as_ref(),
                sim: cell.sim(),
                report,
                tasks: facts.tasks,
                rack_first: workload.kind == Kind::HawkSharded,
                cell_s: traced_wall_s,
            };
            let computed_s = replays.run(tracer, &mut values);
            values.set(
                "core.driver_self_share",
                1.0 - ratio(computed_s, phases.loop_s),
            );
        }
        (Prepared::Proto { .. }, None) => unreachable!("a prototype run reports its counters"),
    }
    tracer.exit(replay);

    Outcome {
        metrics: values.measured(),
        attempted: gate.attempted,
        failed: gate.failed,
        violations: gate.violations,
        digest: facts.digest,
        walls: Vec::new(),
        raw_walls: base_walls,
        notes: values.into_notes(),
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

fn median_of(n: usize, mut sample: impl FnMut() -> f64) -> f64 {
    let samples: Vec<f64> = (0..n).map(|_| sample()).collect();
    median(&samples)
}

/// The single-stream cell, phase by phase: exactly the calls
/// `Experiment::run_with_workers` makes, with the event loop stepped in
/// chunks so each chunk is a span.
fn traced_single_stream(
    trace: &Trace,
    scheduler: &Arc<dyn Scheduler>,
    sim: &SimConfig,
    tracer: &mut Tracer,
) -> Phases {
    let window = Window::open();
    let (mut driver, construct_s) = tracer.time("core.driver_construct", || {
        Driver::with_scheduler(trace, Arc::clone(scheduler), sim)
    });
    let event_loop = tracer.enter("core.event_loop");
    loop {
        let chunk = tracer.enter("core.event_loop.chunk");
        let ran = driver.step_events(LOOP_CHUNK_EVENTS);
        tracer.exit(chunk);
        if ran < LOOP_CHUNK_EVENTS {
            break;
        }
    }
    let loop_s = tracer.exit(event_loop);
    // Every job is complete, so `run` only assembles the report; the two
    // summaries are the reads every figure makes of it.
    let (report, report_s) = tracer.time("core.report", || {
        let report = driver.run();
        black_box(report.summary(JobClass::Short));
        black_box(report.summary(JobClass::Long));
        report
    });
    Phases {
        report,
        proto: None,
        construct_s,
        loop_s,
        report_s,
        allocs: window.calls(),
        cpu_s: 0.0,
    }
}

/// The sharded cell. `ShardedDriver::run` owns its loop and its report
/// merge, so from outside the loop and the merge are one span.
fn traced_sharded(
    trace: &Trace,
    scheduler: &Arc<dyn Scheduler>,
    sim: &SimConfig,
    workers: usize,
    tracer: &mut Tracer,
) -> Phases {
    let window = Window::open();
    let cpu_before = process_cpu_seconds();
    let (driver, construct_s) = tracer.time("core.driver_construct", || {
        ShardedDriver::new(trace, Arc::clone(scheduler), sim).with_workers(workers)
    });
    let (report, loop_s) = tracer.time("core.event_loop", || driver.run());
    let (_, report_s) = tracer.time("core.report", || {
        black_box(report.summary(JobClass::Short));
        black_box(report.summary(JobClass::Long));
    });
    let cpu_s = process_cpu_seconds() - cpu_before;
    Phases {
        report,
        proto: None,
        construct_s,
        loop_s,
        report_s,
        allocs: window.calls(),
        cpu_s,
    }
}

/// The sharded cell run the two other ways the repository can run it: on
/// one worker, and unsharded on the single-stream driver.
fn sharded_comparisons(
    trace: &Trace,
    scheduler: &Arc<dyn Scheduler>,
    sim: &SimConfig,
    (workers, sharded_wall_s, sharded_events): (usize, f64, u64),
    tracer: &mut Tracer,
    gate: &mut Gate,
    values: &mut LayerValues,
) {
    debug_assert_eq!(workers, SHARD_WORKERS);
    let (one_worker, w1_wall_s) = tracer.time("core.shard_w1", || {
        ShardedDriver::new(trace, Arc::clone(scheduler), sim)
            .with_workers(1)
            .run()
    });
    // Worker-count invariance is a pinned contract: same digest or the
    // repeat fails.
    gate.admit(BASE_REPEATS + 1, &check_repeat(&one_worker, trace, false));
    values.note_seconds("core.shard_w1_wall_s", w1_wall_s);
    values.set(
        "core.shard_speedup_w2_over_w1",
        ratio(w1_wall_s, sharded_wall_s),
    );

    let single_sim = SimConfig {
        shards: 1,
        ..sim.clone()
    };
    let (single, single_wall_s) = tracer.time("core.single_stream", || {
        Driver::with_scheduler(trace, Arc::clone(scheduler), &single_sim).run()
    });
    // A different shard count is a different (equally valid) run: checked
    // on its own, not against the sharded digest.
    gate.admit_other("single-stream run", &check_repeat(&single, trace, false));
    values.set(
        "core.shard_event_inflation",
        ratio(sharded_events as f64, single.events as f64),
    );
    values.set(
        "core.shard_vs_single_wall",
        ratio(sharded_wall_s, single_wall_s),
    );
}

/// Process CPU seconds (user + system, all threads) from `/proc/self/stat`,
/// zero where that file does not exist. Linux reports these in `USER_HZ`
/// ticks, which is 100 on every supported architecture.
fn process_cpu_seconds() -> f64 {
    const USER_HZ: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may hold spaces; fields resume after its
    // closing parenthesis with field 3. utime and stime are fields 14, 15.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let ticks: f64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|field| field.parse::<f64>().ok())
        .sum();
    ticks / USER_HZ
}

/// Inputs of the simulator-layer replays.
struct Replays<'a> {
    trace: &'a Trace,
    scheduler: &'a dyn Scheduler,
    sim: &'a SimConfig,
    report: &'a MetricsReport,
    tasks: u64,
    rack_first: bool,
    /// Wall seconds of the traced cell, the base of the phase shares.
    cell_s: f64,
}

impl Replays<'_> {
    /// Runs every replay, records the unit costs and returns the *computed*
    /// seconds of the event loop they account for: the sum over layers of
    /// `count in the workload's report x replayed unit cost`.
    fn run(&self, tracer: &mut Tracer, values: &mut LayerValues) -> f64 {
        let nodes = self.sim.nodes;
        let report = self.report;
        let short_fraction = self.scheduler.short_partition_fraction();
        let partition = Partition::new(nodes, short_fraction);
        let mut rng = SimRng::seed_from_u64(self.sim.seed ^ 0x9E37_79B9_7F4A_7C15);

        // How the policy places each class, and how much work that makes.
        let cutoff = self.sim.cutoff;
        let (mut central_tasks, mut probed_tasks) = (0u64, 0u64);
        for job in self.trace.jobs() {
            let class = cutoff.classify(job.mean_task_duration());
            match self.scheduler.route(class) {
                Route::Central(_) => central_tasks += job.num_tasks() as u64,
                Route::Distributed(_) => probed_tasks += job.num_tasks() as u64,
            }
        }
        let probes = ProbePlanner::default().probes_for(probed_tasks as usize) as u64;
        // Everything that is neither a job arrival nor a task finish is a
        // message landing somewhere.
        let msgs = report
            .events
            .saturating_sub(self.tasks + self.trace.len() as u64);

        let mut computed_s = 0.0;

        // simcore: the future-event list at this workload's population.
        let engine_ns = self.engine(tracer, &mut rng);
        values.set("simcore.engine_ns_per_event", engine_ns);
        computed_s += report.events as f64 * engine_ns / 1e9;

        // cluster: construction at this node count…
        let build_cluster = || {
            let mut cluster = match self.sim.speeds.resolve(nodes) {
                Some(speeds) => Cluster::with_speeds(nodes, short_fraction, &speeds),
                None => Cluster::new(nodes, short_fraction),
            };
            cluster.reserve_queue_nodes(self.trace.total_tasks() as usize * 3 + self.trace.len());
            cluster
        };
        let build_s = median_of(3, || tracer.time("cluster.build", build_cluster).1);
        values.set("cluster.build_s", build_s);

        // …the queue/slot state machine per task…
        let central_share = ratio(central_tasks as f64, (central_tasks + probed_tasks) as f64);
        let cycle_ns = task_cycle(build_cluster(), central_share, tracer, &mut rng);
        values.set("cluster.task_cycle_ns", cycle_ns);
        computed_s += self.tasks as f64 * cycle_ns / 1e9;

        // …and the steal scan, if this policy steals at all.
        if let Some(steal) = self.scheduler.steal() {
            let scan_ns = steal_scan(build_cluster(), steal.granularity, tracer, &mut rng);
            values.set("cluster.steal_scan_ns", scan_ns);
            let victims_ns = pick_victims(
                &partition,
                StealPolicy::new(steal.cap),
                self.rack_first
                    .then(|| self.sim.topology_spec().rack_geometry())
                    .flatten(),
                tracer,
                &mut rng,
            );
            values.set("core.pick_victims_ns", victims_ns);
            // An attempt contacts up to `cap` victims and stops at the
            // first hit; most miss, so `cap` scans per attempt is the
            // (slightly high) count used for the computed share.
            let scans = report.steal_attempts as f64 * steal.cap as f64;
            computed_s += (scans * scan_ns + report.steal_attempts as f64 * victims_ns) / 1e9;
        }

        // net: pricing one message on this topology.
        let delay_ns = self.net_delay(msgs, central_tasks > 0, tracer, &mut rng);
        values.set("net.delay_ns_per_msg", delay_ns);
        computed_s += msgs as f64 * delay_ns / 1e9;

        // core: the placement paths.
        if central_tasks > 0 {
            let scope = match self.scheduler.route(JobClass::Long) {
                Route::Central(Scope::Whole) => partition.total(),
                _ => partition.general_count(),
            };
            let assign_ns = self.central_assign(scope, tracer);
            values.set("core.central_assign_ns", assign_ns);
            computed_s += central_tasks as f64 * assign_ns / 1e9;
        }
        if probed_tasks > 0 {
            let targets_ns = self.probe_targets(nodes, tracer, &mut rng);
            values.set("core.probe_targets_ns", targets_ns);
            computed_s += probes as f64 * targets_ns / 1e9;
        }
        if let Some(policy) = self.sim.admission {
            let plan_s = median_of(3, || {
                tracer
                    .time("core.admission_plan", || {
                        AdmissionPlan::compute(
                            self.trace,
                            nodes,
                            cutoff,
                            &self.sim.dynamics,
                            policy,
                        )
                    })
                    .1
            });
            values.note_seconds("core.admission_plan_s", plan_s);
            values.set("core.admission_plan_share", plan_s / self.cell_s);
        }
        computed_s
    }

    /// Hold-model replay of `Engine`: pre-filled to the driver's mean
    /// pending population (half the arrivals still ahead, plus about one
    /// event per server), then pop-one-schedule-one with the workload's
    /// delay mix — one task-length delay per task, network-length delays
    /// for the rest of its events. Returns ns per pop + schedule.
    fn engine(&self, tracer: &mut Tracer, rng: &mut SimRng) -> f64 {
        let jobs = self.trace.jobs();
        let durations: Vec<SimDuration> = (0..RING)
            .map(|_| {
                let job = &jobs[rng.index(jobs.len())];
                job.tasks[rng.index(job.tasks.len())]
            })
            .collect();
        let network = NetworkModel::paper_default().one_way();
        let task_share = self.tasks as f64 / self.report.events.max(1) as f64;
        let delays: Vec<SimDuration> = durations
            .iter()
            .map(|&d| if rng.chance(task_share) { d } else { network })
            .collect();

        let arrivals_ahead = jobs.len() / 2;
        let mut engine: Engine<u64> = Engine::with_capacity(arrivals_ahead + self.sim.nodes + 64);
        for job in &jobs[jobs.len() - arrivals_ahead..] {
            engine.schedule_at(job.submission, job.id.0 as u64);
        }
        for (i, &d) in durations.iter().cycle().take(self.sim.nodes).enumerate() {
            engine.schedule(d, i as u64);
        }

        let (_, secs) = tracer.time("simcore.engine", || {
            for i in 0..REPLAY_OPS {
                let (_, event) = engine.pop().expect("the hold model never drains");
                engine.schedule(delays[i & (RING - 1)], black_box(event));
            }
        });
        secs * 1e9 / REPLAY_OPS as f64
    }

    /// `Topology::delay` over endpoint pairs shaped like the driver's:
    /// scheduler-to-server probes, server-to-scheduler binds and (for a
    /// policy with a central route) central-to-server placements, with the
    /// clock advancing at the workload's own message rate so a contended
    /// fabric queues as it did in the run.
    fn net_delay(
        &self,
        msgs: u64,
        has_central: bool,
        tracer: &mut Tracer,
        rng: &mut SimRng,
    ) -> f64 {
        let nodes = self.sim.nodes;
        let mut topology = self.sim.topology_spec().build(nodes);
        let server = |rng: &mut SimRng| Endpoint::Server(ServerId(rng.index(nodes) as u32));
        let pairs: Vec<(Endpoint, Endpoint)> = (0..RING)
            .map(|i| {
                let job = Endpoint::Scheduler(rng.index(self.trace.len()) as u32);
                match i % 5 {
                    0 | 1 => (job, server(rng)),
                    2 | 3 => (server(rng), job),
                    _ if has_central => (Endpoint::Central, server(rng)),
                    _ => (server(rng), server(rng)),
                }
            })
            .collect();
        let step = self.report.makespan.as_micros() / msgs.max(1);
        let (_, secs) = tracer.time("net.delay", || {
            let mut now = 0u64;
            for i in 0..REPLAY_OPS {
                let (src, dst) = pairs[i & (RING - 1)];
                black_box(topology.delay(SimTime::from_micros(now), src, dst));
                now += step;
            }
        });
        secs * 1e9 / REPLAY_OPS as f64
    }

    /// `CentralScheduler` over the trace's centrally routed jobs: assign a
    /// job's tasks, then complete the oldest outstanding placements so
    /// about one task per server stays in the waiting-time queue. Returns
    /// ns per task (one assignment and one completion).
    fn central_assign(&self, scope: usize, tracer: &mut Tracer) -> f64 {
        let mut central = CentralScheduler::new(scope);
        let mut outstanding: VecDeque<(ServerId, SimDuration)> = VecDeque::with_capacity(scope * 2);
        let mut placement = Vec::new();
        let cutoff = self.sim.cutoff;
        let mut placed = 0usize;
        let (_, secs) = tracer.time("core.central_assign", || {
            for job in self.trace.jobs() {
                let estimate = job.mean_task_duration();
                if !matches!(
                    self.scheduler.route(cutoff.classify(estimate)),
                    Route::Central(_)
                ) {
                    continue;
                }
                central.assign_job_into(job.num_tasks(), estimate, &mut placement);
                placed += placement.len();
                outstanding.extend(placement.iter().map(|&server| (server, estimate)));
                while outstanding.len() > scope {
                    let (server, estimate) = outstanding.pop_front().expect("non-empty");
                    central.on_task_complete(server, estimate);
                }
                if placed >= REPLAY_OPS {
                    break;
                }
            }
        });
        black_box(central.min_wait());
        secs * 1e9 / placed.max(1) as f64
    }

    /// `ProbePlanner::targets_into` for the trace's probed jobs, over the
    /// whole cluster. Returns ns per probe target.
    fn probe_targets(&self, nodes: usize, tracer: &mut Tracer, rng: &mut SimRng) -> f64 {
        let planner = ProbePlanner::default();
        let cutoff = self.sim.cutoff;
        let mut out = Vec::new();
        let mut targets = 0usize;
        let (_, secs) = tracer.time("core.probe_targets", || {
            for job in self.trace.jobs() {
                let class = cutoff.classify(job.mean_task_duration());
                if !matches!(self.scheduler.route(class), Route::Distributed(_)) {
                    continue;
                }
                planner.targets_into(job.num_tasks(), 0, nodes, rng, &mut out);
                targets += black_box(&out).len();
                if targets >= REPLAY_OPS {
                    break;
                }
            }
        });
        secs * 1e9 / targets.max(1) as f64
    }
}

fn short_spec(job: u32) -> TaskSpec {
    TaskSpec {
        job: JobId(job),
        duration: SimDuration::from_secs(100),
        estimate: SimDuration::from_secs(100),
        class: JobClass::Short,
        task: 0,
        attempt: 0,
    }
}

fn long_spec(job: u32) -> TaskSpec {
    TaskSpec {
        duration: SimDuration::from_secs(5_000),
        estimate: SimDuration::from_secs(5_000),
        class: JobClass::Long,
        ..short_spec(job)
    }
}

fn random_servers(count: usize, rng: &mut SimRng) -> Vec<ServerId> {
    (0..RING)
        .map(|_| ServerId(rng.index(count) as u32))
        .collect()
}

/// One task through `Cluster`'s queue and slot on an idle server: a probe
/// that late-binds (`enqueue` → `on_bind_response` → `on_task_finish`) or,
/// for the centrally placed share, a task enqueued directly. Returns ns per
/// task.
fn task_cycle(
    mut cluster: Cluster,
    central_share: f64,
    tracer: &mut Tracer,
    rng: &mut SimRng,
) -> f64 {
    let servers = random_servers(cluster.len(), rng);
    let central: Vec<bool> = (0..RING).map(|_| rng.chance(central_share)).collect();
    let (_, secs) = tracer.time("cluster.task_cycle", || {
        for i in 0..REPLAY_OPS {
            let slot = i & (RING - 1);
            let server = servers[slot];
            let spec = short_spec(i as u32);
            if central[slot] {
                black_box(cluster.enqueue(server, QueueEntry::Task(spec)));
            } else {
                black_box(cluster.enqueue(
                    server,
                    QueueEntry::Probe {
                        job: spec.job,
                        class: spec.class,
                    },
                ));
                black_box(cluster.on_bind_response(server, Some(spec)));
            }
            black_box(cluster.on_task_finish(server));
        }
    });
    secs * 1e9 / REPLAY_OPS as f64
}

/// Share of general-partition servers the steal replay arms with stealable
/// work, and how many short entries each holds behind its long task.
const STEAL_ARMED_EVERY: usize = 4;
const STEAL_GROUP: u32 = 3;

/// `Cluster::steal_from_with_into` against random general-partition
/// victims. Every victim runs a long task; one in four also queues a short
/// group behind it, so most scans find nothing — as in a run, where a thief
/// contacts up to ten victims per attempt. A hit is put back on its victim
/// (inside the timed loop) so the state stays stationary. Returns ns per
/// scan.
fn steal_scan(
    mut cluster: Cluster,
    granularity: StealGranularity,
    tracer: &mut Tracer,
    rng: &mut SimRng,
) -> f64 {
    let general = cluster.partition().general_count();
    for id in 0..general {
        let server = ServerId(id as u32);
        cluster.enqueue(server, QueueEntry::Task(long_spec(id as u32)));
        if id % STEAL_ARMED_EVERY == 0 {
            for _ in 0..STEAL_GROUP {
                cluster.enqueue(
                    server,
                    QueueEntry::Probe {
                        job: JobId(id as u32),
                        class: JobClass::Short,
                    },
                );
            }
        }
    }
    let victims = random_servers(general, rng);
    let mut scan_rng = rng.split();
    let mut stolen = Vec::with_capacity(64);
    let (_, secs) = tracer.time("cluster.steal_scan", || {
        for i in 0..REPLAY_OPS {
            let victim = victims[i & (RING - 1)];
            cluster.steal_from_with_into(victim, granularity, &mut scan_rng, &mut stolen);
            for entry in stolen.drain(..) {
                cluster.enqueue(victim, entry);
            }
        }
    });
    black_box(cluster.running_count());
    secs * 1e9 / REPLAY_OPS as f64
}

/// `StealPolicy::pick_victims_into` (the rack-first variant where the
/// workload's policy uses it) for random thieves. Returns ns per attempt.
fn pick_victims(
    partition: &Partition,
    policy: StealPolicy,
    rack_first: Option<hawk_core::RackGeometry>,
    tracer: &mut Tracer,
    rng: &mut SimRng,
) -> f64 {
    let thieves = random_servers(partition.total(), rng);
    let mut pick_rng = rng.split();
    let (mut scratch, mut out) = (Vec::new(), Vec::new());
    let (_, secs) = tracer.time("core.pick_victims", || {
        for i in 0..REPLAY_OPS {
            let thief = thieves[i & (RING - 1)];
            match rack_first {
                Some(racks) => policy.pick_victims_rack_first_into(
                    partition,
                    thief,
                    racks,
                    &mut pick_rng,
                    &mut scratch,
                    &mut out,
                ),
                None => policy.pick_victims_into(
                    partition,
                    thief,
                    &mut pick_rng,
                    &mut scratch,
                    &mut out,
                ),
            }
            black_box(&out);
        }
    });
    secs * 1e9 / REPLAY_OPS as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_guards_a_zero_denominator() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }

    #[test]
    fn process_cpu_time_advances_with_work() {
        let before = process_cpu_seconds();
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 60 {
            x = black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let after = process_cpu_seconds();
        // Zero only where /proc is missing; otherwise ~6 ticks were burnt.
        assert!(after >= before);
        if std::path::Path::new("/proc/self/stat").exists() {
            assert!(after - before >= 0.02, "{before} -> {after}");
        }
    }
}
