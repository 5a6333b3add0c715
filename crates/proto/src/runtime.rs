//! Cluster bring-up and the run shape both execution modes share, plus
//! the real-time runtime.
//!
//! [`run_prototype`] builds the daemon set — one [`Worker`] per node,
//! `dist_schedulers` [`DistScheduler`]s, and a [`CentralDaemon`] iff the
//! policy routes any class centrally — and runs it in one shape, whichever
//! [`ExecutionMode`] it is in:
//!
//! * **one feed** ([`feed`]): every job submission and scripted dynamics
//!   event as `(time, item)`, in firing order, shaped by the admission
//!   plan (a shed job is never fed, a deferred one is fed at its admitted
//!   window);
//! * **one outcome record** ([`Outcomes`]): each job's submission and
//!   completion on the run's own clock;
//! * **one report** ([`ProtoReport::new`]), from the outcomes, the
//!   daemons' counters and the utilization samples.
//!
//! The modes differ only in how they walk the feed and keep time:
//!
//! * [`ExecutionMode::RealTime`] — every daemon is an OS thread with an
//!   mpsc mailbox, scoped to the run so the daemons can borrow the trace;
//!   task execution is a real-time deadline (the thread stays responsive
//!   to probes, bind replies and steal requests while "executing",
//!   exactly like a Sparrow node monitor hosting a sleep task, §4.10).
//!   The calling thread runs one loop that waits for whichever comes
//!   first: the next feed item, the next utilization sample or a
//!   completion. Results carry real messaging noise and are *not*
//!   bit-deterministic.
//! * [`ExecutionMode::Virtual`] — the same daemons run single-threaded
//!   under a deterministic router ([`crate::virt`]) that walks the feed
//!   with a cursor: messages are delivered in `(virtual time, sequence)`
//!   order after a delay charged by the configured network
//!   [`TopologySpec`] (constant under the paper default, placement- and
//!   load-dependent on a fat tree), and "sleeping" advances a virtual
//!   clock. Two runs with the same seed are byte-identical, which is what
//!   lets `tests/backend_conformance.rs` cross-check the prototype against
//!   the simulator.
//!
//! # RNG streams
//!
//! All randomness derives from `ProtoConfig::seed` by stream splitting,
//! in a frozen order: one stream per worker, in worker-index order, then
//! one per distributed scheduler (probe draws), in scheduler-index order.
//! A worker's stream serves its steal-victim draws, one as each victim is
//! contacted (the simulator's `Core::try_steal` draws the same way), and
//! the draws of the steal scans it answers as a victim, so the two
//! interleave in message order. Adding streams later must append to this
//! order, never reorder it — the virtual mode's byte-identical replay
//! depends on it (the same rule PR 4 established for the driver's
//! `scenario_rng`).

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use hawk_cluster::Partition;
use hawk_core::{check_cell, AdmissionDecision, AdmissionPlan, AdmissionPolicy, Route, Scheduler};
use hawk_net::{NetworkStats, TopologySpec};
use hawk_simcore::{SimDuration, SimRng, SimTime};
use hawk_workload::classify::Cutoff;
use hawk_workload::scenario::{DynamicsScript, NodeChange, SpeedSpec};
use hawk_workload::{JobClass, JobId, Trace};

use crate::fault::{FaultSpec, TimeoutSpec};
use crate::msg::{CentralMsg, DistMsg, Net, WorkerMsg};
use crate::report::{DaemonStats, Measured, Outcomes, ProtoReport};
use crate::scheduler::{CentralDaemon, DistScheduler};
use crate::virt::run_virtual;
use crate::worker::Worker;

/// How the prototype cluster executes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExecutionMode {
    /// Live OS threads on the wall clock: real concurrency, real
    /// messaging noise, non-deterministic results (the paper's §4.10
    /// deployment model). Trace times are wall-clock offsets — scale the
    /// trace down first (see `hawk_workload::sample`).
    RealTime,
    /// Single-threaded deterministic execution on a virtual clock:
    /// byte-identical results per seed, no wall time spent "sleeping".
    Virtual {
        /// The network topology the virtual router charges every
        /// daemon-to-daemon message against — the same
        /// [`TopologySpec`] the simulation driver builds its
        /// [`Topology`](hawk_net::Topology) from, so a conformance pair
        /// runs both backends over identical network models.
        /// [`TopologySpec::paper_default()`] reproduces the historical
        /// constant 0.5 ms delay (§4.1).
        topology: TopologySpec,
    },
}

/// Distributed scheduler daemons in the paper's prototype (§4.1).
pub(crate) const PAPER_DIST_SCHEDULERS: usize = 10;

/// Prototype cluster configuration (paper defaults: 100 nodes, 10
/// distributed schedulers, 1 centralized scheduler, §4.1).
///
/// The *policy* — routing, partition fraction, probe ratio, steal spec —
/// is no longer configured here: it comes from the `Arc<dyn Scheduler>`
/// passed to [`run_prototype`], the same value the simulator runs.
#[derive(Debug, Clone)]
pub struct ProtoConfig {
    /// Number of worker (node monitor) daemons.
    pub workers: usize,
    /// Number of distributed scheduler daemons.
    pub dist_schedulers: usize,
    /// Short/long cutoff on the (already scaled) estimated task runtime.
    pub cutoff: Cutoff,
    /// Utilization sampling period (virtual or wall time, per mode).
    pub util_interval: SimDuration,
    /// Seed for probe and steal randomness.
    pub seed: u64,
    /// Execution mode.
    pub mode: ExecutionMode,
    /// Scripted node down/up events (scenario dynamics).
    pub dynamics: DynamicsScript,
    /// Per-server execution-speed profile (scenario heterogeneity).
    pub speeds: SpeedSpec,
    /// Network fault injection ([`ExecutionMode::Virtual`] only).
    /// [`FaultSpec::none()`] — the default — takes the pre-fault code
    /// path and is byte-identical to historical runs; a spec that injects
    /// runs the daemons hardened, on the protocol's default timeouts.
    pub faults: FaultSpec,
    /// Overload admission control. `None` — the default — admits every
    /// job and is byte-identical to a config without the field. `Some`
    /// derives the same [`AdmissionPlan`] the simulator computes (a pure
    /// function of trace, workers, cutoff and dynamics), so shed and
    /// deferral counts agree exactly across backends per seed.
    pub admission: Option<AdmissionPolicy>,
}

impl Default for ProtoConfig {
    fn default() -> Self {
        ProtoConfig {
            workers: 100,
            dist_schedulers: PAPER_DIST_SCHEDULERS,
            // The Google cutoff under the paper's 1000× time scale-down.
            cutoff: Cutoff(SimDuration::from_micros(1_129_000)),
            util_interval: SimDuration::from_millis(50),
            seed: 0x4a77_2015,
            mode: ExecutionMode::RealTime,
            dynamics: DynamicsScript::none(),
            speeds: SpeedSpec::Uniform,
            faults: FaultSpec::none(),
            admission: None,
        }
    }
}

/// The full daemon set of one prototype cluster.
pub(crate) struct ClusterSetup<'t> {
    pub workers: Vec<Worker>,
    pub dists: Vec<DistScheduler<'t>>,
    pub central: Option<CentralDaemon<'t>>,
}

/// Where each job is submitted: the class it is scheduled under (exact
/// estimates under the cutoff), and the daemon the policy routes that
/// class to.
pub(crate) struct Routes {
    /// Each job's class, by job id.
    classes: Vec<JobClass>,
    scheduler: Arc<dyn Scheduler>,
    dists: usize,
}

/// A routed job submission.
pub(crate) enum Submission {
    Central(CentralMsg),
    Dist(usize, DistMsg),
}

impl Routes {
    fn new(trace: &Trace, scheduler: &Arc<dyn Scheduler>, cfg: &ProtoConfig) -> Self {
        Routes {
            classes: trace
                .jobs()
                .iter()
                .map(|job| cfg.cutoff.classify(job.mean_task_duration()))
                .collect(),
            scheduler: Arc::clone(scheduler),
            dists: cfg.dist_schedulers,
        }
    }

    /// Job `index`'s submission: to the central daemon, or to its
    /// distributed scheduler (`index % dist_schedulers`, the owner every
    /// per-job message uses).
    pub(crate) fn submission(&self, index: u32) -> Submission {
        let (job, class) = (JobId(index), self.classes[index as usize]);
        match self.scheduler.route(class) {
            Route::Central(_) => Submission::Central(CentralMsg::Submit { job, class }),
            Route::Distributed(_) => {
                Submission::Dist(index as usize % self.dists, DistMsg::Submit { job, class })
            }
        }
    }
}

/// One item of a run's feed.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FeedItem {
    /// Trace job `index` is handed to its scheduler daemon.
    Submit(u32),
    /// A scripted dynamics event, fanned out to every daemon.
    Node(NodeChange),
}

/// A run's feed: every job submission and scripted dynamics event as
/// `(time, item)`, in firing order — submissions in trace order, then the
/// script, stably sorted by time. The admission `plan` shapes it: a shed
/// job is never fed, and a deferred job is fed at its admitted window.
fn feed(
    trace: &Trace,
    dynamics: &DynamicsScript,
    plan: Option<&AdmissionPlan>,
) -> Vec<(SimTime, FeedItem)> {
    let submissions = trace.jobs().iter().filter_map(|job| {
        let at = match plan.map(|p| p.decision(job.id)) {
            Some(AdmissionDecision::Shed) => return None,
            Some(AdmissionDecision::Defer { until }) => until,
            Some(AdmissionDecision::Admit) | None => job.submission,
        };
        Some((at, FeedItem::Submit(job.id.0)))
    });
    let script = dynamics
        .events()
        .iter()
        .map(|ev| (ev.at, FeedItem::Node(ev.change)));
    let mut feed: Vec<(SimTime, FeedItem)> = submissions.chain(script).collect();
    feed.sort_by_key(|&(at, _)| at);
    feed
}

/// Builds the daemons, which borrow `trace` for its task durations.
fn build_cluster<'t>(
    trace: &'t Trace,
    scheduler: &Arc<dyn Scheduler>,
    cfg: &ProtoConfig,
) -> ClusterSetup<'t> {
    assert!(
        cfg.workers > 0 && cfg.dist_schedulers > 0,
        "prototype needs at least one worker and one distributed scheduler"
    );
    let central_scope = check_cell(
        &**scheduler,
        cfg.workers,
        &cfg.dynamics,
        cfg.util_interval,
        None,
    );
    let partition = Partition::new(cfg.workers, scheduler.short_partition_fraction());
    let speeds = cfg
        .speeds
        .resolve(cfg.workers)
        .unwrap_or_else(|| vec![1.0; cfg.workers]);

    // Frozen stream order: workers first, then distributed schedulers.
    // (The fault lanes split from `seed ^ FAULT_SALT`, a separate root,
    // so enabling faults never shifts these streams.)
    let mut root = SimRng::seed_from_u64(cfg.seed);
    let hardened = cfg.faults.injects().then(TimeoutSpec::default);
    // Rack geometry exists only when a modelled fabric does: real-time
    // mode has no topology, so placement-aware policies fall back to the
    // paper's uniform victim draw there.
    let rack_geometry = match &cfg.mode {
        ExecutionMode::Virtual { topology } => topology.rack_geometry(),
        ExecutionMode::RealTime => None,
    };
    let workers: Vec<Worker> = (0..cfg.workers)
        .map(|i| {
            Worker::new(
                i,
                Arc::clone(scheduler),
                partition,
                rack_geometry,
                cfg.dist_schedulers,
                speeds[i],
                root.split(),
                hardened,
            )
        })
        .collect();
    let dists: Vec<DistScheduler<'t>> = (0..cfg.dist_schedulers)
        .map(|i| {
            DistScheduler::new(
                trace,
                i,
                cfg.dist_schedulers,
                Arc::clone(scheduler),
                cfg.workers,
                root.split(),
                hardened,
            )
        })
        .collect();
    let central = central_scope.map(|len| CentralDaemon::new(trace, len, hardened));
    ClusterSetup {
        workers,
        dists,
        central,
    }
}

/// Runs `trace` under `scheduler` on a freshly built prototype cluster
/// and reports per-job runtimes.
///
/// In [`ExecutionMode::RealTime`] this blocks for roughly the trace span
/// plus drain of wall time; in [`ExecutionMode::Virtual`] it returns as
/// fast as the messages can be processed.
///
/// # Panics
///
/// Panics if the cluster stops making progress (in real-time mode, 60
/// wall-clock seconds after the feed ran out without a completion; in
/// virtual mode, an empty or sample-only event queue), which indicates a
/// protocol-liveness bug. Also panics on a cell [`check_cell`] refuses,
/// and on configuration the prototype cannot run (no worker or no
/// distributed scheduler, fault injection outside the virtual mode).
pub fn run_prototype(
    trace: &Trace,
    scheduler: Arc<dyn Scheduler>,
    cfg: &ProtoConfig,
) -> ProtoReport {
    if cfg.mode == ExecutionMode::RealTime {
        assert!(
            !cfg.faults.injects(),
            "fault injection and hardened timers require the virtual-clock mode"
        );
    }
    let setup = build_cluster(trace, &scheduler, cfg);
    let routes = Routes::new(trace, &scheduler, cfg);
    // One plan for both runtimes, computed exactly as the simulation
    // drivers compute it — same pure inputs, same decisions per job.
    let plan = cfg.admission.map(|policy| {
        AdmissionPlan::compute(trace, cfg.workers, cfg.cutoff, &cfg.dynamics, policy)
    });
    let feed = feed(trace, &cfg.dynamics, plan.as_ref());
    let outcomes = Outcomes::new(trace, plan.as_ref());
    let run = match cfg.mode {
        ExecutionMode::Virtual { topology } => run_virtual(
            setup,
            &routes,
            &feed,
            outcomes,
            cfg,
            topology.build(cfg.workers),
        ),
        ExecutionMode::RealTime => {
            run_threaded(setup, &routes, &feed, outcomes, plan.as_ref(), cfg)
        }
    };
    ProtoReport::new(trace, &routes.classes, run, plan.as_ref())
}

/// Channels and gauges every thread of the real-time runtime shares.
struct RoutingTable {
    workers: Vec<Sender<WorkerMsg>>,
    dscheds: Vec<Sender<DistMsg>>,
    central: Option<Sender<CentralMsg>>,
    done: Sender<(JobId, Instant)>,
    running: AtomicI64,
    /// Usable capacity: in-service workers + down workers draining a
    /// running task (the simulator's utilization denominator).
    capacity: AtomicI64,
}

impl RoutingTable {
    fn send_central(&self, msg: CentralMsg) {
        let central = self.central.as_ref().expect("policy has no central route");
        let _ = central.send(msg);
    }

    /// Hands one feed item over: a submission to its scheduler daemon, a
    /// dynamics event to every daemon.
    fn feed(&self, routes: &Routes, item: FeedItem) {
        match item {
            FeedItem::Submit(index) => match routes.submission(index) {
                Submission::Central(msg) => self.send_central(msg),
                Submission::Dist(sched, msg) => {
                    let _ = self.dscheds[sched].send(msg);
                }
            },
            FeedItem::Node(change) => {
                let (NodeChange::Down(server) | NodeChange::Up(server)) = change;
                let _ = self.workers[server as usize].send(WorkerMsg::Node(change));
                for tx in &self.dscheds {
                    let _ = tx.send(DistMsg::Node(change));
                }
                if let Some(central) = &self.central {
                    let _ = central.send(CentralMsg::Node(change));
                }
            }
        }
    }

    /// The fraction of usable capacity executing a task right now.
    fn utilization(&self) -> f64 {
        let usable = self.capacity.load(Ordering::Relaxed).max(1) as f64;
        self.running.load(Ordering::Relaxed).max(0) as f64 / usable
    }

    fn shutdown(&self) {
        for tx in &self.workers {
            let _ = tx.send(WorkerMsg::Shutdown);
        }
        for tx in &self.dscheds {
            let _ = tx.send(DistMsg::Shutdown);
        }
        if let Some(central) = &self.central {
            let _ = central.send(CentralMsg::Shutdown);
        }
    }
}

/// [`Net`] over mpsc channels and the wall clock. `deadline` is the
/// calling worker's task-finish deadline slot (always `None` for
/// scheduler daemons, which never start tasks).
struct ThreadNet<'a> {
    topo: &'a RoutingTable,
    deadline: &'a mut Option<Instant>,
}

impl Net for ThreadNet<'_> {
    fn send_worker(&mut self, to: usize, msg: WorkerMsg) {
        let _ = self.topo.workers[to].send(msg);
    }
    fn send_dist(&mut self, to: usize, msg: DistMsg) {
        let _ = self.topo.dscheds[to].send(msg);
    }
    fn send_central(&mut self, msg: CentralMsg) {
        self.topo.send_central(msg);
    }
    fn schedule_finish(&mut self, _worker: usize, occupancy: SimDuration) {
        debug_assert!(self.deadline.is_none(), "slot already has a deadline");
        *self.deadline = Some(Instant::now() + Duration::from_micros(occupancy.as_micros()));
    }
    fn job_done(&mut self, job: JobId) {
        let _ = self.topo.done.send((job, Instant::now()));
    }
    fn add_running(&mut self, delta: i64) {
        self.topo.running.fetch_add(delta, Ordering::Relaxed);
    }
    fn add_capacity(&mut self, delta: i64) {
        self.topo.capacity.fetch_add(delta, Ordering::Relaxed);
    }
}

/// The worker thread body: service messages and execution deadlines until
/// shutdown; returns the worker's counters.
fn worker_thread(mut worker: Worker, rx: Receiver<WorkerMsg>, topo: &RoutingTable) -> DaemonStats {
    let mut deadline: Option<Instant> = None;
    loop {
        let msg = match deadline {
            Some(due) => {
                let now = Instant::now();
                if now >= due {
                    deadline = None;
                    worker.on_task_finish(&mut ThreadNet {
                        topo,
                        deadline: &mut deadline,
                    });
                    continue;
                }
                match rx.recv_timeout(due - now) {
                    Ok(msg) => msg,
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
            None => match rx.recv() {
                Ok(msg) => msg,
                Err(_) => break,
            },
        };
        let mut net = ThreadNet {
            topo,
            deadline: &mut deadline,
        };
        if worker.handle(msg, &mut net) {
            break;
        }
    }
    worker.stats
}

/// A scheduler-daemon thread body (shared by distributed and central
/// daemons via the `handle` closure).
fn sched_thread<M>(
    rx: Receiver<M>,
    topo: &RoutingTable,
    mut handle: impl FnMut(M, &mut ThreadNet<'_>) -> bool,
) {
    let mut deadline = None;
    while let Ok(msg) = rx.recv() {
        let mut net = ThreadNet {
            topo,
            deadline: &mut deadline,
        };
        if handle(msg, &mut net) {
            return;
        }
    }
}

/// How long the real-time runtime waits for a completion once the feed
/// has run out before it calls the cluster wedged.
const LIVENESS: Duration = Duration::from_secs(60);

fn run_threaded(
    setup: ClusterSetup<'_>,
    routes: &Routes,
    feed: &[(SimTime, FeedItem)],
    mut outcomes: Outcomes,
    plan: Option<&AdmissionPlan>,
    cfg: &ProtoConfig,
) -> Measured {
    // Channels first, so every thread starts with the full routing table.
    let (worker_txs, worker_rxs): (Vec<_>, Vec<_>) =
        (0..cfg.workers).map(|_| channel::<WorkerMsg>()).unzip();
    let (dsched_txs, dsched_rxs): (Vec<_>, Vec<_>) = (0..cfg.dist_schedulers)
        .map(|_| channel::<DistMsg>())
        .unzip();
    let (central_tx, central_rx) = match setup.central {
        Some(_) => {
            let (tx, rx) = channel::<CentralMsg>();
            (Some(tx), Some(rx))
        }
        None => (None, None),
    };
    let (done_tx, done_rx) = channel::<(JobId, Instant)>();
    let topo = RoutingTable {
        workers: worker_txs,
        dscheds: dsched_txs,
        central: central_tx,
        done: done_tx,
        running: AtomicI64::new(0),
        capacity: AtomicI64::new(cfg.workers as i64),
    };

    thread::scope(|scope| {
        let topo = &topo;
        let mut daemons: Vec<_> = setup
            .workers
            .into_iter()
            .zip(worker_rxs)
            .map(|(worker, rx)| scope.spawn(move || worker_thread(worker, rx, topo)))
            .collect();
        for (mut dist, rx) in setup.dists.into_iter().zip(dsched_rxs) {
            daemons.push(scope.spawn(move || {
                sched_thread(rx, topo, |msg, net| dist.handle(msg, net));
                dist.stats
            }));
        }
        if let (Some(mut central), Some(rx)) = (setup.central, central_rx) {
            daemons.push(scope.spawn(move || {
                sched_thread(rx, topo, |msg, net| central.handle(msg, net));
                central.stats
            }));
        }

        // The one loop: hand each feed item over as it falls due, sample
        // utilization every interval, and record completions as they
        // arrive, sleeping until whichever of the three comes first. The
        // feed stops early once every job is done: a dynamics script
        // outlasting the workload must not keep the run alive.
        let start = Instant::now();
        let due = |at: SimTime| start + Duration::from_micros(at.as_micros());
        let clock = |at: Instant| {
            SimTime::from_micros(at.saturating_duration_since(start).as_micros() as u64)
        };
        let interval = Duration::from_micros(cfg.util_interval.as_micros());
        let mut items = feed.iter().peekable();
        let mut next_sample = start + interval;
        // The last feed item or completion: with the feed run out, a
        // `LIVENESS` span without a completion is a wedged cluster.
        let mut progress = start;
        let mut samples = Vec::new();
        while outcomes.open() > 0 {
            let now = Instant::now();
            while let Some(&(_, item)) = items.next_if(|&&(at, _)| due(at) <= now) {
                if let FeedItem::Submit(index) = item {
                    // A deferred job keeps its trace submission: the
                    // deferral wait is part of its latency.
                    let job = JobId(index);
                    if plan.is_none_or(|p| p.decision(job) == AdmissionDecision::Admit) {
                        outcomes.submit(job, clock(now));
                    }
                }
                topo.feed(routes, item);
                progress = now;
            }
            if now >= next_sample {
                samples.push(topo.utilization());
                next_sample = now + interval;
            }
            let wake = match items.peek() {
                Some(&&(at, _)) => due(at).min(next_sample),
                None if now >= progress + LIVENESS => {
                    let wedged = format!(
                        "prototype made no progress for {}s: {} unfinished jobs, \
                         {} tasks running, usable capacity {}",
                        LIVENESS.as_secs(),
                        outcomes.open(),
                        topo.running.load(Ordering::Relaxed),
                        topo.capacity.load(Ordering::Relaxed),
                    );
                    // The scope joins every daemon before the panic
                    // leaves it.
                    topo.shutdown();
                    panic!("{wedged}");
                }
                None => (progress + LIVENESS).min(next_sample),
            };
            if let Ok((job, at)) = done_rx.recv_timeout(wake.saturating_duration_since(now)) {
                outcomes.complete(job, clock(at));
                progress = Instant::now();
            }
        }

        topo.shutdown();
        let mut stats = DaemonStats::default();
        for daemon in daemons {
            stats.absorb(&daemon.join().expect("daemon thread"));
        }
        Measured {
            outcomes,
            utilization_samples: samples,
            stats,
            // The threaded runtime rides the machine's real network
            // (in-process channels): there is no modelled topology to
            // classify links, and fault injection is virtual-only.
            network: NetworkStats::default(),
            drops: 0,
            dups: 0,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hawk_core::scheduler::{Hawk, Sparrow};
    use hawk_workload::Job;

    /// A fast trace: durations in single-digit milliseconds.
    fn fast_trace(jobs: Vec<(u64, Vec<u64>)>) -> Trace {
        let jobs = jobs
            .into_iter()
            .enumerate()
            .map(|(i, (at_ms, task_ms))| Job {
                id: JobId(i as u32),
                submission: SimTime::from_micros(at_ms * 1_000),
                tasks: task_ms.into_iter().map(SimDuration::from_millis).collect(),
                generated_class: None,
            })
            .collect();
        Trace::new(jobs).unwrap()
    }

    fn fast_cfg(mode: ExecutionMode) -> ProtoConfig {
        ProtoConfig {
            workers: 8,
            dist_schedulers: 2,
            // 50 ms cutoff: tasks ≥ 50 ms are long.
            cutoff: Cutoff(SimDuration::from_millis(50)),
            util_interval: SimDuration::from_millis(5),
            mode,
            ..ProtoConfig::default()
        }
    }

    fn virtual_mode() -> ExecutionMode {
        // The paper-default constant topology: 0.5 ms one-way, free steal
        // transfers — exactly the pre-topology `message_delay: 500 µs`.
        ExecutionMode::Virtual {
            topology: TopologySpec::paper_default(),
        }
    }

    fn hawk() -> Arc<dyn Scheduler> {
        Arc::new(Hawk::new(0.25))
    }

    #[test]
    fn hawk_completes_all_jobs_in_both_modes() {
        let trace = fast_trace(vec![
            (0, vec![100, 100]), // long
            (1, vec![5, 5, 5]),  // short
            (2, vec![120]),      // long
            (3, vec![2; 6]),     // short
        ]);
        for mode in [virtual_mode(), ExecutionMode::RealTime] {
            let report = run_prototype(&trace, hawk(), &fast_cfg(mode));
            assert_eq!(report.results.len(), 4);
            assert_eq!(report.results[0].true_class, JobClass::Long);
            assert_eq!(report.results[1].true_class, JobClass::Short);
            for r in &report.results {
                assert!(r.runtime() >= SimDuration::from_millis(1), "{mode:?}");
            }
        }
    }

    #[test]
    fn sparrow_needs_no_central_daemon() {
        let trace = fast_trace(vec![(0, vec![60, 60]), (2, vec![3, 3, 3, 3])]);
        for mode in [virtual_mode(), ExecutionMode::RealTime] {
            let report = run_prototype(&trace, Arc::new(Sparrow::new()), &fast_cfg(mode));
            assert_eq!(report.results.len(), 2, "{mode:?}");
        }
    }

    #[test]
    fn virtual_runs_are_byte_identical() {
        let trace = fast_trace(vec![
            (0, vec![300; 5]),
            (1, vec![4, 4]),
            (2, vec![2; 6]),
            (5, vec![250, 250]),
            (9, vec![3, 3, 3]),
        ]);
        let cfg = fast_cfg(virtual_mode());
        let a = run_prototype(&trace, hawk(), &cfg);
        let b = run_prototype(&trace, hawk(), &cfg);
        assert_eq!(a, b, "same seed must replay byte-identically");
        let c = run_prototype(
            &trace,
            hawk(),
            &ProtoConfig {
                seed: cfg.seed + 1,
                ..cfg
            },
        );
        assert_ne!(
            a.results, c.results,
            "a different seed must actually perturb"
        );
    }

    #[test]
    fn virtual_runtimes_reflect_task_durations() {
        // One 100 ms task (long under the 50 ms cutoff, so centrally
        // placed): runtime is the placement hop (0.5 ms) + execution +
        // the completion-report hop (0.5 ms) — exact on the virtual
        // clock. Unlike the simulator, the prototype timestamps a
        // completion when the owning scheduler *learns* of it, as the
        // paper's deployment does.
        let trace = fast_trace(vec![(0, vec![100])]);
        let report = run_prototype(&trace, hawk(), &fast_cfg(virtual_mode()));
        let rt = report.results[0].runtime();
        assert_eq!(rt, SimDuration::from_micros(100_000 + 1_000));
    }

    #[test]
    fn real_time_runtimes_reflect_task_durations() {
        // The same check on the wall clock, with generous slack.
        let trace = fast_trace(vec![(0, vec![100])]);
        let report = run_prototype(&trace, hawk(), &fast_cfg(ExecutionMode::RealTime));
        let rt = report.results[0].runtime();
        assert!(rt >= SimDuration::from_millis(100), "runtime {rt:?}");
        assert!(rt < SimDuration::from_millis(500), "runtime {rt:?}");
    }

    #[test]
    fn stealing_rescues_blocked_shorts() {
        // 8 workers, 25 % short partition (6 general + 2 reserved). A
        // 6-task 600 ms long job fills the general partition; five 2-task
        // 5 ms short jobs then probe the whole cluster. Shorts whose
        // probes land behind long tasks wait them out without stealing;
        // with stealing the reserved workers rescue them.
        let mut jobs = vec![(0u64, vec![600u64; 6])];
        for i in 0..5 {
            jobs.push((20 + i, vec![5u64, 5]));
        }
        let trace = fast_trace(jobs);
        let cfg = fast_cfg(virtual_mode());
        let steal = run_prototype(&trace, hawk(), &cfg);
        let no_steal = run_prototype(&trace, Arc::new(Hawk::new(0.25).without_stealing()), &cfg);
        let worst_short = |r: &ProtoReport| {
            r.results[1..]
                .iter()
                .map(|j| j.runtime().as_secs_f64())
                .fold(0.0f64, f64::max)
        };
        let blocked = worst_short(&no_steal);
        let rescued = worst_short(&steal);
        assert!(
            blocked > 0.3,
            "expected blocking without stealing, worst short {blocked}s"
        );
        assert!(
            rescued < blocked,
            "stealing did not help: {rescued}s vs {blocked}s"
        );
        assert!(steal.steals > 0);
        assert_eq!(no_steal.steals, 0);
    }

    #[test]
    fn utilization_sampler_records_in_both_modes() {
        let trace = fast_trace(vec![(0, vec![50; 8])]);
        for mode in [virtual_mode(), ExecutionMode::RealTime] {
            let report = run_prototype(&trace, hawk(), &fast_cfg(mode));
            assert!(!report.utilization_samples.is_empty(), "{mode:?}");
            assert!(
                report.utilization_samples.iter().any(|&u| u > 0.0),
                "{mode:?}"
            );
        }
    }

    #[test]
    fn report_is_indexed_by_job_id() {
        let trace = fast_trace(vec![(0, vec![10]), (1, vec![10]), (2, vec![10])]);
        let report = run_prototype(&trace, hawk(), &fast_cfg(virtual_mode()));
        for (i, r) in report.results.iter().enumerate() {
            assert_eq!(r.job, JobId(i as u32));
            assert_eq!(r.num_tasks, 1);
        }
    }

    #[test]
    fn submissions_respect_trace_offsets() {
        let trace = fast_trace(vec![(0, vec![5]), (150, vec![5])]);
        let report = run_prototype(
            &trace,
            Arc::new(Sparrow::new()),
            &fast_cfg(ExecutionMode::RealTime),
        );
        let gap = report.results[1].submission - report.results[0].submission;
        assert!(gap >= SimDuration::from_millis(145), "gap {gap:?}");
    }

    #[test]
    fn node_churn_migrates_and_completes() {
        // Saturate 2 of 4 workers with long work, fail one mid-run: its
        // queue migrates and every job still completes — in both modes.
        let trace = fast_trace(vec![
            (0, vec![400, 400]),   // long pair
            (1, vec![300, 300]),   // long pair queued behind
            (2, vec![5, 5, 5, 5]), // shorts
        ]);
        let dynamics = DynamicsScript::none()
            .down_at(SimTime::from_micros(50_000), 1)
            .up_at(SimTime::from_micros(700_000), 1);
        for mode in [virtual_mode(), ExecutionMode::RealTime] {
            let cfg = ProtoConfig {
                workers: 4,
                dynamics: dynamics.clone(),
                ..fast_cfg(mode)
            };
            let report = run_prototype(&trace, hawk(), &cfg);
            assert_eq!(report.results.len(), 3, "{mode:?}");
        }
    }

    #[test]
    fn heterogeneous_speeds_stretch_virtual_runtimes() {
        // A half-speed single worker doubles the occupancy, exactly.
        let trace = fast_trace(vec![(0, vec![100])]);
        let cfg = ProtoConfig {
            workers: 1,
            dist_schedulers: 1,
            speeds: SpeedSpec::PerServer(vec![0.5]),
            ..fast_cfg(virtual_mode())
        };
        let report = run_prototype(&trace, Arc::new(Sparrow::new()), &cfg);
        // Probe (0.5) + bind round trip (1.0) + doubled occupancy +
        // completion report (0.5).
        assert_eq!(
            report.results[0].runtime(),
            SimDuration::from_micros(200_000 + 2_000)
        );
    }

    #[test]
    fn virtual_mode_counts_messages_and_attempts() {
        let trace = fast_trace(vec![(0, vec![100, 100]), (1, vec![2, 2])]);
        let report = run_prototype(&trace, hawk(), &fast_cfg(virtual_mode()));
        // 2 submits, probes, binds, finishes — far more than 10 messages.
        assert!(report.messages >= 10, "messages {}", report.messages);
    }

    #[test]
    fn virtual_quiet_spans_outlast_the_sampler() {
        // A single 200 s task with a 1 ms sampling interval: 200,000
        // consecutive sampler-only deliveries while the task runs. The
        // liveness check must key on queued work (the pending Finish
        // event), not on sample counts, so this completes instead of
        // panicking.
        let trace = fast_trace(vec![(0, vec![200_000])]);
        let cfg = ProtoConfig {
            workers: 2,
            dist_schedulers: 1,
            util_interval: SimDuration::from_micros(1_000),
            ..fast_cfg(virtual_mode())
        };
        let report = run_prototype(&trace, hawk(), &cfg);
        assert_eq!(report.results.len(), 1);
        assert!(report.utilization_samples.len() > 150_000);
    }

    #[test]
    fn real_time_feeder_stops_when_the_workload_drains() {
        // All jobs finish within ~100 ms, but the dynamics script runs
        // for another minute. The feeder must notice the drain and
        // return promptly instead of sleeping out the script.
        let trace = fast_trace(vec![(0, vec![5, 5]), (1, vec![3])]);
        let mut dynamics = DynamicsScript::none();
        for k in 0..30 {
            let at = SimTime::from_secs(2 + 2 * k);
            dynamics = dynamics
                .down_at(at, 0)
                .up_at(at + SimDuration::from_secs(1), 0);
        }
        let cfg = ProtoConfig {
            workers: 4,
            dynamics,
            ..fast_cfg(ExecutionMode::RealTime)
        };
        let started = Instant::now();
        let report = run_prototype(&trace, hawk(), &cfg);
        assert_eq!(report.results.len(), 2);
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "feeder slept out a {:?} dynamics script after the drain",
            started.elapsed()
        );
    }

    #[test]
    fn utilization_denominator_matches_the_simulators_under_dynamics() {
        use hawk_core::scheduler::Centralized;
        // Two workers, one 200 ms centrally-placed task (deterministically
        // on worker 0: the waiting-time heap breaks ties by index). Worker
        // 1 — idle — fails at 20 ms. Usable capacity drops to 1, so
        // samples during execution must read 1.0, not 0.5: the same
        // `live + draining` denominator `Cluster::utilization` uses.
        let trace = fast_trace(vec![(0, vec![200])]);
        let cfg = ProtoConfig {
            workers: 2,
            dist_schedulers: 1,
            util_interval: SimDuration::from_millis(10),
            dynamics: DynamicsScript::none().down_at(SimTime::from_micros(20_000), 1),
            ..fast_cfg(virtual_mode())
        };
        let report = run_prototype(&trace, Arc::new(Centralized::new()), &cfg);
        assert_eq!(
            report.into_metrics(String::new(), 2).max_utilization,
            1.0,
            "a down idle worker must leave the usable-capacity denominator"
        );
    }

    #[test]
    #[should_panic(expected = "central routes must share a scope")]
    fn mismatched_central_scopes_rejected_like_the_driver() {
        use hawk_core::Scope;
        struct MismatchedCentral;
        impl Scheduler for MismatchedCentral {
            fn name(&self) -> String {
                "mismatched".into()
            }
            fn route(&self, class: JobClass) -> Route {
                match class {
                    JobClass::Long => Route::Central(Scope::General),
                    JobClass::Short => Route::Central(Scope::Whole),
                }
            }
            fn probe_targets(
                &self,
                _view: &hawk_core::PlacementView<'_>,
                _tasks: usize,
                _rng: &mut SimRng,
                _out: &mut Vec<hawk_cluster::ServerId>,
            ) {
                unreachable!("fully central policy")
            }
        }
        let trace = fast_trace(vec![(0, vec![5])]);
        let _ = run_prototype(
            &trace,
            Arc::new(MismatchedCentral),
            &fast_cfg(virtual_mode()),
        );
    }

    #[test]
    #[should_panic(expected = "centralized route over an empty scope")]
    fn empty_central_scope_rejected_like_the_driver() {
        // Everything reserved for shorts leaves the general partition —
        // Hawk's central scope — empty.
        let trace = fast_trace(vec![(0, vec![5])]);
        let _ = run_prototype(&trace, Arc::new(Hawk::new(1.0)), &fast_cfg(virtual_mode()));
    }

    /// A deliberately hostile network: 5 % drops, duplicates, 2 ms
    /// reorder jitter, plus a scripted partition that islands workers
    /// {0, 1} for 100 ms mid-run. `chaos()` injects, so the hardened
    /// protocol is armed on the default timers.
    fn chaos_faults() -> FaultSpec {
        FaultSpec::chaos().drop_probability(0.05).partition(
            SimTime::from_micros(20_000),
            SimTime::from_micros(120_000),
            vec![0, 1],
        )
    }

    #[test]
    fn chaotic_virtual_runs_complete_and_replay_byte_identically() {
        let trace = fast_trace(vec![
            (0, vec![300; 5]),
            (1, vec![4, 4]),
            (2, vec![2; 6]),
            (5, vec![250, 250]),
            (9, vec![3, 3, 3]),
        ]);
        let cfg = ProtoConfig {
            faults: chaos_faults(),
            ..fast_cfg(virtual_mode())
        };
        let a = run_prototype(&trace, hawk(), &cfg);
        assert_eq!(a.results.len(), 5, "every job must complete under faults");
        assert!(a.drops > 0, "the lossy spec must actually drop messages");
        assert!(
            a.retries + a.timeouts_fired + a.relaunched > 0,
            "recovery machinery must have engaged: {} retries, {} timeouts, {} relaunches",
            a.retries,
            a.timeouts_fired,
            a.relaunched
        );
        // Byte-identical replay, fault counters included: the fault lanes
        // draw from their own salted streams in frozen order.
        let b = run_prototype(&trace, hawk(), &cfg);
        assert_eq!(a, b, "seeded faults must replay byte-identically");
        // A different seed perturbs the fault pattern too.
        let c = run_prototype(
            &trace,
            hawk(),
            &ProtoConfig {
                seed: cfg.seed + 1,
                ..cfg
            },
        );
        assert_ne!(
            (a.drops, a.dups, &a.results),
            (c.drops, c.dups, &c.results),
            "a different seed must perturb the fault pattern"
        );
    }

    #[test]
    fn reprobe_chain_survives_churn_on_a_lossy_network() {
        // The satellite's integration half: node churn (worker 1 fails
        // mid-run with queued probes, rejoins later) *combined with* a
        // lossy, reordering network. Displaced probes ride the ReProbe
        // machinery, lost ones ride the hardened job chains — either way
        // no task may strand and the run must stay deterministic.
        let trace = fast_trace(vec![
            (0, vec![400, 400]),
            (1, vec![300, 300]),
            (2, vec![5, 5, 5, 5]),
            (30, vec![4, 4, 4]),
        ]);
        let dynamics = DynamicsScript::none()
            .down_at(SimTime::from_micros(50_000), 1)
            .up_at(SimTime::from_micros(700_000), 1);
        let cfg = ProtoConfig {
            workers: 4,
            dynamics,
            faults: chaos_faults(),
            ..fast_cfg(virtual_mode())
        };
        let a = run_prototype(&trace, hawk(), &cfg);
        assert_eq!(a.results.len(), 4, "churn plus faults must not strand jobs");
        let b = run_prototype(&trace, hawk(), &cfg);
        assert_eq!(a, b, "churn plus faults must replay byte-identically");
    }

    #[test]
    #[should_panic(expected = "virtual-clock mode")]
    fn faults_in_real_time_mode_rejected() {
        let trace = fast_trace(vec![(0, vec![5])]);
        let cfg = ProtoConfig {
            faults: chaos_faults(),
            ..fast_cfg(ExecutionMode::RealTime)
        };
        let _ = run_prototype(&trace, hawk(), &cfg);
    }

    #[test]
    fn admission_sheds_overload_in_both_modes() {
        // One worker, a 10 ms gate window with no headroom to spare: a
        // burst of 200 ms long jobs at t=0 blows the per-window budget
        // (10 ms of node-seconds), so most of the burst defers and then
        // sheds, while the short job rides the protected lane. Shed and
        // deferral counts come from the shared pure plan, so both modes
        // must agree exactly; shed jobs must report zero runtime.
        let trace = fast_trace(vec![
            (0, vec![200]),
            (0, vec![200]),
            (0, vec![200]),
            (0, vec![200]),
            (1, vec![2]), // short: protected, always admitted
        ]);
        let policy = AdmissionPolicy {
            window: SimDuration::from_millis(10),
            headroom: 1.0,
            max_defer_windows: 2,
            protect_short: true,
        };
        let mut reports = Vec::new();
        for mode in [virtual_mode(), ExecutionMode::RealTime] {
            let cfg = ProtoConfig {
                workers: 1,
                dist_schedulers: 1,
                admission: Some(policy),
                ..fast_cfg(mode)
            };
            let report = run_prototype(&trace, hawk(), &cfg);
            assert_eq!(report.results.len(), 5, "{mode:?}");
            assert!(report.admission.sheds() > 0, "{mode:?}");
            assert_eq!(report.admission.sheds_short, 0, "{mode:?}");
            reports.push(report);
        }
        // Exact cross-mode counter parity: the plan is mode-independent.
        assert_eq!(reports[0].admission, reports[1].admission);
        // A shed long job reports zero runtime and is excluded from the
        // streaming sinks; admitted jobs still land there.
        let shed_longs = reports[0]
            .results
            .iter()
            .filter(|r| r.true_class == JobClass::Long && r.runtime() == SimDuration::ZERO)
            .count() as u64;
        assert_eq!(shed_longs, reports[0].admission.sheds_long);
        assert_eq!(
            reports[0].streaming.long.jobs + reports[0].admission.sheds_long,
            4
        );
        assert_eq!(reports[0].streaming.short.jobs, 1);
    }

    #[test]
    #[should_panic(expected = "dynamics script touches server")]
    fn dynamics_beyond_cluster_rejected() {
        let trace = fast_trace(vec![(0, vec![5])]);
        let cfg = ProtoConfig {
            workers: 4,
            dynamics: DynamicsScript::none().down_at(SimTime::from_secs(1), 9),
            ..fast_cfg(virtual_mode())
        };
        let _ = run_prototype(&trace, hawk(), &cfg);
    }
}
