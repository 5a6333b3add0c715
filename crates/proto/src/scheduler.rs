//! Distributed and centralized scheduler daemons.
//!
//! Both daemons keep messages, timers and hardening, and take every
//! protocol decision from `hawk-core` or `hawk-cluster`, the functions
//! the simulator's `Core` calls:
//!
//! * A [`DistScheduler`] owns the jobs submitted to it (each job
//!   conceptually has its own scheduler, §3.5) and places probes by
//!   calling [`Scheduler::probe_targets`] over
//!   [`PlacementView::for_probes`] of its **shadow cluster** — a
//!   membership-only [`hawk_cluster::Cluster`] kept current by scenario
//!   dynamics notifications. On a static cluster the shadow is the
//!   identity; under churn it holds the same live servers as the
//!   simulator's cluster, so failed servers are never probed. (Queue
//!   depths in the shadow are zero: a real distributed scheduler has no
//!   global queue state — load-aware policies see a uniform view, which
//!   is the honest distributed-systems answer.)
//! * The [`CentralDaemon`] wraps [`hawk_core::CentralScheduler`], the
//!   simulator's §3.7 waiting-time scheduler: placement, completion,
//!   membership ([`CentralScheduler::fail`] / [`CentralScheduler::revive`])
//!   and migration ([`CentralScheduler::migrate`]) are its calls. The
//!   daemon adds only per-job completion counting and message plumbing.
//! * Both build a task's spec with [`TaskSpec::of`], and a
//!   [`DistScheduler`] re-places a displaced probe with
//!   [`displaced_probe`].
//!
//! A submission names its job and class only: both daemons borrow the run's
//! [`Trace`] and read a job's task durations from it, so no daemon holds a
//! copy of them.
//!
//! # The hardened protocol
//!
//! With a [`TimeoutSpec`] (the fault-injecting router's companion), both
//! daemons track per-task launch state keyed by `(job, task, attempt)`
//! and run a **per-job timer chain**: a self-timer armed at submission
//! and re-armed with exponential backoff (capped at 8× the base) until
//! the job completes. Each fire re-probes a fresh server while unlaunched
//! tasks remain (counted as `retries`) and relaunches handed-out tasks
//! presumed lost — older than [`TimeoutSpec::launch_deadline`] — under a
//! bumped attempt number (counted as `relaunched`). Completions dedup by
//! task index, first report wins, so duplicated messages and
//! doubly-executed relaunches are harmless. Without a `TimeoutSpec` the
//! daemons run the exact historical code path: no timers, no clock reads,
//! no extra state.
//!
//! The chains fire far more often than they find work (a long job lives
//! for hours of virtual time against a 240 s capped interval), so their
//! bookkeeping is O(1) per message: the centralized daemon keeps, per
//! job, a lower bound on the earliest instant any outstanding task can be
//! overdue and does not scan before it (see `CentralJob::next_overdue`);
//! a distributed scheduler keeps a first-unlaunched cursor and an
//! unlaunched count per job. Both are pure accelerations — the full scans
//! they replace survive as the `#[cfg(test)]` reference the differential
//! tests run them against. Job state lives in dense tables indexed by the
//! trace's dense [`JobId`]s.
//!
//! A job's state is freed when the job completes, in both modes, so what a
//! daemon holds is sized by the jobs in flight, not by the run's length.
//! Every handler treats an unknown job exactly as a finished one: a bind
//! is answered with a cancel, a displaced probe is abandoned, a late
//! completion or relocation does nothing, and a chain fire counts as a
//! stale timer.

use std::sync::Arc;

use hawk_cluster::{Cluster, QueueEntry, ServerId, TaskSpec};
use hawk_core::{displaced_probe, late_bind, CentralScheduler, PlacementView, Scheduler};
use hawk_simcore::{SimDuration, SimRng, SimTime};
use hawk_workload::scenario::NodeChange;
use hawk_workload::{Job, JobClass, JobId, Trace};

use crate::fault::TimeoutSpec;
use crate::msg::{CentralMsg, DistMsg, Net, WorkerMsg};
use crate::report::DaemonStats;

impl TimeoutSpec {
    /// How long a handed-out task may stay unconfirmed before the per-job
    /// chain presumes it lost: four times its duration (covers slow
    /// servers, queue noise and network jitter) plus the chain base,
    /// doubled per prior attempt so spurious relaunches of merely-slow
    /// tasks decay geometrically.
    pub(crate) fn launch_deadline(&self, duration: SimDuration, attempt: u32) -> SimDuration {
        let base = duration
            .as_micros()
            .saturating_mul(4)
            .saturating_add(self.probe.as_micros());
        SimDuration::from_micros(base.saturating_mul(1u64 << attempt.min(5)))
    }

    /// The chain's next interval: exponential backoff capped at 8× base.
    pub(crate) fn next_interval(&self, current: SimDuration) -> SimDuration {
        let cap = self.probe.as_micros().saturating_mul(8);
        SimDuration::from_micros(current.as_micros().saturating_mul(2).min(cap))
    }
}

/// Hardened per-task launch state at a distributed scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
enum TaskState {
    /// Not held by any worker (never handed out, or relaunch-pending).
    Unlaunched,
    /// Handed out via a bind reply at `since`.
    Outstanding {
        /// Virtual time the task was handed out.
        since: SimTime,
    },
    /// First completion recorded; later reports are duplicates.
    Done,
}

/// Hardened extension of a [`DistJob`]: per-task state, attempt counters
/// and the chain's current backoff interval.
struct HardJob {
    state: Vec<TaskState>,
    attempts: Vec<u32>,
    interval: SimDuration,
    /// No task below this index is [`TaskState::Unlaunched`]: where
    /// `bind` starts looking. A relaunch lowers it; nothing else does.
    first_unlaunched: usize,
    /// How many tasks are [`TaskState::Unlaunched`].
    unlaunched: usize,
}

impl HardJob {
    /// The lowest-indexed task no worker holds. `full_scan` is the
    /// test-only reference: search from the start instead of trusting the
    /// cursor and the count.
    fn lowest_unlaunched(&self, full_scan: bool) -> Option<usize> {
        let from = if full_scan {
            0
        } else if self.unlaunched == 0 {
            return None;
        } else {
            self.first_unlaunched
        };
        self.state[from..]
            .iter()
            .position(|s| *s == TaskState::Unlaunched)
            .map(|i| from + i)
    }

    /// True while some task is held by no worker (see
    /// [`Self::lowest_unlaunched`] for `full_scan`).
    fn has_unlaunched(&self, full_scan: bool) -> bool {
        if full_scan {
            self.state.contains(&TaskState::Unlaunched)
        } else {
            self.unlaunched > 0
        }
    }
}

/// Per-job late-binding state held by a distributed scheduler.
struct DistJob<'t> {
    /// The job, in the trace.
    job: &'t Job,
    estimate: SimDuration,
    class: JobClass,
    /// Late binding's cursor, advanced by [`late_bind`].
    next_task: u32,
    remaining: usize,
    /// `Some` iff the hardened protocol is on.
    hard: Option<HardJob>,
}

impl DistJob<'_> {
    /// True while the job still has a task no worker holds — the
    /// condition under which a displaced probe is worth replacing.
    fn has_unlaunched(&self, full_scan: bool) -> bool {
        match &self.hard {
            Some(hard) => hard.has_unlaunched(full_scan),
            None => (self.next_task as usize) < self.job.num_tasks(),
        }
    }
}

/// A distributed scheduler daemon: Sparrow batch probing with late
/// binding (§3.5), probe placement via the shared [`Scheduler`] trait.
pub(crate) struct DistScheduler<'t> {
    trace: &'t Trace,
    /// This daemon's index — the address its self-timers route back to.
    index: usize,
    scheduler: Arc<dyn Scheduler>,
    /// Membership-only copy of the cluster (see module docs).
    shadow: Cluster,
    /// Job `j`'s state, at `j / stride`: jobs are dealt to the
    /// distributed schedulers round-robin by id, so this scheduler's jobs
    /// are `stride` apart and the table is dense. A slot is a pointer,
    /// and a box while the job is in flight.
    jobs: Vec<Option<Box<DistJob<'t>>>>,
    /// The number of distributed schedulers.
    stride: usize,
    rng: SimRng,
    timeouts: Option<TimeoutSpec>,
    probe_buf: Vec<ServerId>,
    drain_scratch: Vec<QueueEntry>,
    pub(crate) stats: DaemonStats,
    /// Answer every bookkeeping question by the full scan the cursor and
    /// the count replaced — the differential tests' reference.
    #[cfg(test)]
    full_scan: bool,
}

impl<'t> DistScheduler<'t> {
    pub(crate) fn new(
        trace: &'t Trace,
        index: usize,
        stride: usize,
        scheduler: Arc<dyn Scheduler>,
        workers: usize,
        rng: SimRng,
        timeouts: Option<TimeoutSpec>,
    ) -> Self {
        let shadow = Cluster::new(workers, scheduler.short_partition_fraction());
        DistScheduler {
            trace,
            index,
            scheduler,
            shadow,
            jobs: Vec::new(),
            stride,
            rng,
            timeouts,
            probe_buf: Vec::new(),
            drain_scratch: Vec::new(),
            stats: DaemonStats::default(),
            #[cfg(test)]
            full_scan: false,
        }
    }

    fn full_scan(&self) -> bool {
        #[cfg(test)]
        return self.full_scan;
        #[cfg(not(test))]
        false
    }

    fn job_mut(&mut self, job: JobId) -> Option<&mut DistJob<'t>> {
        self.jobs.get_mut(job.index() / self.stride)?.as_deref_mut()
    }

    /// Sends a probe for `job` that has bounced `bounces` times to a
    /// random live server of its scope.
    fn send_probe(&mut self, job: JobId, class: JobClass, bounces: u8, net: &mut impl Net) {
        let target = PlacementView::for_probes(&self.shadow, &*self.scheduler, class)
            .random_server(&mut self.rng);
        net.send_worker(
            target.index(),
            WorkerMsg::Probe {
                job,
                class,
                bounces,
            },
        );
    }

    /// Handles one message; returns `true` on shutdown.
    pub(crate) fn handle(&mut self, msg: DistMsg, net: &mut impl Net) -> bool {
        self.stats.deliveries.record(msg.kind());
        match msg {
            DistMsg::Submit { job, class } => self.submit(job, class, net),
            DistMsg::TaskRequest { job, worker } => self.bind(job, worker, net),
            DistMsg::TaskDone { job, task } => self.complete(job, task, net),
            DistMsg::ReProbe { job, class } => self.reprobe(job, class, net),
            // Forward a bounced probe, preserving the hop count.
            DistMsg::Bounce {
                job,
                class,
                bounces,
            } => self.send_probe(job, class, bounces, net),
            DistMsg::JobTimeout { job } => self.on_job_timeout(job, net),
            DistMsg::Node(change) => self.on_node(change),
            DistMsg::Shutdown => return true,
        }
        false
    }

    fn submit(&mut self, job: JobId, class: JobClass, net: &mut impl Net) {
        let spec = self.trace.job(job);
        let t = spec.num_tasks();
        let hard = self.timeouts.map(|to| HardJob {
            state: vec![TaskState::Unlaunched; t],
            attempts: vec![0; t],
            interval: to.probe,
            first_unlaunched: 0,
            unlaunched: t,
        });
        let slot = job.index() / self.stride;
        if slot >= self.jobs.len() {
            self.jobs.resize_with(slot + 1, || None);
        }
        self.jobs[slot] = Some(Box::new(DistJob {
            job: spec,
            estimate: spec.mean_task_duration(),
            class,
            next_task: 0,
            remaining: t,
            hard,
        }));
        // Probe placement is the policy's own hook — the same call the
        // simulation driver makes on a job arrival.
        let view = PlacementView::for_probes(&self.shadow, &*self.scheduler, class);
        let mut probes = std::mem::take(&mut self.probe_buf);
        probes.clear();
        self.scheduler
            .probe_targets(&view, t, &mut self.rng, &mut probes);
        for &server in &probes {
            net.send_worker(
                server.index(),
                WorkerMsg::Probe {
                    job,
                    class,
                    bounces: 0,
                },
            );
        }
        self.probe_buf = probes;
        if let Some(to) = self.timeouts {
            net.self_timer_dist(self.index, to.probe, DistMsg::JobTimeout { job });
        }
    }

    fn bind(&mut self, job: JobId, worker: usize, net: &mut impl Net) {
        let full_scan = self.full_scan();
        let reply = match self.job_mut(job) {
            Some(state) => {
                let (estimate, class) = (state.estimate, state.class);
                match &mut state.hard {
                    // Fault-free: the next task in order, then a cancel
                    // (§3.5).
                    None => late_bind(&mut state.next_task, state.job.num_tasks())
                        .map(|idx| TaskSpec::of(state.job, idx, estimate, class)),
                    // Hardened: hand out the first task no worker holds —
                    // relaunched tasks re-enter here under a bumped
                    // attempt.
                    Some(hard) => hard.lowest_unlaunched(full_scan).map(|idx| {
                        hard.state[idx] = TaskState::Outstanding { since: net.now() };
                        hard.first_unlaunched = idx + 1;
                        hard.unlaunched -= 1;
                        TaskSpec {
                            attempt: hard.attempts[idx],
                            ..TaskSpec::of(state.job, idx as u32, estimate, class)
                        }
                    }),
                }
            }
            // A finished job: cancel.
            None => None,
        };
        net.send_worker(worker, WorkerMsg::BindReply { job, task: reply });
    }

    /// Records a completion. The job's slot is freed with its last task,
    /// so a late report of a finished job finds nothing and does nothing.
    fn complete(&mut self, job: JobId, task: u32, net: &mut impl Net) {
        let Some(state) = self.job_mut(job) else {
            return;
        };
        if let Some(hard) = &mut state.hard {
            // Idempotent completion: dedup by task index, first report
            // wins — network dups and doubly-executed relaunches fall
            // through silently.
            if hard.state[task as usize] == TaskState::Done {
                return;
            }
            // A relaunch-pending task can still be finished by the attempt
            // that was presumed lost.
            if hard.state[task as usize] == TaskState::Unlaunched {
                hard.unlaunched -= 1;
            }
            hard.state[task as usize] = TaskState::Done;
        }
        state.remaining -= 1;
        if state.remaining == 0 {
            self.jobs[job.index() / self.stride] = None;
            net.job_done(job);
        }
    }

    /// A displaced probe: re-probed or abandoned as [`displaced_probe`]
    /// decides, with a finished job's probe abandoned.
    fn reprobe(&mut self, job: JobId, class: JobClass, net: &mut impl Net) {
        let full_scan = self.full_scan();
        let unlaunched = self
            .job_mut(job)
            .is_some_and(|state| state.has_unlaunched(full_scan));
        let rng = &mut self.rng;
        let Some(target) = displaced_probe(unlaunched, &self.shadow, &*self.scheduler, class, rng)
        else {
            self.stats.abandons += 1;
            return;
        };
        self.stats.migrations += 1;
        let probe = WorkerMsg::Probe {
            job,
            class,
            bounces: 0,
        };
        net.send_worker(target.index(), probe);
    }

    /// The per-job chain fires: relaunch overdue handed-out tasks,
    /// re-probe while unlaunched work remains, and re-arm with backoff —
    /// the chain ends only with the job.
    fn on_job_timeout(&mut self, job: JobId, net: &mut impl Net) {
        let Some(to) = self.timeouts else { return };
        let now = net.now();
        let full_scan = self.full_scan();
        let Some(state) = self.job_mut(job) else {
            // The job finished.
            self.stats.stale_timers += 1;
            return;
        };
        let hard = state.hard.as_mut().expect("hardened job state");
        let mut relaunched = 0u64;
        for (i, s) in hard.state.iter_mut().enumerate() {
            if let TaskState::Outstanding { since } = *s {
                if now - since >= to.launch_deadline(state.job.tasks[i], hard.attempts[i]) {
                    // Presumed lost (the bind reply, the worker, or its
                    // completion report): back in play, next attempt.
                    *s = TaskState::Unlaunched;
                    hard.attempts[i] += 1;
                    hard.first_unlaunched = hard.first_unlaunched.min(i);
                    hard.unlaunched += 1;
                    relaunched += 1;
                }
            }
        }
        let interval = hard.interval;
        hard.interval = to.next_interval(interval);
        let unlaunched = hard.has_unlaunched(full_scan);
        let class = state.class;
        self.stats.relaunched += relaunched;
        if relaunched > 0 {
            self.stats.timeouts_fired += 1;
        }
        if unlaunched {
            // A reservation may have died with a dropped probe or a
            // relaunch above: keep one fresh reservation trickling in
            // until every task is handed out.
            self.stats.retries += 1;
            self.send_probe(job, class, 0, net);
        }
        net.self_timer_dist(self.index, interval, DistMsg::JobTimeout { job });
    }

    fn on_node(&mut self, change: NodeChange) {
        match change {
            NodeChange::Down(server) => {
                // The shadow holds no queue state; the drain is empty.
                self.shadow
                    .fail_server(ServerId(server), &mut self.drain_scratch);
                debug_assert!(self.drain_scratch.is_empty());
            }
            NodeChange::Up(server) => {
                self.shadow.revive_server(ServerId(server));
            }
        }
    }
}

/// Hardened per-task state of a centrally-placed task.
#[derive(Debug, Clone, Copy, PartialEq)]
enum CentralTask {
    /// Assigned to `worker` at `since` under `attempt`.
    Outstanding {
        worker: usize,
        since: SimTime,
        attempt: u32,
        /// The §3.7 estimated queue wait of `worker` when the task was
        /// placed there. A centrally-placed task legitimately waits this
        /// long before it even starts, so the relaunch deadline starts
        /// counting *after* it — otherwise a backlogged (but healthy)
        /// cell mass-relaunches queued work and amplifies its own load.
        expected: SimDuration,
    },
    /// First completion recorded.
    Done,
}

impl CentralTask {
    /// The instant the chain presumes this task lost: it legitimately
    /// queues for `expected` before it can start, so the loss deadline
    /// counts from there. `None` once done.
    fn overdue_at(&self, duration: SimDuration, to: &TimeoutSpec) -> Option<SimTime> {
        match *self {
            CentralTask::Outstanding {
                since,
                attempt,
                expected,
                ..
            } => Some(SimTime::from_micros(
                since
                    .as_micros()
                    .saturating_add(expected.as_micros())
                    .saturating_add(to.launch_deadline(duration, attempt).as_micros()),
            )),
            CentralTask::Done => None,
        }
    }
}

/// Per-job state at the centralized daemon. Fault-free runs use only
/// `remaining`; the rest powers the hardened relaunch chain.
struct CentralJob<'t> {
    remaining: usize,
    estimate: SimDuration,
    class: JobClass,
    /// The job, in the trace.
    job: &'t Job,
    /// Empty unless hardened.
    state: Vec<CentralTask>,
    interval: SimDuration,
    /// The chain bound: no outstanding task's [`CentralTask::overdue_at`]
    /// is earlier than this, so a chain fire before it has nothing to
    /// relaunch and does not scan. Every scan recomputes it; a relocation
    /// or relaunch lowers it to the deadline it installs when that is
    /// younger; a completion never raises it (a bound left too low costs
    /// one scan, a bound too high would lose a task).
    next_overdue: SimTime,
}

impl CentralJob<'_> {
    /// The outstanding task the chain would presume lost first — the most
    /// overdue once its deadline has passed — with that deadline; the
    /// lowest index on ties.
    fn earliest_deadline(&self, to: &TimeoutSpec) -> Option<(SimTime, usize)> {
        let deadline = |(i, task): (usize, &CentralTask)| {
            task.overdue_at(self.job.tasks[i], to).map(|at| (at, i))
        };
        self.state.iter().enumerate().filter_map(deadline).min()
    }
}

/// The centralized scheduler daemon: the shared §3.7 waiting-time
/// algorithm ([`hawk_core::CentralScheduler`]) behind a mailbox.
pub(crate) struct CentralDaemon<'t> {
    trace: &'t Trace,
    inner: CentralScheduler,
    /// Job state by [`JobId`]. Only centrally-routed jobs in flight have
    /// an entry, so the table holds a pointer per trace job and a box per
    /// entry.
    jobs: Vec<Option<Box<CentralJob<'t>>>>,
    timeouts: Option<TimeoutSpec>,
    place_buf: Vec<ServerId>,
    pub(crate) stats: DaemonStats,
    /// Scan on every chain fire, whatever the bound says — the
    /// differential tests' reference.
    #[cfg(test)]
    full_scan: bool,
}

impl<'t> CentralDaemon<'t> {
    pub(crate) fn new(trace: &'t Trace, scope: usize, timeouts: Option<TimeoutSpec>) -> Self {
        CentralDaemon {
            trace,
            inner: CentralScheduler::new(scope),
            jobs: Vec::new(),
            timeouts,
            place_buf: Vec::new(),
            stats: DaemonStats::default(),
            #[cfg(test)]
            full_scan: false,
        }
    }

    fn full_scan(&self) -> bool {
        #[cfg(test)]
        return self.full_scan;
        #[cfg(not(test))]
        false
    }

    /// Handles one message; returns `true` on shutdown.
    pub(crate) fn handle(&mut self, msg: CentralMsg, net: &mut impl Net) -> bool {
        self.stats.deliveries.record(msg.kind());
        match msg {
            CentralMsg::Submit { job, class } => self.submit(job, class, net),
            CentralMsg::TaskDone { job, worker, task } => self.complete(job, worker, task, net),
            CentralMsg::Relocate { from, spec } => self.relocate(from, spec, net),
            CentralMsg::JobTimeout { job } => self.on_job_timeout(job, net),
            CentralMsg::Node(NodeChange::Down(server)) => self.inner.fail(ServerId(server)),
            CentralMsg::Node(NodeChange::Up(server)) => self.inner.revive(ServerId(server)),
            CentralMsg::Shutdown => return true,
        }
        false
    }

    fn submit(&mut self, job: JobId, class: JobClass, net: &mut impl Net) {
        let spec = self.trace.job(job);
        let (t, estimate) = (spec.num_tasks(), spec.mean_task_duration());
        let mut placement = std::mem::take(&mut self.place_buf);
        self.inner.assign_job_into(t, estimate, &mut placement);
        let state: Vec<CentralTask> = if self.timeouts.is_some() {
            let now = net.now();
            placement
                .iter()
                .map(|s| CentralTask::Outstanding {
                    worker: s.index(),
                    since: now,
                    attempt: 0,
                    // Read after the whole job charged: conservative (it
                    // includes sibling tasks queued ahead on the same
                    // worker).
                    expected: self.inner.estimated_wait(*s),
                })
                .collect()
        } else {
            Vec::new()
        };
        for (task, &server) in (0..).zip(&placement) {
            let assign = WorkerMsg::Assign(TaskSpec::of(spec, task, estimate, class));
            net.send_worker(server.index(), assign);
        }
        self.place_buf = placement;
        let interval = self
            .timeouts
            .map(|to| to.probe)
            .unwrap_or(SimDuration::ZERO);
        if job.index() >= self.jobs.len() {
            self.jobs.resize_with(job.index() + 1, || None);
        }
        self.jobs[job.index()] = Some(Box::new(CentralJob {
            remaining: t,
            estimate,
            class,
            job: spec,
            state,
            interval,
            // Deliberately low: the first chain fire scans and sets it.
            next_overdue: SimTime::ZERO,
        }));
        if let Some(to) = self.timeouts {
            net.self_timer_central(to.probe, CentralMsg::JobTimeout { job });
        }
    }

    /// Records a completion, releasing the job's estimate (the one charged
    /// at assignment) from the §3.7 bookkeeping. The job's slot is freed
    /// with its last task, so a late report of a finished job finds
    /// nothing and does nothing.
    fn complete(&mut self, job: JobId, worker: usize, task: u32, net: &mut impl Net) {
        let Some(state) = self.jobs.get_mut(job.index()).and_then(Option::as_mut) else {
            return;
        };
        let mut charged = worker;
        if let Some(task) = state.state.get_mut(task as usize) {
            // Hardened, idempotent: dedup by task index. The waiting-time
            // charge is released from the *currently charged* worker (a
            // relaunch may have moved it off the reporting one), so the
            // §3.7 bookkeeping never leaks.
            let CentralTask::Outstanding { worker, .. } = *task else {
                return;
            };
            charged = worker;
            *task = CentralTask::Done;
        }
        self.inner
            .on_task_complete(ServerId(charged as u32), state.estimate);
        state.remaining -= 1;
        if state.remaining == 0 {
            self.jobs[job.index()] = None;
            net.job_done(job);
        }
    }

    /// A displaced task moves where [`CentralScheduler::migrate`] puts it:
    /// the live server the §3.7 queue would pick next, bookkeeping
    /// following the task.
    fn relocate(&mut self, from: usize, spec: TaskSpec, net: &mut impl Net) {
        let task = spec.task as usize;
        let state = self.jobs.get_mut(spec.job.index()).and_then(Option::as_mut);
        // Hardened: a stale relocation (the chain already relaunched this
        // task, or it completed) must not double-place it.
        let current = |task: &CentralTask| {
            matches!(*task, CentralTask::Outstanding { worker, attempt, .. }
                if worker == from && attempt == spec.attempt)
        };
        let hard = match (self.timeouts, state) {
            (None, _) => None,
            (Some(to), Some(state)) if current(&state.state[task]) => Some((to, state)),
            _ => return,
        };
        let target = self.inner.migrate(ServerId(from as u32), spec.estimate);
        self.stats.migrations += 1;
        if let Some((to, state)) = hard {
            let moved = CentralTask::Outstanding {
                worker: target.index(),
                since: net.now(),
                attempt: spec.attempt,
                expected: self.inner.estimated_wait(target),
            };
            // The move restarts the task's clock on a server with a
            // different backlog: its deadline can now fall before
            // everything the bound was computed from.
            let at = moved
                .overdue_at(state.job.tasks[task], &to)
                .expect("outstanding tasks have a deadline");
            state.next_overdue = state.next_overdue.min(at);
            state.state[task] = moved;
        }
        net.send_worker(target.index(), WorkerMsg::Assign(spec));
    }

    /// The per-job chain fires: relaunch at most one overdue task — the
    /// most overdue, rate-limiting duplication since a relaunch of a
    /// merely-slow task wastes a slot — and re-arm with backoff until the
    /// job completes. Before the job's chain bound no task can be overdue
    /// and the fire only re-arms.
    fn on_job_timeout(&mut self, job: JobId, net: &mut impl Net) {
        let Some(to) = self.timeouts else { return };
        let now = net.now();
        let full_scan = self.full_scan();
        let Some(state) = self.jobs.get_mut(job.index()).and_then(Option::as_mut) else {
            // The job finished.
            self.stats.stale_timers += 1;
            return;
        };
        if full_scan || now >= state.next_overdue {
            let mut earliest = state.earliest_deadline(&to);
            if let Some((_, i)) = earliest.filter(|&(at, _)| at <= now) {
                let CentralTask::Outstanding {
                    worker: old_worker,
                    attempt,
                    ..
                } = state.state[i]
                else {
                    unreachable!("only outstanding tasks have a deadline");
                };
                let target = self
                    .inner
                    .migrate(ServerId(old_worker as u32), state.estimate);
                let attempt = attempt + 1;
                state.state[i] = CentralTask::Outstanding {
                    worker: target.index(),
                    since: now,
                    attempt,
                    expected: self.inner.estimated_wait(target),
                };
                self.stats.relaunched += 1;
                self.stats.timeouts_fired += 1;
                let spec = TaskSpec::of(state.job, i as u32, state.estimate, state.class);
                let assign = WorkerMsg::Assign(TaskSpec { attempt, ..spec });
                net.send_worker(target.index(), assign);
                // The relaunch installed a deadline of its own.
                earliest = state.earliest_deadline(&to);
            }
            state.next_overdue = earliest.map_or(SimTime::MAX, |(at, _)| at);
        }
        let interval = state.interval;
        state.interval = to.next_interval(interval);
        net.self_timer_central(interval, CentralMsg::JobTimeout { job });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hawk_core::scheduler::{Hawk, Sparrow};
    use hawk_workload::Job;

    #[derive(Default)]
    struct RecordingNet {
        now: SimTime,
        worker_msgs: Vec<(usize, WorkerMsg)>,
        dist_timers: Vec<(usize, SimDuration, DistMsg)>,
        central_timers: Vec<(SimDuration, CentralMsg)>,
        done: Vec<JobId>,
    }

    impl Net for RecordingNet {
        fn send_worker(&mut self, to: usize, msg: WorkerMsg) {
            self.worker_msgs.push((to, msg));
        }
        fn send_dist(&mut self, _to: usize, _msg: DistMsg) {}
        fn send_central(&mut self, _msg: CentralMsg) {}
        fn schedule_finish(&mut self, _worker: usize, _occupancy: SimDuration) {}
        fn job_done(&mut self, job: JobId) {
            self.done.push(job);
        }
        fn add_running(&mut self, _delta: i64) {}
        fn add_capacity(&mut self, _delta: i64) {}
        fn now(&self) -> SimTime {
            self.now
        }
        fn self_timer_dist(&mut self, to: usize, after: SimDuration, msg: DistMsg) {
            self.dist_timers.push((to, after, msg));
        }
        fn self_timer_central(&mut self, after: SimDuration, msg: CentralMsg) {
            self.central_timers.push((after, msg));
        }
    }

    /// A trace of one job per entry of `jobs`, each given by its task
    /// durations in seconds, all submitted at zero.
    fn trace_of(jobs: &[&[u64]]) -> Trace {
        let jobs = jobs
            .iter()
            .enumerate()
            .map(|(i, tasks)| Job {
                id: JobId(i as u32),
                submission: SimTime::ZERO,
                tasks: tasks.iter().map(|&s| SimDuration::from_secs(s)).collect(),
                generated_class: None,
            })
            .collect();
        Trace::new(jobs).unwrap()
    }

    /// `jobs` jobs of `tasks` tasks of `secs` seconds each.
    fn uniform_trace(jobs: usize, tasks: usize, secs: u64) -> Trace {
        trace_of(&vec![vec![secs; tasks].as_slice(); jobs])
    }

    fn dist(
        trace: &Trace,
        scheduler: Arc<dyn Scheduler>,
        workers: usize,
        seed: u64,
    ) -> DistScheduler<'_> {
        DistScheduler::new(
            trace,
            0,
            1,
            scheduler,
            workers,
            SimRng::seed_from_u64(seed),
            None,
        )
    }

    fn submit(job: u32, class: JobClass) -> DistMsg {
        DistMsg::Submit {
            job: JobId(job),
            class,
        }
    }

    fn central_submit(job: u32) -> CentralMsg {
        CentralMsg::Submit {
            job: JobId(job),
            class: JobClass::Long,
        }
    }

    #[test]
    fn submit_sends_probe_ratio_times_tasks_probes() {
        let trace = uniform_trace(2, 4, 10);
        let mut sched = dist(&trace, Arc::new(Sparrow::new()), 50, 3);
        let mut net = RecordingNet::default();
        sched.handle(submit(1, JobClass::Short), &mut net);
        assert_eq!(net.worker_msgs.len(), 8, "2t probes");
        let mut targets: Vec<usize> = net.worker_msgs.iter().map(|(to, _)| *to).collect();
        targets.sort_unstable();
        targets.dedup();
        assert_eq!(targets.len(), 8, "distinct while the scope allows");
        assert!(net.dist_timers.is_empty(), "no timers unless hardened");
    }

    #[test]
    fn hawk_short_probes_cover_the_whole_cluster() {
        // Hawk shorts probe Scope::Whole — including the reserved
        // partition — which is what makes stealing able to rescue them.
        let trace = uniform_trace(20, 2, 1);
        let mut sched = dist(&trace, Arc::new(Hawk::new(0.5)), 10, 1);
        let mut net = RecordingNet::default();
        for j in 0..20 {
            sched.handle(submit(j, JobClass::Short), &mut net);
        }
        assert!(
            net.worker_msgs.iter().any(|(to, _)| *to >= 5),
            "short probes must reach the reserved partition"
        );
    }

    #[test]
    fn late_binding_hands_out_tasks_then_cancels() {
        let trace = uniform_trace(2, 1, 7);
        let mut sched = dist(&trace, Arc::new(Sparrow::new()), 10, 5);
        let mut net = RecordingNet::default();
        sched.handle(submit(1, JobClass::Short), &mut net);
        net.worker_msgs.clear();
        sched.handle(
            DistMsg::TaskRequest {
                job: JobId(1),
                worker: 4,
            },
            &mut net,
        );
        sched.handle(
            DistMsg::TaskRequest {
                job: JobId(1),
                worker: 6,
            },
            &mut net,
        );
        match (&net.worker_msgs[0], &net.worker_msgs[1]) {
            (
                (
                    4,
                    WorkerMsg::BindReply {
                        task: Some(spec), ..
                    },
                ),
                (6, WorkerMsg::BindReply { task: None, .. }),
            ) => {
                assert_eq!(spec.job, JobId(1));
                assert_eq!(spec.duration, SimDuration::from_secs(7));
                assert_eq!((spec.task, spec.attempt), (0, 0));
            }
            other => panic!("expected a task then a cancel, got {other:?}"),
        }
        // Completion of the single task completes the job.
        sched.handle(
            DistMsg::TaskDone {
                job: JobId(1),
                task: 0,
            },
            &mut net,
        );
        assert_eq!(net.done, vec![JobId(1)]);
    }

    #[test]
    fn shadow_cluster_keeps_probes_off_failed_servers() {
        let trace = uniform_trace(40, 2, 1);
        let mut sched = dist(&trace, Arc::new(Sparrow::new()), 4, 9);
        let mut net = RecordingNet::default();
        for s in [0u32, 1] {
            sched.handle(DistMsg::Node(NodeChange::Down(s)), &mut net);
        }
        for j in 0..10 {
            sched.handle(submit(j, JobClass::Short), &mut net);
        }
        assert!(
            net.worker_msgs.iter().all(|(to, _)| *to >= 2),
            "probes must avoid down servers"
        );
        // Revival restores the full scope.
        sched.handle(DistMsg::Node(NodeChange::Up(0)), &mut net);
        net.worker_msgs.clear();
        for j in 10..40 {
            sched.handle(submit(j, JobClass::Short), &mut net);
        }
        assert!(net.worker_msgs.iter().any(|(to, _)| *to == 0));
        assert!(net.worker_msgs.iter().all(|(to, _)| *to != 1));
    }

    #[test]
    fn reprobe_migrates_live_jobs_and_abandons_drained_ones() {
        let trace = uniform_trace(2, 1, 5);
        let mut sched = dist(&trace, Arc::new(Sparrow::new()), 8, 2);
        let mut net = RecordingNet::default();
        sched.handle(submit(1, JobClass::Short), &mut net);
        net.worker_msgs.clear();
        // Unlaunched task left: re-probe.
        sched.handle(
            DistMsg::ReProbe {
                job: JobId(1),
                class: JobClass::Short,
            },
            &mut net,
        );
        assert_eq!(net.worker_msgs.len(), 1);
        assert_eq!(sched.stats.migrations, 1);
        // Launch the task; now a displaced spare reservation is dead.
        sched.handle(
            DistMsg::TaskRequest {
                job: JobId(1),
                worker: 0,
            },
            &mut net,
        );
        net.worker_msgs.clear();
        sched.handle(
            DistMsg::ReProbe {
                job: JobId(1),
                class: JobClass::Short,
            },
            &mut net,
        );
        assert!(net.worker_msgs.is_empty());
        assert_eq!(sched.stats.abandons, 1);
    }

    #[test]
    fn central_daemon_places_like_the_shared_scheduler() {
        let trace = uniform_trace(2, 4, 100);
        let mut daemon = CentralDaemon::new(&trace, 4, None);
        let mut net = RecordingNet::default();
        daemon.handle(central_submit(1), &mut net);
        // Waiting-time balancing: one task per server.
        let mut targets: Vec<usize> = net.worker_msgs.iter().map(|(to, _)| *to).collect();
        targets.sort_unstable();
        assert_eq!(targets, vec![0, 1, 2, 3]);
        // Completions drain the job.
        for w in 0..4 {
            daemon.handle(
                CentralMsg::TaskDone {
                    job: JobId(1),
                    worker: w,
                    task: w as u32,
                },
                &mut net,
            );
        }
        assert_eq!(net.done, vec![JobId(1)]);
    }

    #[test]
    fn central_daemon_relocates_off_failed_workers() {
        let trace = uniform_trace(2, 1, 50);
        let mut daemon = CentralDaemon::new(&trace, 2, None);
        let mut net = RecordingNet::default();
        daemon.handle(central_submit(1), &mut net);
        let placed_on = net.worker_msgs[0].0;
        daemon.handle(
            CentralMsg::Node(NodeChange::Down(placed_on as u32)),
            &mut net,
        );
        net.worker_msgs.clear();
        let spec = TaskSpec {
            job: JobId(1),
            duration: SimDuration::from_secs(50),
            estimate: SimDuration::from_secs(50),
            class: JobClass::Long,
            task: 0,
            attempt: 0,
        };
        daemon.handle(
            CentralMsg::Relocate {
                from: placed_on,
                spec,
            },
            &mut net,
        );
        let (target, msg) = &net.worker_msgs[0];
        assert_ne!(*target, placed_on, "relocation must pick a live server");
        assert!(matches!(msg, WorkerMsg::Assign(_)));
        assert_eq!(daemon.stats.migrations, 1);
    }

    /// A repeated down is one transition: after `Down(1)`, `Down(1)`,
    /// `Up(1)` worker 1 is back in the §3.7 queue, and a 2-task job spreads
    /// over both workers.
    #[test]
    fn central_daemon_ignores_a_repeated_down() {
        let trace = uniform_trace(2, 2, 100);
        let mut daemon = CentralDaemon::new(&trace, 2, None);
        let mut net = RecordingNet::default();
        for change in [NodeChange::Down(1), NodeChange::Down(1), NodeChange::Up(1)] {
            daemon.handle(CentralMsg::Node(change), &mut net);
        }
        daemon.handle(central_submit(1), &mut net);
        let mut targets: Vec<usize> = net.worker_msgs.iter().map(|(to, _)| *to).collect();
        targets.sort_unstable();
        assert_eq!(targets, vec![0, 1]);
    }

    /// An up with no down before it leaves the worker's charged work alone.
    #[test]
    fn central_daemon_ignores_an_up_without_a_down() {
        let trace = uniform_trace(2, 2, 100);
        let mut daemon = CentralDaemon::new(&trace, 2, None);
        let mut net = RecordingNet::default();
        daemon.handle(central_submit(1), &mut net);
        daemon.handle(CentralMsg::Node(NodeChange::Up(1)), &mut net);
        assert_eq!(
            daemon.inner.estimated_wait(ServerId(1)),
            SimDuration::from_secs(100)
        );
    }

    // --- Hardened-protocol units ---

    fn hardened_spec() -> TimeoutSpec {
        TimeoutSpec {
            probe: SimDuration::from_secs(10),
            bind: SimDuration::from_secs(1),
            steal: SimDuration::from_secs(1),
            retries: 2,
        }
    }

    #[test]
    fn hardened_submit_arms_the_job_chain_and_dedups_completions() {
        let trace = uniform_trace(2, 2, 5);
        let mut sched = DistScheduler::new(
            &trace,
            3,
            1,
            Arc::new(Sparrow::new()),
            8,
            SimRng::seed_from_u64(7),
            Some(hardened_spec()),
        );
        let mut net = RecordingNet::default();
        sched.handle(submit(1, JobClass::Short), &mut net);
        assert_eq!(
            net.dist_timers,
            vec![(
                3,
                SimDuration::from_secs(10),
                DistMsg::JobTimeout { job: JobId(1) }
            )]
        );
        // Hand out both tasks.
        for w in [0, 1] {
            sched.handle(
                DistMsg::TaskRequest {
                    job: JobId(1),
                    worker: w,
                },
                &mut net,
            );
        }
        // A duplicated completion of task 0 must not steal task 1's slot.
        for _ in 0..2 {
            sched.handle(
                DistMsg::TaskDone {
                    job: JobId(1),
                    task: 0,
                },
                &mut net,
            );
        }
        assert!(net.done.is_empty(), "job completed off a duplicate");
        sched.handle(
            DistMsg::TaskDone {
                job: JobId(1),
                task: 1,
            },
            &mut net,
        );
        assert_eq!(net.done, vec![JobId(1)]);
        // Late duplicates after completion stay no-ops.
        sched.handle(
            DistMsg::TaskDone {
                job: JobId(1),
                task: 1,
            },
            &mut net,
        );
        assert_eq!(net.done, vec![JobId(1)]);
    }

    #[test]
    fn hardened_chain_relaunches_overdue_tasks_under_a_new_attempt() {
        let trace = uniform_trace(2, 1, 5);
        let mut sched = DistScheduler::new(
            &trace,
            0,
            1,
            Arc::new(Sparrow::new()),
            8,
            SimRng::seed_from_u64(11),
            Some(hardened_spec()),
        );
        let mut net = RecordingNet::default();
        sched.handle(submit(1, JobClass::Short), &mut net);
        sched.handle(
            DistMsg::TaskRequest {
                job: JobId(1),
                worker: 2,
            },
            &mut net,
        );
        // Not yet overdue: the chain re-arms but relaunches nothing.
        net.now = SimTime::ZERO + SimDuration::from_secs(15);
        net.worker_msgs.clear();
        sched.handle(DistMsg::JobTimeout { job: JobId(1) }, &mut net);
        assert_eq!(sched.stats.relaunched, 0);
        assert!(
            net.worker_msgs.is_empty(),
            "no re-probe while all handed out"
        );
        // Past 4×duration + probe = 30 s: relaunched and re-probed.
        net.now = SimTime::ZERO + SimDuration::from_secs(31);
        sched.handle(DistMsg::JobTimeout { job: JobId(1) }, &mut net);
        assert_eq!(sched.stats.relaunched, 1);
        assert_eq!(sched.stats.retries, 1);
        assert_eq!(net.worker_msgs.len(), 1, "one fresh probe");
        // The next bind hands the task out under attempt 1.
        net.worker_msgs.clear();
        sched.handle(
            DistMsg::TaskRequest {
                job: JobId(1),
                worker: 5,
            },
            &mut net,
        );
        match &net.worker_msgs[0].1 {
            WorkerMsg::BindReply {
                task: Some(spec), ..
            } => {
                assert_eq!((spec.task, spec.attempt), (0, 1));
            }
            other => panic!("expected a bind, got {other:?}"),
        }
        // Either attempt's completion finishes the job exactly once.
        for _ in 0..2 {
            sched.handle(
                DistMsg::TaskDone {
                    job: JobId(1),
                    task: 0,
                },
                &mut net,
            );
        }
        assert_eq!(net.done, vec![JobId(1)]);
    }

    #[test]
    fn hardened_central_relaunches_and_charges_the_current_worker() {
        let trace = uniform_trace(3, 1, 5);
        let mut daemon = CentralDaemon::new(&trace, 4, Some(hardened_spec()));
        let mut net = RecordingNet::default();
        daemon.handle(central_submit(2), &mut net);
        assert_eq!(net.central_timers.len(), 1);
        let first = net.worker_msgs[0].0;
        // Past the deadline — expected wait (5 s, the task's own charge)
        // plus the launch deadline (4×5 s + 10 s probe) — the chain
        // relaunches on a fresh worker.
        net.now = SimTime::ZERO + SimDuration::from_secs(36);
        net.worker_msgs.clear();
        daemon.handle(CentralMsg::JobTimeout { job: JobId(2) }, &mut net);
        assert_eq!(daemon.stats.relaunched, 1);
        let (second, msg) = net.worker_msgs[0].clone();
        assert_ne!(second, first, "relaunch must move off the charged worker");
        match msg {
            WorkerMsg::Assign(spec) => assert_eq!((spec.task, spec.attempt), (0, 1)),
            other => panic!("expected an assign, got {other:?}"),
        }
        // The original worker still finishes first: the completion is
        // accepted once (releasing the relaunch worker's charge); the
        // duplicate from the relaunch is dropped.
        daemon.handle(
            CentralMsg::TaskDone {
                job: JobId(2),
                worker: first,
                task: 0,
            },
            &mut net,
        );
        daemon.handle(
            CentralMsg::TaskDone {
                job: JobId(2),
                worker: second,
                task: 0,
            },
            &mut net,
        );
        assert_eq!(net.done, vec![JobId(2)]);
        // A stale relocate for the superseded attempt is ignored.
        net.worker_msgs.clear();
        daemon.handle(
            CentralMsg::Relocate {
                from: first,
                spec: TaskSpec {
                    job: JobId(2),
                    duration: SimDuration::from_secs(5),
                    estimate: SimDuration::from_secs(5),
                    class: JobClass::Long,
                    task: 0,
                    attempt: 0,
                },
            },
            &mut net,
        );
        assert!(
            net.worker_msgs.is_empty(),
            "stale relocate re-placed a task"
        );
    }

    // --- Late messages after a job's state is freed ---

    /// The counters a late message could move, in one comparable tuple.
    fn counters(stats: &DaemonStats) -> (u64, u64, u64, u64, u64, u64) {
        (
            stats.migrations,
            stats.abandons,
            stats.stale_timers,
            stats.retries,
            stats.timeouts_fired,
            stats.relaunched,
        )
    }

    #[test]
    fn late_messages_for_a_finished_distributed_job_act_as_before() {
        // Each reply and counter below is what the kept state produced:
        // a finished job cancelled binds, abandoned displaced probes,
        // dropped duplicate reports and counted its chain fires stale.
        let trace = uniform_trace(2, 1, 5);
        for timeouts in [None, Some(hardened_spec())] {
            let mut sched = DistScheduler::new(
                &trace,
                0,
                1,
                Arc::new(Sparrow::new()),
                8,
                SimRng::seed_from_u64(3),
                timeouts,
            );
            let mut net = RecordingNet::default();
            sched.handle(submit(1, JobClass::Short), &mut net);
            let (job, worker) = (JobId(1), 2);
            sched.handle(DistMsg::TaskRequest { job, worker }, &mut net);
            sched.handle(DistMsg::TaskDone { job, task: 0 }, &mut net);
            assert_eq!(net.done, vec![job]);
            assert!(sched.jobs[1].is_none(), "the finished job's slot is freed");
            net.worker_msgs.clear();
            let (before, timers) = (counters(&sched.stats), net.dist_timers.len());

            // A duplicate completion: nothing.
            sched.handle(DistMsg::TaskDone { job, task: 0 }, &mut net);
            assert_eq!(net.done, vec![job]);
            assert!(net.worker_msgs.is_empty());
            assert_eq!(counters(&sched.stats), before);
            // A bind: a cancel.
            sched.handle(DistMsg::TaskRequest { job, worker: 4 }, &mut net);
            assert_eq!(
                net.worker_msgs,
                vec![(4, WorkerMsg::BindReply { job, task: None })]
            );
            // A displaced probe: abandoned.
            net.worker_msgs.clear();
            let class = JobClass::Short;
            sched.handle(DistMsg::ReProbe { job, class }, &mut net);
            assert!(net.worker_msgs.is_empty());
            assert_eq!(sched.stats.abandons, before.1 + 1);
            // A bounced probe never read the job's state: it is forwarded.
            let bounces = 1;
            sched.handle(
                DistMsg::Bounce {
                    job,
                    class,
                    bounces,
                },
                &mut net,
            );
            assert!(matches!(
                net.worker_msgs[..],
                [(
                    _,
                    WorkerMsg::Probe {
                        job: JobId(1),
                        bounces: 1,
                        ..
                    }
                )]
            ));
            // A chain fire: stale when hardened, not re-armed.
            sched.handle(DistMsg::JobTimeout { job }, &mut net);
            let stale = u64::from(timeouts.is_some());
            assert_eq!(sched.stats.stale_timers, before.2 + stale);
            assert_eq!(net.dist_timers.len(), timers);
            let (migrations, _, _, retries, fired, relaunched) = counters(&sched.stats);
            assert_eq!(
                (migrations, retries, fired, relaunched),
                (before.0, before.3, before.4, before.5)
            );
        }
    }

    #[test]
    fn late_messages_for_a_finished_central_job_act_as_before() {
        let trace = uniform_trace(3, 1, 5);
        for timeouts in [None, Some(hardened_spec())] {
            let mut daemon = CentralDaemon::new(&trace, 4, timeouts);
            let mut net = RecordingNet::default();
            daemon.handle(central_submit(1), &mut net);
            let (worker, spec) = last_assign(&net, 1, 0);
            let job = JobId(1);
            let done = CentralMsg::TaskDone {
                job,
                worker,
                task: 0,
            };
            daemon.handle(done.clone(), &mut net);
            assert_eq!(net.done, vec![job]);
            assert!(daemon.jobs[1].is_none(), "the finished job's slot is freed");
            net.worker_msgs.clear();
            let (before, timers) = (counters(&daemon.stats), net.central_timers.len());
            let wait = daemon.inner.estimated_wait(ServerId(worker as u32));

            // A duplicate completion: nothing — in particular no second
            // release of the worker's §3.7 charge.
            daemon.handle(done, &mut net);
            assert_eq!(net.done, vec![job]);
            assert_eq!(daemon.inner.estimated_wait(ServerId(worker as u32)), wait);
            // A chain fire: stale when hardened, not re-armed.
            daemon.handle(CentralMsg::JobTimeout { job }, &mut net);
            let stale = u64::from(timeouts.is_some());
            assert_eq!(daemon.stats.stale_timers, before.2 + stale);
            assert_eq!(net.central_timers.len(), timers);
            assert!(net.worker_msgs.is_empty());
            let (migrations, abandons, _, retries, fired, relaunched) = counters(&daemon.stats);
            assert_eq!(
                (migrations, abandons, retries, fired, relaunched),
                (before.0, before.1, before.3, before.4, before.5)
            );
            // A relocation of the finished task: ignored when hardened. A
            // fault-free relocation never read the job's state and cannot
            // outlive its task.
            if timeouts.is_some() {
                daemon.handle(CentralMsg::Relocate { from: worker, spec }, &mut net);
                assert!(
                    net.worker_msgs.is_empty(),
                    "a stale relocate re-placed a task"
                );
                assert_eq!(daemon.stats.migrations, before.0);
            }
        }
    }

    // --- O(1) bookkeeping: chain bound, cursor, count ---

    fn secs(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    /// The last `Assign` of `(job, task)`: where the daemon believes the
    /// task is, and the spec a relocation would carry back.
    fn last_assign(net: &RecordingNet, job: u32, task: u32) -> (usize, TaskSpec) {
        net.worker_msgs
            .iter()
            .rev()
            .find_map(|(to, msg)| match msg {
                WorkerMsg::Assign(spec) if spec.job == JobId(job) && spec.task == task => {
                    Some((*to, *spec))
                }
                _ => None,
            })
            .expect("task was assigned")
    }

    fn bound(daemon: &CentralDaemon<'_>, job: u32) -> SimTime {
        daemon.jobs[job as usize]
            .as_ref()
            .expect("known job")
            .next_overdue
    }

    #[test]
    fn chain_bound_follows_a_task_to_a_younger_deadline() {
        // Two workers, each hours deep in long work; a 5 s task queues
        // behind one of them, so its loss deadline — and with it the
        // job's chain bound — sits hours ahead.
        let trace = trace_of(&[&[1], &[10_000], &[10_000], &[5]]);
        let mut daemon = CentralDaemon::new(&trace, 2, Some(hardened_spec()));
        let mut net = RecordingNet::default();
        for job in 1..=3 {
            daemon.handle(central_submit(job), &mut net);
        }
        let (queued_on, spec) = last_assign(&net, 3, 0);
        net.now = secs(10);
        daemon.handle(CentralMsg::JobTimeout { job: JobId(3) }, &mut net);
        // Expected wait 10,005 s, then 4 x 5 s + the 10 s chain base.
        assert_eq!(bound(&daemon, 3), secs(10_035));

        // The other worker drains and the task is relocated onto it: the
        // task can now be overdue within the minute, hours before the
        // bound. The relocation must pull the bound down with it.
        net.now = secs(20);
        let (other, _) = last_assign(&net, if queued_on == 0 { 2 } else { 1 }, 0);
        assert_ne!(other, queued_on);
        let drained = if queued_on == 0 { 2 } else { 1 };
        daemon.handle(
            CentralMsg::TaskDone {
                job: JobId(drained),
                worker: other,
                task: 0,
            },
            &mut net,
        );
        daemon.handle(
            CentralMsg::Relocate {
                from: queued_on,
                spec,
            },
            &mut net,
        );
        assert_eq!(last_assign(&net, 3, 0).0, other);
        // Moved at 20 s onto a 5 s backlog (its own charge): 20 + 5 + 30.
        assert_eq!(bound(&daemon, 3), secs(55));

        // One second early the chain has nothing to do; at the deadline
        // it relaunches the task — the fire a bound left hours ahead
        // would have skipped.
        net.now = secs(54);
        daemon.handle(CentralMsg::JobTimeout { job: JobId(3) }, &mut net);
        assert_eq!(daemon.stats.relaunched, 0);
        net.now = secs(55);
        daemon.handle(CentralMsg::JobTimeout { job: JobId(3) }, &mut net);
        assert_eq!(daemon.stats.relaunched, 1);
        assert_eq!(last_assign(&net, 3, 0).1.attempt, 1);

        // The relaunch installs a deadline of its own (doubled under
        // attempt 1) and the bound is that deadline, not the rest of the
        // job's — there is no rest here, which would mean "never".
        let again = bound(&daemon, 3);
        assert!(again > secs(55) && again < secs(200), "bound {again}");
        net.now = again;
        daemon.handle(CentralMsg::JobTimeout { job: JobId(3) }, &mut net);
        assert_eq!(daemon.stats.relaunched, 2);
        assert_eq!(last_assign(&net, 3, 0).1.attempt, 2);
    }

    #[test]
    fn completions_only_ever_leave_the_chain_bound_too_low() {
        // A 10 s and a 9,990 s task, each on an idle worker, charged the
        // job-level 5,000 s estimate (their mean).
        let trace = trace_of(&[&[1], &[10, 9_990]]);
        let mut daemon = CentralDaemon::new(&trace, 2, Some(hardened_spec()));
        let mut net = RecordingNet::default();
        daemon.handle(central_submit(1), &mut net);
        net.now = secs(10);
        daemon.handle(CentralMsg::JobTimeout { job: JobId(1) }, &mut net);
        // The short task's deadline: 5,000 s expected wait + 4 x 10 s +
        // the 10 s chain base.
        assert_eq!(bound(&daemon, 1), secs(5_050));

        // The short task completes. The bound now undershoots — the long
        // task cannot be overdue before 44,970 s — and is left alone.
        net.now = secs(100);
        daemon.handle(
            CentralMsg::TaskDone {
                job: JobId(1),
                worker: last_assign(&net, 1, 0).0,
                task: 0,
            },
            &mut net,
        );
        assert_eq!(bound(&daemon, 1), secs(5_050));

        // The fire that reaches the stale bound pays one scan, finds
        // nothing, and moves the bound up to what is still outstanding.
        net.now = secs(5_050);
        daemon.handle(CentralMsg::JobTimeout { job: JobId(1) }, &mut net);
        assert_eq!(daemon.stats.relaunched, 0);
        assert_eq!(bound(&daemon, 1), secs(5_000 + 4 * 9_990 + 10));
    }

    #[test]
    fn bind_hands_out_the_lowest_unlaunched_task_after_a_relaunch() {
        let trace = trace_of(&[&[1], &[1, 100, 1]]);
        let mut sched = DistScheduler::new(
            &trace,
            0,
            1,
            Arc::new(Sparrow::new()),
            8,
            SimRng::seed_from_u64(5),
            Some(hardened_spec()),
        );
        let mut net = RecordingNet::default();
        sched.handle(submit(1, JobClass::Short), &mut net);
        let bind = |sched: &mut DistScheduler, net: &mut RecordingNet| {
            net.worker_msgs.clear();
            sched.handle(
                DistMsg::TaskRequest {
                    job: JobId(1),
                    worker: 3,
                },
                net,
            );
            match &net.worker_msgs[0].1 {
                WorkerMsg::BindReply { task, .. } => task.map(|spec| (spec.task, spec.attempt)),
                other => panic!("expected a bind reply, got {other:?}"),
            }
        };
        // Tasks 0 and 1 go out; the cursor stands at task 2.
        assert_eq!(bind(&mut sched, &mut net), Some((0, 0)));
        assert_eq!(bind(&mut sched, &mut net), Some((1, 0)));
        // 15 s on, task 0 (4 x 1 s + 10 s) is overdue and task 1 is not:
        // the chain puts task 0 back in play, behind the cursor.
        net.now = secs(15);
        sched.handle(DistMsg::JobTimeout { job: JobId(1) }, &mut net);
        assert_eq!(sched.stats.relaunched, 1);
        // The next bind must go back for it, then carry on to task 2,
        // then find nothing.
        assert_eq!(bind(&mut sched, &mut net), Some((0, 1)));
        assert_eq!(bind(&mut sched, &mut net), Some((2, 0)));
        assert_eq!(bind(&mut sched, &mut net), None);
    }

    /// Durations an op can pick a task from: seconds to hours, so that
    /// deadlines of one job's tasks are orders of magnitude apart.
    const TASK_SECS: [u64; 4] = [1, 5, 100, 10_000];

    /// Clock steps an op can take: none, under and over every timeout
    /// base, and hours.
    const STEP_SECS: [u64; 6] = [0, 1, 9, 40, 700, 45_000];

    /// The trace a differential script submits: one job per submitting op
    /// (`op < 2`), in script order, with the task durations `tasks` picks.
    fn script_trace(script: &[(u8, usize, usize)], tasks: impl Fn(usize) -> Vec<u64>) -> Trace {
        let jobs: Vec<Vec<u64>> = script
            .iter()
            .filter(|&&(op, _, _)| op < 2)
            .map(|&(_, pick, _)| tasks(pick))
            .collect();
        trace_of(&jobs.iter().map(Vec::as_slice).collect::<Vec<_>>())
    }

    proptest::proptest! {
        /// The chain bound against the scan it skips: a hardened
        /// centralized daemon and its full-scan twin, fed one random
        /// sequence of submissions, completions (duplicates and all),
        /// relocations (current and stale) and chain fires on a clock
        /// that only moves forward, must emit the same messages and
        /// timers and count the same relaunches.
        #[test]
        fn central_chain_bound_matches_the_full_scan(
            script in proptest::collection::vec((0u8..9, 0usize..64, 0usize..6), 1..120),
        ) {
            let trace = script_trace(&script, |pick| {
                (0..1 + pick % 4).map(|i| TASK_SECS[(pick / 4 + i) % 4]).collect()
            });
            let mut fast = CentralDaemon::new(&trace, 3, Some(hardened_spec()));
            let mut reference = CentralDaemon::new(&trace, 3, Some(hardened_spec()));
            reference.full_scan = true;
            let mut fast_net = RecordingNet::default();
            let mut reference_net = RecordingNet::default();
            // Tasks per submitted job, by job id.
            let mut jobs: Vec<usize> = Vec::new();
            for (op, pick, step) in script {
                let now = fast_net.now + SimDuration::from_secs(STEP_SECS[step]);
                fast_net.now = now;
                reference_net.now = now;
                let msg = match op {
                    0 | 1 => {
                        jobs.push(trace.job(JobId(jobs.len() as u32)).num_tasks());
                        central_submit(jobs.len() as u32 - 1)
                    }
                    _ if jobs.is_empty() => continue,
                    2 | 3 => {
                        let job = pick % jobs.len();
                        let task = (pick / jobs.len()) % jobs[job];
                        let (worker, _) = last_assign(&fast_net, job as u32, task as u32);
                        CentralMsg::TaskDone {
                            job: JobId(job as u32),
                            worker,
                            task: task as u32,
                        }
                    }
                    4 => {
                        let job = pick % jobs.len();
                        let task = (pick / jobs.len()) % jobs[job];
                        let (from, mut spec) = last_assign(&fast_net, job as u32, task as u32);
                        // Every other relocation is for a superseded attempt.
                        spec.attempt = spec.attempt.saturating_sub((pick % 2) as u32);
                        CentralMsg::Relocate { from, spec }
                    }
                    _ => {
                        // A chain fire: wherever the clock stands, or —
                        // where a wrong bound shows — on the job's bound
                        // and one tick short of it. A finished job's state
                        // is freed: its fire lands where the clock stands.
                        let job = pick % jobs.len();
                        let at = fast.jobs[job].as_ref().map_or(now, |state| state.next_overdue);
                        let at = match op {
                            5 | 6 => now,
                            7 => at,
                            _ => SimTime::from_micros(at.as_micros().saturating_sub(1)),
                        };
                        if at != SimTime::MAX {
                            fast_net.now = now.max(at);
                            reference_net.now = now.max(at);
                        }
                        CentralMsg::JobTimeout {
                            job: JobId(job as u32),
                        }
                    }
                };
                fast.handle(msg.clone(), &mut fast_net);
                reference.handle(msg, &mut reference_net);
                proptest::prop_assert_eq!(&fast_net.worker_msgs, &reference_net.worker_msgs);
            }
            proptest::prop_assert_eq!(fast_net.central_timers, reference_net.central_timers);
            proptest::prop_assert_eq!(fast_net.done, reference_net.done);
            let (a, b) = (fast.stats, reference.stats);
            proptest::prop_assert_eq!(
                (a.relaunched, a.timeouts_fired, a.migrations, a.stale_timers),
                (b.relaunched, b.timeouts_fired, b.migrations, b.stale_timers)
            );
        }

        /// The first-unlaunched cursor and the unlaunched count against
        /// the `position` / `contains` scans they replaced, the same way:
        /// one random sequence of submissions, binds, completions (of
        /// launched, relaunch-pending and never-launched tasks alike),
        /// displaced probes and chain fires through a hardened
        /// distributed scheduler and its full-scan twin.
        #[test]
        fn dist_cursor_and_count_match_the_full_scan(
            script in proptest::collection::vec((0u8..10, 0usize..64, 0usize..6), 1..160),
        ) {
            let trace = script_trace(&script, |pick| {
                (0..1 + pick % 5).map(|i| TASK_SECS[(pick / 5 + i) % 3]).collect()
            });
            let build = || DistScheduler::new(
                &trace,
                0,
                1,
                Arc::new(Sparrow::new()),
                16,
                SimRng::seed_from_u64(23),
                Some(hardened_spec()),
            );
            let mut fast = build();
            let mut reference = build();
            reference.full_scan = true;
            let mut fast_net = RecordingNet::default();
            let mut reference_net = RecordingNet::default();
            let mut jobs: Vec<usize> = Vec::new();
            for (op, pick, step) in script {
                let now = fast_net.now + SimDuration::from_secs(STEP_SECS[step]);
                fast_net.now = now;
                reference_net.now = now;
                let job = JobId((pick % jobs.len().max(1)) as u32);
                let msg = match op {
                    0 | 1 => {
                        jobs.push(trace.job(JobId(jobs.len() as u32)).num_tasks());
                        submit(jobs.len() as u32 - 1, JobClass::Short)
                    }
                    _ if jobs.is_empty() => continue,
                    2..=4 => DistMsg::TaskRequest { job, worker: pick % 16 },
                    5 | 6 => DistMsg::TaskDone {
                        job,
                        task: ((pick / jobs.len()) % jobs[job.index()]) as u32,
                    },
                    7 => DistMsg::ReProbe { job, class: JobClass::Short },
                    _ => DistMsg::JobTimeout { job },
                };
                fast.handle(msg.clone(), &mut fast_net);
                reference.handle(msg, &mut reference_net);
                proptest::prop_assert_eq!(&fast_net.worker_msgs, &reference_net.worker_msgs);
            }
            proptest::prop_assert_eq!(fast_net.dist_timers, reference_net.dist_timers);
            proptest::prop_assert_eq!(fast_net.done, reference_net.done);
            let (a, b) = (fast.stats, reference.stats);
            proptest::prop_assert_eq!(
                (a.relaunched, a.timeouts_fired, a.retries, a.migrations, a.abandons, a.stale_timers),
                (b.relaunched, b.timeouts_fired, b.retries, b.migrations, b.abandons, b.stale_timers)
            );
        }
    }
}
