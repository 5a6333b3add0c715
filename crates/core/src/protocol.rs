//! The protocol core: Hawk's handlers, written once.
//!
//! Hawk (§3.4–§3.7) is one protocol — probe → late bind → launch → steal
//! → finish, plus §3.7 central placement and churn relocation. [`Core`]
//! holds the node-local and scheduler-local state (cluster, per-job late
//! binding, the centralized waiting-time scheduler, the three RNG
//! streams, the topology, recycled buffers) and every handler, written
//! against the [`Transport`] seam: a handler's only outward effect is
//! "emit event *e* to endpoint *p* after delay *d*".
//! The harnesses know nothing about scheduling:
//!
//! * [`crate::Driver`] is a core plus a loopback transport (every send is
//!   `engine.schedule`) and an eager sampling loop;
//! * [`crate::ShardedDriver`] is `K` cores, each over its own range of
//!   servers, on one engine: its transport files every send under the
//!   core that hosts the destination endpoint.
//!
//! Everything *policy* — routing, probe placement, steal capability and
//! victim choice, probe bouncing — is delegated to the [`Scheduler`]
//! trait; adding a scheduling policy touches neither the core nor a
//! harness. A decision the prototype's daemons take too is one function
//! that both call: central membership and task migration
//! ([`CentralScheduler`]), the probe scope of a class
//! ([`PlacementView::for_probes`]), a task's spec ([`TaskSpec::of`]), how
//! an entry lands on a server ([`land`]), a displaced probe's new server
//! ([`displaced_probe`]), late binding's next task ([`late_bind`]) and a
//! thief's next victim ([`crate::VictimDraw::next`]).
//!
//! Every message asks the [`Topology`] for its delay exactly once, in
//! event order, so contended topologies (per-link FIFO queueing) stay
//! deterministic. Two exceptions hold on the flat §4.1 network with every
//! scheduler in reach, where every message costs the same one-way delay
//! and asking for it changes nothing ([`Transport::constant_delay`]):
//!
//! * **A bind round trip is one event** on a static cell: the scheduler's
//!   answer is decided as the request leaves, and the response is sent
//!   two one-way delays later, with no [`Event::BindRequest`] in between
//!   (`Core::on_action` says why the answer is the same).
//! * **A job's probes, or its central placement, are one event**, with or
//!   without a dynamics script: [`Event::ProbeBurst`] / [`Event::TaskBurst`]
//!   carries the servers in send order, and its dispatch lands them one by
//!   one through the per-message path (`Core::on_arrive`), task `i` on the
//!   `i`-th server. That is exact, not approximate. Sent one message per
//!   server, the probes would be pushed back to back at one firing time,
//!   and events of one time pop in push order, so they would pop back to
//!   back too, as one run, where the burst pops. Only two things could
//!   cut into the run. An event pushed for that time is pushed before the
//!   run (and pops ahead of it) or while the run is dispatched (and pops
//!   behind it, as it pops behind the burst). An
//!   [`Engine::schedule_first_at`] jumps everything pending at its time,
//!   so it would cut the run only if called while the run is dispatched,
//!   but arrival streaming ([`Arrivals`]), its one caller, calls it only
//!   while an [`Event::JobArrival`] is dispatched. So every handler runs
//!   in the same order at the same time, with the same RNG draws. A
//!   displaced or bounced entry keeps its one-message path, and so does
//!   every send where the delay depends on the endpoints (the fat trees)
//!   or where a scheduler may sit across a wire ([`crate::ShardedDriver`]).
//!
//! Where shared memory and message passing inherently differ, the
//! transport decides at compile time ([`Transport::REMOTE_SCHEDULERS`],
//! [`Transport::owns`]); there is no runtime flag.

use std::ops::Range;
use std::sync::Arc;

use hawk_cluster::{Cluster, QueueEntry, ServerAction, ServerId, TaskSpec, UtilizationTracker};
use hawk_net::{Endpoint, NetworkStats, RackGeometry, Topology};
use hawk_simcore::{BatchHandle, BatchPool, Engine, SimDuration, SimRng, SimTime};
use hawk_workload::classify::{Cutoff, JobEstimates};
use hawk_workload::scenario::NodeChange;
use hawk_workload::{JobClass, JobId, Trace};

use crate::admission::{AdmissionDecision, AdmissionPlan};
use crate::centralized::CentralScheduler;
use crate::config::{check_cell, Route, SimConfig};
use crate::distributed::{displaced_probe, land, late_bind, Landing};
use crate::metrics::{JobResult, MetricsReport, ShardedStats, StreamingStats};
use crate::scheduler::{PlacementView, Scheduler};

/// A simulation event: a message or timer of the protocol.
///
/// `Copy`: stolen groups wait in the transport's batch pool while in
/// flight, so every variant is a few plain words — which also lets the timing
/// wheel store events in its recycled slab arena. No variant carries a
/// [`TaskSpec`]: a task travels as `(job, task index)`, with the job's
/// class where the receiving core may not be the job's home, and the core
/// that enqueues or launches it builds the spec from the trace and the
/// run's estimates (24 bytes an event, pinned by a unit test). The
/// single-stream [`crate::Driver`] never emits `StealRequest`, `TaskDone`,
/// `CentralTaskDone` or `Relocate`; they carry what it does by direct
/// state access. Only it emits the two bursts, on a
/// [`TopologySpec::Constant`](hawk_net::TopologySpec::Constant) cell,
/// where they carry what the sharded driver sends as one `ProbeArrive` or
/// `TaskArrive` per server.
#[derive(Debug, Clone, Copy)]
pub enum Event {
    /// A job was submitted (at its trace submission time, or at its
    /// admitted window when admission control deferred it).
    JobArrival(JobId),
    /// A probe message reached a server: a bounced or displaced probe, or
    /// any probe off the constant network or across a wire (on the
    /// constant network a job's first probes travel as one
    /// [`Event::ProbeBurst`]).
    ProbeArrive {
        /// Destination server.
        server: ServerId,
        /// Job the probe reserves for.
        job: JobId,
        /// The job's scheduled class.
        class: JobClass,
        /// How many times this probe has bounced off servers holding long
        /// work (always 0 under the paper's configuration).
        bounces: u8,
    },
    /// A relocated task reached a server, or a centrally-placed one off the
    /// constant network or across a wire (on the constant network a
    /// placement travels as one [`Event::TaskBurst`]).
    TaskArrive {
        /// Destination server.
        server: ServerId,
        /// The task's job.
        job: JobId,
        /// The task's index within its job.
        task: u32,
        /// The job's scheduled class.
        class: JobClass,
    },
    /// A server's task request reached the job's scheduler. Never
    /// dispatched by the single-stream [`crate::Driver`] on the constant
    /// network without dynamics, where the answer is decided as the
    /// request leaves and the [`Event::BindResponse`] is sent a round trip
    /// later.
    BindRequest {
        /// Requesting server.
        server: ServerId,
        /// Job whose scheduler is asked.
        job: JobId,
    },
    /// The scheduler's response reached the server: a task or a cancel.
    BindResponse {
        /// Destination server.
        server: ServerId,
        /// The job the reservation was for.
        job: JobId,
        /// The job's scheduled class.
        class: JobClass,
        /// `Some(index)` launches that task of `job`, `None` cancels the
        /// reservation.
        task: Option<u32>,
    },
    /// The running task on a server completed.
    TaskFinish {
        /// The server whose slot finished.
        server: ServerId,
    },
    /// Stolen queue entries reached the thief (only with a non-zero steal
    /// transfer delay, or from a victim another core owns).
    ///
    /// The event carries a 4-byte handle into the transport's
    /// [`BatchPool`], not an owned `Vec`: the stolen group waits in a
    /// recycled pool slot while in flight, so the steal pipeline allocates
    /// nothing in steady state.
    StolenArrive {
        /// The thief.
        server: ServerId,
        /// The in-flight stolen group (original queue order), redeemed
        /// against the transport's pool on delivery.
        batch: BatchHandle,
    },
    /// A scripted scenario event: the server leaves service. Its queue is
    /// drained and migrated (or abandoned, for reservations whose job has
    /// no unlaunched tasks left); a running task finishes on its own.
    NodeDown(ServerId),
    /// A scripted scenario event: the server rejoins, idle and empty.
    NodeUp(ServerId),
    /// Periodic utilization snapshot: the harness's own timer, never
    /// dispatched to a core.
    UtilSample,
    /// A thief asks the owner of a remote `victim` for one steal scan.
    /// When the scan fails, the victim's owner forwards the request to
    /// `rest[0]`, so one idle transition can try several remote victims
    /// without a round-trip through the thief.
    StealRequest {
        /// The idle server.
        thief: ServerId,
        /// The server to scan.
        victim: ServerId,
        /// The thief's remaining remote candidates from the same victim
        /// pick (`u32::MAX`-padded).
        rest: [u32; 3],
    },
    /// A distributed job's task finished; counts down at the job's
    /// scheduler.
    TaskDone {
        /// The job.
        job: JobId,
    },
    /// A central job's task finished; the central scheduler updates the
    /// waiting-time bookkeeping and the job's completion state in one
    /// message.
    CentralTaskDone {
        /// The job.
        job: JobId,
        /// The server the task ran on.
        server: ServerId,
    },
    /// A queue entry drained off a failed server asks its deciding
    /// scheduler (central for tasks, the job's scheduler for probes) for
    /// a new home. Either is the job's home, which knows its class.
    Relocate {
        /// The failed server.
        from: ServerId,
        /// The stranded entry's job.
        job: JobId,
        /// The stranded task's index within its job, `None` for a probe.
        task: Option<u32>,
    },
    /// All of a job's probes reached their servers: on the constant
    /// network they are sent together and arrive together, and land in
    /// send order as if each were its own [`Event::ProbeArrive`] (the
    /// module docs say why that is exact).
    ProbeBurst {
        /// The job the probes reserve for.
        job: JobId,
        /// The job's scheduled class.
        class: JobClass,
        /// The probes' servers in send order, redeemed against the
        /// transport's burst pool on delivery.
        batch: BatchHandle,
    },
    /// All tasks of a §3.7 central placement reached their servers, on
    /// the constant network: the burst's `i`-th server receives task `i`,
    /// in that order, as if each were its own [`Event::TaskArrive`].
    TaskBurst {
        /// The placed job.
        job: JobId,
        /// The job's scheduled class.
        class: JobClass,
        /// The tasks' servers in task order, redeemed against the
        /// transport's burst pool on delivery.
        batch: BatchHandle,
    },
}

/// Events the protocol core dispatched, one slot per [`Event::KINDS`]
/// label.
pub type EventCounts = [u64; Event::KINDS.len()];

impl Event {
    /// Labels of the protocol event kinds, in [`EventCounts`] order (the
    /// enum's). A harness's two sampling timers never reach a core and
    /// have no slot, so the counts sum to [`MetricsReport::events`] less
    /// the samples taken.
    pub const KINDS: [&'static str; 15] = [
        "job_arrival",
        "probe_arrive",
        "task_arrive",
        "bind_request",
        "bind_response",
        "task_finish",
        "stolen_arrive",
        "node_down",
        "node_up",
        "steal_request",
        "task_done",
        "central_task_done",
        "relocate",
        "probe_burst",
        "task_burst",
    ];

    /// This event's slot in [`EventCounts`].
    fn kind(&self) -> usize {
        match self {
            Event::JobArrival(_) => 0,
            Event::ProbeArrive { .. } => 1,
            Event::TaskArrive { .. } => 2,
            Event::BindRequest { .. } => 3,
            Event::BindResponse { .. } => 4,
            Event::TaskFinish { .. } => 5,
            Event::StolenArrive { .. } => 6,
            Event::NodeDown(_) => 7,
            Event::NodeUp(_) => 8,
            Event::StealRequest { .. } => 9,
            Event::TaskDone { .. } => 10,
            Event::CentralTaskDone { .. } => 11,
            Event::Relocate { .. } => 12,
            Event::ProbeBurst { .. } => 13,
            Event::TaskBurst { .. } => 14,
            Event::UtilSample => unreachable!("sampling belongs to the harness"),
        }
    }
}

/// Sentinel padding for [`Event::StealRequest::rest`].
const NO_VICTIM: u32 = u32::MAX;

/// What a core's queue arenas hold before their first on-demand growth:
/// 4,096 queued entries and 1,024 queued tasks, 80 KiB. A constant, not
/// sized by the trace; it moves a run's first doublings of both arenas
/// out of the event loop, where each would be one more allocation.
const QUEUE_FLOOR: (usize, usize) = (4_096, 1_024);

/// What a handler may do to the outside world. Statically dispatched:
/// the only implementors are the single-stream loopback, the sharded
/// router and the unit tests' recording fake.
pub(crate) trait Transport {
    /// Whether a job's scheduler may sit across the wire from the servers
    /// running its tasks. Decides the two things shared memory and
    /// message passing inherently do differently: completion bookkeeping
    /// (direct state access vs. a `TaskDone`/`CentralTaskDone` message
    /// to the home scheduler) and relocation off a failed server
    /// (point-to-point vs. a detour through the deciding scheduler).
    /// Where every scheduler is in reach the network may also be folded
    /// ([`Transport::constant_delay`]).
    const REMOTE_SCHEDULERS: bool;

    /// The current simulated time.
    fn now(&self) -> SimTime;

    /// Delivers `event` to whoever hosts endpoint `to`, `delay` from now.
    /// Timers are messages to the endpoint that set them.
    fn send(&mut self, delay: SimDuration, to: Endpoint, event: Event);

    /// Whether this core holds the authoritative queue of `server`.
    fn owns(&self, server: ServerId) -> bool;

    /// Where a stolen group waits while its [`Event::StolenArrive`] is in
    /// flight. One pool per transport, so a handle put by the victim's
    /// core is redeemed by the thief's.
    fn stolen_pool(&mut self) -> &mut BatchPool<QueueEntry>;

    /// The delay of every message, where every scheduler is in reach and
    /// the network is the flat
    /// [`TopologySpec::Constant`](hawk_net::TopologySpec::Constant) one
    /// (the loopback on such a cell); `None` elsewhere. The core then
    /// folds the messages it can decide exactly (the module docs list
    /// them).
    fn constant_delay(&self) -> Option<SimDuration>;

    /// Where the servers of an [`Event::ProbeBurst`] or
    /// [`Event::TaskBurst`] wait while it is in flight. Reached only with
    /// a [`Transport::constant_delay`].
    fn burst_pool(&mut self) -> &mut BatchPool<ServerId>;
}

/// Per-job dynamic state (the job's "distributed scheduler" plus
/// completion bookkeeping); authoritative only in the job's home core.
/// 16 bytes, pinned by a unit test. The class the policy scheduled the
/// job as is not stored: every core reads it off the run's shared
/// estimates (`JobEstimates::class`).
#[derive(Debug, Clone, Copy)]
struct JobRun {
    /// Next unlaunched task index (late binding hands tasks out in order).
    next_task: u32,
    /// Tasks not yet finished.
    remaining: u32,
    /// Completion time once all tasks finished, [`UNFINISHED`] until then.
    completion: SimTime,
}

/// [`JobRun::completion`] of a job that has not completed.
const UNFINISHED: SimTime = SimTime::MAX;

/// What every core of one run shares, computed once: the estimates and
/// admission plan are pure functions of the experiment inputs, so cores
/// agree on every decision without exchanging a message.
///
/// RNG split order (frozen, see ARCHITECTURE.md): root → estimate stream
/// → per core, in construction order: probe, steal, scenario.
pub(crate) struct RunInputs {
    pub(crate) estimates: Arc<JobEstimates>,
    admission: Option<Arc<AdmissionPlan>>,
    speeds: Option<Vec<f64>>,
    /// Size of the central scheduler's scope, from [`check_cell`].
    central_scope: Option<usize>,
    max_tasks: usize,
    rng_root: SimRng,
}

impl RunInputs {
    /// # Panics
    ///
    /// Panics on a cell [`check_cell`] refuses.
    pub(crate) fn new(trace: &Trace, scheduler: &dyn Scheduler, sim: &SimConfig) -> Self {
        let central_scope = check_cell(scheduler, sim.nodes, &sim.dynamics, sim.util_interval);
        let mut rng_root = SimRng::seed_from_u64(sim.seed);
        let mut estimate_rng = rng_root.split();
        let estimates = match sim.misestimate {
            Some(range) => JobEstimates::misestimated(trace, range, &mut estimate_rng),
            None => JobEstimates::exact(trace),
        };
        let admission = sim.admission.map(|policy| {
            Arc::new(AdmissionPlan::compute(
                trace,
                sim.nodes,
                sim.cutoff,
                &sim.dynamics,
                policy,
            ))
        });
        RunInputs {
            estimates: Arc::new(estimates),
            admission,
            speeds: sim.speeds.resolve(sim.nodes),
            central_scope,
            max_tasks: trace.max_tasks_per_job(),
            rng_root,
        }
    }
}

/// What a run's engine is seeded with besides the trace's arrivals (which
/// [`Arrivals`] streams): the dynamics script. The harness addresses each
/// scripted change to every core, so membership stays globally correct,
/// and sizes the event arena for the script, its own timers and the one
/// pending arrival; it grows on demand from there.
pub(crate) fn seed_events(sim: &SimConfig) -> impl Iterator<Item = (SimTime, Event)> + '_ {
    sim.dynamics.events().iter().map(|scripted| {
        let event = match scripted.change {
            NodeChange::Down(server) => Event::NodeDown(ServerId(server)),
            NodeChange::Up(server) => Event::NodeUp(ServerId(server)),
        };
        (scripted.at, event)
    })
}

/// The trace's arrivals, streamed: a harness keeps exactly one pending —
/// the next job in trace order — and, when it dispatches that job's
/// [`Event::JobArrival`], schedules the job after it with
/// [`Engine::schedule_first_at`], ahead of everything already pending at
/// its time. That is where a run that loaded every arrival before anything
/// else would have it (at equal times, the lowest insertion numbers pop
/// first), so streaming moves no event; it only keeps the event arena
/// sized by the live state instead of the trace.
pub(crate) struct Arrivals<'t> {
    trace: &'t Trace,
    /// The job whose arrival was scheduled last.
    last: usize,
}

impl<'t> Arrivals<'t> {
    pub(crate) fn new(trace: &'t Trace) -> Self {
        Arrivals { trace, last: 0 }
    }

    /// Schedules the next arrival into `engine`, filed by `file`: the
    /// trace's first at the start (`dispatched` is `None`), else the job
    /// after `dispatched` if its arrival was the streamed one. An
    /// admission-deferred re-fire is not, and is always of an earlier job
    /// than the one scheduled last.
    pub(crate) fn stream<E: Copy>(
        &mut self,
        dispatched: Option<JobId>,
        engine: &mut Engine<E>,
        file: impl Fn(JobId) -> E,
    ) {
        self.last = match dispatched {
            None => 0,
            Some(job) if job.index() == self.last => job.index() + 1,
            Some(_) => return,
        };
        if let Some(job) = self.trace.jobs().get(self.last) {
            engine.schedule_first_at(job.submission, file(job.id));
        }
    }
}

/// The protocol state machine; see the module docs.
pub(crate) struct Core<'t> {
    trace: &'t Trace,
    scheduler: Arc<dyn Scheduler>,
    estimates: Arc<JobEstimates>,
    /// The cluster, under global server ids. It stores the servers this
    /// core's transport owns — all of them single-stream, a shard's range
    /// otherwise — and knows every other server by membership alone, as
    /// idle (`Cluster`'s "Owned range" docs).
    pub(crate) cluster: Cluster,
    jobs: Vec<JobRun>,
    /// The §3.7 scheduler, on the one core that hosts [`Endpoint::Central`].
    central: Option<CentralScheduler>,
    /// Whether the policy steals at all.
    stealing: bool,
    probe_rng: SimRng,
    steal_rng: SimRng,
    /// Stream for scenario bookkeeping (migration re-probing); separate
    /// so dynamics-off runs draw exactly as before the scenario layer
    /// existed — the golden digests pin this.
    scenario_rng: SimRng,
    cutoff: Cutoff,
    /// Prices every message and steal transfer this core sends; contended
    /// models keep their link state here.
    topology: Box<dyn Topology>,
    /// Rack geometry for fabric-aware victim picking; `None` under
    /// placement-blind topologies.
    rack_geometry: Option<RackGeometry>,
    /// Whether the dynamics script is empty: with a
    /// [`Transport::constant_delay`], a bind is then decided as its request
    /// leaves (`Core::on_action`).
    static_cell: bool,
    /// Precomputed admission decisions; `None` admits everything (the
    /// classic, digest-pinned behavior).
    admission: Option<Arc<AdmissionPlan>>,
    /// Jobs homed here that have not completed; the harness, which knows
    /// the homing rule, counts them in when it seeds their arrivals.
    pub(crate) unfinished: usize,
    pub(crate) steals: u64,
    pub(crate) steal_attempts: u64,
    /// Victim queues actually walked (candidates that passed the index).
    steal_scans: u64,
    /// Events dispatched, by [`Event::kind`].
    events_by_kind: EventCounts,
    /// Queue entries relocated off failed servers (tasks re-placed, live
    /// probes re-probed).
    migrations: u64,
    /// Reservations dropped at node failure because their job had no
    /// unlaunched tasks left (a bind would have been cancelled anyway).
    abandons: u64,
    // Recycled hot-path buffers: the steady-state loop allocates nothing.
    drain_buf: Vec<QueueEntry>,
    victim_scratch: Vec<usize>,
    steal_buf: Vec<QueueEntry>,
    probe_buf: Vec<ServerId>,
    place_buf: Vec<ServerId>,
}

impl<'t> Core<'t> {
    /// Builds one core over the servers of `owned` (the range its
    /// transport will answer [`Transport::owns`] for), splitting its three
    /// RNG streams off `inputs`. The core owning server 0 hosts
    /// [`Endpoint::Central`] and so owns every centralized decision.
    pub(crate) fn new(
        trace: &'t Trace,
        scheduler: Arc<dyn Scheduler>,
        sim: &SimConfig,
        inputs: &mut RunInputs,
        owned: Range<u32>,
    ) -> Self {
        let probe_rng = inputs.rng_root.split();
        let steal_rng = inputs.rng_root.split();
        let scenario_rng = inputs.rng_root.split();

        let hosts_central = owned.start == 0;
        let central = inputs
            .central_scope
            .filter(|_| hosts_central)
            .map(CentralScheduler::new);
        let fraction = scheduler.short_partition_fraction();
        let mut cluster = Cluster::ranged(sim.nodes, fraction, owned, inputs.speeds.as_deref());
        cluster.reserve_queues(QUEUE_FLOOR.0, QUEUE_FLOOR.1);

        let jobs = trace
            .jobs()
            .iter()
            .map(|j| JobRun {
                next_task: 0,
                remaining: j.num_tasks() as u32,
                completion: UNFINISHED,
            })
            .collect();

        // Buffers are pre-sized from the trace so the steady-state loop
        // starts warm: a failing server's queue holds at most a few
        // batches of probes/tasks, and churn windows must stay off the
        // allocator. Only `on_node_down` drains a queue, so a cell without
        // a dynamics script gets no drain buffer.
        let max_tasks = inputs.max_tasks;
        let drain = if sim.dynamics.is_empty() {
            0
        } else {
            4 * max_tasks + 64
        };
        Core {
            trace,
            stealing: scheduler.steal().is_some(),
            scheduler,
            estimates: Arc::clone(&inputs.estimates),
            cluster,
            jobs,
            central,
            probe_rng,
            steal_rng,
            scenario_rng,
            cutoff: sim.cutoff,
            topology: sim.topology.build(sim.nodes),
            rack_geometry: sim.topology.rack_geometry(),
            static_cell: sim.dynamics.is_empty(),
            admission: inputs.admission.clone(),
            unfinished: 0,
            steals: 0,
            steal_attempts: 0,
            steal_scans: 0,
            events_by_kind: [0; Event::KINDS.len()],
            migrations: 0,
            abandons: 0,
            drain_buf: Vec::with_capacity(drain),
            victim_scratch: Vec::new(),
            steal_buf: Vec::with_capacity(64),
            probe_buf: Vec::with_capacity(4 * max_tasks + 8),
            place_buf: Vec::with_capacity(max_tasks),
        }
    }

    /// Handles one event.
    pub(crate) fn dispatch<T: Transport>(&mut self, net: &mut T, event: Event) {
        self.events_by_kind[event.kind()] += 1;
        match event {
            Event::JobArrival(job) => self.on_job_arrival(net, job),
            Event::ProbeArrive {
                server,
                job,
                class,
                bounces,
            } => self.on_arrive(net, server, QueueEntry::Probe { job, class }, bounces),
            Event::TaskArrive {
                server,
                job,
                task,
                class,
            } => {
                let entry = self.task_entry(job, task, class);
                self.on_arrive(net, server, entry, 0)
            }
            Event::ProbeBurst { job, class, batch } => {
                let mut targets = std::mem::take(&mut self.probe_buf);
                net.burst_pool().take_swap(batch, &mut targets);
                for &server in &targets {
                    self.on_arrive(net, server, QueueEntry::Probe { job, class }, 0);
                }
                self.probe_buf = targets;
            }
            Event::TaskBurst { job, class, batch } => {
                let mut targets = std::mem::take(&mut self.place_buf);
                net.burst_pool().take_swap(batch, &mut targets);
                for (task, &server) in (0..).zip(&targets) {
                    let entry = self.task_entry(job, task, class);
                    self.on_arrive(net, server, entry, 0);
                }
                self.place_buf = targets;
            }
            Event::BindRequest { server, job } => self.on_bind_request(net, server, job),
            Event::BindResponse {
                server,
                job,
                class,
                task,
            } => {
                let estimate = self.estimates.estimate(job);
                let task =
                    task.map(|task| TaskSpec::of(self.trace.job(job), task, estimate, class));
                let action = self.cluster.on_bind_response(server, task);
                self.on_action(net, server, action);
            }
            Event::TaskFinish { server } => self.on_task_finish(net, server),
            Event::StolenArrive { server, batch } => self.on_stolen(net, server, batch),
            Event::StealRequest {
                thief,
                victim,
                rest,
            } => self.on_steal_request(net, thief, victim, rest),
            Event::TaskDone { job } => self.on_task_done(net, job),
            Event::CentralTaskDone { job, server } => {
                let estimate = self.estimates.estimate(job);
                self.central
                    .as_mut()
                    .expect("central bookkeeping for a centrally-routed job")
                    .on_task_complete(server, estimate);
                self.on_task_done(net, job);
            }
            Event::Relocate { from, job, task } => {
                self.replace(net, from, deciding_scheduler(job, task), job, task)
            }
            Event::NodeDown(server) => self.on_node_down(net, server),
            Event::NodeUp(server) => {
                self.cluster.revive_server(server);
                if let Some(central) = &mut self.central {
                    central.revive(server);
                }
            }
            Event::UtilSample => unreachable!("sampling belongs to the harness"),
        }
    }

    fn on_job_arrival<T: Transport>(&mut self, net: &mut T, job: JobId) {
        let now = net.now();
        let class = self.estimates.class(job, self.cutoff);
        // Admission control, applied at the job's home. The plan is a
        // pure function of the experiment inputs, so no RNG stream
        // advances on any path and admission-off runs are byte-identical
        // to the classic digests.
        if let Some(plan) = &self.admission {
            match plan.decision(job) {
                AdmissionDecision::Defer { until } if now < until => {
                    // First firing: replay the arrival at its admitted
                    // window. The job's estimates were drawn at
                    // construction, so postponing perturbs no RNG stream.
                    let home = match self.scheduler.route(class) {
                        Route::Central(_) => Endpoint::Central,
                        Route::Distributed(_) => Endpoint::Scheduler(job.0),
                    };
                    net.send(until - now, home, Event::JobArrival(job));
                    return;
                }
                AdmissionDecision::Shed => {
                    // The job completes instantly at submission with zero
                    // runtime and never schedules. The report's streaming
                    // summary leaves shed jobs out (the exact summary
                    // still carries their zero runtime).
                    self.jobs[job.index()].completion = now;
                    self.unfinished -= 1;
                    return;
                }
                // Admitted, or a deferred job re-fired at its window.
                AdmissionDecision::Admit | AdmissionDecision::Defer { .. } => {}
            }
        }
        let spec = self.trace.job(job);
        match self.scheduler.route(class) {
            Route::Central(_) => self.place_centrally(net, job),
            Route::Distributed(scope) => {
                let view = PlacementView::new(&self.cluster, scope);
                self.probe_buf.clear();
                self.scheduler.probe_targets(
                    &view,
                    spec.num_tasks(),
                    &mut self.probe_rng,
                    &mut self.probe_buf,
                );
                let burst = |batch| Event::ProbeBurst { job, class, batch };
                if send_burst(net, &mut self.probe_buf, burst) {
                    return;
                }
                // The job's distributed scheduler is the probes' source
                // endpoint; each probe is committed to the fabric
                // individually, in target order.
                let targets = std::mem::take(&mut self.probe_buf);
                for &server in &targets {
                    self.send_probe(net, Endpoint::Scheduler(job.0), server, job, class, 0);
                }
                self.probe_buf = targets;
            }
        }
    }

    /// A probe that has bounced `bounces` times, or a directly-placed
    /// task, reached `server`: it lands as [`land`] decides. A displaced
    /// entry (the server failed while the message was in flight) is
    /// relocated like a drained one; a bounced probe retries on a fresh
    /// random server at the cost of one network hop.
    fn on_arrive<T: Transport>(
        &mut self,
        net: &mut T,
        server: ServerId,
        entry: QueueEntry,
        bounces: u8,
    ) {
        debug_assert!(net.owns(server));
        let landing = land(
            self.cluster.server(server),
            &*self.scheduler,
            entry,
            bounces,
        );
        match landing {
            Landing::Displaced => self.relocate(net, server, entry),
            Landing::Bounce { job, class } => {
                let retry = PlacementView::for_probes(&self.cluster, &*self.scheduler, class)
                    .random_server(&mut self.probe_rng);
                let src = Endpoint::Server(server);
                self.send_probe(net, src, retry, job, class, bounces + 1);
            }
            Landing::Queue => {
                if let Some(action) = self.cluster.enqueue(server, entry) {
                    self.on_action(net, server, action);
                }
            }
        }
    }

    fn send_probe<T: Transport>(
        &mut self,
        net: &mut T,
        src: Endpoint,
        server: ServerId,
        job: JobId,
        class: JobClass,
        bounces: u8,
    ) {
        let dst = Endpoint::Server(server);
        let delay = self.topology.delay(net.now(), src, dst);
        net.send(
            delay,
            dst,
            Event::ProbeArrive {
                server,
                job,
                class,
                bounces,
            },
        );
    }

    /// Runs the §3.7 placement for `job` and sends its tasks out.
    fn place_centrally<T: Transport>(&mut self, net: &mut T, job: JobId) {
        let spec = self.trace.job(job);
        let class = self.estimates.class(job, self.cutoff);
        let estimate = self.estimates.estimate(job);
        let central = self
            .central
            .as_mut()
            .expect("central route requires a central scheduler");
        central.assign_job_into(spec.num_tasks(), estimate, &mut self.place_buf);
        let burst = |batch| Event::TaskBurst { job, class, batch };
        if send_burst(net, &mut self.place_buf, burst) {
            return;
        }
        let now = net.now();
        for (task, &server) in (0..).zip(&self.place_buf) {
            let dst = Endpoint::Server(server);
            let delay = self.topology.delay(now, Endpoint::Central, dst);
            let arrive = Event::TaskArrive {
                server,
                job,
                task,
                class,
            };
            net.send(delay, dst, arrive);
        }
    }

    /// Takes `server` out of service (§ scenario dynamics): the cluster
    /// drains its queue, the central scheduler stops placing there, and
    /// every drained entry is migrated to a live server or abandoned.
    fn on_node_down<T: Transport>(&mut self, net: &mut T, server: ServerId) {
        debug_assert!(self.drain_buf.is_empty(), "stale drain buffer");
        let mut drained = std::mem::take(&mut self.drain_buf);
        if !self.cluster.fail_server(server, &mut drained) {
            self.drain_buf = drained;
            return; // already down: duplicate script entry
        }
        debug_assert!(
            net.owns(server) || drained.is_empty(),
            "a non-owned server held queue entries"
        );
        if let Some(central) = &mut self.central {
            central.fail(server);
        }
        for entry in drained.drain(..) {
            self.relocate(net, server, entry);
        }
        self.drain_buf = drained;
    }

    /// Moves one queue entry off the failed server `from`. With every
    /// scheduler in reach the entry is re-placed point-to-point, one hop;
    /// across a wire the decision belongs to the entry's scheduler, so it
    /// detours there first (one hop in, one hop out).
    fn relocate<T: Transport>(&mut self, net: &mut T, from: ServerId, entry: QueueEntry) {
        let (job, task) = match entry {
            QueueEntry::Task(spec) => (spec.job, Some(spec.task)),
            QueueEntry::Probe { job, .. } => (job, None),
        };
        if !T::REMOTE_SCHEDULERS {
            return self.replace(net, from, Endpoint::Server(from), job, task);
        }
        let decider = deciding_scheduler(job, task);
        let delay = self
            .topology
            .delay(net.now(), Endpoint::Server(from), decider);
        net.send(delay, decider, Event::Relocate { from, job, task });
    }

    /// The deciding scheduler's half of a relocation: migrates `job`'s
    /// entry — task `task`, or a probe when `None` — to a live server with
    /// a message from `src`, or abandons it. The decider is the job's home,
    /// so the job's class is its own to read.
    ///
    /// * **Tasks** carry real committed work: they move to the live server
    ///   the centralized scheduler would pick next, with the waiting-time
    ///   bookkeeping following the task.
    /// * **Probes** are late-binding reservations: [`displaced_probe`]
    ///   re-probes a random live server of the route's scope while the job
    ///   has unlaunched tasks, and abandons the probe otherwise.
    fn replace<T: Transport>(
        &mut self,
        net: &mut T,
        from: ServerId,
        src: Endpoint,
        job: JobId,
        task: Option<u32>,
    ) {
        let class = self.estimates.class(job, self.cutoff);
        match task {
            Some(task) => {
                let target = self
                    .central
                    .as_mut()
                    .expect("directly-placed tasks imply a central scheduler")
                    .migrate(from, self.estimates.estimate(job));
                self.migrations += 1;
                let dst = Endpoint::Server(target);
                let delay = self.topology.delay(net.now(), src, dst);
                let arrive = Event::TaskArrive {
                    server: target,
                    job,
                    task,
                    class,
                };
                net.send(delay, dst, arrive);
            }
            None => {
                let unlaunched =
                    (self.jobs[job.index()].next_task as usize) < self.trace.job(job).num_tasks();
                let rng = &mut self.scenario_rng;
                match displaced_probe(unlaunched, &self.cluster, &*self.scheduler, class, rng) {
                    Some(target) => {
                        self.migrations += 1;
                        self.send_probe(net, src, target, job, class, 0);
                    }
                    None => self.abandons += 1,
                }
            }
        }
    }

    fn on_bind_request<T: Transport>(&mut self, net: &mut T, server: ServerId, job: JobId) {
        // The response travels scheduler → server, the reverse of the
        // request hop that produced this event.
        let dst = Endpoint::Server(server);
        let delay = self
            .topology
            .delay(net.now(), Endpoint::Scheduler(job.0), dst);
        let response = self.bind(server, job);
        net.send(delay, dst, response);
    }

    /// The job's scheduler answers `server`'s task request: its next task,
    /// or a cancel once all are given out.
    fn bind(&mut self, server: ServerId, job: JobId) -> Event {
        let num_tasks = self.trace.job(job).num_tasks();
        Event::BindResponse {
            server,
            job,
            class: self.estimates.class(job, self.cutoff),
            task: late_bind(&mut self.jobs[job.index()].next_task, num_tasks),
        }
    }

    /// Task `task` of `job` as it queues or launches: its spec, built from
    /// the trace and the run's estimates.
    fn task_entry(&self, job: JobId, task: u32, class: JobClass) -> QueueEntry {
        let estimate = self.estimates.estimate(job);
        QueueEntry::Task(TaskSpec::of(self.trace.job(job), task, estimate, class))
    }

    fn on_task_finish<T: Transport>(&mut self, net: &mut T, server: ServerId) {
        debug_assert!(net.owns(server));
        let (task, action) = self.cluster.on_task_finish(server);
        let job = task.job;
        let central = matches!(self.scheduler.route(task.class), Route::Central(_));
        if T::REMOTE_SCHEDULERS {
            // Completion is measured where the job's scheduler lives: one
            // network delay after the slot freed. A central job's message
            // covers the waiting-time bookkeeping too.
            let (home, done) = if central {
                (Endpoint::Central, Event::CentralTaskDone { job, server })
            } else {
                (Endpoint::Scheduler(job.0), Event::TaskDone { job })
            };
            let delay = self
                .topology
                .delay(net.now(), Endpoint::Server(server), home);
            net.send(delay, home, done);
        } else {
            if central {
                self.central
                    .as_mut()
                    .expect("central bookkeeping for a centrally-routed job")
                    .on_task_complete(server, self.estimates.estimate(job));
            }
            self.on_task_done(net, job);
        }
        self.on_action(net, server, action);
    }

    /// Counts one finished task down at the job's scheduler.
    fn on_task_done<T: Transport>(&mut self, net: &mut T, job: JobId) {
        let run = &mut self.jobs[job.index()];
        run.remaining -= 1;
        if run.remaining == 0 {
            run.completion = net.now();
            self.unfinished -= 1;
        }
    }

    fn on_action<T: Transport>(&mut self, net: &mut T, server: ServerId, action: ServerAction) {
        match action {
            ServerAction::StartTask(spec) => {
                // Heterogeneous scenarios: slot occupancy is the nominal
                // duration scaled by the server's speed factor (identity
                // at speed 1.0).
                let occupancy = self.cluster.occupancy(server, spec.duration);
                net.send(
                    occupancy,
                    Endpoint::Server(server),
                    Event::TaskFinish { server },
                );
            }
            // Decided as the request leaves: with one constant delay the
            // requests reach a job's scheduler in the order they are sent,
            // and only `replace` reads `next_task` in between, which needs
            // a dynamics script.
            ServerAction::RequestBind { job } => match net.constant_delay() {
                Some(one_way) if self.static_cell => {
                    let response = self.bind(server, job);
                    net.send(one_way + one_way, Endpoint::Server(server), response);
                }
                _ => {
                    let scheduler = Endpoint::Scheduler(job.0);
                    let delay = self
                        .topology
                        .delay(net.now(), Endpoint::Server(server), scheduler);
                    net.send(delay, scheduler, Event::BindRequest { server, job });
                }
            },
            ServerAction::BecameIdle => self.try_steal(net, server),
        }
    }

    /// One steal attempt for an idle thief (§3.6): contact the victims the
    /// policy draws, one at a time, and steal from the first with an
    /// eligible group.
    ///
    /// `steal_rng` advances by what is contacted: one bounded draw per
    /// victim ([`crate::VictimDraw::next`]) and nothing after the first
    /// non-empty scan. The steal-candidate index rules a drawn victim out
    /// without a scan (no long work, or no short entry queued ⇒ nothing is
    /// blocked behind a long task) and without a draw of its own.
    ///
    /// Owned victims are scanned synchronously in draw order. If none
    /// yields a group, the victims this core does not own (up to four, in
    /// draw order) are chained into one asynchronous
    /// [`Event::StealRequest`] that each failed hop forwards onward.
    fn try_steal<T: Transport>(&mut self, net: &mut T, thief: ServerId) {
        if !self.stealing || self.cluster.is_down(thief) {
            // No stealing policy, or a draining server's slot emptied: it
            // goes dark instead of stealing new work.
            return;
        }
        let partition = self.cluster.partition();
        let Some(mut victims) = self
            .scheduler
            .victims(&partition, thief, self.rack_geometry)
        else {
            return;
        };
        self.steal_attempts += 1;
        // O(1) via the index: with no candidate among the owned servers
        // every local scan would come back empty. The index says nothing
        // about servers another core owns (they read as idle).
        let local_scan = self.cluster.steal_candidate_count() > 0;
        debug_assert!(self.steal_buf.is_empty(), "stale steal batch");
        let mut robbed = None;
        let mut remotes = [NO_VICTIM; 4];
        let mut remote_count = 0;
        while let Some(victim) = victims.next(&mut self.steal_rng, &mut self.victim_scratch) {
            if !net.owns(victim) {
                if remote_count < remotes.len() {
                    remotes[remote_count] = victim.0;
                    remote_count += 1;
                }
                continue;
            }
            if !local_scan || !self.cluster.is_steal_candidate(victim) {
                // One bitmap load instead of a cold walk of the victim's
                // queue.
                continue;
            }
            self.steal_scans += 1;
            self.cluster.steal_into(victim, &mut self.steal_buf);
            if !self.steal_buf.is_empty() {
                robbed = Some(victim);
                break;
            }
        }
        if let Some(victim) = robbed {
            self.steals += 1;
            // The topology prices the transfer (free under the paper's
            // model, §4.1) and records steal-locality counters for
            // placement-aware fabrics.
            let transfer = self.topology.steal_transfer(
                net.now(),
                Endpoint::Server(victim),
                Endpoint::Server(thief),
            );
            if transfer.is_zero() {
                if let Some(action) = self.cluster.give_stolen_drain(thief, &mut self.steal_buf) {
                    self.on_action(net, thief, action);
                }
            } else {
                // Park the group in a recycled pool slot while it is in
                // flight; the event carries only the 4-byte handle.
                let batch = net.stolen_pool().put(&mut self.steal_buf);
                net.send(
                    transfer,
                    Endpoint::Server(thief),
                    Event::StolenArrive {
                        server: thief,
                        batch,
                    },
                );
            }
        } else if remote_count > 0 {
            self.send_steal_request(
                net,
                thief,
                Endpoint::Server(thief),
                ServerId(remotes[0]),
                [remotes[1], remotes[2], remotes[3]],
            );
        }
    }

    fn send_steal_request<T: Transport>(
        &mut self,
        net: &mut T,
        thief: ServerId,
        src: Endpoint,
        victim: ServerId,
        rest: [u32; 3],
    ) {
        let dst = Endpoint::Server(victim);
        let delay = self.topology.delay(net.now(), src, dst);
        net.send(
            delay,
            dst,
            Event::StealRequest {
                thief,
                victim,
                rest,
            },
        );
    }

    /// A remote thief's steal request against an owned victim. A failed
    /// scan forwards the request to the next candidate in `rest` (sent
    /// from the owned victim); when the chain is exhausted no reply is
    /// sent, like an unsuccessful local scan.
    fn on_steal_request<T: Transport>(
        &mut self,
        net: &mut T,
        thief: ServerId,
        victim: ServerId,
        rest: [u32; 3],
    ) {
        debug_assert!(net.owns(victim));
        if !self.stealing {
            return;
        }
        debug_assert!(self.steal_buf.is_empty(), "stale steal batch");
        // Down servers sit in no index, so one bit answers both questions.
        if self.cluster.is_steal_candidate(victim) {
            self.steal_scans += 1;
            self.cluster.steal_into(victim, &mut self.steal_buf);
        }
        if self.steal_buf.is_empty() {
            if rest[0] != NO_VICTIM {
                self.send_steal_request(
                    net,
                    thief,
                    Endpoint::Server(victim),
                    ServerId(rest[0]),
                    [rest[1], rest[2], NO_VICTIM],
                );
            }
            return;
        }
        self.steals += 1;
        let now = net.now();
        let (from, to) = (Endpoint::Server(victim), Endpoint::Server(thief));
        let transfer = self.topology.steal_transfer(now, from, to);
        let delay = self.topology.delay(now, from, to) + transfer;
        let batch = net.stolen_pool().put(&mut self.steal_buf);
        net.send(
            delay,
            to,
            Event::StolenArrive {
                server: thief,
                batch,
            },
        );
    }

    fn on_stolen<T: Transport>(&mut self, net: &mut T, server: ServerId, batch: BatchHandle) {
        debug_assert!(net.owns(server));
        net.stolen_pool().take_into(batch, &mut self.steal_buf);
        if self.cluster.is_down(server) {
            // The thief failed mid-transfer: relocate the group in queue
            // order, like a drained queue.
            let mut group = std::mem::take(&mut self.steal_buf);
            for entry in group.drain(..) {
                self.relocate(net, server, entry);
            }
            self.steal_buf = group;
            return;
        }
        if let Some(action) = self.cluster.give_stolen_drain(server, &mut self.steal_buf) {
            self.on_action(net, server, action);
        }
    }
}

/// Sends the servers in `targets` as one event, `burst` of their pooled
/// handle, one way from now (leaving `targets` empty), when the transport
/// has a [`Transport::constant_delay`]; otherwise sends nothing and
/// returns `false`, for the caller to send one message per server. The
/// burst is addressed to its first server.
fn send_burst<T: Transport>(
    net: &mut T,
    targets: &mut Vec<ServerId>,
    burst: impl FnOnce(BatchHandle) -> Event,
) -> bool {
    match net.constant_delay() {
        Some(one_way) => {
            let to = Endpoint::Server(targets[0]);
            let batch = net.burst_pool().put_swap(targets);
            net.send(one_way, to, burst(batch));
            true
        }
        _ => false,
    }
}

/// The scheduler that decides where a stranded queue entry of `job` goes
/// next: central for a directly-placed task, the job's own for a probe.
fn deciding_scheduler(job: JobId, task: Option<u32>) -> Endpoint {
    match task {
        Some(_) => Endpoint::Central,
        None => Endpoint::Scheduler(job.0),
    }
}

/// Assembles the report of a finished run from its cores, and hands the
/// run's estimates back: per-job results from each job's home core
/// (`home_of`), counters summed, and the streaming summary derived from
/// the results. Utilization and the event count come from the harness,
/// which owns sampling and has already freed its event list.
///
/// The cores go by value: every counter is read first, then each core is
/// dropped but for its job table, so the results are allocated after the
/// cluster's queues, the central scheduler and the recycled buffers are
/// freed.
pub(crate) fn report(
    cores: Vec<Core<'_>>,
    home_of: impl Fn(JobId) -> usize,
    util: &UtilizationTracker,
    events: u64,
    sharded: Option<ShardedStats>,
) -> (MetricsReport, JobEstimates) {
    let first = &cores[0];
    let (trace, cutoff, estimates) = (first.trace, first.cutoff, Arc::clone(&first.estimates));
    let admission = first.admission.clone();
    let mut network = NetworkStats::default();
    for core in &cores {
        let stats = core.topology.stats();
        network.rack_local_msgs += stats.rack_local_msgs;
        network.cross_rack_msgs += stats.cross_rack_msgs;
        network.cross_pod_msgs += stats.cross_pod_msgs;
        network.rack_local_steals += stats.rack_local_steals;
        network.steal_transfers += stats.steal_transfers;
    }
    let events_by_kind =
        std::array::from_fn(|kind| cores.iter().map(|c| c.events_by_kind[kind]).sum());
    let sum = |counter: fn(&Core<'_>) -> u64| cores.iter().map(counter).sum();
    let mut report = MetricsReport {
        scheduler: first.scheduler.name(),
        nodes: first.cluster.len(),
        median_utilization: util.median().unwrap_or(0.0),
        max_utilization: util.max().unwrap_or(0.0),
        utilization_samples: util.samples().to_vec(),
        makespan: SimTime::ZERO,
        events,
        steals: sum(|c| c.steals),
        steal_attempts: sum(|c| c.steal_attempts),
        steal_scans: sum(|c| c.steal_scans),
        events_by_kind,
        migrations: sum(|c| c.migrations),
        abandons: sum(|c| c.abandons),
        network,
        sharded,
        streaming: StreamingStats::default(),
        admission: admission
            .as_deref()
            .map(AdmissionPlan::stats)
            .unwrap_or_default(),
        results: Vec::new(),
    };
    let tables: Vec<Vec<JobRun>> = cores.into_iter().map(|core| core.jobs).collect();
    let estimates = Arc::try_unwrap(estimates).unwrap_or_else(|shared| (*shared).clone());

    // Sized once from the trace; the per-job completion check compiles
    // to a branch to a cold panic path instead of an `expect` in the
    // hot map.
    let mut results: Vec<JobResult> = Vec::with_capacity(trace.len());
    for job in trace.jobs() {
        let completion = tables[home_of(job.id)][job.id.index()].completion;
        if completion == UNFINISHED {
            unreachable!("job {} unfinished at report time", job.id);
        }
        report.makespan = report.makespan.max(completion);
        results.push(JobResult {
            job: job.id,
            true_class: cutoff.classify(job.mean_task_duration()),
            scheduled_class: estimates.class(job.id, cutoff),
            submission: job.submission,
            completion,
            num_tasks: job.num_tasks(),
        });
    }
    report.streaming = StreamingStats::from_results(&results, admission.as_deref());
    report.results = results;
    (report, estimates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{Centralized, Hawk, Sparrow};
    use hawk_workload::Job;

    /// The core-side analogue of hawk-proto's `RecordingNet`: records
    /// every emission instead of delivering it, so handlers can be
    /// exercised one event at a time with no engine. `REMOTE` picks the
    /// shared-memory or message-passing flavour at compile time, like the
    /// two real transports.
    struct RecordingTransport<const REMOTE: bool> {
        now: SimTime,
        owned: std::ops::Range<u32>,
        sent: Vec<(SimDuration, Endpoint, Event)>,
        stolen: BatchPool<QueueEntry>,
        bursts: BatchPool<ServerId>,
    }

    impl<const REMOTE: bool> RecordingTransport<REMOTE> {
        fn owning(owned: std::ops::Range<u32>) -> Self {
            RecordingTransport {
                now: SimTime::from_secs(1),
                owned,
                sent: Vec::new(),
                stolen: BatchPool::new(),
                bursts: BatchPool::new(),
            }
        }
    }

    impl<const REMOTE: bool> Transport for RecordingTransport<REMOTE> {
        const REMOTE_SCHEDULERS: bool = REMOTE;

        fn now(&self) -> SimTime {
            self.now
        }

        fn send(&mut self, delay: SimDuration, to: Endpoint, event: Event) {
            self.sent.push((delay, to, event));
        }

        fn owns(&self, server: ServerId) -> bool {
            self.owned.contains(&server.0)
        }

        fn stolen_pool(&mut self) -> &mut BatchPool<QueueEntry> {
            &mut self.stolen
        }

        fn constant_delay(&self) -> Option<SimDuration> {
            (!REMOTE).then_some(ONE_WAY)
        }

        fn burst_pool(&mut self) -> &mut BatchPool<ServerId> {
            &mut self.bursts
        }
    }

    fn one_job_trace(tasks: Vec<u64>) -> Trace {
        Trace::new(vec![Job {
            id: JobId(0),
            submission: SimTime::ZERO,
            tasks: tasks.into_iter().map(SimDuration::from_secs).collect(),
            generated_class: None,
        }])
        .unwrap()
    }

    fn core_for(trace: &Trace, scheduler: impl Scheduler + 'static, nodes: usize) -> Core<'_> {
        let sim = SimConfig {
            nodes,
            ..SimConfig::default()
        };
        let mut inputs = RunInputs::new(trace, &scheduler, &sim);
        Core::new(
            trace,
            Arc::new(scheduler),
            &sim,
            &mut inputs,
            0..nodes as u32,
        )
    }

    /// Every victim `thief`'s next attempt can contact, in draw order, and
    /// `core.steal_rng` as those draws alone would leave it.
    fn full_drain(core: &Core<'_>, scheduler: &Hawk, thief: ServerId) -> (Vec<ServerId>, SimRng) {
        let mut rng = core.steal_rng.clone();
        let mut victims = Vec::new();
        scheduler
            .victims(&core.cluster.partition(), thief, None)
            .expect("hawk steals")
            .drain_into(&mut rng, &mut Vec::new(), &mut victims);
        (victims, rng)
    }

    const ONE_WAY: SimDuration = SimDuration::from_micros(500);

    /// A long task and a short probe: queued in that order on one server
    /// they are the smallest stealable group.
    const LONG_TASK: TaskSpec = TaskSpec {
        job: JobId(0),
        duration: SimDuration::from_secs(5_000),
        estimate: SimDuration::from_secs(5_000),
        class: JobClass::Long,
        task: 0,
        attempt: 0,
    };
    const SHORT_PROBE: QueueEntry = QueueEntry::Probe {
        job: JobId(0),
        class: JobClass::Short,
    };

    /// No variant carries a task spec, so an event is at most 24 bytes and
    /// a pending one 40 in the wheel's arena (`shard.rs` pins the sharded
    /// engine's, whose events carry their core).
    #[test]
    fn event_and_its_wheel_node_stay_within_their_pins() {
        assert!(std::mem::size_of::<Event>() <= 24);
        assert_eq!(hawk_simcore::EventQueue::<Event>::NODE_BYTES, 40);
    }

    /// A job's record holds its late-binding cursor, its countdown and its
    /// completion, and nothing the estimates already know: 16 bytes a job
    /// on every core, and the largest table a finished run still holds.
    #[test]
    fn a_job_record_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<JobRun>(), 16);
    }

    /// `Event::kind` and `Event::KINDS` are two hand-kept lists: every
    /// protocol variant's slot must carry its own name, and every slot
    /// must be used.
    #[test]
    fn event_kinds_label_their_own_variants() {
        let server = ServerId(0);
        let job = JobId(0);
        let class = JobClass::Short;
        let entry = QueueEntry::Probe { job, class };
        let mut pool = BatchPool::new();
        let batch = pool.put(&mut vec![entry]);
        let events = [
            Event::JobArrival(job),
            Event::ProbeArrive {
                server,
                job,
                class,
                bounces: 0,
            },
            Event::TaskArrive {
                server,
                job,
                task: 0,
                class,
            },
            Event::BindRequest { server, job },
            Event::BindResponse {
                server,
                job,
                class,
                task: None,
            },
            Event::TaskFinish { server },
            Event::StolenArrive { server, batch },
            Event::NodeDown(server),
            Event::NodeUp(server),
            Event::StealRequest {
                thief: server,
                victim: server,
                rest: [NO_VICTIM; 3],
            },
            Event::TaskDone { job },
            Event::CentralTaskDone { job, server },
            Event::Relocate {
                from: server,
                job,
                task: None,
            },
            Event::ProbeBurst { job, class, batch },
            Event::TaskBurst { job, class, batch },
        ];
        for (slot, event) in events.iter().enumerate() {
            assert_eq!(event.kind(), slot, "{event:?}");
            let camel: String = Event::KINDS[slot]
                .split('_')
                .map(|word| word[..1].to_uppercase() + &word[1..])
                .collect();
            assert!(format!("{event:?}").starts_with(&camel), "{event:?}");
        }
        assert_eq!(events.len(), Event::KINDS.len());
    }

    /// On the constant network a single-stream core sends a job's probes,
    /// or its central placement, as one burst a one-way delay out, and a
    /// core across a wire sends one message per server. Landing the burst
    /// does what delivering the messages does, server by server in send
    /// order, task `i` on the `i`-th server.
    #[test]
    fn a_burst_lands_what_its_messages_would() {
        let trace = one_job_trace(vec![5_000, 5_000, 5_000]);
        let core = |probing: bool| match probing {
            true => core_for(&trace, Sparrow::new(), 8),
            false => core_for(&trace, Centralized::new(), 8),
        };
        // The server each send after a landing is about, in send order.
        let servers = |sent: &[(SimDuration, Endpoint, Event)]| -> Vec<ServerId> {
            sent.iter()
                .map(|&(_, _, event)| match event {
                    Event::BindRequest { server, .. }
                    | Event::BindResponse { server, .. }
                    | Event::TaskFinish { server } => server,
                    other => panic!("{other:?}"),
                })
                .collect()
        };
        for probing in [true, false] {
            let (mut bursting, mut messaging) = (core(probing), core(probing));
            let mut loopback = RecordingTransport::<false>::owning(0..8);
            let mut wire = RecordingTransport::<true>::owning(0..8);
            bursting.dispatch(&mut loopback, Event::JobArrival(JobId(0)));
            messaging.dispatch(&mut wire, Event::JobArrival(JobId(0)));
            let messages = std::mem::take(&mut wire.sent);
            assert_eq!(messages.len(), if probing { 6 } else { 3 });
            let [(ONE_WAY, to, burst)] = std::mem::take(&mut loopback.sent)[..] else {
                panic!("not one burst: {:?}", loopback.sent);
            };
            assert_eq!(to, messages[0].1);
            bursting.dispatch(&mut loopback, burst);
            for (delay, _, message) in messages {
                assert_eq!(delay, ONE_WAY);
                messaging.dispatch(&mut wire, message);
            }
            assert_eq!(servers(&loopback.sent), servers(&wire.sent), "{burst:?}");
            for server in (0..8).map(ServerId) {
                let slot = |core: &Core<'_>| core.cluster.server(server).slot();
                assert_eq!(slot(&bursting), slot(&messaging), "{server:?}");
            }
        }
    }

    #[test]
    fn bind_request_after_the_last_task_emits_a_cancel() {
        let trace = one_job_trace(vec![10]);
        let mut core = core_for(&trace, Sparrow::new(), 4);
        let mut net = RecordingTransport::<false>::owning(0..4);
        for server in [ServerId(2), ServerId(3)] {
            core.dispatch(
                &mut net,
                Event::BindRequest {
                    server,
                    job: JobId(0),
                },
            );
        }
        assert!(matches!(
            net.sent[..],
            [
                (
                    ONE_WAY,
                    Endpoint::Server(ServerId(2)),
                    Event::BindResponse {
                        server: ServerId(2),
                        job: JobId(0),
                        task: Some(0),
                        ..
                    },
                ),
                (
                    ONE_WAY,
                    Endpoint::Server(ServerId(3)),
                    Event::BindResponse {
                        server: ServerId(3),
                        task: None,
                        ..
                    },
                ),
            ]
        ));
    }

    /// A probe landing on a server that failed while it was in flight is
    /// relocated exactly once — as a detour to the job's scheduler across
    /// a wire, point-to-point in shared memory.
    #[test]
    fn probe_on_a_down_server_emits_exactly_one_relocation() {
        let trace = one_job_trace(vec![10, 10]);
        let probe = Event::ProbeArrive {
            server: ServerId(1),
            job: JobId(0),
            class: JobClass::Short,
            bounces: 0,
        };

        let mut core = core_for(&trace, Sparrow::new(), 4);
        let mut wire = RecordingTransport::<true>::owning(0..4);
        core.dispatch(&mut wire, Event::NodeDown(ServerId(1)));
        assert!(wire.sent.is_empty(), "an empty queue drains nothing");
        core.dispatch(&mut wire, probe);
        assert!(matches!(
            wire.sent[..],
            [(
                ONE_WAY,
                Endpoint::Scheduler(0),
                Event::Relocate {
                    from: ServerId(1),
                    job: JobId(0),
                    task: None,
                },
            )]
        ));
        assert_eq!(core.migrations, 0, "the scheduler decides, not the server");

        let mut core = core_for(&trace, Sparrow::new(), 4);
        let mut local = RecordingTransport::<false>::owning(0..4);
        core.dispatch(&mut local, Event::NodeDown(ServerId(1)));
        core.dispatch(&mut local, probe);
        let [(
            ONE_WAY,
            Endpoint::Server(to),
            Event::ProbeArrive {
                server, bounces: 0, ..
            },
        )] = local.sent[..]
        else {
            panic!("expected one re-probe, got {:?}", local.sent);
        };
        assert_eq!(to, server);
        assert_ne!(server, ServerId(1), "re-probes target live servers");
        assert_eq!(core.migrations, 1);
    }

    /// Remote stealing is the `!owns(victim)` arm of `try_steal`: an idle
    /// thief whose picked victims all live elsewhere sends one request to
    /// the first, carrying the next three for the owner to forward to.
    #[test]
    fn idle_thief_with_only_remote_victims_emits_one_chained_steal_request() {
        let trace = one_job_trace(vec![10]);
        let scheduler = Hawk::new(0.2);
        let thief = ServerId(19);
        let mut core = core_for(&trace, scheduler, 20);
        let (expected, mut after_draws) = full_drain(&core, &scheduler, thief);
        assert!(expected.len() >= 4 && !expected.contains(&thief));

        let mut net = RecordingTransport::<true>::owning(19..20);
        core.on_action(&mut net, thief, ServerAction::BecameIdle);
        let [(
            ONE_WAY,
            Endpoint::Server(to),
            Event::StealRequest {
                thief: asker,
                victim,
                rest,
            },
        )] = net.sent[..]
        else {
            panic!("expected one steal request, got {:?}", net.sent);
        };
        assert_eq!((asker, to, victim), (thief, victim, expected[0]));
        assert_eq!(rest, [expected[1].0, expected[2].0, expected[3].0]);
        assert_eq!((core.steal_attempts, core.steals), (1, 0));
        assert_eq!(net.stolen.in_flight(), 0);
        // Victims past the chain's four are still drawn: an owned one
        // among them would have been scanned.
        assert_eq!(core.steal_rng.next_u64(), after_draws.next_u64());
    }

    /// The steal-candidate index in `try_steal`: a picked victim that holds
    /// long work but has only long entries queued cannot yield a group, so
    /// it is ruled out by its bit — no queue walk (`steal_scans` stays 0)
    /// and no draw from `steal_rng` beyond the one that drew it: ten
    /// victims, ten draws. A bystander keeps the cluster-wide
    /// candidate count above zero, so it is the per-victim bit that skips.
    #[test]
    fn long_only_victims_are_skipped_without_a_scan_or_an_rng_draw() {
        let trace = one_job_trace(vec![10]);
        let scheduler = Hawk::new(0.2);
        let thief = ServerId(19);
        let mut core = core_for(&trace, scheduler, 20);
        let mut net = RecordingTransport::<false>::owning(0..20);
        let (picked, mut after_picks) = full_drain(&core, &scheduler, thief);
        let general = core.cluster.partition().general_count() as u32;
        let bystander = (0..general)
            .map(ServerId)
            .find(|server| !picked.contains(server))
            .expect("the steal cap leaves general servers unpicked");

        let (long, short) = (QueueEntry::Task(LONG_TASK), SHORT_PROBE);
        for &victim in &picked {
            core.on_arrive(&mut net, victim, long, 0);
            core.on_arrive(&mut net, victim, long, 0);
        }
        core.on_arrive(&mut net, bystander, long, 0);
        core.on_arrive(&mut net, bystander, short, 0);
        assert!(picked
            .iter()
            .all(|&v| core.cluster.holds_long_work(v) && !core.cluster.is_steal_candidate(v)));
        assert!(core.cluster.is_steal_candidate(bystander));
        net.sent.clear();

        core.on_action(&mut net, thief, ServerAction::BecameIdle);
        assert_eq!(
            (core.steal_attempts, core.steal_scans, core.steals),
            (1, 0, 0)
        );
        assert_eq!(core.steal_rng.next_u64(), after_picks.next_u64());
        assert!(net.sent.is_empty(), "a failed local attempt sends nothing");

        // A short entry behind the long work flips the bit, and the next
        // thief to pick that victim walks its queue.
        core.on_arrive(&mut net, picked[0], short, 0);
        assert!(core.cluster.is_steal_candidate(picked[0]));
        while core.steals == 0 {
            core.on_action(&mut net, thief, ServerAction::BecameIdle);
            assert!(
                core.steal_attempts < 1_000,
                "no attempt ever picked a candidate"
            );
        }
        assert_eq!(core.steal_scans, 1, "one walk, and it found the group");
    }

    /// The first non-empty scan ends the attempt *and its drawing*: with
    /// every general server a candidate, the first victim drawn is robbed
    /// and `steal_rng` is one bounded draw over the 16 candidates ahead.
    /// Fails on a `try_steal` that lists its victims before contacting
    /// them, or keeps drawing after `robbed` is set.
    #[test]
    fn a_successful_scan_stops_the_draw() {
        let trace = one_job_trace(vec![10]);
        let mut core = core_for(&trace, Hawk::new(0.2), 20);
        let mut net = RecordingTransport::<false>::owning(0..20);
        let (long, short) = (QueueEntry::Task(LONG_TASK), SHORT_PROBE);
        let general = core.cluster.partition().general_count();
        assert_eq!(general, 16);
        for victim in (0..general as u32).map(ServerId) {
            core.on_arrive(&mut net, victim, long, 0);
            core.on_arrive(&mut net, victim, short, 0);
        }
        let mut one_draw = core.steal_rng.clone();
        one_draw.index(general);

        core.on_action(&mut net, ServerId(19), ServerAction::BecameIdle);
        assert_eq!(
            (core.steal_attempts, core.steal_scans, core.steals),
            (1, 1, 1)
        );
        assert_eq!(core.steal_rng.next_u64(), one_draw.next_u64());
    }

    /// The victim's side: a scan that finds a blocked group ships it to
    /// the remote thief as the one payload-carrying message; an empty
    /// scan forwards the request down the chain instead.
    #[test]
    fn steal_request_ships_the_blocked_group_or_forwards_the_chain() {
        let trace = one_job_trace(vec![10]);
        let mut core = core_for(&trace, Hawk::new(0.2), 20);
        let mut net = RecordingTransport::<true>::owning(0..10);
        let (long, blocked) = (LONG_TASK, SHORT_PROBE);
        core.on_arrive(&mut net, ServerId(0), QueueEntry::Task(long), 0);
        core.on_arrive(&mut net, ServerId(0), blocked, 0);
        net.sent.clear();

        let request = |victim| Event::StealRequest {
            thief: ServerId(19),
            victim: ServerId(victim),
            rest: [0, NO_VICTIM, NO_VICTIM],
        };
        core.dispatch(&mut net, request(5));
        assert!(matches!(
            net.sent[..],
            [(
                ONE_WAY,
                Endpoint::Server(ServerId(0)),
                Event::StealRequest {
                    thief: ServerId(19),
                    victim: ServerId(0),
                    rest: [NO_VICTIM, NO_VICTIM, NO_VICTIM],
                },
            )]
        ));
        assert_eq!(net.stolen.in_flight(), 0);

        core.dispatch(&mut net, request(0));
        let Some(&(
            ONE_WAY,
            Endpoint::Server(ServerId(19)),
            Event::StolenArrive {
                server: ServerId(19),
                batch,
            },
        )) = net.sent.last()
        else {
            panic!("expected the stolen group last, got {:?}", net.sent);
        };
        let mut shipped = Vec::new();
        net.stolen.take_into(batch, &mut shipped);
        assert_eq!(shipped, [blocked]);
        assert_eq!(core.steals, 1);
    }
}
