//! The worker (node monitor) daemon.
//!
//! One daemon per cluster node. Since the prototype became a backend for
//! the shared policies, the worker is not a reimplementation of the
//! simulator's server — it *embeds* one: each worker owns a real
//! [`hawk_cluster::Server`] plus its private [`QueueSlab`] (the server's
//! queue is the slab's list 0), so the FIFO queue, the late-binding slot
//! states, the packed stat word and the Figure 3 steal scan
//! ([`hawk_cluster::steal`]) are byte-for-byte the same code both backends
//! run. Whether the worker is down is the embedded server's stat-word bit
//! (the worker keeps no copy), so the server's own check that nothing is
//! enqueued on a down server covers the prototype too. The worker keeps
//! its speed factor, which the server does not store. Policy decisions
//! route through the shared [`Scheduler`] trait:
//!
//! * steal victims come from [`Scheduler::victims`] over the
//!   real [`Partition`] (§3.6);
//! * whether an idle worker steals comes from [`Scheduler::steal`];
//! * probe bouncing asks [`Scheduler::bounce_probe`] against the worker's
//!   own [`Server`] state (the Eagle-style avoidance extension).
//!
//! The daemon is transport- and clock-agnostic: it reacts to
//! [`WorkerMsg`]s and emits effects through [`Net`], so the same state
//! machine runs on an OS thread (wall clock, mpsc channels) and inside
//! the deterministic virtual-clock router.
//!
//! Every arrival — a probe or a directly-placed task — lands as
//! [`hawk_core::land`] decides, the function the simulator's `Core` lands
//! its arrivals with.
//!
//! Stealing is a non-blocking state machine, as in the paper's prototype:
//! an idle worker contacts one victim at a time and keeps servicing
//! messages; an empty reply from the victim contacted last advances to the
//! next victim, a non-empty one enqueues the loot and ends the attempt.
//! The worker draws each victim from the policy's
//! [`hawk_core::VictimDraw`] as it contacts it, as the simulator's `Core`
//! does, so an attempt that succeeds at its first victim has drawn one.
//!
//! # The hardened protocol
//!
//! With a [`TimeoutSpec`] (the fault-injecting router's companion) the
//! worker assumes messages can be dropped, duplicated or reordered:
//!
//! * **Binds** — each `TaskRequest` arms an epoch-tagged self-timer; on
//!   expiry the request is retransmitted (bounded by the retry budget),
//!   then the wait is resolved as a local cancel so the slot never
//!   wedges — the owning scheduler's per-job chain recovers any task that
//!   was actually handed out. Replies are matched to the wait by job and
//!   discarded when stale.
//! * **Steals** — each `StealRequest` arms an epoch-tagged timer that
//!   advances to the next victim on silence; an empty reply from any but
//!   the victim contacted last (a late or duplicated one) is ignored, so
//!   one request at most is in flight. A non-empty grant carries a
//!   transfer nonce: the victim buffers it and retransmits until the
//!   thief acks, then gives up and relocates the entries through the
//!   schedulers — stolen work is never lost in flight. The thief dedups
//!   grants by `(victim, nonce)` and always acks. It banks only a grant
//!   from the victim contacted last, so an attempt takes one group at
//!   most, as the simulator's does; any other grant — a timed-out
//!   victim's late one — is relocated as a down thief's is.
//! * **Launch idempotency** — accepted assignments are deduped by the
//!   `(job, task, attempt)` key, so duplicated or relaunched-then-found
//!   deliveries never double-run on the same worker.
//!
//! Each record lives only as long as the work it guards, plus the horizon
//! H of [`TimeoutSpec::horizon`], the longest hardened wait:
//!
//! * a buffered grant, until the thief acks it or the victim relocates
//!   its entries;
//! * a grant key, for H after the thief first saw the grant — every
//!   retransmission of it is sent within `retries · steal` of the first;
//! * a launch key, while the task is queued or running here, and for H
//!   after it finished. The queue is the record of queued tasks (each
//!   queued spec carries its attempt) and the worker keeps the running
//!   task's attempt, so only finished launches need a record of their own.
//!
//! So the records are sized by the work in flight, not by the run's
//! length: the two expiring lists hold what was noted within H and stop
//! allocating once they have held their busiest horizon.
//!
//! Without a `TimeoutSpec` every one of these paths is compiled around:
//! the fault-free message sequence is byte-identical to the historical
//! one.

use std::sync::Arc;

use hawk_cluster::steal::steal_from_into;
use hawk_cluster::{
    scale_duration, Partition, QueueEntry, QueueSlab, Server, ServerAction, ServerId, Slot,
    TaskSpec,
};
use hawk_core::{land, Landing, RackGeometry, Route, Scheduler, VictimDraw};
use hawk_simcore::{SimDuration, SimRng, SimTime};
use hawk_workload::scenario::NodeChange;
use hawk_workload::JobId;

use crate::fault::TimeoutSpec;
use crate::msg::{CentralMsg, DistMsg, Net, WorkerMsg};
use crate::report::{DaemonStats, MsgKind};

/// The steal attempt in flight: the rest of its victim draw, and the
/// victim contacted last — the one whose empty reply advances it.
#[derive(Clone, Copy)]
struct StealAttempt {
    draw: VictimDraw,
    victim: usize,
}

/// A non-empty steal grant awaiting the thief's ack (hardened protocol).
/// `entries` is the allocation the grant itself carries.
struct PendingGrant {
    nonce: u64,
    thief: usize,
    entries: Arc<[QueueEntry]>,
    retries: u32,
}

/// Keys remembered for `horizon` after they were noted, oldest first (see
/// the module docs). A short expiring list: it holds what was noted within
/// the horizon and reuses its buffer.
struct Recent<K> {
    horizon: SimDuration,
    keys: Vec<(SimTime, K)>,
}

impl<K: PartialEq> Recent<K> {
    fn new(horizon: SimDuration) -> Self {
        let keys = Vec::new();
        Recent { horizon, keys }
    }

    /// Forgets what was noted more than the horizon before `now`, then
    /// looks `key` up.
    fn contains(&mut self, now: SimTime, key: &K) -> bool {
        self.keys.retain(|&(at, _)| now - at <= self.horizon);
        self.keys.iter().any(|(_, k)| k == key)
    }

    /// Notes `key` at `now`; `false` if it was remembered already.
    fn insert(&mut self, now: SimTime, key: K) -> bool {
        let fresh = !self.contains(now, &key);
        if fresh {
            self.keys.push((now, key));
        }
        fresh
    }
}

/// The worker daemon state machine. See the module docs.
pub(crate) struct Worker {
    index: usize,
    /// The *simulator's* server state machine, embedded; its stat word
    /// says whether this worker is down.
    server: Server,
    /// Private queue arena backing `server` (list 0).
    queues: QueueSlab,
    /// Relative execution speed (1.0 = nominal), read at launch.
    speed: f64,
    scheduler: Arc<dyn Scheduler>,
    partition: Partition,
    /// Rack geometry of the modelled fabric, when one exists (virtual
    /// mode over a fat-tree); lets placement-aware policies stratify
    /// their steal-victim picks exactly as the simulation driver does.
    rack_geometry: Option<RackGeometry>,
    /// Whether the policy steals at all.
    stealing: bool,
    /// `None` between attempts.
    steal: Option<StealAttempt>,
    dist_count: usize,
    rng: SimRng,
    /// Whether this worker currently counts toward usable capacity:
    /// in service, or down but still draining a running task — the
    /// simulator's utilization denominator (`Cluster::utilization`).
    counts_as_capacity: bool,
    /// `Some` enables the hardened protocol (see module docs).
    hardened: Option<TimeoutSpec>,
    /// Current bind wait's epoch; stale bind timers carry older values.
    bind_epoch: u64,
    /// Retransmissions used by the current bind wait.
    bind_retries: u32,
    /// Current steal request's epoch; stale steal timers carry older ones.
    steal_epoch: u64,
    /// Next transfer nonce handed to a non-empty steal grant (0 is the
    /// unhardened marker and never allocated).
    next_nonce: u64,
    /// Victim side: grants sent but not yet acked.
    pending_grants: Vec<PendingGrant>,
    /// Thief side: `(victim, nonce)` of the grants banked within H, so
    /// retransmits are not re-run.
    seen_grants: Recent<(usize, u64)>,
    /// `(job, task, attempt)` of the tasks finished here within H.
    finished: Recent<(JobId, u32, u32)>,
    /// The running task's attempt (the slot keeps its job and index).
    running_attempt: u32,
    victim_scratch: Vec<usize>,
    /// The steal scan's output buffer; a reply copies out of it.
    steal_out: Vec<QueueEntry>,
    /// The payload of every refused steal.
    no_loot: Arc<[QueueEntry]>,
    drain_buf: Vec<QueueEntry>,
    pub(crate) stats: DaemonStats,
}

impl Worker {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        index: usize,
        scheduler: Arc<dyn Scheduler>,
        partition: Partition,
        rack_geometry: Option<RackGeometry>,
        dist_count: usize,
        speed: f64,
        rng: SimRng,
        hardened: Option<TimeoutSpec>,
    ) -> Self {
        // The embedded server's queue is list 0 of a single-list slab, so
        // per-worker queue storage is O(live entries), not O(worker
        // index). The worker's cluster-wide identity (`index`) is passed
        // explicitly wherever policy code needs it (steal-victim picks,
        // messages).
        let horizon = hardened.map_or(SimDuration::ZERO, |to| to.horizon());
        Worker {
            index,
            server: Server::default(),
            queues: QueueSlab::new(1),
            speed,
            stealing: scheduler.steal().is_some(),
            scheduler,
            partition,
            rack_geometry,
            steal: None,
            dist_count,
            rng,
            counts_as_capacity: true,
            hardened,
            bind_epoch: 0,
            bind_retries: 0,
            steal_epoch: 0,
            next_nonce: 1,
            pending_grants: Vec::new(),
            seen_grants: Recent::new(horizon),
            finished: Recent::new(horizon),
            running_attempt: 0,
            victim_scratch: Vec::new(),
            steal_out: Vec::new(),
            no_loot: Arc::new([]),
            drain_buf: Vec::new(),
            stats: DaemonStats::default(),
        }
    }

    /// The distributed scheduler owning `job` (submission routing and all
    /// per-job messages use the same mapping).
    fn owner(&self, job: JobId) -> usize {
        job.index() % self.dist_count
    }

    /// Re-derives this worker's usable-capacity contribution (1 while in
    /// service or draining a running task, else 0) and reports the delta.
    /// Called after every transition that can change it: down, up, a bind
    /// starting a task on a down worker, a draining task finishing.
    fn sync_capacity(&mut self, net: &mut impl Net) {
        let counts = !self.server.is_down() || self.server.is_running();
        if counts != self.counts_as_capacity {
            self.counts_as_capacity = counts;
            net.add_capacity(if counts { 1 } else { -1 });
        }
    }

    /// True if the launch `spec` names is queued or running here, or
    /// finished here within H: a delivery of it is a duplicate.
    fn holds_launch(&mut self, spec: &TaskSpec, now: SimTime) -> bool {
        let key = (spec.job, spec.task, spec.attempt);
        let queued = |e| matches!(e, QueueEntry::Task(q) if (q.job, q.task, q.attempt) == key);
        let running = (self.server.slot(), self.running_attempt);
        matches!(running, (Slot::Running(t), a) if (t.job, t.task, a) == key)
            || self.queues.iter(0).any(queued)
            || self.finished.contains(now, &key)
    }

    /// Handles one message; returns `true` on shutdown.
    pub(crate) fn handle(&mut self, msg: WorkerMsg, net: &mut impl Net) -> bool {
        self.stats.deliveries.record(msg.kind());
        match msg {
            WorkerMsg::Probe {
                job,
                class,
                bounces,
            } => self.on_arrive(QueueEntry::Probe { job, class }, bounces, net),
            WorkerMsg::Assign(spec) => self.on_arrive(QueueEntry::Task(spec), 0, net),
            WorkerMsg::BindReply { job, task } => self.on_bind_reply(job, task, net),
            WorkerMsg::StealRequest { thief } => self.on_steal_request(thief, net),
            WorkerMsg::StealReply {
                from,
                nonce,
                entries,
            } => self.on_steal_reply(from, nonce, entries, net),
            WorkerMsg::StealAck { nonce } => {
                // The grant arrived; release the retransmit buffer. A
                // duplicated ack finds nothing and falls through.
                self.pending_grants.retain(|g| g.nonce != nonce);
            }
            WorkerMsg::BindTimeout { epoch } => self.on_bind_timeout(epoch, net),
            WorkerMsg::StealTimeout { epoch } => {
                // Stale once the request was answered (epoch moved on or
                // the attempt resolved); live fires advance to the next
                // victim — the silent one keeps its entries, nothing to
                // recover.
                match self.steal {
                    Some(attempt) if self.hardened.is_some() && epoch == self.steal_epoch => {
                        self.contact_next(attempt.draw, net)
                    }
                    _ => self.stats.stale_timers += 1,
                }
            }
            WorkerMsg::StealRetransmit { nonce } => self.on_steal_retransmit(nonce, net),
            WorkerMsg::Node(NodeChange::Down(_)) => self.on_down(net),
            WorkerMsg::Node(NodeChange::Up(_)) => {
                self.server.set_down(false);
                self.sync_capacity(net);
            }
            WorkerMsg::Shutdown => return true,
        }
        false
    }

    /// A probe that has bounced `bounces` times, or a directly-placed
    /// task, reached this worker: it lands as [`land`] decides. A
    /// displaced entry (it arrived in flight while we failed) is relocated
    /// like a drained one; a bounced probe asks its owning scheduler to
    /// retry elsewhere (it holds the live membership view), one extra hop
    /// relative to the simulator's direct re-probe.
    fn on_arrive(&mut self, entry: QueueEntry, bounces: u8, net: &mut impl Net) {
        match land(&self.server, &*self.scheduler, entry, bounces) {
            Landing::Displaced => self.relocate(entry, net),
            Landing::Bounce { job, class } => net.send_dist(
                self.owner(job),
                DistMsg::Bounce {
                    job,
                    class,
                    bounces: bounces + 1,
                },
            ),
            Landing::Queue => {
                if let QueueEntry::Task(spec) = &entry {
                    if self.hardened.is_some() && self.holds_launch(spec, net.now()) {
                        // Duplicate delivery of a task we already accepted.
                        return;
                    }
                }
                if let Some(action) = self.server.enqueue(&mut self.queues, 0, entry) {
                    self.on_action(action, net);
                }
            }
        }
    }

    fn on_bind_reply(&mut self, job: JobId, task: Option<TaskSpec>, net: &mut impl Net) {
        if self.hardened.is_some() {
            // Accept only a reply for the wait in progress; anything else
            // (duplicate, reply outliving a local cancel, reply crossing
            // a newer wait) is discarded — the scheduler-side relaunch
            // chain recovers any task the stale reply carried.
            let awaiting =
                matches!(self.server.slot(), Slot::AwaitingBind { job: j, .. } if j == job);
            if !awaiting {
                return;
            }
            if let Some(spec) = &task {
                if self.holds_launch(spec, net.now()) {
                    // The same launch already ran here (duplicated reply
                    // answering a retransmitted request): resolve the
                    // wait as a cancel instead of double-running.
                    self.resolve_bind(None, net);
                    return;
                }
            }
            self.resolve_bind(task, net);
            return;
        }
        // Fault-free transport delivers exactly once, in order: resolve
        // unconditionally. A down worker may still be awaiting a bind:
        // the response resolves normally and a bound task drains in
        // place, exactly like the simulator's draining slots.
        let action = self.server.on_bind_response(&mut self.queues, 0, task);
        self.on_action(action, net);
        self.sync_capacity(net);
    }

    /// Resolves the current bind wait (hardened path) and invalidates its
    /// epoch so stale timers become no-ops.
    fn resolve_bind(&mut self, task: Option<TaskSpec>, net: &mut impl Net) {
        self.bind_epoch += 1;
        self.bind_retries = 0;
        let action = self.server.on_bind_response(&mut self.queues, 0, task);
        self.on_action(action, net);
        self.sync_capacity(net);
    }

    fn on_bind_timeout(&mut self, epoch: u64, net: &mut impl Net) {
        let Some(to) = self.hardened else { return };
        if epoch != self.bind_epoch || !self.server.is_awaiting_bind() {
            // The wait this timer covered already resolved.
            self.stats.stale_timers += 1;
            return;
        }
        let Slot::AwaitingBind { job, .. } = self.server.slot() else {
            unreachable!("guarded by is_awaiting_bind");
        };
        if self.bind_retries < to.retries {
            self.bind_retries += 1;
            self.stats.retries += 1;
            net.send_dist(
                self.owner(job),
                DistMsg::TaskRequest {
                    job,
                    worker: self.index,
                },
            );
            net.self_timer_worker(self.index, to.bind, WorkerMsg::BindTimeout { epoch });
        } else {
            // Budget exhausted: resolve as a local cancel so the slot
            // never wedges. If the scheduler did hand out a task, its
            // per-job chain relaunches it elsewhere.
            self.stats.timeouts_fired += 1;
            self.resolve_bind(None, net);
        }
    }

    fn on_steal_request(&mut self, thief: usize, net: &mut impl Net) {
        debug_assert!(self.steal_out.is_empty(), "stale steal batch");
        steal_from_into(&mut self.server, &mut self.queues, 0, &mut self.steal_out);
        // Entries must never be dropped: the reply carries them even when
        // the thief may have failed (the thief's handler relocates them
        // in that case).
        let entries: Arc<[QueueEntry]> = if self.steal_out.is_empty() {
            Arc::clone(&self.no_loot)
        } else {
            Arc::from(self.steal_out.as_slice())
        };
        self.steal_out.clear();
        match self.hardened {
            Some(to) if !entries.is_empty() => {
                // The loot leaves this queue, and with it its launch keys,
                // so a relocation round trip can bring a task back here.
                let nonce = self.next_nonce;
                self.next_nonce += 1;
                net.send_worker(
                    thief,
                    WorkerMsg::StealReply {
                        from: self.index,
                        nonce,
                        entries: Arc::clone(&entries),
                    },
                );
                self.pending_grants.push(PendingGrant {
                    nonce,
                    thief,
                    entries,
                    retries: 0,
                });
                net.self_timer_worker(self.index, to.steal, WorkerMsg::StealRetransmit { nonce });
            }
            _ => {
                net.send_worker(
                    thief,
                    WorkerMsg::StealReply {
                        from: self.index,
                        nonce: 0,
                        entries,
                    },
                );
            }
        }
    }

    fn on_steal_reply(
        &mut self,
        from: usize,
        nonce: u64,
        entries: Arc<[QueueEntry]>,
        net: &mut impl Net,
    ) {
        if entries.is_empty() {
            // Only the victim contacted last moves the attempt on: an
            // empty reply that outlived its steal timer, or a duplicate,
            // would start a second contact.
            if let Some(attempt) = self.steal.filter(|a| a.victim == from) {
                self.contact_next(attempt.draw, net);
            }
            return;
        }
        if self.hardened.is_some() && nonce != 0 {
            // Always ack — the victim retransmits until we do — and bank
            // each grant exactly once.
            net.send_worker(from, WorkerMsg::StealAck { nonce });
            if !self.seen_grants.insert(net.now(), (from, nonce)) {
                return;
            }
        }
        if self.steal.is_none_or(|a| a.victim != from) {
            // Not the grant of the attempt in flight: a timed-out victim's
            // late one, or one that reached a thief gone down. Relocate
            // the loot; the attempt, if any, goes on.
            for &entry in entries.iter() {
                self.relocate(entry, net);
            }
            return;
        }
        self.steal = None;
        self.stats.steals += 1;
        let action = self
            .server
            .enqueue_all(&mut self.queues, 0, entries.iter().copied());
        if let Some(action) = action {
            self.on_action(action, net);
        }
    }

    fn on_steal_retransmit(&mut self, nonce: u64, net: &mut impl Net) {
        let Some(to) = self.hardened else { return };
        let Some(i) = self.pending_grants.iter().position(|g| g.nonce == nonce) else {
            // Acked in the meantime.
            self.stats.stale_timers += 1;
            return;
        };
        let grant = &mut self.pending_grants[i];
        if grant.retries < to.retries {
            grant.retries += 1;
            self.stats.retries += 1;
            let (thief, entries) = (grant.thief, Arc::clone(&grant.entries));
            net.send_worker(
                thief,
                WorkerMsg::StealReply {
                    from: self.index,
                    nonce,
                    entries,
                },
            );
            net.self_timer_worker(self.index, to.steal, WorkerMsg::StealRetransmit { nonce });
        } else {
            // The thief is unreachable: hand the entries back to their
            // schedulers so stolen work is never lost.
            self.stats.timeouts_fired += 1;
            let grant = self.pending_grants.swap_remove(i);
            for &entry in grant.entries.iter() {
                self.relocate(entry, net);
            }
        }
    }

    /// Converts a [`ServerAction`] into messages/timers — the prototype
    /// analogue of the simulation driver's `on_action`.
    fn on_action(&mut self, action: ServerAction, net: &mut impl Net) {
        match action {
            ServerAction::StartTask(spec) => {
                self.running_attempt = spec.attempt;
                net.add_running(1);
                let occupancy = scale_duration(spec.duration, self.speed);
                net.schedule_finish(self.index, occupancy);
            }
            ServerAction::RequestBind { job } => {
                net.send_dist(
                    self.owner(job),
                    DistMsg::TaskRequest {
                        job,
                        worker: self.index,
                    },
                );
                if let Some(to) = self.hardened {
                    self.bind_epoch += 1;
                    self.bind_retries = 0;
                    net.self_timer_worker(
                        self.index,
                        to.bind,
                        WorkerMsg::BindTimeout {
                            epoch: self.bind_epoch,
                        },
                    );
                }
            }
            ServerAction::BecameIdle => self.begin_steal(net),
        }
    }

    /// The running task's deadline fired: complete it and advance.
    pub(crate) fn on_task_finish(&mut self, net: &mut impl Net) {
        self.stats.deliveries.record(MsgKind::TaskFinish);
        net.add_running(-1);
        let (done, action) = self.server.on_task_finish(&mut self.queues, 0);
        let (job, task) = (done.job, done.task);
        if self.hardened.is_some() {
            self.finished
                .insert(net.now(), (job, task, self.running_attempt));
        }
        // Completion reporting follows the policy's routing: the class
        // determines which scheduler owns the bookkeeping.
        match self.scheduler.route(done.class) {
            Route::Central(_) => net.send_central(CentralMsg::TaskDone {
                job,
                worker: self.index,
                task,
            }),
            Route::Distributed(_) => {
                net.send_dist(self.owner(job), DistMsg::TaskDone { job, task })
            }
        }
        self.on_action(action, net);
        self.sync_capacity(net);
    }

    /// Begins a steal attempt if the policy steals, we are live and no
    /// attempt is in flight (§3.6). Victims come from the policy's
    /// [`Scheduler::victims`] over the real partition — the draw the
    /// simulation driver pulls from, one victim as each is contacted.
    fn begin_steal(&mut self, net: &mut impl Net) {
        if !self.stealing || self.server.is_down() || self.steal.is_some() {
            return;
        }
        let thief = ServerId(self.index as u32);
        let Some(draw) = self
            .scheduler
            .victims(&self.partition, thief, self.rack_geometry)
        else {
            return;
        };
        self.stats.steal_attempts += 1;
        self.contact_next(draw, net);
    }

    /// Contacts the next victim of an attempt's `draw`, drawn now, or ends
    /// the attempt when the draw is spent.
    fn contact_next(&mut self, mut draw: VictimDraw, net: &mut impl Net) {
        let Some(victim) = draw.next(&mut self.rng, &mut self.victim_scratch) else {
            self.steal = None;
            return;
        };
        let victim = victim.index();
        self.steal = Some(StealAttempt { draw, victim });
        net.send_worker(victim, WorkerMsg::StealRequest { thief: self.index });
        if let Some(to) = self.hardened {
            // A lost request or reply must not end the attempt: time out
            // and move to the next victim.
            self.steal_epoch += 1;
            net.self_timer_worker(
                self.index,
                to.steal,
                WorkerMsg::StealTimeout {
                    epoch: self.steal_epoch,
                },
            );
        }
    }

    /// Scenario node-down: stop accepting work, drain the queue and hand
    /// every entry to the scheduler that decides where it goes next. A
    /// repeated down changes nothing. A running task finishes on its own;
    /// a pending bind resolves normally and drains in place.
    fn on_down(&mut self, net: &mut impl Net) {
        if self.server.is_down() {
            return; // duplicate script entry
        }
        self.steal = None;
        debug_assert!(self.drain_buf.is_empty(), "stale drain buffer");
        let mut drained = std::mem::take(&mut self.drain_buf);
        self.server
            .drain_queue_into(&mut self.queues, 0, &mut drained);
        self.server.set_down(true);
        for entry in drained.drain(..) {
            self.relocate(entry, net);
        }
        self.drain_buf = drained;
        self.sync_capacity(net);
    }

    /// Sends one displaced queue entry to the scheduler that can re-place
    /// it: tasks return to the centralized scheduler (waiting-time
    /// bookkeeping follows), probes return to their owning distributed
    /// scheduler, which re-probes or abandons.
    fn relocate(&mut self, entry: QueueEntry, net: &mut impl Net) {
        match entry {
            QueueEntry::Task(spec) => {
                debug_assert!(
                    matches!(self.scheduler.route(spec.class), Route::Central(_)),
                    "queued tasks are always centrally placed"
                );
                net.send_central(CentralMsg::Relocate {
                    from: self.index,
                    spec,
                });
            }
            QueueEntry::Probe { job, class } => {
                net.send_dist(self.owner(job), DistMsg::ReProbe { job, class });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hawk_cluster::TaskSpec;
    use hawk_core::scheduler::Hawk;
    use hawk_simcore::{SimDuration, SimTime};
    use hawk_workload::{JobClass, JobId};

    /// A recording Net for unit-testing the state machine in isolation.
    #[derive(Default)]
    struct RecordingNet {
        now: SimTime,
        worker_msgs: Vec<(usize, WorkerMsg)>,
        dist_msgs: Vec<(usize, DistMsg)>,
        central_msgs: Vec<CentralMsg>,
        timers: Vec<(usize, SimDuration, WorkerMsg)>,
        finishes: Vec<(usize, SimDuration)>,
        running: i64,
        capacity: i64,
        done: Vec<JobId>,
    }

    impl Net for RecordingNet {
        fn send_worker(&mut self, to: usize, msg: WorkerMsg) {
            self.worker_msgs.push((to, msg));
        }
        fn send_dist(&mut self, to: usize, msg: DistMsg) {
            self.dist_msgs.push((to, msg));
        }
        fn send_central(&mut self, msg: CentralMsg) {
            self.central_msgs.push(msg);
        }
        fn schedule_finish(&mut self, worker: usize, occupancy: SimDuration) {
            self.finishes.push((worker, occupancy));
        }
        fn job_done(&mut self, job: JobId) {
            self.done.push(job);
        }
        fn add_running(&mut self, delta: i64) {
            self.running += delta;
        }
        fn add_capacity(&mut self, delta: i64) {
            self.capacity += delta;
        }
        fn now(&self) -> SimTime {
            self.now
        }
        fn self_timer_worker(&mut self, to: usize, after: SimDuration, msg: WorkerMsg) {
            self.timers.push((to, after, msg));
        }
    }

    fn hawk_worker(index: usize) -> Worker {
        Worker::new(
            index,
            Arc::new(Hawk::new(0.2)),
            Partition::new(10, 0.2),
            None,
            2,
            1.0,
            SimRng::seed_from_u64(1),
            None,
        )
    }

    fn hardened_worker(index: usize) -> Worker {
        Worker::new(
            index,
            Arc::new(Hawk::new(0.2)),
            Partition::new(10, 0.2),
            None,
            2,
            1.0,
            SimRng::seed_from_u64(1),
            Some(TimeoutSpec {
                probe: SimDuration::from_secs(30),
                bind: SimDuration::from_secs(1),
                steal: SimDuration::from_secs(1),
                retries: 2,
            }),
        )
    }

    fn task(job: u32, class: JobClass, secs: u64) -> TaskSpec {
        TaskSpec {
            job: JobId(job),
            duration: SimDuration::from_secs(secs),
            estimate: SimDuration::from_secs(secs),
            class,
            task: 0,
            attempt: 0,
        }
    }

    #[test]
    fn probe_at_idle_worker_requests_bind_from_owner() {
        let mut w = hawk_worker(0);
        let mut net = RecordingNet::default();
        w.handle(
            WorkerMsg::Probe {
                job: JobId(3),
                class: JobClass::Short,
                bounces: 0,
            },
            &mut net,
        );
        // Job 3 is owned by dist scheduler 3 % 2 = 1.
        assert_eq!(
            net.dist_msgs,
            vec![(
                1,
                DistMsg::TaskRequest {
                    job: JobId(3),
                    worker: 0
                }
            )]
        );
        assert!(net.timers.is_empty(), "no timers unless hardened");
    }

    #[test]
    fn assigned_task_starts_with_speed_scaled_occupancy() {
        let mut w = Worker::new(
            0,
            Arc::new(Hawk::new(0.2)),
            Partition::new(10, 0.2),
            None,
            2,
            0.5, // half speed
            SimRng::seed_from_u64(1),
            None,
        );
        let mut net = RecordingNet::default();
        w.handle(WorkerMsg::Assign(task(1, JobClass::Long, 10)), &mut net);
        assert_eq!(net.finishes, vec![(0, SimDuration::from_secs(20))]);
        assert_eq!(net.running, 1);
    }

    #[test]
    fn central_task_completion_reports_to_central() {
        let mut w = hawk_worker(0);
        let mut net = RecordingNet::default();
        w.handle(WorkerMsg::Assign(task(1, JobClass::Long, 10)), &mut net);
        w.on_task_finish(&mut net);
        assert_eq!(net.running, 0);
        assert!(matches!(
            net.central_msgs[0],
            CentralMsg::TaskDone {
                job: JobId(1),
                worker: 0,
                task: 0,
                ..
            }
        ));
    }

    /// The victims `net` has sent steal requests to, in order.
    fn steal_requests(net: &RecordingNet) -> Vec<usize> {
        net.worker_msgs
            .iter()
            .filter(|(_, m)| matches!(m, WorkerMsg::StealRequest { .. }))
            .map(|&(to, _)| to)
            .collect()
    }

    fn empty_reply(from: usize) -> WorkerMsg {
        WorkerMsg::StealReply {
            from,
            nonce: 0,
            entries: Arc::new([]),
        }
    }

    /// Makes `w` idle: a long task runs and finishes with an empty queue.
    fn go_idle(w: &mut Worker, net: &mut RecordingNet) {
        w.handle(WorkerMsg::Assign(task(1, JobClass::Long, 5)), net);
        w.on_task_finish(net);
    }

    #[test]
    fn idle_transition_contacts_one_victim_at_a_time() {
        let mut w = hawk_worker(9); // short-partition worker of the 10-node cell
        let mut net = RecordingNet::default();
        go_idle(&mut w, &mut net);
        let requests = steal_requests(&net);
        assert_eq!(requests.len(), 1, "contacts exactly one victim at a time");
        assert_eq!(w.stats.steal_attempts, 1);
        // An empty reply from that victim advances to the next one.
        w.handle(empty_reply(requests[0]), &mut net);
        assert_eq!(steal_requests(&net).len(), 2);
    }

    /// Only the victim contacted last moves an attempt on: the timed-out
    /// victim's late empty reply, and a duplicate of the current victim's
    /// once it has been acted on, start no second contact. Fails on a
    /// worker that advances on any empty reply (three requests in flight
    /// after the late reply, four after the duplicate).
    #[test]
    fn a_late_or_duplicated_empty_reply_starts_no_second_contact() {
        let mut w = hardened_worker(9);
        let mut net = RecordingNet::default();
        go_idle(&mut w, &mut net);
        let first = steal_requests(&net)[0];
        w.handle(
            WorkerMsg::StealTimeout {
                epoch: w.steal_epoch,
            },
            &mut net,
        );
        let second = steal_requests(&net)[1];
        w.handle(empty_reply(first), &mut net);
        assert_eq!(steal_requests(&net), [first, second], "late reply");
        w.handle(empty_reply(second), &mut net);
        let third = steal_requests(&net)[2];
        w.handle(empty_reply(second), &mut net);
        assert_eq!(steal_requests(&net), [first, second, third], "duplicate");
    }

    /// A worker draws each victim as it contacts it, from the policy's
    /// `VictimDraw`: after the first victim's non-empty reply its stream
    /// has moved by exactly one draw. Fails on a worker that drains the
    /// whole cap before its first contact.
    #[test]
    fn a_worker_draws_only_the_victims_it_contacts() {
        let mut w = hawk_worker(9);
        let mut net = RecordingNet::default();
        let mut one_draw = w.rng.clone();
        let victim = Hawk::new(0.2)
            .victims(&w.partition, ServerId(9), None)
            .expect("hawk steals")
            .next(&mut one_draw, &mut Vec::new())
            .expect("a general server to rob");
        go_idle(&mut w, &mut net);
        assert_eq!(steal_requests(&net), [victim.index()]);
        let loot = QueueEntry::Probe {
            job: JobId(2),
            class: JobClass::Short,
        };
        w.handle(
            WorkerMsg::StealReply {
                from: victim.index(),
                nonce: 0,
                entries: Arc::new([loot]),
            },
            &mut net,
        );
        assert_eq!(w.stats.steals, 1);
        assert_eq!(w.rng.next_u64(), one_draw.next_u64());
    }

    #[test]
    fn steal_scan_is_the_shared_figure3_scan() {
        // Victim: executing a long task with two shorts queued → the
        // stolen group is both shorts, in order.
        let mut victim = hawk_worker(1);
        let mut net = RecordingNet::default();
        victim.handle(WorkerMsg::Assign(task(1, JobClass::Long, 100)), &mut net);
        for j in [2, 3] {
            victim.handle(
                WorkerMsg::Probe {
                    job: JobId(j),
                    class: JobClass::Short,
                    bounces: 0,
                },
                &mut net,
            );
        }
        net.worker_msgs.clear();
        victim.handle(WorkerMsg::StealRequest { thief: 9 }, &mut net);
        let (to, msg) = &net.worker_msgs[0];
        assert_eq!(*to, 9);
        match msg {
            WorkerMsg::StealReply {
                from,
                nonce,
                entries,
            } => {
                assert_eq!(*from, 1);
                assert_eq!(*nonce, 0, "no transfer nonce unless hardened");
                assert_eq!(entries.len(), 2);
                assert_eq!(entries[0].job(), JobId(2));
                assert_eq!(entries[1].job(), JobId(3));
            }
            other => panic!("expected StealReply, got {other:?}"),
        }
    }

    #[test]
    fn down_worker_drains_and_relocates() {
        let mut w = hawk_worker(0);
        let mut net = RecordingNet::default();
        // Occupy the slot, then queue a central task and a probe.
        w.handle(WorkerMsg::Assign(task(1, JobClass::Long, 100)), &mut net);
        w.handle(WorkerMsg::Assign(task(2, JobClass::Long, 100)), &mut net);
        w.handle(
            WorkerMsg::Probe {
                job: JobId(3),
                class: JobClass::Short,
                bounces: 0,
            },
            &mut net,
        );
        net.central_msgs.clear();
        net.dist_msgs.clear();
        w.handle(WorkerMsg::Node(NodeChange::Down(0)), &mut net);
        assert!(matches!(
            net.central_msgs[0],
            CentralMsg::Relocate { from: 0, .. }
        ));
        assert_eq!(
            net.dist_msgs,
            vec![(
                1,
                DistMsg::ReProbe {
                    job: JobId(3),
                    class: JobClass::Short
                }
            )]
        );
        // New probes arriving while down are sent back for re-probing.
        net.dist_msgs.clear();
        w.handle(
            WorkerMsg::Probe {
                job: JobId(5),
                class: JobClass::Short,
                bounces: 0,
            },
            &mut net,
        );
        assert!(matches!(net.dist_msgs[0].1, DistMsg::ReProbe { .. }));
        // The running task still finishes and reports.
        w.on_task_finish(&mut net);
        assert!(net
            .central_msgs
            .iter()
            .any(|m| matches!(m, CentralMsg::TaskDone { job: JobId(1), .. })));
        // Up restores service.
        w.handle(WorkerMsg::Node(NodeChange::Up(0)), &mut net);
        net.dist_msgs.clear();
        w.handle(
            WorkerMsg::Probe {
                job: JobId(6),
                class: JobClass::Short,
                bounces: 0,
            },
            &mut net,
        );
        assert!(matches!(net.dist_msgs[0].1, DistMsg::TaskRequest { .. }));
    }

    #[test]
    fn probe_for_down_worker_emits_exactly_one_reprobe() {
        // The ReProbe-under-churn path: a probe reaching a down worker
        // must bounce back to its owner exactly once — never strand the
        // reservation, never duplicate it.
        let mut w = hawk_worker(4);
        let mut net = RecordingNet::default();
        w.handle(WorkerMsg::Node(NodeChange::Down(4)), &mut net);
        w.handle(
            WorkerMsg::Probe {
                job: JobId(7),
                class: JobClass::Short,
                bounces: 0,
            },
            &mut net,
        );
        assert_eq!(
            net.dist_msgs,
            vec![(
                1,
                DistMsg::ReProbe {
                    job: JobId(7),
                    class: JobClass::Short
                }
            )],
            "exactly one ReProbe to the owning scheduler"
        );
        assert_eq!(
            w.server.queue_len(),
            0,
            "the probe must not queue on a down worker"
        );
    }

    #[test]
    fn assign_for_down_worker_is_relocated_once() {
        // A central task in flight while its worker failed goes back to
        // the central scheduler; it never queues on the down worker.
        let mut w = hawk_worker(3);
        let mut net = RecordingNet::default();
        w.handle(WorkerMsg::Node(NodeChange::Down(3)), &mut net);
        let spec = task(8, JobClass::Long, 10);
        w.handle(WorkerMsg::Assign(spec), &mut net);
        assert!(matches!(
            net.central_msgs[..],
            [CentralMsg::Relocate { from: 3, spec: s }] if s == spec
        ));
        assert_eq!((w.server.queue_len(), net.running), (0, 0));
    }

    #[test]
    fn bounce_goes_through_the_owning_scheduler() {
        let mut w = Worker::new(
            0,
            Arc::new(Hawk::new(0.0).probe_avoidance(2)),
            Partition::new(4, 0.0),
            None,
            2,
            1.0,
            SimRng::seed_from_u64(4),
            None,
        );
        let mut net = RecordingNet::default();
        // Occupy the slot with long work; a short probe must bounce.
        w.handle(WorkerMsg::Assign(task(1, JobClass::Long, 100)), &mut net);
        net.dist_msgs.clear();
        w.handle(
            WorkerMsg::Probe {
                job: JobId(2),
                class: JobClass::Short,
                bounces: 0,
            },
            &mut net,
        );
        assert_eq!(
            net.dist_msgs,
            vec![(
                0,
                DistMsg::Bounce {
                    job: JobId(2),
                    class: JobClass::Short,
                    bounces: 1
                }
            )]
        );
        // At the bounce limit the probe queues.
        net.dist_msgs.clear();
        w.handle(
            WorkerMsg::Probe {
                job: JobId(2),
                class: JobClass::Short,
                bounces: 2,
            },
            &mut net,
        );
        assert!(net.dist_msgs.is_empty(), "probe queued at the limit");
        assert_eq!(w.server.queue_len(), 1);
    }

    // --- Hardened-protocol units ---

    #[test]
    fn hardened_bind_retransmits_then_cancels_locally() {
        let mut w = hardened_worker(0);
        let mut net = RecordingNet::default();
        w.handle(
            WorkerMsg::Probe {
                job: JobId(3),
                class: JobClass::Short,
                bounces: 0,
            },
            &mut net,
        );
        assert_eq!(net.dist_msgs.len(), 1, "initial TaskRequest");
        let (_, _, timer) = net.timers[0].clone();
        let WorkerMsg::BindTimeout { epoch } = timer else {
            panic!("expected a bind timer, got {timer:?}");
        };
        // Two retransmissions within the budget...
        for i in 1..=2u64 {
            w.handle(WorkerMsg::BindTimeout { epoch }, &mut net);
            assert_eq!(net.dist_msgs.len(), 1 + i as usize);
            assert_eq!(w.stats.retries, i);
        }
        // ...then the wait resolves as a local cancel: the slot is free
        // and the epoch is invalidated.
        w.handle(WorkerMsg::BindTimeout { epoch }, &mut net);
        assert_eq!(w.stats.timeouts_fired, 1);
        assert!(!w.server.is_awaiting_bind());
        // The late reply for the cancelled wait is discarded, not bound.
        w.handle(
            WorkerMsg::BindReply {
                job: JobId(3),
                task: Some(task(3, JobClass::Short, 5)),
            },
            &mut net,
        );
        assert!(!w.server.is_running(), "stale reply must not launch");
        // And a stale timer fire after resolution is a no-op.
        w.handle(WorkerMsg::BindTimeout { epoch }, &mut net);
        assert_eq!(w.stats.timeouts_fired, 1);
    }

    #[test]
    fn hardened_assign_dedups_by_job_task_attempt() {
        let mut w = hardened_worker(0);
        let mut net = RecordingNet::default();
        let spec = task(1, JobClass::Long, 10);
        w.handle(WorkerMsg::Assign(spec), &mut net);
        w.handle(WorkerMsg::Assign(spec), &mut net);
        assert_eq!(net.running, 1, "duplicate assign must not queue");
        assert_eq!(w.server.queue_len(), 0);
        // A relaunch (bumped attempt) is a distinct launch and queues.
        let mut relaunch = spec;
        relaunch.attempt = 1;
        w.handle(WorkerMsg::Assign(relaunch), &mut net);
        assert_eq!(w.server.queue_len(), 1);
    }

    #[test]
    fn hardened_steal_grant_retransmits_until_acked() {
        let mut victim = hardened_worker(1);
        let mut net = RecordingNet::default();
        victim.handle(WorkerMsg::Assign(task(1, JobClass::Long, 100)), &mut net);
        victim.handle(
            WorkerMsg::Probe {
                job: JobId(2),
                class: JobClass::Short,
                bounces: 0,
            },
            &mut net,
        );
        net.worker_msgs.clear();
        victim.handle(WorkerMsg::StealRequest { thief: 9 }, &mut net);
        let WorkerMsg::StealReply { nonce, .. } = &net.worker_msgs[0].1 else {
            panic!("expected a grant");
        };
        let nonce = *nonce;
        assert_ne!(nonce, 0, "hardened non-empty grants carry a nonce");
        // Unacked: the retransmit timer resends the same grant.
        victim.handle(WorkerMsg::StealRetransmit { nonce }, &mut net);
        assert_eq!(victim.stats.retries, 1);
        let grants = net
            .worker_msgs
            .iter()
            .filter(|(_, m)| matches!(m, WorkerMsg::StealReply { nonce: n, .. } if *n == nonce))
            .count();
        assert_eq!(grants, 2);
        // Acked: the buffer clears and further fires are no-ops.
        victim.handle(WorkerMsg::StealAck { nonce }, &mut net);
        victim.handle(WorkerMsg::StealRetransmit { nonce }, &mut net);
        assert_eq!(victim.stats.retries, 1);
        assert_eq!(victim.stats.timeouts_fired, 0);
    }

    #[test]
    fn hardened_steal_grant_gives_up_and_relocates() {
        let mut victim = hardened_worker(1);
        let mut net = RecordingNet::default();
        victim.handle(WorkerMsg::Assign(task(1, JobClass::Long, 100)), &mut net);
        victim.handle(
            WorkerMsg::Probe {
                job: JobId(2),
                class: JobClass::Short,
                bounces: 0,
            },
            &mut net,
        );
        victim.handle(WorkerMsg::StealRequest { thief: 9 }, &mut net);
        let WorkerMsg::StealReply { nonce, .. } = net
            .worker_msgs
            .iter()
            .rev()
            .find(|(_, m)| matches!(m, WorkerMsg::StealReply { .. }))
            .unwrap()
            .1
            .clone()
        else {
            unreachable!();
        };
        net.dist_msgs.clear();
        // Exhaust the retry budget without an ack.
        for _ in 0..3 {
            victim.handle(WorkerMsg::StealRetransmit { nonce }, &mut net);
        }
        assert_eq!(victim.stats.timeouts_fired, 1);
        assert_eq!(
            net.dist_msgs,
            vec![(
                0,
                DistMsg::ReProbe {
                    job: JobId(2),
                    class: JobClass::Short
                }
            )],
            "an undeliverable stolen probe returns to its scheduler"
        );
    }

    #[test]
    fn hardened_thief_dedups_grants_and_always_acks() {
        let mut thief = hardened_worker(9);
        let mut net = RecordingNet::default();
        // An idle thief, so the loot starts immediately, and the grant
        // from the victim it contacted.
        go_idle(&mut thief, &mut net);
        let victim = steal_requests(&net)[0];
        let entries: Arc<[QueueEntry]> = Arc::new([QueueEntry::Probe {
            job: JobId(2),
            class: JobClass::Short,
        }]);
        for _ in 0..2 {
            thief.handle(
                WorkerMsg::StealReply {
                    from: victim,
                    nonce: 42,
                    entries: entries.clone(),
                },
                &mut net,
            );
        }
        let acks = net
            .worker_msgs
            .iter()
            .filter(|(to, m)| *to == victim && matches!(m, WorkerMsg::StealAck { nonce: 42 }))
            .count();
        assert_eq!(acks, 2, "every delivery is acked");
        assert_eq!(thief.stats.steals, 1, "the grant is banked exactly once");
        let binds = net
            .dist_msgs
            .iter()
            .filter(|(_, m)| matches!(m, DistMsg::TaskRequest { .. }))
            .count();
        assert_eq!(binds, 1, "the probe binds once, not per retransmit");
    }

    /// A grant from a victim other than the one contacted last — the
    /// timed-out first victim's late one — is acked and relocated, not
    /// banked, and the attempt goes on with the second victim. Fails on a
    /// thief that banks every grant (one steal, the attempt ended, the
    /// probe bound here instead of re-probed).
    #[test]
    fn a_late_grant_from_a_timed_out_victim_is_relocated_not_banked() {
        let mut w = hardened_worker(9);
        let mut net = RecordingNet::default();
        go_idle(&mut w, &mut net);
        let first = steal_requests(&net)[0];
        w.handle(
            WorkerMsg::StealTimeout {
                epoch: w.steal_epoch,
            },
            &mut net,
        );
        let second = steal_requests(&net)[1];
        net.dist_msgs.clear();
        w.handle(
            WorkerMsg::StealReply {
                from: first,
                nonce: 7,
                entries: Arc::new([QueueEntry::Probe {
                    job: JobId(2),
                    class: JobClass::Short,
                }]),
            },
            &mut net,
        );
        assert!(net
            .worker_msgs
            .iter()
            .any(|(to, m)| *to == first && matches!(m, WorkerMsg::StealAck { nonce: 7 })));
        assert_eq!(
            net.dist_msgs,
            vec![(
                0,
                DistMsg::ReProbe {
                    job: JobId(2),
                    class: JobClass::Short
                }
            )],
            "the late loot returns to its scheduler"
        );
        assert_eq!(w.stats.steals, 0);
        assert_eq!(w.steal.map(|a| a.victim), Some(second), "still in flight");
        assert_eq!(w.server.queue_len(), 0);
    }

    // --- Record lifetimes: the horizon H ---

    /// H of `hardened_worker`: its 30 s chain base outlasts three 1 s
    /// bind or steal waits.
    const H: SimDuration = SimDuration::from_secs(30);

    fn at(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn the_horizon_is_the_longest_hardened_wait() {
        let to = |probe, bind, steal, retries| TimeoutSpec {
            probe: SimDuration::from_secs(probe),
            bind: SimDuration::from_secs(bind),
            steal: SimDuration::from_secs(steal),
            retries,
        };
        assert_eq!(to(30, 1, 1, 2).horizon(), H);
        assert_eq!(to(30, 10, 2, 3).horizon(), SimDuration::from_secs(40));
        assert_eq!(to(30, 2, 9, 3).horizon(), SimDuration::from_secs(36));
        assert_eq!(to(5, 1, 1, 0).horizon(), SimDuration::from_secs(5));
        assert_eq!(hardened_worker(0).finished.horizon, H);
    }

    #[test]
    fn a_duplicate_assign_inside_the_horizon_is_dropped() {
        let mut w = hardened_worker(0);
        let mut net = RecordingNet::default();
        let spec = task(1, JobClass::Long, 10);
        w.handle(WorkerMsg::Assign(spec), &mut net);
        // Running: a duplicate is dropped.
        w.handle(WorkerMsg::Assign(spec), &mut net);
        assert_eq!(net.finishes.len(), 1);
        assert_eq!(w.server.queue_len(), 0);
        net.now = at(10);
        w.on_task_finish(&mut net);
        // Finished, within H of the finish: still dropped.
        net.now = at(10) + H;
        w.handle(WorkerMsg::Assign(spec), &mut net);
        assert_eq!(net.finishes.len(), 1, "a duplicate inside H must not run");
        assert_eq!(w.server.queue_len(), 0);
        // Past H the record is gone, and with it the memory of the launch.
        net.now = at(11) + H;
        w.handle(WorkerMsg::Assign(spec), &mut net);
        assert_eq!(net.finishes.len(), 2, "the record outlived its horizon");
        assert!(w.finished.keys.is_empty());
    }

    #[test]
    fn a_duplicate_assign_of_a_queued_task_is_dropped() {
        // The queue is the record of a queued launch: its spec carries
        // the attempt.
        let mut w = hardened_worker(0);
        let mut net = RecordingNet::default();
        w.handle(WorkerMsg::Assign(task(1, JobClass::Long, 10)), &mut net);
        let mut queued = task(2, JobClass::Long, 10);
        queued.task = 3;
        w.handle(WorkerMsg::Assign(queued), &mut net);
        w.handle(WorkerMsg::Assign(queued), &mut net);
        assert_eq!(w.server.queue_len(), 1);
        // Another task of the same job, or another attempt, is not a
        // duplicate.
        let mut sibling = queued;
        sibling.task = 4;
        let mut relaunch = queued;
        relaunch.attempt = 1;
        w.handle(WorkerMsg::Assign(sibling), &mut net);
        w.handle(WorkerMsg::Assign(relaunch), &mut net);
        assert_eq!(w.server.queue_len(), 3);
    }

    #[test]
    fn a_duplicate_bind_reply_inside_the_horizon_resolves_as_a_cancel() {
        let mut w = hardened_worker(0);
        let mut net = RecordingNet::default();
        let probe = WorkerMsg::Probe {
            job: JobId(3),
            class: JobClass::Short,
            bounces: 0,
        };
        let reply = WorkerMsg::BindReply {
            job: JobId(3),
            task: Some(task(3, JobClass::Short, 5)),
        };
        w.handle(probe.clone(), &mut net);
        w.handle(reply.clone(), &mut net);
        assert_eq!(net.finishes.len(), 1);
        net.now = at(5);
        w.on_task_finish(&mut net);
        // A second probe of the job waits for a bind; the duplicated
        // reply of the first arrives inside H and must not re-run it.
        net.now = at(20);
        w.handle(probe, &mut net);
        assert!(w.server.is_awaiting_bind());
        w.handle(reply, &mut net);
        assert_eq!(net.finishes.len(), 1, "a duplicate inside H must not run");
        assert!(!w.server.is_awaiting_bind(), "resolved as a cancel");
    }

    #[test]
    fn a_grant_retransmitted_inside_the_horizon_is_acked_not_rebanked() {
        let mut thief = hardened_worker(9);
        let mut net = RecordingNet::default();
        go_idle(&mut thief, &mut net);
        let victim = steal_requests(&net)[0];
        let grant = WorkerMsg::StealReply {
            from: victim,
            nonce: 42,
            entries: Arc::new([QueueEntry::Probe {
                job: JobId(2),
                class: JobClass::Short,
            }]),
        };
        // The first delivery, then the last retransmission the victim
        // can send (after `retries` steal intervals), delayed to the edge
        // of the horizon.
        thief.handle(grant.clone(), &mut net);
        net.now = SimTime::ZERO + H;
        thief.handle(grant.clone(), &mut net);
        let acks = net
            .worker_msgs
            .iter()
            .filter(|(to, m)| *to == victim && matches!(m, WorkerMsg::StealAck { nonce: 42 }))
            .count();
        assert_eq!(acks, 2, "every delivery is acked");
        assert_eq!(thief.stats.steals, 1, "the grant is banked exactly once");
        // The key is dropped H after the grant was first seen.
        net.now = at(1) + H;
        thief.handle(grant, &mut net);
        assert_eq!(thief.seen_grants.keys.len(), 1, "only the new sighting");
    }

    #[test]
    fn the_records_stop_growing_in_steady_state() {
        // One task a second for an hour, every grant acked: what the
        // worker remembers is what it saw within H, and its buffers stop
        // growing once they have held one horizon's worth.
        let mut w = hardened_worker(0);
        let mut net = RecordingNet::default();
        let mut capacity = 0;
        for i in 0..3_600u32 {
            net.now = at(u64::from(i));
            let mut spec = task(i, JobClass::Long, 1);
            spec.task = i;
            w.handle(WorkerMsg::Assign(spec), &mut net);
            w.on_task_finish(&mut net);
            if i == 600 {
                capacity = w.finished.keys.capacity();
            }
        }
        assert!(w.finished.keys.len() <= 31, "{}", w.finished.keys.len());
        assert_eq!(w.finished.keys.capacity(), capacity, "grew after warm-up");
        assert!(w.pending_grants.is_empty() && w.seen_grants.keys.is_empty());
    }
}
