//! The deterministic virtual-clock runtime.
//!
//! Runs the *same* daemon state machines as the threaded runtime, but
//! single-threaded under a router: every message is delivered in
//! `(virtual time, sequence)` order after a constant one-way delay, task
//! execution advances the virtual clock instead of sleeping, and all
//! randomness comes from the seeded per-daemon streams. Two runs with the
//! same trace, scheduler and seed are therefore **byte-identical** —
//! the property `tests/backend_conformance.rs` pins, and what makes the
//! prototype usable as a reproducible [`Backend`](hawk_core::Backend)
//! next to the simulator.
//!
//! The run's feed (`runtime::feed`) is walked with a cursor, by the rule
//! the simulator's drivers stream trace arrivals with: one item is pending,
//! and the next is scheduled with [`Engine::schedule_first_at`], ahead of
//! every delivery pending at its time, as the current one is dispatched.
//! That is where a router that loaded the whole feed before anything else
//! would have it, so the cursor moves no delivery; it only keeps the event
//! list sized by the messages in flight instead of the trace.
//!
//! The router's future event list *is* the simulator's: a
//! [`hawk_simcore::Engine`] (the timing wheel of `hawk_simcore::queue`)
//! with the same contract — deliveries pop in firing-time order, FIFO
//! among equal timestamps — so the prototype and the simulator share one
//! event-list implementation and one clock. What stays different is
//! everything around it. The engine carries `Copy` events, and a daemon
//! message is opaque and may own heap data (a stolen group), so each
//! delivery is parked in a recycled slot table and the engine carries its
//! 4-byte handle. The router models the prototype's
//! real hop structure — submissions land at a scheduler daemon which then
//! probes, binds round-trip through the owning scheduler, and steals cost
//! a request/reply exchange. And faults are decided when a message is
//! committed to the wire (`VirtualNet::commit`), never at delivery: a
//! dropped message is not enqueued at all. The conformance harness checks
//! the two executions agree *qualitatively*, not that they are the same
//! program.
//!
//! Every hop is charged by the configured [`Topology`]: the router tracks
//! which daemon is currently executing (the `src` endpoint) and asks the
//! topology for the delay to each recipient, exactly once per message in
//! delivery order — the same discipline the simulation driver follows, so
//! a contended fat tree observes an identical query protocol under both
//! backends.

use hawk_cluster::ServerId;
use hawk_net::{Endpoint, Topology};
use hawk_simcore::{Engine, SimDuration, SimTime};
use hawk_workload::scenario::NodeChange;
use hawk_workload::JobId;

use crate::fault::FaultLanes;
use crate::msg::{CentralMsg, DistMsg, Net, WorkerMsg};
use crate::report::{DaemonStats, Measured, Outcomes};
use crate::runtime::{ClusterSetup, FeedItem, ProtoConfig, Routes, Submission};

/// A routed delivery. `Clone` exists solely for the duplicate fault.
#[derive(Debug, Clone)]
enum Dest {
    Worker(usize, WorkerMsg),
    Dist(usize, DistMsg),
    Central(CentralMsg),
    /// Worker `i`'s running task completes.
    Finish(usize),
    /// The feed item under the cursor fires.
    Feed,
    /// Periodic utilization snapshot.
    UtilSample,
}

/// [`Net`] over the router: sends enqueue deliveries at `now + delay`,
/// timers at `now + occupancy`, completions are recorded in the run's
/// [`Outcomes`] on the virtual clock. The delay of each send is charged
/// by the topology from the daemon currently executing (`src`) to the
/// recipient.
struct VirtualNet {
    /// Clock and future event list. An event is the handle of its
    /// delivery's slot in `parked`; the engine breaks ties FIFO.
    engine: Engine<u32>,
    /// In-flight deliveries by handle; `None` slots are listed in `free`.
    parked: Vec<Option<Dest>>,
    free: Vec<u32>,
    topology: Box<dyn Topology>,
    /// Endpoint of the daemon whose handler is currently running — set by
    /// the delivery loop before every dispatch, so sends made inside the
    /// handler are charged from the right place.
    src: Endpoint,
    running: i64,
    outcomes: Outcomes,
    /// Queued deliveries other than the self-perpetuating `UtilSample` —
    /// the liveness signal: when this hits zero with jobs unfinished,
    /// nothing can ever complete them.
    pending_work: usize,
    /// Usable capacity: in-service workers + down workers draining a
    /// running task (the simulator's utilization denominator).
    capacity: i64,
    /// The delivery-fault seam: spec, dedicated RNG lanes and counters.
    faults: FaultLanes,
}

impl VirtualNet {
    fn new(
        topology: Box<dyn Topology>,
        faults: FaultLanes,
        workers: usize,
        outcomes: Outcomes,
    ) -> Self {
        VirtualNet {
            engine: Engine::new(),
            parked: Vec::new(),
            free: Vec::new(),
            topology,
            // Overwritten before every handler dispatch; Central is a safe
            // placeholder for the pre-loop seeding (which sends nothing).
            src: Endpoint::Central,
            running: 0,
            outcomes,
            pending_work: 0,
            capacity: workers as i64,
            faults,
        }
    }

    fn push_at(&mut self, at: SimTime, dest: Dest) {
        let handle = self.park(dest);
        self.engine.schedule_at(at, handle);
    }

    /// Like [`Self::push_at`], ahead of every delivery pending at `at`.
    fn push_first_at(&mut self, at: SimTime, dest: Dest) {
        let handle = self.park(dest);
        self.engine.schedule_first_at(at, handle);
    }

    /// Parks `dest` in a free slot and returns the slot's handle.
    fn park(&mut self, dest: Dest) -> u32 {
        if !matches!(dest, Dest::UtilSample) {
            self.pending_work += 1;
        }
        match self.free.pop() {
            Some(handle) => {
                self.parked[handle as usize] = Some(dest);
                handle
            }
            None => {
                self.parked.push(Some(dest));
                (self.parked.len() - 1) as u32
            }
        }
    }

    /// Removes the earliest delivery and advances the clock to it.
    fn pop(&mut self) -> Option<Dest> {
        let (_, handle) = self.engine.pop()?;
        let dest = self.parked[handle as usize]
            .take()
            .expect("a handle is delivered exactly once");
        self.free.push(handle);
        if !matches!(dest, Dest::UtilSample) {
            self.pending_work -= 1;
        }
        Some(dest)
    }

    /// Charges one wire message from the current `src` to `dst`: the
    /// topology is asked exactly once per message, in send order — on a
    /// contended fat tree the query itself commits link occupancy. A
    /// non-empty steal reply also moves the stolen work itself, so the
    /// victim→thief transfer is charged on top (free under the paper's
    /// §4.1 model, where only locality is recorded).
    fn charge(&mut self, dst: Endpoint, dest: &Dest) -> SimDuration {
        let mut delay = self.topology.delay(self.now(), self.src, dst);
        if let Dest::Worker(_, WorkerMsg::StealReply { entries, .. }) = dest {
            if !entries.is_empty() {
                delay += self.topology.steal_transfer(self.now(), self.src, dst);
            }
        }
        delay
    }

    /// The one seam every routed send passes through — `send_worker`,
    /// `send_dist` and `send_central` all land here, so the topology
    /// charge and the fault policy apply exactly once per message and
    /// cannot be bypassed by a new send site. (Self-timers and the
    /// task-finish alarm are *not* wire messages: they use `push_at`
    /// directly and are immune to faults.)
    ///
    /// With no injection knobs active this is byte-identical to the
    /// historical router: one topology charge, one enqueue, zero RNG
    /// draws. Otherwise, per message and in frozen draw order: a
    /// partition check (scripted, no draw) severs the route before any
    /// charge; a delivered message draws drop, then jitter; a delivered
    /// message may then duplicate, and the copy — a real second message on
    /// the wire — gets its own topology charge and jitter draw but can
    /// neither drop nor duplicate itself.
    fn commit(&mut self, dst: Endpoint, dest: Dest) {
        if !self.faults.active() {
            let at = self.now() + self.charge(dst, &dest);
            self.push_at(at, dest);
            return;
        }
        if self.faults.partitioned(self.now(), self.src, dst) {
            self.faults.drops += 1;
            return;
        }
        let delay = self.charge(dst, &dest);
        let Some(extra) = self.faults.deliver() else {
            // Lost in transit: the fabric was charged, nothing arrives.
            return;
        };
        let at = self.now() + delay + extra;
        if self.faults.duplicate() {
            let copy = dest.clone();
            self.push_at(at, dest);
            let extra2 = self.faults.perturb();
            let delay2 = self.charge(dst, &copy);
            let at2 = self.now() + delay2 + extra2;
            self.push_at(at2, copy);
        } else {
            self.push_at(at, dest);
        }
    }
}

impl Net for VirtualNet {
    fn send_worker(&mut self, to: usize, msg: WorkerMsg) {
        self.commit(Endpoint::Server(ServerId(to as u32)), Dest::Worker(to, msg));
    }
    fn send_dist(&mut self, to: usize, msg: DistMsg) {
        self.commit(Endpoint::Scheduler(to as u32), Dest::Dist(to, msg));
    }
    fn send_central(&mut self, msg: CentralMsg) {
        self.commit(Endpoint::Central, Dest::Central(msg));
    }
    fn schedule_finish(&mut self, worker: usize, occupancy: SimDuration) {
        let at = self.now() + occupancy;
        self.push_at(at, Dest::Finish(worker));
    }
    fn job_done(&mut self, job: JobId) {
        let now = self.now();
        self.outcomes.complete(job, now);
    }
    fn add_running(&mut self, delta: i64) {
        self.running += delta;
        debug_assert!(self.running >= 0, "running gauge went negative");
    }
    fn add_capacity(&mut self, delta: i64) {
        self.capacity += delta;
        debug_assert!(self.capacity >= 0, "capacity gauge went negative");
    }
    fn now(&self) -> SimTime {
        self.engine.now()
    }
    fn self_timer_worker(&mut self, to: usize, after: SimDuration, msg: WorkerMsg) {
        // Local alarm, not a wire message: no topology charge, no faults.
        let at = self.now() + after;
        self.push_at(at, Dest::Worker(to, msg));
    }
    fn self_timer_dist(&mut self, to: usize, after: SimDuration, msg: DistMsg) {
        let at = self.now() + after;
        self.push_at(at, Dest::Dist(to, msg));
    }
    fn self_timer_central(&mut self, after: SimDuration, msg: CentralMsg) {
        let at = self.now() + after;
        self.push_at(at, Dest::Central(msg));
    }
}

pub(crate) fn run_virtual(
    mut setup: ClusterSetup<'_>,
    routes: &Routes,
    feed: &[(SimTime, FeedItem)],
    outcomes: Outcomes,
    cfg: &ProtoConfig,
    topology: Box<dyn Topology>,
) -> Measured {
    let faults = FaultLanes::new(cfg.faults.clone(), cfg.seed, cfg.workers);
    let mut net = VirtualNet::new(topology, faults, cfg.workers, outcomes);
    // The feed's cursor: the item `Dest::Feed` fires next.
    let mut cursor = 0;
    if let Some(&(at, _)) = feed.first() {
        net.push_at(at, Dest::Feed);
    }
    net.push_at(SimTime::ZERO + cfg.util_interval, Dest::UtilSample);

    let mut samples = Vec::new();
    while net.outcomes.open() > 0 {
        let Some(dest) = net.pop() else {
            panic!(
                "virtual prototype drained its event queue with {} unfinished jobs",
                net.outcomes.open()
            );
        };
        match dest {
            Dest::UtilSample => {
                // The sampler perpetuates itself, so it must not mask a
                // wedged cluster: with no other delivery queued, nothing
                // can ever finish the remaining jobs (the virtual
                // analogue of the threaded liveness deadline).
                assert!(
                    net.pending_work > 0,
                    "virtual prototype is wedged: only sampler events \
                     queued with {} unfinished jobs",
                    net.outcomes.open()
                );
                samples.push(net.running.max(0) as f64 / net.capacity.max(1) as f64);
                let next = net.now() + cfg.util_interval;
                net.push_at(next, Dest::UtilSample);
            }
            Dest::Feed => {
                let (_, item) = feed[cursor];
                cursor += 1;
                if let Some(&(at, _)) = feed.get(cursor) {
                    net.push_first_at(at, Dest::Feed);
                }
                match item {
                    // A submission is handled in place by its owning
                    // scheduler daemon: sends made while processing it
                    // (probes, central assignments) originate there.
                    FeedItem::Submit(index) => {
                        let dest = match routes.submission(index) {
                            Submission::Central(msg) => Dest::Central(msg),
                            Submission::Dist(sched, msg) => Dest::Dist(sched, msg),
                        };
                        deliver(&mut setup, &mut net, dest);
                    }
                    // Fan the membership change out to every daemon, like
                    // the threaded runtime does. Each notification is
                    // processed at its recipient, so follow-up traffic
                    // (migrations, re-probes) originates from the daemon
                    // reacting to it.
                    FeedItem::Node(change) => {
                        let (NodeChange::Down(server) | NodeChange::Up(server)) = change;
                        let worker = Dest::Worker(server as usize, WorkerMsg::Node(change));
                        deliver(&mut setup, &mut net, worker);
                        for i in 0..setup.dists.len() {
                            deliver(&mut setup, &mut net, Dest::Dist(i, DistMsg::Node(change)));
                        }
                        if setup.central.is_some() {
                            deliver(
                                &mut setup,
                                &mut net,
                                Dest::Central(CentralMsg::Node(change)),
                            );
                        }
                    }
                }
            }
            dest => deliver(&mut setup, &mut net, dest),
        }
    }

    let mut stats = DaemonStats::default();
    let daemons = (setup.workers.iter().map(|w| &w.stats))
        .chain(setup.dists.iter().map(|d| &d.stats))
        .chain(setup.central.as_ref().map(|c| &c.stats));
    for daemon in daemons {
        stats.absorb(daemon);
    }
    Measured {
        outcomes: net.outcomes,
        utilization_samples: samples,
        stats,
        network: net.topology.stats(),
        drops: net.faults.drops,
        dups: net.faults.dups,
    }
}

/// Runs the handler `dest` is for at its recipient, which is where every
/// send the handler makes originates.
fn deliver(setup: &mut ClusterSetup<'_>, net: &mut VirtualNet, dest: Dest) {
    match dest {
        Dest::Worker(i, msg) => {
            net.src = Endpoint::Server(ServerId(i as u32));
            setup.workers[i].handle(msg, net);
        }
        Dest::Dist(i, msg) => {
            net.src = Endpoint::Scheduler(i as u32);
            setup.dists[i].handle(msg, net);
        }
        Dest::Central(msg) => {
            net.src = Endpoint::Central;
            let central = setup
                .central
                .as_mut()
                .expect("central message without a central daemon");
            central.handle(msg, net);
        }
        Dest::Finish(i) => {
            net.src = Endpoint::Server(ServerId(i as u32));
            setup.workers[i].on_task_finish(net);
        }
        Dest::Feed | Dest::UtilSample => unreachable!("the run loop handles {dest:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultSpec;
    use hawk_net::TopologySpec;

    const WORKERS: usize = 4;

    /// A router over the paper's constant network, mid-handler at worker 0.
    fn net_with(faults: FaultSpec) -> VirtualNet {
        let mut net = VirtualNet::new(
            TopologySpec::paper_default().build(WORKERS),
            FaultLanes::new(faults, 1, WORKERS),
            WORKERS,
            Outcomes::default(),
        );
        net.src = Endpoint::Server(ServerId(0));
        net
    }

    /// The serial number each scripted delivery was sent under.
    fn serial(dest: &Dest) -> u64 {
        match dest {
            Dest::Worker(_, WorkerMsg::StealAck { nonce }) => *nonce,
            Dest::Dist(_, DistMsg::JobTimeout { job }) => u64::from(job.0),
            Dest::Finish(worker) => *worker as u64,
            other => panic!("unscripted delivery {other:?}"),
        }
    }

    proptest::proptest! {
        /// The router against its model: whatever mix of wire sends,
        /// self-timers (zero-delay ones included), finish alarms and pops,
        /// with as many same-microsecond ties as the delay table can
        /// produce, deliveries come out in `(firing time, send order)`
        /// order and the clock reads each delivery's firing time.
        #[test]
        fn router_delivers_in_time_then_send_order(
            script in proptest::collection::vec((0u8..6, 0usize..8), 1..300),
        ) {
            // Ties, the wire delay's neighbours, and one delay per wheel
            // level an alarm can realistically land on.
            const AFTER: [u64; 8] = [0, 0, 1, 499, 500, 501, 70_000, 9_000_000_000];
            let mut net = net_with(FaultSpec::none());
            let wire = TopologySpec::paper_default().build(WORKERS).delay(
                SimTime::ZERO,
                Endpoint::Server(ServerId(0)),
                Endpoint::Server(ServerId(1)),
            );
            // (firing time, serial) of everything sent and not yet popped;
            // the serial is the send order.
            let mut model: Vec<(SimTime, u64)> = Vec::new();
            let mut next_serial = 0u64;
            let pop_and_check = |net: &mut VirtualNet, model: &mut Vec<(SimTime, u64)>| {
                model.sort_by_key(|&(at, serial)| (at, serial));
                let popped = net.pop().map(|dest| (net.now(), serial(&dest)));
                let expected = (!model.is_empty()).then(|| model.remove(0));
                proptest::prop_assert_eq!(popped, expected);
            };
            for (op, pick) in script {
                let after = SimDuration::from_micros(AFTER[pick]);
                let sent_at = match op {
                    0 => {
                        net.send_worker(1, WorkerMsg::StealAck { nonce: next_serial });
                        net.now() + wire
                    }
                    1 => {
                        net.self_timer_worker(2, after, WorkerMsg::StealAck { nonce: next_serial });
                        net.now() + after
                    }
                    2 => {
                        let job = JobId(next_serial as u32);
                        net.self_timer_dist(0, after, DistMsg::JobTimeout { job });
                        net.now() + after
                    }
                    3 => {
                        net.schedule_finish(next_serial as usize, after);
                        net.now() + after
                    }
                    _ => {
                        pop_and_check(&mut net, &mut model);
                        continue;
                    }
                };
                model.push((sent_at, next_serial));
                next_serial += 1;
            }
            while !model.is_empty() {
                pop_and_check(&mut net, &mut model);
            }
            proptest::prop_assert!(net.pop().is_none());
            proptest::prop_assert_eq!(net.pending_work, 0);
        }
    }

    /// The duplicate fault delivers a second copy; a parked delivery's slot
    /// is recycled, so the table stays as small as the in-flight peak.
    #[test]
    fn slots_recycle_and_duplicates_are_separate_deliveries() {
        let mut net = net_with(FaultSpec::none().duplicate_probability(0.999_999));
        for round in 0..50u64 {
            net.send_worker(1, WorkerMsg::StealAck { nonce: round });
            for _ in 0..2 {
                let dest = net.pop().expect("the message and its duplicate");
                assert_eq!(serial(&dest), round);
            }
            assert!(net.pop().is_none());
        }
        assert_eq!(net.parked.len(), 2, "slots were not recycled");
        assert_eq!(net.faults.dups, 50);
    }
}
