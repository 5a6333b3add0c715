//! Sharded parallel driver: conservative discrete-event simulation for
//! 100k+-node cells.
//!
//! [`ShardedDriver`] partitions the cluster into `K` contiguous shards.
//! Each shard owns a slice of servers and runs its own [`Engine`], RNG
//! streams, recycled buffers and topology instance; shards advance in
//! *epochs* bounded by a conservative lookahead horizon and exchange
//! messages only between epochs, through a deterministic merge. Epochs
//! are executed by a work-claiming pool: each epoch publishes the set
//! of *runnable* shards (those with an event below their horizon),
//! workers claim them one at a time from a shared queue, and whichever
//! worker reports the last result merges inline and publishes the next
//! epoch — no barrier, so an epoch that runs one shard costs one lock
//! round-trip, not a K-thread rendezvous. The result is deterministic
//! for a fixed shard count `K` regardless of how many OS threads
//! execute the shards — worker count is a pure throughput knob.
//!
//! # Synchronization contract
//!
//! Lookahead is a per-shard-pair matrix `D`, not one global constant.
//! The one-hop floor `Δ[i][j]` is the cheapest message any endpoint
//! hosted in shard `i` can deliver to shard `j`: under a rack-aligned
//! map on a fat tree this is [`TopologySpec::min_delay_between`] of the
//! two owned ranges (cross-pod pairs are far "wider apart" than
//! neighbours), otherwise the global
//! [`TopologySpec::min_message_delay`]. `D` is the shortest-*walk*
//! closure of `Δ` (Floyd–Warshall with an unreachable diagonal), so
//! `D[i][j]` also lower-bounds multi-epoch relay chains `i → m → j`,
//! and `D[j][j]` is the cheapest cycle by which shard `j`'s own
//! emission can come back to haunt it. Each epoch:
//!
//! 1. every *runnable* shard `j` (one with an event strictly below its
//!    horizon `H[j]`) processes its local events up to `H[j]`,
//!    buffering cross-shard messages in an outbox kept sorted by
//!    `(firing time, send sequence)`; shards with nothing below their
//!    horizon are skipped entirely;
//! 2. once every runnable shard has reported, the finishing worker
//!    k-way-merges the outbox streams in `(firing time, source shard,
//!    send sequence)` order — a total order independent of thread
//!    interleaving, and the exact order a concat-and-sort would
//!    produce — injecting each envelope directly into its destination
//!    engine without sorting or allocating;
//! 3. the next horizons are `H'[j] = min over i of t[i] + D[i][j]`,
//!    where `t[i]` is the firing time of shard `i`'s next pending event
//!    (re-peeked after injection, so delivered envelopes are counted).
//!
//! Any event shard `i` processes fires at `≥ t[i]`, so any message it
//! sends (or causes, transitively) into shard `j` arrives at
//! `≥ t[i] + D[i][j] ≥ H'[j]` — never inside the receiving shard's
//! processed past. Inbox injection therefore uses
//! [`Engine::try_schedule_at`], which turns any violation of this
//! argument into a hard error in **both** build profiles instead of the
//! release-mode clamp that would silently reorder causality.
//!
//! **Quiescence fast-path:** when exactly one shard has a pending event
//! (`t[i] = ∞` for every other `i`), no horizon can bind before that
//! shard emits — the merge publishes `H[j] = ∞` and the sole active
//! shard *free-runs*: it processes events without a horizon until it
//! emits a cross-shard envelope, finishes its last home job, or
//! exhausts a large event budget. Utilization sampling is lazy (see
//! below) so an idle shard's queue really is empty rather than ticking
//! a sampling clock, which is what lets the fast path fire.
//!
//! **Lazy utilization sampling:** the single-threaded driver schedules
//! a `UtilSample` event every `util_interval`. Here that would keep
//! every idle shard's `t[i]` finite forever (and a self-rescheduling
//! event would livelock a free-run), so samples are not events: each
//! shard records all sample points `≤ t` immediately before processing
//! an event at `t`, and catches up to its horizon at epoch end —
//! sound, because no arrival can land below the horizon, so the
//! sampled state cannot change there. Sample *values* are identical to
//! the eager scheme (cluster state only changes at events); sampled
//! events are no longer counted in `events`.
//!
//! # Shadow clusters
//!
//! Every shard holds a *full-size* [`hawk_cluster::Cluster`] and replays the complete
//! dynamics script, but only ever enqueues work on the servers it owns.
//! Global server ids therefore need no translation, liveness-aware
//! placement (`PlacementView`, victim filters) sees correct membership
//! everywhere, and non-owned servers simply look idle. The built-in
//! policies sample placement targets randomly, so an idle-looking
//! remote server is indistinguishable from a real one; a future
//! depth-aware policy would need shard-aware load views.
//!
//! # Rack-aligned partitioning
//!
//! When the topology exposes rack geometry
//! ([`TopologySpec::rack_geometry`]), the shard map aligns shard
//! boundaries to the largest geometry unit that still leaves at least
//! one unit per shard — pods when the cluster has enough of them,
//! racks otherwise, plain servers as the degenerate fallback. Racks are
//! then never split across shards, every shard pair sits a full
//! cross-rack (usually cross-pod) hop apart — which is exactly what
//! makes the lookahead matrix wide — and under rack-first stealing a
//! thief's rack-local victims are always shard-local. Distributed jobs
//! are homed on the shard that owns the host of their scheduler
//! endpoint (`job id mod nodes`) so every scheduler-source message
//! originates in its home shard and the per-pair floors apply to
//! scheduler traffic too; without geometry the home stays
//! `job id mod K`.
//!
//! # Divergences from the single-threaded [`Driver`]
//!
//! Every shard runs the same protocol [`Core`] as [`Driver`]; this file
//! is only the parallel-simulation harness (shard map, lookahead
//! closure, work-claiming pool, k-way merge, lazy sampling, report
//! merge). What differs is what message passing makes unavoidable, each
//! decided at one line — which is also why `shards <= 1` runs [`Driver`]
//! (byte-identical to every pinned golden digest) and only `K > 1` runs
//! here:
//!
//! * completion is measured at the home scheduler: bookkeeping travels
//!   server → scheduler as a message, so a job completes one network
//!   delay after its last task finished
//!   ([`Transport::REMOTE_SCHEDULERS`] in `Core::on_task_finish`);
//! * relocation off a failed server is two-hop: it detours through the
//!   deciding scheduler (central for tasks, the job's scheduler for
//!   probes), which re-places the entry from its own endpoint
//!   ([`Transport::REMOTE_SCHEDULERS`] in `Core::relocate`);
//! * remote steals are asynchronous: an idle thief scans owned victims
//!   synchronously, and the others from the same pick (up to four) are
//!   tried one at a time, each failed request forwarding to the next
//!   (the `!net.owns(victim)` arm of `Core::try_steal`);
//! * contention state and RNG streams are per shard: each core builds
//!   its own topology instance, so contended fat-trees approximate
//!   global link state, and splits its own probe/steal/scenario streams
//!   (`Core::new`, called once per shard);
//! * sampling is lazy (identical values, different tail truncation at
//!   run end, not counted as engine events): `Shard::sample_up_to`.
//!
//! Headline metrics stay within a few percent of the single-threaded
//! driver (the conformance suite pins a bound); digests are comparable
//! only between runs with the same `K`.
//!
//! [`Driver`]: crate::Driver
//! [`TopologySpec::min_message_delay`]: hawk_net::TopologySpec::min_message_delay

use std::sync::{Arc, Condvar, Mutex};

use hawk_cluster::{QueueEntry, ServerId, UtilizationTracker};
use hawk_net::{Endpoint, RackGeometry, TopologySpec};
use hawk_simcore::{Engine, SimDuration, SimTime};
use hawk_workload::classify::JobEstimates;
use hawk_workload::{JobId, Trace};

use crate::config::{Route, SimConfig};
use crate::metrics::{MetricsReport, ShardedStats};
use crate::protocol::{self, Core, Event, RunInputs, Transport};
use crate::scheduler::Scheduler;

/// The number of simulation worker threads the process should use, the
/// budget the sharded driver and [`crate::Sweep`] divide between cells
/// and shards.
///
/// Defaults to [`std::thread::available_parallelism`]; the
/// `HAWK_WORKER_BUDGET` environment variable overrides it explicitly
/// (clamped to at least 1). The override exists both to pin CI runners
/// to a known width and to stop oversubscription when several
/// simulations share a machine.
pub fn worker_budget() -> usize {
    if let Ok(raw) = std::env::var("HAWK_WORKER_BUDGET") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Contiguous-range shard map: shard `s` owns a run of server ids, with
/// boundaries aligned to multiples of `align` servers. With `align = 1`
/// (no topology geometry) the first `nodes % shards` shards are one
/// server larger — the original placement-blind map. With `align > 1`
/// the cluster is split into `ceil(nodes / align)` alignment units
/// (racks or pods) and whole units are dealt to shards the same way, so
/// no unit is ever split across a shard boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ShardMap {
    nodes: usize,
    shards: usize,
    align: usize,
}

impl ShardMap {
    #[cfg(test)]
    fn new(nodes: usize, shards: usize) -> Self {
        ShardMap::aligned(nodes, shards, 1)
    }

    fn aligned(nodes: usize, shards: usize, align: usize) -> Self {
        let align = align.max(1);
        let units = nodes.max(1).div_ceil(align);
        let shards = shards.clamp(1, units);
        ShardMap {
            nodes,
            shards,
            align,
        }
    }

    /// The alignment unit (servers per indivisible block) that keeps at
    /// least one block per shard: pods when the cluster has enough,
    /// racks otherwise, single servers as the degenerate fallback.
    fn pick_align(nodes: usize, shards: usize, geometry: Option<RackGeometry>) -> usize {
        let Some(geo) = geometry else { return 1 };
        let rack = geo.hosts_per_rack.max(1);
        let pod = rack * geo.racks_per_pod.max(1);
        if nodes.div_ceil(pod) >= shards.max(1) {
            pod
        } else if nodes.div_ceil(rack) >= shards.max(1) {
            rack
        } else {
            1
        }
    }

    /// Whether shard boundaries are aligned to topology geometry (and
    /// therefore scheduler endpoints are homed by owner, and the
    /// lookahead matrix may use per-pair range floors).
    fn rack_aligned(&self) -> bool {
        self.align > 1
    }

    fn units(&self) -> usize {
        self.nodes.max(1).div_ceil(self.align)
    }

    /// Owned id range of shard `s` as `[start, end)`.
    fn range(&self, s: usize) -> (u32, u32) {
        let units = self.units();
        let q = units / self.shards;
        let r = units % self.shards;
        let start_u = s * q + s.min(r);
        let len_u = q + usize::from(s < r);
        let start = (start_u * self.align).min(self.nodes);
        let end = ((start_u + len_u) * self.align).min(self.nodes);
        (start as u32, end as u32)
    }

    /// The shard owning server `id`.
    fn owner(&self, id: ServerId) -> usize {
        let units = self.units();
        let q = units / self.shards;
        let r = units % self.shards;
        let unit = (id.index() / self.align).min(units - 1);
        let wide = r * (q + 1);
        if unit < wide {
            unit / (q + 1)
        } else {
            r + (unit - wide) / q
        }
    }
}

/// A cross-shard message payload.
#[derive(Debug)]
enum WireMsg {
    /// An ordinary event for the destination shard's engine.
    Ev(Event),
    /// A remote steal's stolen group. The only steady-state allocation
    /// of the sharded driver: remote steals carry their entries in an
    /// owned `Vec` (local steals stay in the recycled batch pool).
    Stolen {
        thief: ServerId,
        entries: Vec<QueueEntry>,
    },
}

/// A cross-shard message in flight between epochs.
#[derive(Debug)]
struct Envelope {
    at: SimTime,
    dest: u32,
    src: u32,
    /// Per-source send sequence; `(at, src, seq)` totally orders all
    /// envelopes of a run independently of thread interleaving.
    seq: u64,
    msg: WireMsg,
}

/// One raw utilization sample of a shard's owned slice.
#[derive(Debug, Clone, Copy)]
struct UtilSampleRaw {
    running: u32,
    down_running: u32,
    owned_down: u32,
}

/// Shared state of one sharded run: the shards themselves (locked by
/// whichever worker claims them each epoch), the work queue driving the
/// epoch protocol, and the read-only lookahead matrix.
struct SharedState<'t> {
    shards: Vec<Mutex<Shard<'t>>>,
    work: Mutex<WorkQueue>,
    /// Parked workers wait here; signalled when an epoch with work for
    /// more than one thread is published, and at stop.
    available: Condvar,
    /// Shortest-walk closure of the per-shard-pair one-hop delay
    /// floors, row-major `[src * K + dst]`, raw microseconds. The
    /// diagonal is the cheapest cycle back to the shard itself (never
    /// zero), so a shard's own emissions bound its horizon too.
    delta: Vec<u64>,
    /// How many *peers* of the finishing worker are worth waking per
    /// epoch: the machine's available parallelism minus the one thread
    /// already running. Waking is purely a throughput heuristic (the
    /// finishing worker claims from the fresh schedule itself), so on
    /// a single-core host this is zero and surplus workers park for
    /// the whole run instead of forcing a context switch per epoch.
    wake_cap: usize,
}

/// The epoch scheduler. One mutex guards the whole epoch protocol:
/// workers claim runnable shards from it, report back when a shard has
/// run to its horizon, and the worker whose report completes the epoch
/// merges and publishes the next one *while still holding the lock* —
/// so in sparse phases (almost every epoch has exactly one runnable
/// shard) a single thread runs claim → shard → report → merge → claim
/// with two uncontended lock acquisitions per epoch and no barrier or
/// cross-thread handoff at all. Workers that find nothing to claim
/// park on the condvar and are only woken for epochs that actually
/// have work for a second thread.
struct WorkQueue {
    /// Shard ids with work this epoch (`t[j] < H[j]`), ascending.
    runnable: Vec<u32>,
    /// Claim cursor into `runnable`.
    next: usize,
    /// Shards claimed but not yet reported back.
    inflight: usize,
    /// Per-shard horizons, raw microseconds; `u64::MAX` is the
    /// free-run sentinel (quiescence fast-path).
    horizons: Vec<u64>,
    /// `t[i]`: shard `i`'s next pending event (`u64::MAX` = drained).
    t: Vec<u64>,
    /// Cached per-shard unfinished-home-job counts, plus their sum
    /// (maintained incrementally from epoch reports).
    unfinished: Vec<usize>,
    total_unfinished: usize,
    /// Shards whose outbox holds envelopes awaiting the merge.
    outbox_full: Vec<bool>,
    /// Per-source outbox streams, swapped in from the shards at merge.
    streams: Vec<Vec<Envelope>>,
    /// Read cursor per stream.
    cursors: Vec<usize>,
    /// Recycled per-destination delivery buffers.
    inboxes: Vec<Vec<Envelope>>,
    stopped: bool,
    /// Workers currently waiting on [`SharedState::available`].
    parked: usize,
    epochs: u64,
    merge_envelopes: u64,
    span_accum: u64,
    last_base: u64,
}

/// The outbox transport: maps a destination endpoint to the shard that
/// hosts it — servers by ownership, job schedulers by the homing rule,
/// the central scheduler on shard 0 — and schedules locally or buffers
/// an [`Envelope`] for the epoch merge.
struct Outbox {
    id: usize,
    map: ShardMap,
    own_start: u32,
    own_end: u32,
    engine: Engine<Event>,
    pending: Vec<Envelope>,
    seq: u64,
}

impl Outbox {
    fn post(&mut self, delay: SimDuration, dest: usize, msg: WireMsg) {
        debug_assert_ne!(dest, self.id, "local messages bypass the outbox");
        self.seq += 1;
        self.pending.push(Envelope {
            at: self.engine.now() + delay,
            dest: dest as u32,
            src: self.id as u32,
            seq: self.seq,
            msg,
        });
    }
}

impl Transport for Outbox {
    const REMOTE_SCHEDULERS: bool = true;

    fn now(&self) -> SimTime {
        self.engine.now()
    }

    fn send(&mut self, delay: SimDuration, to: Endpoint, event: Event) {
        let dest = match to {
            Endpoint::Server(server) if self.owns(server) => self.id,
            Endpoint::Server(server) => self.map.owner(server),
            Endpoint::Scheduler(job) => distributed_home(&self.map, JobId(job)),
            Endpoint::Central => 0,
        };
        if dest == self.id {
            self.engine.schedule(delay, event);
        } else {
            self.post(delay, dest, WireMsg::Ev(event));
        }
    }

    fn owns(&self, server: ServerId) -> bool {
        (self.own_start..self.own_end).contains(&server.0)
    }

    fn send_stolen(&mut self, delay: SimDuration, thief: ServerId, entries: &mut Vec<QueueEntry>) {
        // An exact-size copy: the core's recycled batch buffer keeps its
        // capacity.
        let msg = WireMsg::Stolen {
            thief,
            entries: entries.to_vec(),
        };
        entries.clear();
        self.post(delay, self.map.owner(thief), msg);
    }
}

/// One shard: a protocol [`Core`] over a slice of owned servers, with its
/// own engine, outbox and lazy sampling state.
struct Shard<'t> {
    core: Core<'t>,
    net: Outbox,
    util_interval: SimDuration,
    /// Next lazy utilization sample point (see the module docs).
    next_sample: SimTime,
    samples: Vec<UtilSampleRaw>,
}

impl Shard<'_> {
    /// Commits one epoch's merged inbox into the engine. Every envelope
    /// must fire at or after the local clock — the epoch horizon
    /// guarantees it, and `try_schedule_at` makes any violation a hard
    /// error in both build profiles.
    fn inject(&mut self, inbox: &mut Vec<Envelope>) {
        for env in inbox.drain(..) {
            let event = match env.msg {
                WireMsg::Ev(event) => event,
                WireMsg::Stolen { thief, mut entries } => Event::StolenArrive {
                    server: thief,
                    batch: self.core.stolen_pool.put(&mut entries),
                },
            };
            if let Err(err) = self.net.engine.try_schedule_at(env.at, event) {
                panic!(
                    "cross-shard event delivered in shard {}'s past \
                     (epoch-horizon violation): {err}",
                    self.net.id
                );
            }
        }
    }

    /// Records every lazy utilization sample point at or before `limit`
    /// with the *current* cluster state. Callers guarantee no event
    /// below `limit` remains unprocessed, and state between events is
    /// constant, so the values match the single-threaded driver's eager
    /// `UtilSample` events (a sample coinciding with an event reads the
    /// pre-event state).
    fn sample_up_to(&mut self, limit: SimTime) {
        while self.next_sample <= limit {
            self.samples.push(UtilSampleRaw {
                running: self.core.cluster.running_count() as u32,
                down_running: self.core.cluster.down_running_count() as u32,
                owned_down: self.core.owned_down as u32,
            });
            self.next_sample += self.util_interval;
        }
        // Live-metrics windows close on the same lazy schedule. The
        // shadow cluster only ever runs owned tasks, so its utilization
        // is this shard's *share* of the whole-cluster occupancy —
        // `LiveRecorder::merge` sums the shares at report time.
        self.core.close_live_windows(limit);
    }

    /// Pops and handles the next event, first catching lazy sampling up
    /// to its firing time `t`.
    fn step(&mut self, t: SimTime) {
        self.sample_up_to(t);
        let (_, event) = self.net.engine.pop().expect("peeked event vanished");
        self.core.dispatch(&mut self.net, event);
    }

    /// Processes every local event strictly below `horizon`, then
    /// catches utilization sampling up to the horizon (no cross-shard
    /// arrival can land below it, so the state there is final).
    fn run_until(&mut self, horizon: SimTime) {
        while let Some(t) = self.net.engine.peek_time() {
            if t >= horizon {
                break;
            }
            self.step(t);
        }
        self.sample_up_to(horizon);
    }

    /// The quiescence fast-path: this shard is the only one with a
    /// pending event, so nothing can interfere before it emits. Process
    /// events without a horizon until the first cross-shard envelope is
    /// buffered, the last home job completes (its queue may still be
    /// draining bookkeeping that another shard waits on), or a large
    /// budget runs out (a backstop bounding epoch length).
    fn run_free(&mut self) {
        const FREE_RUN_EVENT_BUDGET: u32 = 1 << 22;
        let entered_unfinished = self.core.unfinished > 0;
        let mut budget = FREE_RUN_EVENT_BUDGET;
        while let Some(t) = self.net.engine.peek_time() {
            if budget == 0 {
                break;
            }
            budget -= 1;
            self.step(t);
            if !self.net.pending.is_empty() || (entered_unfinished && self.core.unfinished == 0) {
                break;
            }
        }
    }
}

/// The sharded parallel driver. Construct with [`ShardedDriver::new`],
/// consume with [`ShardedDriver::run`]; see the module docs for the
/// synchronization contract and the divergences from [`crate::Driver`].
pub struct ShardedDriver<'t> {
    shards: Vec<Shard<'t>>,
    /// Home shard of every job, by job index.
    homes: Vec<u32>,
    /// Closure of the per-pair lookahead floors (see [`SharedState`]).
    delta: Vec<u64>,
    workers: usize,
    stats: ShardedStats,
}

impl<'t> ShardedDriver<'t> {
    /// Builds a sharded driver for `sim.shards` shards (clamped to the
    /// node or alignment-unit count), defaulting the worker-thread
    /// count to `min(shards, worker_budget())`. When the topology
    /// exposes rack geometry the shard map aligns to it and the
    /// lookahead matrix uses per-pair range floors (module docs).
    ///
    /// # Panics
    ///
    /// Panics on inconsistent configuration (like [`crate::Driver`]) and
    /// when any shard pair's minimum message delay is zero —
    /// conservative parallel execution requires positive lookahead.
    pub fn new(trace: &'t Trace, scheduler: Arc<dyn Scheduler>, sim: &SimConfig) -> Self {
        let spec = sim.topology_spec();
        let align = ShardMap::pick_align(sim.nodes, sim.shards.max(1), spec.rack_geometry());
        let map = ShardMap::aligned(sim.nodes, sim.shards, align);
        let delta = lookahead_closure(&spec, &map);
        let mut inputs = RunInputs::new(trace, sim);

        // Home assignment is computable up front: class (and therefore
        // route) depends only on the precomputed estimates. Central jobs
        // live on shard 0, which hosts the central endpoint.
        let homes: Vec<u32> = trace
            .jobs()
            .iter()
            .map(|job| {
                let class = inputs.estimates.class(job.id, sim.cutoff);
                match scheduler.route(class) {
                    Route::Central(_) => 0,
                    Route::Distributed(_) => distributed_home(&map, job.id) as u32,
                }
            })
            .collect();

        // Cores are built in shard order, each splitting its RNG streams
        // off the shared root (frozen order, see [`RunInputs`]).
        let shards = (0..map.shards)
            .map(|s| {
                let mut core = Core::new(trace, Arc::clone(&scheduler), sim, &mut inputs, s == 0);
                // Utilization sampling is lazy, not an engine event
                // (module docs).
                let mut engine = Engine::with_capacity(trace.len() * 2 / map.shards + 64);
                core.seed(&mut engine, sim, |job| homes[job.index()] as usize == s);
                let (own_start, own_end) = map.range(s);
                Shard {
                    core,
                    net: Outbox {
                        id: s,
                        map,
                        own_start,
                        own_end,
                        engine,
                        pending: Vec::new(),
                        seq: 0,
                    },
                    util_interval: sim.util_interval,
                    next_sample: SimTime::ZERO + sim.util_interval,
                    samples: Vec::with_capacity(256),
                }
            })
            .collect();

        ShardedDriver {
            shards,
            homes,
            delta,
            workers: worker_budget().clamp(1, map.shards),
            stats: ShardedStats::default(),
        }
    }

    /// Overrides the number of OS worker threads (clamped to
    /// `1..=shards`). Results are identical for every worker count; the
    /// determinism suite pins it.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.clamp(1, self.shards.len());
        self
    }

    /// The number of shards this driver was built with.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Runs the simulation to completion and reports merged metrics.
    ///
    /// # Panics
    ///
    /// Panics if every event queue drains before all jobs complete, or
    /// if a cross-shard message violates the epoch-horizon contract.
    pub fn run(self) -> MetricsReport {
        self.run_with_estimates().0
    }

    /// Like [`ShardedDriver::run`], but also returns the (possibly
    /// misestimated) per-job estimates every shard scheduled by.
    ///
    /// # Panics
    ///
    /// Panics like [`ShardedDriver::run`].
    pub fn run_with_estimates(mut self) -> (MetricsReport, JobEstimates) {
        let shard_count = self.shards.len();
        let total_unfinished: usize = self.shards.iter().map(|s| s.core.unfinished).sum();
        if total_unfinished > 0 {
            let t: Vec<u64> = self
                .shards
                .iter()
                .map(|s| {
                    s.net
                        .engine
                        .peek_time()
                        .map_or(u64::MAX, SimTime::as_micros)
                })
                .collect();
            let base = t.iter().copied().min().expect("at least one shard");
            assert!(base != u64::MAX, "unfinished jobs but no pending events");
            let mut wq = WorkQueue {
                runnable: Vec::with_capacity(shard_count),
                next: 0,
                inflight: 0,
                horizons: vec![0; shard_count],
                unfinished: self.shards.iter().map(|s| s.core.unfinished).collect(),
                total_unfinished,
                outbox_full: vec![false; shard_count],
                streams: (0..shard_count).map(|_| Vec::new()).collect(),
                cursors: vec![0; shard_count],
                inboxes: (0..shard_count).map(|_| Vec::new()).collect(),
                t,
                stopped: false,
                parked: 0,
                epochs: 0,
                merge_envelopes: 0,
                span_accum: 0,
                last_base: base,
            };
            let delta = std::mem::take(&mut self.delta);
            publish_schedule(&mut wq, &delta);
            // Shards are claimed per epoch, not statically assigned:
            // any worker may run any shard, and the merge order depends
            // only on epoch content, so every worker count yields
            // identical results.
            let shared = SharedState {
                shards: self.shards.drain(..).map(Mutex::new).collect(),
                work: Mutex::new(wq),
                available: Condvar::new(),
                delta,
                wake_cap: std::thread::available_parallelism()
                    .map_or(1, std::num::NonZeroUsize::get)
                    .saturating_sub(1),
            };
            let shared_ref = &shared;
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..self.workers)
                    .map(|_| scope.spawn(move || worker_loop(shared_ref)))
                    .collect();
                for handle in handles {
                    handle.join().expect("shard worker panicked");
                }
            });
            self.shards = shared
                .shards
                .into_iter()
                .map(|m| m.into_inner().expect("shard poisoned"))
                .collect();
            let wq = shared.work.into_inner().expect("work queue poisoned");
            self.stats = ShardedStats {
                epochs: wq.epochs,
                merge_envelopes: wq.merge_envelopes,
                avg_epoch_span_micros: wq.span_accum / wq.epochs.max(1),
            };
        }
        self.report()
    }

    fn report(mut self) -> (MetricsReport, JobEstimates) {
        // Merge utilization: every shard samples on the same schedule,
        // so sample i exists in all shards (truncate defensively) and
        // the cluster-wide ratio is the summed numerator over the
        // summed usable capacity of the owned slices.
        let mut util = UtilizationTracker::new(self.shards[0].util_interval);
        let sample_count = self
            .shards
            .iter()
            .map(|s| s.samples.len())
            .min()
            .unwrap_or(0);
        for i in 0..sample_count {
            let mut running = 0u64;
            let mut usable = 0u64;
            for shard in &self.shards {
                let sample = shard.samples[i];
                let own_len = (shard.net.own_end - shard.net.own_start) as u64;
                running += sample.running as u64;
                usable += own_len - sample.owned_down as u64 + sample.down_running as u64;
            }
            util.record(running as f64 / usable.max(1) as f64);
        }
        let events = self.shards.iter().map(|s| s.net.engine.processed()).sum();
        let mut cores: Vec<&mut Core<'t>> = self.shards.iter_mut().map(|s| &mut s.core).collect();
        let report = protocol::report(
            &mut cores,
            |job| self.homes[job.index()] as usize,
            &util,
            events,
            Some(self.stats),
        );
        // Every core shares the estimates; the last one standing owns them.
        let last = self.shards.into_iter().last();
        (
            report,
            last.expect("at least one shard").core.into_estimates(),
        )
    }
}

/// Home shard of a *distributed* job. Under a rack-aligned map the home
/// is the shard owning the host of the job's scheduler endpoint
/// (`job id mod nodes`, see [`Endpoint::host`]), so every
/// scheduler-source message originates in its home shard and the
/// per-pair lookahead floors hold; otherwise jobs are dealt round-robin
/// so scheduler-side work spreads evenly. Central jobs live on shard 0
/// (which owns host 0, the central endpoint).
fn distributed_home(map: &ShardMap, job: JobId) -> usize {
    if map.rack_aligned() {
        map.owner(ServerId((job.index() % map.nodes.max(1)) as u32))
    } else {
        job.index() % map.shards
    }
}

/// Builds the lookahead matrix: per-pair one-hop delay floors closed
/// under shortest walks (Floyd–Warshall), row-major `[src * K + dst]`,
/// raw microseconds. Under a rack-aligned map the one-hop floor of a
/// pair is the minimum delay between the two owned host ranges (every
/// endpoint hosted in shard `i` — servers by ownership, schedulers by
/// the homing rule — maps to a host in `i`'s range); otherwise
/// scheduler endpoints are scattered and only the global minimum is a
/// valid floor. The closed diagonal is the cheapest cycle through each
/// shard, bounding the feedback of a shard's own emissions.
///
/// # Panics
///
/// Panics when any one-hop floor is zero: conservative parallel
/// execution requires positive lookahead.
fn lookahead_closure(spec: &TopologySpec, map: &ShardMap) -> Vec<u64> {
    let k = map.shards;
    let global = spec.min_message_delay().as_micros();
    let mut delta = vec![u64::MAX; k * k];
    for i in 0..k {
        for j in 0..k {
            if i == j {
                continue;
            }
            let floor = if map.rack_aligned() {
                let (a0, a1) = map.range(i);
                let (b0, b1) = map.range(j);
                spec.min_delay_between((a0 as usize, a1 as usize), (b0 as usize, b1 as usize))
                    .as_micros()
            } else {
                global
            };
            assert!(
                floor > 0,
                "sharded execution requires a positive minimum network delay \
                 between shards {i} and {j} (the lookahead of conservative \
                 parallel simulation)"
            );
            delta[i * k + j] = floor;
        }
    }
    for m in 0..k {
        for i in 0..k {
            let im = delta[i * k + m];
            if im == u64::MAX {
                continue;
            }
            for j in 0..k {
                let mj = delta[m * k + j];
                if mj == u64::MAX {
                    continue;
                }
                let via = im.saturating_add(mj);
                if via < delta[i * k + j] {
                    delta[i * k + j] = via;
                }
            }
        }
    }
    delta
}

/// Publishes the next epoch's schedule from the merged `t` vector:
/// horizon `H[j] = min over i of t[i] + D[i][j]`, or the `u64::MAX`
/// free-run sentinel for everyone when at most one shard has anything
/// pending (the quiescence fast-path — with no second actor, no bound
/// binds before the sole active shard emits). Only shards with work
/// strictly below their horizon enter the runnable list; the rest are
/// skipped outright — their lazy utilization samples catch up with
/// identical values once they do run, so skipping is invisible.
fn publish_schedule(wq: &mut WorkQueue, delta: &[u64]) {
    let k = wq.t.len();
    let active = wq.t.iter().filter(|&&ti| ti != u64::MAX).count();
    wq.runnable.clear();
    wq.next = 0;
    for j in 0..k {
        let horizon = if active > 1 {
            (0..k)
                .map(|i| wq.t[i].saturating_add(delta[i * k + j]))
                .min()
                .expect("at least one shard")
        } else {
            u64::MAX
        };
        wq.horizons[j] = horizon;
        if wq.t[j] < horizon {
            wq.runnable.push(j as u32);
        }
    }
}

/// One worker's claim loop. All workers run the same loop: claim the
/// next runnable shard under the work lock, run it to its horizon
/// under its own shard lock, report back under the work lock. The
/// worker whose report completes the epoch merges inline (still
/// holding the work lock) and publishes the next schedule, then loops
/// straight into claiming — so a sparse epoch (one runnable shard)
/// costs one work-lock round and one shard-lock round, with every
/// other worker parked on the condvar.
///
/// Lock order is always work → shard: the claim path drops the work
/// lock before locking its shard, and the done-report drops the shard
/// lock before re-taking the work lock; only the merge holds both,
/// and it is the sole holder of the work lock at that moment.
fn worker_loop(shared: &SharedState<'_>) {
    let mut guard = shared.work.lock().expect("work queue poisoned");
    loop {
        if guard.stopped {
            return;
        }
        if guard.next < guard.runnable.len() {
            let id = guard.runnable[guard.next] as usize;
            guard.next += 1;
            guard.inflight += 1;
            let horizon = guard.horizons[id];
            drop(guard);
            let (next_micros, unfinished, outbox_full) = {
                let mut shard = shared.shards[id].lock().expect("shard poisoned");
                if horizon == u64::MAX {
                    shard.run_free();
                } else {
                    shard.run_until(SimTime::from_micros(horizon));
                }
                // Keep the outbox a sorted stream for the k-way merge.
                // Under constant delays it already is (pdqsort detects
                // the run in O(n)); topology delays can reorder.
                shard
                    .net
                    .pending
                    .sort_unstable_by_key(|env| (env.at.as_micros(), env.seq));
                (
                    shard
                        .net
                        .engine
                        .peek_time()
                        .map_or(u64::MAX, SimTime::as_micros),
                    shard.core.unfinished,
                    !shard.net.pending.is_empty(),
                )
            };
            guard = shared.work.lock().expect("work queue poisoned");
            let wq = &mut *guard;
            wq.t[id] = next_micros;
            wq.total_unfinished += unfinished;
            wq.total_unfinished -= wq.unfinished[id];
            wq.unfinished[id] = unfinished;
            wq.outbox_full[id] = outbox_full;
            wq.inflight -= 1;
            if wq.inflight == 0 && wq.next == wq.runnable.len() {
                merge_epoch(shared, wq);
                if wq.stopped {
                    shared.available.notify_all();
                    return;
                }
                // Waking peers is a throughput heuristic, never a
                // correctness requirement: this worker claims from the
                // fresh schedule itself on the next loop iteration.
                let wake = shared
                    .wake_cap
                    .min(wq.parked)
                    .min(wq.runnable.len().saturating_sub(1));
                for _ in 0..wake {
                    shared.available.notify_one();
                }
            }
        } else {
            guard.parked += 1;
            guard = shared.available.wait(guard).expect("work queue poisoned");
            guard.parked -= 1;
        }
    }
}

/// The zero-sort merge core: drains the per-source outbox `streams`
/// (each already sorted by `(firing time, send sequence)`) into the
/// per-destination `inboxes` in global `(firing time, source shard,
/// send sequence)` order — exactly what concatenating every stream and
/// sorting by that key would produce, without sorting or allocating.
/// `cursors[src]` must be zeroed for every non-empty stream. Returns
/// the number of envelopes moved.
///
/// Linear argmin over the stream heads: k is small (≤ tens), so this
/// beats a binary heap and keeps the order trivially equal to the sort
/// key. Consumed slots are back-filled with an inert placeholder
/// instead of shifting the stream.
fn kway_merge_streams(
    streams: &mut [Vec<Envelope>],
    cursors: &mut [usize],
    inboxes: &mut [Vec<Envelope>],
) -> u64 {
    let mut moved = 0u64;
    loop {
        let mut best: Option<(usize, (u64, u32, u64))> = None;
        for (src, stream) in streams.iter().enumerate() {
            if let Some(env) = stream.get(cursors[src]) {
                let key = (env.at.as_micros(), env.src, env.seq);
                if best.is_none_or(|(_, bk)| key < bk) {
                    best = Some((src, key));
                }
            }
        }
        let Some((src, _)) = best else { break };
        let env = std::mem::replace(
            &mut streams[src][cursors[src]],
            Envelope {
                at: SimTime::ZERO,
                dest: 0,
                src: 0,
                seq: 0,
                msg: WireMsg::Ev(Event::TaskDone { job: JobId(0) }),
            },
        );
        cursors[src] += 1;
        moved += 1;
        inboxes[env.dest as usize].push(env);
    }
    moved
}

/// The epoch merge, run inline by whichever worker finished the epoch
/// (the work lock is held throughout). K-way-merges the sorted outbox
/// streams in `(firing time, source shard, send sequence)` order —
/// exactly the order the old concat-and-sort produced, so per-inbox
/// envelope order is unchanged — injects them directly into the
/// destination engines, then publishes the next schedule (or stops).
/// Epochs that moved no envelopes skip the merge machinery entirely,
/// which is the common case for sparse workloads.
fn merge_epoch(shared: &SharedState<'_>, wq: &mut WorkQueue) {
    if wq.total_unfinished == 0 {
        wq.stopped = true;
        return;
    }
    let k = wq.t.len();
    if wq.runnable.iter().any(|&id| wq.outbox_full[id as usize]) {
        for r in 0..wq.runnable.len() {
            let id = wq.runnable[r] as usize;
            if !wq.outbox_full[id] {
                continue;
            }
            wq.outbox_full[id] = false;
            let mut shard = shared.shards[id].lock().expect("shard poisoned");
            debug_assert!(wq.streams[id].is_empty(), "stale merge stream");
            std::mem::swap(&mut wq.streams[id], &mut shard.net.pending);
            wq.cursors[id] = 0;
        }
        wq.merge_envelopes += kway_merge_streams(&mut wq.streams, &mut wq.cursors, &mut wq.inboxes);
        for dest in 0..k {
            if wq.inboxes[dest].is_empty() {
                continue;
            }
            let mut shard = shared.shards[dest].lock().expect("shard poisoned");
            let mut inbox = std::mem::take(&mut wq.inboxes[dest]);
            shard.inject(&mut inbox);
            // Hand the drained Vec back so the next epoch reuses its
            // capacity, and re-peek: injected envelopes may precede
            // the engine's previous head.
            wq.inboxes[dest] = inbox;
            wq.t[dest] = shard
                .net
                .engine
                .peek_time()
                .map_or(u64::MAX, SimTime::as_micros);
        }
        for s in &mut wq.streams {
            s.clear();
        }
    }
    let base = wq.t.iter().copied().min().expect("at least one shard");
    assert!(
        base != u64::MAX,
        "event queues drained with {} unfinished jobs",
        wq.total_unfinished
    );
    wq.epochs += 1;
    wq.span_accum += base.saturating_sub(wq.last_base);
    wq.last_base = base;
    publish_schedule(wq, &shared.delta);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{Centralized, Hawk, Sparrow, SplitCluster};
    use hawk_workload::Job;

    #[test]
    fn shard_map_ranges_partition_every_cluster() {
        for nodes in [1usize, 2, 3, 7, 10, 100, 101] {
            for shards in [1usize, 2, 3, 4, 7, 16, 200] {
                let map = ShardMap::new(nodes, shards);
                assert!(map.shards >= 1 && map.shards <= nodes.max(1));
                let mut next = 0u32;
                for s in 0..map.shards {
                    let (start, end) = map.range(s);
                    assert_eq!(start, next, "nodes={nodes} shards={shards} s={s}");
                    assert!(end > start, "empty shard: nodes={nodes} shards={shards}");
                    for id in start..end {
                        assert_eq!(
                            map.owner(ServerId(id)),
                            s,
                            "nodes={nodes} shards={shards} id={id}"
                        );
                    }
                    next = end;
                }
                assert_eq!(next as usize, nodes);
            }
        }
    }

    /// Exhaustive rack-alignment partition math: with `align > 1` no
    /// alignment unit (rack or pod) is ever split across a shard
    /// boundary — every boundary except the cluster end is a multiple
    /// of `align` — the ranges still tile the cluster exactly, whole
    /// units are dealt as evenly as possible (unit counts differ by at
    /// most one), and the trailing partial unit (the remainder rack)
    /// stays glued to the last shard.
    #[test]
    fn aligned_shard_map_never_splits_a_unit() {
        for nodes in [1usize, 4, 15, 16, 17, 63, 64, 65, 100, 1000, 1001] {
            for shards in [1usize, 2, 3, 4, 7, 16] {
                for align in [1usize, 4, 16, 128] {
                    let map = ShardMap::aligned(nodes, shards, align);
                    let ctx = format!("nodes={nodes} shards={shards} align={align}");
                    assert!(map.shards >= 1, "{ctx}");
                    assert!(map.shards <= nodes.max(1).div_ceil(align), "{ctx}");
                    let mut next = 0u32;
                    let mut unit_counts = Vec::new();
                    for s in 0..map.shards {
                        let (start, end) = map.range(s);
                        assert_eq!(start, next, "{ctx} s={s}: ranges must tile");
                        assert!(end > start, "{ctx} s={s}: empty shard");
                        assert_eq!(
                            start as usize % align,
                            0,
                            "{ctx} s={s}: start splits a unit"
                        );
                        if (end as usize) < nodes {
                            assert_eq!(
                                end as usize % align,
                                0,
                                "{ctx} s={s}: boundary splits a unit"
                            );
                        }
                        unit_counts.push((end as usize - start as usize).div_ceil(align));
                        for id in start..end {
                            assert_eq!(map.owner(ServerId(id)), s, "{ctx} id={id}");
                        }
                        next = end;
                    }
                    assert_eq!(next as usize, nodes, "{ctx}: ranges must cover");
                    let lo = unit_counts.iter().min().unwrap();
                    let hi = unit_counts.iter().max().unwrap();
                    assert!(hi - lo <= 1, "{ctx}: uneven deal {unit_counts:?}");
                }
            }
        }
    }

    /// The alignment-unit picker prefers the coarsest geometry that
    /// still gives every shard at least one block: pods, then racks,
    /// then single servers.
    #[test]
    fn pick_align_prefers_pods_then_racks() {
        let geo = RackGeometry {
            hosts_per_rack: 16,
            racks_per_pod: 8,
        };
        // 1024 hosts = 8 pods: enough pods for 4 shards.
        assert_eq!(ShardMap::pick_align(1024, 4, Some(geo)), 128);
        // But not for 16 shards; 64 racks are plenty.
        assert_eq!(ShardMap::pick_align(1024, 16, Some(geo)), 16);
        // 48 hosts = 3 racks < 4 shards: degenerate to single servers.
        assert_eq!(ShardMap::pick_align(48, 4, Some(geo)), 1);
        // No geometry: always single servers.
        assert_eq!(ShardMap::pick_align(1024, 4, None), 1);
    }

    fn env(at: u64, src: u32, seq: u64, dest: u32) -> Envelope {
        Envelope {
            at: SimTime::from_micros(at),
            dest,
            src,
            seq,
            msg: WireMsg::Ev(Event::TaskDone { job: JobId(0) }),
        }
    }

    proptest::proptest! {
        /// The zero-sort k-way merge against its model: concatenating
        /// every outbox stream and sorting by `(firing time, source
        /// shard, send sequence)` must route exactly the same envelopes
        /// to each destination inbox, in exactly the same order.
        #[test]
        fn kway_merge_matches_sort_model(
            raw in proptest::collection::vec(
                proptest::collection::vec((0u64..200, 0u32..5), 0..40),
                1..6,
            ),
        ) {
            let k = raw.len() as u32;
            let mut streams: Vec<Vec<Envelope>> = raw
                .iter()
                .enumerate()
                .map(|(src, sends)| {
                    // seq is assigned in send order, then the outbox is
                    // sorted by (at, seq) — exactly what a shard does.
                    let mut stream: Vec<Envelope> = sends
                        .iter()
                        .enumerate()
                        .map(|(i, &(at, dest))| env(at, src as u32, i as u64, dest % k))
                        .collect();
                    stream.sort_unstable_by_key(|e| (e.at.as_micros(), e.seq));
                    stream
                })
                .collect();
            let mut model: Vec<(u64, u32, u64, u32)> = streams
                .iter()
                .flatten()
                .map(|e| (e.at.as_micros(), e.src, e.seq, e.dest))
                .collect();
            model.sort_unstable();
            let mut model_inboxes: Vec<Vec<(u64, u32, u64)>> = vec![Vec::new(); k as usize];
            for (at, src, seq, dest) in &model {
                model_inboxes[*dest as usize].push((*at, *src, *seq));
            }

            let mut cursors = vec![0usize; k as usize];
            let mut inboxes: Vec<Vec<Envelope>> = (0..k).map(|_| Vec::new()).collect();
            let moved = kway_merge_streams(&mut streams, &mut cursors, &mut inboxes);

            proptest::prop_assert_eq!(moved as usize, model.len());
            for dest in 0..k as usize {
                let got: Vec<(u64, u32, u64)> = inboxes[dest]
                    .iter()
                    .map(|e| (e.at.as_micros(), e.src, e.seq))
                    .collect();
                proptest::prop_assert_eq!(&got, &model_inboxes[dest], "dest {}", dest);
            }
        }
    }

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

    fn run_sharded(
        trace: &Trace,
        scheduler: Arc<dyn Scheduler>,
        nodes: usize,
        shards: usize,
        workers: usize,
    ) -> MetricsReport {
        let sim = SimConfig {
            nodes,
            shards,
            ..SimConfig::default()
        };
        ShardedDriver::new(trace, scheduler, &sim)
            .with_workers(workers)
            .run()
    }

    #[test]
    fn all_jobs_complete_under_every_scheduler_and_shard_count() {
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
        ];
        for scheduler in schedulers {
            for shards in [1, 2, 3, 4] {
                let name = scheduler.name();
                let report = run_sharded(&trace, Arc::clone(&scheduler), 8, shards, 2);
                assert_eq!(report.results.len(), 5, "{name} shards={shards}");
                for r in &report.results {
                    assert!(r.completion >= r.submission, "{name} shards={shards}");
                }
            }
        }
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let trace = tiny_trace(vec![
            (0, vec![5; 12]),
            (0, vec![2_000; 4]),
            (1, vec![10, 20, 30]),
            (3, vec![1_800, 1_900]),
            (5, vec![2; 16]),
        ]);
        let hawk: Arc<dyn Scheduler> = Arc::new(Hawk::new(0.25));
        let one = run_sharded(&trace, Arc::clone(&hawk), 12, 4, 1);
        let four = run_sharded(&trace, hawk, 12, 4, 4);
        assert_eq!(one.results, four.results);
        assert_eq!(one.events, four.events);
        assert_eq!(one.steals, four.steals);
        assert_eq!(one.utilization_samples, four.utilization_samples);
    }

    #[test]
    fn sharded_run_is_self_deterministic() {
        let trace = tiny_trace(vec![
            (0, vec![5_000u64; 8]),
            (1, vec![20; 4]),
            (2, vec![20; 4]),
            (3, vec![20; 4]),
        ]);
        let hawk: Arc<dyn Scheduler> = Arc::new(Hawk::new(0.2));
        let a = run_sharded(&trace, Arc::clone(&hawk), 10, 3, 2);
        let b = run_sharded(&trace, hawk, 10, 3, 2);
        assert_eq!(a.results, b.results);
        assert_eq!(a.events, b.events);
        assert_eq!(a.steals, b.steals);
        assert_eq!(a.migrations, b.migrations);
    }

    #[test]
    fn remote_steals_rescue_blocked_shorts_across_shards() {
        // The head-of-line scenario from the driver tests, but sharded
        // so the short-partition servers (ids 8–9, last shard) must
        // steal from general-partition victims in other shards.
        let mut jobs = vec![(0, vec![5_000u64; 8])];
        for i in 0..5 {
            jobs.push((1 + i, vec![20u64; 4]));
        }
        let trace = tiny_trace(jobs);
        let report = run_sharded(&trace, Arc::new(Hawk::new(0.2)), 10, 4, 2);
        let worst_short = report.results[1..]
            .iter()
            .map(|r| r.runtime().as_secs_f64())
            .fold(0.0f64, f64::max);
        assert!(
            worst_short < 1_000.0,
            "cross-shard stealing should rescue shorts: {worst_short}"
        );
        assert!(report.steals > 0);
    }

    #[test]
    fn churn_under_sharding_keeps_every_job_completing() {
        use hawk_workload::scenario::DynamicsScript;
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
            shards: 3,
            dynamics: script,
            ..SimConfig::default()
        };
        let report = ShardedDriver::new(&trace, Arc::new(Hawk::new(0.2)), &sim)
            .with_workers(3)
            .run();
        assert_eq!(report.results.len(), trace.len());
        for r in &report.results {
            assert!(r.completion >= r.submission);
        }
    }

    #[test]
    fn worker_budget_env_override_wins() {
        // Serialize against other env-reading tests via a named lock.
        let _guard = ENV_LOCK.lock().unwrap();
        std::env::set_var("HAWK_WORKER_BUDGET", "3");
        assert_eq!(worker_budget(), 3);
        std::env::set_var("HAWK_WORKER_BUDGET", "0");
        assert_eq!(worker_budget(), 1, "zero clamps to one worker");
        std::env::set_var("HAWK_WORKER_BUDGET", "nonsense");
        let fallback = worker_budget();
        assert!(fallback >= 1);
        std::env::remove_var("HAWK_WORKER_BUDGET");
    }

    static ENV_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn shards_clamp_to_node_count() {
        let trace = tiny_trace(vec![(0, vec![10, 10])]);
        let sim = SimConfig {
            nodes: 2,
            shards: 64,
            ..SimConfig::default()
        };
        let driver = ShardedDriver::new(&trace, Arc::new(Sparrow::new()), &sim);
        assert_eq!(driver.shard_count(), 2);
        let report = driver.run();
        assert_eq!(report.results.len(), 1);
    }
}
