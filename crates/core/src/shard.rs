//! Sharded driver: conservative multi-engine discrete-event simulation
//! for 100k+-node cells.
//!
//! [`ShardedDriver`] partitions the cluster into `K` contiguous shards.
//! Each shard owns a slice of servers and runs its own [`Engine`], RNG
//! streams, recycled buffers and topology instance; shards advance in
//! *epochs* bounded by a conservative lookahead horizon and exchange
//! messages only between epochs, through a deterministic merge. The
//! result is deterministic for a fixed shard count `K`.
//!
//! # The epoch loop (sequential, on the calling thread)
//!
//! Each epoch runs its *runnable* shards (those with an event below
//! their horizon) one after another in ascending id on the calling
//! thread, merges what they emitted and computes the next horizons;
//! nothing in this file spawns, locks or wakes anything. An earlier
//! version ran an epoch's shards on a worker pool, and the ledger retired
//! it: a second worker bought 0.99–1.04x at every measured size
//! (`BENCH_perf.json` schema v7, `wall_vs_workers1` 1.013 / 0.993 / 1.042
//! / 1.021 at 15k / 50k / 100k / 15k-rack nodes); 83–93 % of epochs have
//! exactly one runnable shard — Google-trace tasks last hundreds of
//! seconds under a sub-millisecond fat-tree lookahead, and
//! [`ShardedStats::solo_epochs`] / [`ShardedStats::overlappable_events`]
//! report that shape for any cell; and the only cell that ever engaged a
//! second worker was a unit test built to engage it. The parallelism
//! Hawk's evaluation needs is across cells ([`crate::Sweep`]). This
//! harness exists for node-count scaling and to keep the [`Transport`]
//! seam honest for a wire transport, not as a speedup.
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
//! 2. once every runnable shard has reported, the outbox streams are
//!    k-way-merged in `(firing time, source shard, send sequence)`
//!    order — a total order independent of which shard ran first, and
//!    the exact order a concat-and-sort would produce — injecting each
//!    envelope directly into its destination engine without sorting or
//!    allocating;
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
//! # Owned-range clusters
//!
//! Every shard's [`hawk_cluster::Cluster`] stores the servers of its own
//! range only ([`hawk_cluster::Cluster::ranged`] over [`ShardMap::range`])
//! and replays the complete dynamics script. Global server ids therefore
//! need no translation and liveness-aware placement (`PlacementView`,
//! victim filters) sees correct membership everywhere, at a few bytes per
//! non-owned server instead of a dead `Server` struct each: the cluster
//! answers for them with one documented sentinel — an in-service server
//! outside the owned range reads as idle at depth 0. The built-in
//! policies sample placement targets randomly, so an idle-looking remote
//! server is indistinguishable from a real one; a future depth-aware
//! policy would replace that sentinel with a shard-aware load view.
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
//! is only the multi-engine harness (shard map, lookahead closure, epoch
//! loop, k-way merge, lazy sampling, report merge). What differs is what
//! message passing makes unavoidable, each decided at one line — which is
//! also why `shards <= 1` runs [`Driver`] (byte-identical to every pinned
//! golden digest) and only `K > 1` runs here:
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

use std::sync::Arc;

use hawk_cluster::{QueueEntry, ServerId, UtilizationTracker};
use hawk_net::{Endpoint, RackGeometry, TopologySpec};
use hawk_simcore::{Engine, SimDuration, SimTime};
use hawk_workload::classify::JobEstimates;
use hawk_workload::{JobId, Trace};

use crate::config::{Route, SimConfig};
use crate::metrics::{MetricsReport, ShardedStats};
use crate::protocol::{self, Core, Event, RunInputs, Transport};
use crate::scheduler::Scheduler;

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
    /// Alignment units in the cluster, `ceil(nodes / align)`.
    units: usize,
    /// Units per shard (`units / shards`); the first `r = units % shards`
    /// shards hold one more, which is the first `wide = r * (q + 1)` units.
    q: usize,
    r: usize,
    wide: usize,
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
        let (q, r) = (units / shards, units % shards);
        ShardMap {
            nodes,
            shards,
            align,
            units,
            q,
            r,
            wide: r * (q + 1),
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

    /// Owned id range of shard `s` as `[start, end)`.
    fn range(&self, s: usize) -> (u32, u32) {
        let start_u = s * self.q + s.min(self.r);
        let len_u = self.q + usize::from(s < self.r);
        let start = (start_u * self.align).min(self.nodes);
        let end = ((start_u + len_u) * self.align).min(self.nodes);
        (start as u32, end as u32)
    }

    /// The shard owning server `id`.
    fn owner(&self, id: ServerId) -> usize {
        let unit = (id.index() / self.align).min(self.units - 1);
        if unit < self.wide {
            unit / (self.q + 1)
        } else {
            self.r + (unit - self.wide) / self.q
        }
    }
}

/// A cross-shard message payload.
#[derive(Debug)]
enum WireMsg {
    /// An ordinary event for the destination shard's engine.
    Ev(Event),
    /// A remote steal's stolen group, carried in an owned `Vec` that
    /// returns to the sending shard once emptied (local steals stay in
    /// the recycled batch pool).
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

/// The state the epoch loop carries from one epoch to the next: the
/// current schedule, every shard's next event time, the merge buffers and
/// the counters that become [`ShardedStats`].
struct EpochState {
    /// Shard ids with work this epoch (`t[j] < H[j]`), ascending.
    runnable: Vec<u32>,
    /// Events processed this epoch, and the largest single shard run.
    epoch_events: u64,
    epoch_max_run: u64,
    /// Per-shard horizons, raw microseconds; `u64::MAX` is the
    /// free-run sentinel (quiescence fast-path).
    horizons: Vec<u64>,
    /// `t[i]`: shard `i`'s next pending event (`u64::MAX` = drained).
    t: Vec<u64>,
    /// Cached per-shard unfinished-home-job counts, plus their sum
    /// (maintained incrementally from epoch reports).
    unfinished: Vec<usize>,
    total_unfinished: usize,
    /// Per-source outbox streams, swapped in from the shards as they
    /// report; empty between epochs.
    streams: Vec<Vec<Envelope>>,
    /// Read cursor per stream.
    cursors: Vec<usize>,
    /// Recycled per-destination delivery buffers.
    inboxes: Vec<Vec<Envelope>>,
    /// Emptied remote-steal payload buffers on their way back to the
    /// shard that sent them, which collects them with its next report.
    steal_returns: Vec<Vec<Vec<QueueEntry>>>,
    epochs: u64,
    solo_epochs: u64,
    overlappable_events: u64,
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
    /// Payload buffers of this shard's earlier remote steals, emptied by
    /// the receiver and handed back through
    /// [`EpochState::steal_returns`]. Remote steals mostly flow one way
    /// (into the shard that holds the short partition), so a buffer has
    /// to return to its sender to be reused; the population is the
    /// sender's peak of steals in flight.
    steal_bufs: Vec<Vec<QueueEntry>>,
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
        // A copy: the core's recycled batch buffer keeps its capacity.
        let mut buf = self.steal_bufs.pop().unwrap_or_default();
        buf.append(entries);
        let msg = WireMsg::Stolen {
            thief,
            entries: buf,
        };
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
    /// Firing time of the next pending event, raw microseconds
    /// (`u64::MAX` = drained).
    fn next_time(&self) -> u64 {
        self.net
            .engine
            .peek_time()
            .map_or(u64::MAX, SimTime::as_micros)
    }

    /// Commits one epoch's merged inbox into the engine. Every envelope
    /// must fire at or after the local clock — the epoch horizon
    /// guarantees it, and `try_schedule_at` makes any violation a hard
    /// error in both build profiles.
    fn inject(&mut self, inbox: &mut Vec<Envelope>, steal_returns: &mut [Vec<Vec<QueueEntry>>]) {
        for env in inbox.drain(..) {
            let event = match env.msg {
                WireMsg::Ev(event) => event,
                WireMsg::Stolen { thief, mut entries } => {
                    let batch = self.core.stolen_pool.put(&mut entries);
                    steal_returns[env.src as usize].push(entries);
                    Event::StolenArrive {
                        server: thief,
                        batch,
                    }
                }
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
        // cluster only ever runs owned tasks, so its utilization is
        // this shard's *share* of the whole-cluster occupancy —
        // `LiveRecorder::merge` sums the shares at report time.
        self.core.close_live_windows(limit);
    }

    /// Handles the event just popped at `t`, first catching lazy sampling
    /// up to its firing time (sampling reads no engine state, so it may
    /// follow the pop).
    fn step(&mut self, t: SimTime, event: Event) {
        self.sample_up_to(t);
        self.core.dispatch(&mut self.net, event);
    }

    /// One epoch run: to `horizon` (raw microseconds), or free-running
    /// under the `u64::MAX` sentinel.
    fn run(&mut self, horizon: u64) {
        if horizon == u64::MAX {
            self.run_free();
        } else {
            self.run_until(SimTime::from_micros(horizon));
        }
    }

    /// Processes local events strictly below `horizon`, then catches
    /// utilization sampling up to it (no cross-shard arrival can land
    /// below it, so the state there is final).
    fn run_until(&mut self, horizon: SimTime) {
        while let Some((t, event)) = self.net.engine.pop_before(horizon) {
            self.step(t, event);
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
        for _ in 0..FREE_RUN_EVENT_BUDGET {
            let Some((t, event)) = self.net.engine.pop() else {
                break;
            };
            self.step(t, event);
            if !self.net.pending.is_empty() || (entered_unfinished && self.core.unfinished == 0) {
                break;
            }
        }
    }
}

/// The sharded driver. Construct with [`ShardedDriver::new`],
/// consume with [`ShardedDriver::run`]; see the module docs for the
/// synchronization contract and the divergences from [`crate::Driver`].
pub struct ShardedDriver<'t> {
    shards: Vec<Shard<'t>>,
    /// Home shard of every job, by job index.
    homes: Vec<u32>,
    /// Shortest-walk closure of the per-shard-pair one-hop delay
    /// floors, row-major `[src * K + dst]`, raw microseconds. The
    /// diagonal is the cheapest cycle back to the shard itself (never
    /// zero), so a shard's own emissions bound its horizon too.
    delta: Vec<u64>,
}

impl<'t> ShardedDriver<'t> {
    /// Builds a sharded driver for `sim.shards` shards (clamped to the
    /// node or alignment-unit count). When the topology exposes rack
    /// geometry the shard map aligns to it and the lookahead matrix uses
    /// per-pair range floors (module docs).
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
                let (own_start, own_end) = map.range(s);
                let owned = own_start..own_end;
                let mut core = Core::new(trace, Arc::clone(&scheduler), sim, &mut inputs, owned);
                // Utilization sampling is lazy, not an engine event
                // (module docs): the shard adds no timer of its own.
                let engine = core.seed(sim, 0, |job| homes[job.index()] as usize == s);
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
                        steal_bufs: Vec::new(),
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
        }
    }

    /// Ignores its argument: the epochs run on the calling thread. Kept
    /// only because the frozen benchmark (`hawkbench/layers.rs`) calls it;
    /// owed to the benchmark-only PR, like `Cluster::reserve_queue_nodes`.
    /// hawkbench's `core.shard_speedup_w2_over_w1` and
    /// `core.shard_cpu_over_wall` therefore read ≈ 1.0 by construction.
    #[doc(hidden)]
    pub fn with_workers(self, _workers: usize) -> Self {
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
        let mut stats = ShardedStats::default();
        if total_unfinished > 0 {
            let t: Vec<u64> = self.shards.iter().map(Shard::next_time).collect();
            let base = t.iter().copied().min().expect("at least one shard");
            assert!(base != u64::MAX, "unfinished jobs but no pending events");
            let mut ep = EpochState {
                runnable: Vec::with_capacity(shard_count),
                epoch_events: 0,
                epoch_max_run: 0,
                horizons: vec![0; shard_count],
                unfinished: self.shards.iter().map(|s| s.core.unfinished).collect(),
                total_unfinished,
                streams: (0..shard_count).map(|_| Vec::new()).collect(),
                cursors: vec![0; shard_count],
                inboxes: (0..shard_count).map(|_| Vec::new()).collect(),
                steal_returns: (0..shard_count).map(|_| Vec::new()).collect(),
                t,
                epochs: 0,
                solo_epochs: 0,
                overlappable_events: 0,
                merge_envelopes: 0,
                span_accum: 0,
                last_base: base,
            };
            // Taken, so it is freed before the report merge (the heap's peak).
            let delta = std::mem::take(&mut self.delta);
            publish_schedule(&mut ep, &delta);
            // The merge order depends only on what an epoch's shards
            // emitted, never on the order they ran in; ascending id is
            // simply the order `runnable` is built in.
            loop {
                for i in 0..ep.runnable.len() {
                    let id = ep.runnable[i] as usize;
                    let shard = &mut self.shards[id];
                    let processed_before = shard.net.engine.processed();
                    shard.run(ep.horizons[id]);
                    let ran = shard.net.engine.processed() - processed_before;
                    report_run(&mut ep, id, shard, ran);
                }
                if !merge_epoch(&mut self.shards, &mut ep, &delta) {
                    break;
                }
            }
            stats = ShardedStats {
                epochs: ep.epochs,
                merge_envelopes: ep.merge_envelopes,
                avg_epoch_span_micros: ep.span_accum / ep.epochs.max(1),
                solo_epochs: ep.solo_epochs,
                overlappable_events: ep.overlappable_events,
            };
        }
        self.report(stats)
    }

    fn report(mut self, stats: ShardedStats) -> (MetricsReport, JobEstimates) {
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
        let (mut cores, engines): (Vec<&mut Core<'t>>, Vec<&Engine<Event>>) = self
            .shards
            .iter_mut()
            .map(|s| (&mut s.core, &s.net.engine))
            .unzip();
        let report = protocol::report(
            &mut cores,
            |job| self.homes[job.index()] as usize,
            &util,
            &engines,
            Some(stats),
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
fn publish_schedule(ep: &mut EpochState, delta: &[u64]) {
    let k = ep.t.len();
    let active = ep.t.iter().filter(|&&ti| ti != u64::MAX).count();
    ep.runnable.clear();
    ep.epoch_events = 0;
    ep.epoch_max_run = 0;
    for j in 0..k {
        let horizon = if active > 1 {
            (0..k)
                .map(|i| ep.t[i].saturating_add(delta[i * k + j]))
                .min()
                .expect("at least one shard")
        } else {
            u64::MAX
        };
        ep.horizons[j] = horizon;
        if ep.t[j] < horizon {
            ep.runnable.push(j as u32);
        }
    }
}

/// Reports shard `id`'s finished epoch run of `ran` events: its next
/// event time and unfinished-job count, and its outbox, handed to the
/// merge as a stream sorted by `(firing time, send sequence)`.
fn report_run(ep: &mut EpochState, id: usize, shard: &mut Shard<'_>, ran: u64) {
    ep.t[id] = shard.next_time();
    ep.total_unfinished += shard.core.unfinished;
    ep.total_unfinished -= ep.unfinished[id];
    ep.unfinished[id] = shard.core.unfinished;
    shard.net.steal_bufs.append(&mut ep.steal_returns[id]);
    let pending = &mut shard.net.pending;
    if !pending.is_empty() {
        // Under constant delays the outbox already is sorted (pdqsort
        // detects the run in O(n)); topology delays can reorder.
        if pending.len() > 1 {
            pending.sort_unstable_by_key(|env| (env.at.as_micros(), env.seq));
        }
        debug_assert!(ep.streams[id].is_empty(), "stale merge stream");
        std::mem::swap(&mut ep.streams[id], pending);
    }
    ep.epoch_events += ran;
    ep.epoch_max_run = ep.epoch_max_run.max(ran);
}

/// The zero-sort merge core: drains the per-source outbox `streams`
/// (each already sorted by `(firing time, send sequence)`) into the
/// per-destination `inboxes` in global `(firing time, source shard,
/// send sequence)` order — exactly what concatenating every stream and
/// sorting by that key would produce, without sorting or allocating —
/// and leaves every stream empty. Returns the number of envelopes moved.
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
    cursors.fill(0);
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
    for stream in streams {
        stream.clear();
    }
    moved
}

/// The merge of an epoch in which one shard emitted, which is most of
/// them: with a single source the `(firing time, source shard, send
/// sequence)` order is the stream's own order, so the envelopes go
/// straight to their inboxes.
fn route_single_stream(stream: &mut Vec<Envelope>, inboxes: &mut [Vec<Envelope>]) -> u64 {
    let moved = stream.len() as u64;
    for env in stream.drain(..) {
        inboxes[env.dest as usize].push(env);
    }
    moved
}

/// The epoch merge, run once every runnable shard has reported. Routes
/// the outbox streams into per-destination inboxes in `(firing time,
/// source shard, send sequence)` order, injects them into the destination
/// engines, then publishes the next schedule — or returns `false` when
/// the last job has finished. Epochs that moved no envelopes skip the
/// merge machinery entirely, which is the common case for sparse
/// workloads.
fn merge_epoch(shards: &mut [Shard<'_>], ep: &mut EpochState, delta: &[u64]) -> bool {
    if ep.total_unfinished == 0 {
        return false;
    }
    let mut sources = ep.streams.iter_mut().filter(|s| !s.is_empty());
    let moved = match (sources.next(), sources.next()) {
        (None, _) => 0,
        (Some(only), None) => route_single_stream(only, &mut ep.inboxes),
        _ => kway_merge_streams(&mut ep.streams, &mut ep.cursors, &mut ep.inboxes),
    };
    if moved > 0 {
        ep.merge_envelopes += moved;
        for (dest, shard) in shards.iter_mut().enumerate() {
            if ep.inboxes[dest].is_empty() {
                continue;
            }
            shard.inject(&mut ep.inboxes[dest], &mut ep.steal_returns);
            // Re-peek: injected envelopes may precede the engine's
            // previous head.
            ep.t[dest] = shard.next_time();
        }
    }
    let base = ep.t.iter().copied().min().expect("at least one shard");
    assert!(
        base != u64::MAX,
        "event queues drained with {} unfinished jobs",
        ep.total_unfinished
    );
    ep.epochs += 1;
    ep.solo_epochs += u64::from(ep.runnable.len() == 1);
    ep.overlappable_events += ep.epoch_events - ep.epoch_max_run;
    ep.span_accum += base.saturating_sub(ep.last_base);
    ep.last_base = base;
    publish_schedule(ep, delta);
    true
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

    proptest::proptest! {
        /// The single-source shortcut against the merge it bypasses: one
        /// sorted outbox stream must reach every inbox in exactly the
        /// `(firing time, source shard, send sequence)` order
        /// [`kway_merge_streams`] delivers.
        #[test]
        fn single_source_epoch_matches_kway_merge(
            sends in proptest::collection::vec((0u64..200, 0u32..4), 0..40),
            src in 0u32..4,
        ) {
            let stream = || {
                let mut stream: Vec<Envelope> = sends
                    .iter()
                    .enumerate()
                    .map(|(i, &(at, dest))| env(at, src, i as u64, dest))
                    .collect();
                stream.sort_unstable_by_key(|e| (e.at.as_micros(), e.seq));
                stream
            };
            let keys = |inboxes: &[Vec<Envelope>]| -> Vec<Vec<(u64, u32, u64)>> {
                inboxes
                    .iter()
                    .map(|inbox| inbox.iter().map(|e| (e.at.as_micros(), e.src, e.seq)).collect())
                    .collect()
            };

            let mut streams: Vec<Vec<Envelope>> = (0..4).map(|_| Vec::new()).collect();
            streams[src as usize] = stream();
            let mut merged: Vec<Vec<Envelope>> = (0..4).map(|_| Vec::new()).collect();
            let moved = kway_merge_streams(&mut streams, &mut [0; 4], &mut merged);

            let mut only = stream();
            let mut routed: Vec<Vec<Envelope>> = (0..4).map(|_| Vec::new()).collect();
            proptest::prop_assert_eq!(route_single_stream(&mut only, &mut routed), moved);
            proptest::prop_assert!(only.is_empty());
            proptest::prop_assert_eq!(keys(&routed), keys(&merged));
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
    ) -> MetricsReport {
        let sim = SimConfig {
            nodes,
            shards,
            ..SimConfig::default()
        };
        ShardedDriver::new(trace, scheduler, &sim).run()
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
                let report = run_sharded(&trace, Arc::clone(&scheduler), 8, shards);
                assert_eq!(report.results.len(), 5, "{name} shards={shards}");
                for r in &report.results {
                    assert!(r.completion >= r.submission, "{name} shards={shards}");
                }
            }
        }
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
        let a = run_sharded(&trace, Arc::clone(&hawk), 10, 3);
        let b = run_sharded(&trace, hawk, 10, 3);
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
        let report = run_sharded(&trace, Arc::new(Hawk::new(0.2)), 10, 4);
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
        let report = ShardedDriver::new(&trace, Arc::new(Hawk::new(0.2)), &sim).run();
        assert_eq!(report.results.len(), trace.len());
        for r in &report.results {
            assert!(r.completion >= r.submission);
        }
    }

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
