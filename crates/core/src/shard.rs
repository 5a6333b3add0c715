//! Sharded driver: `K` protocol cores, each over its own range of
//! servers, on one event list — the message-passing rendering of Hawk for
//! 100k+-node cells.
//!
//! [`ShardedDriver`] partitions the cluster into `K` contiguous shards.
//! Each shard is a protocol [`Core`] that stores only the servers it owns,
//! with its own RNG streams, recycled buffers and topology instance. The
//! cores share nothing but the harness's one [`Engine`]: the loop pops the
//! next event in global time order and dispatches it to the core that
//! hosts its destination endpoint. A core reaches another only by
//! sending: [`Router::send`] resolves the destination
//! endpoint to its hosting core — servers by the [`ShardMap`] range that
//! holds them, job schedulers by [`distributed_home`], the central
//! scheduler on core 0 — and files the event under it, so every cross-core
//! interaction is a message priced by the topology, and
//! [`Transport::owns`] answers for the range of the core being
//! dispatched. The run is deterministic for a fixed shard count `K`, and
//! any message delay is legal, zero included.
//!
//! This is not a parallel simulation and does not try to be one: on
//! Google-trace cells, where tasks last hundreds of seconds against
//! sub-millisecond message delays, conservative per-shard engines found
//! about two events per synchronisation round, and a second worker
//! thread bought 0.99–1.04x. The parallelism Hawk's evaluation needs is
//! across cells ([`crate::Sweep`]). This harness exists for node-count
//! scaling and to keep the [`Transport`] seam honest for a wire transport:
//! [`ShardedStats::merge_envelopes`] counts the sends that would cross
//! that wire, [`ShardedStats::epochs`] the maximal runs of consecutive
//! events on one core.
//!
//! Sampling is the harness's, exactly as in [`Driver`]: a `UtilSample`
//! timer every `util_interval` records the cores' summed running count
//! over the cluster's usable capacity, and never reaches a core.
//!
//! # Owned-range clusters
//!
//! Every shard's [`hawk_cluster::Cluster`] stores the servers of its own
//! range only ([`hawk_cluster::Cluster::ranged`] over [`ShardMap::range`])
//! and replays the complete dynamics script (each `NodeDown` / `NodeUp`
//! is seeded once per core). Global server ids therefore
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
//! then never split across shards, and under rack-first stealing a
//! thief's rack-local victims are always shard-local. Distributed jobs
//! are homed on the shard that owns the host of their scheduler
//! endpoint (`job id mod nodes`), so a scheduler sits on the core of the
//! host the topology prices its messages from; without geometry the home
//! stays `job id mod K`.
//!
//! # Divergences from the single-stream [`Driver`]
//!
//! Every shard runs the same protocol [`Core`] as [`Driver`]; this file
//! is only the `K`-core harness (shard map, router, loop, report). What
//! differs is what message passing makes unavoidable, each decided at one
//! line — which is also why `shards <= 1` runs [`Driver`] (byte-identical
//! to every pinned golden digest) and only `K > 1` runs here:
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
//!   (`Core::new`, called once per shard).
//!
//! Headline metrics stay within a few percent of the single-stream
//! driver (the conformance suite pins a bound); digests are comparable
//! only between runs with the same `K`.
//!
//! [`Driver`]: crate::Driver
//! [`TopologySpec::rack_geometry`]: hawk_net::TopologySpec::rack_geometry

use std::sync::Arc;

use hawk_cluster::{QueueEntry, ServerId, UtilizationTracker};
use hawk_net::{Endpoint, RackGeometry};
use hawk_simcore::{BatchPool, Engine, SimDuration, SimTime};
use hawk_workload::classify::JobEstimates;
use hawk_workload::{JobId, Trace};

use crate::config::{Route, SimConfig};
use crate::metrics::{MetricsReport, ShardedStats};
use crate::protocol::{self, Arrivals, Core, Event, RunInputs, Transport};
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
    /// therefore scheduler endpoints are homed by owner).
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

/// An event in the run's one engine, filed under the core that hosts its
/// destination endpoint.
#[derive(Debug, Clone, Copy)]
struct Routed {
    core: u32,
    event: Event,
}

/// A job's arrival, filed under its home core.
fn arrival(homes: &[u32]) -> impl Fn(JobId) -> Routed + '_ {
    |job| Routed {
        core: homes[job.index()],
        event: Event::JobArrival(job),
    }
}

/// The sharded transport: one engine and one stolen-group pool for the
/// whole run. A send resolves the destination endpoint to the core that
/// hosts it — servers by ownership, job schedulers by the homing rule, the
/// central scheduler on core 0 — and files the event under that core.
struct Router {
    engine: Engine<Routed>,
    stolen: BatchPool<QueueEntry>,
    /// The id range each core owns, `[start, end)`, ascending.
    ranges: Vec<(u32, u32)>,
    /// Home core of every job, by job index: where its scheduler endpoint
    /// (central jobs: the central scheduler) is hosted.
    homes: Vec<u32>,
    /// The core being dispatched (none before the first event) and the id
    /// range it owns.
    at: u32,
    own: (u32, u32),
    /// Sends addressed to another core than the one that sent them.
    cross_core_sends: u64,
}

impl Transport for Router {
    const REMOTE_SCHEDULERS: bool = true;

    fn now(&self) -> SimTime {
        self.engine.now()
    }

    fn send(&mut self, delay: SimDuration, to: Endpoint, event: Event) {
        let core = match to {
            Endpoint::Server(server) if self.owns(server) => self.at,
            // A scan: there are a handful of cores.
            Endpoint::Server(server) => self
                .ranges
                .iter()
                .take_while(|own| own.1 <= server.0)
                .count() as u32,
            Endpoint::Scheduler(job) => self.homes[job as usize],
            Endpoint::Central => 0,
        };
        self.cross_core_sends += u64::from(core != self.at);
        self.engine.schedule(delay, Routed { core, event });
    }

    fn owns(&self, server: ServerId) -> bool {
        (self.own.0..self.own.1).contains(&server.0)
    }

    fn stolen_pool(&mut self) -> &mut BatchPool<QueueEntry> {
        &mut self.stolen
    }
}

/// The sharded driver. Construct with [`ShardedDriver::new`],
/// consume with [`ShardedDriver::run`]; see the module docs for the
/// design and the divergences from [`crate::Driver`].
pub struct ShardedDriver<'t> {
    cores: Vec<Core<'t>>,
    net: Router,
    arrivals: Arrivals<'t>,
    util: UtilizationTracker,
}

impl<'t> ShardedDriver<'t> {
    /// Builds a sharded driver for `sim.shards` shards (clamped to the
    /// node or alignment-unit count). When the topology exposes rack
    /// geometry the shard map aligns to it (module docs).
    ///
    /// # Panics
    ///
    /// Panics on a cell [`check_cell`](crate::check_cell) refuses.
    pub fn new(trace: &'t Trace, scheduler: Arc<dyn Scheduler>, sim: &SimConfig) -> Self {
        let geometry = sim.topology.rack_geometry();
        let align = ShardMap::pick_align(sim.nodes, sim.shards.max(1), geometry);
        let map = ShardMap::aligned(sim.nodes, sim.shards, align);
        let mut inputs = RunInputs::new(trace, &*scheduler, sim);

        // Home assignment is computable up front: class (and therefore
        // route) depends only on the precomputed estimates. Central jobs
        // live on core 0, which hosts the central endpoint.
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
        let mut cores: Vec<Core<'t>> = (0..map.shards)
            .map(|core| {
                let (start, end) = map.range(core);
                Core::new(trace, Arc::clone(&scheduler), sim, &mut inputs, start..end)
            })
            .collect();

        for &home in &homes {
            cores[home as usize].unfinished += 1;
        }
        // The event arena starts with room for what is seeded — the script
        // once per core, this harness's utilization timer, the one pending
        // arrival — and grows on demand, like `Driver`'s.
        let script = cores.len() * sim.dynamics.events().len();
        let mut engine = Engine::with_capacity(script + 2);
        for (at, event) in protocol::seed_events(sim) {
            // Every core keeps the whole cluster's membership.
            for core in 0..cores.len() as u32 {
                engine.schedule_at(at, Routed { core, event });
            }
        }
        let mut arrivals = Arrivals::new(trace);
        arrivals.stream(None, &mut engine, arrival(&homes));
        let timer = Routed {
            core: 0,
            event: Event::UtilSample,
        };
        engine.schedule(sim.util_interval, timer);

        ShardedDriver {
            cores,
            net: Router {
                engine,
                stolen: BatchPool::new(),
                ranges: (0..map.shards).map(|core| map.range(core)).collect(),
                homes,
                at: u32::MAX,
                own: (0, 0),
                cross_core_sends: 0,
            },
            arrivals,
            util: UtilizationTracker::new(sim.util_interval),
        }
    }

    /// Ignores its argument: the run is one loop on the calling thread.
    /// Kept only because the frozen benchmark (`hawkbench/layers.rs`) calls
    /// it; owed to the benchmark-only PR, like
    /// `Cluster::reserve_queue_nodes`. hawkbench's
    /// `core.shard_speedup_w2_over_w1` and `core.shard_cpu_over_wall`
    /// therefore read ≈ 1.0 by construction.
    #[doc(hidden)]
    pub fn with_workers(self, _workers: usize) -> Self {
        self
    }

    /// The number of shards this driver was built with.
    pub fn shard_count(&self) -> usize {
        self.cores.len()
    }

    /// Runs the simulation to completion and reports merged metrics.
    ///
    /// # Panics
    ///
    /// Panics if the event queue drains before every job completes, which
    /// indicates a scheduling-liveness bug.
    pub fn run(self) -> MetricsReport {
        self.run_with_estimates().0
    }

    /// Like [`ShardedDriver::run`], but also returns the (possibly
    /// misestimated) per-job estimates every core scheduled by.
    ///
    /// # Panics
    ///
    /// Panics like [`ShardedDriver::run`].
    pub fn run_with_estimates(mut self) -> (MetricsReport, JobEstimates) {
        let mut unfinished: usize = self.cores.iter().map(|core| core.unfinished).sum();
        let mut epochs = 0;
        while unfinished > 0 {
            let Some((_, Routed { core, event })) = self.net.engine.pop() else {
                panic!("event queue drained with {unfinished} unfinished jobs");
            };
            match event {
                Event::UtilSample => {
                    self.util.record(utilization(&self.cores));
                    let interval = self.util.interval();
                    self.net.engine.schedule(interval, Routed { core, event });
                }
                event => {
                    if let Event::JobArrival(job) = event {
                        let Router { engine, homes, .. } = &mut self.net;
                        self.arrivals.stream(Some(job), engine, arrival(homes));
                    }
                    if core != self.net.at {
                        epochs += 1;
                        self.net.at = core;
                        self.net.own = self.net.ranges[core as usize];
                    }
                    let core = &mut self.cores[core as usize];
                    let before = core.unfinished;
                    core.dispatch(&mut self.net, event);
                    unfinished -= before - core.unfinished;
                }
            }
        }

        let stats = ShardedStats {
            epochs,
            merge_envelopes: self.net.cross_core_sends,
        };
        // The event list and the stolen-group pool go before the report
        // allocates its results; the homes outlive them.
        let events = self.net.engine.processed();
        drop((self.net.engine, self.net.stolen));
        let home = |job: JobId| self.net.homes[job.index()] as usize;
        protocol::report(self.cores, home, &self.util, events, Some(stats))
    }
}

/// The whole cluster's utilization, [`hawk_cluster::Cluster::utilization`]
/// over every core: every core replays the whole script, so any one of
/// them knows the in-service count; running and draining servers are
/// counted where they are owned.
fn utilization(cores: &[Core<'_>]) -> f64 {
    let clusters = || cores.iter().map(|core| &core.cluster);
    let running: usize = clusters().map(|c| c.running_count()).sum();
    let draining: usize = clusters().map(|c| c.down_running_count()).sum();
    let usable = cores[0].cluster.live_count() + draining;
    running as f64 / usable.max(1) as f64
}

/// Home shard of a *distributed* job. Under a rack-aligned map the home
/// is the shard owning the host of the job's scheduler endpoint
/// (`job id mod nodes`, see [`Endpoint::host`]), so a scheduler runs on the
/// core of the host its messages are priced from; otherwise jobs are dealt
/// round-robin so scheduler-side work spreads evenly. Central jobs live on
/// shard 0 (which owns host 0, the central endpoint).
fn distributed_home(map: &ShardMap, job: JobId) -> usize {
    if map.rack_aligned() {
        map.owner(ServerId((job.index() % map.nodes.max(1)) as u32))
    } else {
        job.index() % map.shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{Centralized, Hawk, Sparrow, SplitCluster};
    use hawk_simcore::EventQueue;
    use hawk_workload::Job;

    /// The core an event is filed under costs it 4 bytes, and a pending
    /// one 48 in the wheel's arena.
    #[test]
    fn a_routed_event_and_its_wheel_node_stay_within_their_pins() {
        assert!(std::mem::size_of::<Routed>() <= 28);
        assert_eq!(EventQueue::<Routed>::NODE_BYTES, 48);
    }

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

    /// Every core replays the whole dynamics script: a server that is down
    /// before any work arrives runs nothing, whichever core owns it and
    /// whichever core's scheduler is probing. One server per core, one
    /// job homed on each, nine 100 s tasks: on the two live servers one
    /// of them runs at least five. A core that missed the `NodeDown` of
    /// its own server runs tasks there and finishes early.
    #[test]
    fn a_down_server_runs_nothing_whichever_core_owns_it() {
        use hawk_workload::scenario::DynamicsScript;
        let trace = tiny_trace(vec![(5, vec![100; 3]); 3]);
        for victim in 0..3 {
            let sim = SimConfig {
                nodes: 3,
                shards: 3,
                dynamics: DynamicsScript::none().down_at(SimTime::from_secs(1), victim),
                util_interval: SimDuration::from_secs(10),
                ..SimConfig::default()
            };
            let report = ShardedDriver::new(&trace, Arc::new(Sparrow::new()), &sim).run();
            assert!(
                report.makespan >= SimTime::from_secs(5 + 500),
                "server {victim} worked while down: makespan {}",
                report.makespan
            );
            assert!(report.max_utilization <= 1.0, "server {victim}");
        }
    }

    /// Any message delay is a legal sharded cell, zero included (a zero
    /// one-way delay used to be refused at construction: conservative
    /// epochs needed a positive minimum delay between shards).
    #[test]
    fn zero_delay_network_runs_sharded() {
        use hawk_cluster::NetworkModel;
        let mut jobs = vec![(0, vec![5_000u64; 8])];
        for i in 0..5 {
            jobs.push((1 + i, vec![20u64; 4]));
        }
        jobs.push((6, vec![1_500, 1_600]));
        let trace = tiny_trace(jobs);
        let sim = SimConfig {
            nodes: 10,
            shards: 3,
            topology: hawk_net::TopologySpec::Constant(NetworkModel::zero()),
            ..SimConfig::default()
        };
        let run = || ShardedDriver::new(&trace, Arc::new(Hawk::new(0.2)), &sim).run();
        let (a, b) = (run(), run());
        assert_eq!(a.results.len(), trace.len());
        for (job, r) in trace.jobs().iter().zip(&a.results) {
            assert!(r.runtime() >= job.critical_task(), "{r:?}");
        }
        assert!(a.steals > 0, "the blocked shorts are rescued across cores");
        assert_eq!(a.results, b.results);
        assert_eq!((a.events, a.steals), (b.events, b.steals));
        assert_eq!(a.utilization_samples, b.utilization_samples);
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
