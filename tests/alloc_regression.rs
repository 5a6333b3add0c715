//! Allocation- and memory-regression guard for the simulation event loop.
//!
//! The event loop's storage follows one contract (`hawk_simcore::EntrySlab`,
//! "The growth contract"): *an arena allocates only when its live
//! population exceeds every earlier peak, and then geometrically — O(log
//! high-water) allocations per run and none per event.* Server queues live
//! in the cluster-wide slab, pending events in the timing wheel's, steal
//! batches ride recycled buffers / `BatchPool` slots, probe targets and
//! central placements fill caller-owned buffers, RNG sampling reuses its
//! scratch. A counting global allocator holds five scenarios (Hawk,
//! Sparrow, churn on a two-tier cluster, serving mode, contended fat tree)
//! to both halves of that sentence, each on the cell that can show it:
//!
//! * **Nothing per event** — on a cell with a steady state (the trace on
//!   the 1,500 nodes it loads to ~90 %) a 10,000-event mid-run window of
//!   the live loop — arrivals, probing, late binding, central placement,
//!   completions, the full steal pipeline — performs **zero** heap
//!   allocations. If a new global peak ever falls inside the window the
//!   cell is not steady: lengthen the warm-up, never relax the zero.
//! * **O(log) per run** — the same trace on 300 nodes is 4.5x overloaded:
//!   its queue population never plateaus, so no window of it is
//!   growth-free (a doubling may land anywhere). There the *whole* event
//!   loop, first event to last (construction excluded), may allocate at
//!   most `2·⌈log2(events)⌉` times — 36 over ≈ 180k events, of which the
//!   five cells spend 21 to 26 (a core reserves its queue arenas' floor at
//!   construction; the task arena's doublings past it are in the count) —
//!   which a per-event or per-thousand-events allocation cannot hide
//!   under.
//!
//! And the footprint those allocations add up to is pinned: the peak live
//! heap of a whole Hawk run on the steady cell, construction to report,
//! stays within 5 % of its measured figure — against the pin of the day, a
//! queue arena sized by the trace's task count instead of the live state
//! was 5.9x that, and an event list holding every trace arrival from the
//! start 7 % over it. The
//! memory model is pinned the same way at 100,000 nodes, on one stream
//! and on 8 shards, where per-server state is most of the peak: padding
//! `Server` by 8 B (checked by hand) adds 0.8 MB to each run and fails
//! both pins.
//!
//! The tests are fully deterministic (fixed seeds, single thread), so the
//! asserted numbers are stable, not flaky-by-luck. Runs in debug and
//! release; CI exercises the release half next to the golden-digest suite.
//!
//! The prototype's daemons own their messages, so its guard is a budget
//! rather than a zero: a whole hardened chaos run — construction and
//! report included — may allocate at most [`PROTO_ALLOCS_PER_DELIVERY`]
//! times per delivery. Its footprint is pinned like the simulator's: the
//! run's peak live heap stays within 5 % of its measured figure and
//! within 2x of the same cell fault-free, which hardened records kept for
//! the whole run exceed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use hawk::core::scheduler::{Hawk, Scheduler, Sparrow};
use hawk::core::{Driver, FatTreeParams, ShardedDriver, SimConfig, TopologySpec, DEFAULT_SEED};
use hawk::proto::{run_prototype, FaultSpec, ProtoBackend, ProtoConfig};
use hawk::simcore::{SimDuration, SimTime};
use hawk::workload::google::{GoogleTraceConfig, GOOGLE_SHORT_PARTITION};
use hawk::workload::scenario::{DynamicsScript, SpeedSpec};
use hawk::workload::Trace;

struct CountingAllocator;

// Per-thread counters (const-init TLS: no lazy allocation on first touch),
// so the test harness running other tests in parallel cannot leak their
// allocations into a measured window. Live bytes are signed: a block may
// be freed on another thread than the one that allocated it.
thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
    static PEAK_BYTES: Cell<isize> = const { Cell::new(0) };
}

fn count_one(bytes: usize) {
    ALLOCATIONS.with(|c| c.set(c.get() + 1));
    let live = LIVE_BYTES.with(|c| {
        c.set(c.get() + bytes as isize);
        c.get()
    });
    PEAK_BYTES.with(|c| c.set(c.get().max(live)));
}

fn freed(bytes: usize) {
    LIVE_BYTES.with(|c| c.set(c.get() - bytes as isize));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        freed(layout.size());
        count_one(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        freed(layout.size());
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Runs `run` and returns its result with the peak of this thread's live
/// heap bytes above their level at entry.
fn peak_bytes_of<R>(run: impl FnOnce() -> R) -> (R, usize) {
    let base = LIVE_BYTES.with(Cell::get);
    PEAK_BYTES.with(|c| c.set(base));
    let result = run();
    (result, (PEAK_BYTES.with(Cell::get) - base) as usize)
}

/// Events to run before measuring: long enough for every recycled buffer,
/// slab arena, RNG scratch and timing-wheel bucket to reach its
/// steady-state footprint. The populations still creep up afterwards —
/// the queue arenas double once more between events 115,000 and 150,000
/// in every scenario — but nothing allocates between 60,000 and 115,000.
const WARMUP_EVENTS: u64 = 80_000;

/// The measured window.
const WINDOW_EVENTS: u64 = 10_000;

/// The cluster the trace loads to ~90 %: queue and pending-event
/// populations plateau, so a mid-run window sees no new peak.
const STEADY_NODES: usize = 1_500;

/// The 4.5x-overloaded cluster: queues grow for the whole run.
const OVERLOADED_NODES: usize = 300;

/// ~1,500 jobs ≈ 180k events on either cluster: the window sits mid-run,
/// with arrivals, completions and steals all still active.
fn trace() -> Trace {
    GoogleTraceConfig::with_scale(10, 1_500).generate(0xA110C)
}

/// The policy-independent parameters both cells of a scenario share.
fn sim_on(nodes: usize) -> SimConfig {
    SimConfig {
        nodes,
        // Keep the periodic utilization snapshots out of the measured
        // window; sampling growth is amortized-fine but not *zero*.
        util_interval: SimDuration::from_secs(1_000_000),
        ..SimConfig::default()
    }
}

/// One scenario, on both cells: `configure` turns the plain cell of a
/// cluster size into the scenario's.
fn scenario(scheduler: Arc<dyn Scheduler>, name: &str, configure: impl Fn(SimConfig) -> SimConfig) {
    steady_state_window(&scheduler, name, &configure(sim_on(STEADY_NODES)));
    whole_loop_budget(&scheduler, name, &configure(sim_on(OVERLOADED_NODES)));
}

fn steady_state_window(scheduler: &Arc<dyn Scheduler>, name: &str, sim: &SimConfig) {
    let trace = trace();
    let mut driver = Driver::with_scheduler(&trace, Arc::clone(scheduler), sim);

    let warmed = driver.step_events(WARMUP_EVENTS);
    assert_eq!(warmed, WARMUP_EVENTS, "{name}: trace too small to warm up");
    assert!(
        driver.unfinished_jobs() > 0,
        "{name}: run ended during warm-up"
    );

    let before = allocations();
    let stepped = driver.step_events(WINDOW_EVENTS);
    let allocated = allocations() - before;

    assert_eq!(stepped, WINDOW_EVENTS, "{name}: window ran out of events");
    assert!(
        driver.unfinished_jobs() > 0,
        "{name}: window was not steady state"
    );
    assert_eq!(
        allocated, 0,
        "{name}: {allocated} heap allocations in a {WINDOW_EVENTS}-event steady-state window"
    );
}

fn whole_loop_budget(scheduler: &Arc<dyn Scheduler>, name: &str, sim: &SimConfig) {
    let trace = trace();
    let mut driver = Driver::with_scheduler(&trace, Arc::clone(scheduler), sim);

    let before = allocations();
    let events = driver.step_events(u64::MAX);
    let allocated = allocations() - before;

    assert_eq!(driver.unfinished_jobs(), 0, "{name}: run did not finish");
    let budget = 2 * u64::from(events.next_power_of_two().trailing_zeros());
    assert!(
        allocated <= budget,
        "{name}: {allocated} heap allocations over the whole {events}-event loop of the \
         overloaded cell, budget {budget} = 2·⌈log2(events)⌉"
    );
}

/// Hawk exercises every subsystem at once: distributed probing + late
/// binding for shorts, centralized placement for longs, and ~10^5 steals
/// per run through the slab/batch-pool pipeline.
#[test]
fn hawk_steady_state_event_loop_allocates_nothing() {
    scenario(Arc::new(Hawk::new(GOOGLE_SHORT_PARTITION)), "hawk", |sim| {
        sim
    });
}

/// Sparrow covers the pure probing/late-binding path (no partition, no
/// stealing, no central queue).
#[test]
fn sparrow_steady_state_event_loop_allocates_nothing() {
    scenario(Arc::new(Sparrow::new()), "sparrow", |sim| sim);
}

/// The scenario layer at full tilt: rolling node failures every 100 s of
/// simulated time (queue drains, task/probe migration, central
/// fail/revive bookkeeping, live-map rebuilds) on a two-tier-speed
/// cluster — and the steady-state window must *still* run entirely on
/// recycled state. Failures continue through warm-up and the measured
/// window alike.
#[test]
fn hawk_churn_steady_state_event_loop_allocates_nothing() {
    // Servers across the whole id space (both partitions), cycling down
    // for 50 s every 100 s from t=500 s; 250 cycles cover the run's whole
    // ~22,000 s span, so the measured window sees live churn.
    let servers: Vec<u32> = (0..10).map(|i| i * 29).collect();
    let dynamics = DynamicsScript::rolling(
        &servers,
        SimTime::from_secs(500),
        SimDuration::from_secs(100),
        SimDuration::from_secs(50),
        250,
    );
    let speeds = SpeedSpec::TwoTier {
        slow_fraction: 0.2,
        slow_speed: 0.5,
    };
    scenario(
        Arc::new(Hawk::new(GOOGLE_SHORT_PARTITION)),
        "hawk-churn",
        |sim| SimConfig {
            dynamics: dynamics.clone(),
            speeds: speeds.clone(),
            ..sim
        },
    );
}

/// The serving-mode stack: the admission gate consulted on every
/// arrival. It must run on state pre-allocated at construction.
#[test]
fn hawk_serving_mode_steady_state_allocates_nothing() {
    use hawk::core::AdmissionPolicy;
    scenario(
        Arc::new(Hawk::new(GOOGLE_SHORT_PARTITION)),
        "hawk-serving",
        |sim| SimConfig {
            // A budget that never binds: the gate (a plan lookup) runs on
            // every arrival without reshaping the run.
            admission: Some(AdmissionPolicy {
                headroom: 1e18,
                ..AdmissionPolicy::default()
            }),
            ..sim
        },
    );
}

/// The contended fat tree charges every message through per-link FIFO
/// queues (flat busy-until vectors preallocated at construction): the
/// steady-state event loop must stay allocation-free with the full
/// contention model turned on.
#[test]
fn hawk_contended_fat_tree_steady_state_allocates_nothing() {
    scenario(
        Arc::new(Hawk::new(GOOGLE_SHORT_PARTITION)),
        "hawk-fat-tree-contended",
        |sim| SimConfig {
            topology: TopologySpec::FatTreeContended(FatTreeParams::default()),
            ..sim
        },
    );
}

/// Allocations per delivery a hardened chaos run may spend: the measured
/// ratio of the cell below (28,554 over 886,537 deliveries = 0.0322) plus
/// 15 % slack. What is left is mostly one shared payload per non-empty
/// steal grant. A submission names its job, and the daemons read its
/// tasks from the trace they borrow: copying every job's task vector into
/// its submission cost 30,027 (0.0339). The commit before this budget
/// existed spent 78,023 on the same cell, 0.0877 per delivery (a victims
/// vector per steal attempt, a scan buffer and a clone per grant).
const PROTO_ALLOCS_PER_DELIVERY: f64 = 0.0371;

/// The prototype's cell: the trace of a 300-worker cluster, and its
/// configuration under `faults`.
fn proto_cell(faults: FaultSpec) -> (Trace, ProtoConfig) {
    let trace: Trace = GoogleTraceConfig::with_scale(50, 1_500).generate(0xA110C);
    let cfg = ProtoBackend::deterministic()
        .faults(faults)
        .config_for(&SimConfig {
            nodes: 300,
            ..SimConfig::default()
        });
    (trace, cfg)
}

/// 1 % drops, duplicates, reorder jitter and a 1,000 s partition.
fn chaos() -> FaultSpec {
    FaultSpec::chaos().partition(
        SimTime::from_secs(100),
        SimTime::from_secs(1_100),
        (40..50).collect(),
    )
}

fn hawk() -> Arc<dyn Scheduler> {
    Arc::new(Hawk::new(GOOGLE_SHORT_PARTITION))
}

/// The third harness: every daemon of a 300-worker prototype cluster on
/// the virtual router, under 1 % drops, duplicates, reorder jitter and a
/// 1,000 s partition, from construction to report.
#[test]
fn hardened_chaos_prototype_stays_within_its_allocation_budget() {
    let (trace, cfg) = proto_cell(chaos());

    let before = allocations();
    let report = run_prototype(&trace, hawk(), &cfg);
    let allocated = allocations() - before;

    assert_eq!(report.results.len(), trace.len());
    assert!(
        report.drops > 0 && report.relaunched > 0,
        "the cell was not hostile"
    );
    let deliveries: u64 = report.deliveries.iter().map(|(_, count)| count).sum();
    let per_delivery = allocated as f64 / deliveries as f64;
    assert!(
        per_delivery <= PROTO_ALLOCS_PER_DELIVERY,
        "{allocated} allocations over {deliveries} deliveries = {per_delivery:.4} per delivery, \
         over the {PROTO_ALLOCS_PER_DELIVERY} budget"
    );
}

/// Peak live heap of the run below, as measured: its working set at the
/// end of the event loop — the cluster, the wheel (2,012 pending events at
/// most, 40 B a node), the 16-byte job records and the estimates, and the
/// queue arenas, 12-byte entry nodes and the specs of queued tasks, from
/// the floor a core reserves. The report allocates its results after the
/// wheel, the queues and the central heap are freed, so it adds nothing: a
/// report that allocated them beside the finished run, with 32-byte job
/// records, peaked at 647,292 B and would fail the pin.
const HAWK_STEADY_PEAK_BYTES: usize = 345_064;

/// Peak heap follows the live state: a whole Hawk run on the steady cell,
/// construction to report, peaks within 5 % of the measured figure.
/// Loading every one of the trace's 1,500 arrivals into the event list at
/// the start, as the drivers did before they streamed them, peaked at
/// 782,940 B against the 729,404 B pin of the day (+7.3 %, 2,501 pending
/// events) and failed it. Sizing the
/// queue arena by the trace — the `tasks*3 + jobs` entries, 3.7 MB, this
/// run's driver used to reserve up front — peaked at 4,311,900 B. (The
/// steady cell because its live state is small. On the overloaded one a
/// third of that reserve is really live, and an arena that doubles may
/// hold up to twice its high-water mark, so there the two designs sit
/// within 1.4x of each other.)
#[test]
fn hawk_whole_run_peak_heap_follows_the_live_state() {
    let trace = trace();
    let sim = sim_on(STEADY_NODES);
    let scheduler: Arc<dyn Scheduler> = Arc::new(Hawk::new(GOOGLE_SHORT_PARTITION));
    let (report, peak) = peak_bytes_of(|| Driver::with_scheduler(&trace, scheduler, &sim).run());
    assert_eq!(report.results.len(), trace.len());
    let bound = HAWK_STEADY_PEAK_BYTES + HAWK_STEADY_PEAK_BYTES * 5 / 100;
    assert!(
        peak <= bound,
        "peak live heap {peak} B over the bound {bound} B (measured \
         {HAWK_STEADY_PEAK_BYTES} B + 5 %)"
    );
}

/// Peak live heap of the hardened chaos run below, as measured (the same
/// cell fault-free peaks at 921,376 B): the daemons, the router, the
/// report, and the hardened records of the work in flight.
const HARDENED_CHAOS_PEAK_BYTES: usize = 1_288_960;

/// The hardened prototype's records live only as long as the work they
/// guard, so its whole-run peak heap follows the live state: the chaos
/// run, construction to report, peaks within 5 % of its measured figure
/// and within 2x of the same cell fault-free (1.40x). Before the records
/// were freed with their work — every job's per-task state kept after it
/// completed, at its distributed and at the central scheduler, and each
/// worker's launch keys and banked grant keys kept for the whole run in
/// SipHash tables — the chaos run peaked at 3,326,728 B and the
/// fault-free one at 1,223,096 B (2.72x): over both bounds.
#[test]
fn hardened_chaos_prototype_peak_heap_follows_the_live_state() {
    let (trace, cfg) = proto_cell(chaos());
    let (report, peak) = peak_bytes_of(|| run_prototype(&trace, hawk(), &cfg));
    assert_eq!(report.results.len(), trace.len());
    let (trace, clean_cfg) = proto_cell(FaultSpec::none());
    let (clean_report, clean) = peak_bytes_of(|| run_prototype(&trace, hawk(), &clean_cfg));
    assert_eq!(clean_report.results.len(), trace.len());
    eprintln!("hardened chaos peak {peak} B, fault-free {clean} B");
    let bound = HARDENED_CHAOS_PEAK_BYTES + HARDENED_CHAOS_PEAK_BYTES * 5 / 100;
    assert!(
        peak <= bound,
        "peak live heap {peak} B over the bound {bound} B (measured \
         {HARDENED_CHAOS_PEAK_BYTES} B + 5 %)"
    );
    assert!(
        peak <= 2 * clean,
        "peak live heap {peak} B over twice the fault-free run's {clean} B"
    );
}

/// Cluster size of the memory-model cells: twice the paper's largest
/// cluster, where per-server state outweighs the run's live work.
const MEMORY_NODES: usize = 100_000;

/// Peak live heap of the memory-model run on the single-stream `Driver`,
/// as measured: its working set at the end of the event loop, per-server
/// state first; the report's results come after it is freed.
const MEMORY_PEAK_BYTES: usize = 6_767_108;

/// Peak live heap of the same run on 8 shards, as measured: the same, plus
/// each shard's membership of the servers it does not own and its own
/// 16-byte job table.
const MEMORY_SHARDED_PEAK_BYTES: usize = 11_017_288;

/// Runs Hawk on the Google-like trace at ~90 % load on [`MEMORY_NODES`]
/// servers (2,000 jobs, the 15,000-node anchor's mean inter-arrival
/// scaled by the size ratio), construction to report, on `shards` cores,
/// and checks its peak live heap against `measured` + 5 %.
fn memory_model_cell(shards: usize, measured: usize) {
    let anchor = GoogleTraceConfig::with_scale(1, 2_000);
    let ratio = 15_000.0 / MEMORY_NODES as f64;
    let trace = GoogleTraceConfig {
        mean_interarrival: SimDuration::from_secs_f64(
            anchor.mean_interarrival.as_secs_f64() * ratio,
        ),
        ..anchor
    }
    .generate(DEFAULT_SEED);
    let sim = SimConfig {
        nodes: MEMORY_NODES,
        shards,
        ..SimConfig::default()
    };
    let (report, peak) = peak_bytes_of(|| {
        if shards == 1 {
            Driver::with_scheduler(&trace, hawk(), &sim).run()
        } else {
            ShardedDriver::new(&trace, hawk(), &sim).run()
        }
    });
    assert_eq!(report.results.len(), trace.len());
    eprintln!("{MEMORY_NODES} nodes, {shards} shard(s): peak {peak} B");
    let bound = measured + measured * 5 / 100;
    assert!(
        peak <= bound,
        "{shards} shard(s): peak live heap {peak} B over the bound {bound} B \
         (measured {measured} B + 5 %)"
    );
}

/// The memory model (docs/ARCHITECTURE.md) on one stream: at 100,000
/// nodes the peak is mostly per-server state, so this pins what is
/// O(nodes). Padding `Server` by 8 B (20 → 28 B) adds 0.8 MB, over the
/// 0.34 MB margin.
#[test]
fn memory_model_peak_heap_at_100k_nodes() {
    memory_model_cell(1, MEMORY_PEAK_BYTES);
}

/// The same cell on 8 shards pins what is O(nodes x shards) on top.
/// Padding `Server` by 8 B fails it as well (+0.8 MB over a 0.55 MB margin).
#[test]
fn memory_model_peak_heap_at_100k_nodes_on_8_shards() {
    memory_model_cell(8, MEMORY_SHARDED_PEAK_BYTES);
}
