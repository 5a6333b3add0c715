//! Allocation-regression guard for the simulation event loop.
//!
//! A counting global allocator runs a real Google-like Hawk (and Sparrow)
//! cell to steady state, then asserts that a 10,000-event window of the
//! live event loop — job arrivals, probing, late binding, central
//! placement, task completions and the full steal pipeline — performs
//! **zero** heap allocations.
//!
//! This is the enforcement side of the slab rework: server queues live in
//! the cluster-wide `EntrySlab` arena, steal batches ride recycled
//! buffers/`BatchPool` slots, probe targets and central placements fill
//! caller-owned buffers, and RNG sampling reuses its scratch — so after
//! warm-up the loop's working set is fixed. Any future change that
//! re-introduces per-event allocation fails here with an exact count.
//!
//! The test is fully deterministic (fixed seeds, single thread), so the
//! asserted zero is stable, not flaky-by-luck. Runs in debug and release;
//! CI exercises the release half next to the golden-digest suite.
//!
//! The prototype's daemons own their messages, so its guard is a budget
//! rather than a zero: a whole hardened chaos run — construction and
//! report included — may allocate at most [`PROTO_ALLOCS_PER_DELIVERY`]
//! times per delivery.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use hawk::core::scheduler::{Hawk, Scheduler, Sparrow};
use hawk::core::{Driver, FatTreeParams, SimConfig, TopologySpec};
use hawk::simcore::{SimDuration, SimTime};
use hawk::workload::google::{GoogleTraceConfig, GOOGLE_SHORT_PARTITION};
use hawk::workload::scenario::{DynamicsScript, SpeedSpec};
use hawk::workload::Trace;

struct CountingAllocator;

// Per-thread counter (const-init TLS: no lazy allocation on first touch),
// so the test harness running other tests in parallel cannot leak their
// allocations into a measured window.
thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCATIONS.with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Events to run before measuring: long enough for every recycled buffer,
/// slab arena, RNG scratch and timing-wheel bucket to reach its
/// steady-state footprint.
const WARMUP_EVENTS: u64 = 60_000;

/// The measured window.
const WINDOW_EVENTS: u64 = 10_000;

fn steady_state_window(scheduler: Arc<dyn Scheduler>, name: &str) {
    steady_state_window_with(
        scheduler,
        name,
        DynamicsScript::none(),
        SpeedSpec::Uniform,
        None,
    );
}

fn steady_state_window_with(
    scheduler: Arc<dyn Scheduler>,
    name: &str,
    dynamics: DynamicsScript,
    speeds: SpeedSpec,
    topology: Option<TopologySpec>,
) {
    let sim = SimConfig {
        nodes: 300,
        // Keep the periodic utilization snapshots out of the measured
        // window; sampling growth is amortized-fine but not *zero*.
        util_interval: SimDuration::from_secs(1_000_000),
        dynamics,
        speeds,
        topology,
        ..SimConfig::default()
    };
    steady_state_window_cfg(scheduler, name, sim);
}

fn steady_state_window_cfg(scheduler: Arc<dyn Scheduler>, name: &str, sim: SimConfig) {
    // ~1,500 jobs ≈ 180k events: the window sits mid-run, with arrivals,
    // completions and steals all still active.
    let trace: Trace = GoogleTraceConfig::with_scale(10, 1_500).generate(0xA110C);
    let mut driver = Driver::with_scheduler(&trace, scheduler, &sim);

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

/// Hawk exercises every subsystem at once: distributed probing + late
/// binding for shorts, centralized placement for longs, and ~10^5 steals
/// per run through the slab/batch-pool pipeline.
#[test]
fn hawk_steady_state_event_loop_allocates_nothing() {
    steady_state_window(Arc::new(Hawk::new(GOOGLE_SHORT_PARTITION)), "hawk");
}

/// Sparrow covers the pure probing/late-binding path (no partition, no
/// stealing, no central queue).
#[test]
fn sparrow_steady_state_event_loop_allocates_nothing() {
    steady_state_window(Arc::new(Sparrow::new()), "sparrow");
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
    steady_state_window_with(
        Arc::new(Hawk::new(GOOGLE_SHORT_PARTITION)),
        "hawk-churn",
        dynamics,
        speeds,
        None,
    );
}

/// The serving-mode stack at full tilt: always-on streaming sinks fed at
/// every job completion, 1 s windowed live sampling (thousands of window
/// closes — histogram snapshot, reset and reuse — land inside the
/// measured window), and the admission gate consulted on every arrival.
/// All of it must run on state pre-allocated at construction.
#[test]
fn hawk_serving_mode_steady_state_allocates_nothing() {
    use hawk::core::AdmissionPolicy;
    let sim = SimConfig {
        nodes: 300,
        util_interval: SimDuration::from_secs(1_000_000),
        live_window: Some(SimDuration::from_secs(1)),
        // A budget that never binds: the gate (plan lookup + live
        // counters) runs on every arrival without reshaping the run.
        admission: Some(AdmissionPolicy {
            headroom: 1e18,
            ..AdmissionPolicy::default()
        }),
        ..SimConfig::default()
    };
    steady_state_window_cfg(
        Arc::new(Hawk::new(GOOGLE_SHORT_PARTITION)),
        "hawk-serving",
        sim,
    );
}

/// The contended fat tree charges every message through per-link FIFO
/// queues (flat busy-until vectors preallocated at construction): the
/// steady-state event loop must stay allocation-free with the full
/// contention model turned on.
#[test]
fn hawk_contended_fat_tree_steady_state_allocates_nothing() {
    steady_state_window_with(
        Arc::new(Hawk::new(GOOGLE_SHORT_PARTITION)),
        "hawk-fat-tree-contended",
        DynamicsScript::none(),
        SpeedSpec::Uniform,
        Some(TopologySpec::FatTreeContended(FatTreeParams::default())),
    );
}

/// Allocations per delivery a hardened chaos run may spend: the measured
/// ratio of the cell below (29,699 over 889,314 deliveries = 0.0334) plus
/// 15 % slack. What is left is one shared payload per non-empty steal
/// grant and the per-job vectors of a submission; the commit before this
/// budget existed spent 78,023 on the same cell, 0.0877 per delivery (a
/// victims vector per steal attempt, a scan buffer and a clone per grant).
const PROTO_ALLOCS_PER_DELIVERY: f64 = 0.0384;

/// The third harness: every daemon of a 300-worker prototype cluster on
/// the virtual router, under 1 % drops, duplicates, reorder jitter and a
/// 1,000 s partition, from construction to report.
#[test]
fn hardened_chaos_prototype_stays_within_its_allocation_budget() {
    use hawk::proto::{run_prototype, FaultSpec, ProtoBackend};

    let trace: Trace = GoogleTraceConfig::with_scale(50, 1_500).generate(0xA110C);
    let faults = FaultSpec::chaos().partition(
        SimTime::from_secs(100),
        SimTime::from_secs(1_100),
        (40..50).collect(),
    );
    let cfg = ProtoBackend::deterministic()
        .faults(faults)
        .config_for(&SimConfig {
            nodes: 300,
            ..SimConfig::default()
        });
    let scheduler: Arc<dyn Scheduler> = Arc::new(Hawk::new(GOOGLE_SHORT_PARTITION));

    let before = allocations();
    let report = run_prototype(&trace, scheduler, &cfg);
    let allocated = allocations() - before;

    assert_eq!(report.jobs.len(), trace.len());
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
