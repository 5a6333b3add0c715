//! Wall-clock performance baseline for the simulation engine.
//!
//! Unlike the figure binaries (which reproduce the paper's *results*), this
//! binary measures how fast the simulator itself runs: it times
//! representative end-to-end cells — the 90 %-load Google-like workload at
//! 1k / 5k / 15k / 50k nodes under Hawk and Sparrow, plus a churning
//! heterogeneous cell and a contended-fat-tree topology cell at 5k — and
//! writes `BENCH_perf.json` at the repository root so the engine's
//! throughput trajectory is tracked across PRs. The 50k-node pair is the paper's
//! largest Figure 5 cluster: the slab-backed queue rework exists precisely
//! so per-event throughput stays flat out to that scale.
//!
//! Each cell keeps the offered load constant (~90 % at every cluster size)
//! by scaling the arrival rate with the node count, so the cells differ in
//! *state size* (servers, pending events), not in load regime.
//!
//! Beyond tracking, the binary *enforces* a floor: every cell has a frozen
//! per-cell `floor_events_per_sec` (the throughput measured when the cell
//! was introduced, same machine class that produces `BENCH_perf.json`),
//! and a comparable run (non-smoke, default jobs, default seed) exits
//! nonzero if any cell drops below [`FLOOR_FRACTION`] of its floor — a
//! perf regression fails the bench the way a broken digest fails the
//! golden tests. Smoke and custom-parameter runs only report.
//!
//! The `hawk-sharded` cells run the same workload through the sharded
//! driver (`shards = 4`) at 15k / 50k / 100k nodes — the 100k cell is the
//! headline: twice the paper's largest cluster, beyond what the
//! single-stream driver is tracked at (one row per size: the sharded
//! driver runs on the calling thread). The `hawk-sharded-rack` cell runs
//! the 15k workload rack-aligned on the default fat tree with rack-first
//! stealing — the configuration rack-aligned sharding exists for.
//! Sharded rows also carry `epochs` (hand-overs of the one event list
//! from core to core), `merge_envelopes` (cross-core sends),
//! `wall_vs_single` (their wall-clock over the single-stream row's of the
//! same workload, where one is timed) and the rack-local steal rate; the
//! counters are excluded from golden digests.
//!
//! Every row carries a `streaming_max_rel_err` column: the bounded-memory
//! streaming percentiles cross-checked against the exact sorted reads on
//! the same report, asserted under the sink's documented ε-rank budget
//! (`StreamingQuantiles::RELATIVE_ERROR`). The `hawk-live` row runs the
//! 5k cell with 60 s live windows and surfaces the windowed serving
//! metrics; live sampling adds events, so that row has no frozen floor.
//!
//! The third harness has its own rows (`proto_cells`): `proto-chaos` runs
//! the prototype's daemons on the virtual router — 1,000 workers, 10
//! distributed schedulers, `FaultSpec::chaos()` plus one 1,000 s partition
//! window — and `proto-clean` is the same cell on a clean network. Their
//! unit of work is the delivered message, so they carry `messages`,
//! `messages_per_sec`, `ns_per_message`, `stale_timer_share` (hardened
//! timers that fired with nothing left to do, over messages) and, on the
//! chaos row, `fault_overhead` (its wall clock over the clean twin's),
//! with floors in messages per second.
//!
//! Hawk rows carry the steal funnel — `steal_attempts`, `steal_scans`
//! (victim queues actually walked, after the steal-candidate index) and
//! `scans_per_attempt` — and the single-stream and sharded rows print
//! their per-kind event counts on stderr. `micro_cells` folds in two of the criterion
//! micro-benches, `event_queue` and `steal_scan`, as ns per element: the
//! same closures `cargo bench` times (`hawk_bench::micro`).
//!
//! Every simulator row also says what it held in memory: `peak_heap_mib`
//! (a counting global allocator's peak of live bytes over one run of the
//! cell, construction to report — hawkbench's allocator and convention: a
//! `realloc` counts as its new size) next to the two arena high-water
//! marks and growth counts of [`MetricsReport`] (`queue_nodes_high_water`,
//! `pending_events_high_water`, `queue_arena_growths`,
//! `event_arena_growths`). `memory_cells` runs the same workload once at
//! 100k and 1M nodes on one stream and on 8 shards: what is O(nodes) and
//! what is O(nodes x shards) shows there (docs/ARCHITECTURE.md, "Memory
//! model").
//!
//! Usage: `perf_baseline [--smoke] [--jobs N] [--seed S] [--out PATH]`

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use hawk_core::scheduler::{Hawk, Scheduler, Sparrow};
use hawk_core::{Experiment, FatTreeParams, MetricsReport, SimConfig, TopologySpec};
use hawk_proto::{run_prototype, FaultSpec, ProtoBackend, ProtoReport};
use hawk_simcore::stats::StreamingQuantiles;
use hawk_simcore::{SimDuration, SimTime};
use hawk_workload::google::{GoogleTraceConfig, GOOGLE_SHORT_PARTITION};
use hawk_workload::scenario::{DynamicsScript, SpeedSpec};
use hawk_workload::{JobClass, Trace};

#[path = "hawkbench/alloc.rs"]
mod alloc;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Default job count for the timed cells.
const DEFAULT_JOBS: usize = 30_000;

/// Job count in `--smoke` mode (CI): exercises every cell in seconds.
const SMOKE_JOBS: usize = 2_000;

/// The cluster sizes timed, largest last (the headline cell). 50,000 is
/// the top of the paper's Figure 5 sweep.
const NODE_CELLS: [usize; 4] = [1_000, 5_000, 15_000, 50_000];

/// The cluster sizes timed through the sharded driver. 100,000 is twice
/// the paper's largest cluster — the scale the sharded driver exists for.
const SHARDED_NODE_CELLS: [usize; 3] = [15_000, 50_000, 100_000];

/// The memory rows: cluster sizes beyond every timed cell, each on the
/// single-stream driver and on this many shards.
const MEMORY_NODE_CELLS: [usize; 2] = [100_000, 1_000_000];
const MEMORY_SHARD_CELLS: [usize; 2] = [1, 8];

/// Shard count of the `hawk-sharded` cells.
const SHARDED_SHARDS: usize = 4;

/// Cluster size of the rack-aligned sharded fat-tree cell.
const SHARDED_RACK_NODES: usize = 15_000;

/// Cluster size of the scenario-engine churn cell.
const CHURN_NODES: usize = 5_000;

/// Cluster size of the contended-fat-tree topology cell.
const FAT_TREE_NODES: usize = 5_000;

/// The churn cell's scenario: rolling failures (one of 50 spread-out
/// servers down for 30 s every 60 s, from t = 500 s, effectively forever)
/// on a two-tier cluster with 20 % of servers at half speed. Exercises
/// the whole dynamics path — queue drains, task/probe migration, central
/// fail/revive, live-map rebuilds, speed-scaled slots — under load.
fn churn_dynamics() -> DynamicsScript {
    let servers: Vec<u32> = (0..50).map(|i| i * 97).collect();
    DynamicsScript::rolling(
        &servers,
        SimTime::from_secs(500),
        SimDuration::from_secs(60),
        SimDuration::from_secs(30),
        5_000,
    )
}

fn churn_speeds() -> SpeedSpec {
    SpeedSpec::TwoTier {
        slow_fraction: 0.2,
        slow_speed: 0.5,
    }
}

/// Worker count of the prototype cells (10 distributed schedulers, the
/// paper's count, come from `ProtoBackend::deterministic`).
const PROTO_NODES: usize = 1_000;

/// The chaos row's network: 1 % drops, duplicates, reorder jitter and the
/// hardened protocol, plus a 1,000 s partition islanding ten workers that
/// host no scheduler daemon.
fn proto_chaos_faults() -> FaultSpec {
    FaultSpec::chaos().partition(
        SimTime::from_secs(100),
        SimTime::from_secs(1_100),
        (40..50).collect(),
    )
}

/// The arrival-rate anchor: `with_scale(1)` calibrates ~90 % load at
/// 15,000 nodes, so `scale = ANCHOR_NODES / nodes` holds load constant.
const ANCHOR_NODES: u64 = 15_000;

/// The trace for one cell, holding offered load at ~90 % for any cluster
/// size. Sizes that divide the anchor go through `with_scale` and produce
/// byte-identical traces to earlier trajectory entries; larger cells
/// (50k) scale the mean inter-arrival directly by `anchor / nodes`.
fn trace_for(nodes: usize, jobs: usize, seed: u64) -> Trace {
    if nodes as u64 <= ANCHOR_NODES && ANCHOR_NODES.is_multiple_of(nodes as u64) {
        return GoogleTraceConfig::with_scale(ANCHOR_NODES / nodes as u64, jobs).generate(seed);
    }
    let anchor = GoogleTraceConfig::with_scale(1, jobs);
    let ratio = ANCHOR_NODES as f64 / nodes as f64;
    GoogleTraceConfig {
        mean_interarrival: hawk_simcore::SimDuration::from_secs_f64(
            anchor.mean_interarrival.as_secs_f64() * ratio,
        ),
        ..anchor
    }
    .generate(seed)
}

/// A comparable run fails if any cell's throughput drops below this
/// fraction of its frozen floor. 0.75 absorbs machine noise (the floors
/// were single measurements, not distributions) while still catching any
/// real regression — the engine reworks this guards were each >1.4x.
const FLOOR_FRACTION: f64 = 0.75;

/// Frozen events-per-second floors per `(scheduler, nodes)` cell at the
/// default 30,000 jobs and default seed: the *minimum* throughput across
/// repeated full runs on the single-core container that froze them (the
/// machine class that produces `BENCH_perf.json`), rounded down to two
/// significant digits. The min-of-observed statistic plus the
/// `FLOOR_FRACTION` cushion absorbs that container's measured run-to-run
/// noise (up to ~35 % on the fastest cells) while still catching the
/// multi-x regressions the floors exist for. A comparable run must stay
/// above `FLOOR_FRACTION x` these (see [`check_floors`]); re-freeze
/// deliberately — with a sentence in the PR about what changed — never to
/// make a red run green.
/// Sharded floors were re-frozen (from 3.4 / 3.5 / 3.1 / 3.7e6) by the PR
/// that put the K cores on one event list: the minimum of ten full runs
/// on a quiet day (best of the ten: 9.4 / 8.4 / 7.7 / 8.5e6), so the
/// `FLOOR_FRACTION` cushion is all the slack they have.
/// The single-stream floors were re-frozen (from 4.1 / 4.4 / 3.5 / 2.0e6
/// Hawk, 7.7 / 5.3 / 5.0 / 4.2e6 Sparrow, 3.8e6 churn, 3.7e6 fat tree) by
/// the PR that gave the stat word a steal-candidate bit and the timing
/// wheel its single-time hand-off: the minimum of ten full runs on a day
/// the box drifted by ±40 % (best of the ten: 8.8 / 8.8 / 7.2 / 5.8e6
/// Hawk, 13.7 / 11.9 / 8.8 / 6.0e6 Sparrow).
fn floor_events_per_sec(scheduler: &str, nodes: usize) -> Option<f64> {
    match (scheduler, nodes) {
        ("hawk", 1_000) => Some(5_400_000.0),
        ("hawk", 5_000) => Some(4_900_000.0),
        ("hawk", 15_000) => Some(4_300_000.0),
        // The 50k single-stream cell is the most memory-bound in the
        // file and swings the widest with machine state (3.50–5.75e6
        // across the ten runs).
        ("hawk", 50_000) => Some(3_500_000.0),
        ("sparrow", 1_000) => Some(8_800_000.0),
        ("sparrow", 5_000) => Some(6_900_000.0),
        ("sparrow", 15_000) => Some(5_200_000.0),
        ("sparrow", 50_000) => Some(4_200_000.0),
        ("hawk-churn", 5_000) => Some(5_000_000.0),
        ("hawk-fat-tree", 5_000) => Some(4_100_000.0),
        ("hawk-sharded", 15_000) => Some(9_000_000.0),
        ("hawk-sharded", 50_000) => Some(7_700_000.0),
        ("hawk-sharded", 100_000) => Some(7_200_000.0),
        ("hawk-sharded-rack", 15_000) => Some(8_100_000.0),
        _ => None,
    }
}

/// Frozen messages-per-second floors of the prototype rows, by the same
/// min-of-observed rule as [`floor_events_per_sec`]: the slowest of ten
/// full runs on the 2-core container (3.50e6 and 4.82e6), rounded down
/// to two significant digits. Re-frozen *down* (from 4.7e6 / 5.9e6, the
/// PR that put the virtual router on the simulator's event list) by the
/// PR that made that event list faster: the rows' best runs rose (chaos
/// 4.9 → 5.9e6, clean 6.9 → 8.8e6), but the box's slow phases that day
/// read 3.50e6 on the change and 3.56e6 on its parent, at 0.75 x the old
/// floor — and a floor must never flake on machine state.
fn floor_messages_per_sec(name: &str) -> Option<f64> {
    match name {
        "proto-chaos" => Some(3_400_000.0),
        "proto-clean" => Some(4_800_000.0),
        _ => None,
    }
}

struct Opts {
    smoke: bool,
    jobs: Option<usize>,
    seed: u64,
    repeats: usize,
    out: String,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        smoke: false,
        jobs: None,
        seed: hawk_core::DEFAULT_SEED,
        repeats: 2,
        out: "BENCH_perf.json".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => opts.smoke = true,
            "--jobs" => opts.jobs = Some(expect_value(args.next())),
            "--seed" => opts.seed = expect_value(args.next()),
            "--repeats" => opts.repeats = expect_value::<usize>(args.next()).max(1),
            "--out" => {
                opts.out = args.next().unwrap_or_else(|| usage());
            }
            _ => usage(),
        }
    }
    opts
}

fn expect_value<T: std::str::FromStr>(arg: Option<String>) -> T {
    arg.and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
}

fn usage() -> ! {
    eprintln!("perf_baseline: time representative end-to-end cells and write BENCH_perf.json");
    eprintln!("usage: perf_baseline [--smoke] [--jobs N] [--seed S] [--repeats R] [--out PATH]");
    std::process::exit(2);
}

/// Cross-checks the bounded-memory streaming percentiles against the
/// exact sorted-runtime reads on one cell's report, returning the
/// maximum relative error across both classes at p50/p90/p99.
///
/// Every bench cell runs admission-free, so the exact and streaming
/// populations are identical and the sink's documented ε-rank bound
/// ([`StreamingQuantiles::RELATIVE_ERROR`]) must hold — a violation
/// aborts the bench the way a broken digest fails the golden tests.
/// Sharded cells read merged shard-local sinks, so the column also
/// guards merge transparency at scale.
fn streaming_max_rel_err(name: &str, report: &MetricsReport) -> f64 {
    let mut max_rel = 0.0f64;
    for (class, summary) in [
        (JobClass::Short, &report.streaming.short),
        (JobClass::Long, &report.streaming.long),
    ] {
        for (p, streamed) in [
            (50.0, summary.p50),
            (90.0, summary.p90),
            (99.0, summary.p99),
        ] {
            let exact = report.runtime_percentile(class, p);
            let (Some(exact), Some(streamed)) = (exact, streamed) else {
                continue;
            };
            let rel = (streamed - exact).abs() / exact.abs().max(1e-12);
            assert!(
                rel <= StreamingQuantiles::RELATIVE_ERROR + 1e-9,
                "{name}: streaming {class:?} p{p} = {streamed:.6}s drifted \
                 {rel:.2e} from the exact {exact:.6}s (budget {:.2e})",
                StreamingQuantiles::RELATIVE_ERROR
            );
            max_rel = max_rel.max(rel);
        }
    }
    max_rel
}

/// One timed cell result.
struct CellTiming {
    scheduler: String,
    nodes: usize,
    jobs: usize,
    shards: usize,
    wall_s: f64,
    events: u64,
    events_per_sec: f64,
    steals: u64,
    steal_attempts: u64,
    /// Victim queues walked; over `steal_attempts`, `scans_per_attempt`.
    steal_scans: u64,
    floor: Option<f64>,
    vs_floor: Option<f64>,
    /// Epoch/merge observability for sharded cells (`None` single-stream).
    sharded: Option<hawk_core::ShardedStats>,
    /// Fraction of steal transfers that stayed rack-local, where the
    /// topology classifies racks and any transfer happened.
    rack_local_steal_rate: Option<f64>,
    /// Max relative error of the streaming percentiles against the exact
    /// sorted reads (see [`streaming_max_rel_err`]); asserted under the
    /// sink's documented budget before the row is recorded.
    streaming_max_rel_err: f64,
    /// Peak live heap, and allocator calls, of one run, construction to
    /// report.
    peak_heap_mib: f64,
    allocs: u64,
    /// `[queue_nodes_high_water, queue_arena_growths,
    /// pending_events_high_water, event_arena_growths]` of the report.
    arenas: [u64; 4],
}

impl CellTiming {
    /// Queue walks per steal attempt (an attempt contacts up to ten
    /// victims; the candidate index rules most out without a walk).
    fn scans_per_attempt(&self) -> Option<f64> {
        (self.steal_attempts > 0).then(|| self.steal_scans as f64 / self.steal_attempts as f64)
    }

    /// The row of one timed cell: throughput, the streaming cross-check,
    /// and whatever epoch and rack-locality counters the report carries.
    /// Floors are filled in once every cell has run.
    fn new(name: &str, nodes: usize, jobs: usize, timed: &Timed) -> CellTiming {
        let (wall_s, report) = (timed.wall_s, &timed.report);
        CellTiming {
            scheduler: name.to_string(),
            nodes,
            jobs,
            shards: timed.shards,
            wall_s,
            events: report.events,
            events_per_sec: report.events as f64 / wall_s.max(1e-9),
            steals: report.steals,
            steal_attempts: report.steal_attempts,
            steal_scans: report.steal_scans,
            floor: None,
            vs_floor: None,
            sharded: report.sharded,
            rack_local_steal_rate: report.network.rack_local_steal_rate(),
            streaming_max_rel_err: streaming_max_rel_err(name, report),
            peak_heap_mib: timed.peak_bytes as f64 / (1024.0 * 1024.0),
            allocs: timed.allocs,
            arenas: [
                report.queue_nodes_high_water,
                report.queue_arena_growths,
                report.pending_events_high_water,
                report.event_arena_growths,
            ],
        }
    }

    /// The memory columns, as every row prints them.
    fn memory(&self) -> String {
        let [queue_hw, queue_growths, pending_hw, event_growths] = self.arenas;
        format!(
            "peak heap {:.2} MiB in {} allocations, high water {queue_hw} queue nodes \
             ({queue_growths} arena growths) / {pending_hw} pending events ({event_growths})",
            self.peak_heap_mib, self.allocs
        )
    }
}

/// One cell's fastest run: its wall clock and report, and the peak live
/// heap and allocator calls of a run (every run of a single-stream cell
/// allocates identically).
struct Timed {
    shards: usize,
    wall_s: f64,
    peak_bytes: usize,
    allocs: u64,
    report: MetricsReport,
}

/// One timed prototype row.
struct ProtoTiming {
    name: &'static str,
    jobs: usize,
    wall_s: f64,
    messages: u64,
    messages_per_sec: f64,
    stale_timer_share: f64,
    /// This row's wall clock over the clean twin's (the chaos row).
    fault_overhead: Option<f64>,
    floor: Option<f64>,
}

impl ProtoTiming {
    fn vs_floor(&self) -> Option<f64> {
        self.floor.map(|f| self.messages_per_sec / f)
    }
}

/// Times one prototype cell — daemon construction, the run and the report
/// — `repeats` times and keeps the fastest run.
fn time_proto(
    name: &'static str,
    trace: &Trace,
    faults: FaultSpec,
    seed: u64,
    repeats: usize,
) -> ProtoTiming {
    let cfg = ProtoBackend::deterministic()
        .faults(faults)
        .config_for(&SimConfig {
            nodes: PROTO_NODES,
            seed,
            ..SimConfig::default()
        });
    let scheduler: Arc<dyn Scheduler> = Arc::new(Hawk::new(GOOGLE_SHORT_PARTITION));
    let (wall_s, report): (f64, ProtoReport) = best_of(repeats, || {
        run_prototype(trace, Arc::clone(&scheduler), &cfg)
    });
    assert_eq!(report.results.len(), trace.len(), "{name} lost jobs");
    let timing = ProtoTiming {
        name,
        jobs: trace.len(),
        wall_s,
        messages: report.messages,
        messages_per_sec: report.messages as f64 / wall_s.max(1e-9),
        stale_timer_share: report.stale_timers as f64 / report.messages.max(1) as f64,
        fault_overhead: None,
        floor: None,
    };
    eprintln!(
        "  {name} x {PROTO_NODES:>6} workers: {wall_s:8.3} s  ({:.2e} messages/s, {:.0} ns/message, \
         {} drops, {} retries, {} relaunched, {:.1}% stale timers)",
        timing.messages_per_sec,
        1e9 / timing.messages_per_sec,
        report.drops,
        report.retries,
        report.relaunched,
        100.0 * timing.stale_timer_share
    );
    timing
}

/// One folded-in micro-bench row.
struct MicroTiming {
    bench: &'static str,
    name: String,
    elements: u64,
    ns_per_element: f64,
}

/// Times one micro-bench case the way the vendored criterion does — a
/// warm-up call sizes batches of about 5 ms — and keeps the fastest of ten
/// batches, per element.
fn time_micro(mut case: hawk_bench::micro::Case) -> MicroTiming {
    let start = Instant::now();
    std::hint::black_box((case.run)());
    let estimate = start.elapsed().as_nanos().max(1);
    let batch = (5_000_000 / estimate).clamp(1, 1_000_000) as u32;
    let (wall_s, _) = best_of(10, || {
        for _ in 0..batch {
            std::hint::black_box((case.run)());
        }
    });
    let ns_per_element = wall_s * 1e9 / (f64::from(batch) * case.elements as f64);
    eprintln!(
        "  micro {}/{}: {ns_per_element:.1} ns/element",
        case.bench, case.name
    );
    MicroTiming {
        bench: case.bench,
        name: case.name,
        elements: case.elements,
        ns_per_element,
    }
}

/// Runs `run` `repeats` times and keeps the fastest with its wall clock
/// (standard minimum-of-N benchmarking: the min is the least
/// noise-contaminated estimate of the cost; the runs are bit-identical
/// anyway).
fn best_of<R>(repeats: usize, mut run: impl FnMut() -> R) -> (f64, R) {
    let mut best: Option<(f64, R)> = None;
    for _ in 0..repeats {
        let start = Instant::now();
        let result = run();
        let wall = start.elapsed().as_secs_f64();
        if best.as_ref().is_none_or(|(b, _)| wall < *b) {
            best = Some((wall, result));
        }
    }
    best.expect("repeats >= 1")
}

/// Times one cell `repeats` times and keeps the fastest run.
fn time_cell(
    trace: &Arc<Trace>,
    scheduler: Arc<dyn Scheduler>,
    nodes: usize,
    repeats: usize,
) -> Timed {
    time_cell_with(
        trace,
        scheduler,
        nodes,
        repeats,
        1,
        DynamicsScript::none(),
        SpeedSpec::Uniform,
        None,
    )
}

#[allow(clippy::too_many_arguments)]
fn time_cell_with(
    trace: &Arc<Trace>,
    scheduler: Arc<dyn Scheduler>,
    nodes: usize,
    repeats: usize,
    shards: usize,
    dynamics: DynamicsScript,
    speeds: SpeedSpec,
    topology: Option<TopologySpec>,
) -> Timed {
    let mut builder = Experiment::builder()
        .trace(trace)
        .scheduler_shared(scheduler)
        .nodes(nodes)
        .shards(shards)
        .dynamics(dynamics)
        .speeds(speeds);
    if let Some(spec) = topology {
        builder = builder.topology(spec);
    }
    time_experiment(&builder.build(), repeats)
}

/// Times a built cell `repeats` times and keeps the fastest run, each
/// inside an allocator window of its own.
fn time_experiment(cell: &Experiment, repeats: usize) -> Timed {
    let (wall_s, (report, peak_bytes, allocs)) = best_of(repeats, || {
        let window = alloc::Window::open();
        let report = cell.run();
        (report, window.peak_bytes(), window.calls())
    });
    Timed {
        shards: cell.sim().shards.max(1),
        wall_s,
        peak_bytes,
        allocs,
        report,
    }
}

/// The per-kind event counts of a run, on stderr: a sharded row's minus
/// its single-stream twin's is the event-inflation attribution.
fn print_events_by_kind(report: &MetricsReport) {
    let by_kind: Vec<String> = hawk_core::Event::KINDS
        .iter()
        .zip(report.events_by_kind)
        .filter(|&(_, count)| count > 0)
        .map(|(kind, count)| format!("{kind} {count}"))
        .collect();
    eprintln!("           events by kind: {}", by_kind.join(", "));
}

/// Builds (and reports on stderr) one sharded cell row, including the
/// counters the sharded driver exposes.
fn sharded_cell(name: &str, nodes: usize, jobs: usize, timed: &Timed) -> CellTiming {
    let cell = CellTiming::new(name, nodes, jobs, timed);
    let (shards, wall_s, report) = (timed.shards, timed.wall_s, &timed.report);
    let stats = cell.sharded.expect("sharded cell must report its stats");
    eprintln!(
        "  {name} x {nodes:>6} nodes ({shards} shards): \
         {wall_s:8.3} s  ({:.2e} events/s, {} steals, {} epochs ({:.2} events each), \
         {} merge envelopes{}; {})",
        cell.events_per_sec,
        report.steals,
        stats.epochs,
        report.events as f64 / stats.epochs.max(1) as f64,
        stats.merge_envelopes,
        cell.rack_local_steal_rate
            .map(|r| format!(", {:.1}% rack-local steals", r * 100.0))
            .unwrap_or_default(),
        cell.memory()
    );
    print_events_by_kind(report);
    cell
}

fn main() {
    let opts = parse_args();
    let jobs = opts
        .jobs
        .unwrap_or(if opts.smoke { SMOKE_JOBS } else { DEFAULT_JOBS });
    let comparable = !opts.smoke && opts.jobs.is_none() && opts.seed == hawk_core::DEFAULT_SEED;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());

    eprintln!(
        "perf_baseline: {jobs} jobs, seed {:#x}, best of {} per cell, {nproc} cores, \
         cells {NODE_CELLS:?} x {{hawk, sparrow}} + hawk-churn x {CHURN_NODES} \
         + hawk-fat-tree x {FAT_TREE_NODES} \
         + hawk-sharded ({SHARDED_SHARDS} shards) \
         x {SHARDED_NODE_CELLS:?} + hawk-sharded-rack x {SHARDED_RACK_NODES} \
         + hawk-live x {CHURN_NODES} + proto-{{chaos, clean}} x {PROTO_NODES}",
        opts.seed, opts.repeats
    );

    let mut cells: Vec<CellTiming> = Vec::new();
    for nodes in NODE_CELLS {
        // Hold offered load at ~90 % for every cluster size.
        let trace = Arc::new(trace_for(nodes, jobs, opts.seed));
        let schedulers: Vec<Arc<dyn Scheduler>> = vec![
            Arc::new(Hawk::new(GOOGLE_SHORT_PARTITION)),
            Arc::new(Sparrow::new()),
        ];
        for scheduler in schedulers {
            let name = scheduler.name();
            let timed = time_cell(&trace, scheduler, nodes, opts.repeats);
            let (wall_s, report) = (timed.wall_s, &timed.report);
            let cell = CellTiming::new(&name, nodes, jobs, &timed);
            eprintln!(
                "  {name:>8} x {nodes:>6} nodes: {wall_s:8.3} s  ({:.2e} events/s, \
                 streaming drift {:.1e}{})\n           {}",
                cell.events_per_sec,
                cell.streaming_max_rel_err,
                cell.scans_per_attempt()
                    .map(|r| format!(
                        ", {} attempts, {} scans, {r:.3} scans_per_attempt",
                        cell.steal_attempts, cell.steal_scans
                    ))
                    .unwrap_or_default(),
                cell.memory()
            );
            print_events_by_kind(report);
            cells.push(cell);
        }
    }

    // The scenario-engine churn cell: same workload shape at 5k nodes,
    // with rolling failures and a heterogeneous speed profile. Tracks the
    // dynamics path's throughput next to the static cells.
    {
        let trace = Arc::new(trace_for(CHURN_NODES, jobs, opts.seed));
        let scheduler: Arc<dyn Scheduler> = Arc::new(Hawk::new(GOOGLE_SHORT_PARTITION));
        let timed = time_cell_with(
            &trace,
            scheduler,
            CHURN_NODES,
            opts.repeats,
            1,
            churn_dynamics(),
            churn_speeds(),
            None,
        );
        let cell = CellTiming::new("hawk-churn", CHURN_NODES, jobs, &timed);
        eprintln!(
            "  hawk-churn x {CHURN_NODES:>6} nodes: {:8.3} s  \
             ({:.2e} events/s, {} migrations, {} abandons; {})",
            timed.wall_s,
            cell.events_per_sec,
            timed.report.migrations,
            timed.report.abandons,
            cell.memory()
        );
        cells.push(cell);
    }

    // The topology-engine cell: the same workload at 5k nodes on a
    // contended fat tree — every message charged through per-link FIFO
    // queues. Tracks the hawk-net contention path's cost next to the
    // flat-network static cells.
    {
        let trace = Arc::new(trace_for(FAT_TREE_NODES, jobs, opts.seed));
        let scheduler: Arc<dyn Scheduler> = Arc::new(Hawk::new(GOOGLE_SHORT_PARTITION));
        let timed = time_cell_with(
            &trace,
            scheduler,
            FAT_TREE_NODES,
            opts.repeats,
            1,
            DynamicsScript::none(),
            SpeedSpec::Uniform,
            Some(TopologySpec::FatTreeContended(FatTreeParams::default())),
        );
        let cell = CellTiming::new("hawk-fat-tree", FAT_TREE_NODES, jobs, &timed);
        eprintln!(
            "  hawk-fat-tree x {FAT_TREE_NODES:>6} nodes: {:8.3} s  \
             ({:.2e} events/s, {} msgs classified; {})",
            timed.wall_s,
            cell.events_per_sec,
            timed.report.network.total_msgs(),
            cell.memory()
        );
        cells.push(cell);
    }

    // The sharded-driver cells: the same ~90 %-load Hawk workload pushed
    // through `ShardedDriver` with a fixed shard count, up to 100k nodes —
    // twice the paper's largest cluster.
    // Tracks the routing overhead and the scale the single-stream driver
    // is never timed at.
    for nodes in SHARDED_NODE_CELLS {
        let trace = Arc::new(trace_for(nodes, jobs, opts.seed));
        let timed = time_cell_with(
            &trace,
            Arc::new(Hawk::new(GOOGLE_SHORT_PARTITION)),
            nodes,
            opts.repeats,
            SHARDED_SHARDS,
            DynamicsScript::none(),
            SpeedSpec::Uniform,
            None,
        );
        cells.push(sharded_cell("hawk-sharded", nodes, jobs, &timed));
    }

    // The rack-aligned sharded cell: the 15k workload on the default
    // (uncontended) fat tree with rack-first stealing — whole pods per
    // shard, locality-ordered victim lists.
    {
        let trace = Arc::new(trace_for(SHARDED_RACK_NODES, jobs, opts.seed));
        let timed = time_cell_with(
            &trace,
            Arc::new(Hawk::new(GOOGLE_SHORT_PARTITION).rack_first_stealing()),
            SHARDED_RACK_NODES,
            opts.repeats,
            SHARDED_SHARDS,
            DynamicsScript::none(),
            SpeedSpec::Uniform,
            Some(TopologySpec::FatTree(FatTreeParams::default())),
        );
        let cell = sharded_cell("hawk-sharded-rack", SHARDED_RACK_NODES, jobs, &timed);
        cells.push(cell);
    }

    // The serving-mode cell: the 5k Hawk workload with 60 s live windows,
    // surfacing the windowed metrics (arrival rate, backlog, occupancy,
    // per-window streaming percentiles) next to the timings. Live
    // sampling adds periodic events, so the row carries no frozen floor —
    // it is reported and cross-checked, never floor-compared against the
    // classic cells.
    {
        let trace = Arc::new(trace_for(CHURN_NODES, jobs, opts.seed));
        let cell = Experiment::builder()
            .trace(&trace)
            .scheduler_shared(Arc::new(Hawk::new(GOOGLE_SHORT_PARTITION)) as Arc<dyn Scheduler>)
            .nodes(CHURN_NODES)
            .live_window(SimDuration::from_secs(60))
            .build();
        let timed = time_experiment(&cell, opts.repeats);
        let (wall_s, report) = (timed.wall_s, &timed.report);
        let cell = CellTiming::new("hawk-live", CHURN_NODES, jobs, &timed);
        let live = report.live.as_ref().expect("live_window was set");
        let last = live.windows.last().expect("the run closed no windows");
        eprintln!(
            "  hawk-live x {CHURN_NODES:>6} nodes: {wall_s:8.3} s  \
             ({:.2e} events/s; last 60 s window: \
             {:.1} arrivals/s, backlog {}, occupancy {:.2}, short p90 {}; {})",
            cell.events_per_sec,
            live.arrival_rate(last),
            last.backlog,
            last.occupancy,
            last.short
                .p90
                .map(|p| format!("{p:.2}s"))
                .unwrap_or_else(|| "-".to_string()),
            cell.memory()
        );
        cells.push(cell);
    }

    // The memory rows: one run each (memory does not vary run to run) of
    // the same ~90 %-load Hawk workload at 100k and 1M nodes, on the
    // single-stream driver and on 8 shards of the flat network.
    let mut memory_cells: Vec<CellTiming> = Vec::new();
    for nodes in MEMORY_NODE_CELLS {
        let trace = Arc::new(trace_for(nodes, jobs, opts.seed));
        for shards in MEMORY_SHARD_CELLS {
            let timed = time_cell_with(
                &trace,
                Arc::new(Hawk::new(GOOGLE_SHORT_PARTITION)),
                nodes,
                1,
                shards,
                DynamicsScript::none(),
                SpeedSpec::Uniform,
                None,
            );
            let cell = CellTiming::new("hawk-memory", nodes, jobs, &timed);
            eprintln!(
                "  hawk-memory x {nodes:>7} nodes, {shards} shard(s): {:8.3} s  ({})",
                timed.wall_s,
                cell.memory()
            );
            memory_cells.push(cell);
        }
    }

    for c in &mut cells {
        c.floor = floor_events_per_sec(&c.scheduler, c.nodes);
        c.vs_floor = c.floor.map(|f| c.events_per_sec / f);
    }

    // The prototype rows: the same workload shape at 1k workers through
    // the daemons on the virtual router, on a hostile and a clean network.
    let proto_cells = {
        let trace = trace_for(PROTO_NODES, jobs, opts.seed);
        let mut chaos = time_proto(
            "proto-chaos",
            &trace,
            proto_chaos_faults(),
            opts.seed,
            opts.repeats,
        );
        let mut clean = time_proto(
            "proto-clean",
            &trace,
            FaultSpec::none(),
            opts.seed,
            opts.repeats,
        );
        chaos.fault_overhead = Some(chaos.wall_s / clean.wall_s);
        for row in [&mut chaos, &mut clean] {
            row.floor = floor_messages_per_sec(row.name);
        }
        [chaos, clean]
    };

    // The folded-in criterion micro-benches, best of ten ~5 ms samples.
    let micro_cells: Vec<MicroTiming> = hawk_bench::micro::event_queue_cases()
        .into_iter()
        .chain(hawk_bench::micro::steal_scan_cases())
        .map(time_micro)
        .collect();

    let json = render_json(
        &opts,
        jobs,
        nproc,
        comparable,
        [("cells", &cells), ("memory_cells", &memory_cells)],
        &proto_cells,
        &micro_cells,
    );
    std::fs::write(&opts.out, &json).unwrap_or_else(|e| {
        eprintln!("perf_baseline: cannot write {}: {e}", opts.out);
        std::process::exit(1);
    });
    eprintln!("wrote {}", opts.out);

    if !check_floors(comparable, &cells, &proto_cells) {
        std::process::exit(1);
    }
}

/// Enforce the per-cell floors on comparable runs. Returns `false` (and
/// reports every offender) if any cell ran below `FLOOR_FRACTION` of its
/// frozen floor; smoke and custom-parameter runs always pass.
fn check_floors(comparable: bool, cells: &[CellTiming], proto_cells: &[ProtoTiming]) -> bool {
    if !comparable {
        return true;
    }
    let mut ok = true;
    for c in proto_cells {
        if let (Some(floor), Some(ratio)) = (c.floor, c.vs_floor()) {
            if ratio < FLOOR_FRACTION {
                ok = false;
                eprintln!(
                    "perf_baseline: FLOOR VIOLATION: {} ran at {:.2e} messages/s, below \
                     {FLOOR_FRACTION} x the frozen floor {floor:.2e} (ratio {ratio:.3})",
                    c.name, c.messages_per_sec
                );
            }
        }
    }
    for c in cells {
        if let (Some(floor), Some(ratio)) = (c.floor, c.vs_floor) {
            if ratio < FLOOR_FRACTION {
                ok = false;
                eprintln!(
                    "perf_baseline: FLOOR VIOLATION: {}/{} ran at {:.2e} events/s, below \
                     {FLOOR_FRACTION} x the frozen floor {floor:.2e} (ratio {ratio:.3})",
                    c.scheduler, c.nodes, c.events_per_sec
                );
            }
        }
    }
    if !ok {
        eprintln!(
            "perf_baseline: throughput floor violated — investigate the regression (or \
             re-freeze the floors deliberately if the slowdown is an accepted trade)"
        );
    }
    ok
}

fn render_json(
    opts: &Opts,
    jobs: usize,
    nproc: usize,
    comparable: bool,
    sim_cells: [(&str, &[CellTiming]); 2],
    proto_cells: &[ProtoTiming],
    micro_cells: &[MicroTiming],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"benchmark\": \"perf_baseline\",\n");
    out.push_str("  \"schema_version\": 9,\n");
    let _ = writeln!(out, "  \"smoke\": {},", opts.smoke);
    let _ = writeln!(out, "  \"jobs\": {jobs},");
    let _ = writeln!(out, "  \"seed\": {},", opts.seed);
    let _ = writeln!(out, "  \"best_of\": {},", opts.repeats);
    let _ = writeln!(out, "  \"nproc\": {nproc},");
    let _ = writeln!(out, "  \"floor_fraction\": {FLOOR_FRACTION},");
    let _ = writeln!(
        out,
        "  \"floors_enforced\": {},",
        comparable && sim_cells[0].1.iter().any(|c| c.floor.is_some())
    );
    // The memory rows are rows like any other, in an array of their own.
    for (key, cells) in sim_cells {
        let _ = writeln!(out, "  \"{key}\": [");
        render_cells(&mut out, cells);
        out.push_str("  ],\n");
    }

    out.push_str("  \"proto_cells\": [\n");
    for (i, c) in proto_cells.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"scheduler\": \"{}\", \"nodes\": {PROTO_NODES}, \"jobs\": {}, \
             \"wall_s\": {:.4}, \"messages\": {}, \"messages_per_sec\": {:.1}, \
             \"ns_per_message\": {:.1}, \"fault_overhead\": {}, \
             \"stale_timer_share\": {:.4}, \"floor_messages_per_sec\": {}, \"vs_floor\": {}}}",
            c.name,
            c.jobs,
            c.wall_s,
            c.messages,
            c.messages_per_sec,
            1e9 / c.messages_per_sec,
            opt(c.fault_overhead, 3),
            c.stale_timer_share,
            opt(c.floor, 1),
            opt(c.vs_floor(), 3)
        );
        out.push_str(if i + 1 < proto_cells.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ],\n");
    out.push_str("  \"micro_cells\": [\n");
    for (i, c) in micro_cells.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"bench\": \"{}\", \"case\": \"{}\", \"elements\": {}, \
             \"ns_per_element\": {:.2}}}",
            c.bench, c.name, c.elements, c.ns_per_element
        );
        out.push_str(if i + 1 < micro_cells.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// An optional number as JSON: `digits` decimals, or `null`.
fn opt(value: Option<f64>, digits: usize) -> String {
    value.map_or_else(|| "null".to_string(), |v| format!("{v:.digits$}"))
}

/// Renders simulator rows (`cells`, `memory_cells`) as JSON objects, one
/// per line.
fn render_cells(out: &mut String, cells: &[CellTiming]) {
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"scheduler\": \"{}\", \"nodes\": {}, \"jobs\": {}, \"shards\": {}, \
             \"wall_s\": {:.4}, \"events\": {}, \"events_per_sec\": {:.1}, \
             \"steals\": {}, \"steal_attempts\": {}, \"steal_scans\": {}, \
             \"scans_per_attempt\": {}, \
             \"floor_events_per_sec\": {}, \"vs_floor\": {}, \
             \"streaming_max_rel_err\": {:.3e}, \"peak_heap_mib\": {:.2}, \"allocs\": {}, \
             \"queue_nodes_high_water\": {}, \"queue_arena_growths\": {}, \
             \"pending_events_high_water\": {}, \"event_arena_growths\": {}",
            c.scheduler,
            c.nodes,
            c.jobs,
            c.shards,
            c.wall_s,
            c.events,
            c.events_per_sec,
            c.steals,
            c.steal_attempts,
            c.steal_scans,
            opt(c.scans_per_attempt(), 3),
            opt(c.floor, 1),
            opt(c.vs_floor, 3),
            c.streaming_max_rel_err,
            c.peak_heap_mib,
            c.allocs,
            c.arenas[0],
            c.arenas[1],
            c.arenas[2],
            c.arenas[3]
        );
        if let Some(stats) = &c.sharded {
            // Against the single-stream row of the same workload, where the
            // array has one (`hawk` for `hawk-sharded`, the 1-shard memory
            // row): the unit the sharded harness is judged in.
            let twin = c.scheduler.strip_suffix("-sharded").unwrap_or(&c.scheduler);
            let single = cells
                .iter()
                .find(|s| s.shards == 1 && s.nodes == c.nodes && s.scheduler == twin);
            let _ = write!(
                out,
                ", \"epochs\": {}, \"merge_envelopes\": {}, \"wall_vs_single\": {}",
                stats.epochs,
                stats.merge_envelopes,
                opt(single.map(|s| c.wall_s / s.wall_s), 3)
            );
        }
        if let Some(rate) = c.rack_local_steal_rate {
            let _ = write!(out, ", \"rack_local_steal_rate\": {rate:.4}");
        }
        out.push('}');
        out.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
}
