//! The five benchmark cells: how each is built from a seed, run once, and
//! checked.
//!
//! Every workload is a *batch* cell: the trace's own arrival timestamps
//! drive an open loop in simulated time, and the host runs the cell as fast
//! as it can. Node counts and policies are part of each workload's
//! definition; only the job counts were tuned, so one cell takes 2–3 s on
//! the 2-core box the benchmark was defined on (see the README).
//!
//! As in the paper, whose evaluation replays one fixed Google trace, each
//! workload's job trace is pinned ([`TRACE_SEED`]); the run's `--seed` is
//! `SimConfig::seed`, which draws every random choice the system under test
//! makes: probe targets, steal victims, and the prototype network's drops,
//! duplicates and jitter. A seed that also redrew the trace moved the
//! simulated percentiles by 10–60 % (Sparrow at ~90 % load sits on the
//! queueing knee), which no bound could then resolve; redrawing only the
//! system's dice moves them by about 1 %.

use std::sync::Arc;

use hawk_core::scheduler::{Hawk, Scheduler, Sparrow};
use hawk_core::{
    AdmissionPolicy, Experiment, FatTreeParams, MetricsReport, SimConfig, TopologySpec,
};
use hawk_proto::{run_prototype, FaultSpec, ProtoBackend, ProtoConfig};
use hawk_simcore::stats::{percentile_of_sorted, StreamingQuantiles};
use hawk_simcore::{SimDuration, SimTime};
use hawk_workload::google::{GoogleTraceConfig, GOOGLE_SHORT_PARTITION};
use hawk_workload::scenario::{ArrivalSpec, DynamicsScript, ScenarioSpec, SpeedSpec, TraceFamily};
use hawk_workload::{JobClass, Trace};

use crate::stats::Fnv1a;

/// Which cell a [`Workload`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    HawkFlat,
    SparrowFlat,
    HawkSharded,
    HawkServing,
    ProtoChaos,
}

/// One named benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    pub nodes: usize,
    /// Jobs in the comparable cell (sized for a 2–3 s cell).
    pub jobs: usize,
    /// Jobs under `--quick` (the whole workload under 2 s; not comparable).
    pub quick_jobs: usize,
    /// OS threads the cell computes on. Never more than the machine has:
    /// `main` refuses to run a workload whose count exceeds `nproc`.
    pub threads: usize,
}

/// The workloads, in the order they run. The names are the contract later
/// changes claim gains against.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "hawk_flat_15k",
        why: "Paper Fig. 5 headline cell: central placement, probing, late binding and \
              stealing all active on the single-stream driver; flat constant network.",
        kind: Kind::HawkFlat,
        nodes: 15_000,
        jobs: 80_000,
        quick_jobs: 4_000,
        threads: 1,
    },
    Workload {
        name: "sparrow_flat_15k",
        why: "Same trace, cluster and driver used differently: all-probe placement, more \
              events per task, no central scheduler, no steals; must stay flat under a \
              steal or central change.",
        kind: Kind::SparrowFlat,
        nodes: 15_000,
        jobs: 80_000,
        quick_jobs: 4_000,
        threads: 1,
    },
    Workload {
        name: "hawk_sharded_50k",
        why: "The only cell through ShardedDriver: 4 rack-aligned shards on a fat tree, 2 \
              workers; epoch scheduling, k-way merge and shadow clusters do the work.",
        kind: Kind::HawkSharded,
        nodes: 50_000,
        jobs: 15_000,
        quick_jobs: 1_000,
        threads: 2,
    },
    Workload {
        name: "hawk_serving_5k",
        why: "The only cell in overload: contended fat tree, rolling churn, two-tier speeds, \
              admission plan and live windows; any per-event hook pays here first.",
        kind: Kind::HawkServing,
        nodes: 5_000,
        jobs: 80_000,
        quick_jobs: 4_000,
        threads: 1,
    },
    Workload {
        name: "proto_chaos_1k",
        why: "The only cell through hawk-proto: daemons on the virtual router under drops, \
              dups, jitter and a 1000 s partition; the simulator driver is bypassed.",
        kind: Kind::ProtoChaos,
        nodes: 1_000,
        jobs: 18_000,
        quick_jobs: 1_000,
        threads: 1,
    },
];

/// Seed of every workload's job trace: the workload, not the run, owns it.
pub const TRACE_SEED: u64 = hawk_core::DEFAULT_SEED;

/// Looks a workload up by its contract name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `with_scale(1)` calibrates ~90 % load at this cluster size.
const ANCHOR_NODES: usize = 15_000;

/// Shards and workers of the sharded cell. Two workers is the machine's
/// core count where the benchmark was defined; the report is byte-identical
/// for any worker count.
pub const SHARDS: usize = 4;
pub const SHARD_WORKERS: usize = 2;

/// Calm-phase mean inter-arrival and plateau multiplier of the serving
/// cell: the plateau offers ~2.7x the usable capacity of 5,000 two-tier
/// nodes, so the backlog grows and the admission gate engages.
pub const SERVING_CALM_MEAN: SimDuration = SimDuration::from_micros(4_400_000);
pub const SERVING_OVERLOAD: f64 = 3.0;

/// Workers with no co-hosted scheduler daemon, islanded for 1,000 s.
fn proto_island() -> Vec<u32> {
    (40..50).collect()
}

/// ~90 %-load Google-like configuration for `nodes` servers (the trace of
/// `perf_baseline`'s cells: sizes beyond the anchor scale the mean
/// inter-arrival by `anchor / nodes`).
pub fn google_config(nodes: usize, jobs: usize) -> GoogleTraceConfig {
    let anchor = GoogleTraceConfig::with_scale(1, jobs);
    if nodes == ANCHOR_NODES {
        return anchor;
    }
    let ratio = ANCHOR_NODES as f64 / nodes as f64;
    GoogleTraceConfig {
        mean_interarrival: SimDuration::from_secs_f64(
            anchor.mean_interarrival.as_secs_f64() * ratio,
        ),
        ..anchor
    }
}

/// The serving cell's scenario: rolling failures (one of 50 spread-out
/// servers down for 30 s every 60 s from t = 500 s) on a two-tier cluster
/// with 20 % of servers at half speed, under a saturation ramp.
pub fn serving_scenario(jobs: usize) -> ScenarioSpec {
    let servers: Vec<u32> = (0..50).map(|i| i * 97).collect();
    ScenarioSpec::new(TraceFamily::Google { scale: 3 }, jobs)
        .arrivals(ArrivalSpec::Saturation {
            mean: SERVING_CALM_MEAN,
            overload: SERVING_OVERLOAD,
        })
        .dynamics(DynamicsScript::rolling(
            &servers,
            SimTime::from_secs(500),
            SimDuration::from_secs(60),
            SimDuration::from_secs(30),
            5_000,
        ))
        .speeds(SpeedSpec::TwoTier {
            slow_fraction: 0.2,
            slow_speed: 0.5,
        })
}

pub fn serving_policy() -> AdmissionPolicy {
    AdmissionPolicy {
        window: SimDuration::from_secs(300),
        headroom: 1.0,
        max_defer_windows: 4,
        protect_short: true,
    }
}

pub fn proto_trace(jobs: usize) -> Trace {
    ScenarioSpec::new(TraceFamily::Google { scale: 15 }, jobs).trace(TRACE_SEED)
}

fn hawk() -> Hawk {
    Hawk::new(GOOGLE_SHORT_PARTITION)
}

/// A cell with everything before the timed call done.
pub enum Prepared {
    Sim {
        cell: Experiment,
        workers: usize,
    },
    Proto {
        trace: Arc<Trace>,
        scheduler: Arc<dyn Scheduler>,
        cfg: ProtoConfig,
    },
}

/// Fault-injection counters of a prototype run (not carried by
/// [`MetricsReport`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProtoCounters {
    pub drops: u64,
    pub dups: u64,
    pub retries: u64,
    pub timeouts_fired: u64,
    pub relaunched: u64,
}

impl Workload {
    /// Set-up: trace generation, scenario retiming and cell construction —
    /// everything `setup_s` times. `seed` is `SimConfig::seed`; the trace
    /// is the workload's own.
    pub fn prepare(&self, jobs: usize, seed: u64) -> Prepared {
        let base = Experiment::builder().nodes(self.nodes).seed(seed);
        let sim = |builder: hawk_core::ExperimentBuilder, workers| Prepared::Sim {
            cell: builder.build(),
            workers,
        };
        match self.kind {
            Kind::HawkFlat => sim(
                base.scheduler(hawk())
                    .trace(google_config(self.nodes, jobs).generate(TRACE_SEED)),
                1,
            ),
            Kind::SparrowFlat => sim(
                base.scheduler(Sparrow::new())
                    .trace(google_config(self.nodes, jobs).generate(TRACE_SEED)),
                1,
            ),
            Kind::HawkSharded => sim(
                base.scheduler(hawk().rack_first_stealing())
                    .trace(google_config(self.nodes, jobs).generate(TRACE_SEED))
                    .topology(TopologySpec::FatTree(FatTreeParams::default()))
                    .shards(SHARDS),
                SHARD_WORKERS,
            ),
            Kind::HawkServing => sim(
                base.scheduler(hawk())
                    .scenario(&serving_scenario(jobs), TRACE_SEED)
                    .topology(TopologySpec::FatTreeContended(FatTreeParams::default()))
                    .admission(serving_policy())
                    .live_window(SimDuration::from_secs(60)),
                1,
            ),
            Kind::ProtoChaos => Prepared::Proto {
                trace: Arc::new(proto_trace(jobs)),
                scheduler: Arc::new(hawk()),
                cfg: self.proto_config(seed, proto_faults()),
            },
        }
    }

    /// The prototype configuration of this workload under `faults`.
    pub fn proto_config(&self, seed: u64, faults: FaultSpec) -> ProtoConfig {
        ProtoBackend::deterministic()
            .faults(faults)
            .config_for(&SimConfig {
                nodes: self.nodes,
                seed,
                ..SimConfig::default()
            })
    }
}

/// `FaultSpec::chaos()` plus one 1,000 s partition window.
pub fn proto_faults() -> FaultSpec {
    FaultSpec::chaos().partition(
        SimTime::from_secs(100),
        SimTime::from_secs(1_100),
        proto_island(),
    )
}

impl Prepared {
    pub fn trace(&self) -> &Arc<Trace> {
        match self {
            Prepared::Sim { cell, .. } => cell.trace(),
            Prepared::Proto { trace, .. } => trace,
        }
    }

    /// One full cell call — the thing `cell_wall_s` times: driver or
    /// daemon construction, the run, and the report.
    pub fn run(&self) -> (MetricsReport, Option<ProtoCounters>) {
        match self {
            Prepared::Sim { cell, workers } => (cell.run_with_workers(*workers), None),
            Prepared::Proto {
                trace,
                scheduler,
                cfg,
            } => {
                let report = run_prototype(trace, Arc::clone(scheduler), cfg);
                split_proto(report, scheduler.name(), cfg.workers)
            }
        }
    }
}

/// Separates a prototype report into the shared report shape and the fault
/// counters that shape does not carry.
pub fn split_proto(
    report: hawk_proto::ProtoReport,
    scheduler: String,
    nodes: usize,
) -> (MetricsReport, Option<ProtoCounters>) {
    let counters = ProtoCounters {
        drops: report.drops,
        dups: report.dups,
        retries: report.retries,
        timeouts_fired: report.timeouts_fired,
        relaunched: report.relaunched,
    };
    (report.into_metrics(scheduler, nodes), Some(counters))
}

/// What one repeat's report says, reduced to what the metrics need.
#[derive(Debug, Clone, PartialEq)]
pub struct CellFacts {
    /// Tasks of jobs that ran to completion (shed jobs excluded).
    pub tasks: u64,
    /// Exact percentiles over completed jobs of the true class, simulated
    /// seconds. Shed jobs carry a zero runtime in the report and are left
    /// out, so shedding more cannot read as a faster tail.
    pub short_p50: f64,
    pub short_p90: f64,
    pub long_p90: f64,
    /// FNV-1a over per-job submission/completion, events and steals.
    pub digest: u64,
    /// Jobs of this repeat that failed a check.
    pub failed_jobs: u64,
    /// Invariants the whole repeat violated (empty when clean).
    pub violations: Vec<String>,
}

/// The correctness gate of one repeat. A job fails if it has no result,
/// completes before it was submitted, or is neither completed nor shed;
/// any tripped invariant is listed in `violations` (and the caller fails
/// the whole repeat).
pub fn check_repeat(report: &MetricsReport, trace: &Trace, is_proto: bool) -> CellFacts {
    let mut violations = Vec::new();
    let arrivals = trace.len() as u64;
    let mut failed_jobs = arrivals.saturating_sub(report.results.len() as u64);
    if report.results.len() != trace.len() {
        violations.push(format!(
            "{} results for {} jobs",
            report.results.len(),
            trace.len()
        ));
    }

    let mut digest = Fnv1a::new();
    let mut tasks = 0u64;
    let mut zero_runtime = 0u64;
    let mut short = Vec::new();
    let mut long = Vec::new();
    for r in &report.results {
        digest.eat(r.submission.as_micros());
        digest.eat(r.completion.as_micros());
        if r.completion < r.submission {
            failed_jobs += 1;
            continue;
        }
        if r.completion == r.submission {
            zero_runtime += 1;
            continue;
        }
        tasks += r.num_tasks as u64;
        let runtime = r.runtime().as_secs_f64();
        match r.true_class {
            JobClass::Short => short.push(runtime),
            JobClass::Long => long.push(runtime),
        }
    }
    digest.eat(report.events);
    digest.eat(report.steals);

    // Conservation: every arrival either completed or was shed. A shed job
    // is the only kind with a zero runtime.
    let sheds = report.admission.sheds();
    if zero_runtime != sheds {
        failed_jobs += zero_runtime.abs_diff(sheds);
        violations.push(format!(
            "{zero_runtime} zero-runtime jobs against {sheds} planned sheds"
        ));
    }
    if is_proto && sheds + failed_jobs > 0 {
        violations.push("the prototype did not land every job".to_string());
    }
    if report.max_utilization > 1.0 + 1e-9 {
        violations.push(format!(
            "max utilization {} above 1",
            report.max_utilization
        ));
    }

    short.sort_by(f64::total_cmp);
    long.sort_by(f64::total_cmp);
    let pctl = |sorted: &[f64], p: f64| {
        if sorted.is_empty() {
            f64::NAN
        } else {
            percentile_of_sorted(sorted, p)
        }
    };

    // The streaming sinks absorb exactly the completed (non-shed) jobs, so
    // they must agree with the exact reads over the same population.
    for (class, sorted, summary) in [
        ("short", &short, report.streaming.short),
        ("long", &long, report.streaming.long),
    ] {
        for (p, streamed) in [
            (50.0, summary.p50),
            (90.0, summary.p90),
            (99.0, summary.p99),
        ] {
            let Some(streamed) = streamed else { continue };
            if sorted.is_empty() {
                continue;
            }
            let exact = percentile_of_sorted(sorted, p);
            let rel = (streamed - exact).abs() / exact.abs().max(1e-12);
            if rel > StreamingQuantiles::RELATIVE_ERROR + 1e-9 {
                violations.push(format!(
                    "streaming {class} p{p} = {streamed} drifted {rel:.3e} from exact {exact}"
                ));
            }
        }
    }

    CellFacts {
        tasks,
        short_p50: pctl(&short, 50.0),
        short_p90: pctl(&short, 90.0),
        long_p90: pctl(&long, 90.0),
        digest: digest.finish(),
        failed_jobs,
        violations,
    }
}
