//! Experiment and scheduler configuration.
//!
//! Every evaluation cell in the paper is a `(trace, scheduler, cluster
//! size)` triple plus the classification cutoff. [`SchedulerConfig`]
//! resolves each named scheduler — Hawk (with per-component ablation
//! switches), Sparrow, fully centralized, split cluster — into the routing
//! policy the driver executes.

use crate::admission::AdmissionPolicy;
use hawk_cluster::{NetworkModel, StealGranularity};
use hawk_net::TopologySpec;
use hawk_simcore::SimDuration;
use hawk_workload::classify::{Cutoff, MisestimateRange};
use hawk_workload::scenario::{DynamicsScript, SpeedSpec};
use serde::{Deserialize, Serialize};

/// Which servers a placement may target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scope {
    /// The entire cluster.
    Whole,
    /// The general partition only (long tasks in Hawk, §3.4).
    General,
    /// The reserved short partition only (split-cluster short jobs, §4.6).
    ShortReserved,
}

/// How one job class is scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Route {
    /// Placed by the centralized waiting-time scheduler (§3.7) over the
    /// given scope.
    Central(Scope),
    /// Scheduled by per-job distributed schedulers with batch probing and
    /// late binding (§3.5) over the given scope.
    Distributed(Scope),
}

/// A fully resolved scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SchedulerConfig {
    /// Human-readable name for reports.
    pub name: &'static str,
    /// Fraction of servers reserved for short tasks (§3.4); zero disables
    /// partitioning.
    pub short_partition_fraction: f64,
    /// Probes sent per task by distributed schedulers (paper: 2, §4.1).
    pub probe_ratio: f64,
    /// Maximum random servers an idle node contacts per steal attempt
    /// (paper default: 10, §4.1); `None` disables stealing.
    pub steal_cap: Option<usize>,
    /// What a successful steal takes from the victim (paper: the first
    /// blocked group, Figure 3; alternatives test that design choice).
    pub steal_granularity: StealGranularity,
    /// Maximum times a short probe bounces off a server that holds long
    /// work before queueing anyway (0 = the paper's Hawk: probes always
    /// queue where they land). An extension modeled on Hawk's successor
    /// Eagle, whose node monitors avoid placing short tasks behind long
    /// ones; here the avoidance is discovered by bouncing rather than by
    /// gossiped state, so each bounce costs one extra network hop.
    pub probe_bounce_limit: u8,
    /// How long jobs are scheduled.
    pub long_route: Route,
    /// How short jobs are scheduled.
    pub short_route: Route,
}

impl SchedulerConfig {
    /// Full Hawk (§3): centralized long jobs on the general partition,
    /// distributed short jobs over the whole cluster, stealing enabled.
    pub fn hawk(short_partition_fraction: f64) -> Self {
        SchedulerConfig {
            name: "hawk",
            short_partition_fraction,
            probe_ratio: 2.0,
            steal_cap: Some(10),
            steal_granularity: StealGranularity::FirstBlockedGroup,
            probe_bounce_limit: 0,
            long_route: Route::Central(Scope::General),
            short_route: Route::Distributed(Scope::Whole),
        }
    }

    /// The Sparrow baseline \[14\]: everything distributed over the whole
    /// cluster, probe ratio 2, no partition, no stealing.
    pub fn sparrow() -> Self {
        SchedulerConfig {
            name: "sparrow",
            short_partition_fraction: 0.0,
            probe_ratio: 2.0,
            steal_cap: None,
            steal_granularity: StealGranularity::FirstBlockedGroup,
            probe_bounce_limit: 0,
            long_route: Route::Distributed(Scope::Whole),
            short_route: Route::Distributed(Scope::Whole),
        }
    }

    /// The fully centralized baseline (§4.5): the §3.7 algorithm for every
    /// job over the whole cluster; no partition, no stealing.
    pub fn centralized() -> Self {
        SchedulerConfig {
            name: "centralized",
            short_partition_fraction: 0.0,
            probe_ratio: 2.0,
            steal_cap: None,
            steal_granularity: StealGranularity::FirstBlockedGroup,
            probe_bounce_limit: 0,
            long_route: Route::Central(Scope::Whole),
            short_route: Route::Central(Scope::Whole),
        }
    }

    /// The split-cluster baseline (§4.6): disjoint partitions, centralized
    /// long scheduling, distributed short scheduling confined to the short
    /// partition, no stealing.
    pub fn split_cluster(short_partition_fraction: f64) -> Self {
        SchedulerConfig {
            name: "split-cluster",
            short_partition_fraction,
            probe_ratio: 2.0,
            steal_cap: None,
            steal_granularity: StealGranularity::FirstBlockedGroup,
            probe_bounce_limit: 0,
            long_route: Route::Central(Scope::General),
            short_route: Route::Distributed(Scope::ShortReserved),
        }
    }

    /// True if any route uses the centralized scheduler.
    pub fn uses_central(&self) -> bool {
        matches!(self.long_route, Route::Central(_))
            || matches!(self.short_route, Route::Central(_))
    }
}

/// Processing cost of the centralized scheduler.
///
/// The paper's §1 motivation — "the very large number of scheduling
/// decisions … can overwhelm centralized schedulers" — is not modeled in
/// its simulator ("the scheduling decisions … do not incur additional
/// costs", §4.1). This extension makes the cost explicit: the central
/// scheduler processes jobs serially, spending `per_job + per_task·t`
/// before a job's placements go out; a backlog delays later jobs. With
/// both costs zero (the default) the behaviour is exactly the paper's.
/// See the `ablation_central_latency` bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CentralOverhead {
    /// Fixed per-job decision cost.
    pub per_job: SimDuration,
    /// Additional cost per task placed.
    pub per_task: SimDuration,
}

impl CentralOverhead {
    /// The paper's model: free decisions.
    pub const FREE: CentralOverhead = CentralOverhead {
        per_job: SimDuration::ZERO,
        per_task: SimDuration::ZERO,
    };

    /// Total processing time for a job with `tasks` tasks.
    pub fn cost(&self, tasks: usize) -> SimDuration {
        self.per_job + self.per_task * tasks as u64
    }

    /// True when decisions are free (no serialization modeled).
    pub fn is_free(&self) -> bool {
        self.per_job.is_zero() && self.per_task.is_zero()
    }
}

/// The policy-independent parameters of one simulation run: cluster size,
/// classification/estimation settings, network model and seed — everything
/// an experiment cell needs besides the scheduler and the trace.
#[derive(Debug, Clone, Serialize)]
pub struct SimConfig {
    /// Cluster size in servers.
    pub nodes: usize,
    /// Short/long cutoff on estimated task runtime (§3.3).
    pub cutoff: Cutoff,
    /// Estimation error model (§4.8); `None` for exact estimates.
    pub misestimate: Option<MisestimateRange>,
    /// Network delays.
    pub network: NetworkModel,
    /// Placement-aware network topology. `None` (the default) means the
    /// flat constant-delay network described by `network` — the paper's
    /// §4.1 model — so every pre-topology configuration keeps its exact
    /// behavior. `Some` selects a fat-tree (optionally contended) model
    /// and makes `network` irrelevant except as documentation.
    pub topology: Option<TopologySpec>,
    /// Centralized-scheduler decision cost (default: free, as in the
    /// paper's simulator).
    pub central_overhead: CentralOverhead,
    /// Utilization sampling interval (paper: 100 s).
    pub util_interval: SimDuration,
    /// Scripted cluster dynamics (node down/up events) the driver replays;
    /// empty (the default) is the classic static cluster.
    pub dynamics: DynamicsScript,
    /// Per-server execution-speed profile; [`SpeedSpec::Uniform`] (the
    /// default) is the paper's homogeneous cluster.
    pub speeds: SpeedSpec,
    /// RNG seed for probe placement, stealing and misestimation.
    pub seed: u64,
    /// Number of cluster shards the driver partitions the cell into.
    /// `1` (the default) runs the classic single-stream [`Driver`] and
    /// is byte-identical to every pinned golden digest; `K > 1` runs the
    /// sharded driver, whose results are deterministic for a
    /// fixed `K` but digest-*incompatible* across shard counts (each
    /// shard owns an independent RNG stream).
    ///
    /// [`Driver`]: crate::Driver
    pub shards: usize,
    /// Serving-mode admission control. `None` (the default) disables the
    /// seam entirely — no plan is computed, no arrival is deferred or
    /// shed, and runs are byte-identical to every pinned golden digest.
    /// `Some` applies the precomputed
    /// [`AdmissionPlan`](crate::AdmissionPlan) in every backend.
    pub admission: Option<AdmissionPolicy>,
    /// Live-metrics window length. `None` (the default) disables windowed
    /// sampling — no extra events, no recorder — keeping runs
    /// byte-identical to the classic digests; `Some(W)` fills
    /// [`MetricsReport::live`](crate::MetricsReport) with the last
    /// [`LIVE_RING`](crate::LIVE_RING) closed `W`-long windows.
    pub live_window: Option<SimDuration>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            nodes: 1_500,
            cutoff: Cutoff::GOOGLE_DEFAULT,
            misestimate: None,
            network: NetworkModel::paper_default(),
            topology: None,
            central_overhead: CentralOverhead::FREE,
            util_interval: SimDuration::from_secs(100),
            dynamics: DynamicsScript::none(),
            speeds: SpeedSpec::Uniform,
            seed: DEFAULT_SEED,
            shards: 1,
            admission: None,
            live_window: None,
        }
    }
}

impl SimConfig {
    /// The effective network topology of this configuration: the explicit
    /// spec if one was set, otherwise the flat constant-delay network
    /// built from `network`. Both backends construct their runtime
    /// topology from this single seam.
    pub fn topology_spec(&self) -> TopologySpec {
        self.topology
            .unwrap_or(TopologySpec::Constant(self.network))
    }
}

/// One experiment cell as a plain record: a [`SchedulerConfig`] (which
/// implements [`Scheduler`](crate::Scheduler)) plus the simulation
/// parameters, convertible with [`ExperimentConfig::sim`]. New code
/// describes cells with [`Experiment::builder`](crate::Experiment::builder).
#[derive(Debug, Clone, Serialize)]
pub struct ExperimentConfig {
    /// Cluster size in servers.
    pub nodes: usize,
    /// The scheduling policy.
    pub scheduler: SchedulerConfig,
    /// Short/long cutoff on estimated task runtime (§3.3).
    pub cutoff: Cutoff,
    /// Estimation error model (§4.8); `None` for exact estimates.
    pub misestimate: Option<MisestimateRange>,
    /// Network delays.
    pub network: NetworkModel,
    /// Centralized-scheduler decision cost (default: free, as in the
    /// paper's simulator).
    pub central_overhead: CentralOverhead,
    /// Utilization sampling interval (paper: 100 s).
    pub util_interval: SimDuration,
    /// RNG seed for probe placement, stealing and misestimation.
    pub seed: u64,
}

impl ExperimentConfig {
    /// The policy-independent part of this configuration. Legacy cells
    /// are always static and homogeneous; scenarios use
    /// [`Experiment::builder`](crate::Experiment::builder).
    pub fn sim(&self) -> SimConfig {
        SimConfig {
            nodes: self.nodes,
            cutoff: self.cutoff,
            misestimate: self.misestimate,
            network: self.network,
            topology: None,
            central_overhead: self.central_overhead,
            util_interval: self.util_interval,
            dynamics: DynamicsScript::none(),
            speeds: SpeedSpec::Uniform,
            seed: self.seed,
            shards: 1,
            admission: None,
            live_window: None,
        }
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        let sim = SimConfig::default();
        ExperimentConfig {
            nodes: sim.nodes,
            scheduler: SchedulerConfig::hawk(0.17),
            cutoff: sim.cutoff,
            misestimate: sim.misestimate,
            network: sim.network,
            central_overhead: sim.central_overhead,
            util_interval: sim.util_interval,
            seed: sim.seed,
        }
    }
}

/// Default experiment seed; an arbitrary constant so runs are reproducible.
pub const DEFAULT_SEED: u64 = 0x4a77_2015;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hawk_defaults_match_paper() {
        let h = SchedulerConfig::hawk(0.17);
        assert_eq!(h.probe_ratio, 2.0);
        assert_eq!(h.steal_cap, Some(10));
        assert_eq!(h.long_route, Route::Central(Scope::General));
        assert_eq!(h.short_route, Route::Distributed(Scope::Whole));
        assert!(h.uses_central());
    }

    #[test]
    fn sparrow_is_fully_distributed() {
        let s = SchedulerConfig::sparrow();
        assert_eq!(s.long_route, Route::Distributed(Scope::Whole));
        assert_eq!(s.short_route, Route::Distributed(Scope::Whole));
        assert_eq!(s.steal_cap, None);
        assert_eq!(s.short_partition_fraction, 0.0);
        assert!(!s.uses_central());
    }

    #[test]
    fn centralized_is_fully_central() {
        let c = SchedulerConfig::centralized();
        assert_eq!(c.long_route, Route::Central(Scope::Whole));
        assert_eq!(c.short_route, Route::Central(Scope::Whole));
        assert!(c.uses_central());
    }

    #[test]
    fn split_cluster_confines_shorts() {
        let s = SchedulerConfig::split_cluster(0.17);
        assert_eq!(s.short_route, Route::Distributed(Scope::ShortReserved));
        assert_eq!(s.long_route, Route::Central(Scope::General));
        assert_eq!(s.steal_cap, None);
    }

    #[test]
    fn central_overhead_cost_model() {
        let free = CentralOverhead::FREE;
        assert!(free.is_free());
        assert_eq!(free.cost(1_000), SimDuration::ZERO);

        let o = CentralOverhead {
            per_job: SimDuration::from_millis(2),
            per_task: SimDuration::from_micros(50),
        };
        assert!(!o.is_free());
        assert_eq!(
            o.cost(100),
            SimDuration::from_millis(2) + SimDuration::from_micros(5_000)
        );
    }
}
