//! How a cell is described and checked.
//!
//! Every evaluation cell in the paper is a `(trace, scheduler, cluster
//! size)` triple plus the classification cutoff. The scheduler is an
//! `Arc<dyn Scheduler>` that routes each job class by a [`Route`] over a
//! [`Scope`]; everything else is one [`SimConfig`], which every backend
//! reads. [`check_cell`] is the one legality check of a scheduler on a
//! cell: the [`Driver`](crate::Driver), the
//! [`ShardedDriver`](crate::ShardedDriver) and `hawk-proto`'s runtimes all
//! call it, so they refuse the same cells with the same message.
//! [`SimConfig::admission`] is the one field only the simulator honours:
//! the prototype backend refuses it.

use crate::admission::AdmissionPolicy;
use crate::scheduler::Scheduler;
use hawk_cluster::Partition;
use hawk_net::TopologySpec;
use hawk_simcore::SimDuration;
use hawk_workload::classify::{Cutoff, MisestimateRange};
use hawk_workload::scenario::{DynamicsScript, SpeedSpec};
use hawk_workload::JobClass;
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

/// The policy-independent parameters of one simulation run: cluster size,
/// classification/estimation settings, network topology and seed — everything
/// an experiment cell needs besides the scheduler and the trace.
#[derive(Debug, Clone, Serialize)]
pub struct SimConfig {
    /// Cluster size in servers.
    pub nodes: usize,
    /// Short/long cutoff on estimated task runtime (§3.3).
    pub cutoff: Cutoff,
    /// Estimation error model (§4.8); `None` for exact estimates.
    pub misestimate: Option<MisestimateRange>,
    /// The network topology every message is priced on. The default,
    /// [`TopologySpec::paper_default`], is the paper's flat 0.5 ms network
    /// (§4.1); a fat tree (optionally contended) makes delays depend on
    /// where the two endpoints sit.
    pub topology: TopologySpec,
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
    /// [`AdmissionPlan`](crate::AdmissionPlan). The simulator only: the
    /// prototype backend refuses it.
    pub admission: Option<AdmissionPolicy>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            nodes: 1_500,
            cutoff: Cutoff::GOOGLE_DEFAULT,
            misestimate: None,
            topology: TopologySpec::paper_default(),
            util_interval: SimDuration::from_secs(100),
            dynamics: DynamicsScript::none(),
            speeds: SpeedSpec::Uniform,
            seed: DEFAULT_SEED,
            shards: 1,
            admission: None,
        }
    }
}

impl SimConfig {
    /// [`SimConfig::topology`]. Kept only because the frozen benchmark
    /// (`hawkbench/layers.rs`) calls it.
    #[doc(hidden)]
    pub fn topology_spec(&self) -> TopologySpec {
        self.topology
    }
}

/// Checks that `scheduler` can run on a cell of `nodes` servers that
/// replays `dynamics` and samples utilization every `util_interval`, and
/// returns the size
/// of the central scheduler's scope (servers `0..len`), or `None` when no
/// route is central. Every harness calls it once, before it builds
/// anything.
///
/// # Panics
///
/// Panics when the dynamics script touches a server outside the cluster,
/// `util_interval` is zero (the sampler would re-arm at the same instant
/// forever), a route targets the short partition but none is
/// reserved, the two central routes name different scopes or the short
/// partition, or the central scope is empty.
pub fn check_cell(
    scheduler: &dyn Scheduler,
    nodes: usize,
    dynamics: &DynamicsScript,
    util_interval: SimDuration,
) -> Option<usize> {
    if let Some(max) = dynamics.max_server() {
        assert!(
            (max as usize) < nodes,
            "dynamics script touches server {max} but the cluster has {nodes} servers"
        );
    }
    assert!(!util_interval.is_zero(), "util_interval must be positive");
    let partition = Partition::new(nodes, scheduler.short_partition_fraction());
    let routes = [JobClass::Long, JobClass::Short].map(|class| scheduler.route(class));
    for route in routes {
        if let Route::Distributed(Scope::ShortReserved) | Route::Central(Scope::ShortReserved) =
            route
        {
            assert!(
                partition.short_count() > 0,
                "route targets the short partition but none is reserved"
            );
        }
    }
    let central = match routes {
        [Route::Central(a), Route::Central(b)] => {
            assert!(a == b, "central routes must share a scope");
            Some(a)
        }
        [Route::Central(scope), _] | [_, Route::Central(scope)] => Some(scope),
        _ => None,
    };
    central.map(|scope| {
        let len = match scope {
            Scope::Whole => partition.total(),
            Scope::General => partition.general_count(),
            Scope::ShortReserved => panic!("central routes never target the short partition"),
        };
        assert!(len > 0, "centralized route over an empty scope");
        len
    })
}

/// Default experiment seed; an arbitrary constant so runs are reproducible.
pub const DEFAULT_SEED: u64 = 0x4a77_2015;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{Centralized, Hawk, Sparrow, SplitCluster};

    /// The central scope [`check_cell`] finds for `scheduler` on a static
    /// 100-server cell.
    fn central_scope(scheduler: &dyn Scheduler) -> Option<usize> {
        let interval = SimDuration::from_secs(100);
        check_cell(scheduler, 100, &DynamicsScript::none(), interval)
    }

    #[test]
    fn hawk_defaults_match_paper() {
        // Long jobs are placed centrally on the general partition: the 83
        // servers a 17 % reservation leaves.
        assert_eq!(central_scope(&Hawk::new(0.17)), Some(83));
        assert_eq!(central_scope(&Hawk::new(0.17).without_centralized()), None);
    }

    #[test]
    fn sparrow_is_fully_distributed() {
        assert_eq!(central_scope(&Sparrow::new()), None);
    }

    #[test]
    fn centralized_is_fully_central() {
        // Both classes share one central scope, the whole cluster.
        assert_eq!(central_scope(&Centralized::new()), Some(100));
    }

    #[test]
    fn split_cluster_confines_shorts() {
        // Shorts probe only the reserved partition, so the central scope
        // of the long jobs stops where it starts.
        assert_eq!(central_scope(&SplitCluster::new(0.17)), Some(83));
    }
}
