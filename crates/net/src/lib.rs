//! Topology-aware network layer.
//!
//! The paper's simulator charges a flat 0.5 ms for every message — probes,
//! bind requests, task placements, bounces — and makes steal transfers free
//! (§4.1). That constant lives in [`hawk_cluster::NetworkModel`]. This crate
//! generalizes it behind one seam, the [`Topology`] trait: *message delay as
//! a function of where the two endpoints sit in the fabric and how loaded
//! the links between them currently are*.
//!
//! Three implementations ship:
//!
//! * [`Constant`] — wraps a [`NetworkModel`] and returns its one-way delay
//!   for every endpoint pair. Bit-identical to the pre-topology engine;
//!   the golden-digest suites pin that equivalence.
//! * [`FatTree`] — a k-ary fat-tree with rack/pod placement derived
//!   deterministically from [`ServerId`] (`rack = id / hosts_per_rack`,
//!   `pod = rack / racks_per_pod`). Delay depends on the link class the
//!   path crosses (rack-local, cross-rack, cross-pod) plus per-link
//!   transmission time, with rack uplinks slowed by the configured
//!   oversubscription factor — but links never queue.
//! * [`FatTreeContended`] — the same geometry with per-link FIFO
//!   contention: each link keeps a busy-until horizon and every message
//!   serializes behind the previous one, so probe storms and steal bursts
//!   queue behind each other. At zero load it degenerates to [`FatTree`];
//!   it allocates nothing after construction.
//!
//! Both simulation backends (the discrete-event driver in `hawk-core` and
//! the prototype's virtual-clock router in `hawk-proto`) route every
//! message delay through this trait, so sim↔proto conformance extends to
//! topologies. (On a [`Constant`] cell the single-stream driver prices a
//! job's probes or central placement as one one-way delay, and on a
//! static one a bind round trip as two, instead of asking per message.)
//! Experiments select a model with [`TopologySpec`], which is plain config
//! data (`Copy`, serializable) and builds the boxed model at run start.
//!
//! Determinism rules: a topology's delay may depend only on its own
//! construction parameters, the query arguments, and the order of previous
//! queries — never on wall-clock time, addresses, or iteration order of
//! anything unordered. The event loops of both backends query it in a
//! deterministic order, which makes contended runs reproducible and
//! digest-pinnable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod constant;
mod fat_tree;

pub use constant::Constant;
pub use fat_tree::{FatTree, FatTreeContended, FatTreeParams};

/// Rack/pod placement divisors of a placement-aware topology, exposed so
/// schedulers (rack-first victim picking) and the sharded driver
/// (rack-aligned partitioning) can reason about the fabric without holding
/// the built [`Topology`].
///
/// Placement follows the fat-tree rule: `rack = host / hosts_per_rack`,
/// `pod = rack / racks_per_pod`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RackGeometry {
    /// Hosts per rack (placement divisor, ≥ 1).
    pub hosts_per_rack: usize,
    /// Racks per pod (placement divisor, ≥ 1).
    pub racks_per_pod: usize,
}

impl RackGeometry {
    /// The rack a host sits in.
    pub fn rack_of(&self, host: usize) -> usize {
        host / self.hosts_per_rack.max(1)
    }
}

use hawk_cluster::{NetworkModel, ServerId};
use hawk_simcore::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// One end of a message: a server, a distributed scheduler front-end, or
/// the centralized scheduler.
///
/// Servers have a real position in the fabric (host → rack → pod, derived
/// from the dense [`ServerId`]). Scheduler front-ends are stateless probes'
/// origin points; a fat-tree co-locates scheduler `s` with host
/// `s % nodes`, modeling the paper's deployment where distributed
/// schedulers run on cluster nodes. The centralized scheduler is co-located
/// with host 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Endpoint {
    /// A cluster server (worker node).
    Server(ServerId),
    /// A distributed scheduler front-end (in the simulator: the job's
    /// scheduler, identified by job id; in the prototype: the daemon
    /// index).
    Scheduler(u32),
    /// The centralized long-job scheduler.
    Central,
}

impl Endpoint {
    /// The host index this endpoint is co-located with, in a cluster of
    /// `nodes` hosts.
    pub fn host(self, nodes: usize) -> usize {
        let nodes = nodes.max(1);
        match self {
            Endpoint::Server(id) => (id.0 as usize).min(nodes - 1),
            Endpoint::Scheduler(s) => s as usize % nodes,
            Endpoint::Central => 0,
        }
    }
}

/// Message and steal-locality counters accumulated by a topology.
///
/// Placement-aware models classify every delay query by the link class the
/// path crosses; [`Constant`] has no placement and leaves every counter at
/// zero. These counters feed `MetricsReport::network` and are **not** part
/// of the golden digests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetworkStats {
    /// Messages whose endpoints share a rack (including same-host).
    pub rack_local_msgs: u64,
    /// Messages crossing racks within one pod.
    pub cross_rack_msgs: u64,
    /// Messages crossing pods.
    pub cross_pod_msgs: u64,
    /// Steal transfers whose victim and thief share a rack.
    pub rack_local_steals: u64,
    /// Total steal transfers routed through the topology.
    pub steal_transfers: u64,
}

impl NetworkStats {
    /// Total classified messages.
    pub fn total_msgs(&self) -> u64 {
        self.rack_local_msgs + self.cross_rack_msgs + self.cross_pod_msgs
    }

    /// Fraction of steal transfers that stayed rack-local, or `None` if no
    /// steals were routed.
    pub fn rack_local_steal_rate(&self) -> Option<f64> {
        if self.steal_transfers == 0 {
            None
        } else {
            Some(self.rack_local_steals as f64 / self.steal_transfers as f64)
        }
    }
}

/// A pluggable network model: message delay as a function of endpoint
/// placement and current link load.
///
/// Implementations take `&mut self` because contended models mutate link
/// state on every query; querying a delay *commits* the message to the
/// fabric. Callers must therefore ask exactly once per message sent, in
/// the deterministic order of the event loop.
pub trait Topology: Send + std::fmt::Debug {
    /// Delay for one message sent at `now` from `src` to `dst`.
    fn delay(&mut self, now: SimTime, src: Endpoint, dst: Endpoint) -> SimDuration;

    /// Delay for moving stolen queue entries from `victim` to `thief`,
    /// also recording steal-locality statistics.
    ///
    /// The paper makes this free ("the task stealing \[does\] not incur
    /// additional costs", §4.1) and every model defaults to zero transfer
    /// cost unless configured otherwise.
    fn steal_transfer(&mut self, now: SimTime, victim: Endpoint, thief: Endpoint) -> SimDuration;

    /// Counters accumulated so far.
    fn stats(&self) -> NetworkStats;
}

/// Serializable topology selector: plain config data that builds a boxed
/// [`Topology`] at run start.
///
/// `Constant` is the default and reproduces the paper's flat network
/// exactly; the fat-tree variants share [`FatTreeParams`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TopologySpec {
    /// Flat constant-delay network ([`Constant`]).
    Constant(NetworkModel),
    /// Placement-aware fat-tree without link queueing ([`FatTree`]).
    FatTree(FatTreeParams),
    /// Fat-tree with per-link FIFO contention ([`FatTreeContended`]).
    FatTreeContended(FatTreeParams),
}

impl TopologySpec {
    /// The paper's configuration: constant 0.5 ms messages, free stealing.
    pub fn paper_default() -> Self {
        TopologySpec::Constant(NetworkModel::paper_default())
    }

    /// The rack/pod placement divisors of this spec, or `None` for models
    /// without placement ([`Constant`]).
    pub fn rack_geometry(&self) -> Option<RackGeometry> {
        match *self {
            TopologySpec::Constant(_) => None,
            TopologySpec::FatTree(params) | TopologySpec::FatTreeContended(params) => {
                Some(RackGeometry {
                    hosts_per_rack: params.hosts_per_rack.max(1),
                    racks_per_pod: params.racks_per_pod.max(1),
                })
            }
        }
    }

    /// Builds the runtime model for a cluster of `nodes` hosts.
    pub fn build(&self, nodes: usize) -> Box<dyn Topology> {
        match *self {
            TopologySpec::Constant(model) => Box::new(Constant::new(model)),
            TopologySpec::FatTree(params) => Box::new(FatTree::new(params, nodes)),
            TopologySpec::FatTreeContended(params) => {
                Box::new(FatTreeContended::new(params, nodes))
            }
        }
    }
}

impl Default for TopologySpec {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_host_mapping() {
        assert_eq!(Endpoint::Server(ServerId(7)).host(100), 7);
        assert_eq!(Endpoint::Scheduler(105).host(100), 5);
        assert_eq!(Endpoint::Central.host(100), 0);
        // Out-of-range servers clamp rather than panic.
        assert_eq!(Endpoint::Server(ServerId(500)).host(100), 99);
    }

    #[test]
    fn spec_default_is_paper_constant() {
        assert_eq!(
            TopologySpec::default(),
            TopologySpec::Constant(NetworkModel::paper_default())
        );
    }

    #[test]
    fn spec_builds_each_variant() {
        let nodes = 64;
        let constant = TopologySpec::Constant(NetworkModel::paper_default()).build(nodes);
        let flat = TopologySpec::FatTree(FatTreeParams::default()).build(nodes);
        let contended = TopologySpec::FatTreeContended(FatTreeParams::default()).build(nodes);
        for mut t in [constant, flat, contended] {
            let d = t.delay(
                SimTime::ZERO,
                Endpoint::Server(ServerId(0)),
                Endpoint::Server(ServerId(1)),
            );
            assert!(d > SimDuration::ZERO);
        }
    }

    #[test]
    fn stats_helpers() {
        let stats = NetworkStats {
            rack_local_msgs: 3,
            cross_rack_msgs: 2,
            cross_pod_msgs: 1,
            rack_local_steals: 1,
            steal_transfers: 4,
        };
        assert_eq!(stats.total_msgs(), 6);
        assert_eq!(stats.rack_local_steal_rate(), Some(0.25));
        assert_eq!(NetworkStats::default().rack_local_steal_rate(), None);
    }
}
