//! Fat-tree topologies: placement-aware latency and per-link contention.
//!
//! Placement is derived deterministically from the dense [`ServerId`]:
//! `rack = id / hosts_per_rack`, `pod = rack / racks_per_pod`. Every
//! message path is classified by the highest layer it crosses:
//!
//! * **rack-local** — endpoints share a rack (host uplink + host downlink);
//! * **cross-rack** — same pod, different rack (adds the rack uplink and
//!   downlink);
//! * **cross-pod** — different pods (same four links, but the longer
//!   cross-pod propagation stands in for the core layer).
//!
//! Rack uplinks/downlinks carry the aggregated traffic of a whole rack, so
//! their per-message transmission time is multiplied by the configured
//! oversubscription factor — the fat-tree knob the paper's flat network
//! cannot express.

use hawk_simcore::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::{Endpoint, NetworkStats, Topology};

/// Shared parameters of [`FatTree`] and [`FatTreeContended`].
///
/// The defaults describe a moderately oversubscribed datacenter fabric
/// whose *cross-rack* figure matches the paper's flat 0.5 ms (§4.1), so a
/// fat-tree cell brackets the paper's constant: rack-local messages are
/// cheaper, cross-pod messages dearer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FatTreeParams {
    /// Hosts per rack (placement divisor; default 16).
    pub hosts_per_rack: usize,
    /// Racks per pod (placement divisor; default 8).
    pub racks_per_pod: usize,
    /// Propagation cost of a rack-local message (default 200 µs).
    pub rack_local: SimDuration,
    /// Propagation cost of a cross-rack, same-pod message (default 500 µs).
    pub cross_rack: SimDuration,
    /// Propagation cost of a cross-pod message (default 1 ms).
    pub cross_pod: SimDuration,
    /// Per-link transmission time of one message on a host link
    /// (default 5 µs); rack links charge this times the oversubscription.
    pub msg_tx: SimDuration,
    /// Oversubscription factor of the rack uplinks (default 4.0).
    pub oversubscription: f64,
    /// Cost of moving stolen entries victim→thief (default zero, §4.1).
    pub steal_transfer: SimDuration,
}

impl Default for FatTreeParams {
    fn default() -> Self {
        FatTreeParams {
            hosts_per_rack: 16,
            racks_per_pod: 8,
            rack_local: SimDuration::from_micros(200),
            cross_rack: SimDuration::from_micros(500),
            cross_pod: SimDuration::from_micros(1_000),
            msg_tx: SimDuration::from_micros(5),
            oversubscription: 4.0,
            steal_transfer: SimDuration::ZERO,
        }
    }
}

impl FatTreeParams {
    /// Sets the hosts-per-rack placement divisor.
    pub fn hosts_per_rack(mut self, hosts: usize) -> Self {
        self.hosts_per_rack = hosts.max(1);
        self
    }

    /// Sets the racks-per-pod placement divisor.
    pub fn racks_per_pod(mut self, racks: usize) -> Self {
        self.racks_per_pod = racks.max(1);
        self
    }

    /// Sets the rack-local propagation cost.
    pub fn rack_local(mut self, d: SimDuration) -> Self {
        self.rack_local = d;
        self
    }

    /// Sets the cross-rack propagation cost.
    pub fn cross_rack(mut self, d: SimDuration) -> Self {
        self.cross_rack = d;
        self
    }

    /// Sets the cross-pod propagation cost.
    pub fn cross_pod(mut self, d: SimDuration) -> Self {
        self.cross_pod = d;
        self
    }

    /// Sets the per-link message transmission time.
    pub fn msg_tx(mut self, d: SimDuration) -> Self {
        self.msg_tx = d;
        self
    }

    /// Sets the rack-uplink oversubscription factor (clamped to ≥ 1).
    pub fn oversubscription(mut self, factor: f64) -> Self {
        self.oversubscription = if factor.is_finite() {
            factor.max(1.0)
        } else {
            1.0
        };
        self
    }

    /// Sets the steal-transfer cost.
    pub fn steal_transfer(mut self, d: SimDuration) -> Self {
        self.steal_transfer = d;
        self
    }

    /// Per-message transmission time on an oversubscribed rack link.
    fn rack_tx(&self) -> SimDuration {
        let micros = (self.msg_tx.as_micros() as f64 * self.oversubscription.max(1.0)).round();
        SimDuration::from_micros(micros as u64)
    }
}

/// The link class a path crosses, in ascending cost order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LinkClass {
    SameHost,
    RackLocal,
    CrossRack,
    CrossPod,
}

/// Shared placement geometry of both fat-tree models.
#[derive(Debug, Clone)]
struct Geometry {
    params: FatTreeParams,
    nodes: usize,
    rack_tx: SimDuration,
    stats: NetworkStats,
}

impl Geometry {
    fn new(params: FatTreeParams, nodes: usize) -> Self {
        let params = params
            .hosts_per_rack(params.hosts_per_rack)
            .racks_per_pod(params.racks_per_pod)
            .oversubscription(params.oversubscription);
        Geometry {
            rack_tx: params.rack_tx(),
            params,
            nodes: nodes.max(1),
            stats: NetworkStats::default(),
        }
    }

    fn rack_of(&self, host: usize) -> usize {
        host / self.params.hosts_per_rack
    }

    fn pod_of(&self, rack: usize) -> usize {
        rack / self.params.racks_per_pod
    }

    fn classify(&self, src: Endpoint, dst: Endpoint) -> (usize, usize, LinkClass) {
        let a = src.host(self.nodes);
        let b = dst.host(self.nodes);
        let class = if a == b {
            LinkClass::SameHost
        } else if self.rack_of(a) == self.rack_of(b) {
            LinkClass::RackLocal
        } else if self.pod_of(self.rack_of(a)) == self.pod_of(self.rack_of(b)) {
            LinkClass::CrossRack
        } else {
            LinkClass::CrossPod
        };
        (a, b, class)
    }

    fn record(&mut self, class: LinkClass) {
        match class {
            LinkClass::SameHost | LinkClass::RackLocal => self.stats.rack_local_msgs += 1,
            LinkClass::CrossRack => self.stats.cross_rack_msgs += 1,
            LinkClass::CrossPod => self.stats.cross_pod_msgs += 1,
        }
    }

    fn propagation(&self, class: LinkClass) -> SimDuration {
        match class {
            LinkClass::SameHost | LinkClass::RackLocal => self.params.rack_local,
            LinkClass::CrossRack => self.params.cross_rack,
            LinkClass::CrossPod => self.params.cross_pod,
        }
    }

    /// Uncontended transmission cost: the sum of per-link tx along the
    /// path, which is also the zero-load limit of the contended model.
    fn base_tx(&self, class: LinkClass) -> SimDuration {
        match class {
            LinkClass::SameHost => SimDuration::ZERO,
            LinkClass::RackLocal => self.params.msg_tx * 2,
            LinkClass::CrossRack | LinkClass::CrossPod => self.params.msg_tx * 2 + self.rack_tx * 2,
        }
    }

    fn record_steal(&mut self, victim: Endpoint, thief: Endpoint) -> SimDuration {
        let (a, b, _) = self.classify(victim, thief);
        self.stats.steal_transfers += 1;
        if self.rack_of(a) == self.rack_of(b) {
            self.stats.rack_local_steals += 1;
        }
        self.params.steal_transfer
    }
}

/// Placement-aware fat-tree latency without link queueing.
///
/// Delay is a pure function of the endpoint pair: class propagation plus
/// the uncontended per-link transmission sum. Useful to isolate *where*
/// messages travel from *how congested* the fabric is.
#[derive(Debug, Clone)]
pub struct FatTree {
    geo: Geometry,
}

impl FatTree {
    /// Builds the model for a cluster of `nodes` hosts.
    pub fn new(params: FatTreeParams, nodes: usize) -> Self {
        FatTree {
            geo: Geometry::new(params, nodes),
        }
    }
}

impl Topology for FatTree {
    fn delay(&mut self, _now: SimTime, src: Endpoint, dst: Endpoint) -> SimDuration {
        let (_, _, class) = self.geo.classify(src, dst);
        self.geo.record(class);
        self.geo.propagation(class) + self.geo.base_tx(class)
    }

    fn steal_transfer(&mut self, _now: SimTime, victim: Endpoint, thief: Endpoint) -> SimDuration {
        self.geo.record_steal(victim, thief)
    }

    fn stats(&self) -> NetworkStats {
        self.geo.stats
    }
}

/// Fat-tree with per-link FIFO contention.
///
/// Every host has an uplink and a downlink, every rack an (oversubscribed)
/// uplink and downlink; each link keeps a busy-until horizon in a flat
/// preallocated vector. A message sent at `now` traverses its path link by
/// link: on each link it starts at `max(arrival, busy_until)`, occupies
/// the link for one transmission time, and pushes the horizon forward.
/// Concurrent messages over the same link therefore serialize — a probe
/// storm into one rack queues on that rack's downlink exactly like the
/// incast it models.
///
/// Deterministic (state depends only on the query sequence) and
/// allocation-free after construction.
#[derive(Debug, Clone)]
pub struct FatTreeContended {
    geo: Geometry,
    /// Busy-until horizon per host uplink.
    host_up: Vec<SimTime>,
    /// Busy-until horizon per host downlink.
    host_down: Vec<SimTime>,
    /// Busy-until horizon per rack uplink.
    rack_up: Vec<SimTime>,
    /// Busy-until horizon per rack downlink.
    rack_down: Vec<SimTime>,
}

impl FatTreeContended {
    /// Builds the model for a cluster of `nodes` hosts, preallocating all
    /// link state.
    pub fn new(params: FatTreeParams, nodes: usize) -> Self {
        let geo = Geometry::new(params, nodes);
        let racks = geo.nodes.div_ceil(geo.params.hosts_per_rack).max(1);
        FatTreeContended {
            host_up: vec![SimTime::ZERO; geo.nodes],
            host_down: vec![SimTime::ZERO; geo.nodes],
            rack_up: vec![SimTime::ZERO; racks],
            rack_down: vec![SimTime::ZERO; racks],
            geo,
        }
    }

    /// Serializes one message through `link`: starts no earlier than the
    /// link frees up, holds it for `tx`, returns the departure time.
    fn traverse(link: &mut SimTime, arrival: SimTime, tx: SimDuration) -> SimTime {
        let start = arrival.max(*link);
        *link = start + tx;
        *link
    }
}

impl Topology for FatTreeContended {
    fn delay(&mut self, now: SimTime, src: Endpoint, dst: Endpoint) -> SimDuration {
        let (a, b, class) = self.geo.classify(src, dst);
        self.geo.record(class);
        let tx = self.geo.params.msg_tx;
        let rack_tx = self.geo.rack_tx;
        let mut t = now;
        match class {
            LinkClass::SameHost => {}
            LinkClass::RackLocal => {
                t = Self::traverse(&mut self.host_up[a], t, tx);
                t = Self::traverse(&mut self.host_down[b], t, tx);
            }
            LinkClass::CrossRack | LinkClass::CrossPod => {
                let (ra, rb) = (self.geo.rack_of(a), self.geo.rack_of(b));
                t = Self::traverse(&mut self.host_up[a], t, tx);
                t = Self::traverse(&mut self.rack_up[ra], t, rack_tx);
                t = Self::traverse(&mut self.rack_down[rb], t, rack_tx);
                t = Self::traverse(&mut self.host_down[b], t, tx);
            }
        }
        t.saturating_since(now) + self.geo.propagation(class)
    }

    fn steal_transfer(&mut self, _now: SimTime, victim: Endpoint, thief: Endpoint) -> SimDuration {
        self.geo.record_steal(victim, thief)
    }

    fn stats(&self) -> NetworkStats {
        self.geo.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hawk_cluster::ServerId;

    fn server(id: u32) -> Endpoint {
        Endpoint::Server(ServerId(id))
    }

    /// 4 hosts per rack, 2 racks per pod ⇒ hosts 0–3 rack 0, 4–7 rack 1
    /// (pod 0), 8–11 rack 2 (pod 1).
    fn small() -> FatTreeParams {
        FatTreeParams::default().hosts_per_rack(4).racks_per_pod(2)
    }

    #[test]
    fn placement_classes_order_by_cost() {
        let mut t = FatTree::new(small(), 16);
        let same_host = t.delay(SimTime::ZERO, server(0), server(0));
        let rack_local = t.delay(SimTime::ZERO, server(0), server(1));
        let cross_rack = t.delay(SimTime::ZERO, server(0), server(4));
        let cross_pod = t.delay(SimTime::ZERO, server(0), server(8));
        assert!(same_host < rack_local, "same-host skips the host links");
        assert!(rack_local < cross_rack);
        assert!(cross_rack < cross_pod);
        let stats = t.stats();
        assert_eq!(stats.rack_local_msgs, 2);
        assert_eq!(stats.cross_rack_msgs, 1);
        assert_eq!(stats.cross_pod_msgs, 1);
    }

    #[test]
    fn uncontended_delay_is_time_invariant() {
        let mut t = FatTree::new(small(), 16);
        let early = t.delay(SimTime::ZERO, server(0), server(8));
        let late = t.delay(SimTime::from_secs(10), server(0), server(8));
        assert_eq!(early, late);
    }

    #[test]
    fn contended_zero_load_matches_uncontended() {
        for (src, dst) in [(0, 0), (0, 1), (0, 4), (0, 8)] {
            let mut flat = FatTree::new(small(), 16);
            let mut contended = FatTreeContended::new(small(), 16);
            assert_eq!(
                contended.delay(SimTime::ZERO, server(src), server(dst)),
                flat.delay(SimTime::ZERO, server(src), server(dst)),
                "first message {src}->{dst} sees an idle fabric"
            );
        }
    }

    #[test]
    fn contended_messages_queue_per_link() {
        let mut t = FatTreeContended::new(small(), 16);
        let first = t.delay(SimTime::ZERO, server(0), server(1));
        let second = t.delay(SimTime::ZERO, server(0), server(1));
        // Store-and-forward pipelining: the second message departs one
        // bottleneck transmission behind the first.
        assert_eq!(second, first + small().msg_tx);
        // A disjoint rack is unaffected.
        let other = t.delay(SimTime::ZERO, server(8), server(9));
        assert_eq!(other, first);
    }

    #[test]
    fn contention_drains_over_time() {
        let mut t = FatTreeContended::new(small(), 16);
        let idle = t.delay(SimTime::ZERO, server(0), server(1));
        t.delay(SimTime::ZERO, server(0), server(1));
        // Far in the future the links are long idle again.
        let later = t.delay(SimTime::from_secs(5), server(0), server(1));
        assert_eq!(later, idle);
    }

    #[test]
    fn rack_uplink_is_oversubscribed() {
        let params = small().oversubscription(4.0);
        let mut t = FatTreeContended::new(params, 16);
        let first = t.delay(SimTime::ZERO, server(0), server(4));
        let second = t.delay(SimTime::ZERO, server(0), server(4));
        // The pipeline bottleneck is the oversubscribed rack uplink: the
        // second message departs one rack transmission (4× the host-link
        // tx) behind the first.
        assert_eq!(second, first + params.rack_tx());
        assert_eq!(params.rack_tx(), params.msg_tx * 4);
    }

    #[test]
    fn incast_on_one_downlink_serializes() {
        let mut t = FatTreeContended::new(small(), 16);
        // Four distinct senders in the same rack target one receiver: the
        // receiver's host downlink is the bottleneck.
        let delays: Vec<SimDuration> = (1..4)
            .map(|src| t.delay(SimTime::ZERO, server(src), server(0)))
            .collect();
        assert!(delays.windows(2).all(|w| w[0] < w[1]), "{delays:?}");
    }

    #[test]
    fn contended_is_deterministic() {
        let run = || {
            let mut t = FatTreeContended::new(small(), 16);
            let mut out = Vec::new();
            for i in 0..50u32 {
                let src = server(i % 16);
                let dst = server((i * 7 + 3) % 16);
                out.push(t.delay(SimTime::from_micros(u64::from(i) * 10), src, dst));
            }
            out
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn steal_transfer_records_locality() {
        let mut t = FatTree::new(small(), 16);
        assert_eq!(
            t.steal_transfer(SimTime::ZERO, server(0), server(1)),
            SimDuration::ZERO,
            "stealing stays free by default (§4.1)"
        );
        t.steal_transfer(SimTime::ZERO, server(0), server(8));
        let stats = t.stats();
        assert_eq!(stats.steal_transfers, 2);
        assert_eq!(stats.rack_local_steals, 1);
        assert_eq!(stats.rack_local_steal_rate(), Some(0.5));
    }

    #[test]
    fn configured_steal_transfer_cost_is_returned() {
        let params = small().steal_transfer(SimDuration::from_micros(125));
        let mut t = FatTreeContended::new(params, 16);
        assert_eq!(
            t.steal_transfer(SimTime::ZERO, server(2), server(9)),
            SimDuration::from_micros(125)
        );
    }

    #[test]
    fn schedulers_are_colocated_with_hosts() {
        let mut t = FatTree::new(small(), 16);
        // Scheduler 0 sits on host 0: same class as a host-0 message.
        assert_eq!(
            t.delay(SimTime::ZERO, Endpoint::Scheduler(0), server(1)),
            t.delay(SimTime::ZERO, server(0), server(1)),
        );
        // Central sits on host 0 too.
        assert_eq!(
            t.delay(SimTime::ZERO, Endpoint::Central, server(8)),
            t.delay(SimTime::ZERO, server(0), server(8)),
        );
    }

    #[test]
    fn degenerate_single_host_cluster() {
        let mut t = FatTreeContended::new(small(), 1);
        let d = t.delay(SimTime::ZERO, server(0), Endpoint::Scheduler(5));
        assert_eq!(d, small().rack_local);
    }
}
