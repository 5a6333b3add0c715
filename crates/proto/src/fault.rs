//! Deterministic fault injection for the virtual-clock router.
//!
//! A [`FaultSpec`] makes message *delivery* a policy: the virtual router
//! commits every send through one seam ([`crate::virt`]'s `commit`),
//! where the spec may drop it, deliver it twice, defer it by a reorder
//! jitter, or sever it entirely during a scripted partition window. Every probabilistic knob draws from its own
//! dedicated [`SimRng`] stream, split from `seed ^ FAULT_SALT` in a
//! frozen order, so a faulty run replays **byte-identically** per seed —
//! the same contract the fault-free router has always had, extended to
//! its failures.
//!
//! [`FaultSpec::none()`] injects nothing and draws nothing: the router
//! takes the exact pre-fault code path, which is what keeps the pinned
//! golden digests valid.
//!
//! Hardening follows injection: a spec that injects anything runs the
//! hardened daemon protocol on the default [`TimeoutSpec`] timers, because
//! a lost message with no retry timer is a permanently wedged cluster, and
//! a spec that injects nothing runs the daemons unhardened.

use hawk_net::Endpoint;
use hawk_simcore::{SimDuration, SimRng, SimTime};

/// Salt xored into `ProtoConfig::seed` to derive the fault streams — the
/// same convention the scenario engine uses for its retime salt, so the
/// fault lanes never overlap the daemon streams split from the raw seed.
const FAULT_SALT: u64 = 0x4641_554c_5453_3031; // "FAULTS01"

/// A scripted network partition: during `[from, until)`, every message
/// crossing the boundary between `island` and the rest of the cluster is
/// dropped (both directions). Messages within the island, and within the
/// remainder, still flow.
///
/// Membership is by *host* index: daemons map onto hosts via
/// [`Endpoint::host`] (worker `i` lives on host `i`, distributed
/// scheduler `s` on host `s % workers`, the central scheduler on host 0),
/// so islanding a host range cuts off its workers *and* the scheduler
/// daemons co-hosted there.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionWindow {
    /// Partition onset (inclusive).
    pub from: SimTime,
    /// Partition heal (exclusive).
    pub until: SimTime,
    /// Host indices cut off from the rest of the cluster.
    pub island: Vec<u32>,
}

impl PartitionWindow {
    /// True if a `src → dst` message at `now` crosses the severed
    /// boundary.
    fn severs(&self, now: SimTime, src_host: u32, dst_host: u32) -> bool {
        if now < self.from || now >= self.until {
            return false;
        }
        self.island.contains(&src_host) != self.island.contains(&dst_host)
    }
}

/// Timeout and retry settings of the hardened daemon protocol. A run uses
/// [`TimeoutSpec::default()`]; only this crate's unit tests build others.
///
/// The daemons use them only when the [`FaultSpec`] injects: a spec that
/// injects nothing leaves the hardening off entirely — the daemons arm no
/// timers, send no acks and draw no extra randomness — which is what keeps
/// [`FaultSpec::none()`] runs byte-identical to the historical router.
/// Hardening turns on:
///
/// * a per-job timer chain at the owning scheduler (base interval
///   `probe`, exponential backoff capped at 8×) that re-probes a fresh
///   server while unlaunched tasks remain and relaunches handed-out tasks
///   presumed lost;
/// * a worker-side bind timeout (`bind`): an unanswered `TaskRequest` is
///   retransmitted up to `retries` times, then resolved as a local
///   cancel so the slot never wedges;
/// * steal request/ack/transfer (`steal`): a thief acks every non-empty
///   grant; the victim retransmits an unacked grant up to `retries`
///   times and then relocates the entries, so stolen work is never lost.
///
/// Every record the hardening keeps lives only as long as the work it
/// guards. A scheduler frees a job's state when the job completes, and
/// answers a late message for it as it would for any finished job. A
/// worker dedups the launches it holds, and remembers one it finished —
/// as a thief remembers a grant it banked — for the horizon H: the
/// longest hardened wait, `max(probe, (retries + 1)·bind,
/// (retries + 1)·steal)`, past which no retransmission or relocation of
/// that work is still under way.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TimeoutSpec {
    /// Base interval of the per-job scheduler timer chain.
    pub(crate) probe: SimDuration,
    /// Worker-side bind-reply timeout.
    pub(crate) bind: SimDuration,
    /// Steal round-trip timeout (thief) and grant retransmit interval
    /// (victim).
    pub(crate) steal: SimDuration,
    /// Bounded retransmits per hop (bind requests, steal grants).
    pub(crate) retries: u32,
}

impl TimeoutSpec {
    /// The horizon H a finished launch or a banked grant is remembered
    /// for (see the type docs).
    pub(crate) fn horizon(&self) -> SimDuration {
        let waits = self.bind.max(self.steal) * (u64::from(self.retries) + 1);
        waits.max(self.probe)
    }
}

impl Default for TimeoutSpec {
    fn default() -> Self {
        TimeoutSpec {
            probe: SimDuration::from_secs(30),
            bind: SimDuration::from_secs(1),
            steal: SimDuration::from_secs(1),
            retries: 3,
        }
    }
}

/// The delivery policy of the virtual router. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Per-message drop probability.
    pub drop: f64,
    /// Per-delivered-message duplication probability (the copy is charged
    /// its own topology delay and jitter; it cannot itself drop or
    /// duplicate).
    pub duplicate: f64,
    /// Uniform extra delay in `[0, reorder_jitter)` per delivered message
    /// — enough to break per-pair FIFO and reorder the protocol.
    pub reorder_jitter: SimDuration,
    /// Scripted partition windows (checked in order; any severing window
    /// drops the message).
    pub partitions: Vec<PartitionWindow>,
}

impl FaultSpec {
    /// The identity spec: nothing injected, nothing hardened, zero RNG
    /// draws — byte-identical to the pre-fault router.
    pub fn none() -> Self {
        FaultSpec {
            drop: 0.0,
            duplicate: 0.0,
            reorder_jitter: SimDuration::ZERO,
            partitions: Vec::new(),
        }
    }

    /// A moderate chaos cell: 1 % drops, 0.5 % duplicates, 2 ms reorder
    /// jitter, and the default hardened protocol. The conformance fault
    /// axis and the repository benchmark's `proto_chaos_1k` build on it.
    pub fn chaos() -> Self {
        FaultSpec {
            drop: 0.01,
            duplicate: 0.005,
            reorder_jitter: SimDuration::from_millis(2),
            partitions: Vec::new(),
        }
    }

    /// Sets the per-message drop probability.
    pub fn drop_probability(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "drop probability out of range");
        self.drop = p;
        self
    }

    /// Sets the per-message duplication probability.
    pub fn duplicate_probability(mut self, p: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "duplicate probability out of range"
        );
        self.duplicate = p;
        self
    }

    /// Sets the reorder jitter bound.
    pub fn reorder_jitter(mut self, jitter: SimDuration) -> Self {
        self.reorder_jitter = jitter;
        self
    }

    /// Adds a scripted partition window islanding `island` during
    /// `[from, until)`.
    pub fn partition(mut self, from: SimTime, until: SimTime, island: Vec<u32>) -> Self {
        assert!(from < until, "empty partition window");
        self.partitions.push(PartitionWindow {
            from,
            until,
            island,
        });
        self
    }

    /// True if any injection knob is active: the router routes sends
    /// through the fault lanes and the daemons run hardened.
    pub fn injects(&self) -> bool {
        self.drop > 0.0
            || self.duplicate > 0.0
            || self.reorder_jitter > SimDuration::ZERO
            || !self.partitions.is_empty()
    }
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec::none()
    }
}

/// Runtime state of the fault seam: the spec, one dedicated RNG stream
/// per probabilistic knob, and the injection counters the report surfaces.
///
/// Stream split order is **frozen**: drop, jitter, a retired third lane,
/// duplicate. Append new streams after these four; never reorder —
/// byte-identical replay of faulty runs depends on it (the same
/// append-only rule the daemon streams follow in `runtime::build_cluster`).
pub(crate) struct FaultLanes {
    spec: FaultSpec,
    /// Host count for [`Endpoint::host`] partition membership.
    hosts: usize,
    drop_rng: SimRng,
    jitter_rng: SimRng,
    dup_rng: SimRng,
    pub(crate) drops: u64,
    pub(crate) dups: u64,
}

impl FaultLanes {
    pub(crate) fn new(spec: FaultSpec, seed: u64, hosts: usize) -> Self {
        let mut root = SimRng::seed_from_u64(seed ^ FAULT_SALT);
        // Frozen stream order — see the struct docs.
        let drop_rng = root.split();
        let jitter_rng = root.split();
        // The retired delay-spike lane: still split, so the duplicate
        // lane keeps the stream every pinned faulty run was drawn from.
        root.split();
        let dup_rng = root.split();
        FaultLanes {
            spec,
            hosts,
            drop_rng,
            jitter_rng,
            dup_rng,
            drops: 0,
            dups: 0,
        }
    }

    /// True if the seam must be consulted at all; `false` routes sends
    /// through the exact pre-fault path (no draws, no counters).
    pub(crate) fn active(&self) -> bool {
        self.spec.injects()
    }

    /// True if a `src → dst` message at `now` is severed by a partition
    /// window. No RNG draw: partitions are scripted, not sampled.
    pub(crate) fn partitioned(&self, now: SimTime, src: Endpoint, dst: Endpoint) -> bool {
        if self.spec.partitions.is_empty() {
            return false;
        }
        let s = src.host(self.hosts) as u32;
        let d = dst.host(self.hosts) as u32;
        self.spec.partitions.iter().any(|w| w.severs(now, s, d))
    }

    /// Decides one delivered-or-dropped outcome: `None` drops the
    /// message, `Some(extra)` delivers it `extra` later than its
    /// topology delay. Draw order per message: drop, then jitter.
    pub(crate) fn deliver(&mut self) -> Option<SimDuration> {
        if self.spec.drop > 0.0 && self.drop_rng.chance(self.spec.drop) {
            self.drops += 1;
            return None;
        }
        Some(self.perturb())
    }

    /// Draws the delivery perturbation (the reorder jitter) for one
    /// message — also used for the duplicate copy, which gets its own
    /// draw.
    pub(crate) fn perturb(&mut self) -> SimDuration {
        if self.spec.reorder_jitter == SimDuration::ZERO {
            return SimDuration::ZERO;
        }
        let bound = self.spec.reorder_jitter.as_micros();
        SimDuration::from_micros(self.jitter_rng.gen_range(0, bound))
    }

    /// Draws whether a delivered message is also duplicated.
    pub(crate) fn duplicate(&mut self) -> bool {
        if self.spec.duplicate > 0.0 && self.dup_rng.chance(self.spec.duplicate) {
            self.dups += 1;
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hawk_cluster::ServerId;

    #[test]
    fn none_is_inert() {
        let spec = FaultSpec::none();
        assert!(!spec.injects());
        assert_eq!(spec, FaultSpec::default());
        let lanes = FaultLanes::new(spec, 7, 10);
        assert!(!lanes.active());
    }

    #[test]
    fn lanes_replay_byte_identically_per_seed() {
        let spec = FaultSpec::chaos();
        let outcomes = |seed: u64| {
            let mut lanes = FaultLanes::new(spec.clone(), seed, 10);
            let seq: Vec<Option<SimDuration>> = (0..200).map(|_| lanes.deliver()).collect();
            let dups: Vec<bool> = (0..200).map(|_| lanes.duplicate()).collect();
            (seq, dups, lanes.drops, lanes.dups)
        };
        assert_eq!(outcomes(42), outcomes(42));
        assert_ne!(outcomes(42), outcomes(43));
    }

    #[test]
    fn partition_severs_only_across_the_island_during_the_window() {
        let spec =
            FaultSpec::none().partition(SimTime::from_secs(10), SimTime::from_secs(20), vec![0, 1]);
        let lanes = FaultLanes::new(spec, 1, 8);
        let w = |i: u32| Endpoint::Server(ServerId(i));
        let at = SimTime::from_secs(15);
        // Across the boundary, both directions.
        assert!(lanes.partitioned(at, w(0), w(5)));
        assert!(lanes.partitioned(at, w(5), w(1)));
        // Within the island and within the remainder.
        assert!(!lanes.partitioned(at, w(0), w(1)));
        assert!(!lanes.partitioned(at, w(4), w(5)));
        // Outside the window.
        assert!(!lanes.partitioned(SimTime::from_secs(9), w(0), w(5)));
        assert!(!lanes.partitioned(SimTime::from_secs(20), w(0), w(5)));
        // Scheduler daemons are partitioned by their host mapping: the
        // central scheduler lives on host 0, inside this island.
        assert!(lanes.partitioned(at, Endpoint::Central, w(5)));
        assert!(!lanes.partitioned(at, Endpoint::Central, w(1)));
    }

    #[test]
    fn drop_rate_and_duplicates_are_roughly_calibrated() {
        let spec = FaultSpec::none()
            .drop_probability(0.2)
            .duplicate_probability(0.1);
        let mut lanes = FaultLanes::new(spec, 3, 4);
        for _ in 0..10_000 {
            let _ = lanes.deliver();
            let _ = lanes.duplicate();
        }
        assert!((1_500..2_500).contains(&(lanes.drops as usize)));
        assert!((600..1_400).contains(&(lanes.dups as usize)));
    }

    #[test]
    fn jitter_perturbs_within_its_bound() {
        let spec = FaultSpec::none().reorder_jitter(SimDuration::from_micros(500));
        let mut lanes = FaultLanes::new(spec, 11, 4);
        let mut saw_nonzero = false;
        for _ in 0..100 {
            let extra = lanes.perturb();
            assert!(extra < SimDuration::from_micros(500));
            saw_nonzero |= extra > SimDuration::ZERO;
        }
        assert!(saw_nonzero, "jitter never fired");
    }

    #[test]
    #[should_panic(expected = "empty partition window")]
    fn degenerate_partition_window_rejected() {
        let _ = FaultSpec::none().partition(SimTime::from_secs(5), SimTime::from_secs(5), vec![0]);
    }
}
