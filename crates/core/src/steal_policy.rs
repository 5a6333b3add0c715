//! The driver-side stealing policy (§3.6).
//!
//! "Whenever a server is out of tasks to execute, it randomly contacts a
//! number of other servers to select one from which to steal short tasks.
//! Both the servers from the general partition and the servers from the
//! short partition can steal, but they can only steal from servers in the
//! general partition."
//!
//! The victim-queue scan itself lives in [`hawk_cluster::steal`]; this
//! module decides *which* victims an idle thief contacts: up to `cap`
//! distinct uniformly random general-partition servers (paper default 10,
//! swept 1–250 in Figure 15), excluding the thief itself. They are drawn
//! one at a time, as the thief contacts them ([`VictimDraw`]): an attempt
//! that succeeds at its second victim has moved the RNG by two draws.

use hawk_cluster::{Partition, ServerId};
use hawk_net::RackGeometry;
use hawk_simcore::SimRng;

/// Victim selection for randomized work stealing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StealPolicy {
    /// Maximum servers contacted per attempt.
    pub cap: usize,
}

impl StealPolicy {
    /// Creates a policy contacting up to `cap` servers (min 1).
    pub fn new(cap: usize) -> Self {
        StealPolicy { cap: cap.max(1) }
    }

    /// Starts one idle `thief`'s attempt: up to `cap` distinct
    /// general-partition servers, never the thief, none when the general
    /// partition has no other server.
    ///
    /// With `racks` the sampling is stratified (rack-first stealing): the
    /// general-partition slice of the thief's *own rack* is drained first,
    /// and only the remaining budget goes to the rest of the general
    /// partition. The victim *set* stays the paper's; rack-local steals
    /// dominate whenever the thief's rack has stealable work. Without
    /// `racks` the "rack" is the thief alone, which leaves one stratum.
    pub fn draw(
        &self,
        partition: &Partition,
        thief: ServerId,
        racks: Option<RackGeometry>,
    ) -> VictimDraw {
        let general = partition.general_count() as u32;
        // The thief's rack, clipped to the general partition (racks are
        // contiguous id blocks; the general partition is the id prefix).
        let hosts_per_rack = racks.map_or(1, |r| r.hosts_per_rack.max(1) as u32);
        let rack_start = thief.0 / hosts_per_rack * hosts_per_rack;
        let block_lo = rack_start.min(general);
        let block = (rack_start + hosts_per_rack).min(general) - block_lo;
        let thief_in_block = u32::from(thief.0 - block_lo < block);
        let local = Stratum {
            base: block_lo,
            len: block - thief_in_block,
            hole: thief.0,
            hole_len: thief_in_block,
        };
        // The whole rack block is the hole: it covers the thief too.
        let rest = Stratum {
            base: 0,
            len: general - block,
            hole: block_lo,
            hole_len: block,
        };
        VictimDraw {
            budget: self.cap.min((local.len + rest.len) as usize) as u32,
            taken: 0,
            stratum: local,
            rest,
        }
    }

    /// [`StealPolicy::draw`] without racks, drained into `out` (`scratch`
    /// is the draw's memory). Kept for the frozen benchmark package.
    #[doc(hidden)]
    pub fn pick_victims_into(
        &self,
        partition: &Partition,
        thief: ServerId,
        rng: &mut SimRng,
        scratch: &mut Vec<usize>,
        out: &mut Vec<ServerId>,
    ) {
        self.draw(partition, thief, None)
            .drain_into(rng, scratch, out);
    }

    /// [`StealPolicy::draw`] with `racks`, drained into `out`. Kept for
    /// the frozen benchmark package.
    #[doc(hidden)]
    pub fn pick_victims_rack_first_into(
        &self,
        partition: &Partition,
        thief: ServerId,
        racks: RackGeometry,
        rng: &mut SimRng,
        scratch: &mut Vec<usize>,
        out: &mut Vec<ServerId>,
    ) {
        self.draw(partition, thief, Some(racks))
            .drain_into(rng, scratch, out);
    }
}

impl Default for StealPolicy {
    /// The paper's default cap of 10.
    fn default() -> Self {
        StealPolicy::new(10)
    }
}

/// How many victims of one stratum [`VictimDraw::next`] finds by walking
/// its unsorted memory; from there on it keeps the memory sorted and
/// searches it. The walk costs the victims drawn so far, a few times over,
/// and a sorted insert is dearer only while they are few: the paper's cap
/// of 10 never leaves the walk, Figure 15's caps up to 250 would spend
/// most of their run in it.
const SORTED_FROM: usize = 32;

/// `len` candidate ids: position `p` is server `base + p`, shifted past
/// the `hole_len` ids starting at `hole` (the thief, or its whole rack).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Stratum {
    base: u32,
    len: u32,
    hole: u32,
    hole_len: u32,
}

/// One steal attempt's victims, drawn lazily: each [`VictimDraw::next`]
/// makes one bounded draw — a rank among the candidates not yet handed
/// out — so the victims are distinct, every order is equally likely, and
/// a caller that stops early has paid only for what it contacted.
///
/// The state is `Copy`; the candidates already handed out (at most `cap`)
/// live in a caller-owned buffer passed to every `next` of the attempt,
/// so nothing allocates in steady state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VictimDraw {
    /// Victims still to hand out; never more than the strata hold.
    budget: u32,
    /// Draws made in `stratum`: its positions below `taken` are spent.
    taken: u32,
    stratum: Stratum,
    /// The stratum after `stratum` (empty once entered).
    rest: Stratum,
}

impl VictimDraw {
    /// The next victim in contact order, or `None` when the budget is
    /// spent. `chosen` must be the same buffer for every call of one
    /// attempt: it holds the stratum's positions handed out so far (sorted
    /// once there are more than 32) and is cleared on the first draw of
    /// each stratum.
    pub fn next(&mut self, rng: &mut SimRng, chosen: &mut Vec<usize>) -> Option<ServerId> {
        if self.budget == 0 {
            return None;
        }
        if self.taken == self.stratum.len {
            // The thief's rack is drained: on to the rest, which the
            // budget guarantees is non-empty.
            self.stratum = std::mem::take(&mut self.rest);
            self.taken = 0;
        }
        if self.taken == 0 {
            chosen.clear();
        }
        // A rank among the positions not yet handed out: the victim is the
        // rank-th free position `p`, the one with `p = rank + |chosen ≤ p|`.
        let free = (self.stratum.len - self.taken) as usize;
        let rank = rng.index(free);
        let value = if chosen.len() < SORTED_FROM {
            // Iterating that from `rank` climbs to it, and with few chosen
            // among many the second count already confirms the first.
            let at_or_below = |p: usize| chosen.iter().filter(|&&c| c <= p).count();
            let mut value = rank + at_or_below(rank);
            loop {
                let next = rank + at_or_below(value);
                if next == value {
                    break;
                }
                value = next;
            }
            chosen.push(value);
            value
        } else {
            if chosen.len() == SORTED_FROM {
                chosen.sort_unstable();
            }
            // Sorted and distinct, `chosen[i]` has `chosen[i] - i` free
            // positions below it, a count that never falls as `i` grows:
            // `p` lies past the first `i` chosen whose count is ≤ `rank`.
            // The chosen are uniform over the stratum, so `i` is close to
            // its share of `rank`; searching from there takes a few steps.
            let len = chosen.len();
            let below = |i: usize| chosen[i] - i;
            let mut i = rank * len / free;
            while i > 0 && below(i - 1) > rank {
                i -= 1;
            }
            while i < len && below(i) <= rank {
                i += 1;
            }
            chosen.insert(i, rank + i);
            rank + i
        };
        self.taken += 1;
        self.budget -= 1;
        let Stratum {
            base,
            hole,
            hole_len,
            ..
        } = self.stratum;
        let id = base + value as u32;
        Some(ServerId(if id >= hole { id + hole_len } else { id }))
    }

    /// Drains the rest of the attempt into `out` (cleared first).
    pub fn drain_into(
        mut self,
        rng: &mut SimRng,
        chosen: &mut Vec<usize>,
        out: &mut Vec<ServerId>,
    ) {
        out.clear();
        while let Some(victim) = self.next(rng, chosen) {
            out.push(victim);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    const RACKS_OF_4: RackGeometry = RackGeometry {
        hosts_per_rack: 4,
        racks_per_pod: 5,
    };

    fn drain(
        policy: StealPolicy,
        partition: &Partition,
        thief: ServerId,
        racks: Option<RackGeometry>,
        rng: &mut SimRng,
    ) -> Vec<ServerId> {
        let mut out = Vec::new();
        policy
            .draw(partition, thief, racks)
            .drain_into(rng, &mut Vec::new(), &mut out);
        out
    }

    fn flat(
        policy: StealPolicy,
        partition: &Partition,
        thief: u32,
        rng: &mut SimRng,
    ) -> Vec<ServerId> {
        drain(policy, partition, ServerId(thief), None, rng)
    }

    fn rack_first(
        partition: &Partition,
        thief: ServerId,
        racks: RackGeometry,
        rng: &mut SimRng,
    ) -> Vec<ServerId> {
        drain(StealPolicy::default(), partition, thief, Some(racks), rng)
    }

    /// Fails when the thief skip is off by one (`id > hole`: thieves 0, 40
    /// and 79 contact themselves) and when `next` ignores `chosen` (equal
    /// ranks yield the same server twice).
    #[test]
    fn victims_are_general_distinct_and_not_thief() {
        let partition = Partition::new(100, 0.2); // 80 general
        let policy = StealPolicy::default();
        let mut rng = SimRng::seed_from_u64(1);
        for thief_raw in [0u32, 40, 79, 80, 99] {
            let thief = ServerId(thief_raw);
            for _ in 0..200 {
                let victims = flat(policy, &partition, thief_raw, &mut rng);
                assert_eq!(victims.len(), 10);
                let set: HashSet<_> = victims.iter().collect();
                assert_eq!(set.len(), victims.len(), "victims must be distinct");
                for v in &victims {
                    assert!(partition.in_general(*v), "victim {v} not general");
                    assert_ne!(*v, thief, "thief contacted itself");
                }
            }
        }
    }

    #[test]
    fn cap_limits_contacts() {
        let partition = Partition::new(1_000, 0.1);
        let mut rng = SimRng::seed_from_u64(2);
        for cap in [1usize, 5, 10, 250] {
            let victims = flat(StealPolicy::new(cap), &partition, 950, &mut rng);
            assert_eq!(victims.len(), cap.min(900));
        }
    }

    /// A cap above the candidate count, and above any small fixed size,
    /// drains to a permutation of every candidate: fails on a draw whose
    /// memory is a fixed array that truncates (victims past it repeat),
    /// whose budget is not clipped to the candidates (`index(0)` panics),
    /// or that inserts out of order (a later rank steps past too few).
    #[test]
    fn cap_above_the_candidates_yields_each_exactly_once() {
        let mut rng = SimRng::seed_from_u64(10);
        for (nodes, racks) in [(40, None), (40, Some(RACKS_OF_4)), (300, None)] {
            let partition = Partition::new(nodes, 0.1);
            let general = partition.general_count() as u32;
            for thief in [0, 13, general - 1, general] {
                let policy = StealPolicy::new(1_000);
                let mut victims = drain(policy, &partition, ServerId(thief), racks, &mut rng);
                victims.sort_unstable();
                let expected: Vec<_> = (0..general).filter(|&i| i != thief).map(ServerId).collect();
                assert_eq!(victims, expected, "{nodes} nodes, thief {thief}");
            }
        }
    }

    #[test]
    fn small_general_partition_caps_at_available() {
        let partition = Partition::new(5, 0.6); // 2 general
        let mut rng = SimRng::seed_from_u64(3);
        let victims = flat(StealPolicy::new(10), &partition, 0, &mut rng);
        // Thief is general server 0; only server 1 remains.
        assert_eq!(victims, vec![ServerId(1)]);
    }

    #[test]
    fn empty_general_partition_yields_nothing() {
        let partition = Partition::new(4, 1.0);
        let mut rng = SimRng::seed_from_u64(4);
        assert!(flat(StealPolicy::default(), &partition, 2, &mut rng).is_empty());
    }

    #[test]
    fn lone_general_server_cannot_steal_from_itself() {
        let partition = Partition::new(3, 0.66); // 1 general
        let mut rng = SimRng::seed_from_u64(5);
        assert!(flat(StealPolicy::default(), &partition, 0, &mut rng).is_empty());
        // But a short-partition thief can contact the lone general server.
        let victims = flat(StealPolicy::default(), &partition, 1, &mut rng);
        assert_eq!(victims, vec![ServerId(0)]);
    }

    #[test]
    fn cap_zero_becomes_one() {
        assert_eq!(StealPolicy::new(0).cap, 1);
    }

    /// Fails when the strata are drawn in the other order or interleaved.
    #[test]
    fn rack_first_front_loads_the_thiefs_rack() {
        // 100 servers, 80 general, 4-host racks: a general thief's
        // contact list starts with its 3 rack mates, then 7 distinct
        // victims from outside the rack.
        let partition = Partition::new(100, 0.2);
        let mut rng = SimRng::seed_from_u64(7);
        for thief_raw in [0u32, 41, 43, 79] {
            let thief = ServerId(thief_raw);
            let rack = thief_raw as usize / 4;
            for _ in 0..100 {
                let victims = rack_first(&partition, thief, RACKS_OF_4, &mut rng);
                assert_eq!(victims.len(), 10);
                let set: HashSet<_> = victims.iter().collect();
                assert_eq!(set.len(), victims.len(), "victims must be distinct");
                for (i, v) in victims.iter().enumerate() {
                    assert!(partition.in_general(*v), "victim {v} not general");
                    assert_ne!(*v, thief, "thief contacted itself");
                    let local = v.index() / 4 == rack;
                    assert_eq!(local, i < 3, "victim {v} at position {i}");
                }
            }
        }
    }

    /// Fails when `chosen` survives the change of stratum: the two
    /// positions left by the rack block make the rest skip servers 0 and 1.
    #[test]
    fn rack_first_short_partition_thief_clips_to_general() {
        // 4-host racks, 10 general servers: rack 2 is ids 8..12 but only
        // 8 and 9 are general — a thief at 10 (short partition) gets
        // exactly those two as its local stratum.
        let partition = Partition::new(16, 0.375); // 10 general
        let racks = RackGeometry {
            hosts_per_rack: 4,
            racks_per_pod: 2,
        };
        let mut rng = SimRng::seed_from_u64(8);
        for _ in 0..50 {
            let victims = rack_first(&partition, ServerId(10), racks, &mut rng);
            assert_eq!(victims.len(), 10, "whole general partition reachable");
            let set: HashSet<u32> = victims.iter().map(|v| v.0).collect();
            assert_eq!(set, (0..10).collect::<HashSet<u32>>());
            let locals: HashSet<u32> = victims[..2].iter().map(|v| v.0).collect();
            assert_eq!(locals, HashSet::from([8, 9]), "rack block first");
        }
        // A thief entirely outside the general id range has no local
        // stratum at all and degenerates to the uniform draw.
        let victims = rack_first(&partition, ServerId(14), racks, &mut rng);
        assert_eq!(victims.len(), 10);
    }

    #[test]
    fn rack_first_reaches_every_general_server() {
        let partition = Partition::new(40, 0.0);
        let racks = RackGeometry {
            hosts_per_rack: 8,
            racks_per_pod: 5,
        };
        let mut rng = SimRng::seed_from_u64(9);
        let mut seen = HashSet::new();
        for _ in 0..500 {
            for v in rack_first(&partition, ServerId(13), racks, &mut rng) {
                seen.insert(v.0);
            }
        }
        let expected: HashSet<u32> = (0..40).filter(|&i| i != 13).collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn all_general_servers_reachable() {
        // Over many draws every non-thief general server should appear.
        let partition = Partition::new(20, 0.0);
        let policy = StealPolicy::new(5);
        let mut rng = SimRng::seed_from_u64(6);
        let mut seen = HashSet::new();
        for _ in 0..500 {
            for v in flat(policy, &partition, 7, &mut rng) {
                seen.insert(v.0);
            }
        }
        let expected: HashSet<u32> = (0..20).filter(|&i| i != 7).collect();
        assert_eq!(seen, expected);
    }

    /// What the lazy draw buys: a thief that stops after `k` victims has
    /// moved its RNG by exactly `k` bounded draws, over `n, n - 1, …`
    /// candidates. Fails on any sampler that draws ahead (the up-front
    /// list drew 19 times before the first contact).
    #[test]
    fn stopping_after_k_victims_costs_k_bounded_draws() {
        let partition = Partition::new(100, 0.2); // 80 general, 79 candidates
        for k in 0..=10 {
            let mut rng = SimRng::seed_from_u64(11);
            let mut reference = rng.clone();
            let mut draw = StealPolicy::default().draw(&partition, ServerId(5), None);
            let mut chosen = Vec::new();
            for i in 0..k {
                assert!(draw.next(&mut rng, &mut chosen).is_some());
                reference.index(79 - i);
            }
            assert_eq!(rng.next_u64(), reference.next_u64(), "after {k} victims");
        }
        // Two strata: 3 rack mates, then the 76 servers outside the rack.
        let mut rng = SimRng::seed_from_u64(12);
        let mut reference = rng.clone();
        let mut draw = StealPolicy::default().draw(&partition, ServerId(5), Some(RACKS_OF_4));
        let mut chosen = Vec::new();
        for n in [3, 2, 1, 76, 75] {
            assert!(draw.next(&mut rng, &mut chosen).is_some());
            reference.index(n);
        }
        assert_eq!(rng.next_u64(), reference.next_u64());
    }

    /// Past [`SORTED_FROM`] victims the draw switches memories, not
    /// streams: at every cap it hands out exactly the rank-th free
    /// position, found here by brute force from the same draws. Fails when
    /// the switch skips the one sort or either search loop stops a step
    /// short.
    #[test]
    fn sorted_memory_hands_out_what_the_walk_would() {
        let partition = Partition::new(400, 0.0);
        let thief = 123usize;
        for (seed, cap) in [(13u64, 250usize), (14, SORTED_FROM + 1), (15, 399)] {
            let mut rng = SimRng::seed_from_u64(seed);
            let drawn = flat(StealPolicy::new(cap), &partition, thief as u32, &mut rng);
            let mut rng = SimRng::seed_from_u64(seed);
            let mut free: Vec<usize> = (0..399).collect();
            let expected: Vec<ServerId> = (0..cap)
                .map(|_| {
                    let p = free.remove(rng.index(free.len()));
                    ServerId((p + usize::from(p >= thief)) as u32)
                })
                .collect();
            assert_eq!(drawn, expected, "cap {cap}");
        }
    }

    /// The list the draw replaced, kept as the statistical reference: one
    /// `sample_distinct_into` per stratum (Floyd's set sample, shuffled),
    /// mapped past the thief or its rack.
    fn reference_list(
        cap: usize,
        general: usize,
        thief: usize,
        hosts_per_rack: usize,
        rng: &mut SimRng,
    ) -> Vec<ServerId> {
        let rack_start = thief / hosts_per_rack * hosts_per_rack;
        let (lo, hi) = (
            rack_start.min(general),
            (rack_start + hosts_per_rack).min(general),
        );
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        let locals = hi - lo - usize::from((lo..hi).contains(&thief));
        rng.sample_distinct_into(locals, cap.min(locals), &mut scratch);
        out.extend(
            scratch
                .iter()
                .map(|&i| lo + i + usize::from(lo + i >= thief)),
        );
        let rest = general - (hi - lo);
        rng.sample_distinct_into(rest, (cap - out.len()).min(rest), &mut scratch);
        out.extend(
            scratch
                .iter()
                .map(|&i| if i < lo { i } else { i + hi - lo }),
        );
        out.into_iter().map(|i| ServerId(i as u32)).collect()
    }

    /// The stream moved, the distribution did not: over 20 k seeds, how
    /// often each server lands at each contact position agrees with the
    /// reference list's count within 300. A count is binomial with σ ≤ 67
    /// (a server's share of a position is at most 1/3, among the three
    /// rack mates), so the difference of two independent counts has
    /// σ ≤ 95: the band is 3.2 σ there and over 5 σ on the flat cells.
    /// Fails on a biased step (the rank drawn over the whole stratum
    /// instead of what is left of it, or stepped past `chosen[at] < value`
    /// only).
    #[test]
    fn per_position_marginals_match_the_reference_list() {
        const SEEDS: u64 = 20_000;
        let partition = Partition::new(15, 0.2); // 12 general, thief 12 is not
        let general = partition.general_count();
        for (thief, racks, cap) in [(3, None, 4), (5, Some(RACKS_OF_4), 6), (12, None, 11)] {
            let hosts_per_rack = racks.map_or(1, |r: RackGeometry| r.hosts_per_rack);
            let mut counts = vec![[0i64; 2]; cap * general];
            for seed in 0..SEEDS {
                let policy = StealPolicy::new(cap);
                let mut rng = SimRng::seed_from_u64(seed);
                let drawn = drain(policy, &partition, ServerId(thief as u32), racks, &mut rng);
                let mut rng = SimRng::seed_from_u64(seed ^ 0x5EED);
                let listed = reference_list(cap, general, thief, hosts_per_rack, &mut rng);
                assert_eq!(drawn.len(), listed.len());
                for (position, (d, l)) in drawn.iter().zip(&listed).enumerate() {
                    counts[position * general + d.index()][0] += 1;
                    counts[position * general + l.index()][1] += 1;
                }
            }
            for (cell, [drawn, listed]) in counts.iter().enumerate() {
                assert!(
                    (drawn - listed).abs() <= 300,
                    "thief {thief}: server {} at position {}: {drawn} vs {listed}",
                    cell % general,
                    cell / general
                );
            }
        }
    }
}
