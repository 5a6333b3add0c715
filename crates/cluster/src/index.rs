//! Incremental cluster indexes: O(1) answers to the questions the
//! scheduling hot paths ask.
//!
//! [`Cluster`](crate::Cluster) keeps these structures current on every
//! server state transition (enqueue, bind, finish, steal), so placement and
//! steal-victim decisions read a few cached words instead of walking
//! per-server state:
//!
//! * [`BitSet`] — one bit per server, used for the free-server list (which
//!   servers are completely idle) and the steal-candidate bitmap (which
//!   servers hold long work and a queued short entry — the steal-victim
//!   eligibility signal of §3.6). At
//!   50,000 servers a whole bitmap is ~6 KB, so membership checks and
//!   updates stay in cache where a per-server table walk would miss.
//! * [`DepthHistogram`] — per-partition queue-depth buckets: how many
//!   servers sit at each queue depth, supporting O(1) min-depth and
//!   depth-count queries for load-aware placement (power-of-d choices and
//!   friends).

/// Queue-depth buckets for one server population.
///
/// Depths at or above [`DepthHistogram::MAX_TRACKED`] share the last
/// bucket; at the paper's operating points queues deeper than that are
/// vanishingly rare, and every query stays O(1).
#[derive(Debug, Clone)]
pub struct DepthHistogram {
    counts: [u32; Self::MAX_TRACKED + 1],
    total: u32,
}

impl DepthHistogram {
    /// Depths `>= MAX_TRACKED` are clamped into the final bucket.
    pub const MAX_TRACKED: usize = 32;

    /// A histogram with every one of `servers` servers at depth zero.
    pub fn new(servers: usize) -> Self {
        let mut counts = [0u32; Self::MAX_TRACKED + 1];
        counts[0] = servers as u32;
        DepthHistogram {
            counts,
            total: servers as u32,
        }
    }

    /// An empty histogram (zero servers).
    pub fn empty() -> Self {
        DepthHistogram {
            counts: [0; Self::MAX_TRACKED + 1],
            total: 0,
        }
    }

    fn bucket(depth: usize) -> usize {
        depth.min(Self::MAX_TRACKED)
    }

    /// Moves one server from depth `from` to depth `to` (branchless; a
    /// same-bucket move is a harmless net-zero update).
    pub fn shift(&mut self, from: usize, to: usize) {
        self.counts[Self::bucket(from)] -= 1;
        self.counts[Self::bucket(to)] += 1;
    }

    /// Adds one server at `depth` to the tracked population (a server
    /// rejoining after a down period).
    pub fn add(&mut self, depth: usize) {
        self.counts[Self::bucket(depth)] += 1;
        self.total += 1;
    }

    /// Removes one server at `depth` from the tracked population (a server
    /// leaving service); depth histograms cover live servers only.
    pub fn remove(&mut self, depth: usize) {
        self.counts[Self::bucket(depth)] -= 1;
        self.total -= 1;
    }

    /// Number of servers tracked.
    pub fn total(&self) -> usize {
        self.total as usize
    }

    /// Servers at exactly `depth` (depths ≥ `MAX_TRACKED` pool together).
    pub fn count_at(&self, depth: usize) -> usize {
        self.counts[Self::bucket(depth)] as usize
    }

    /// Servers at depth ≤ `depth`.
    pub fn count_at_most(&self, depth: usize) -> usize {
        self.counts[..=Self::bucket(depth)]
            .iter()
            .map(|&c| c as usize)
            .sum()
    }

    /// The smallest occupied depth, or `None` with no servers.
    pub fn min_depth(&self) -> Option<usize> {
        self.counts.iter().position(|&c| c > 0)
    }
}

/// A fixed-capacity bitmap over the id space `0..capacity`.
#[derive(Debug, Clone)]
pub struct BitSet {
    words: Vec<u64>,
    ones: usize,
}

impl BitSet {
    /// An all-zero bitmap for ids `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        BitSet {
            words: vec![0; capacity.div_ceil(64)],
            ones: 0,
        }
    }

    /// True if `id` is set.
    pub fn contains(&self, id: usize) -> bool {
        self.words[id / 64] >> (id % 64) & 1 != 0
    }

    /// Sets or clears `id`. Branchless: the scheduling hot path flips these
    /// bits on data-dependent conditions, where a mispredicted branch would
    /// cost more than the handful of ALU ops.
    pub fn set(&mut self, id: usize, value: bool) {
        let word = &mut self.words[id / 64];
        let bit = id % 64;
        let old = *word >> bit & 1;
        let new = u64::from(value);
        *word ^= (old ^ new) << bit;
        self.ones = (self.ones as isize + new as isize - old as isize) as usize;
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.ones
    }

    /// The set ids, in increasing order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(w * 64 + bit)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_histogram_shifts_and_queries() {
        let mut h = DepthHistogram::new(10);
        assert_eq!(h.total(), 10);
        assert_eq!(h.count_at(0), 10);
        assert_eq!(h.min_depth(), Some(0));
        h.shift(0, 2);
        h.shift(0, 2);
        h.shift(2, 3);
        assert_eq!(h.count_at(0), 8);
        assert_eq!(h.count_at(2), 1);
        assert_eq!(h.count_at(3), 1);
        assert_eq!(h.count_at_most(2), 9);
        assert_eq!(h.count_at_most(usize::MAX), 10);
        // Empty out depth 0.
        for _ in 0..8 {
            h.shift(0, 1);
        }
        assert_eq!(h.min_depth(), Some(1));
    }

    #[test]
    fn depth_histogram_clamps_deep_queues() {
        let mut h = DepthHistogram::new(1);
        h.shift(0, 1_000);
        assert_eq!(h.count_at(DepthHistogram::MAX_TRACKED), 1);
        assert_eq!(h.count_at(5_000), 1, "deep depths pool together");
        // A clamped-to-clamped move is a no-op.
        h.shift(1_000, 2_000);
        assert_eq!(h.count_at(DepthHistogram::MAX_TRACKED), 1);
        h.shift(2_000, 0);
        assert_eq!(h.min_depth(), Some(0));
    }

    #[test]
    fn add_remove_track_population() {
        let mut h = DepthHistogram::new(3);
        h.shift(0, 2);
        // One server leaves at depth 2, another at depth 0.
        h.remove(2);
        h.remove(0);
        assert_eq!(h.total(), 1);
        assert_eq!(h.count_at(0), 1);
        assert_eq!(h.count_at(2), 0);
        // A server rejoins at depth 0.
        h.add(0);
        assert_eq!(h.total(), 2);
        assert_eq!(h.count_at(0), 2);
        assert_eq!(h.min_depth(), Some(0));
        // Deep rejoiners clamp like shifts do.
        h.add(1_000);
        assert_eq!(h.count_at(DepthHistogram::MAX_TRACKED), 1);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn empty_histogram_has_no_min() {
        assert_eq!(DepthHistogram::empty().min_depth(), None);
        assert_eq!(DepthHistogram::empty().total(), 0);
    }

    #[test]
    fn bitset_sets_clears_counts() {
        let mut b = BitSet::new(130);
        assert!(!b.contains(129));
        b.set(129, true);
        b.set(0, true);
        b.set(64, true);
        assert_eq!(b.count(), 3);
        b.set(129, true); // idempotent
        assert_eq!(b.count(), 3);
        b.set(64, false);
        assert!(!b.contains(64));
        assert_eq!(b.count(), 2);
        b.set(64, false); // idempotent
        assert_eq!(b.count(), 2);
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![0, 129]);
    }

    #[test]
    fn bitset_iterates_dense_runs() {
        let mut b = BitSet::new(200);
        for id in (0..200).filter(|i| i % 7 == 0) {
            b.set(id, true);
        }
        let expect: Vec<usize> = (0..200).filter(|i| i % 7 == 0).collect();
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), expect);
        assert_eq!(b.count(), expect.len());
    }
}
