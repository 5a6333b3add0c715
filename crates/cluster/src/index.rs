//! The cluster's whole-id-space bitmaps.
//!
//! [`Cluster`](crate::Cluster) keeps two [`BitSet`]s over every server id:
//! the down bitmap (which servers are out of service) and the
//! steal-candidate bitmap (which servers hold long work and a queued short
//! entry — the steal-victim eligibility signal of §3.6, the one aggregate
//! a scheduling decision reads). At 50,000 servers a whole bitmap is
//! ~6 KB, so membership checks and updates stay in cache where a
//! per-server table walk would miss.

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

    /// Sets or clears `id` (branchless; writing a bit's current value is a
    /// no-op).
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
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(b.contains(0) && b.contains(129));
    }
}
