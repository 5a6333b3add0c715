//! An indexed binary min-heap with key updates.
//!
//! The Hawk centralized scheduler (paper §3.7) keeps "a priority queue of
//! tuples of the form ⟨server, waiting time⟩ … after every task assignment,
//! the priority queue is updated". That requires a priority queue supporting
//! efficient *change-key* on a fixed, dense id space — exactly what this
//! structure provides: O(log n) update, O(1) min lookup, with deterministic
//! id-based tie-breaking.

/// A binary min-heap over the dense id space `0..len` with mutable keys.
///
/// Ties are broken by the smaller id so that identical runs produce
/// identical schedules.
///
/// # Examples
///
/// ```
/// use hawk_simcore::IndexedMinHeap;
///
/// // Three servers, all initially with zero estimated waiting time.
/// let mut h = IndexedMinHeap::new(3, 0u64);
/// assert_eq!(h.min_id(), 0); // tie broken by id
///
/// h.add(0, 100); // assign a task with estimate 100 to server 0
/// assert_eq!(h.min_id(), 1);
/// h.add(1, 50);
/// h.add(2, 80);
/// assert_eq!(h.min_id(), 1);
///
/// h.sub(2, 80); // server 2 completed its task
/// assert_eq!(h.min_id(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct IndexedMinHeap {
    /// `heap[i]` is the `(key, id)` pair at heap slot `i`. Key and id live
    /// in the same slot so a sift touches one cache line per level instead
    /// of chasing parallel `key`/`id` arrays (the centralized scheduler
    /// sifts this heap twice per long task, making it a measurable part of
    /// the Hawk hot path).
    heap: Vec<(u64, u32)>,
    /// `pos[id]` is the heap slot currently holding `id`.
    pos: Vec<u32>,
}

impl IndexedMinHeap {
    /// Creates a heap over ids `0..len`, all with `initial` key.
    pub fn new(len: usize, initial: u64) -> Self {
        assert!(len <= u32::MAX as usize, "id space fits u32");
        IndexedMinHeap {
            heap: (0..len).map(|id| (initial, id as u32)).collect(),
            pos: (0..len as u32).collect(),
        }
    }

    /// Number of ids tracked.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns true if the heap tracks no ids.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The id with the smallest key (smallest id on ties).
    ///
    /// # Panics
    ///
    /// Panics if the heap is empty.
    pub fn min_id(&self) -> usize {
        assert!(!self.heap.is_empty(), "min_id on empty heap");
        self.heap[0].1 as usize
    }

    /// The smallest key.
    ///
    /// # Panics
    ///
    /// Panics if the heap is empty.
    pub fn min_key(&self) -> u64 {
        assert!(!self.heap.is_empty(), "min_key on empty heap");
        self.heap[0].0
    }

    /// Returns the current key of `id`.
    pub fn key_of(&self, id: usize) -> u64 {
        self.heap[self.pos[id] as usize].0
    }

    /// Sets the key of `id` to `key`, restoring the heap property.
    pub fn set(&mut self, id: usize, key: u64) {
        let slot = self.pos[id] as usize;
        let old = self.heap[slot].0;
        self.heap[slot].0 = key;
        if key < old {
            self.sift_up(slot);
        } else {
            self.sift_down(slot);
        }
    }

    /// Adds `delta` to the key of `id`.
    pub fn add(&mut self, id: usize, delta: u64) {
        let k = self.key_of(id) + delta;
        self.set(id, k);
    }

    /// Subtracts `delta` from the key of `id`, saturating at zero.
    pub fn sub(&mut self, id: usize, delta: u64) {
        let k = self.key_of(id).saturating_sub(delta);
        self.set(id, k);
    }

    /// Compare `(key, id)` pairs so ordering is total and deterministic.
    fn less(&self, a: usize, b: usize) -> bool {
        self.heap[a] < self.heap[b]
    }

    /// Puts `entry` in heap slot `slot` and points its id there.
    fn place(&mut self, slot: usize, entry: (u64, u32)) {
        self.heap[slot] = entry;
        self.pos[entry.1 as usize] = slot as u32;
    }

    // Both sifts move a hole instead of swapping: the entry being sifted is
    // held aside, each level writes one heap slot and one `pos` word, and
    // the entry lands once at the end. `(key, id)` is a total order, so each
    // level compares what a swap would have and the final layout is the
    // same.

    fn sift_up(&mut self, mut slot: usize) {
        let moving = self.heap[slot];
        while slot > 0 {
            let parent = (slot - 1) / 2;
            let above = self.heap[parent];
            if moving >= above {
                break;
            }
            self.place(slot, above);
            slot = parent;
        }
        self.place(slot, moving);
    }

    fn sift_down(&mut self, mut slot: usize) {
        let moving = self.heap[slot];
        let n = self.heap.len();
        loop {
            let l = 2 * slot + 1;
            if l >= n {
                break;
            }
            let r = l + 1;
            let child = if r < n && self.heap[r] < self.heap[l] {
                r
            } else {
                l
            };
            let below = self.heap[child];
            if below >= moving {
                break;
            }
            self.place(slot, below);
            slot = child;
        }
        self.place(slot, moving);
    }

    /// Verifies the heap invariant; used by tests and debug assertions.
    pub fn check_invariants(&self) -> bool {
        let n = self.heap.len();
        for slot in 1..n {
            let parent = (slot - 1) / 2;
            if self.less(slot, parent) {
                return false;
            }
        }
        // `pos` must be the inverse of the heap's id column.
        self.heap
            .iter()
            .enumerate()
            .all(|(i, &(_, id))| self.pos[id as usize] == i as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn min_follows_updates() {
        let mut h = IndexedMinHeap::new(4, 10);
        assert_eq!(h.min_id(), 0);
        h.set(2, 3);
        assert_eq!(h.min_id(), 2);
        assert_eq!(h.min_key(), 3);
        h.add(2, 20);
        assert_eq!(h.min_id(), 0);
        h.sub(3, 5);
        assert_eq!(h.min_id(), 3);
        assert_eq!(h.key_of(3), 5);
        assert!(h.check_invariants());
    }

    #[test]
    fn ties_break_by_smallest_id() {
        let h = IndexedMinHeap::new(5, 7);
        assert_eq!(h.min_id(), 0);
        let mut h2 = IndexedMinHeap::new(5, 7);
        h2.set(0, 9);
        assert_eq!(h2.min_id(), 1);
    }

    #[test]
    fn sub_saturates_at_zero() {
        let mut h = IndexedMinHeap::new(2, 5);
        h.sub(1, 100);
        assert_eq!(h.key_of(1), 0);
        assert_eq!(h.min_id(), 1);
    }

    #[test]
    fn empty_heap_reports_empty() {
        let h = IndexedMinHeap::new(0, 0);
        assert!(h.is_empty());
        assert_eq!(h.len(), 0);
    }

    #[test]
    #[should_panic(expected = "min_id on empty heap")]
    fn min_on_empty_panics() {
        IndexedMinHeap::new(0, 0).min_id();
    }

    #[test]
    fn random_ops_match_naive_argmin() {
        let mut rng = SimRng::seed_from_u64(99);
        let n = 64;
        let mut h = IndexedMinHeap::new(n, 0);
        let mut naive = vec![0u64; n];
        for _ in 0..5000 {
            let id = rng.index(n);
            match rng.index(3) {
                0 => {
                    let d = rng.gen_range(0, 1000);
                    h.add(id, d);
                    naive[id] += d;
                }
                1 => {
                    let d = rng.gen_range(0, 1000);
                    h.sub(id, d);
                    naive[id] = naive[id].saturating_sub(d);
                }
                _ => {
                    let k = rng.gen_range(0, 10_000);
                    h.set(id, k);
                    naive[id] = k;
                }
            }
            let expect = (0..n).min_by_key(|&i| (naive[i], i)).unwrap();
            assert_eq!(h.min_id(), expect);
            assert_eq!(h.min_key(), naive[expect]);
        }
        assert!(h.check_invariants());
    }

    #[test]
    fn simulates_least_loaded_assignment() {
        // Mimics the centralized scheduler: place 100 unit tasks on 10
        // servers; the load must end perfectly balanced.
        let mut h = IndexedMinHeap::new(10, 0);
        for _ in 0..100 {
            let s = h.min_id();
            h.add(s, 1);
        }
        for id in 0..10 {
            assert_eq!(h.key_of(id), 10);
        }
    }
}
