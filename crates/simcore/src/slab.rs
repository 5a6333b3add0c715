//! A slab arena of queue nodes threaded into intrusive FIFO lists.
//!
//! [`EntrySlab`] backs every per-server queue of a simulated cluster with
//! *one* contiguous allocation instead of one heap object per server.
//! Each list is an intrusive singly-linked FIFO whose nodes live in the
//! shared `nodes` vector; freed nodes are recycled through an internal
//! free list, so a cluster that has reached its high-water mark of queued
//! entries never allocates again.
//!
//! # The growth contract
//!
//! *An arena allocates only when its live population exceeds every earlier
//! peak, and then geometrically: a run performs O(log high-water) arena
//! allocations and none per event.* Nodes are recycled LIFO through the
//! free list, so a push finds no free node only at a new global peak; the
//! node vector then grows by doubling. [`EntrySlab::allocated_nodes`] is
//! that high-water mark and [`EntrySlab::growths`] counts the doublings,
//! so both halves are measurable. Both users — the per-server queues of
//! `hawk-cluster` and the buckets of the timing wheel
//! ([`crate::EventQueue`]) — start from what exists at construction (a
//! constant floor of queued entries per protocol core; the events a driver
//! seeds, via
//! [`EntrySlab::reserve_nodes`]: its dynamics script, its timers and the
//! one trace arrival it keeps pending), never from the length of the trace
//! they are about to replay, and are held to the contract by
//! `tests/slab_alloc.rs` here and `tests/alloc_regression.rs` at the
//! workspace root.
//!
//! # Invariants
//!
//! * **One list per owner** — list ids are dense (`0..num_lists`), fixed at
//!   construction; in `hawk-cluster` list `i` is server `i`'s queue.
//! * **O(1) push/pop/relink** — [`EntrySlab::push_back`],
//!   [`EntrySlab::push_front`] and [`EntrySlab::pop_front`] touch a
//!   constant number of nodes, and so do the two operations that move
//!   nodes *between* lists without copying a value or visiting the free
//!   list, [`EntrySlab::move_head_to_tail`] and [`EntrySlab::splice`]
//!   (the timing wheel cascades with them);
//!   [`EntrySlab::unlink_run`] is O(run length). No operation walks
//!   a list except the iterators.
//! * **No allocation below the peak** — the growth contract above.
//! * **FIFO order** — per list, values come out of `pop_front`/iteration
//!   in `push_back` order (a `push_front` ahead of all of them), with
//!   unlinked nodes excised in place.
//!
//! Values are `Copy` so a pop moves the value out by copy and the node's
//! slot can be recycled without per-node `Option` tagging.
//!
//! # Examples
//!
//! ```
//! use hawk_simcore::EntrySlab;
//!
//! let mut slab: EntrySlab<u32> = EntrySlab::new(2);
//! slab.push_back(0, 10);
//! slab.push_back(1, 99);
//! slab.push_back(0, 11);
//! assert_eq!(slab.iter(0).copied().collect::<Vec<_>>(), vec![10, 11]);
//! assert_eq!(slab.pop_front(0), Some(10));
//! assert_eq!(slab.pop_front(1), Some(99));
//! assert_eq!(slab.len(0), 1);
//! ```

/// Sentinel node index: "no node".
const NIL: u32 = u32::MAX;

/// One arena node: a value plus the intrusive `next` link (also used to
/// chain the free list).
#[derive(Debug, Clone)]
struct Node<T> {
    value: T,
    next: u32,
}

/// Head/tail/length of one intrusive FIFO list.
#[derive(Debug, Clone, Copy)]
struct ListEnds {
    head: u32,
    tail: u32,
    len: u32,
}

impl ListEnds {
    const EMPTY: ListEnds = ListEnds {
        head: NIL,
        tail: NIL,
        len: 0,
    };
}

/// A slab arena of entries threaded into per-owner intrusive FIFO lists
/// with free-list recycling. See the module docs for the
/// invariants.
#[derive(Debug, Clone)]
pub struct EntrySlab<T> {
    nodes: Vec<Node<T>>,
    lists: Vec<ListEnds>,
    /// Head of the LIFO free list, chained through `Node::next`.
    free_head: u32,
    free_len: usize,
    /// Times a push found the node vector full and doubled it.
    growths: u32,
}

impl<T: Copy> EntrySlab<T> {
    /// Bytes one node takes in the arena: the value and its 4-byte link,
    /// padded to the value's alignment.
    pub const NODE_BYTES: usize = std::mem::size_of::<Node<T>>();

    /// Creates a slab with `lists` empty lists and no nodes.
    pub fn new(lists: usize) -> Self {
        Self::with_node_capacity(lists, 0)
    }

    /// Creates a slab with `lists` empty lists and arena capacity for
    /// `nodes` entries (the floor growth starts from).
    pub fn with_node_capacity(lists: usize, nodes: usize) -> Self {
        EntrySlab {
            nodes: Vec::with_capacity(nodes),
            lists: vec![ListEnds::EMPTY; lists],
            free_head: NIL,
            free_len: 0,
            growths: 0,
        }
    }

    /// Number of lists.
    pub fn num_lists(&self) -> usize {
        self.lists.len()
    }

    /// Number of entries in `list`.
    pub fn len(&self, list: usize) -> usize {
        self.lists[list].len as usize
    }

    /// True if `list` holds no entries.
    pub fn is_empty(&self, list: usize) -> bool {
        self.lists[list].len == 0
    }

    /// Total nodes ever created (live + free): the high-water mark of the
    /// live population, since a node is created only when none is free.
    pub fn allocated_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Arena allocations made on demand: pushes that met a new peak with
    /// the node vector full (see the growth contract in the module docs).
    pub fn growths(&self) -> u32 {
        self.growths
    }

    /// Nodes currently on the free list.
    pub fn free_nodes(&self) -> usize {
        self.free_len
    }

    /// Raises the arena's floor: at least `total` nodes fit before the
    /// first on-demand growth (no-op if already that large).
    pub fn reserve_nodes(&mut self, total: usize) {
        self.nodes.reserve(total.saturating_sub(self.nodes.len()));
    }

    /// Takes a node off the free list, or grows the arena by one.
    fn alloc_node(&mut self, value: T) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            let node = &mut self.nodes[idx as usize];
            self.free_head = node.next;
            self.free_len -= 1;
            node.value = value;
            node.next = NIL;
            idx
        } else {
            let idx = self.nodes.len() as u32;
            assert!(idx != NIL, "EntrySlab overflow: 2^32-1 nodes");
            self.growths += u32::from(self.nodes.len() == self.nodes.capacity());
            self.nodes.push(Node { value, next: NIL });
            idx
        }
    }

    /// Returns a node to the free list.
    fn free_node(&mut self, idx: u32) {
        self.nodes[idx as usize].next = self.free_head;
        self.free_head = idx;
        self.free_len += 1;
    }

    /// Links the NIL-terminated chain `head ..= tail` of `len` nodes onto
    /// the tail of `list`.
    #[inline]
    fn append_chain(&mut self, list: usize, head: u32, tail: u32, len: u32) {
        let ends = &mut self.lists[list];
        if ends.tail == NIL {
            ends.head = head;
        } else {
            self.nodes[ends.tail as usize].next = head;
        }
        ends.tail = tail;
        ends.len += len;
    }

    /// Appends `value` to the tail of `list`. O(1).
    pub fn push_back(&mut self, list: usize, value: T) {
        let idx = self.alloc_node(value);
        self.append_chain(list, idx, idx, 1);
    }

    /// Links `value` at the head of `list`, ahead of every entry. O(1).
    pub fn push_front(&mut self, list: usize, value: T) {
        let idx = self.alloc_node(value);
        let ends = &mut self.lists[list];
        self.nodes[idx as usize].next = ends.head;
        ends.head = idx;
        if ends.tail == NIL {
            ends.tail = idx;
        }
        ends.len += 1;
    }

    /// Removes and returns the head of `list`, or `None` if empty. O(1).
    pub fn pop_front(&mut self, list: usize) -> Option<T> {
        let ends = &mut self.lists[list];
        if ends.head == NIL {
            return None;
        }
        let idx = ends.head;
        let node = &self.nodes[idx as usize];
        let value = node.value;
        ends.head = node.next;
        if ends.head == NIL {
            ends.tail = NIL;
        }
        ends.len -= 1;
        self.free_node(idx);
        Some(value)
    }

    /// Moves the head node of `src` to the tail of `dst` by relinking it:
    /// the value is not copied and the free list is not touched. O(1).
    /// With `src == dst` the list rotates by one.
    ///
    /// # Panics
    ///
    /// Panics if `src` is empty.
    pub fn move_head_to_tail(&mut self, src: usize, dst: usize) {
        let idx = self.lists[src].head;
        assert!(idx != NIL, "move_head_to_tail: empty source list");
        let next = std::mem::replace(&mut self.nodes[idx as usize].next, NIL);
        let from = &mut self.lists[src];
        from.head = next;
        if next == NIL {
            from.tail = NIL;
        }
        from.len -= 1;
        self.append_chain(dst, idx, idx, 1);
    }

    /// Appends the whole of `src` to the tail of `dst`, in order, leaving
    /// `src` empty. O(1) whatever the length; a no-op when `src` is empty
    /// or `src == dst`.
    pub fn splice(&mut self, src: usize, dst: usize) {
        let moved = std::mem::replace(&mut self.lists[src], ListEnds::EMPTY);
        if moved.head != NIL {
            self.append_chain(dst, moved.head, moved.tail, moved.len);
        }
    }

    /// The head node index of `list`, or `None` if empty.
    pub fn head(&self, list: usize) -> Option<u32> {
        let h = self.lists[list].head;
        (h != NIL).then_some(h)
    }

    /// The node following `node` in its list, or `None` at the tail.
    ///
    /// Valid only for live (linked) nodes.
    pub fn next(&self, node: u32) -> Option<u32> {
        let n = self.nodes[node as usize].next;
        (n != NIL).then_some(n)
    }

    /// The value stored at a live node.
    pub fn value(&self, node: u32) -> &T {
        &self.nodes[node as usize].value
    }

    /// Iterates `list` head to tail.
    pub fn iter(&self, list: usize) -> impl Iterator<Item = &T> {
        let mut cur = self.lists[list].head;
        std::iter::from_fn(move || {
            if cur == NIL {
                return None;
            }
            let node = &self.nodes[cur as usize];
            cur = node.next;
            Some(&node.value)
        })
    }

    /// Unlinks the run of `count` consecutive nodes starting at `start`
    /// (predecessor `prev`, `None` when `start` is the head), handing
    /// their values to `each` in list order. O(count).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds via link checks, in release by index
    /// errors) if the run walks off the end of the list.
    pub fn unlink_run(
        &mut self,
        list: usize,
        prev: Option<u32>,
        start: u32,
        count: usize,
        mut each: impl FnMut(T),
    ) {
        if count == 0 {
            return;
        }
        let mut cur = start;
        // Successor of the last node taken, captured before `free_node`
        // repurposes its `next` link for the free chain.
        let mut after = NIL;
        for taken in 0..count {
            let node = &self.nodes[cur as usize];
            each(node.value);
            after = node.next;
            self.free_node(cur);
            if taken + 1 < count {
                debug_assert!(after != NIL, "unlink_run: run past the tail");
                cur = after;
            }
        }
        let ends = &mut self.lists[list];
        match prev {
            None => ends.head = after,
            Some(p) => self.nodes[p as usize].next = after,
        }
        if after == NIL {
            self.lists[list].tail = prev.unwrap_or(NIL);
        }
        self.lists[list].len -= count as u32;
    }

    /// Checks arena-wide invariants: every list's length and tail match a
    /// walk, the free-list length matches, and every node sits on exactly
    /// one list or the free list — the relinking operations
    /// ([`EntrySlab::move_head_to_tail`], [`EntrySlab::splice`]) could
    /// otherwise share a node between two lists while the totals still
    /// add up.
    pub fn check_invariants(&self) -> bool {
        let mut seen = vec![false; self.nodes.len()];
        // A revisit is a cycle or a node shared between lists.
        let mut first_visit = |idx: u32| !std::mem::replace(&mut seen[idx as usize], true);
        for ends in &self.lists {
            let mut n = 0usize;
            let mut cur = ends.head;
            let mut last = NIL;
            while cur != NIL {
                if !first_visit(cur) {
                    return false;
                }
                last = cur;
                cur = self.nodes[cur as usize].next;
                n += 1;
            }
            if n != ends.len as usize || last != ends.tail {
                return false;
            }
        }
        let mut free = 0usize;
        let mut cur = self.free_head;
        while cur != NIL {
            if !first_visit(cur) {
                return false;
            }
            cur = self.nodes[cur as usize].next;
            free += 1;
        }
        free == self.free_len && seen.iter().all(|&s| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_per_list_and_isolation() {
        let mut s: EntrySlab<u32> = EntrySlab::new(3);
        for v in 0..5 {
            s.push_back(0, v);
            s.push_back(2, 100 + v);
        }
        assert_eq!(s.len(0), 5);
        assert_eq!(s.len(1), 0);
        assert!(s.is_empty(1));
        for v in 0..5 {
            assert_eq!(s.pop_front(0), Some(v));
        }
        assert_eq!(s.pop_front(0), None);
        assert_eq!(
            s.iter(2).copied().collect::<Vec<_>>(),
            vec![100, 101, 102, 103, 104]
        );
        assert!(s.check_invariants());
    }

    #[test]
    fn free_list_recycles_nodes() {
        let mut s: EntrySlab<u32> = EntrySlab::new(1);
        for v in 0..8 {
            s.push_back(0, v);
        }
        let peak = s.allocated_nodes();
        assert_eq!(peak, 8);
        for _ in 0..8 {
            s.pop_front(0);
        }
        assert_eq!(s.free_nodes(), 8);
        // Churn far past the original population: the arena must not grow.
        for round in 0..100u32 {
            for v in 0..8 {
                s.push_back(0, round * 10 + v);
            }
            for _ in 0..8 {
                s.pop_front(0);
            }
        }
        assert_eq!(s.allocated_nodes(), peak);
        assert!(s.check_invariants());
    }

    #[test]
    fn unlink_run_excises_in_order() {
        let mut s: EntrySlab<u32> = EntrySlab::new(1);
        for v in 0..6 {
            s.push_back(0, v);
        }
        let n0 = s.head(0).unwrap();
        let n1 = s.next(n0).unwrap();
        let mut out = Vec::new();
        s.unlink_run(0, Some(n0), n1, 3, |v| out.push(v));
        assert_eq!(out, vec![1, 2, 3]);
        assert_eq!(s.iter(0).copied().collect::<Vec<_>>(), vec![0, 4, 5]);
        assert_eq!(s.len(0), 3);
        assert!(s.check_invariants());
        // Run reaching the tail fixes the tail pointer.
        let h = s.head(0).unwrap();
        let m = s.next(h).unwrap();
        out.clear();
        s.unlink_run(0, Some(h), m, 2, |v| out.push(v));
        assert_eq!(out, vec![4, 5]);
        s.push_back(0, 7);
        assert_eq!(s.iter(0).copied().collect::<Vec<_>>(), vec![0, 7]);
        assert!(s.check_invariants());
    }

    #[test]
    fn unlink_whole_list_from_head() {
        let mut s: EntrySlab<u32> = EntrySlab::new(2);
        for v in 0..4 {
            s.push_back(1, v);
        }
        let h = s.head(1).unwrap();
        let mut out = Vec::new();
        s.unlink_run(1, None, h, 4, |v| out.push(v));
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert!(s.is_empty(1));
        assert_eq!(s.head(1), None);
        assert!(s.check_invariants());
        s.push_back(1, 42);
        assert_eq!(s.pop_front(1), Some(42));
    }

    #[test]
    fn push_front_links_at_the_head() {
        let mut s: EntrySlab<u32> = EntrySlab::new(1);
        // Into an empty list: both ends.
        s.push_front(0, 5);
        assert_eq!(s.iter(0).copied().collect::<Vec<_>>(), vec![5]);
        s.push_back(0, 7);
        // Ahead of every entry; the tail stays put.
        s.push_front(0, 3);
        s.push_back(0, 9);
        assert_eq!(s.iter(0).copied().collect::<Vec<_>>(), vec![3, 5, 7, 9]);
        assert_eq!(s.len(0), 4);
        assert!(s.check_invariants());
        // Drained and refilled from the front, the tail is set again.
        while s.pop_front(0).is_some() {}
        s.push_front(0, 1);
        s.push_back(0, 2);
        assert_eq!(s.iter(0).copied().collect::<Vec<_>>(), vec![1, 2]);
        assert!(s.check_invariants());
    }

    #[test]
    fn relinking_moves_nodes_without_allocating_or_freeing() {
        let mut s: EntrySlab<u32> = EntrySlab::new(3);
        for v in 0..4 {
            s.push_back(0, v);
        }
        s.push_back(1, 10);
        let (allocated, free) = (s.allocated_nodes(), s.free_nodes());
        // Head of 0 onto a non-empty and onto an empty list.
        s.move_head_to_tail(0, 1);
        s.move_head_to_tail(0, 2);
        assert_eq!(s.iter(0).copied().collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(s.iter(1).copied().collect::<Vec<_>>(), vec![10, 0]);
        assert_eq!(s.iter(2).copied().collect::<Vec<_>>(), vec![1]);
        // Same list: a rotation; a singleton stays put.
        s.move_head_to_tail(0, 0);
        s.move_head_to_tail(2, 2);
        assert_eq!(s.iter(0).copied().collect::<Vec<_>>(), vec![3, 2]);
        assert_eq!(s.iter(2).copied().collect::<Vec<_>>(), vec![1]);
        // Splice onto a non-empty list, then the lot onto an empty one.
        s.splice(0, 1);
        assert!(s.is_empty(0));
        assert_eq!(s.iter(1).copied().collect::<Vec<_>>(), vec![10, 0, 3, 2]);
        s.splice(1, 0);
        s.splice(1, 0); // empty source: no-op
        s.splice(0, 0); // onto itself: no-op
        assert_eq!(s.iter(0).copied().collect::<Vec<_>>(), vec![10, 0, 3, 2]);
        assert_eq!((s.len(0), s.len(1), s.len(2)), (4, 0, 1));
        assert_eq!((s.allocated_nodes(), s.free_nodes()), (allocated, free));
        assert!(s.check_invariants());
        // Both ends stay usable after relinking.
        s.push_back(0, 7);
        s.push_back(1, 8);
        assert_eq!(s.pop_front(0), Some(10));
        assert_eq!(s.pop_front(1), Some(8));
        assert!(s.check_invariants());
    }

    #[test]
    #[should_panic(expected = "empty source list")]
    fn move_head_of_an_empty_list_panics() {
        let mut s: EntrySlab<u32> = EntrySlab::new(2);
        s.move_head_to_tail(0, 1);
    }

    #[test]
    fn zero_count_run_is_a_no_op() {
        let mut s: EntrySlab<u32> = EntrySlab::new(1);
        s.push_back(0, 1);
        let h = s.head(0).unwrap();
        s.unlink_run(0, None, h, 0, |_| panic!("a zero-count run took a value"));
        assert_eq!(s.len(0), 1);
    }

    #[test]
    fn reserve_prewarms_without_visible_change() {
        let mut s: EntrySlab<u8> = EntrySlab::with_node_capacity(1, 16);
        s.reserve_nodes(64);
        assert_eq!(s.allocated_nodes(), 0);
        assert_eq!(s.num_lists(), 1);
        s.push_back(0, 1);
        assert_eq!(s.allocated_nodes(), 1);
    }
}
