//! Future event list with deterministic tie-breaking.
//!
//! The queue is a hierarchical timing wheel (the calendar-queue family of
//! structures used by high-throughput discrete-event simulators and kernel
//! timer subsystems), replacing the original `BinaryHeap` implementation.
//! Events pop in time order, and events of one time in *scheduling order*:
//! [`EventQueue::push`] ranks an event behind every event already pending
//! at its time (FIFO), [`EventQueue::push_front`] ahead of every one. Runs
//! stay bit-for-bit reproducible.
//!
//! # Why a wheel
//!
//! Popping or pushing a binary heap of `n` pending events costs `O(log n)`
//! comparisons *and moves* of full event payloads — at simulation scale
//! (tens of thousands of pending events, millions of total events) that is
//! the single hottest path of the engine. The wheel makes both operations
//! amortized `O(1)`: an event is appended to the tail of the bucket for its
//! firing time, and the pop path reads the earliest non-empty bucket
//! straight out of a per-level occupancy bitmap.
//!
//! # Structure
//!
//! Seven levels of 128 buckets each. A bucket at level `L` spans `128^L`
//! microseconds; an event lands at the lowest level whose bucket span still
//! separates it from the `cursor` (the firing time of the last event popped
//! from the wheel). Level-0 buckets therefore hold events of one exact
//! microsecond each. A bucket keeps the entries of each firing time in
//! scheduling order — a push appends at its tail, a `push_front` links at
//! its head, and every move between buckets keeps relative order — which
//! is all a pop needs: no node carries an insertion number, and entries of
//! different times may interleave freely. A pop takes the head of the
//! earliest level-0 bucket; when level 0 is empty the cursor moves up to
//! the earliest bucket of the lowest occupied level, and what happens
//! there depends on the bucket's shape:
//!
//! * **Single-time hand-off** (the common path). Simulated events are
//!   sparse against 1 µs buckets — a cell's events lie milliseconds
//!   apart — so the bucket the cursor reaches usually holds one firing
//!   time: a lone message or timer, or one job's probe burst. Its entries
//!   are then the wheel minimum, already in scheduling order: the head is
//!   popped where it lies, the cursor jumps to its time, and the rest of
//!   the list (if any) is spliced into that microsecond's level-0 bucket
//!   in O(1) — no other entry is visited, none is copied, and the levels
//!   in between are skipped. To know the shape without a walk the wheel
//!   tracks, per bucket, the first firing time placed since it was last
//!   empty and, per level, a bitmap of buckets that have since taken a
//!   different one.
//! * **Mixed-bucket cascade.** A bucket holding two or more distinct times
//!   is redistributed over the levels below by *relinking* its nodes in
//!   order ([`EntrySlab::move_head_to_tail`]): no value moves and the free
//!   list is not touched. A far timer can be relinked through several
//!   levels (at most six) before its bucket is single-time.
//!
//! # The cursor invariant
//!
//! *Every wheel entry at level `L` agrees with the cursor on every digit
//! above `L` and, for `L ≥ 1`, differs from it at digit `L`* (digits are
//! the 7-bit groups of the firing time), so an entry's bucket never has
//! to be recomputed while it waits. A level-0 pop moves the cursor inside
//! its level-0 window and changes no higher digit. Emptying a higher
//! bucket moves it further — a cascade to the start of the bucket's
//! window, a hand-off to the bucket's one firing time — but either way
//! the new cursor lies between the old one and every remaining entry,
//! inside the window of the bucket just emptied. That bucket was the
//! earliest of the lowest occupied level `L`, so the cursor's digits above
//! `L` are unchanged and its digit `L` becomes that bucket's slot, which
//! every other level-`L` entry exceeds: the remaining entries of level `L`
//! and above still first differ from the cursor exactly where they did,
//! and the levels below `L` hold only what the move just put there.
//!
//! Two small binary heaps catch the edges the wheel does not cover:
//!
//! * `past` — events pushed with a time before the cursor. [`Engine`]
//!   (which clamps schedule times to *now*) never produces these, but a
//!   bare `EventQueue` accepts them, exactly as the heap implementation
//!   did.
//! * `overflow` — events more than `128^7` µs (≈ 17 simulated years) beyond
//!   the cursor. They re-enter the wheel only once it has drained, in heap
//!   order, so appending keeps each time's entries in scheduling order.
//!
//! The cursor invariant puts every pending entry of one firing time in the
//! same place — one wheel bucket or one heap — so linking a `push_front`
//! at the head of that bucket ranks it ahead of all of them. The heaps,
//! which have no lists, rank by a signed sequence number instead: a push
//! takes the next one up, a `push_front` the negative of it, below every
//! number handed out before.
//!
//! [`Engine`]: crate::Engine

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::slab::EntrySlab;
use crate::time::SimTime;

/// Bits per wheel level: 128 buckets each (occupancy fits one `u128`).
const LEVEL_BITS: u32 = 7;

/// Buckets per level.
const SLOTS: usize = 1 << LEVEL_BITS;

/// Number of levels; the wheel spans `2^(7·7)` µs ≈ 17 simulated years
/// past the cursor before the overflow heap takes over. Wider levels keep
/// events from cascading through as many intermediate buckets: a constant
/// +0.5 ms network hop lands one level up, a task-finish timer at most
/// four.
const LEVELS: usize = 7;

/// A pending event in the `past`/`overflow` heaps: fires at `time`; `seq`
/// breaks ties in scheduling order (negative for a `push_front`).
struct Scheduled<E> {
    time: SimTime,
    seq: i64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first. Equal timestamps pop in scheduling order, which makes runs
        // bit-for-bit reproducible.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// One wheel entry: `(firing micros, event)`.
type Entry<E> = (u64, E);

/// A min-ordered future event list.
///
/// Events scheduled for the same [`SimTime`] are delivered in the order they
/// were scheduled (FIFO), except that [`EventQueue::push_front`] jumps the
/// line; this keeps simulations deterministic without requiring `E: Ord`.
///
/// # Examples
///
/// ```
/// use hawk_simcore::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(2), "late");
/// q.push(SimTime::from_secs(1), "early");
/// q.push(SimTime::from_secs(1), "early-second");
///
/// assert_eq!(q.pop().unwrap().1, "early");
/// assert_eq!(q.pop().unwrap().1, "early-second");
/// assert_eq!(q.pop().unwrap().1, "late");
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<E> {
    /// Bucket storage: one slab arena whose list `level * SLOTS + slot`
    /// holds that bucket's pending entries, each time's in scheduling
    /// order. Nodes recycle through the slab's free list, so the wheel
    /// allocates only when the
    /// pending-event population reaches a new peak, and then by doubling
    /// (the slab's growth contract) — the steady-state schedule/pop/cascade
    /// cycle performs zero heap allocations (enforced by
    /// `tests/alloc_regression.rs` at the workspace root).
    wheel: EntrySlab<Entry<E>>,
    /// Per-level bitmap of non-empty buckets.
    occupied: [u128; LEVELS],
    /// Per-level bitmap of buckets holding at least two distinct firing
    /// times (never set at level 0, whose buckets are one microsecond
    /// wide). A bucket above level 0 only ever empties wholesale, so the
    /// bit is exact, not conservative.
    mixed: [u128; LEVELS],
    /// Per bucket, the firing time (µs) of the first entry placed since
    /// the bucket was last empty: the time of *every* entry while the
    /// bucket's `mixed` bit is clear. Meaningless for an empty bucket.
    first: [u64; LEVELS * SLOTS],
    /// The wheel floor: the firing time (µs) of the last event popped from
    /// the wheel. Every wheel entry fires at or after this time.
    cursor: u64,
    /// Events pushed with a firing time before the cursor.
    past: BinaryHeap<Scheduled<E>>,
    /// Events beyond the wheel span; strictly later than every wheel entry.
    overflow: BinaryHeap<Scheduled<E>>,
    len: usize,
    /// Events ever scheduled: the heaps' next sequence number.
    scheduled: i64,
}

/// The wheel level for an event at `t` µs given the cursor: the position of
/// the highest differing bit, in `LEVEL_BITS`-wide digits. `LEVELS` or more
/// means the event is beyond the wheel span (overflow).
fn level_for(t: u64, cursor: u64) -> usize {
    let diff = t ^ cursor;
    if diff == 0 {
        0
    } else {
        ((63 - diff.leading_zeros()) / LEVEL_BITS) as usize
    }
}

impl<E: Copy> EventQueue<E> {
    /// Bytes a pending event takes in the wheel's arena: its firing time,
    /// the event and the bucket link ([`EntrySlab::NODE_BYTES`]).
    pub const NODE_BYTES: usize = EntrySlab::<Entry<E>>::NODE_BYTES;

    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            wheel: EntrySlab::new(LEVELS * SLOTS),
            occupied: [0; LEVELS],
            mixed: [0; LEVELS],
            first: [0; LEVELS * SLOTS],
            cursor: 0,
            past: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            len: 0,
            scheduled: 0,
        }
    }

    /// Creates an empty queue whose bucket arena starts with room for
    /// `capacity` simultaneously pending events — the floor of the slab's
    /// growth contract (what is about to be seeded, not a worst case).
    pub fn with_capacity(capacity: usize) -> Self {
        let mut q = Self::new();
        q.wheel.reserve_nodes(capacity);
        q
    }

    /// Schedules `event` to fire at `time`, behind every event already
    /// pending at that time.
    pub fn push(&mut self, time: SimTime, event: E) {
        self.schedule(time, event, false);
    }

    /// Schedules `event` to fire at `time`, ahead of every event already
    /// pending at that time: it links at the head of the time's bucket
    /// where [`EventQueue::push`] appends at the tail.
    pub fn push_front(&mut self, time: SimTime, event: E) {
        self.schedule(time, event, true);
    }

    /// Both pushes. Always inlined, so `front` is a constant in each and
    /// the hot `push` carries no test of it.
    #[inline(always)]
    fn schedule(&mut self, time: SimTime, event: E, front: bool) {
        let n = self.scheduled;
        self.scheduled += 1;
        let seq = if front { -n - 1 } else { n };
        self.len += 1;
        let t = time.as_micros();
        if t < self.cursor {
            self.past.push(Scheduled { time, seq, event });
        } else if let Some((level, slot)) = self.bucket_of(t) {
            let bucket = level * SLOTS + slot;
            if front {
                self.wheel.push_front(bucket, (t, event));
            } else {
                self.wheel.push_back(bucket, (t, event));
            }
            self.note_placed(level, slot, t);
        } else {
            self.overflow.push(Scheduled { time, seq, event });
        }
    }

    /// The `(level, slot)` of the bucket for an entry at `t >= cursor`, or
    /// `None` when it is beyond the wheel span.
    #[inline]
    fn bucket_of(&self, t: u64) -> Option<(usize, usize)> {
        debug_assert!(t >= self.cursor);
        let level = level_for(t, self.cursor);
        let slot = ((t >> (LEVEL_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        (level < LEVELS).then_some((level, slot))
    }

    /// Records that an entry firing at `t` was linked into bucket
    /// `(level, slot)`: occupancy, the bucket's first time, its mixed bit.
    #[inline]
    fn note_placed(&mut self, level: usize, slot: usize, t: u64) {
        let bit = 1u128 << slot;
        let first = &mut self.first[level * SLOTS + slot];
        if self.occupied[level] & bit == 0 {
            self.occupied[level] |= bit;
            *first = t;
        } else if *first != t {
            self.mixed[level] |= bit;
        }
    }

    /// Moves every overflow event now within the wheel span back into the
    /// wheel. Called only after the wheel drained and the cursor jumped to
    /// the overflow minimum (overflow events are strictly later than every
    /// wheel entry, so they can never become due while the wheel still
    /// holds anything). The heap yields each time's events in scheduling
    /// order, so appending them into the empty wheel keeps that order.
    fn rebucket_overflow(&mut self) {
        while let Some(s) = self.overflow.peek() {
            let t = s.time.as_micros();
            let Some((level, slot)) = self.bucket_of(t) else {
                break;
            };
            let s = self.overflow.pop().expect("peeked entry exists");
            self.wheel.push_back(level * SLOTS + slot, (t, s.event));
            self.note_placed(level, slot, t);
        }
    }

    /// Removes and returns the earliest event, or `None` if empty.
    ///
    /// Kept out of line: inlined into a driver's event loop (through
    /// [`crate::Engine::pop`]) the wheel walk crowds the handlers out of
    /// registers — measured +5 % wall-clock on the 15k-node Hawk cell.
    #[inline(never)]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        // Past events fire strictly before the cursor, and so before every
        // wheel or overflow entry.
        if let Some(s) = self.past.pop() {
            return Some((s.time, s.event));
        }
        loop {
            // Fast path: a level-0 bucket holds events of one exact
            // microsecond, already in scheduling order.
            if self.occupied[0] != 0 {
                let slot = self.occupied[0].trailing_zeros() as usize;
                let (t, event) = self
                    .wheel
                    .pop_front(slot)
                    .expect("occupied bucket is non-empty");
                if self.wheel.is_empty(slot) {
                    self.occupied[0] &= !(1 << slot);
                }
                self.cursor = t;
                return Some((SimTime::from_micros(t), event));
            }
            // The cursor reaches the earliest bucket of the lowest
            // occupied level; every level below it is empty.
            if let Some(level) = (1..LEVELS).find(|&l| self.occupied[l] != 0) {
                let slot = self.occupied[level].trailing_zeros() as usize;
                let bit = 1u128 << slot;
                let bucket = level * SLOTS + slot;
                if self.mixed[level] & bit == 0 {
                    // One firing time: these entries are the wheel minimum,
                    // in scheduling order. Pop the head where it lies and
                    // hand the rest of the list, if any, to that
                    // microsecond's (empty) level-0 bucket.
                    self.occupied[level] &= !bit;
                    let (t, event) = self
                        .wheel
                        .pop_front(bucket)
                        .expect("occupied bucket is non-empty");
                    if !self.wheel.is_empty(bucket) {
                        let slot0 = (t & (SLOTS as u64 - 1)) as usize;
                        self.wheel.splice(bucket, slot0);
                        self.occupied[0] |= 1 << slot0;
                        self.first[slot0] = t;
                    }
                    self.cursor = t;
                    return Some((SimTime::from_micros(t), event));
                }
                // Several times: advance the cursor to the bucket's window
                // start and relink each node, in order (so each time keeps
                // its scheduling order), into its bucket below `level`.
                let span = 1u64 << (LEVEL_BITS * level as u32);
                let window_start = self.first[bucket] & !(span - 1);
                debug_assert!(window_start >= self.cursor);
                self.occupied[level] &= !bit;
                self.mixed[level] &= !bit;
                self.cursor = window_start;
                while let Some(node) = self.wheel.head(bucket) {
                    let t = self.wheel.value(node).0;
                    let (l, s) = self
                        .bucket_of(t)
                        .expect("a cascading entry lands below its level");
                    self.wheel.move_head_to_tail(bucket, l * SLOTS + s);
                    self.note_placed(l, s, t);
                }
                continue;
            }
            // Wheel drained: jump to the overflow minimum and refill.
            let next = self
                .overflow
                .peek()
                .expect("len > 0 with empty past and wheel implies overflow events")
                .time
                .as_micros();
            self.cursor = next;
            self.rebucket_overflow();
        }
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns true if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<E: Copy> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The module-level cursor invariant plus the bookkeeping around it,
    /// recomputed from the lists: occupancy, same-time entries in
    /// scheduling order, `first`, `mixed`. Payloads stand for scheduling
    /// order: every test pushes ascending values, and `push_front`s a value
    /// below every pending one.
    fn assert_invariants<E: Copy + Ord + std::fmt::Debug>(q: &EventQueue<E>) {
        let mut in_wheel = 0;
        for level in 0..LEVELS {
            for slot in 0..SLOTS {
                let bucket = level * SLOTS + slot;
                let entries: Vec<(u64, E)> = q.wheel.iter(bucket).copied().collect();
                in_wheel += entries.len();
                let bit = 1u128 << slot;
                assert_eq!(q.occupied[level] & bit != 0, !entries.is_empty());
                if entries.is_empty() {
                    assert_eq!(q.mixed[level] & bit, 0, "stale mixed bit");
                    continue;
                }
                for &(t, _) in &entries {
                    assert!(t >= q.cursor);
                    assert_eq!(
                        q.bucket_of(t),
                        Some((level, slot)),
                        "entry in the wrong bucket"
                    );
                }
                let mut last_of_time = std::collections::BTreeMap::new();
                for &(t, e) in &entries {
                    if let Some(before) = last_of_time.insert(t, e) {
                        assert!(before < e, "{before:?} before {e:?} at {t} µs");
                    }
                }
                assert!(entries.iter().any(|&(t, _)| t == q.first[bucket]));
                let distinct = entries.iter().any(|&(t, _)| t != q.first[bucket]);
                assert_eq!(q.mixed[level] & bit != 0, distinct, "mixed bit is exact");
            }
        }
        assert_eq!(q.mixed[0], 0);
        assert!(q
            .overflow
            .iter()
            .all(|s| q.bucket_of(s.time.as_micros()).is_none()));
        assert_eq!(q.len, in_wheel + q.past.len() + q.overflow.len());
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for t in [5u64, 1, 3, 2, 4] {
            q.push(SimTime::from_secs(t), t);
        }
        let mut out = Vec::new();
        while let Some((_, e)) = q.pop() {
            out.push(e);
        }
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn len_counts_pending_events() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(7), ());
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        assert_eq!(q.pop(), Some((SimTime::from_secs(7), ())));
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(10), "a");
        q.push(SimTime::from_secs(20), "b");
        assert_eq!(q.pop().unwrap().1, "a");
        q.push(SimTime::from_secs(15), "c");
        q.push(SimTime::from_secs(5), "d");
        assert_eq!(q.pop().unwrap().1, "d");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "b");
    }

    #[test]
    fn push_before_cursor_still_pops_first() {
        // A bare queue accepts times before the last popped time; such
        // events pop before everything else, as with the old binary heap.
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(100), "late");
        q.push(SimTime::from_micros(200), "later");
        assert_eq!(q.pop().unwrap().1, "late");
        q.push(SimTime::from_micros(50), "past-a");
        q.push(SimTime::from_micros(60), "past-b");
        q.push(SimTime::from_micros(50), "past-a2");
        assert_eq!(q.pop().unwrap(), (SimTime::from_micros(50), "past-a"));
        assert_eq!(q.pop().unwrap(), (SimTime::from_micros(50), "past-a2"));
        assert_eq!(q.pop().unwrap(), (SimTime::from_micros(60), "past-b"));
        assert_eq!(q.pop().unwrap().1, "later");
        assert!(q.pop().is_none());
    }

    #[test]
    fn far_future_events_overflow_and_return() {
        // 2^43 µs is beyond the wheel span from cursor 0: exercises the
        // overflow heap and the cursor jump that refills the wheel.
        let far = 1u64 << 43;
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(far + 7), "far-b");
        q.push(SimTime::from_micros(far), "far-a");
        q.push(SimTime::from_micros(3), "near");
        assert_eq!(q.pop().unwrap(), (SimTime::from_micros(3), "near"));
        assert_eq!(q.pop().unwrap(), (SimTime::from_micros(far), "far-a"));
        assert_eq!(q.pop().unwrap(), (SimTime::from_micros(far + 7), "far-b"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn cascades_preserve_fifo_within_equal_times() {
        // Events at the same far time land in a high-level bucket together
        // and must still pop in push order after cascading.
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(1_000_000_007);
        for i in 0..50 {
            q.push(t, i);
        }
        q.push(SimTime::from_micros(5), 999);
        assert_eq!(q.pop().unwrap().1, 999);
        for i in 0..50 {
            assert_eq!(q.pop().unwrap(), (t, i));
        }
    }

    #[test]
    fn single_time_bucket_is_handed_to_level_zero_whole() {
        // A burst at one far time sits in one high-level bucket. The first
        // pop hands the whole list to level 0 without cascading; zero-delay
        // pushes at the popped time then queue behind the rest of it.
        let t = SimTime::from_micros(3 << 30);
        let mut q = EventQueue::new();
        for i in 0..5 {
            q.push(t, i);
        }
        q.push(SimTime::from_micros(5 << 30), 100);
        assert_eq!(q.mixed, [0; LEVELS], "each bucket holds one time");
        assert_eq!(q.pop(), Some((t, 0)));
        assert_eq!(
            q.cursor,
            t.as_micros(),
            "the cursor jumped to the exact time"
        );
        assert_eq!(q.wheel.len((t.as_micros() & 127) as usize), 4);
        assert_invariants(&q);
        q.push(t, 5);
        q.push(t, 6);
        assert_invariants(&q);
        for i in 1..=6 {
            assert_eq!(q.pop(), Some((t, i)));
        }
        // The survivor was never touched: it still sits where the cursor
        // invariant says, and pops by a hand-off of its own.
        assert_invariants(&q);
        assert_eq!(q.pop().unwrap().1, 100);
        assert!(q.pop().is_none());
    }

    #[test]
    fn mixed_bucket_cascades_by_relinking_in_order() {
        // Three times in one level-2 bucket, interleaved in push order;
        // the cascade must keep FIFO inside each time and allocate no node.
        let base = 5u64 << 14;
        let mut q = EventQueue::new();
        let times = [base + 300, base + 7, base + 300, base + 7, base + 9_000];
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_micros(t), i);
        }
        assert_invariants(&q);
        assert_ne!(q.mixed[2], 0);
        let nodes = q.wheel.allocated_nodes();
        let popped: Vec<usize> = std::iter::from_fn(|| {
            let e = q.pop().map(|(_, e)| e);
            assert_invariants(&q);
            e
        })
        .collect();
        assert_eq!(popped, vec![1, 3, 0, 2, 4]);
        assert_eq!(q.wheel.allocated_nodes(), nodes);
    }

    #[test]
    fn overflow_reentry_restores_seq_order_inside_a_bucket() {
        // The overflow heap returns events time-first, so event 1 (fires at
        // +2) enters the wheel bucket ahead of event 0 (+5), pushed before
        // it: a bucket keeps only each time's entries in scheduling order,
        // and the heap yields them that way — the `push_front` first.
        let far = 1u64 << 55;
        let at = |d: u64| SimTime::from_micros(far + (1 << 20) + d);
        let mut q = EventQueue::new();
        q.push(at(5), 0);
        q.push(at(2), 1);
        q.push(at(5), 2);
        q.push_front(at(5), -1);
        q.push(SimTime::from_micros(far), 3);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_invariants(&q);
        let popped: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(popped, vec![1, -1, 0, 2]);
    }

    /// A `push_front` pops first among its time's entries — the latest
    /// one first — wherever they wait: a mixed higher-level bucket, the
    /// level-0 bucket a cascade left, the past heap.
    #[test]
    fn push_front_jumps_every_pending_entry_of_its_time() {
        let t = SimTime::from_micros(5 << 14);
        let later = SimTime::from_micros((5 << 14) + 300);
        let mut q = EventQueue::new();
        q.push(t, 1);
        q.push(later, 9);
        q.push(t, 3);
        q.push_front(t, 0);
        q.push_front(t, -1);
        assert_ne!(q.mixed[2], 0, "t and later share one level-2 bucket");
        assert_invariants(&q);
        assert_eq!(q.pop(), Some((t, -1)));
        assert_invariants(&q);
        q.push(t, 4);
        q.push_front(t, -2);
        assert_invariants(&q);
        for e in [-2, 0, 1, 3, 4] {
            assert_eq!(q.pop(), Some((t, e)));
        }
        assert_eq!(q.pop(), Some((later, 9)));
        let past = SimTime::from_micros(7);
        q.push(past, 10);
        q.push_front(past, 8);
        q.push(past, 11);
        q.push_front(past, 7);
        let popped: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(popped, vec![7, 8, 10, 11]);
    }

    #[test]
    fn large_random_workload_pops_sorted() {
        use crate::rng::SimRng;
        let mut rng = SimRng::seed_from_u64(0xCAFE);
        let mut q = EventQueue::new();
        // Mixed magnitudes: same-µs bursts, near future, and overflow-range
        // times, interleaved with pops.
        let mut pending = 0usize;
        let mut last: Option<(SimTime, u64)> = None;
        for round in 0u64..10_000 {
            let t = match rng.index(4) {
                0 => rng.gen_range(0, 100),
                1 => rng.gen_range(0, 1_000_000),
                2 => rng.gen_range(0, 1 << 30),
                _ => rng.gen_range(1 << 40, 1 << 45),
            };
            // Clamp to the queue's monotone regime (engine semantics).
            let t = SimTime::from_micros(t.max(last.map_or(0, |(lt, _)| lt.as_micros())));
            q.push(t, round);
            pending += 1;
            if round % 3 == 0 {
                let (pt, seq) = q.pop().unwrap();
                if round % 4 == 0 {
                    assert_invariants(&q);
                }
                pending -= 1;
                if let Some((lt, lseq)) = last {
                    assert!(pt > lt || (pt == lt && seq > lseq), "order violated");
                }
                last = Some((pt, seq));
            }
        }
        while let Some((pt, seq)) = q.pop() {
            pending -= 1;
            if let Some((lt, lseq)) = last {
                assert!(pt > lt || (pt == lt && seq > lseq), "order violated");
            }
            last = Some((pt, seq));
        }
        assert_eq!(pending, 0);
        assert_eq!(q.len(), 0);
    }
}
