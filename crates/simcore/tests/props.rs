//! Property-based tests for the simulation substrate.

use proptest::prelude::*;

use std::collections::VecDeque;

use hawk_simcore::stats::percentile;
use hawk_simcore::{Engine, EntrySlab, EventQueue, IndexedMinHeap, SimDuration, SimRng, SimTime};

/// One step on an [`EntrySlab`] of four lists: a push, a pop, or one of
/// the two relinks the timing wheel cascades with (the head of `src` onto
/// the tail of `dst`; all of `src` onto `dst`).
fn slab_ops() -> impl Strategy<Value = Vec<(u8, u8, u8)>> {
    proptest::collection::vec((0u8..4, 0u8..4, 0u8..4), 1..200)
}

/// One step of a generated queue workload.
#[derive(Debug, Clone)]
enum QueueOp {
    /// Schedule an event this many µs past an era base chosen to exercise
    /// every wheel path (same-µs buckets, near future, cascade range,
    /// beyond-span overflow).
    Push(u64),
    /// The same, ahead of every event pending at that time.
    PushFront(u64),
    Pop,
    /// `k` events at one far time (a job's probe burst), then `pops` pops,
    /// each followed by a zero-delay push at the popped time — a
    /// `push_front` when `front`, the way a harness streams the next of
    /// several same-time arrivals. Alone in its bucket the burst takes the
    /// single-time hand-off (and the zero-delay pushes must queue behind,
    /// or ahead of, what is left of it); sharing a bucket with `Push`es of
    /// the same era it cascades by relinking; in the overflow era it
    /// re-enters the wheel from the heap.
    Burst {
        at: u64,
        k: u8,
        pops: u8,
        front: bool,
    },
}

/// Eras: exact-tie region, one-bucket region, cascade region, overflow
/// region (beyond the wheel span of 2^49 µs).
const ERAS: [u64; 4] = [0, 1 << 10, 1 << 30, 1 << 55];

fn queue_ops() -> impl Strategy<Value = Vec<QueueOp>> {
    let op = (0u8..6, 0u64..4, 0u64..200, 1u8..6).prop_map(|(kind, era, fine, k)| match kind {
        0 => QueueOp::Pop,
        1 => QueueOp::PushFront(ERAS[era as usize] + fine),
        // Bursts land in the cascade and overflow eras only.
        5 => QueueOp::Burst {
            at: ERAS[2 + era as usize % 2] + fine,
            k,
            pops: (fine % 8) as u8,
            front: fine / 8 % 2 == 1,
        },
        _ => QueueOp::Push(ERAS[era as usize] + fine),
    });
    proptest::collection::vec(op, 1..300)
}

/// The wheel next to its model: the pending `(time, id)` pairs as a list
/// in pop order. A push goes behind every pending entry of its time, a
/// `push_front` ahead of every one; a pop takes the head.
struct Modelled {
    queue: EventQueue<u64>,
    pending: Vec<(u64, u64)>,
    next_id: u64,
    /// Last popped time: the monotone push clamp.
    last: Option<u64>,
}

impl Modelled {
    /// Pushes at `t` (to the front of its time when `front`), clamped to
    /// the engine's monotone regime (never before the last pop), like
    /// `Engine::schedule_at` guarantees.
    fn push(&mut self, t: u64, front: bool) {
        let t = t.max(self.last.unwrap_or(0));
        let id = self.next_id;
        self.next_id += 1;
        let at = if front {
            self.queue.push_front(SimTime::from_micros(t), id);
            self.pending.partition_point(|&(p, _)| p < t)
        } else {
            self.queue.push(SimTime::from_micros(t), id);
            self.pending.partition_point(|&(p, _)| p <= t)
        };
        self.pending.insert(at, (t, id));
    }

    /// Pops, checking the result against the model's head and the clock's
    /// monotonicity.
    fn pop(&mut self) -> Option<u64> {
        let expect = (!self.pending.is_empty()).then(|| self.pending.remove(0));
        let got = self.queue.pop().map(|(t, id)| (t.as_micros(), id));
        prop_assert_eq!(got, expect);
        if let (Some((now, _)), Some(before)) = (got, self.last) {
            prop_assert!(now >= before, "the clock regressed");
        }
        self.last = got.map(|(t, _)| t).or(self.last);
        got.map(|(t, _)| t)
    }
}

proptest! {
    /// The timing-wheel queue pops every pending event in time order, each
    /// time's events in scheduling order (`push` FIFO, `push_front` ahead
    /// of everything pending at its time), under arbitrary interleaved
    /// push / push_front / pop sequences — in the wheel and in the
    /// overflow heap alike — matching a sorted-list model exactly.
    #[test]
    fn wheel_queue_matches_sorted_model(ops in queue_ops()) {
        let mut m = Modelled {
            queue: EventQueue::new(),
            pending: Vec::new(),
            next_id: 0,
            last: None,
        };
        for op in ops {
            match op {
                QueueOp::Push(t) => m.push(t, false),
                QueueOp::PushFront(t) => m.push(t, true),
                QueueOp::Pop => {
                    m.pop();
                }
                QueueOp::Burst { at, k, pops, front } => {
                    for _ in 0..k {
                        m.push(at, false);
                    }
                    for _ in 0..pops {
                        if let Some(now) = m.pop() {
                            m.push(now, front);
                        }
                    }
                }
            }
            prop_assert_eq!(m.queue.len(), m.pending.len());
        }
        // Drain the remainder: still perfectly sorted and complete.
        while !m.pending.is_empty() {
            m.pop();
        }
        prop_assert!(m.queue.pop().is_none());
        prop_assert_eq!(m.queue.len(), 0);
    }

    /// The slab's lists read like one `VecDeque` each under pushes, pops
    /// and both relinks (a relink onto its own list rotates it, a splice
    /// onto itself is a no-op), and relinking never allocates a node.
    #[test]
    fn entry_slab_relinks_match_vecdeque_model(ops in slab_ops()) {
        let mut slab: EntrySlab<u32> = EntrySlab::new(4);
        let mut model: Vec<VecDeque<u32>> = vec![VecDeque::new(); 4];
        for (next, (kind, src, dst)) in (0u32..).zip(ops) {
            let (src, dst) = (src as usize, dst as usize);
            match kind {
                0 => {
                    slab.push_back(src, next);
                    model[src].push_back(next);
                }
                1 => prop_assert_eq!(slab.pop_front(src), model[src].pop_front()),
                2 => {
                    if let Some(v) = model[src].pop_front() {
                        model[dst].push_back(v);
                        slab.move_head_to_tail(src, dst);
                    }
                }
                _ => {
                    if src != dst {
                        let moved = std::mem::take(&mut model[src]);
                        model[dst].extend(moved);
                    }
                    slab.splice(src, dst);
                }
            }
            prop_assert!(slab.check_invariants());
            for (list, m) in model.iter().enumerate() {
                prop_assert!(slab.iter(list).eq(m.iter()), "list {list} diverged");
            }
            let live: usize = model.iter().map(VecDeque::len).sum();
            prop_assert_eq!(slab.allocated_nodes(), live + slab.free_nodes());
        }
    }

    /// The engine clock is monotone non-decreasing across any schedule of
    /// delays, including zero delays and large jumps.
    #[test]
    fn engine_clock_never_regresses(
        delays in proptest::collection::vec(0u64..1 << 40, 1..100),
    ) {
        let mut e: Engine<u32> = Engine::new();
        let mut clock = SimTime::ZERO;
        for (i, &d) in delays.iter().enumerate() {
            e.schedule(SimDuration::from_micros(d), i as u32);
            // Interleave pops with schedules to move the clock forward.
            if i % 2 == 0 {
                if let Some((t, _)) = e.pop() {
                    prop_assert!(t >= clock, "clock regressed: {t} < {clock}");
                    prop_assert_eq!(e.now(), t);
                    clock = t;
                }
            }
        }
        while let Some((t, _)) = e.pop() {
            prop_assert!(t >= clock);
            clock = t;
        }
    }
    /// Events pop in non-decreasing time order, FIFO among equal times.
    #[test]
    fn event_queue_is_a_stable_priority_queue(
        times in proptest::collection::vec(0u64..1_000, 1..200),
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_micros(t), (t, i));
        }
        let mut last: Option<(u64, usize)> = None;
        while let Some((at, (t, i))) = q.pop() {
            prop_assert_eq!(at, SimTime::from_micros(t));
            if let Some((lt, li)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(i > li, "FIFO violated for equal times");
                }
            }
            last = Some((t, i));
        }
    }

    /// The indexed heap agrees with a naive argmin after any op sequence.
    #[test]
    fn indexed_heap_matches_naive(
        n in 1usize..40,
        ops in proptest::collection::vec((0usize..40, 0u64..10_000, 0u8..3), 1..200),
    ) {
        let mut heap = IndexedMinHeap::new(n, 0);
        let mut naive = vec![0u64; n];
        for (id, value, kind) in ops {
            let id = id % n;
            match kind {
                0 => {
                    heap.add(id, value);
                    naive[id] += value;
                }
                1 => {
                    heap.sub(id, value);
                    naive[id] = naive[id].saturating_sub(value);
                }
                _ => {
                    heap.set(id, value);
                    naive[id] = value;
                }
            }
            let expect = (0..n).min_by_key(|&i| (naive[i], i)).unwrap();
            prop_assert_eq!(heap.min_id(), expect);
            prop_assert_eq!(heap.min_key(), naive[expect]);
            prop_assert!(heap.check_invariants());
        }
    }

    /// `gen_range` respects bounds for arbitrary non-empty ranges.
    #[test]
    fn rng_range_bounds(seed in any::<u64>(), lo in 0u64..1_000_000, span in 1u64..1_000_000) {
        let mut rng = SimRng::seed_from_u64(seed);
        for _ in 0..50 {
            let x = rng.gen_range(lo, lo + span);
            prop_assert!(x >= lo && x < lo + span);
        }
    }

    /// `sample_distinct` returns exactly `k` distinct in-bounds indices.
    #[test]
    fn rng_sample_distinct_props(seed in any::<u64>(), n in 1usize..500, k_frac in 0.0f64..1.0) {
        let k = ((n as f64) * k_frac) as usize;
        let mut rng = SimRng::seed_from_u64(seed);
        let s = rng.sample_distinct(n, k);
        prop_assert_eq!(s.len(), k);
        let set: std::collections::HashSet<_> = s.iter().collect();
        prop_assert_eq!(set.len(), k);
        prop_assert!(s.iter().all(|&i| i < n));
    }

    /// The median lies between the 25th and 75th percentiles.
    #[test]
    fn percentile_ordering(values in proptest::collection::vec(0.0f64..1e9, 1..100)) {
        let p25 = percentile(&values, 25.0).unwrap();
        let p50 = percentile(&values, 50.0).unwrap();
        let p75 = percentile(&values, 75.0).unwrap();
        prop_assert!(p25 <= p50 + 1e-9);
        prop_assert!(p50 <= p75 + 1e-9);
    }

    /// Identical seeds generate identical streams; the stream is unchanged
    /// by interleaved splits (split consumes exactly one draw).
    #[test]
    fn rng_streams_reproducible(seed in any::<u64>()) {
        let mut a = SimRng::seed_from_u64(seed);
        let mut b = SimRng::seed_from_u64(seed);
        let _ = a.split();
        let _ = b.next_u64();
        for _ in 0..20 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
