//! Property tests for the slab-backed queues: [`QueueSlab`]'s per-server
//! intrusive lists must behave exactly like independent `VecDeque`s under
//! arbitrary interleavings of pushes, pops, steal-style mid-queue drains,
//! single-entry unlinks and the two list-to-list relinks the timing wheel
//! cascades with — and the arena must recycle nodes (no growth once the
//! live population has peaked).
//!
//! The model is the literal pre-slab representation (one `VecDeque` per
//! server), so these tests pin the storage swap's behavioral equivalence
//! the same way `index_props.rs` pins the incremental indexes against
//! brute force.

use std::collections::VecDeque;

use proptest::prelude::*;

use hawk_cluster::steal::{steal_from_with_into, StealGranularity, StealScratch};
use hawk_cluster::{QueueEntry, QueueSlab, Server, ServerId, TaskSpec};
use hawk_simcore::{SimDuration, SimRng};
use hawk_workload::{JobClass, JobId};

fn entry(long: bool, id: u32) -> QueueEntry {
    if long {
        QueueEntry::Task(TaskSpec {
            job: JobId(id),
            duration: SimDuration::from_secs(1_000),
            estimate: SimDuration::from_secs(1_000),
            class: JobClass::Long,
            task: 0,
            attempt: 0,
        })
    } else {
        QueueEntry::Probe {
            job: JobId(id),
            class: JobClass::Short,
        }
    }
}

/// Raw slab vs `VecDeque` model: push/pop/mid-queue drains on several
/// lists at once.
#[derive(Debug, Clone, Copy)]
enum Op {
    Push {
        list: u8,
        long: bool,
    },
    PopFront {
        list: u8,
    },
    /// Remove `count` entries starting at `start` (clamped to the list).
    DrainRun {
        list: u8,
        start: u8,
        count: u8,
    },
    /// Remove the single entry at `pos` (clamped).
    UnlinkOne {
        list: u8,
        pos: u8,
    },
    /// Relink the head of `src` (if any) onto the tail of `dst`.
    MoveHead {
        src: u8,
        dst: u8,
    },
    /// Append all of `src` to `dst`.
    Splice {
        src: u8,
        dst: u8,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..4, any::<bool>()).prop_map(|(list, long)| Op::Push { list, long }),
        (0u8..4).prop_map(|list| Op::PopFront { list }),
        (0u8..4, 0u8..12, 0u8..6).prop_map(|(list, start, count)| Op::DrainRun {
            list,
            start,
            count
        }),
        (0u8..4, 0u8..12).prop_map(|(list, pos)| Op::UnlinkOne { list, pos }),
        (0u8..4, 0u8..4).prop_map(|(src, dst)| Op::MoveHead { src, dst }),
        (0u8..4, 0u8..4).prop_map(|(src, dst)| Op::Splice { src, dst }),
    ]
}

/// Finds `(prev, node)` for the entry at queue position `pos` of `list`.
fn node_at(slab: &QueueSlab, list: usize, pos: usize) -> (Option<u32>, u32) {
    let mut prev = None;
    let mut cur = slab.head(list).expect("position exists");
    for _ in 0..pos {
        prev = Some(cur);
        cur = slab.next(cur).expect("position exists");
    }
    (prev, cur)
}

/// Drains `count` entries of `list` starting at position `start` via the
/// slab's run-unlink, mirroring `VecDeque::drain(start..start + count)`.
fn slab_drain(slab: &mut QueueSlab, list: usize, start: usize, count: usize) -> Vec<QueueEntry> {
    let mut out = Vec::new();
    if count > 0 {
        let (prev, node) = node_at(slab, list, start);
        slab.unlink_run_into(list, prev, node, count, &mut out);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every list's contents match its `VecDeque` model after every op,
    /// and the arena never holds more nodes than the peak live population.
    #[test]
    fn slab_lists_match_vecdeque_model(ops in proptest::collection::vec(arb_op(), 1..200)) {
        const LISTS: usize = 4;
        let mut slab: QueueSlab = QueueSlab::new(LISTS);
        let mut model: Vec<VecDeque<QueueEntry>> = vec![VecDeque::new(); LISTS];
        let mut next_id = 0u32;
        let mut peak_live = 0usize;

        for op in ops {
            match op {
                Op::Push { list, long } => {
                    let list = list as usize % LISTS;
                    let e = entry(long, next_id);
                    next_id += 1;
                    slab.push_back(list, e);
                    model[list].push_back(e);
                }
                Op::PopFront { list } => {
                    let list = list as usize % LISTS;
                    prop_assert_eq!(slab.pop_front(list), model[list].pop_front());
                }
                Op::DrainRun { list, start, count } => {
                    let list = list as usize % LISTS;
                    let len = model[list].len();
                    let start = (start as usize).min(len);
                    let count = (count as usize).min(len - start);
                    let expect: Vec<QueueEntry> =
                        model[list].drain(start..start + count).collect();
                    let got = slab_drain(&mut slab, list, start, count);
                    prop_assert_eq!(got, expect);
                }
                Op::UnlinkOne { list, pos } => {
                    let list = list as usize % LISTS;
                    let len = model[list].len();
                    if len == 0 {
                        continue;
                    }
                    let pos = (pos as usize).min(len - 1);
                    let expect = model[list].remove(pos).expect("pos in range");
                    let (prev, node) = node_at(&slab, list, pos);
                    let got = slab.unlink_after(list, prev, node);
                    prop_assert_eq!(got, expect);
                }
                Op::MoveHead { src, dst } => {
                    let (src, dst) = (src as usize % LISTS, dst as usize % LISTS);
                    // Same list: a rotation, in the model as in the slab.
                    if let Some(e) = model[src].pop_front() {
                        model[dst].push_back(e);
                        slab.move_head_to_tail(src, dst);
                    }
                }
                Op::Splice { src, dst } => {
                    let (src, dst) = (src as usize % LISTS, dst as usize % LISTS);
                    if src != dst {
                        let moved = std::mem::take(&mut model[src]);
                        model[dst].extend(moved);
                    }
                    slab.splice(src, dst);
                }
            }
            let live: usize = model.iter().map(VecDeque::len).sum();
            peak_live = peak_live.max(live);
            prop_assert!(slab.check_invariants(), "slab invariants broken");
            // Free-list recycling: the arena only ever holds peak-live
            // nodes; churn below the peak allocates nothing new.
            prop_assert!(
                slab.allocated_nodes() <= peak_live,
                "arena grew past the live peak: {} > {peak_live}",
                slab.allocated_nodes()
            );
            for (i, m) in model.iter().enumerate() {
                prop_assert_eq!(slab.len(i), m.len());
                prop_assert!(slab.iter(i).eq(m.iter()), "list {i} diverged");
            }
        }
    }

    /// FIFO order survives arbitrary interleaving across lists: per list,
    /// entries pop in push order.
    #[test]
    fn fifo_order_per_list(pushes in proptest::collection::vec((0u8..3, any::<bool>()), 1..100)) {
        const LISTS: usize = 3;
        let mut slab: QueueSlab = QueueSlab::new(LISTS);
        let mut pushed: Vec<Vec<u32>> = vec![Vec::new(); LISTS];
        for (i, &(list, long)) in pushes.iter().enumerate() {
            let list = list as usize % LISTS;
            slab.push_back(list, entry(long, i as u32));
            pushed[list].push(i as u32);
        }
        for (list, expect) in pushed.iter().enumerate() {
            let mut got = Vec::new();
            while let Some(e) = slab.pop_front(list) {
                got.push(e.job().0);
            }
            prop_assert_eq!(&got, expect);
        }
        prop_assert!(slab.check_invariants());
    }

    /// The steal pipeline on slab queues matches the steal pipeline's own
    /// server-level contract under churn: stolen entries are always short,
    /// the server's mirrors stay exact, and recycled buffers accumulate
    /// groups without cross-contamination.
    #[test]
    fn steal_under_churn_keeps_mirrors_exact(
        layout in proptest::collection::vec(any::<bool>(), 1..24),
        granularity_pick in 0u8..3,
        seed in 0u64..1_000,
    ) {
        let granularity = [
            StealGranularity::FirstBlockedGroup,
            StealGranularity::RandomBlockedEntry,
            StealGranularity::AllBlockedShorts,
        ][granularity_pick as usize];
        let mut rng = SimRng::seed_from_u64(seed);
        let mut queues = QueueSlab::new(1);
        let mut server = Server::new(ServerId(0));
        // Occupy the slot, then queue the layout.
        server.enqueue(&mut queues, entry(true, 9_999));
        for (i, &long) in layout.iter().enumerate() {
            server.enqueue(&mut queues, entry(long, i as u32));
        }
        let before_len = server.queue_len();
        let mut scratch = StealScratch::new();
        let mut out = Vec::new();
        steal_from_with_into(
            &mut server,
            &mut queues,
            granularity,
            &mut rng,
            &mut scratch,
            &mut out,
        );
        prop_assert!(out.iter().all(|e| e.is_short()), "stole a long entry");
        prop_assert_eq!(server.queue_len() + out.len(), before_len);
        prop_assert!(server.check_invariants(&queues));
        prop_assert!(queues.check_invariants());
        // Surviving entries keep their relative order.
        let survivors: Vec<u32> = server.queue(&queues).map(|e| e.job().0).collect();
        let stolen_ids: Vec<u32> = out.iter().map(|e| e.job().0).collect();
        for w in survivors.windows(2) {
            prop_assert!(w[0] < w[1], "queue order perturbed: {survivors:?}");
        }
        for id in &stolen_ids {
            prop_assert!(!survivors.contains(id));
        }
    }
}
