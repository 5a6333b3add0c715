//! Differential tests of the slab-backed queues. [`QueueSlab`] keeps every
//! server's queue as a list of 8-byte words in one node arena, with the
//! specs of queued tasks in a side arena; it must read exactly like one
//! `VecDeque<QueueEntry>` per list under any interleaving of pushes, pops,
//! single-entry unlinks, run unlinks and whole-list drains, with probes and
//! tasks of random estimates and attempts mixed in. After every operation
//! every list equals its model, the task arena's live slots are exactly
//! the queued tasks, the slab's own invariant check holds, and the node
//! arena holds no more nodes than the peak of queued entries.
//!
//! `ranged_props.rs` is the template: two implementations, one generated
//! op sequence, every read compared after each op. The list-to-list
//! relinks the timing wheel cascades with belong to `EntrySlab` and are
//! modelled in `hawk-simcore`'s `tests/props.rs`.

use std::collections::VecDeque;

use proptest::prelude::*;

use hawk_cluster::steal::steal_from_into;
use hawk_cluster::{QueueEntry, QueueSlab, Server, TaskSpec};
use hawk_simcore::SimDuration;
use hawk_workload::{JobClass, JobId};

/// The entry of job `id` that `draw` picks: bit 0 the class, bit 1 a probe
/// or a task, the higher bits a task's index, duration, estimate and
/// attempt (one attempt in four is `u32::MAX`).
fn entry(draw: u64, id: u32) -> QueueEntry {
    let class = if draw & 1 == 0 {
        JobClass::Short
    } else {
        JobClass::Long
    };
    if draw & 2 == 0 {
        return QueueEntry::Probe {
            job: JobId(id),
            class,
        };
    }
    QueueEntry::Task(TaskSpec {
        job: JobId(id),
        duration: SimDuration::from_micros(draw >> 34),
        estimate: SimDuration::from_micros(draw >> 4 & 0x3fff_ffff),
        class,
        task: (draw >> 8) as u32 & 0xffff,
        attempt: if draw >> 2 & 3 == 3 {
            u32::MAX
        } else {
            (draw >> 24) as u32 & 7
        },
    })
}

/// One generated operation on one of the lists.
#[derive(Debug, Clone, Copy)]
enum Op {
    Push {
        list: u8,
        draw: u64,
    },
    PopFront {
        list: u8,
    },
    /// Unlink the entry at `pos` (clamped), by `unlink_after`.
    UnlinkOne {
        list: u8,
        pos: u8,
    },
    /// Unlink `count` entries from `start` (clamped), by `unlink_run_into`.
    UnlinkRun {
        list: u8,
        start: u8,
        count: u8,
    },
    /// Empty the list, by `drain_into`.
    Drain {
        list: u8,
    },
}

const LISTS: usize = 4;

fn arb_op() -> impl Strategy<Value = Op> {
    let push = || (0u8..4, any::<u64>()).prop_map(|(list, draw)| Op::Push { list, draw });
    prop_oneof![
        push(),
        push(),
        (0u8..4).prop_map(|list| Op::PopFront { list }),
        (0u8..4, 0u8..12).prop_map(|(list, pos)| Op::UnlinkOne { list, pos }),
        (0u8..4, 0u8..12, 0u8..6).prop_map(|(list, start, count)| Op::UnlinkRun {
            list,
            start,
            count
        }),
        (0u8..4).prop_map(|list| Op::Drain { list }),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every list reads like its `VecDeque` model after every op, the task
    /// arena holds exactly the queued tasks, and the node arena never
    /// holds more nodes than the peak live population.
    #[test]
    fn slab_lists_match_vecdeque_model(ops in proptest::collection::vec(arb_op(), 1..200)) {
        let mut slab = QueueSlab::new(LISTS);
        let mut model: Vec<VecDeque<QueueEntry>> = vec![VecDeque::new(); LISTS];
        let mut next_id = 0u32;
        let mut peak_live = 0usize;

        for op in ops {
            match op {
                Op::Push { list, draw } => {
                    let e = entry(draw, next_id);
                    next_id += 1;
                    slab.push_back(list as usize, e);
                    model[list as usize].push_back(e);
                }
                Op::PopFront { list } => {
                    let list = list as usize;
                    prop_assert_eq!(slab.pop_front(list), model[list].pop_front());
                }
                Op::UnlinkOne { list, pos } => {
                    let list = list as usize;
                    if model[list].is_empty() {
                        continue;
                    }
                    let pos = (pos as usize).min(model[list].len() - 1);
                    let (prev, node) = node_at(&slab, list, pos);
                    let got = slab.unlink_after(list, prev, node);
                    prop_assert_eq!(Some(got), model[list].remove(pos));
                }
                Op::UnlinkRun { list, start, count } => {
                    let list = list as usize;
                    let len = model[list].len();
                    let start = (start as usize).min(len);
                    let count = (count as usize).min(len - start);
                    let expect: Vec<QueueEntry> = model[list].drain(start..start + count).collect();
                    let mut got = Vec::new();
                    if count > 0 {
                        let (prev, node) = node_at(&slab, list, start);
                        slab.unlink_run_into(list, prev, node, count, &mut got);
                    }
                    prop_assert_eq!(got, expect);
                }
                Op::Drain { list } => {
                    let list = list as usize;
                    let mut got = Vec::new();
                    slab.drain_into(list, &mut got);
                    prop_assert!(got.iter().eq(model[list].drain(..).collect::<Vec<_>>().iter()));
                }
            }
            let live: usize = model.iter().map(VecDeque::len).sum();
            peak_live = peak_live.max(live);
            prop_assert!(slab.check_invariants(), "slab invariants broken");
            prop_assert!(
                slab.allocated_nodes() <= peak_live,
                "node arena grew past the live peak: {} > {peak_live}",
                slab.allocated_nodes()
            );
            let queued_tasks = model
                .iter()
                .flatten()
                .filter(|e| matches!(e, QueueEntry::Task(_)))
                .count();
            prop_assert_eq!(slab.live_tasks(), queued_tasks);
            for (i, m) in model.iter().enumerate() {
                prop_assert_eq!(slab.len(i), m.len());
                prop_assert!(slab.iter(i).eq(m.iter().copied()), "list {i} diverged");
            }
        }
    }

    /// FIFO order survives arbitrary interleaving across lists: per list,
    /// entries pop in push order.
    #[test]
    fn fifo_order_per_list(pushes in proptest::collection::vec((0u8..3, any::<u64>()), 1..100)) {
        const FIFO_LISTS: usize = 3;
        let mut slab = QueueSlab::new(FIFO_LISTS);
        let mut pushed: Vec<Vec<u32>> = vec![Vec::new(); FIFO_LISTS];
        for (i, &(list, draw)) in pushes.iter().enumerate() {
            let list = list as usize % FIFO_LISTS;
            slab.push_back(list, entry(draw, i as u32));
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
        prop_assert_eq!(slab.live_tasks(), 0);
    }

    /// The steal pipeline on slab queues keeps the server-level contract
    /// under churn: stolen entries are always short, the server's mirrors
    /// stay exact, and recycled buffers accumulate groups without
    /// cross-contamination.
    #[test]
    fn steal_under_churn_keeps_mirrors_exact(
        layout in proptest::collection::vec(any::<u64>(), 1..24),
    ) {
        let mut queues = QueueSlab::new(1);
        let mut server = Server::default();
        // Occupy the slot with a long task, then queue the layout.
        server.enqueue(&mut queues, 0, entry(0b11, 9_999));
        for (i, &draw) in layout.iter().enumerate() {
            server.enqueue(&mut queues, 0, entry(draw, i as u32));
        }
        let before_len = server.queue_len();
        let mut out = Vec::new();
        steal_from_into(&mut server, &mut queues, 0, &mut out);
        prop_assert!(out.iter().all(|e| e.is_short()), "stole a long entry");
        prop_assert_eq!(server.queue_len() + out.len(), before_len);
        prop_assert_eq!(server.check_invariants(&queues, 0), Ok(()));
        prop_assert!(queues.check_invariants());
        // Surviving entries keep their relative order.
        let survivors: Vec<u32> = queues.iter(0).map(|e| e.job().0).collect();
        let stolen_ids: Vec<u32> = out.iter().map(|e| e.job().0).collect();
        for w in survivors.windows(2) {
            prop_assert!(w[0] < w[1], "queue order perturbed: {survivors:?}");
        }
        for id in &stolen_ids {
            prop_assert!(!survivors.contains(id));
        }
    }
}
