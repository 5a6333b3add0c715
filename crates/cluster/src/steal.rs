//! Randomized work stealing: the victim-queue scan of §3.6 / Figure 3.
//!
//! "The first consecutive group of short tasks that come after a long task
//! is stolen." Concretely, considering the sequence formed by the victim's
//! occupied slot followed by its queue:
//!
//! * if the victim is executing (or binding) a **long** task, the stolen
//!   group is the first run of consecutive short entries in its queue
//!   (Figure 3, cases b1/b2) — the running long task will delay them even
//!   though it has already made progress;
//! * otherwise the stolen group is the first run of consecutive short
//!   entries *after* the first long entry in the queue (cases a1/a2) —
//!   short tasks ahead of any long task will run soon and are not stolen;
//! * if no long task is involved anywhere, nothing is eligible: stealing
//!   exists to rescue short tasks from head-of-line blocking behind long
//!   ones.
//!
//! Stealing a *limited, head-adjacent* group focuses the benefit on a few
//! jobs so their overall job runtime improves, rather than trimming one
//! task from many jobs (§3.6).
//!
//! Queues live in the cluster's shared [`QueueSlab`], so the scan walks
//! slab node indices, reading only each node's class bit, and the removal
//! unlinks the discovered run in place — no position re-walk, no
//! intermediate `Vec`. The `_into` variants write
//! the stolen group into a caller-recycled batch buffer; together with the
//! slab's free-list recycling the whole steal pipeline is allocation-free
//! in steady state.

use crate::entry::QueueEntry;
use crate::queue::QueueSlab;
use crate::server::Server;

/// The eligible steal group discovered by a scan, identified by slab node
/// indices: the run `[start, …]` of `len` nodes whose predecessor in the
/// victim's list is `prev` (`None` when the run starts at the head).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    prev: Option<u32>,
    start: u32,
    len: usize,
}

/// Walks the victim's queue once, returning the eligible run (by slab node
/// index) and its starting queue position, or `None` when nothing is
/// eligible.
fn eligible_run(victim: &Server, queues: &QueueSlab, list: usize) -> Option<(Run, usize)> {
    let slot_is_long = victim.slot().holds_long();
    // Fast path: no long task anywhere on this server.
    if !slot_is_long && victim.queued_long() == 0 {
        return None;
    }

    let mut seen_long = slot_is_long;
    let mut run: Option<(Run, usize)> = None;
    let mut len = 0usize;
    let mut last: Option<u32> = None;
    let mut cur = queues.head(list);
    let mut pos = 0usize;
    while let Some(node) = cur {
        if queues.is_long(node) {
            if run.is_some() {
                break; // end of the first short run after a long task
            }
            seen_long = true;
        } else if seen_long {
            if run.is_none() {
                run = Some((
                    Run {
                        prev: last,
                        start: node,
                        len: 0,
                    },
                    pos,
                ));
            }
            len += 1;
        }
        // Short entries before any long task are not eligible; skip.
        last = Some(node);
        cur = queues.next(node);
        pos += 1;
    }
    run.map(|(r, start_pos)| (Run { len, ..r }, start_pos))
}

/// The eligible steal group in a victim's queue: `(start position, length)`
/// in queue order.
///
/// Returns `None` when nothing is eligible. Does not modify the victim;
/// [`steal_from`] performs the removal.
pub fn eligible_group(victim: &Server, queues: &QueueSlab, list: usize) -> Option<(usize, usize)> {
    eligible_run(victim, queues, list).map(|(run, pos)| (pos, run.len))
}

/// Removes the eligible group from `victim`, appending it to `out` in
/// queue order (`out` is *not* cleared; nothing is appended when no group
/// is eligible). Allocation-free once `out` has warmed up.
pub fn steal_from_into(
    victim: &mut Server,
    queues: &mut QueueSlab,
    list: usize,
    out: &mut Vec<QueueEntry>,
) {
    if let Some((run, _)) = eligible_run(victim, queues, list) {
        let before = out.len();
        queues.unlink_run_into(list, run.prev, run.start, run.len, out);
        victim.note_removed(queues, list, &out[before..]);
    }
}

/// Removes and returns the eligible group from `victim` (empty if none).
pub fn steal_from(victim: &mut Server, queues: &mut QueueSlab, list: usize) -> Vec<QueueEntry> {
    let mut out = Vec::new();
    steal_from_into(victim, queues, list, &mut out);
    out
}

/// What an idle thief takes from a victim's queue: the paper's one
/// policy (§3.6). Stealing a limited, head-adjacent group focuses on a few
/// jobs so their *job* runtimes actually improve, where stealing from
/// random queue positions "would likely end up focusing on too many jobs
/// at the same time while failing to improve most". hawk-core's
/// `StealSpec` names it; every scan is [`steal_from_into`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum StealGranularity {
    /// The first consecutive group of short entries after the first long
    /// element (Figure 3).
    FirstBlockedGroup,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::TaskSpec;
    use hawk_simcore::SimDuration;
    use hawk_workload::{JobClass, JobId};

    fn long_task(job: u32) -> QueueEntry {
        QueueEntry::Task(TaskSpec {
            job: JobId(job),
            duration: SimDuration::from_secs(1_000),
            estimate: SimDuration::from_secs(1_000),
            class: JobClass::Long,
            task: 0,
            attempt: 0,
        })
    }

    fn short_probe(job: u32) -> QueueEntry {
        QueueEntry::Probe {
            job: JobId(job),
            class: JobClass::Short,
        }
    }

    fn long_probe(job: u32) -> QueueEntry {
        QueueEntry::Probe {
            job: JobId(job),
            class: JobClass::Long,
        }
    }

    /// Builds a server executing `first` with `rest` queued behind it.
    fn server_with(first: QueueEntry, rest: &[QueueEntry]) -> (QueueSlab, Server) {
        let mut q = QueueSlab::new(1);
        let mut s = Server::default();
        s.enqueue(&mut q, 0, first);
        // A probe head leaves the server awaiting bind; bind it so the
        // server is Running for the Figure 3 "executing" cases.
        if s.is_awaiting_bind() {
            let class = match first {
                QueueEntry::Probe { class, .. } => class,
                _ => unreachable!(),
            };
            s.on_bind_response(
                &mut q,
                0,
                Some(TaskSpec {
                    job: first.job(),
                    duration: SimDuration::from_secs(10),
                    estimate: SimDuration::from_secs(10),
                    class,
                    task: 0,
                    attempt: 0,
                }),
            );
        }
        for &e in rest {
            s.enqueue(&mut q, 0, e);
        }
        (q, s)
    }

    fn jobs(entries: &[QueueEntry]) -> Vec<u32> {
        entries.iter().map(|e| e.job().0).collect()
    }

    #[test]
    fn case_a_executing_short_steals_after_first_long() {
        // Figure 3 a1: executing S; queue = [S, L, S, S, L, S].
        // Stolen: the S, S after the first long.
        let (mut q, mut s) = server_with(
            short_probe(0),
            &[
                short_probe(1),
                long_task(2),
                short_probe(3),
                short_probe(4),
                long_task(5),
                short_probe(6),
            ],
        );
        let stolen = steal_from(&mut s, &mut q, 0);
        assert_eq!(jobs(&stolen), vec![3, 4]);
        assert_eq!(s.queue_len(), 4);
        s.check_invariants(&q, 0).unwrap();
    }

    #[test]
    fn case_b_executing_long_steals_from_queue_head() {
        // Figure 3 b1: executing L; queue = [S, S, L, S].
        // Stolen: the two head shorts.
        let (mut q, mut s) = server_with(
            long_task(0),
            &[short_probe(1), short_probe(2), long_task(3), short_probe(4)],
        );
        let stolen = steal_from(&mut s, &mut q, 0);
        assert_eq!(jobs(&stolen), vec![1, 2]);
        assert_eq!(s.queue_len(), 2);
        s.check_invariants(&q, 0).unwrap();
    }

    #[test]
    fn no_long_anywhere_nothing_stolen() {
        let (mut q, mut s) = server_with(short_probe(0), &[short_probe(1), short_probe(2)]);
        assert_eq!(eligible_group(&s, &q, 0), None);
        assert!(steal_from(&mut s, &mut q, 0).is_empty());
        assert_eq!(s.queue_len(), 2);
    }

    #[test]
    fn shorts_ahead_of_long_not_stolen_when_executing_short() {
        // Executing S; queue = [S, S, L]: nothing after the long → no steal.
        let (mut q, mut s) = server_with(
            short_probe(0),
            &[short_probe(1), short_probe(2), long_task(3)],
        );
        assert_eq!(eligible_group(&s, &q, 0), None);
        assert!(steal_from(&mut s, &mut q, 0).is_empty());
    }

    #[test]
    fn executing_long_with_long_queue_head_skips_to_first_short_run() {
        // Executing L; queue = [L, S, S, L]: the S, S are still blocked
        // behind a long task; steal them.
        let (mut q, mut s) = server_with(
            long_task(0),
            &[long_task(1), short_probe(2), short_probe(3), long_task(4)],
        );
        let stolen = steal_from(&mut s, &mut q, 0);
        assert_eq!(jobs(&stolen), vec![2, 3]);
    }

    #[test]
    fn awaiting_bind_on_long_probe_counts_as_long_slot() {
        // Hawk-w/o-centralized ablation: a long probe is mid-bind; the
        // queued shorts behind it are eligible.
        let mut q = QueueSlab::new(1);
        let mut s = Server::default();
        s.enqueue(&mut q, 0, long_probe(0));
        assert!(s.is_awaiting_bind());
        s.enqueue(&mut q, 0, short_probe(1));
        s.enqueue(&mut q, 0, short_probe(2));
        let stolen = steal_from(&mut s, &mut q, 0);
        assert_eq!(jobs(&stolen), vec![1, 2]);
    }

    #[test]
    fn awaiting_bind_on_short_probe_is_a_short_slot() {
        let mut q = QueueSlab::new(1);
        let mut s = Server::default();
        s.enqueue(&mut q, 0, short_probe(0));
        s.enqueue(&mut q, 0, short_probe(1));
        s.enqueue(&mut q, 0, long_task(2));
        s.enqueue(&mut q, 0, short_probe(3));
        let stolen = steal_from(&mut s, &mut q, 0);
        assert_eq!(jobs(&stolen), vec![3]);
    }

    #[test]
    fn whole_tail_stolen_when_all_short_after_long() {
        let (mut q, mut s) = server_with(
            long_task(0),
            &[short_probe(1), short_probe(2), short_probe(3)],
        );
        let stolen = steal_from(&mut s, &mut q, 0);
        assert_eq!(jobs(&stolen), vec![1, 2, 3]);
        assert_eq!(s.queue_len(), 0);
    }

    #[test]
    fn empty_queue_nothing_stolen() {
        let (mut q, mut s) = server_with(long_task(0), &[]);
        assert_eq!(eligible_group(&s, &q, 0), None);
        assert!(steal_from(&mut s, &mut q, 0).is_empty());
    }

    #[test]
    fn idle_server_nothing_stolen() {
        let mut q = QueueSlab::new(1);
        let mut s = Server::default();
        assert_eq!(eligible_group(&s, &q, 0), None);
        assert!(steal_from(&mut s, &mut q, 0).is_empty());
    }

    #[test]
    fn steal_preserves_relative_order() {
        let (mut q, mut s) = server_with(
            long_task(0),
            &[short_probe(5), short_probe(3), short_probe(9)],
        );
        let stolen = steal_from(&mut s, &mut q, 0);
        assert_eq!(jobs(&stolen), vec![5, 3, 9]);
    }

    #[test]
    fn steal_into_appends_without_clearing() {
        let (mut q, mut s) = server_with(long_task(0), &[short_probe(1), short_probe(2)]);
        let mut out = vec![short_probe(99)];
        steal_from_into(&mut s, &mut q, 0, &mut out);
        assert_eq!(jobs(&out), vec![99, 1, 2]);
        s.check_invariants(&q, 0).unwrap();
    }
}
