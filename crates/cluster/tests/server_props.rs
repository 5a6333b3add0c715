//! Property-based tests for the server (node monitor) state machine:
//! random operation sequences must preserve FIFO order, the long-entry
//! counter, the steal-candidate bit, and the slot-state invariants.

use proptest::prelude::*;

use hawk_cluster::{QueueEntry, QueueSlab, Server, ServerAction, TaskSpec};
use hawk_simcore::SimDuration;
use hawk_workload::{JobClass, JobId};

fn entry(long: bool, id: u32, probe: bool) -> QueueEntry {
    if probe {
        QueueEntry::Probe {
            job: JobId(id),
            class: if long {
                JobClass::Long
            } else {
                JobClass::Short
            },
        }
    } else {
        QueueEntry::Task(TaskSpec {
            job: JobId(id),
            duration: SimDuration::from_secs(10),
            estimate: SimDuration::from_secs(10),
            class: if long {
                JobClass::Long
            } else {
                JobClass::Short
            },
            task: 0,
            attempt: 0,
        })
    }
}

/// One random stimulus to the server.
#[derive(Debug, Clone, Copy)]
enum Op {
    Enqueue {
        long: bool,
        probe: bool,
    },
    /// Completes the running task, if any.
    Finish,
    /// Answers an outstanding bind request (grant or cancel).
    Bind {
        grant: bool,
    },
    /// Runs a steal scan.
    Steal,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<bool>(), any::<bool>()).prop_map(|(long, probe)| Op::Enqueue { long, probe }),
        Just(Op::Finish),
        any::<bool>().prop_map(|grant| Op::Bind { grant }),
        Just(Op::Steal),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The state machine never wedges, never double-runs, and its
    /// long-entry counter stays exact under arbitrary stimuli.
    #[test]
    fn server_state_machine_is_sound(ops in proptest::collection::vec(arb_op(), 1..120)) {
        let mut queues = QueueSlab::new(1);
        let mut server = Server::default();
        let mut next_id = 0u32;
        let mut processed = 0usize;
        let mut enqueued = 0usize;
        let mut stolen_total = 0usize;

        for op in ops {
            match op {
                Op::Enqueue { long, probe } => {
                    let e = entry(long, next_id, probe);
                    next_id += 1;
                    enqueued += 1;
                    let action = server.enqueue(&mut queues, 0, e);
                    // An idle server must react; a busy one must not.
                    match action {
                        Some(ServerAction::StartTask(_)) => prop_assert!(server.is_running()),
                        Some(ServerAction::RequestBind { .. }) => {
                            prop_assert!(server.is_awaiting_bind())
                        }
                        Some(ServerAction::BecameIdle) => unreachable!("enqueue cannot idle"),
                        None => {}
                    }
                }
                Op::Finish => {
                    if server.is_running() {
                        let (_, action) = server.on_task_finish(&mut queues, 0);
                        processed += 1;
                        if let ServerAction::StartTask(_) = action {
                            prop_assert!(server.is_running());
                        }
                    }
                }
                Op::Bind { grant } => {
                    if server.is_awaiting_bind() {
                        let task = grant.then(|| TaskSpec {
                            job: JobId(9_999),
                            duration: SimDuration::from_secs(1),
                            estimate: SimDuration::from_secs(1),
                            class: JobClass::Short,
                            task: 0,
                            attempt: 0,
                        });
                        let was_cancel = task.is_none();
                        let action = server.on_bind_response(&mut queues, 0, task);
                        if was_cancel {
                            processed += 1; // the probe is consumed
                            let _ = action;
                        } else {
                            prop_assert!(server.is_running());
                        }
                    }
                }
                Op::Steal => {
                    let loot = hawk_cluster::steal::steal_from(&mut server, &mut queues, 0);
                    stolen_total += loot.len();
                    for e in &loot {
                        prop_assert!(e.is_short(), "stole a long entry");
                    }
                }
            }
            prop_assert_eq!(server.check_invariants(&queues, 0), Ok(()));
            // The steal-candidate bit is kept incrementally (an enqueue
            // ORs it in, everything else recomputes): hold it to the queue
            // itself, and to the scan it stands in for — a clear bit must
            // mean the scan finds nothing.
            let holds_long =
                server.slot().holds_long() || queues.iter(0).any(|e| e.is_long());
            let candidate = holds_long && queues.iter(0).any(|e| e.is_short());
            prop_assert_eq!(server.is_steal_candidate(), candidate);
            prop_assert!(
                candidate || hawk_cluster::steal::eligible_group(&server, &queues, 0).is_none()
            );
        }

        // Conservation: everything enqueued is either still queued, in the
        // slot, finished, or stolen.
        let in_slot = usize::from(server.is_running() || server.is_awaiting_bind());
        // Granted binds inject a task that wasn't "enqueued"; bound probes
        // were consumed from the queue, so the slot may hold an extra
        // granted task. Allow the bookkeeping slack of the current slot.
        prop_assert!(
            server.queue_len() + processed + stolen_total <= enqueued + in_slot + 1,
            "queue {} + done {processed} + stolen {stolen_total} vs enqueued {enqueued}",
            server.queue_len(),
        );
    }

    /// FIFO: with tasks only (no probes, no steals), entries run in
    /// exactly insertion order.
    #[test]
    fn tasks_execute_in_fifo_order(longs in proptest::collection::vec(any::<bool>(), 1..60)) {
        let mut queues = QueueSlab::new(1);
        let mut server = Server::default();
        let mut order = Vec::new();
        for (i, &long) in longs.iter().enumerate() {
            if let Some(ServerAction::StartTask(t)) = server.enqueue(&mut queues, 0, entry(long, i as u32, false)) {
                order.push(t.job.0);
            }
        }
        while server.is_running() {
            let (done, action) = server.on_task_finish(&mut queues, 0);
            let _ = done;
            if let ServerAction::StartTask(t) = action {
                order.push(t.job.0);
            }
        }
        let expect: Vec<u32> = (0..longs.len() as u32).collect();
        prop_assert_eq!(order, expect);
    }
}
