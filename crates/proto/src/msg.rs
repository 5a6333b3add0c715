//! Messages exchanged between prototype daemons, and the [`Net`] surface
//! the daemons send them through.
//!
//! Since the prototype became a backend for the shared
//! [`Scheduler`](hawk_core::Scheduler) policies, its wire types are the
//! *simulator's* types: queue entries are [`hawk_cluster::QueueEntry`],
//! bound tasks are [`hawk_cluster::TaskSpec`], durations are
//! [`hawk_simcore::SimDuration`]. The two backends therefore cannot drift
//! apart structurally — a probe or a stolen group means the same thing in
//! both.
//!
//! The [`Net`] trait is the transport/clock seam: daemon state machines
//! call it to send messages, arm the task-finish timer and report
//! completions. The threaded runtime implements it over `mpsc` channels
//! and the wall clock; the virtual runtime over a deterministic
//! single-threaded router and a virtual clock. Daemon code is identical
//! under both.

use std::sync::Arc;

use hawk_cluster::{QueueEntry, TaskSpec};
use hawk_simcore::{SimDuration, SimTime};
use hawk_workload::scenario::NodeChange;
use hawk_workload::{JobClass, JobId};

use crate::report::MsgKind;

/// Messages delivered to a worker (node monitor).
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerMsg {
    /// A probe from a distributed scheduler (`bounces` counts probe-
    /// avoidance hops already taken; 0 under the paper's policies).
    Probe {
        /// The job probed for.
        job: JobId,
        /// The job's scheduled class.
        class: JobClass,
        /// Probe-avoidance hops taken so far.
        bounces: u8,
    },
    /// A direct task placement from the centralized scheduler.
    Assign(TaskSpec),
    /// Response to this worker's task request: a task or a cancel.
    BindReply {
        /// The job the request was for — lets the hardened protocol match
        /// a reply to the wait it answers (a duplicated or reordered
        /// reply for a stale wait is discarded, not mis-bound).
        job: JobId,
        /// `Some` launches, `None` cancels.
        task: Option<TaskSpec>,
    },
    /// Another worker asks to steal from us.
    StealRequest {
        /// Index of the thief, for the reply.
        thief: usize,
    },
    /// Stolen entries arriving at the thief.
    StealReply {
        /// The victim that granted (or refused) the steal — the address
        /// the hardened protocol acks to.
        from: usize,
        /// Transfer nonce of a hardened non-empty grant (0 otherwise):
        /// the thief's dedup/ack key, so a retransmitted grant is never
        /// enqueued twice.
        nonce: u64,
        /// The stolen group (possibly empty = steal failed), in the
        /// victim's queue order. Shared, not owned: a hardened victim
        /// keeps the same allocation for its retransmits, and the
        /// duplicate fault copies a pointer.
        entries: Arc<[QueueEntry]>,
    },
    /// Hardened protocol: the thief acknowledges receipt of a non-empty
    /// steal grant, releasing the victim's pending-transfer buffer.
    StealAck {
        /// The grant's transfer nonce.
        nonce: u64,
    },
    /// Hardened self-timer: the bind reply for the request tagged `epoch`
    /// has not arrived — retransmit or resolve locally.
    BindTimeout {
        /// The bind epoch the timer was armed for (stale fires are
        /// ignored).
        epoch: u64,
    },
    /// Hardened self-timer: the steal request tagged `epoch` got no
    /// reply — advance to the next victim.
    StealTimeout {
        /// The steal epoch the timer was armed for.
        epoch: u64,
    },
    /// Hardened self-timer (victim side): the grant tagged `nonce` is
    /// still unacked — retransmit it, or relocate the entries after the
    /// retry budget.
    StealRetransmit {
        /// The pending grant's transfer nonce.
        nonce: u64,
    },
    /// Scenario dynamics: the node leaves service (drains its queue) or
    /// rejoins empty.
    Node(NodeChange),
    /// Terminate the worker thread (threaded runtime only).
    Shutdown,
}

impl WorkerMsg {
    /// This message's slot in the [`Deliveries`](crate::Deliveries) table.
    pub fn kind(&self) -> MsgKind {
        match self {
            WorkerMsg::Probe { .. } => MsgKind::Probe,
            WorkerMsg::Assign(_) => MsgKind::Assign,
            WorkerMsg::BindReply { .. } => MsgKind::BindReply,
            WorkerMsg::StealRequest { .. } => MsgKind::StealRequest,
            WorkerMsg::StealReply { .. } => MsgKind::StealReply,
            WorkerMsg::StealAck { .. } => MsgKind::StealAck,
            WorkerMsg::BindTimeout { .. } => MsgKind::BindTimeout,
            WorkerMsg::StealTimeout { .. } => MsgKind::StealTimeout,
            WorkerMsg::StealRetransmit { .. } => MsgKind::StealRetransmit,
            WorkerMsg::Node(_) => MsgKind::WorkerNode,
            WorkerMsg::Shutdown => MsgKind::WorkerShutdown,
        }
    }
}

/// Messages delivered to a distributed scheduler.
#[derive(Debug, Clone, PartialEq)]
pub enum DistMsg {
    /// A job to schedule by batch probing (§3.5); its tasks are read from
    /// the trace the daemon borrows. Probe targets come from
    /// [`Scheduler::probe_targets`](hawk_core::Scheduler::probe_targets).
    Submit {
        /// The job.
        job: JobId,
        /// The job's scheduled class.
        class: JobClass,
    },
    /// A worker whose probe reached its queue head requests a task.
    TaskRequest {
        /// The job.
        job: JobId,
        /// The requesting worker.
        worker: usize,
    },
    /// A worker finished one of this scheduler's tasks.
    TaskDone {
        /// The job.
        job: JobId,
        /// The finished task's index within the job — the hardened
        /// protocol's completion-dedup key (ignored fault-free, where
        /// every completion is delivered exactly once).
        task: u32,
    },
    /// A probe was displaced (drained off a failed worker, or arrived at a
    /// down one): re-probe a random live server if the job still has
    /// unlaunched tasks, abandon it otherwise.
    ReProbe {
        /// The job.
        job: JobId,
        /// The job's scheduled class.
        class: JobClass,
    },
    /// A worker bounced a probe off long-held work
    /// ([`Scheduler::bounce_probe`](hawk_core::Scheduler::bounce_probe));
    /// retry on a fresh random server of the class's scope.
    Bounce {
        /// The job.
        job: JobId,
        /// The job's scheduled class.
        class: JobClass,
        /// Hops taken including the bounce that produced this message.
        bounces: u8,
    },
    /// Hardened self-timer: the per-job retry chain fires — re-probe if
    /// unlaunched tasks remain, relaunch handed-out tasks presumed lost,
    /// and re-arm with backoff until the job completes.
    JobTimeout {
        /// The job whose chain fired.
        job: JobId,
    },
    /// Scenario dynamics notification: keeps the scheduler's membership
    /// view (its shadow cluster) current.
    Node(NodeChange),
    /// Terminate the scheduler thread (threaded runtime only).
    Shutdown,
}

impl DistMsg {
    /// This message's slot in the [`Deliveries`](crate::Deliveries) table.
    pub fn kind(&self) -> MsgKind {
        match self {
            DistMsg::Submit { .. } => MsgKind::DistSubmit,
            DistMsg::TaskRequest { .. } => MsgKind::TaskRequest,
            DistMsg::TaskDone { .. } => MsgKind::DistTaskDone,
            DistMsg::ReProbe { .. } => MsgKind::ReProbe,
            DistMsg::Bounce { .. } => MsgKind::Bounce,
            DistMsg::JobTimeout { .. } => MsgKind::DistJobTimeout,
            DistMsg::Node(_) => MsgKind::DistNode,
            DistMsg::Shutdown => MsgKind::DistShutdown,
        }
    }
}

/// Messages delivered to the centralized scheduler.
#[derive(Debug, Clone, PartialEq)]
pub enum CentralMsg {
    /// A job to place with the §3.7 waiting-time algorithm; its tasks are
    /// read from the trace the daemon borrows.
    Submit {
        /// The job.
        job: JobId,
        /// The job's scheduled class.
        class: JobClass,
    },
    /// A worker finished a centrally-placed task.
    TaskDone {
        /// The job.
        job: JobId,
        /// The worker that ran it.
        worker: usize,
        /// The finished task's index within the job — the hardened
        /// protocol's completion-dedup key (ignored fault-free).
        task: u32,
    },
    /// A centrally-placed task was displaced off a failed worker: re-place
    /// it on the least-loaded live server, moving the waiting-time
    /// bookkeeping with it.
    Relocate {
        /// The worker the task drained off.
        from: usize,
        /// The displaced task.
        spec: TaskSpec,
    },
    /// Hardened self-timer: the per-job retry chain fires — relaunch
    /// placed tasks presumed lost and re-arm with backoff until the job
    /// completes.
    JobTimeout {
        /// The job whose chain fired.
        job: JobId,
    },
    /// Scenario dynamics notification (fail/revive the server's
    /// waiting-time key).
    Node(NodeChange),
    /// Terminate the scheduler thread (threaded runtime only).
    Shutdown,
}

impl CentralMsg {
    /// This message's slot in the [`Deliveries`](crate::Deliveries) table.
    pub fn kind(&self) -> MsgKind {
        match self {
            CentralMsg::Submit { .. } => MsgKind::CentralSubmit,
            CentralMsg::TaskDone { .. } => MsgKind::CentralTaskDone,
            CentralMsg::Relocate { .. } => MsgKind::Relocate,
            CentralMsg::JobTimeout { .. } => MsgKind::CentralJobTimeout,
            CentralMsg::Node(_) => MsgKind::CentralNode,
            CentralMsg::Shutdown => MsgKind::CentralShutdown,
        }
    }
}

/// The transport + clock surface a daemon state machine runs against.
///
/// Implementations: `ThreadNet` (mpsc channels, wall clock) and
/// `VirtualNet` (deterministic router, virtual clock). All sends are
/// fire-and-forget; delivery order between a fixed (sender, receiver)
/// pair is FIFO under both implementations.
pub(crate) trait Net {
    /// Sends a message to worker `to`.
    fn send_worker(&mut self, to: usize, msg: WorkerMsg);
    /// Sends a message to distributed scheduler `to`.
    fn send_dist(&mut self, to: usize, msg: DistMsg);
    /// Sends a message to the centralized scheduler.
    fn send_central(&mut self, msg: CentralMsg);
    /// Arms worker `worker`'s task-finish timer `occupancy` from now (the
    /// speed-scaled slot occupancy of the task it just started).
    fn schedule_finish(&mut self, worker: usize, occupancy: SimDuration);
    /// Reports job completion, timestamped with the harness clock.
    fn job_done(&mut self, job: JobId);
    /// Adjusts the cluster-wide running-task gauge (utilization samples).
    fn add_running(&mut self, delta: i64);
    /// Adjusts the usable-capacity gauge: in-service workers plus down
    /// workers still draining a task — the simulator's utilization
    /// denominator under scenario dynamics (`Cluster::utilization`).
    fn add_capacity(&mut self, delta: i64);

    /// The harness clock (virtual time under the router). The hardened
    /// protocol stamps launch times with it; daemons never arm timers or
    /// read the clock unless hardening is enabled, so the fault-free
    /// router's delivery sequence is untouched.
    fn now(&self) -> SimTime {
        SimTime::ZERO
    }
    /// Arms a hardened self-timer at worker `to`, `after` from now. Timer
    /// deliveries bypass the network entirely: they are local alarms,
    /// immune to faults, and count as pending work for the liveness
    /// watchdog.
    fn self_timer_worker(&mut self, to: usize, after: SimDuration, msg: WorkerMsg) {
        let _ = (to, after, msg);
        unimplemented!("hardened timers require the virtual-clock router");
    }
    /// Arms a hardened self-timer at distributed scheduler `to`.
    fn self_timer_dist(&mut self, to: usize, after: SimDuration, msg: DistMsg) {
        let _ = (to, after, msg);
        unimplemented!("hardened timers require the virtual-clock router");
    }
    /// Arms a hardened self-timer at the centralized scheduler.
    fn self_timer_central(&mut self, after: SimDuration, msg: CentralMsg) {
        let _ = (after, msg);
        unimplemented!("hardened timers require the virtual-clock router");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hawk_simcore::SimDuration;

    #[test]
    fn messages_carry_cluster_types() {
        // The prototype's wire format is the simulator's entry model.
        let spec = TaskSpec {
            job: JobId(2),
            duration: SimDuration::from_millis(5),
            estimate: SimDuration::from_millis(5),
            class: JobClass::Long,
            task: 0,
            attempt: 0,
        };
        let msg = WorkerMsg::Assign(spec);
        match msg {
            WorkerMsg::Assign(s) => assert!(s.class.is_long()),
            _ => unreachable!(),
        }
        let steal = WorkerMsg::StealReply {
            from: 3,
            nonce: 0,
            entries: Arc::new([QueueEntry::Probe {
                job: JobId(1),
                class: JobClass::Short,
            }]),
        };
        match steal {
            WorkerMsg::StealReply { entries, .. } => assert!(entries[0].is_short()),
            _ => unreachable!(),
        }
    }
}
