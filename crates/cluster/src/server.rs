//! The server (node monitor) state machine.
//!
//! A server owns one FIFO queue and one execution slot (§3.1, §4.1). The
//! state machine has three slot states:
//!
//! * `Free` — no work; the queue is empty (invariant).
//! * `AwaitingBind` — a probe reached the head of the queue; the server has
//!   asked the job's scheduler for a task and is blocked for the round trip
//!   (Sparrow late binding, §3.5).
//! * `Running` — executing a task until its duration elapses.
//!
//! Methods return a [`ServerAction`] that the simulation driver converts
//! into events (task-finish timers, bind-request messages, steal attempts).
//!
//! # Queue storage
//!
//! Queue entries do not live inside the server: every queue in a cluster
//! is an intrusive list in one shared [`QueueSlab`] arena (list `i` backs
//! server `i`), so 15k–50k queues share contiguous storage instead of
//! 15k–50k scattered heap objects. A list node is one 8-byte word and its
//! 4-byte link, 12 bytes: a probe is `(job, class)` in the word itself, and
//! a task is its job, a class bit and a 30-bit handle into the slab's side
//! arena of [`TaskSpec`]s, because under late binding (§3.5) most queued
//! entries are probes. Both arenas recycle what is freed (the nodes through
//! the slab's free list, the task slots through a free chain threaded
//! through the slots) and grow only at a new peak of what they hold, by
//! doubling — the steady-state event loop allocates nothing. Every
//! queue-touching method therefore takes the slab as a parameter; the
//! server keeps only O(1) mirrors (queue length, queued-long count, the
//! packed stat word) that it maintains incrementally.

use std::fmt;

use hawk_simcore::SimDuration;
use hawk_workload::{JobClass, JobId};
use serde::{Deserialize, Serialize};

use crate::entry::{QueueEntry, TaskSpec};
use crate::queue::QueueSlab;

/// Identifies a server within a cluster (dense, `0..cluster.len()`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ServerId(pub u32);

impl ServerId {
    /// The server's dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ServerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "server#{}", self.0)
    }
}

/// The execution-slot state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// Idle; the queue is empty.
    Free,
    /// Blocked on a bind round trip for a probe of `job`.
    AwaitingBind {
        /// Job whose scheduler was asked for a task.
        job: JobId,
        /// Class of the probe being bound.
        class: JobClass,
    },
    /// Executing a bound task.
    Running(TaskSpec),
}

impl Slot {
    /// True when the slot holds long work: a long task executing or a long
    /// probe mid-bind. The single definition of the §3.6 slot-eligibility
    /// signal — the steal scan, the steal-candidate index and probe avoidance
    /// all key on this.
    pub fn holds_long(&self) -> bool {
        match self {
            Slot::Running(spec) => spec.class.is_long(),
            Slot::AwaitingBind { class, .. } => class.is_long(),
            Slot::Free => false,
        }
    }
}

/// What the driver must do after a server state transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerAction {
    /// A task entered the slot: schedule its completion after
    /// `spec.duration`.
    StartTask(TaskSpec),
    /// A probe reached the head of the queue: send a task request to the
    /// scheduler of `job` (the response arrives via
    /// [`Server::on_bind_response`]).
    RequestBind {
        /// Job whose scheduler must be asked for a task.
        job: JobId,
    },
    /// The server ran out of work: in Hawk, attempt a steal (§3.6).
    BecameIdle,
}

/// A single-slot, FIFO-queued worker whose queue lives in a shared
/// [`QueueSlab`] (list [`Server::list`]).
///
/// # Examples
///
/// ```
/// use hawk_cluster::{QueueEntry, QueueSlab, Server, ServerAction, ServerId};
/// use hawk_workload::{JobClass, JobId};
///
/// let mut queues = QueueSlab::new(1);
/// let mut s = Server::new(ServerId(0));
/// let action = s.enqueue(
///     &mut queues,
///     QueueEntry::Probe { job: JobId(1), class: JobClass::Short },
/// );
/// // The probe hit the head of an idle queue: the server asks for a task.
/// assert_eq!(action, Some(ServerAction::RequestBind { job: JobId(1) }));
/// ```
#[derive(Debug, Clone)]
pub struct Server {
    id: ServerId,
    /// The slab list backing this server's queue (see [`Server::in_list`]).
    list: u32,
    slot: Slot,
    /// Queue length mirror (the slab is the storage; this keeps
    /// depth reads a single load with no slab reference).
    queue_len: u32,
    /// Number of long entries currently queued; lets the steal scan skip
    /// ineligible victims in O(1).
    queued_long: u32,
    /// Packed index summary, maintained incrementally by every transition:
    /// bit 0 = holds-long-work, bit 1 = down (out of service), bit 2 =
    /// steal candidate (holds long work *and* has a short entry queued),
    /// bits 3.. = queue depth (queue length plus one if the slot is
    /// occupied). The cluster diffs this single word around each mutation
    /// to keep its indexes current, so the per-event bookkeeping is two
    /// loads and an XOR instead of a state recompute.
    stat: u32,
    /// Relative execution speed (1.0 = nominal): a task of duration `d`
    /// occupies this server's slot for `d / speed`. Heterogeneous-cluster
    /// scenarios set it once at construction.
    speed: f64,
    /// True while the server is out of service (scenario node-down): it
    /// accepts no new work, its queue has been drained, and any running
    /// task finishes before the server goes fully dark.
    down: bool,
}

impl Server {
    /// Creates an idle server at nominal speed. Its queue is list
    /// `id.index()` of the cluster's [`QueueSlab`].
    pub fn new(id: ServerId) -> Self {
        Self::in_list(id, id.0)
    }

    /// Like [`Server::new`], with the queue in list `list` of the slab: a
    /// cluster that stores a sub-range of the id space numbers its lists
    /// from zero.
    pub fn in_list(id: ServerId, list: u32) -> Self {
        Server {
            id,
            list,
            slot: Slot::Free,
            queue_len: 0,
            queued_long: 0,
            stat: 0,
            speed: 1.0,
            down: false,
        }
    }

    /// The slab list backing this server's queue.
    #[inline]
    pub fn list(&self) -> usize {
        self.list as usize
    }

    /// The packed index summary: bit 0 = holds-long-work, bit 1 = down,
    /// bit 2 = steal candidate, bits 3.. = queue depth. Kept current by
    /// every transition.
    pub fn stat_word(&self) -> u32 {
        self.stat
    }

    /// True when a steal scan of this server can find anything: it holds
    /// long work and has a short entry queued. A `false` is exact (nothing
    /// is blocked behind a long task, at any granularity); a `true` still
    /// needs the scan, since the short entries may all sit ahead of the
    /// first long one. One load of the stat word.
    pub fn is_steal_candidate(&self) -> bool {
        self.stat & 4 != 0
    }

    /// True when the queue holds a short entry (queue length exceeds the
    /// queued-long count).
    fn has_queued_short(&self) -> bool {
        self.queue_len > self.queued_long
    }

    /// The stat word recomputed from scratch (the invariant checker
    /// compares it against the incrementally maintained copy).
    fn computed_stat(&self) -> u32 {
        let occupied = u32::from(!matches!(self.slot, Slot::Free));
        let depth = self.queue_len + occupied;
        let holds_long = self.slot.holds_long() || self.queued_long > 0;
        depth << 3
            | u32::from(holds_long && self.has_queued_short()) << 2
            | u32::from(self.down) << 1
            | u32::from(holds_long)
    }

    fn recompute_stat(&mut self) {
        self.stat = self.computed_stat();
    }

    /// The server's id.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// The current slot state.
    pub fn slot(&self) -> Slot {
        self.slot
    }

    /// True when executing a task (the paper's utilization counts these
    /// servers as used).
    pub fn is_running(&self) -> bool {
        matches!(self.slot, Slot::Running(_))
    }

    /// True when blocked on a bind round trip.
    pub fn is_awaiting_bind(&self) -> bool {
        matches!(self.slot, Slot::AwaitingBind { .. })
    }

    /// True when completely idle.
    pub fn is_free(&self) -> bool {
        matches!(self.slot, Slot::Free)
    }

    /// True while the server is out of service (scenario node-down).
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// The server's relative execution speed (1.0 = nominal).
    pub fn speed(&self) -> f64 {
        self.speed
    }

    /// Sets the execution-speed factor (heterogeneous-cluster scenarios
    /// configure this once, before the run starts).
    ///
    /// # Panics
    ///
    /// Panics if `speed` is not positive.
    pub fn set_speed(&mut self, speed: f64) {
        assert!(speed > 0.0, "{}: speed factor must be positive", self.id);
        self.speed = speed;
    }

    /// How long a task of nominal duration `duration` occupies this
    /// server's slot: `duration / speed`. Exactly `duration` at nominal
    /// speed, so homogeneous runs are bit-identical to the pre-speed
    /// engine.
    pub fn scale_duration(&self, duration: SimDuration) -> SimDuration {
        if self.speed == 1.0 {
            duration
        } else {
            SimDuration::from_secs_f64(duration.as_secs_f64() / self.speed)
        }
    }

    /// Marks the server down or up, keeping the stat word current. Queue
    /// and slot state are untouched — inside a [`Cluster`],
    /// [`Cluster::fail_server`] (which drains the queue first) and
    /// [`Cluster::revive_server`] are the real lifecycle entry points.
    /// Standalone embeddings (the real-time prototype's node daemons own a
    /// bare `Server` each) call this directly, pairing a down transition
    /// with [`Server::drain_queue_into`].
    ///
    /// [`Cluster`]: crate::Cluster
    /// [`Cluster::fail_server`]: crate::Cluster::fail_server
    /// [`Cluster::revive_server`]: crate::Cluster::revive_server
    pub fn set_down(&mut self, down: bool) {
        self.down = down;
        self.recompute_stat();
    }

    /// Empties the queue into `out` (queue order, `out` not cleared),
    /// resetting the length/long mirrors. The slot is untouched: a running
    /// task finishes on its own. Used when the server leaves service.
    pub fn drain_queue_into(&mut self, queues: &mut QueueSlab, out: &mut Vec<QueueEntry>) {
        queues.drain_into(self.list(), out);
        self.queue_len = 0;
        self.queued_long = 0;
        self.recompute_stat();
    }

    /// Queue length (excluding the slot).
    pub fn queue_len(&self) -> usize {
        self.queue_len as usize
    }

    /// Number of long entries in the queue.
    pub fn queued_long(&self) -> usize {
        self.queued_long as usize
    }

    /// Read-only view of the queue, head first.
    pub fn queue<'s>(&self, queues: &'s QueueSlab) -> impl Iterator<Item = QueueEntry> + 's {
        queues.iter(self.list())
    }

    /// Appends an entry to the queue tail (§3.1: "when a new task is
    /// scheduled on a server that is already running a task, the task is
    /// added to the end of the queue").
    ///
    /// Returns the follow-up action if the server was idle and immediately
    /// started processing the entry, `None` otherwise.
    pub fn enqueue(&mut self, queues: &mut QueueSlab, entry: QueueEntry) -> Option<ServerAction> {
        if entry.is_long() {
            self.queued_long += 1;
            self.stat |= 1;
        }
        queues.push_back(self.list(), entry);
        self.queue_len += 1;
        // Depth lives in bits 3..: it grew by one.
        self.stat += 8;
        // An enqueue can only turn the candidate bit on: a long entry
        // raises both sides of `queue_len > queued_long`, a short one only
        // the left.
        self.stat |= u32::from(self.stat & 1 != 0 && self.has_queued_short()) << 2;
        if self.is_free() {
            Some(self.advance(queues))
        } else {
            None
        }
    }

    /// Appends several entries (a stolen group), returning the action if
    /// processing started.
    pub fn enqueue_all(
        &mut self,
        queues: &mut QueueSlab,
        entries: impl IntoIterator<Item = QueueEntry>,
    ) -> Option<ServerAction> {
        let mut first_action = None;
        for entry in entries {
            let action = self.enqueue(queues, entry);
            if first_action.is_none() {
                first_action = action;
            }
        }
        first_action
    }

    /// Pops and processes the next queue entry.
    fn advance(&mut self, queues: &mut QueueSlab) -> ServerAction {
        let action = match queues.pop_front(self.list()) {
            None => {
                self.slot = Slot::Free;
                ServerAction::BecameIdle
            }
            Some(QueueEntry::Task(spec)) => {
                self.queue_len -= 1;
                if spec.class.is_long() {
                    self.queued_long -= 1;
                }
                self.slot = Slot::Running(spec);
                ServerAction::StartTask(spec)
            }
            Some(QueueEntry::Probe { job, class }) => {
                self.queue_len -= 1;
                if class.is_long() {
                    self.queued_long -= 1;
                }
                self.slot = Slot::AwaitingBind { job, class };
                ServerAction::RequestBind { job }
            }
        };
        self.recompute_stat();
        action
    }

    /// Delivers the scheduler's response to a bind request: `Some(spec)`
    /// launches the task, `None` is a cancel ("if the scheduler has not
    /// given out the t tasks … it responds with a task. Otherwise, a cancel
    /// is sent", §3.5).
    ///
    /// # Panics
    ///
    /// Panics if the server is not awaiting a bind.
    pub fn on_bind_response(
        &mut self,
        queues: &mut QueueSlab,
        task: Option<TaskSpec>,
    ) -> ServerAction {
        assert!(
            self.is_awaiting_bind(),
            "{} got a bind response while {:?}",
            self.id,
            self.slot
        );
        match task {
            Some(spec) => {
                self.slot = Slot::Running(spec);
                self.recompute_stat();
                ServerAction::StartTask(spec)
            }
            None => {
                self.slot = Slot::Free;
                self.advance(queues)
            }
        }
    }

    /// Completes the running task, returning its spec and the follow-up
    /// action for the freed slot.
    ///
    /// # Panics
    ///
    /// Panics if no task is running.
    pub fn on_task_finish(&mut self, queues: &mut QueueSlab) -> (TaskSpec, ServerAction) {
        let Slot::Running(spec) = self.slot else {
            panic!("{} finished a task while {:?}", self.id, self.slot);
        };
        self.slot = Slot::Free;
        (spec, self.advance(queues))
    }

    /// Unlinks the `count`-node run starting at slab node `start` (whose
    /// predecessor is `prev`; `None` at the head), appending the removed
    /// entries to `out` in queue order. Used by the steal scan, which
    /// discovers the run's node indices during its walk.
    pub(crate) fn unlink_run_into(
        &mut self,
        queues: &mut QueueSlab,
        prev: Option<u32>,
        start: u32,
        count: usize,
        out: &mut Vec<QueueEntry>,
    ) {
        let before = out.len();
        queues.unlink_run_into(self.list(), prev, start, count, out);
        self.note_removed(&out[before..]);
    }

    /// Unlinks the single slab node `node` (predecessor `prev`), appending
    /// its entry to `out`.
    pub(crate) fn unlink_one_into(
        &mut self,
        queues: &mut QueueSlab,
        prev: Option<u32>,
        node: u32,
        out: &mut Vec<QueueEntry>,
    ) {
        let entry = queues.unlink_after(self.list(), prev, node);
        self.note_removed(std::slice::from_ref(&entry));
        out.push(entry);
    }

    /// Fixes the length/long-count mirrors after `removed` entries left the
    /// queue.
    fn note_removed(&mut self, removed: &[QueueEntry]) {
        self.queue_len -= removed.len() as u32;
        self.queued_long -= removed.iter().filter(|e| e.is_long()).count() as u32;
        self.recompute_stat();
    }

    /// Checks internal invariants against the backing slab; used by tests
    /// and property tests.
    pub fn check_invariants(&self, queues: &QueueSlab) -> bool {
        if queues.len(self.list()) != self.queue_len as usize {
            return false;
        }
        let long_count = self.queue(queues).filter(|e| e.is_long()).count();
        if long_count != self.queued_long() {
            return false;
        }
        // The incrementally maintained stat word matches a recompute.
        if self.stat != self.computed_stat() {
            return false;
        }
        // A free server must have an empty queue.
        !self.is_free() || self.queue_len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hawk_simcore::SimDuration;

    fn task(job: u32, class: JobClass) -> TaskSpec {
        TaskSpec {
            job: JobId(job),
            duration: SimDuration::from_secs(5),
            estimate: SimDuration::from_secs(5),
            class,
            task: 0,
            attempt: 0,
        }
    }

    fn setup() -> (QueueSlab, Server) {
        (QueueSlab::new(1), Server::new(ServerId(0)))
    }

    #[test]
    fn idle_server_starts_task_immediately() {
        let (mut q, mut s) = setup();
        let spec = task(1, JobClass::Long);
        let action = s.enqueue(&mut q, QueueEntry::Task(spec));
        assert_eq!(action, Some(ServerAction::StartTask(spec)));
        assert!(s.is_running());
        assert_eq!(s.queue_len(), 0);
        assert!(s.check_invariants(&q));
    }

    #[test]
    fn busy_server_queues_fifo() {
        let (mut q, mut s) = setup();
        s.enqueue(&mut q, QueueEntry::Task(task(1, JobClass::Long)));
        assert_eq!(
            s.enqueue(&mut q, QueueEntry::Task(task(2, JobClass::Short))),
            None
        );
        assert_eq!(
            s.enqueue(&mut q, QueueEntry::Task(task(3, JobClass::Short))),
            None
        );
        assert_eq!(s.queue_len(), 2);

        let (done, action) = s.on_task_finish(&mut q);
        assert_eq!(done.job, JobId(1));
        assert_eq!(action, ServerAction::StartTask(task(2, JobClass::Short)));
        let (done, action) = s.on_task_finish(&mut q);
        assert_eq!(done.job, JobId(2));
        assert_eq!(action, ServerAction::StartTask(task(3, JobClass::Short)));
        let (_, action) = s.on_task_finish(&mut q);
        assert_eq!(action, ServerAction::BecameIdle);
        assert!(s.is_free());
        assert!(s.check_invariants(&q));
    }

    #[test]
    fn probe_binds_then_runs() {
        let (mut q, mut s) = setup();
        let action = s.enqueue(
            &mut q,
            QueueEntry::Probe {
                job: JobId(9),
                class: JobClass::Short,
            },
        );
        assert_eq!(action, Some(ServerAction::RequestBind { job: JobId(9) }));
        assert!(s.is_awaiting_bind());
        // While awaiting, new entries just queue.
        assert_eq!(
            s.enqueue(&mut q, QueueEntry::Task(task(2, JobClass::Long))),
            None
        );

        let spec = task(9, JobClass::Short);
        let action = s.on_bind_response(&mut q, Some(spec));
        assert_eq!(action, ServerAction::StartTask(spec));
        assert!(s.is_running());
        assert!(s.check_invariants(&q));
    }

    #[test]
    fn cancelled_probe_moves_to_next_entry() {
        let (mut q, mut s) = setup();
        s.enqueue(
            &mut q,
            QueueEntry::Probe {
                job: JobId(1),
                class: JobClass::Short,
            },
        );
        let next = task(2, JobClass::Long);
        s.enqueue(&mut q, QueueEntry::Task(next));
        let action = s.on_bind_response(&mut q, None);
        assert_eq!(action, ServerAction::StartTask(next));
        assert!(s.check_invariants(&q));
    }

    #[test]
    fn cancelled_probe_on_empty_queue_idles() {
        let (mut q, mut s) = setup();
        s.enqueue(
            &mut q,
            QueueEntry::Probe {
                job: JobId(1),
                class: JobClass::Short,
            },
        );
        assert_eq!(s.on_bind_response(&mut q, None), ServerAction::BecameIdle);
        assert!(s.is_free());
    }

    #[test]
    fn queued_long_counter_tracks() {
        let (mut q, mut s) = setup();
        s.enqueue(&mut q, QueueEntry::Task(task(1, JobClass::Short)));
        s.enqueue(&mut q, QueueEntry::Task(task(2, JobClass::Long)));
        s.enqueue(
            &mut q,
            QueueEntry::Probe {
                job: JobId(3),
                class: JobClass::Long,
            },
        );
        s.enqueue(
            &mut q,
            QueueEntry::Probe {
                job: JobId(4),
                class: JobClass::Short,
            },
        );
        assert_eq!(s.queued_long(), 2);
        s.on_task_finish(&mut q); // starts the long task
        assert_eq!(s.queued_long(), 1);
        assert!(s.check_invariants(&q));
    }

    #[test]
    #[should_panic(expected = "bind response")]
    fn bind_response_without_request_panics() {
        let (mut q, mut s) = setup();
        s.on_bind_response(&mut q, None);
    }

    #[test]
    #[should_panic(expected = "finished a task")]
    fn finish_without_running_panics() {
        let (mut q, mut s) = setup();
        s.on_task_finish(&mut q);
    }

    #[test]
    fn enqueue_all_reports_first_action() {
        let (mut q, mut s) = setup();
        let entries = vec![
            QueueEntry::Probe {
                job: JobId(1),
                class: JobClass::Short,
            },
            QueueEntry::Probe {
                job: JobId(2),
                class: JobClass::Short,
            },
        ];
        let action = s.enqueue_all(&mut q, entries);
        assert_eq!(action, Some(ServerAction::RequestBind { job: JobId(1) }));
        assert_eq!(s.queue_len(), 1);
    }

    #[test]
    fn queues_share_one_arena() {
        // Two servers interleave through one slab; entries never cross.
        let mut q = QueueSlab::new(2);
        let mut a = Server::new(ServerId(0));
        let mut b = Server::new(ServerId(1));
        a.enqueue(&mut q, QueueEntry::Task(task(1, JobClass::Long)));
        b.enqueue(&mut q, QueueEntry::Task(task(2, JobClass::Long)));
        a.enqueue(&mut q, QueueEntry::Task(task(3, JobClass::Short)));
        b.enqueue(&mut q, QueueEntry::Task(task(4, JobClass::Short)));
        assert_eq!(a.queue(&q).map(|e| e.job().0).collect::<Vec<_>>(), [3]);
        assert_eq!(b.queue(&q).map(|e| e.job().0).collect::<Vec<_>>(), [4]);
        let (done, _) = a.on_task_finish(&mut q);
        assert_eq!(done.job, JobId(1));
        assert!(a.check_invariants(&q) && b.check_invariants(&q));
        assert!(q.check_invariants());
    }
}
