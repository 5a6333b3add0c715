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
//! # What a server stores
//!
//! Only what nothing else holds: its slot (the running task as `(job,
//! task, class)`, 12 bytes), its queued-long count and its stat word — 20
//! bytes. Its id and its queue's list are its index in whatever owns it
//! (the slot in `Cluster`'s table, 0 in a prototype worker), so the caller
//! that owns the queue storage names the list; its queue length is the
//! stat word's depth minus the occupied slot; whether it is down is a bit
//! of the stat word; its speed factor is read only at launch and lives
//! with the owner ([`scale_duration`]).
//!
//! # Queue storage
//!
//! Queue entries do not live inside the server: every queue in a cluster
//! is an intrusive list in one shared [`QueueSlab`] arena, so 15k–50k
//! queues share contiguous storage instead of 15k–50k scattered heap
//! objects. A list node is one 8-byte word and its 4-byte link, 12 bytes:
//! a probe is `(job, class)` in the word itself, and a task is its job, a
//! class bit and a 30-bit handle into the slab's side arena of
//! [`TaskSpec`]s, because under late binding (§3.5) most queued entries
//! are probes. Both arenas recycle what is freed (the nodes through the
//! slab's free list, the task slots through a free chain threaded through
//! the slots) and grow only at a new peak of what they hold, by doubling —
//! the steady-state event loop allocates nothing. Every queue-touching
//! method therefore takes the slab and the server's list as parameters.
//!
//! # The stat word
//!
//! [`Stat`] packs what the cluster's index and its O(1) reads need into
//! one word, recomputed by every transition; this module is the one place
//! that knows its bit layout.

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

/// How long a task of nominal duration `duration` occupies a slot of
/// relative speed `speed` (1.0 = nominal): `duration / speed`. Exactly
/// `duration` at speed 1.0, so homogeneous runs are bit-identical to the
/// pre-speed engine.
pub fn scale_duration(duration: SimDuration, speed: f64) -> SimDuration {
    if speed == 1.0 {
        duration
    } else {
        SimDuration::from_secs_f64(duration.as_secs_f64() / speed)
    }
}

/// What the slot keeps of a launched task: who it is and its class. Its
/// duration went into the finish timer at launch, and its estimate and
/// attempt are the scheduler's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunningTask {
    /// The owning job.
    pub job: JobId,
    /// Index of the task within its job.
    pub task: u32,
    /// The job's scheduling class under the active cutoff.
    pub class: JobClass,
}

impl From<TaskSpec> for RunningTask {
    fn from(spec: TaskSpec) -> Self {
        RunningTask {
            job: spec.job,
            task: spec.task,
            class: spec.class,
        }
    }
}

/// The execution-slot state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Slot {
    /// Idle; the queue is empty.
    #[default]
    Free,
    /// Blocked on a bind round trip for a probe of `job`.
    AwaitingBind {
        /// Job whose scheduler was asked for a task.
        job: JobId,
        /// Class of the probe being bound.
        class: JobClass,
    },
    /// Executing a bound task.
    Running(RunningTask),
}

impl Slot {
    /// True when the slot holds long work: a long task executing or a long
    /// probe mid-bind. The single definition of the §3.6 slot-eligibility
    /// signal — the steal scan, the steal-candidate index and probe avoidance
    /// all key on this.
    pub fn holds_long(&self) -> bool {
        match self {
            Slot::Running(task) => task.class.is_long(),
            Slot::AwaitingBind { class, .. } => class.is_long(),
            Slot::Free => false,
        }
    }
}

/// A server's packed index summary: bit 0 = holds long work (slot or
/// queue), bit 1 = down, bit 2 = steal candidate (holds long work *and*
/// has a short entry queued), bits 3.. = queue depth (queue length plus
/// one if the slot is occupied). Reading any of it is one load; the
/// cluster diffs the candidate bit around each mutation to keep its index
/// current. Outside the owned range of a ranged cluster every in-service
/// server reads as the all-zero word. Only this module decodes the bits;
/// elsewhere a `Stat` can only be compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Stat(u32);

impl Stat {
    /// Idle, in service, depth 0, no long work.
    pub(crate) const IDLE: Stat = Stat(0);

    fn of(slot: Slot, queue_len: usize, queued_long: u32, down: bool) -> Stat {
        let occupied = u32::from(slot != Slot::Free);
        let holds_long = slot.holds_long() || queued_long > 0;
        let has_short = queue_len > queued_long as usize;
        Stat(
            (queue_len as u32 + occupied) << 3
                | u32::from(holds_long && has_short) << 2
                | u32::from(down) << 1
                | u32::from(holds_long),
        )
    }

    pub(crate) fn depth(self) -> u32 {
        self.0 >> 3
    }

    pub(crate) fn holds_long(self) -> bool {
        self.0 & 1 != 0
    }

    pub(crate) fn is_down(self) -> bool {
        self.0 & 2 != 0
    }

    pub(crate) fn is_candidate(self) -> bool {
        self.0 & 4 != 0
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

/// A single-slot, FIFO-queued worker whose queue is one list of a shared
/// [`QueueSlab`], named by the caller on every queue-touching call.
///
/// # Examples
///
/// ```
/// use hawk_cluster::{QueueEntry, QueueSlab, Server, ServerAction};
/// use hawk_workload::{JobClass, JobId};
///
/// let mut queues = QueueSlab::new(1);
/// let mut s = Server::default();
/// let action = s.enqueue(
///     &mut queues,
///     0,
///     QueueEntry::Probe { job: JobId(1), class: JobClass::Short },
/// );
/// // The probe hit the head of an idle queue: the server asks for a task.
/// assert_eq!(action, Some(ServerAction::RequestBind { job: JobId(1) }));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Server {
    slot: Slot,
    /// Number of long entries currently queued; lets the steal scan skip
    /// ineligible victims in O(1).
    queued_long: u32,
    /// The packed index summary (see [`Stat`]), recomputed by every
    /// transition. Its depth and down bit are the only copies of the
    /// queue length and the server's liveness.
    stat: Stat,
}

impl Server {
    /// Recomputes the stat word from the slot, the queued-long count,
    /// `queue_len` queued entries and the down bit it already holds.
    fn restat(&mut self, queue_len: usize) {
        self.stat = Stat::of(self.slot, queue_len, self.queued_long, self.is_down());
    }

    /// The packed index summary, kept current by every transition.
    pub fn stat(&self) -> Stat {
        self.stat
    }

    /// True when a steal scan of this server can find anything: it holds
    /// long work and has a short entry queued. A `false` is exact (nothing
    /// is blocked behind a long task); a `true` still
    /// needs the scan, since the short entries may all sit ahead of the
    /// first long one. One load of the stat word.
    pub fn is_steal_candidate(&self) -> bool {
        self.stat.is_candidate()
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

    /// True while the server is out of service (scenario node-down): it
    /// accepts no new work, its queue has been drained, and any running
    /// task finishes before the server goes fully dark. The stat word's
    /// down bit.
    pub fn is_down(&self) -> bool {
        self.stat.is_down()
    }

    /// Marks the server down or up. Queue and slot state are untouched —
    /// inside a [`Cluster`], [`Cluster::fail_server`] (which drains the
    /// queue first) and [`Cluster::revive_server`] are the real lifecycle
    /// entry points. Standalone embeddings (the prototype's node daemons
    /// own a bare `Server` each) call this directly, pairing a down
    /// transition with [`Server::drain_queue_into`].
    ///
    /// [`Cluster`]: crate::Cluster
    /// [`Cluster::fail_server`]: crate::Cluster::fail_server
    /// [`Cluster::revive_server`]: crate::Cluster::revive_server
    pub fn set_down(&mut self, down: bool) {
        self.stat = Stat::of(self.slot, self.queue_len(), self.queued_long, down);
    }

    /// Empties the queue (list `list` of `queues`) into `out` (queue
    /// order, `out` not cleared). The slot is untouched: a running task
    /// finishes on its own. Used when the server leaves service.
    pub fn drain_queue_into(
        &mut self,
        queues: &mut QueueSlab,
        list: usize,
        out: &mut Vec<QueueEntry>,
    ) {
        queues.drain_into(list, out);
        self.queued_long = 0;
        self.restat(0);
    }

    /// Queue length (excluding the slot): the stat word's depth minus the
    /// occupied slot.
    pub fn queue_len(&self) -> usize {
        self.stat.depth() as usize - usize::from(!self.is_free())
    }

    /// Number of long entries in the queue.
    pub fn queued_long(&self) -> usize {
        self.queued_long as usize
    }

    /// Appends an entry to the tail of the queue, list `list` of `queues`
    /// (§3.1: "when a new task is scheduled on a server that is already
    /// running a task, the task is added to the end of the queue").
    ///
    /// Returns the follow-up action if the server was idle and immediately
    /// started processing the entry, `None` otherwise.
    pub fn enqueue(
        &mut self,
        queues: &mut QueueSlab,
        list: usize,
        entry: QueueEntry,
    ) -> Option<ServerAction> {
        // The one check, for every harness, that nothing is placed on a
        // server out of service: both the cluster and the prototype worker
        // enqueue through here.
        debug_assert!(!self.is_down(), "enqueue on a down server");
        self.queued_long += u32::from(entry.is_long());
        queues.push_back(list, entry);
        if self.is_free() {
            Some(self.advance(queues, list))
        } else {
            self.restat(queues.len(list));
            None
        }
    }

    /// Appends several entries (a stolen group), returning the action if
    /// processing started.
    pub fn enqueue_all(
        &mut self,
        queues: &mut QueueSlab,
        list: usize,
        entries: impl IntoIterator<Item = QueueEntry>,
    ) -> Option<ServerAction> {
        let mut first_action = None;
        for entry in entries {
            let action = self.enqueue(queues, list, entry);
            if first_action.is_none() {
                first_action = action;
            }
        }
        first_action
    }

    /// Pops and processes the next queue entry.
    fn advance(&mut self, queues: &mut QueueSlab, list: usize) -> ServerAction {
        let action = match queues.pop_front(list) {
            None => {
                self.slot = Slot::Free;
                ServerAction::BecameIdle
            }
            Some(QueueEntry::Task(spec)) => {
                self.queued_long -= u32::from(spec.class.is_long());
                self.slot = Slot::Running(spec.into());
                ServerAction::StartTask(spec)
            }
            Some(QueueEntry::Probe { job, class }) => {
                self.queued_long -= u32::from(class.is_long());
                self.slot = Slot::AwaitingBind { job, class };
                ServerAction::RequestBind { job }
            }
        };
        self.restat(queues.len(list));
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
        list: usize,
        task: Option<TaskSpec>,
    ) -> ServerAction {
        assert!(
            self.is_awaiting_bind(),
            "got a bind response while {:?}",
            self.slot
        );
        match task {
            Some(spec) => {
                self.slot = Slot::Running(spec.into());
                self.restat(self.queue_len());
                ServerAction::StartTask(spec)
            }
            None => self.advance(queues, list),
        }
    }

    /// Completes the running task, returning what the slot held of it and
    /// the follow-up action for the freed slot.
    ///
    /// # Panics
    ///
    /// Panics if no task is running.
    pub fn on_task_finish(
        &mut self,
        queues: &mut QueueSlab,
        list: usize,
    ) -> (RunningTask, ServerAction) {
        let Slot::Running(task) = self.slot else {
            panic!("finished a task while {:?}", self.slot);
        };
        (task, self.advance(queues, list))
    }

    /// Fixes the stat word after the steal scan unlinked `removed` from
    /// the queue, list `list` of `queues`. The scan takes a run of short
    /// entries only, so the long count stands.
    pub(crate) fn note_removed(&mut self, queues: &QueueSlab, list: usize, removed: &[QueueEntry]) {
        debug_assert!(!removed.iter().any(QueueEntry::is_long));
        self.restat(queues.len(list));
    }

    /// Checks the server's invariants against its queue, list `list` of
    /// `queues`; used by tests and property tests. The error names the
    /// field that disagrees.
    pub fn check_invariants(&self, queues: &QueueSlab, list: usize) -> Result<(), String> {
        let queued = queues.len(list);
        let long = queues.iter(list).filter(QueueEntry::is_long).count();
        let recomputed = Stat::of(self.slot, queued, long as u32, self.is_down());
        let fields = [
            (
                "depth",
                self.stat.depth() as usize,
                queued + usize::from(!self.is_free()),
            ),
            ("long count", self.queued_long(), long),
            ("stat word", self.stat.0 as usize, recomputed.0 as usize),
        ];
        if let Some((field, kept, want)) = fields.into_iter().find(|&(_, kept, want)| kept != want)
        {
            return Err(format!("{field}: {kept} kept, {want} from list {list}"));
        }
        if self.is_free() && queued != 0 {
            return Err(format!("free slot: {queued} entries in list {list}"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        (QueueSlab::new(1), Server::default())
    }

    #[test]
    fn idle_server_starts_task_immediately() {
        let (mut q, mut s) = setup();
        let spec = task(1, JobClass::Long);
        let action = s.enqueue(&mut q, 0, QueueEntry::Task(spec));
        assert_eq!(action, Some(ServerAction::StartTask(spec)));
        assert!(s.is_running());
        assert_eq!(s.queue_len(), 0);
        s.check_invariants(&q, 0).unwrap();
    }

    #[test]
    fn busy_server_queues_fifo() {
        let (mut q, mut s) = setup();
        s.enqueue(&mut q, 0, QueueEntry::Task(task(1, JobClass::Long)));
        assert_eq!(
            s.enqueue(&mut q, 0, QueueEntry::Task(task(2, JobClass::Short))),
            None
        );
        assert_eq!(
            s.enqueue(&mut q, 0, QueueEntry::Task(task(3, JobClass::Short))),
            None
        );
        assert_eq!(s.queue_len(), 2);

        let (done, action) = s.on_task_finish(&mut q, 0);
        assert_eq!(done.job, JobId(1));
        assert_eq!(action, ServerAction::StartTask(task(2, JobClass::Short)));
        let (done, action) = s.on_task_finish(&mut q, 0);
        assert_eq!(done.job, JobId(2));
        assert_eq!(action, ServerAction::StartTask(task(3, JobClass::Short)));
        let (_, action) = s.on_task_finish(&mut q, 0);
        assert_eq!(action, ServerAction::BecameIdle);
        assert!(s.is_free());
        s.check_invariants(&q, 0).unwrap();
    }

    #[test]
    fn probe_binds_then_runs() {
        let (mut q, mut s) = setup();
        let action = s.enqueue(
            &mut q,
            0,
            QueueEntry::Probe {
                job: JobId(9),
                class: JobClass::Short,
            },
        );
        assert_eq!(action, Some(ServerAction::RequestBind { job: JobId(9) }));
        assert!(s.is_awaiting_bind());
        // While awaiting, new entries just queue.
        assert_eq!(
            s.enqueue(&mut q, 0, QueueEntry::Task(task(2, JobClass::Long))),
            None
        );

        let spec = task(9, JobClass::Short);
        let action = s.on_bind_response(&mut q, 0, Some(spec));
        assert_eq!(action, ServerAction::StartTask(spec));
        assert!(s.is_running());
        s.check_invariants(&q, 0).unwrap();
    }

    #[test]
    fn cancelled_probe_moves_to_next_entry() {
        let (mut q, mut s) = setup();
        s.enqueue(
            &mut q,
            0,
            QueueEntry::Probe {
                job: JobId(1),
                class: JobClass::Short,
            },
        );
        let next = task(2, JobClass::Long);
        s.enqueue(&mut q, 0, QueueEntry::Task(next));
        let action = s.on_bind_response(&mut q, 0, None);
        assert_eq!(action, ServerAction::StartTask(next));
        s.check_invariants(&q, 0).unwrap();
    }

    #[test]
    fn cancelled_probe_on_empty_queue_idles() {
        let (mut q, mut s) = setup();
        s.enqueue(
            &mut q,
            0,
            QueueEntry::Probe {
                job: JobId(1),
                class: JobClass::Short,
            },
        );
        assert_eq!(
            s.on_bind_response(&mut q, 0, None),
            ServerAction::BecameIdle
        );
        assert!(s.is_free());
    }

    #[test]
    fn queued_long_counter_tracks() {
        let (mut q, mut s) = setup();
        s.enqueue(&mut q, 0, QueueEntry::Task(task(1, JobClass::Short)));
        s.enqueue(&mut q, 0, QueueEntry::Task(task(2, JobClass::Long)));
        s.enqueue(
            &mut q,
            0,
            QueueEntry::Probe {
                job: JobId(3),
                class: JobClass::Long,
            },
        );
        s.enqueue(
            &mut q,
            0,
            QueueEntry::Probe {
                job: JobId(4),
                class: JobClass::Short,
            },
        );
        assert_eq!(s.queued_long(), 2);
        s.on_task_finish(&mut q, 0); // starts the long task
        assert_eq!(s.queued_long(), 1);
        s.check_invariants(&q, 0).unwrap();
    }

    #[test]
    #[should_panic(expected = "bind response")]
    fn bind_response_without_request_panics() {
        let (mut q, mut s) = setup();
        s.on_bind_response(&mut q, 0, None);
    }

    #[test]
    #[should_panic(expected = "finished a task")]
    fn finish_without_running_panics() {
        let (mut q, mut s) = setup();
        s.on_task_finish(&mut q, 0);
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
        let action = s.enqueue_all(&mut q, 0, entries);
        assert_eq!(action, Some(ServerAction::RequestBind { job: JobId(1) }));
        assert_eq!(s.queue_len(), 1);
    }

    #[test]
    fn queues_share_one_arena() {
        // Two servers interleave through one slab; entries never cross.
        let mut q = QueueSlab::new(2);
        let (mut a, mut b) = (Server::default(), Server::default());
        a.enqueue(&mut q, 0, QueueEntry::Task(task(1, JobClass::Long)));
        b.enqueue(&mut q, 1, QueueEntry::Task(task(2, JobClass::Long)));
        a.enqueue(&mut q, 0, QueueEntry::Task(task(3, JobClass::Short)));
        b.enqueue(&mut q, 1, QueueEntry::Task(task(4, JobClass::Short)));
        assert_eq!(q.iter(0).map(|e| e.job().0).collect::<Vec<_>>(), [3]);
        assert_eq!(q.iter(1).map(|e| e.job().0).collect::<Vec<_>>(), [4]);
        let (done, _) = a.on_task_finish(&mut q, 0);
        assert_eq!(done.job, JobId(1));
        a.check_invariants(&q, 0).unwrap();
        b.check_invariants(&q, 1).unwrap();
        assert!(q.check_invariants());
    }

    #[test]
    fn a_server_is_its_slot_long_count_and_stat_word() {
        assert!(
            std::mem::size_of::<Slot>() <= 12,
            "{}",
            std::mem::size_of::<Slot>()
        );
        assert!(
            std::mem::size_of::<Server>() <= 24,
            "{}",
            std::mem::size_of::<Server>()
        );
    }

    #[test]
    fn queue_length_and_liveness_are_read_from_the_stat_word() {
        let (mut q, mut s) = setup();
        s.enqueue(&mut q, 0, QueueEntry::Task(task(1, JobClass::Long)));
        s.enqueue(&mut q, 0, QueueEntry::Task(task(2, JobClass::Short)));
        assert_eq!((s.queue_len(), s.stat().depth()), (1, 2));
        let mut drained = Vec::new();
        s.drain_queue_into(&mut q, 0, &mut drained);
        s.set_down(true);
        assert!(s.is_down() && s.stat().is_down());
        assert_eq!((s.queue_len(), s.stat().depth()), (0, 1));
        let (done, action) = s.on_task_finish(&mut q, 0);
        assert_eq!((done.job, done.class), (JobId(1), JobClass::Long));
        assert_eq!(action, ServerAction::BecameIdle);
        assert!(
            s.is_down(),
            "finishing the draining task keeps the server down"
        );
        s.check_invariants(&q, 0).unwrap();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "enqueue on a down server")]
    fn enqueue_on_a_down_server_panics_in_debug() {
        let (mut q, mut s) = setup();
        s.set_down(true);
        s.enqueue(&mut q, 0, QueueEntry::Task(task(1, JobClass::Short)));
    }
}
