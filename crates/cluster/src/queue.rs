//! The shared queue storage: every server's FIFO queue as an intrusive
//! list of one 8-byte word per entry, with the specs of queued tasks in a
//! side arena.
//!
//! # The queued word
//!
//! Under late binding (§3.5) most queued entries are probes, and a probe is
//! only `(job, class)` until it reaches the head of its queue. A list node
//! is therefore sized for a probe, not for a [`TaskSpec`]: one [`Queued`]
//! word of two `u32`s plus the list's 4-byte link, 12 bytes a node.
//!
//! | field, bits  | probe      | task                         |
//! |--------------|------------|------------------------------|
//! | `job`        | the job id | the job id                   |
//! | `tag` 0      | long class | long class                   |
//! | `tag` 1      | 0          | 1                            |
//! | `tag` 2..32  | 0          | the spec's slot in the arena |
//!
//! The steal scan reads only the class bit of the nodes it walks; a task's
//! spec is read when the task leaves its queue.
//!
//! # The task arena
//!
//! A task's [`TaskSpec`] waits in a slot of the slab's one task arena, from
//! the push that queues it to the pop or unlink that takes it out. Freed
//! slots are chained through the slots themselves (the free chain needs no
//! second `Vec`) and reused LIFO, so the arena keeps the node arena's
//! growth contract ([`hawk_simcore::EntrySlab`]): it allocates only when
//! the queued tasks exceed every earlier peak, and then by doubling. A word
//! names at most `2^30` slots; packing a larger one panics.

use hawk_simcore::EntrySlab;
use hawk_workload::{JobClass, JobId};

use crate::entry::{QueueEntry, TaskSpec};

/// `tag` bit: the entry belongs to a long job.
const LONG: u32 = 1;
/// `tag` bit: the entry is a task, and bits 2.. name its arena slot.
const TASK: u32 = 2;
/// Where a task's arena slot starts in `tag`.
const SLOT_SHIFT: u32 = 2;

/// Task-arena slots a queued word can name.
const MAX_TASK_SLOTS: usize = 1 << (32 - SLOT_SHIFT);

/// End of the task arena's free chain.
const NIL: u32 = u32::MAX;

/// One queued entry, packed (see the module docs for the layout).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Queued {
    job: u32,
    tag: u32,
}

impl Queued {
    fn probe(job: JobId, class: JobClass) -> Self {
        Queued {
            job: job.0,
            tag: u32::from(class.is_long()),
        }
    }

    /// The word of `spec`, stored in arena slot `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` does not fit the word's 30 slot bits.
    fn task(spec: &TaskSpec, slot: u32) -> Self {
        assert!(
            (slot as usize) < MAX_TASK_SLOTS,
            "task arena overflow: a queued word names at most 2^30 task slots"
        );
        Queued {
            job: spec.job.0,
            tag: slot << SLOT_SHIFT | TASK | u32::from(spec.class.is_long()),
        }
    }

    fn is_long(self) -> bool {
        self.tag & LONG != 0
    }

    /// The arena slot of a task, `None` for a probe.
    fn slot(self) -> Option<u32> {
        (self.tag & TASK != 0).then_some(self.tag >> SLOT_SHIFT)
    }

    fn class(self) -> JobClass {
        if self.is_long() {
            JobClass::Long
        } else {
            JobClass::Short
        }
    }
}

/// A slot of the task arena: a queued task's spec, or a link of the free
/// chain. The link fits beside `TaskSpec`'s class byte, so a slot is no
/// larger than the spec.
#[derive(Debug, Clone, Copy)]
enum TaskSlot {
    Live(TaskSpec),
    Free { next: u32 },
}

/// The specs of the queued tasks, in slots recycled through a free chain.
#[derive(Debug, Clone)]
struct TaskArena {
    slots: Vec<TaskSlot>,
    /// Head of the LIFO free chain.
    free_head: u32,
    /// Slots holding a spec.
    live: usize,
    /// Times an insert found the slot vector full and doubled it.
    growths: u32,
}

impl TaskArena {
    fn new() -> Self {
        TaskArena {
            slots: Vec::new(),
            free_head: NIL,
            live: 0,
            growths: 0,
        }
    }

    /// Stores `spec` in the most recently freed slot, or in a new one when
    /// every slot is live (a new peak).
    fn insert(&mut self, spec: TaskSpec) -> u32 {
        self.live += 1;
        if self.free_head == NIL {
            let slot = self.slots.len() as u32;
            self.growths += u32::from(self.slots.len() == self.slots.capacity());
            self.slots.push(TaskSlot::Live(spec));
            return slot;
        }
        let slot = self.free_head;
        let TaskSlot::Free { next } = self.slots[slot as usize] else {
            unreachable!("the free chain reached live task slot {slot}");
        };
        self.free_head = next;
        self.slots[slot as usize] = TaskSlot::Live(spec);
        slot
    }

    fn get(&self, slot: u32) -> TaskSpec {
        match self.slots[slot as usize] {
            TaskSlot::Live(spec) => spec,
            TaskSlot::Free { .. } => panic!("task slot {slot} is free"),
        }
    }

    /// Takes the spec out of `slot` and chains the slot for reuse.
    fn take(&mut self, slot: u32) -> TaskSpec {
        let spec = self.get(slot);
        self.slots[slot as usize] = TaskSlot::Free {
            next: self.free_head,
        };
        self.free_head = slot;
        self.live -= 1;
        spec
    }
}

/// The shared queue arena: one intrusive FIFO list per server (list `i`
/// backs server `i`) of 8-byte words in one [`EntrySlab`], 12 bytes a
/// node, and the specs of the queued tasks in a side arena. A probe is its
/// word; a task's word holds its job, its class bit and its slot in the
/// arena. Both arenas grow only at a new peak of what they hold (queued
/// entries, queued tasks), by doubling, and recycle what is freed, so the
/// steady-state event loop allocates nothing.
///
/// Entries go in and come out as [`QueueEntry`]s: a push packs one into a
/// word (a task's spec into an arena slot), a pop or unlink unpacks it and
/// frees the slot.
///
/// # Examples
///
/// ```
/// use hawk_cluster::{QueueEntry, QueueSlab};
/// use hawk_workload::{JobClass, JobId};
///
/// let mut queues = QueueSlab::new(2);
/// let probe = QueueEntry::Probe { job: JobId(4), class: JobClass::Short };
/// queues.push_back(1, probe);
/// assert_eq!(queues.iter(1).collect::<Vec<_>>(), [probe]);
/// assert_eq!(queues.pop_front(1), Some(probe));
/// assert!(queues.is_empty(1));
/// ```
#[derive(Debug, Clone)]
pub struct QueueSlab {
    nodes: EntrySlab<Queued>,
    tasks: TaskArena,
}

impl QueueSlab {
    /// Creates `lists` empty queues and no storage.
    pub fn new(lists: usize) -> Self {
        QueueSlab {
            nodes: EntrySlab::new(lists),
            tasks: TaskArena::new(),
        }
    }

    /// Number of entries in `list`.
    pub fn len(&self, list: usize) -> usize {
        self.nodes.len(list)
    }

    /// True if `list` holds no entries.
    pub fn is_empty(&self, list: usize) -> bool {
        self.nodes.is_empty(list)
    }

    /// List nodes ever created: the high-water mark of queued entries.
    pub fn allocated_nodes(&self) -> usize {
        self.nodes.allocated_nodes()
    }

    /// On-demand growths of the node arena and the task arena together.
    pub fn growths(&self) -> u32 {
        self.nodes.growths() + self.tasks.growths
    }

    /// Tasks queued right now: the task arena's live slots.
    pub fn live_tasks(&self) -> usize {
        self.tasks.live
    }

    /// Raises the arenas' floors: at least `entries` queued entries and
    /// `tasks` queued tasks fit before the first on-demand growth (see
    /// [`EntrySlab::reserve_nodes`]).
    pub fn reserve(&mut self, entries: usize, tasks: usize) {
        self.nodes.reserve_nodes(entries);
        let slots = &mut self.tasks.slots;
        slots.reserve(tasks.saturating_sub(slots.len()));
    }

    /// Appends `entry` to the tail of `list`. O(1).
    pub fn push_back(&mut self, list: usize, entry: QueueEntry) {
        let word = match entry {
            QueueEntry::Probe { job, class } => Queued::probe(job, class),
            QueueEntry::Task(spec) => Queued::task(&spec, self.tasks.insert(spec)),
        };
        self.nodes.push_back(list, word);
    }

    /// Removes and returns the head of `list`, or `None` if empty. O(1).
    pub fn pop_front(&mut self, list: usize) -> Option<QueueEntry> {
        let word = self.nodes.pop_front(list)?;
        Some(unpack(word, |slot| self.tasks.take(slot)))
    }

    /// The head node index of `list`, or `None` if empty.
    pub fn head(&self, list: usize) -> Option<u32> {
        self.nodes.head(list)
    }

    /// The node following the live node `node` in its list, or `None` at
    /// the tail.
    pub fn next(&self, node: u32) -> Option<u32> {
        self.nodes.next(node)
    }

    /// True if the live node `node` holds a long entry: its class bit, no
    /// arena read.
    pub fn is_long(&self, node: u32) -> bool {
        self.nodes.value(node).is_long()
    }

    /// Iterates `list` head to tail.
    pub fn iter(&self, list: usize) -> impl Iterator<Item = QueueEntry> + '_ {
        self.nodes
            .iter(list)
            .map(|&word| unpack(word, |slot| self.tasks.get(slot)))
    }

    /// Unlinks the run of `count` nodes starting at `start` (predecessor
    /// `prev`), appending their entries to `out` in list order. O(count).
    pub fn unlink_run_into(
        &mut self,
        list: usize,
        prev: Option<u32>,
        start: u32,
        count: usize,
        out: &mut Vec<QueueEntry>,
    ) {
        let tasks = &mut self.tasks;
        self.nodes.unlink_run(list, prev, start, count, |word| {
            out.push(unpack(word, |slot| tasks.take(slot)));
        });
    }

    /// Empties `list` into `out` (queue order, `out` not cleared).
    pub fn drain_into(&mut self, list: usize, out: &mut Vec<QueueEntry>) {
        while let Some(entry) = self.pop_front(list) {
            out.push(entry);
        }
    }

    /// Checks the node arena's invariants ([`EntrySlab::check_invariants`])
    /// and the task arena against the lists: every queued task names a
    /// live slot holding its job and class, no two name the same one, and
    /// the free chain holds every other slot exactly once.
    pub fn check_invariants(&self) -> bool {
        if !self.nodes.check_invariants() {
            return false;
        }
        let slots = &self.tasks.slots;
        let mut claimed = vec![false; slots.len()];
        let mut queued_tasks = 0;
        for list in 0..self.nodes.num_lists() {
            for &word in self.nodes.iter(list) {
                let Some(slot) = word.slot() else { continue };
                let holds_it = matches!(
                    slots.get(slot as usize),
                    Some(TaskSlot::Live(spec)) if spec.job.0 == word.job && spec.class == word.class()
                );
                if !holds_it || std::mem::replace(&mut claimed[slot as usize], true) {
                    return false;
                }
                queued_tasks += 1;
            }
        }
        let mut free = 0;
        let mut cur = self.tasks.free_head;
        while cur != NIL {
            let Some(&TaskSlot::Free { next }) = slots.get(cur as usize) else {
                return false;
            };
            if std::mem::replace(&mut claimed[cur as usize], true) {
                return false;
            }
            cur = next;
            free += 1;
        }
        queued_tasks == self.tasks.live && queued_tasks + free == slots.len()
    }
}

/// The entry `word` stands for, reading a task's spec with `spec`.
fn unpack(word: Queued, spec: impl FnOnce(u32) -> TaskSpec) -> QueueEntry {
    match word.slot() {
        Some(slot) => QueueEntry::Task(spec(slot)),
        None => QueueEntry::Probe {
            job: JobId(word.job),
            class: word.class(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hawk_simcore::SimDuration;

    fn spec(class: JobClass, attempt: u32) -> TaskSpec {
        TaskSpec {
            job: JobId(u32::MAX),
            duration: SimDuration::from_micros(u64::MAX),
            estimate: SimDuration::from_secs(7),
            class,
            task: u32::MAX,
            attempt,
        }
    }

    /// A queue node is the 8-byte word plus its 4-byte link, and the free
    /// chain costs the task arena nothing per slot.
    #[test]
    fn a_queue_node_is_twelve_bytes() {
        assert_eq!(std::mem::size_of::<Queued>(), 8);
        assert_eq!(EntrySlab::<Queued>::NODE_BYTES, 12);
        assert_eq!(
            std::mem::size_of::<TaskSlot>(),
            std::mem::size_of::<TaskSpec>()
        );
    }

    /// Every field survives the word and the arena at its boundary: the
    /// largest slot a word can name; the largest job, task index, duration
    /// and attempt; either class.
    #[test]
    fn entries_round_trip_at_the_boundaries() {
        let last = MAX_TASK_SLOTS as u32 - 1;
        for class in [JobClass::Short, JobClass::Long] {
            let task = spec(class, u32::MAX);
            let word = Queued::task(&task, last);
            assert_eq!(word.slot(), Some(last));
            assert_eq!((word.job, word.class()), (u32::MAX, class));
            let probe = QueueEntry::Probe {
                job: JobId(u32::MAX),
                class,
            };

            let mut queues = QueueSlab::new(1);
            queues.push_back(0, QueueEntry::Task(task));
            queues.push_back(0, probe);
            assert_eq!(
                queues.iter(0).collect::<Vec<_>>(),
                [QueueEntry::Task(task), probe]
            );
            assert!(queues.check_invariants());
            assert_eq!(queues.pop_front(0), Some(QueueEntry::Task(task)));
            assert_eq!(queues.pop_front(0), Some(probe));
            assert_eq!(queues.live_tasks(), 0);
        }
    }

    #[test]
    #[should_panic(expected = "at most 2^30 task slots")]
    fn packing_a_slot_past_the_bound_panics() {
        Queued::task(&spec(JobClass::Short, 0), MAX_TASK_SLOTS as u32);
    }

    /// A freed slot is the next one filled, so churn below the peak of
    /// queued tasks neither grows the arena nor lengthens it.
    #[test]
    fn task_slots_recycle_below_the_peak() {
        let mut queues = QueueSlab::new(2);
        for attempt in 0..4 {
            let task = QueueEntry::Task(spec(JobClass::Long, attempt));
            queues.push_back(attempt as usize % 2, task);
        }
        let (slots, growths) = (queues.tasks.slots.len(), queues.growths());
        for round in 0..100 {
            let entry = queues.pop_front(round % 2).expect("queued");
            queues.push_back(1 - round % 2, entry);
            assert!(queues.check_invariants());
        }
        assert_eq!(
            (queues.tasks.slots.len(), queues.growths()),
            (slots, growths)
        );
        assert_eq!(queues.live_tasks(), 4);
    }
}
