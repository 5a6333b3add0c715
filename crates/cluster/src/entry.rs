//! Queue entries: probes and directly-placed tasks.

use hawk_simcore::SimDuration;
use hawk_workload::{Job, JobClass, JobId};
use serde::{Deserialize, Serialize};

/// A concrete task bound to a server: what runs in the execution slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskSpec {
    /// The owning job.
    pub job: JobId,
    /// Actual execution duration.
    pub duration: SimDuration,
    /// The job-level *estimated task runtime* (possibly misestimated) the
    /// centralized scheduler's waiting-time bookkeeping uses (§3.7).
    pub estimate: SimDuration,
    /// The job's scheduling class under the active cutoff.
    pub class: JobClass,
    /// Index of this task within its job (`0..num_tasks`). Together with
    /// `attempt` it forms the `(job, task, attempt)` idempotency key the
    /// prototype's hardened protocol dedups launches and completions by;
    /// the simulator fills it but never branches on it.
    pub task: u32,
    /// Launch attempt: 0 for the first launch, bumped each time the
    /// hardened protocol relaunches a task presumed lost.
    pub attempt: u32,
}

impl TaskSpec {
    /// The first attempt of `job`'s task `task`, scheduled as `class` under
    /// the job-level `estimate`; its duration is read off the job. A
    /// relaunch writes `TaskSpec { attempt, ..TaskSpec::of(..) }`.
    pub fn of(job: &Job, task: u32, estimate: SimDuration, class: JobClass) -> Self {
        TaskSpec {
            job: job.id,
            duration: job.tasks[task as usize],
            estimate,
            class,
            task,
            attempt: 0,
        }
    }
}

/// One entry in a server's FIFO queue.
///
/// Distributed schedulers enqueue [`QueueEntry::Probe`]s: placeholders that
/// are bound to a task only when they reach the head of the queue (Sparrow
/// late binding, §3.5). The centralized scheduler enqueues fully-specified
/// [`QueueEntry::Task`]s (§3.7). Work stealing moves entries between queues
/// (§3.6); a stolen probe re-binds at the thief, so stealing a reservation
/// of a job that has already launched all its tasks resolves to a cancel,
/// exactly as in the Spark prototype.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueueEntry {
    /// A late-binding reservation from a distributed scheduler.
    Probe {
        /// The job whose scheduler will be asked for a task.
        job: JobId,
        /// The job's scheduling class (long probes occur only in the
        /// "Hawk without centralized" ablation and the Sparrow baseline).
        class: JobClass,
    },
    /// A task placed directly by the centralized scheduler.
    Task(TaskSpec),
}

impl QueueEntry {
    /// The owning job.
    pub fn job(&self) -> JobId {
        match self {
            QueueEntry::Probe { job, .. } => *job,
            QueueEntry::Task(spec) => spec.job,
        }
    }

    /// The scheduling class of the entry.
    pub fn class(&self) -> JobClass {
        match self {
            QueueEntry::Probe { class, .. } => *class,
            QueueEntry::Task(spec) => spec.class,
        }
    }

    /// True if the entry belongs to a long job.
    pub fn is_long(&self) -> bool {
        self.class().is_long()
    }

    /// True if the entry belongs to a short job.
    pub fn is_short(&self) -> bool {
        self.class().is_short()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(class: JobClass) -> TaskSpec {
        TaskSpec {
            job: JobId(3),
            duration: SimDuration::from_secs(10),
            estimate: SimDuration::from_secs(12),
            class,
            task: 0,
            attempt: 0,
        }
    }

    #[test]
    fn probe_accessors() {
        let p = QueueEntry::Probe {
            job: JobId(7),
            class: JobClass::Short,
        };
        assert_eq!(p.job(), JobId(7));
        assert_eq!(p.class(), JobClass::Short);
        assert!(p.is_short());
        assert!(!p.is_long());
    }

    #[test]
    fn task_accessors() {
        let t = QueueEntry::Task(spec(JobClass::Long));
        assert_eq!(t.job(), JobId(3));
        assert!(t.is_long());
    }
}
