//! The centralized waiting-time scheduler (§3.7).
//!
//! "The centralized component keeps a priority queue of tuples of the form
//! ⟨server, waiting time⟩ … When a new job is scheduled, for every task,
//! the centralized allocation algorithm puts the task on the node that is
//! at the head of the priority queue (the one with the smallest waiting
//! time). After every task assignment, the priority queue is updated."
//!
//! The waiting time tracked here is the sum of *estimated* runtimes of
//! every centrally-placed task assigned to the server and not yet reported
//! complete. This matches the paper's definition up to one refinement: the
//! paper subtracts the elapsed part of the currently-executing long task,
//! which requires task-start notifications the paper does not describe;
//! we subtract the whole estimate at completion instead (bounded error of
//! one task estimate per server; see DESIGN.md).

use hawk_cluster::ServerId;
use hawk_simcore::{IndexedMinHeap, SimDuration};

/// The centralized scheduler's per-server estimated-work bookkeeping.
///
/// The scheduler owns a contiguous scope of servers `[0, scope)` — the
/// general partition in Hawk, the whole cluster in the fully-centralized
/// baseline.
///
/// # Examples
///
/// ```
/// use hawk_core::CentralScheduler;
/// use hawk_simcore::SimDuration;
///
/// let mut sched = CentralScheduler::new(3);
/// // A 2-task job with a 100 s estimate: balanced over the least-loaded.
/// let placement = sched.assign_job(2, SimDuration::from_secs(100));
/// assert_eq!(placement.len(), 2);
/// assert_ne!(placement[0], placement[1]);
/// ```
#[derive(Debug, Clone)]
pub struct CentralScheduler {
    /// Estimated unfinished centrally-placed work per server, microseconds.
    work: IndexedMinHeap,
}

impl CentralScheduler {
    /// Creates a scheduler over servers `[0, scope)`, all initially idle.
    ///
    /// # Panics
    ///
    /// Panics if `scope` is zero: a centralized route needs at least one
    /// eligible server.
    pub fn new(scope: usize) -> Self {
        assert!(scope > 0, "centralized scheduler needs a non-empty scope");
        CentralScheduler {
            work: IndexedMinHeap::new(scope, 0),
        }
    }

    /// Number of servers in scope.
    pub fn scope(&self) -> usize {
        self.work.len()
    }

    /// Places every task of a job: each goes to the server with the
    /// smallest estimated waiting time, updating the queue after every
    /// assignment (§3.7).
    pub fn assign_job(&mut self, tasks: usize, estimate: SimDuration) -> Vec<ServerId> {
        let mut placement = Vec::with_capacity(tasks);
        self.assign_job_into(tasks, estimate, &mut placement);
        placement
    }

    /// Like [`CentralScheduler::assign_job`], writing into a
    /// caller-recycled buffer (cleared first) so per-arrival placement
    /// allocates nothing in steady state.
    pub fn assign_job_into(
        &mut self,
        tasks: usize,
        estimate: SimDuration,
        placement: &mut Vec<ServerId>,
    ) {
        placement.clear();
        for _ in 0..tasks {
            let id = self.work.min_id();
            self.work.add(id, estimate.as_micros());
            placement.push(ServerId(id as u32));
        }
    }

    /// Records the completion of a centrally-placed task: the server's
    /// estimated work shrinks by the task's estimate.
    pub fn on_task_complete(&mut self, server: ServerId, estimate: SimDuration) {
        self.work.sub(server.index(), estimate.as_micros());
    }

    /// Marks `server` out of service: a large penalty is added to its key
    /// so the waiting-time queue places nothing there while any live
    /// server remains. Its real accumulated work is preserved underneath
    /// the penalty. A server outside the scope, or already down, is left
    /// alone, so a repeated script entry changes nothing.
    pub fn fail(&mut self, server: ServerId) {
        if server.index() < self.scope() && !self.is_down(server) {
            self.work.add(server.index(), Self::DOWN_PENALTY);
        }
    }

    /// Returns `server` to service, removing the [`CentralScheduler::fail`]
    /// penalty; its pre-failure accumulated work (minus anything migrated
    /// away via [`CentralScheduler::migrate`]) is intact. A server outside
    /// the scope, or not down, is left alone.
    pub fn revive(&mut self, server: ServerId) {
        if server.index() < self.scope() && self.is_down(server) {
            self.work.sub(server.index(), Self::DOWN_PENALTY);
        }
    }

    /// Moves one task off `from` (a failed server, or a presumed-lost
    /// launch) to the server the §3.7 algorithm would place it on next,
    /// and returns that server. The task's estimated work follows it, so a
    /// later completion there balances out.
    ///
    /// # Panics
    ///
    /// Panics if every server in scope is down: the task would move from
    /// one down server to the next forever.
    pub fn migrate(&mut self, from: ServerId, estimate: SimDuration) -> ServerId {
        let to = ServerId(self.work.min_id() as u32);
        // The fail() penalty dwarfs any real work sum, so the minimum key
        // is a down server only when the whole scope is down.
        assert!(
            !self.is_down(to),
            "central scope has no live servers to migrate a task to \
             (the dynamics script took down the entire scope)"
        );
        self.work.sub(from.index(), estimate.as_micros());
        self.work.add(to.index(), estimate.as_micros());
        to
    }

    /// Key penalty for out-of-service servers: far above any plausible sum
    /// of task estimates, far below overflow territory even stacked with
    /// real work.
    const DOWN_PENALTY: u64 = 1 << 60;

    /// Whether `server` is out of service, read off its key: only the
    /// [`CentralScheduler::fail`] penalty puts a key this high. The test is
    /// against half the penalty because a policy that steals centrally
    /// placed tasks can release a task's estimate from a down thief that
    /// was never charged for it; that must not make the thief read as live.
    fn is_down(&self, server: ServerId) -> bool {
        self.work.key_of(server.index()) >= Self::DOWN_PENALTY / 2
    }

    /// The current estimated waiting time of `server`.
    pub fn estimated_wait(&self, server: ServerId) -> SimDuration {
        SimDuration::from_micros(self.work.key_of(server.index()))
    }

    /// The smallest estimated waiting time across the scope.
    pub fn min_wait(&self) -> SimDuration {
        SimDuration::from_micros(self.work.min_key())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balances_equal_estimates() {
        let mut s = CentralScheduler::new(4);
        let placement = s.assign_job(8, SimDuration::from_secs(10));
        // Every server gets exactly two tasks.
        let mut counts = [0usize; 4];
        for id in placement {
            counts[id.index()] += 1;
        }
        assert_eq!(counts, [2, 2, 2, 2]);
        for i in 0..4 {
            assert_eq!(
                s.estimated_wait(ServerId(i as u32)),
                SimDuration::from_secs(20)
            );
        }
    }

    #[test]
    fn prefers_least_loaded() {
        let mut s = CentralScheduler::new(2);
        s.assign_job(1, SimDuration::from_secs(100)); // server 0 loaded
        let placement = s.assign_job(1, SimDuration::from_secs(10));
        assert_eq!(placement, vec![ServerId(1)]);
    }

    #[test]
    fn completions_free_capacity() {
        let mut s = CentralScheduler::new(2);
        s.assign_job(2, SimDuration::from_secs(100)); // one task each
        s.on_task_complete(ServerId(0), SimDuration::from_secs(100));
        assert_eq!(s.estimated_wait(ServerId(0)), SimDuration::ZERO);
        assert_eq!(s.min_wait(), SimDuration::ZERO);
        let placement = s.assign_job(1, SimDuration::from_secs(5));
        assert_eq!(placement, vec![ServerId(0)]);
    }

    #[test]
    fn more_tasks_than_servers_queue_up() {
        let mut s = CentralScheduler::new(3);
        let placement = s.assign_job(10, SimDuration::from_secs(1));
        assert_eq!(placement.len(), 10);
        let total: u64 = (0..3)
            .map(|i| s.estimated_wait(ServerId(i)).as_micros())
            .sum();
        assert_eq!(total, SimDuration::from_secs(10).as_micros());
        // Max imbalance is one task.
        let waits: Vec<u64> = (0..3)
            .map(|i| s.estimated_wait(ServerId(i)).as_micros())
            .collect();
        let spread = waits.iter().max().unwrap() - waits.iter().min().unwrap();
        assert!(spread <= SimDuration::from_secs(1).as_micros());
    }

    #[test]
    #[should_panic(expected = "non-empty scope")]
    fn zero_scope_rejected() {
        CentralScheduler::new(0);
    }

    #[test]
    fn failed_servers_are_placed_last_until_revived() {
        let mut s = CentralScheduler::new(3);
        s.fail(ServerId(0));
        s.fail(ServerId(2));
        let placement = s.assign_job(4, SimDuration::from_secs(10));
        assert!(
            placement.iter().all(|&id| id == ServerId(1)),
            "placements must avoid failed servers: {placement:?}"
        );
        s.revive(ServerId(0));
        assert_eq!(
            s.assign_job(1, SimDuration::from_secs(1)),
            vec![ServerId(0)]
        );
    }

    #[test]
    fn migrate_moves_work_to_the_least_loaded_live_server() {
        let mut s = CentralScheduler::new(2);
        s.assign_job(1, SimDuration::from_secs(100)); // lands on server 0
        s.fail(ServerId(0));
        assert_eq!(
            s.migrate(ServerId(0), SimDuration::from_secs(100)),
            ServerId(1)
        );
        s.revive(ServerId(0));
        assert_eq!(s.estimated_wait(ServerId(0)), SimDuration::ZERO);
        assert_eq!(s.estimated_wait(ServerId(1)), SimDuration::from_secs(100));
        // The migrated task's completion balances on the new server.
        s.on_task_complete(ServerId(1), SimDuration::from_secs(100));
        assert_eq!(s.estimated_wait(ServerId(1)), SimDuration::ZERO);
    }

    /// Membership changes are transitions: a repeated `fail`, a `revive`
    /// of a live server and either for a server beyond the scope leave
    /// every key as it was.
    #[test]
    fn redundant_and_out_of_scope_membership_changes_are_no_ops() {
        let mut s = CentralScheduler::new(2);
        s.assign_job(2, SimDuration::from_secs(100)); // one task each
        s.revive(ServerId(1));
        s.fail(ServerId(5));
        s.revive(ServerId(5));
        assert_eq!(s.estimated_wait(ServerId(1)), SimDuration::from_secs(100));
        s.fail(ServerId(1));
        s.fail(ServerId(1));
        s.revive(ServerId(1));
        assert_eq!(s.estimated_wait(ServerId(1)), SimDuration::from_secs(100));
        assert_eq!(
            s.assign_job(2, SimDuration::from_secs(1)),
            vec![ServerId(0), ServerId(1)]
        );
    }

    #[test]
    fn interleaved_jobs_see_each_others_load() {
        // §3.7's point: the central view covers all long work. Job B's
        // placement must avoid servers loaded by job A.
        let mut s = CentralScheduler::new(4);
        let a = s.assign_job(2, SimDuration::from_secs(1_000));
        let b = s.assign_job(2, SimDuration::from_secs(1));
        let a_set: std::collections::HashSet<_> = a.into_iter().collect();
        for id in b {
            assert!(!a_set.contains(&id), "job B placed behind job A");
        }
    }
}
