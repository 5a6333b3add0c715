//! Distributed batch probing (§3.5, after Sparrow [14]).
//!
//! "To schedule a job with *t* tasks, a distributed scheduler sends probes
//! to *2t* servers. When a probe comes to the head of a server's queue, the
//! server requests a task from the scheduler. If the scheduler has not
//! given out the *t* tasks to other servers, it responds to the server with
//! a task. Otherwise, a cancel is sent."
//!
//! The per-job late-binding state (which tasks are still unlaunched) lives
//! with each harness's job record; this module holds the rules the
//! simulator's `Core` and the prototype's daemons both apply to it — how an
//! entry lands on a server ([`land`]), what becomes of a displaced probe
//! ([`displaced_probe`]) and the answer to a task request ([`late_bind`]) —
//! and computes probe *placements*: how many probes and which servers,
//! uniformly at random within the route's scope.

use hawk_cluster::{Cluster, QueueEntry, Server, ServerId};
use hawk_simcore::SimRng;
use hawk_workload::{JobClass, JobId};

use crate::scheduler::{PlacementView, Scheduler};

/// What a queue entry that reached a server does there ([`land`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Landing {
    /// The server is down: the entry is displaced, like one drained off
    /// its queue, and its deciding scheduler re-places it.
    Displaced,
    /// The policy steers the probe away (long-aware probe avoidance): it
    /// retries on a random server of its scope, one bounce more.
    Bounce {
        /// The probe's job.
        job: JobId,
        /// The job's scheduled class.
        class: JobClass,
    },
    /// The entry joins the server's queue.
    Queue,
}

/// How `entry` — a probe that has bounced `bounces` times, or a
/// directly-placed task — lands on `server`: displaced if the server is
/// down, bounced if `scheduler` steers the probe away
/// ([`Scheduler::bounce_probe`]), queued otherwise. The simulator's `Core`
/// and the prototype's worker both land every arrival with it.
pub fn land(server: &Server, scheduler: &dyn Scheduler, entry: QueueEntry, bounces: u8) -> Landing {
    match entry {
        _ if server.is_down() => Landing::Displaced,
        QueueEntry::Probe { job, class } if scheduler.bounce_probe(server, class, bounces) => {
            Landing::Bounce { job, class }
        }
        _ => Landing::Queue,
    }
}

/// Where a probe displaced from its server goes: while its job still has
/// an `unlaunched` task, to a random live server of its class's probe scope
/// in `cluster` (it may be needed for liveness); otherwise nowhere — it is
/// abandoned, since a bind would only produce a cancel. The simulator's
/// `Core` and the prototype's distributed scheduler both decide with it.
pub fn displaced_probe(
    unlaunched: bool,
    cluster: &Cluster,
    scheduler: &dyn Scheduler,
    class: JobClass,
    rng: &mut SimRng,
) -> Option<ServerId> {
    unlaunched.then(|| PlacementView::for_probes(cluster, scheduler, class).random_server(rng))
}

/// Late binding's answer to one task request (§3.5): the job's next
/// unlaunched task, advancing `next_task`, or `None` — a cancel — once all
/// `num_tasks` are given out. Tasks go out in index order. The simulator's
/// `Core` and the prototype's fault-free distributed scheduler both answer
/// with it.
pub fn late_bind(next_task: &mut u32, num_tasks: usize) -> Option<u32> {
    let task = *next_task;
    ((task as usize) < num_tasks).then(|| {
        *next_task += 1;
        task
    })
}

/// Plans probe counts and targets for one distributed scheduler.
#[derive(Debug, Clone, Copy)]
pub struct ProbePlanner {
    /// Probes per task (paper: 2).
    pub probe_ratio: f64,
}

impl ProbePlanner {
    /// Creates a planner with the given probe ratio.
    pub fn new(probe_ratio: f64) -> Self {
        assert!(
            probe_ratio >= 1.0,
            "probe ratio below 1 cannot bind all tasks"
        );
        ProbePlanner { probe_ratio }
    }

    /// Number of probes for a job with `tasks` tasks: `⌈ratio·t⌉`.
    pub fn probes_for(&self, tasks: usize) -> usize {
        (self.probe_ratio * tasks as f64).ceil() as usize
    }

    /// Picks probe targets within the contiguous server range
    /// `[start, start+len)`, into a caller-recycled buffer (cleared first)
    /// so the per-arrival hot path allocates nothing in steady state.
    ///
    /// Targets are distinct while the range allows it. When a job needs
    /// more probes than the scope has servers (possible only in scaled-down
    /// clusters), every server receives `⌊probes/len⌋` probes and the
    /// remainder is placed on a distinct random subset — guaranteeing at
    /// least `t` probes exist so late binding can launch every task.
    pub fn targets_into(
        &self,
        tasks: usize,
        start: u32,
        len: usize,
        rng: &mut SimRng,
        out: &mut Vec<ServerId>,
    ) {
        self.fill_targets(tasks, len, rng, out, |i| ServerId(start + i as u32));
    }

    /// Picks probe targets among the **live** servers of a placement
    /// view's scope: ranks are drawn exactly as [`ProbePlanner::targets_into`]
    /// draws offsets, then mapped through
    /// [`PlacementView::server_in_scope`]. On a static cluster the mapping
    /// is the identity, so the RNG draw sequence *and* the targets are
    /// bit-identical to the raw-range variant — under scenario dynamics,
    /// failed servers are simply never probed.
    pub fn targets_in_view_into(
        &self,
        view: &PlacementView<'_>,
        tasks: usize,
        rng: &mut SimRng,
        out: &mut Vec<ServerId>,
    ) {
        self.fill_targets(tasks, view.scope_len(), rng, out, |i| {
            view.server_in_scope(i)
        });
    }

    /// The one probe-selection body both variants share: `⌊probes/len⌋`
    /// full rounds over every rank, plus a distinct random subset for the
    /// remainder, each rank mapped to a server by `server_at`.
    fn fill_targets(
        &self,
        tasks: usize,
        len: usize,
        rng: &mut SimRng,
        out: &mut Vec<ServerId>,
        server_at: impl Fn(usize) -> ServerId + Copy,
    ) {
        assert!(len > 0, "probe scope is empty");
        out.clear();
        let probes = self.probes_for(tasks);
        let full_rounds = probes / len;
        let remainder = probes % len;
        for _ in 0..full_rounds {
            out.extend((0..len).map(server_at));
        }
        let base = out.len();
        rng.sample_distinct_map_into(len, remainder, out, server_at);
        debug_assert_eq!(out.len(), base + remainder);
    }
}

impl Default for ProbePlanner {
    /// The paper's probe ratio of 2.
    fn default() -> Self {
        ProbePlanner::new(2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn targets(p: &ProbePlanner, tasks: usize, start: u32, len: usize, seed: u64) -> Vec<ServerId> {
        let mut out = Vec::new();
        p.targets_into(
            tasks,
            start,
            len,
            &mut SimRng::seed_from_u64(seed),
            &mut out,
        );
        out
    }

    #[test]
    fn late_bind_hands_out_tasks_in_order_then_cancels() {
        let mut next = 0;
        assert_eq!(late_bind(&mut next, 2), Some(0));
        assert_eq!(late_bind(&mut next, 2), Some(1));
        assert_eq!(late_bind(&mut next, 2), None);
        assert_eq!(next, 2, "a cancel moves nothing");
    }

    #[test]
    fn probe_count_is_twice_tasks() {
        let p = ProbePlanner::default();
        assert_eq!(p.probes_for(100), 200);
        assert_eq!(p.probes_for(1), 2);
    }

    #[test]
    fn fractional_ratio_rounds_up() {
        let p = ProbePlanner::new(1.5);
        assert_eq!(p.probes_for(3), 5);
    }

    #[test]
    fn targets_distinct_when_room() {
        let targets = targets(&ProbePlanner::default(), 10, 0, 1_000, 1);
        assert_eq!(targets.len(), 20);
        let set: HashSet<_> = targets.iter().collect();
        assert_eq!(set.len(), 20, "targets must be distinct");
        assert!(targets.iter().all(|s| s.0 < 1_000));
    }

    #[test]
    fn targets_respect_range_offset() {
        let targets = targets(&ProbePlanner::default(), 5, 500, 100, 2);
        assert!(targets.iter().all(|s| (500..600).contains(&s.0)));
    }

    #[test]
    fn oversubscribed_range_tops_up_with_repeats() {
        // 2t = 50 probes into 20 servers: every server gets 2, 10 get 3.
        let targets = targets(&ProbePlanner::default(), 25, 0, 20, 3);
        assert_eq!(targets.len(), 50);
        let mut counts = [0usize; 20];
        for t in &targets {
            counts[t.0 as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c == 2 || c == 3));
        assert_eq!(counts.iter().filter(|&&c| c == 3).count(), 10);
    }

    #[test]
    fn probes_always_cover_tasks() {
        // The late-binding liveness condition: probes ≥ tasks even in tiny
        // scopes.
        for (tasks, len) in [(100, 7), (3, 1), (64, 64), (1, 1)] {
            let targets = targets(&ProbePlanner::default(), tasks, 0, len, 4);
            assert!(
                targets.len() >= tasks,
                "{} probes for {tasks} tasks in scope {len}",
                targets.len()
            );
        }
    }

    #[test]
    #[should_panic(expected = "probe ratio below 1")]
    fn ratio_below_one_rejected() {
        ProbePlanner::new(0.5);
    }

    #[test]
    #[should_panic(expected = "probe scope is empty")]
    fn empty_scope_rejected() {
        targets(&ProbePlanner::default(), 1, 0, 0, 5);
    }
}
