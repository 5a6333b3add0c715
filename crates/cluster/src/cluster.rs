//! The cluster: a server table with partition map, the steal-candidate
//! index and utilization tracking.
//!
//! Beyond the per-server state machines, [`Cluster`] keeps the one
//! aggregate a scheduling decision reads: the bitmap of steal candidates
//! (see [`crate::index`]), flipped on the enqueues, binds, finishes and
//! steals that change a server's §3.6 victim eligibility. Per-server reads
//! — queue depth for power-of-d placement, long-work — are one load of the
//! server's stat word.

use std::ops::Range;

use hawk_simcore::stats::{median, percentile};
use hawk_simcore::SimDuration;
use hawk_workload::scenario::check_speed;

use crate::entry::{QueueEntry, TaskSpec};
use crate::index::BitSet;
use crate::partition::Partition;
use crate::queue::QueueSlab;
use crate::server::{scale_duration, RunningTask, Server, ServerAction, ServerId, Stat};
use crate::steal;
use crate::steal::StealScratch;

/// A simulated cluster of single-slot FIFO servers.
///
/// Wraps the per-server state machines and keeps the running-server count
/// and the steal-candidate index current, so utilization snapshots,
/// queue-depth reads and steal-victim eligibility are all O(1).
///
/// # Examples
///
/// ```
/// use hawk_cluster::{Cluster, QueueEntry, ServerAction, ServerId, TaskSpec};
/// use hawk_simcore::SimDuration;
/// use hawk_workload::{JobClass, JobId};
///
/// let mut cluster = Cluster::new(4, 0.25); // 3 general + 1 short-reserved
/// let spec = TaskSpec {
///     job: JobId(0),
///     duration: SimDuration::from_secs(60),
///     estimate: SimDuration::from_secs(60),
///     class: JobClass::Long,
///     task: 0,
///     attempt: 0,
/// };
/// let action = cluster.enqueue(ServerId(0), QueueEntry::Task(spec));
/// assert_eq!(action, Some(ServerAction::StartTask(spec)));
/// assert_eq!(cluster.running_count(), 1);
/// assert!((cluster.utilization() - 0.25).abs() < 1e-12);
/// assert_eq!(cluster.queue_depth(ServerId(0)), 1);
/// assert!(cluster.holds_long_work(ServerId(0)));
/// ```
///
/// # Owned range
///
/// A cluster stores [`Server`] state machines and queue lists for one
/// contiguous *owned* id range — the whole id space for [`Cluster::new`],
/// a shard's slice for [`Cluster::ranged`] — and accepts work only there.
/// Owned server `own_start + i` is `servers[i]`, and its queue is list `i`
/// of the shared [`QueueSlab`]: the index is the server's id and list, so
/// a `Server` stores neither. Every other id is known by membership
/// alone: **an in-service server outside the owned range reads as idle at
/// depth 0**. That one sentinel answers [`Cluster::queue_depth`],
/// [`Cluster::holds_long_work`] and [`Cluster::is_steal_candidate`], while
/// the down bitmap, [`Cluster::live_ids`] and the live counts cover every
/// id exactly ([`Cluster::fail_server`] / [`Cluster::revive_server`] take
/// any id), so placement views and victim filters see correct membership
/// everywhere. The cost per non-owned server is two bitmap bits and a
/// live-id word instead of a 20-byte `Server` and a list.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// First owned id: `servers[i]` is server `own_start + i`.
    own_start: u32,
    /// The owned range's state machines.
    servers: Vec<Server>,
    /// The shared queue arena: one intrusive FIFO list per owned server
    /// (list `i` backs `servers[i]`). All queue storage lives here (see
    /// [`QueueSlab`]).
    queues: QueueSlab,
    /// Execution-speed factors of the owned range (`speeds[i]` is
    /// `servers[i]`'s), read only at launch by [`Cluster::occupancy`].
    /// Empty when every owned server runs at speed 1.0.
    speeds: Vec<f64>,
    /// Reused working space for the granularity-driven steal scans.
    steal_scratch: StealScratch,
    partition: Partition,
    running: usize,
    /// Servers out of service, over the whole id space. Empty in every
    /// static scenario.
    down: BitSet,
    /// Servers a steal scan can find something on: holding long work (slot
    /// or queue) *and* a queued short entry — §3.6 steal-victim
    /// eligibility, packed so a check is one L1 load. A clear bit is
    /// exact; a set bit still needs the scan.
    steal_candidates: BitSet,
    /// Down servers still executing their draining task. Utilization
    /// counts them as usable capacity until the slot empties.
    down_running: usize,
    /// Sorted ids of the in-service servers; the identity sequence while
    /// `down_count == 0`. Rebuilt on each (rare) lifecycle event so rank →
    /// live-server lookups stay O(1) on the placement hot path. Because
    /// ids are sorted and the partitions are contiguous id ranges, the
    /// first `live_general` entries are the live general partition.
    live_ids: Vec<u32>,
    /// Number of in-service servers in the general partition.
    live_general: usize,
}

impl Cluster {
    /// Creates `total` idle servers with a `short_fraction` reservation
    /// (§3.4). Use `0.0` for unpartitioned baselines.
    pub fn new(total: usize, short_fraction: f64) -> Self {
        Self::ranged(total, short_fraction, 0..total as u32, None)
    }

    /// Creates a cluster with per-server execution-speed factors
    /// (`speeds[i]` is server `i`'s factor; see [`Cluster::occupancy`]).
    ///
    /// # Panics
    ///
    /// Panics if `speeds.len() != total` or any factor is not finite and
    /// positive.
    pub fn with_speeds(total: usize, short_fraction: f64, speeds: &[f64]) -> Self {
        Self::ranged(total, short_fraction, 0..total as u32, Some(speeds))
    }

    /// Creates a `total`-server cluster that stores only the servers of
    /// `owned` (see the type docs, "Owned range"); `speeds`, when given,
    /// still has one factor per server of the whole cluster.
    /// [`Cluster::new`] and [`Cluster::with_speeds`] are the full range.
    ///
    /// # Panics
    ///
    /// Panics if `owned` reaches past `total`, `speeds.len() != total` or
    /// any owned factor is not finite and positive.
    pub fn ranged(
        total: usize,
        short_fraction: f64,
        owned: Range<u32>,
        speeds: Option<&[f64]>,
    ) -> Self {
        let partition = Partition::new(total, short_fraction);
        assert!(
            owned.start <= owned.end && owned.end as usize <= total,
            "owned range {owned:?} outside 0..{total}"
        );
        let mut own_speeds = Vec::new();
        if let Some(speeds) = speeds {
            assert_eq!(speeds.len(), total, "one speed factor per server");
            own_speeds = speeds[owned.start as usize..owned.end as usize].to_vec();
            own_speeds.iter().copied().for_each(check_speed);
            if own_speeds.iter().all(|&speed| speed == 1.0) {
                own_speeds = Vec::new();
            }
        }
        Cluster {
            own_start: owned.start,
            queues: QueueSlab::new(owned.len()),
            servers: vec![Server::default(); owned.len()],
            speeds: own_speeds,
            steal_scratch: StealScratch::new(),
            partition,
            running: 0,
            down: BitSet::new(total),
            steal_candidates: BitSet::new(total),
            down_running: 0,
            live_ids: (0..total as u32).collect(),
            live_general: partition.general_count(),
        }
    }

    /// Raises the floors of the shared queue arenas: room for `entries`
    /// queued entries (12 bytes each) and `tasks` queued tasks (32 bytes
    /// each) before the first on-demand growth. Past them the arenas grow
    /// by doubling, at new peaks only ([`hawk_simcore::EntrySlab`]'s
    /// growth contract).
    pub fn reserve_queues(&mut self, entries: usize, tasks: usize) {
        self.queues.reserve(entries, tasks);
    }

    /// [`Cluster::reserve_queues`] for entries alone.
    pub fn reserve_queue_nodes(&mut self, nodes: usize) {
        self.reserve_queues(nodes, 0);
    }

    /// `servers` index of `id`: in bounds exactly for the owned range, so
    /// indexing with it panics for any other id — work is only ever handed
    /// to owned servers.
    #[inline]
    fn slot_of(&self, id: ServerId) -> usize {
        id.0.wrapping_sub(self.own_start) as usize
    }

    /// The indexed state of `id`: its stat word if owned, else the idle
    /// sentinel (which a *down* non-owned server also reads as; liveness
    /// is the down bitmap's to answer).
    #[inline]
    fn stat(&self, id: ServerId) -> Stat {
        self.servers
            .get(self.slot_of(id))
            .map_or(Stat::IDLE, Server::stat)
    }

    /// Applies `mutate` to one server (handing it the shared queue arena
    /// and its list), flipping its steal-candidate bit if the mutation
    /// changed it. All mutation paths funnel through here.
    fn update<R>(
        &mut self,
        id: ServerId,
        mutate: impl FnOnce(&mut Server, &mut QueueSlab, usize) -> R,
    ) -> R {
        let slot = self.slot_of(id);
        let server = &mut self.servers[slot];
        let before = server.stat();
        let result = mutate(server, &mut self.queues, slot);
        let after = server.stat();
        if before.is_candidate() != after.is_candidate() && !before.is_down() {
            // Down servers are members of no index; their residual
            // transitions (the draining slot finishing or binding) need no
            // maintenance. The down bit itself never flips inside a
            // mutation — only fail_server/revive_server move it, with
            // explicit index surgery.
            debug_assert!(!after.is_down(), "down bit flipped inside update");
            self.steal_candidates.set(id.index(), after.is_candidate());
        }
        result
    }

    /// Number of servers (the whole id space, owned or not).
    pub fn len(&self) -> usize {
        self.partition.total()
    }

    /// True if the cluster has no servers (never constructible).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The partition map.
    pub fn partition(&self) -> Partition {
        self.partition
    }

    /// Read access to one owned server.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the owned range (no such state exists).
    pub fn server(&self, id: ServerId) -> &Server {
        &self.servers[self.slot_of(id)]
    }

    /// Read access to the shared queue arena (see the type docs, "Owned
    /// range", for which list backs which server).
    pub fn queues(&self) -> &QueueSlab {
        &self.queues
    }

    /// The queue of the owned server `id`, head first.
    pub fn queue(&self, id: ServerId) -> impl Iterator<Item = QueueEntry> + '_ {
        self.queues.iter(self.slot_of(id))
    }

    /// How long a task of nominal duration `duration` occupies the owned
    /// server `id`'s slot: [`scale_duration`] by its speed factor.
    pub fn occupancy(&self, id: ServerId, duration: SimDuration) -> SimDuration {
        let speed = self.speeds.get(self.slot_of(id)).copied().unwrap_or(1.0);
        scale_duration(duration, speed)
    }

    /// Number of servers currently executing a task.
    pub fn running_count(&self) -> usize {
        self.running
    }

    /// Fraction of servers executing a task — the paper's cluster
    /// utilization metric (§2.3: "percentage of used servers").
    pub fn utilization(&self) -> f64 {
        // Usable capacity = in-service servers plus down servers still
        // draining a task; on a static cluster this is exactly the paper's
        // denominator (every server), and under churn it keeps the metric
        // in [0, 1] without understating load while capacity is reduced.
        let usable = self.live_count() + self.down_running;
        self.running as f64 / usable.max(1) as f64
    }

    /// Enqueues an entry on `id`, updating the running count and indexes.
    pub fn enqueue(&mut self, id: ServerId, entry: QueueEntry) -> Option<ServerAction> {
        let action = self.update(id, |s, q, list| s.enqueue(q, list, entry));
        if let Some(ServerAction::StartTask(_)) = action {
            self.running += 1;
        }
        action
    }

    /// Delivers a bind response to `id`.
    pub fn on_bind_response(&mut self, id: ServerId, task: Option<TaskSpec>) -> ServerAction {
        let action = self.update(id, |s, q, list| s.on_bind_response(q, list, task));
        if let ServerAction::StartTask(_) = action {
            self.running += 1;
            if self.down.contains(id.index()) {
                // A bind committed before the failure launches anyway:
                // the draining slot still counts as usable capacity.
                self.down_running += 1;
            }
        }
        action
    }

    /// Completes the running task on `id`, returning what its slot held
    /// of the task and the follow-up action.
    pub fn on_task_finish(&mut self, id: ServerId) -> (RunningTask, ServerAction) {
        let (task, action) = self.update(id, |s, q, list| s.on_task_finish(q, list));
        self.running -= 1;
        if self.down.contains(id.index()) {
            // A draining server's slot emptied: its capacity is gone.
            self.down_running -= 1;
        }
        if let ServerAction::StartTask(_) = action {
            self.running += 1;
        }
        (task, action)
    }

    /// Attempts to steal from `victim` (§3.6) at `granularity`, appending
    /// what the scan takes to `out` in queue order (nothing appended when
    /// no group is eligible). The scan's working space is a buffer
    /// recycled inside the cluster, so once `out` has warmed up repeated
    /// attempts allocate nothing.
    pub fn steal_from_with_into(
        &mut self,
        victim: ServerId,
        granularity: steal::StealGranularity,
        rng: &mut hawk_simcore::SimRng,
        out: &mut Vec<QueueEntry>,
    ) {
        let mut scratch = std::mem::take(&mut self.steal_scratch);
        self.update(victim, |s, q, list| {
            steal::steal_from_with_into(s, q, list, granularity, rng, &mut scratch, out)
        });
        self.steal_scratch = scratch;
    }

    /// Hands stolen entries to `thief` by draining `entries` (left empty,
    /// capacity intact, so the caller can recycle it), returning the
    /// action if the thief started processing (it is idle by construction,
    /// so it will).
    pub fn give_stolen_drain(
        &mut self,
        thief: ServerId,
        entries: &mut Vec<QueueEntry>,
    ) -> Option<ServerAction> {
        let action = self.update(thief, |s, q, list| {
            s.enqueue_all(q, list, entries.drain(..))
        });
        if let Some(ServerAction::StartTask(_)) = action {
            self.running += 1;
        }
        action
    }

    // --- Server lifecycle (scenario dynamics). ---

    /// Takes `id` out of service: its queue is drained into `drained` (in
    /// queue order; `drained` is not cleared) for the caller to migrate or
    /// abandon, and the server leaves every index — placement views and
    /// the candidate bitmap see only live servers from here on. A task
    /// already executing (or a probe mid-bind) finishes on its own; the
    /// server goes fully dark when its slot empties. A server outside the
    /// owned range has nothing to drain and leaves the indexes as the idle
    /// sentinel it was counted as.
    ///
    /// Returns `false` (and drains nothing) if the server was already
    /// down. Allocation-free once `drained` has warmed up.
    pub fn fail_server(&mut self, id: ServerId, drained: &mut Vec<QueueEntry>) -> bool {
        if self.down.contains(id.index()) {
            return false;
        }
        let slot = self.slot_of(id);
        if slot < self.servers.len() {
            // Drain through `update` so the candidate bitmap watches the
            // queue empty while the server is still a live index member.
            self.update(id, |s, q, list| s.drain_queue_into(q, list, drained));
            self.down_running += usize::from(self.servers[slot].is_running());
            self.servers[slot].set_down(true);
        }
        // Remove the server from the candidate bitmap and the live map.
        self.set_membership(id, false);
        true
    }

    /// Returns `id` to service, idle (or still finishing its draining
    /// slot) and empty-queued: it becomes visible to placement again.
    ///
    /// Returns `false` if the server was not down.
    pub fn revive_server(&mut self, id: ServerId) -> bool {
        if !self.down.contains(id.index()) {
            return false;
        }
        let slot = self.slot_of(id);
        if let Some(server) = self.servers.get_mut(slot) {
            server.set_down(false);
            self.down_running -= usize::from(server.is_running());
        }
        self.set_membership(id, true);
        true
    }

    /// Adds (`live`) or removes server `id` to or from the candidate
    /// bitmap, the down bitmap and the live-id map — the one place
    /// liveness changes.
    fn set_membership(&mut self, id: ServerId, live: bool) {
        let idx = id.index();
        self.steal_candidates
            .set(idx, live && self.stat(id).is_candidate());
        self.down.set(idx, !live);
        self.rebuild_live();
    }

    /// Rebuilds the sorted live-id map after a lifecycle event. O(n), but
    /// lifecycle events are rare (scripted churn, not per-event traffic)
    /// and the buffer's capacity is retained, so rebuilds allocate
    /// nothing.
    fn rebuild_live(&mut self) {
        self.live_ids.clear();
        self.live_general = 0;
        for id in (0..self.len() as u32).filter(|&id| !self.down.contains(id as usize)) {
            self.live_ids.push(id);
            self.live_general += usize::from(self.partition.in_general(ServerId(id)));
        }
    }

    /// True if `server` is out of service.
    pub fn is_down(&self, server: ServerId) -> bool {
        self.down.contains(server.index())
    }

    /// Number of servers currently out of service.
    pub fn down_count(&self) -> usize {
        self.down.count()
    }

    /// Number of down servers still executing their draining task. These
    /// count as usable capacity in [`Cluster::utilization`]; sharded
    /// drivers read the raw component to merge utilization across shards
    /// with the same denominator convention.
    pub fn down_running_count(&self) -> usize {
        self.down_running
    }

    /// Number of in-service servers.
    pub fn live_count(&self) -> usize {
        self.len() - self.down.count()
    }

    /// Number of in-service servers in the general partition.
    pub fn live_count_general(&self) -> usize {
        self.live_general
    }

    /// Number of in-service servers in the reserved short partition.
    pub fn live_count_short(&self) -> usize {
        self.live_count() - self.live_general
    }

    /// The sorted ids of the in-service servers (the identity sequence
    /// while nothing is down). Because partitions are contiguous id
    /// ranges, the first [`Cluster::live_count_general`] entries are the
    /// live general partition.
    pub fn live_ids(&self) -> &[u32] {
        &self.live_ids
    }

    // --- Index queries: O(1) reads. ---

    /// Pending work at `server`: queued entries plus one if the execution
    /// slot is occupied. Load-aware placement (power-of-d choices) ranks
    /// candidates by this. O(1): one load of the stat word (zero, by the
    /// sentinel, outside the owned range).
    pub fn queue_depth(&self, server: ServerId) -> usize {
        self.stat(server).depth() as usize
    }

    /// True if the in-service `server` holds long work — a long task in
    /// the slot (running or awaiting bind) or a long entry anywhere in its
    /// queue. Read from the server's stat word; down servers hold nothing.
    pub fn holds_long_work(&self, server: ServerId) -> bool {
        let stat = self.stat(server);
        stat.holds_long() && !stat.is_down()
    }

    /// True if a steal scan of the in-service `server` can find anything:
    /// it holds long work and has a short entry queued — the §3.6
    /// steal-victim eligibility signal. `false` is exact for every
    /// granularity (see [`Server::is_steal_candidate`]); `true` still needs
    /// the scan. One bitmap load.
    pub fn is_steal_candidate(&self, server: ServerId) -> bool {
        self.steal_candidates.contains(server.index())
    }

    /// Number of steal candidates. Zero means no steal attempt anywhere in
    /// the cluster can succeed.
    pub fn steal_candidate_count(&self) -> usize {
        self.steal_candidates.count()
    }

    /// Checks every owned server's invariants plus the running count, the
    /// queue arena, and the candidate and liveness indexes against a
    /// from-scratch recomputation over the whole id space — owned servers
    /// from their state machines, the rest as the idle sentinel. The error
    /// names the server and the field that disagrees.
    pub fn check_invariants(&self) -> Result<(), String> {
        if !self.queues.check_invariants() {
            return Err("queue arena: slab invariants broken".into());
        }
        let mut running = 0;
        let mut candidates = 0;
        let mut down_running = 0;
        let mut live_ids = Vec::with_capacity(self.len());
        let mut live_general = 0;
        for id in (0..self.len() as u32).map(ServerId) {
            let slot = self.slot_of(id);
            let server = self.servers.get(slot);
            if let Some(server) = server {
                server
                    .check_invariants(&self.queues, slot)
                    .map_err(|e| format!("{id}: {e}"))?;
            }
            let is_running = server.is_some_and(Server::is_running);
            running += usize::from(is_running);
            let down = self.down.contains(id.index());
            if server.is_some_and(|s| s.is_down() != down) {
                return Err(format!(
                    "{id}: down bit disagrees with the down map ({down})"
                ));
            }
            if down {
                // A down server was drained and sits in no index.
                if server.is_some_and(|s| s.queue_len() != 0) {
                    return Err(format!("{id}: down with a non-empty queue"));
                }
                if self.steal_candidates.contains(id.index()) {
                    return Err(format!("{id}: down but a steal candidate"));
                }
                down_running += usize::from(is_running);
                continue;
            }
            live_ids.push(id.0);
            live_general += usize::from(self.partition.in_general(id));
            // The candidate index, recomputed from the queue itself rather
            // than from the counts the stat word is built from.
            let candidate = server.is_some_and(|s| {
                let holds_long = s.slot().holds_long() || self.queue(id).any(|e| e.is_long());
                holds_long && self.queue(id).any(|e| e.is_short())
            });
            if candidate != self.steal_candidates.contains(id.index()) {
                return Err(format!("{id}: candidate bit is not {candidate}"));
            }
            candidates += usize::from(candidate);
        }
        let counts = [
            ("running count", running, self.running),
            ("candidate count", candidates, self.steal_candidates.count()),
            ("down count", self.len() - live_ids.len(), self.down.count()),
            ("down running count", down_running, self.down_running),
            ("live general count", live_general, self.live_general),
        ];
        if let Some((name, want, kept)) = counts.into_iter().find(|&(_, want, kept)| want != kept) {
            return Err(format!("{name}: {kept} kept, {want} recomputed"));
        }
        if live_ids != self.live_ids {
            return Err("live map: differs from the down map".into());
        }
        Ok(())
    }
}

/// Periodic utilization snapshots (the paper samples every 100 s and
/// reports the median; §2.3 also quotes the maximum).
#[derive(Debug, Clone)]
pub struct UtilizationTracker {
    interval: SimDuration,
    samples: Vec<f64>,
}

impl UtilizationTracker {
    /// The paper's sampling interval.
    pub const PAPER_INTERVAL: SimDuration = SimDuration::from_secs(100);

    /// Creates a tracker sampling at `interval` (drivers schedule the
    /// sampling events; the tracker only stores values).
    pub fn new(interval: SimDuration) -> Self {
        UtilizationTracker {
            interval,
            // Pre-sized so early samples stay off the allocator (the
            // zero-allocation window test measures the whole event loop);
            // longer runs amortize growth as usual.
            samples: Vec::with_capacity(256),
        }
    }

    /// The sampling interval.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// Records one utilization sample.
    pub fn record(&mut self, utilization: f64) {
        self.samples.push(utilization);
    }

    /// All samples, in time order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Median utilization, or `None` with no samples.
    pub fn median(&self) -> Option<f64> {
        median(&self.samples)
    }

    /// Maximum utilization, or `None` with no samples.
    pub fn max(&self) -> Option<f64> {
        self.samples
            .iter()
            .copied()
            .fold(None, |acc: Option<f64>, x| {
                Some(acc.map_or(x, |a| a.max(x)))
            })
    }

    /// An arbitrary percentile of the samples.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        percentile(&self.samples, p)
    }
}

impl Default for UtilizationTracker {
    fn default() -> Self {
        Self::new(Self::PAPER_INTERVAL)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hawk_workload::{JobClass, JobId};

    fn spec(job: u32, secs: u64, class: JobClass) -> TaskSpec {
        TaskSpec {
            job: JobId(job),
            duration: SimDuration::from_secs(secs),
            estimate: SimDuration::from_secs(secs),
            class,
            task: 0,
            attempt: 0,
        }
    }

    #[test]
    fn running_count_tracks_lifecycle() {
        let mut c = Cluster::new(3, 0.0);
        assert_eq!(c.running_count(), 0);
        c.enqueue(ServerId(0), QueueEntry::Task(spec(0, 10, JobClass::Long)));
        c.enqueue(ServerId(0), QueueEntry::Task(spec(1, 10, JobClass::Short)));
        c.enqueue(ServerId(1), QueueEntry::Task(spec(2, 10, JobClass::Short)));
        assert_eq!(c.running_count(), 2);
        assert!((c.utilization() - 2.0 / 3.0).abs() < 1e-12);

        // Finishing server 0's task starts the queued one: still running.
        let (done, action) = c.on_task_finish(ServerId(0));
        assert_eq!(done.job, JobId(0));
        assert!(matches!(action, ServerAction::StartTask(_)));
        assert_eq!(c.running_count(), 2);

        let (_, action) = c.on_task_finish(ServerId(0));
        assert_eq!(action, ServerAction::BecameIdle);
        assert_eq!(c.running_count(), 1);
        c.check_invariants().unwrap();
    }

    #[test]
    fn bind_response_updates_running() {
        let mut c = Cluster::new(2, 0.0);
        let action = c.enqueue(
            ServerId(0),
            QueueEntry::Probe {
                job: JobId(5),
                class: JobClass::Short,
            },
        );
        assert_eq!(action, Some(ServerAction::RequestBind { job: JobId(5) }));
        assert_eq!(c.running_count(), 0, "awaiting bind is not running");
        c.on_bind_response(ServerId(0), Some(spec(5, 100, JobClass::Short)));
        assert_eq!(c.running_count(), 1);
        c.check_invariants().unwrap();
    }

    #[test]
    fn steal_moves_entries_between_servers() {
        let mut c = Cluster::new(4, 0.25);
        // Server 0: long running, two short probes queued behind it.
        c.enqueue(
            ServerId(0),
            QueueEntry::Task(spec(0, 1_000, JobClass::Long)),
        );
        c.enqueue(
            ServerId(0),
            QueueEntry::Probe {
                job: JobId(1),
                class: JobClass::Short,
            },
        );
        c.enqueue(
            ServerId(0),
            QueueEntry::Probe {
                job: JobId(2),
                class: JobClass::Short,
            },
        );
        let stealable = |c: &Cluster| steal::eligible_group(c.server(ServerId(0)), c.queues(), 0);
        assert!(stealable(&c).is_some());

        let mut stolen = Vec::new();
        let granularity = steal::StealGranularity::FirstBlockedGroup;
        let mut rng = hawk_simcore::SimRng::seed_from_u64(1);
        c.steal_from_with_into(ServerId(0), granularity, &mut rng, &mut stolen);
        assert_eq!(stolen.len(), 2);
        assert!(stealable(&c).is_none());

        // Idle server 3 (short partition) receives them and starts binding.
        let action = c.give_stolen_drain(ServerId(3), &mut stolen);
        assert!(stolen.is_empty());
        assert_eq!(action, Some(ServerAction::RequestBind { job: JobId(1) }));
        assert_eq!(c.server(ServerId(3)).queue_len(), 1);
        c.check_invariants().unwrap();
    }

    #[test]
    fn utilization_tracker_median_max() {
        let mut t = UtilizationTracker::default();
        assert_eq!(t.median(), None);
        assert_eq!(t.max(), None);
        for u in [0.5, 0.9, 0.7, 1.0, 0.6] {
            t.record(u);
        }
        assert!((t.median().unwrap() - 0.7).abs() < 1e-12);
        assert_eq!(t.max().unwrap(), 1.0);
        assert_eq!(t.samples().len(), 5);
        assert_eq!(t.interval(), SimDuration::from_secs(100));
    }

    #[test]
    fn fail_drains_queue_and_leaves_every_index() {
        let mut c = Cluster::new(4, 0.25);
        // Server 0: long running, one short probe + one short task queued.
        c.enqueue(
            ServerId(0),
            QueueEntry::Task(spec(0, 1_000, JobClass::Long)),
        );
        c.enqueue(
            ServerId(0),
            QueueEntry::Probe {
                job: JobId(1),
                class: JobClass::Short,
            },
        );
        c.enqueue(ServerId(0), QueueEntry::Task(spec(2, 10, JobClass::Short)));
        assert_eq!(c.queue_depth(ServerId(0)), 3);
        assert!(c.holds_long_work(ServerId(0)));

        let mut drained = Vec::new();
        assert!(c.fail_server(ServerId(0), &mut drained));
        // Queue order preserved; the running long task stays in the slot.
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].job(), JobId(1));
        assert_eq!(drained[1].job(), JobId(2));
        assert!(c.is_down(ServerId(0)));
        assert_eq!(c.down_count(), 1);
        assert_eq!(c.live_count(), 3);
        assert_eq!(c.live_count_general(), 2);
        assert_eq!(c.live_ids(), &[1, 2, 3]);
        assert!(!c.holds_long_work(ServerId(0)));
        assert!(!c.is_steal_candidate(ServerId(0)));
        assert_eq!(c.running_count(), 1, "draining slot still executes");
        c.check_invariants().unwrap();

        // Double-fail is a no-op.
        assert!(!c.fail_server(ServerId(0), &mut drained));
        assert_eq!(drained.len(), 2);

        // The draining slot finishes; the server stays dark.
        let (done, action) = c.on_task_finish(ServerId(0));
        assert_eq!(done.job, JobId(0));
        assert_eq!(action, ServerAction::BecameIdle);
        assert!(c.is_down(ServerId(0)), "the server stays dark");
        assert_eq!(c.running_count(), 0);
        c.check_invariants().unwrap();

        // Revival restores full index membership.
        assert!(c.revive_server(ServerId(0)));
        assert!(!c.revive_server(ServerId(0)));
        assert_eq!(c.queue_depth(ServerId(0)), 0);
        assert_eq!(c.live_count(), 4);
        assert_eq!(c.live_ids(), &[0, 1, 2, 3]);
        assert_eq!(c.down_count(), 0);
        c.check_invariants().unwrap();
    }

    #[test]
    fn revive_mid_drain_rejoins_at_slot_depth() {
        let mut c = Cluster::new(2, 0.0);
        c.enqueue(ServerId(0), QueueEntry::Task(spec(0, 100, JobClass::Long)));
        let mut drained = Vec::new();
        c.fail_server(ServerId(0), &mut drained);
        assert!(drained.is_empty());
        // Revived while the old task still runs: visible, depth 1,
        // long-holding again.
        assert!(c.revive_server(ServerId(0)));
        assert_eq!(c.queue_depth(ServerId(0)), 1);
        assert!(c.holds_long_work(ServerId(0)));
        c.check_invariants().unwrap();
        let (_, action) = c.on_task_finish(ServerId(0));
        assert_eq!(action, ServerAction::BecameIdle);
        assert_eq!(c.queue_depth(ServerId(0)), 0);
        c.check_invariants().unwrap();
    }

    #[test]
    fn utilization_tracks_usable_capacity_under_churn() {
        let mut c = Cluster::new(4, 0.0);
        c.enqueue(ServerId(0), QueueEntry::Task(spec(0, 100, JobClass::Long)));
        c.enqueue(ServerId(1), QueueEntry::Task(spec(1, 100, JobClass::Long)));
        assert!((c.utilization() - 0.5).abs() < 1e-12);

        // Two idle servers fail: 2 running / 2 usable.
        let mut drained = Vec::new();
        c.fail_server(ServerId(2), &mut drained);
        c.fail_server(ServerId(3), &mut drained);
        assert!((c.utilization() - 1.0).abs() < 1e-12);

        // A running server fails: its draining slot still counts as
        // usable capacity, so utilization stays 2/2.
        c.fail_server(ServerId(1), &mut drained);
        assert!((c.utilization() - 1.0).abs() < 1e-12);
        c.check_invariants().unwrap();

        // The draining slot empties: 1 running / 1 usable.
        c.on_task_finish(ServerId(1));
        assert!((c.utilization() - 1.0).abs() < 1e-12);
        assert_eq!(c.running_count(), 1);
        c.check_invariants().unwrap();

        // Revival restores the denominator: 1 running / 2 usable.
        c.revive_server(ServerId(2));
        assert!((c.utilization() - 0.5).abs() < 1e-12);
        c.check_invariants().unwrap();
    }

    #[test]
    fn speed_factors_scale_slot_occupancy() {
        let speeds = [1.0, 0.5, 2.0];
        let c = Cluster::with_speeds(3, 0.0, &speeds);
        let d = SimDuration::from_secs(100);
        assert_eq!(c.occupancy(ServerId(0), d), d);
        assert_eq!(c.occupancy(ServerId(1), d), SimDuration::from_secs(200));
        assert_eq!(c.occupancy(ServerId(2), d), SimDuration::from_secs(50));
        // A homogeneous profile stores no speeds at all.
        assert!(Cluster::with_speeds(3, 0.0, &[1.0; 3]).speeds.is_empty());
        c.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "speed factor inf must be finite and positive")]
    fn an_infinite_speed_factor_is_refused() {
        Cluster::with_speeds(2, 0.0, &[1.0, f64::INFINITY]);
    }

    #[test]
    fn failed_short_partition_server_updates_short_indexes() {
        let mut c = Cluster::new(4, 0.5); // servers 2, 3 short-reserved
        let mut drained = Vec::new();
        c.fail_server(ServerId(3), &mut drained);
        assert_eq!(c.live_count_short(), 1);
        assert_eq!(c.live_count_general(), 2);
        assert_eq!(c.live_ids(), &[0, 1, 2]);
        c.check_invariants().unwrap();
        c.revive_server(ServerId(3));
        assert_eq!(c.live_count_short(), 2);
        assert_eq!(c.live_ids(), &[0, 1, 2, 3]);
        c.check_invariants().unwrap();
    }

    #[test]
    fn partition_is_exposed() {
        let c = Cluster::new(100, 0.17);
        assert_eq!(c.partition().short_count(), 17);
        assert_eq!(c.partition().general_count(), 83);
        assert_eq!(c.len(), 100);
        assert!(!c.is_empty());
    }
}
