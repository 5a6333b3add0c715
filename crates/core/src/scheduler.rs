//! The pluggable [`Scheduler`] trait and the paper's policies as trait
//! implementations.
//!
//! A scheduler is a *policy description*: it decides how each job class is
//! routed ([`Scheduler::route`]), where distributed probes go
//! ([`Scheduler::probe_targets`]), whether and how idle servers steal
//! ([`Scheduler::steal`] / [`Scheduler::victims`]), and whether a
//! probe bounces off a busy server ([`Scheduler::bounce_probe`]). All
//! mutable simulation state stays in the [`Driver`](crate::Driver), so a
//! scheduler is a cheap, shareable value (`Send + Sync`) that a
//! [`Sweep`](crate::Sweep) can run on many cells in parallel.
//!
//! The paper's four policies — [`Hawk`], [`Sparrow`], [`Centralized`] and
//! [`SplitCluster`] — are built from the same reusable parts
//! ([`ProbePlanner`], [`StealSpec`], [`Route`]/[`Scope`]), and Hawk's
//! Figure 7 ablations are one-liner variations of the full policy
//! ([`Hawk::without_stealing`] and friends). New policies plug in without
//! touching the driver; see `examples/power_of_d.rs` for a
//! power-of-d-choices scheduler written entirely against this trait.

use hawk_cluster::{Cluster, Partition, Server, ServerId, StealGranularity};
use hawk_net::RackGeometry;
use hawk_simcore::SimRng;
use hawk_workload::JobClass;

use crate::config::{Route, Scope};
use crate::distributed::ProbePlanner;
use crate::steal_policy::{StealPolicy, VictimDraw};

/// Read-only view of the cluster handed to [`Scheduler::probe_targets`]:
/// the live servers of the job's probe [`Scope`] plus the per-server queue
/// depth load-aware policies rank them by.
///
/// The view exposes only **live** servers: under scenario dynamics, failed
/// servers vanish from [`PlacementView::scope_len`] and
/// [`PlacementView::server_in_scope`], so existing [`Scheduler`]
/// implementations place correctly on a churning cluster without
/// modification. On a static cluster the mapping is the identity and
/// costs nothing.
///
/// [`PlacementView::queue_depth`] is one load of the server's stat word,
/// so a power-of-d placement pass costs O(d) regardless of the scope size.
pub struct PlacementView<'a> {
    cluster: &'a Cluster,
    /// Live servers in scope — what [`PlacementView::scope_len`] reports.
    live_len: usize,
    /// Rank of the scope's first server inside the cluster's sorted
    /// live-id map (0 for whole/general scopes, the live general count for
    /// the short partition). The partitions are contiguous id ranges, so
    /// on a static cluster it is also the scope's first id.
    live_offset: usize,
}

impl<'a> PlacementView<'a> {
    /// Builds a view over the live servers of `scope`.
    ///
    /// # Panics
    ///
    /// Panics if the scope has no live server: it is empty (a short
    /// partition the cluster does not reserve) or — under scenario
    /// dynamics — every server in it is down (placement needs at least one
    /// live target; dynamics scripts must keep each scope they starve of
    /// capacity partially alive).
    pub fn new(cluster: &'a Cluster, scope: Scope) -> Self {
        let (live_len, live_offset) = match scope {
            Scope::Whole => (cluster.live_count(), 0),
            Scope::General => (cluster.live_count_general(), 0),
            Scope::ShortReserved => (cluster.live_count_short(), cluster.live_count_general()),
        };
        assert!(live_len > 0, "probe scope has no live servers");
        PlacementView {
            cluster,
            live_len,
            live_offset,
        }
    }

    /// Builds the view a probe of `class` is placed over: the live servers
    /// of the scope `scheduler` routes the class to.
    ///
    /// # Panics
    ///
    /// Panics if `scheduler` routes `class` centrally (no job of that class
    /// sends probes), or where [`PlacementView::new`] does.
    pub fn for_probes(cluster: &'a Cluster, scheduler: &dyn Scheduler, class: JobClass) -> Self {
        match scheduler.route(class) {
            Route::Distributed(scope) => Self::new(cluster, scope),
            Route::Central(_) => unreachable!("probes imply a distributed route"),
        }
    }

    /// Number of **live** servers in scope (equals the scope's size on a
    /// static cluster).
    pub fn scope_len(&self) -> usize {
        self.live_len
    }

    /// The `i`-th live server of the scope, `i < scope_len()`. Identity
    /// mapping on a static cluster; rank lookup in the cluster's live-id
    /// map under dynamics.
    pub fn server_in_scope(&self, i: usize) -> ServerId {
        debug_assert!(i < self.live_len);
        let rank = self.live_offset + i;
        if self.cluster.down_count() == 0 {
            return ServerId(rank as u32);
        }
        ServerId(self.cluster.live_ids()[rank])
    }

    /// A uniformly random live server of the scope.
    pub fn random_server(&self, rng: &mut SimRng) -> ServerId {
        self.server_in_scope(rng.index(self.live_len))
    }

    /// Pending work at `server`: queued entries plus one if the execution
    /// slot is occupied. Load-aware policies (e.g. power-of-d choices)
    /// rank candidates by this. One load of the server's stat word.
    pub fn queue_depth(&self, server: ServerId) -> usize {
        self.cluster.queue_depth(server)
    }
}

/// What an idle server's steal attempts look like (§3.6): how many random
/// victims to contact and what a successful scan takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StealSpec {
    /// Maximum victims contacted per attempt (paper default: 10).
    pub cap: usize,
    /// What a successful steal takes from the victim: the first blocked
    /// group (Figure 3), the only granularity. Kept as a field only
    /// because the frozen benchmark (`hawkbench/layers.rs`) reads it.
    pub granularity: StealGranularity,
}

impl StealSpec {
    /// The paper's configuration: cap 10, first blocked group.
    pub fn paper_default() -> Self {
        StealSpec {
            cap: 10,
            granularity: StealGranularity::FirstBlockedGroup,
        }
    }

    /// A different cap (min 1).
    pub fn with_cap(self, cap: usize) -> Self {
        StealSpec {
            cap: cap.max(1),
            ..self
        }
    }
}

impl Default for StealSpec {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// True when `server` currently holds long work: a long task in the slot
/// (running or awaiting bind) or a long entry anywhere in its queue. The
/// signal long-aware policies key on.
pub fn holds_long_work(server: &Server) -> bool {
    server.slot().holds_long() || server.queued_long() > 0
}

/// A scheduling policy: placement decisions, probe/steal hooks and
/// central-queue participation.
///
/// Implementations must be stateless with respect to a run (all per-run
/// state lives in the driver) so one scheduler value can serve many
/// concurrent experiment cells.
pub trait Scheduler: Send + Sync {
    /// Human-readable policy name, used in reports and TSV output.
    fn name(&self) -> String;

    /// Fraction of servers reserved for short tasks (§3.4). Zero disables
    /// partitioning.
    fn short_partition_fraction(&self) -> f64 {
        0.0
    }

    /// How jobs of `class` are scheduled: by the centralized waiting-time
    /// scheduler or by per-job distributed probing, over which scope.
    fn route(&self, class: JobClass) -> Route;

    /// Probe targets for one distributed job of `tasks` tasks, pushed onto
    /// `out`, which the caller hands over empty and reuses from job to job
    /// (so a policy that only pushes keeps job arrivals off the
    /// allocator). Called only for classes routed [`Route::Distributed`];
    /// must push at least `tasks` targets so late binding can launch every
    /// task.
    fn probe_targets(
        &self,
        view: &PlacementView<'_>,
        tasks: usize,
        rng: &mut SimRng,
        out: &mut Vec<ServerId>,
    );

    /// Work-stealing capability (§3.6); `None` disables stealing.
    fn steal(&self) -> Option<StealSpec> {
        None
    }

    /// The victims one idle `thief` contacts, as a lazy draw the protocol
    /// pulls from while it contacts them; `None` when the policy does not
    /// steal. `racks` is the topology's rack geometry when it has one. The
    /// default derives the paper's policy from [`Scheduler::steal`] — up
    /// to `cap` distinct random general-partition servers, never the
    /// thief — and ignores the geometry; locality-aware policies like
    /// [`Hawk::rack_first_stealing`] pass it on to draw rack-local victims
    /// before cross-rack ones.
    fn victims(
        &self,
        partition: &Partition,
        thief: ServerId,
        racks: Option<RackGeometry>,
    ) -> Option<VictimDraw> {
        let _ = racks;
        let spec = self.steal()?;
        Some(StealPolicy::new(spec.cap).draw(partition, thief, None))
    }

    /// Whether a probe for a `class` job should bounce off `server` to a
    /// fresh random server instead of queueing (the Eagle-style avoidance
    /// extension; each bounce costs one network hop). `bounces` counts the
    /// hops already taken. Default: never.
    fn bounce_probe(&self, _server: &Server, _class: JobClass, _bounces: u8) -> bool {
        false
    }
}

/// The full Hawk policy (§3) and its single-component ablations.
///
/// Defaults match the paper: centralized long jobs on the general
/// partition, distributed short jobs over the whole cluster at probe ratio
/// 2, work stealing with cap 10 taking the first blocked group.
///
/// # Examples
///
/// ```
/// use hawk_core::scheduler::{Scheduler, Hawk};
///
/// let hawk = Hawk::new(0.17);
/// assert_eq!(hawk.name(), "hawk");
/// let ablation = Hawk::new(0.17).without_stealing();
/// assert_eq!(ablation.name(), "hawk-wout-stealing");
/// assert!(ablation.steal().is_none());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Hawk {
    short_partition: f64,
    steal: Option<StealSpec>,
    centralized_longs: bool,
    bounce_limit: u8,
    rack_first: bool,
}

impl Hawk {
    /// Full Hawk with the given reserved short-partition fraction.
    pub fn new(short_partition_fraction: f64) -> Self {
        Hawk {
            short_partition: short_partition_fraction,
            steal: Some(StealSpec::paper_default()),
            centralized_longs: true,
            bounce_limit: 0,
            rack_first: false,
        }
    }

    /// Sets the steal-attempt cap (Figure 15; min 1), enabling stealing if
    /// it was disabled.
    pub fn steal_cap(mut self, cap: usize) -> Self {
        self.steal = Some(self.steal.unwrap_or_default().with_cap(cap));
        self
    }

    /// Ablation: disables work stealing (Figure 7).
    pub fn without_stealing(mut self) -> Self {
        self.steal = None;
        self
    }

    /// Ablation: removes the reserved short partition (Figure 7).
    pub fn without_partition(mut self) -> Self {
        self.short_partition = 0.0;
        self
    }

    /// Ablation: long jobs are probed like short ones instead of being
    /// scheduled centrally, but still only within the general partition
    /// (Figure 7).
    pub fn without_centralized(mut self) -> Self {
        self.centralized_longs = false;
        self
    }

    /// Extension: short probes landing on a server with long work bounce
    /// to a fresh random server, up to `limit` hops (Eagle-style
    /// avoidance; see `ext_probe_avoidance`).
    pub fn probe_avoidance(mut self, limit: u8) -> Self {
        self.bounce_limit = limit;
        self
    }

    /// Extension: rack-first victim picking — an idle thief draws its
    /// steal candidates from its own rack before falling back to the
    /// rest of the general partition (enables stealing if it was
    /// disabled). Only takes effect on topologies that expose rack
    /// geometry; placement-blind topologies steal exactly like the
    /// paper policy.
    pub fn rack_first_stealing(mut self) -> Self {
        self.steal = Some(self.steal.unwrap_or_default());
        self.rack_first = true;
        self
    }
}

impl Scheduler for Hawk {
    /// The name reflects the policy *structure*, not its parameters:
    /// disabled components get a `-wout-…` suffix (a zero partition
    /// fraction counts as disabled, so `Hawk::new(0.0)` reports as
    /// `hawk-wout-partition`), but variants that only tune a number
    /// (steal cap, partition size, bounce limit) all share a name. When
    /// sweeping such variants, pair results by grid order or
    /// [`SweepResults::find`](crate::SweepResults::find), not by name.
    fn name(&self) -> String {
        let mut name = String::from("hawk");
        if !self.centralized_longs {
            name.push_str("-wout-centralized");
        }
        if self.short_partition == 0.0 {
            name.push_str("-wout-partition");
        }
        if self.steal.is_none() {
            name.push_str("-wout-stealing");
        } else if self.rack_first {
            name.push_str("-steal-rack-first");
        }
        if self.bounce_limit > 0 {
            name.push_str("-probe-avoidance");
        }
        name
    }

    fn short_partition_fraction(&self) -> f64 {
        self.short_partition
    }

    fn route(&self, class: JobClass) -> Route {
        match class {
            JobClass::Long if self.centralized_longs => Route::Central(Scope::General),
            JobClass::Long => Route::Distributed(Scope::General),
            JobClass::Short => Route::Distributed(Scope::Whole),
        }
    }

    fn probe_targets(
        &self,
        view: &PlacementView<'_>,
        tasks: usize,
        rng: &mut SimRng,
        out: &mut Vec<ServerId>,
    ) {
        ProbePlanner.targets_in_view_into(view, tasks, rng, out);
    }

    fn steal(&self) -> Option<StealSpec> {
        self.steal
    }

    fn victims(
        &self,
        partition: &Partition,
        thief: ServerId,
        racks: Option<RackGeometry>,
    ) -> Option<VictimDraw> {
        let racks = racks.filter(|_| self.rack_first);
        Some(StealPolicy::new(self.steal?.cap).draw(partition, thief, racks))
    }

    fn bounce_probe(&self, server: &Server, class: JobClass, bounces: u8) -> bool {
        class.is_short() && bounces < self.bounce_limit && holds_long_work(server)
    }
}

/// The Sparrow baseline \[14\]: everything distributed over the whole
/// cluster with batch probing and late binding; no partition, no stealing.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sparrow;

impl Sparrow {
    /// Sparrow at the paper's probe ratio of 2.
    pub fn new() -> Self {
        Sparrow
    }
}

impl Scheduler for Sparrow {
    fn name(&self) -> String {
        "sparrow".to_string()
    }

    fn route(&self, _class: JobClass) -> Route {
        Route::Distributed(Scope::Whole)
    }

    fn probe_targets(
        &self,
        view: &PlacementView<'_>,
        tasks: usize,
        rng: &mut SimRng,
        out: &mut Vec<ServerId>,
    ) {
        ProbePlanner.targets_in_view_into(view, tasks, rng, out);
    }
}

/// The fully centralized baseline (§4.5): the §3.7 waiting-time algorithm
/// for every job over the whole cluster.
#[derive(Debug, Clone, Copy, Default)]
pub struct Centralized;

impl Centralized {
    /// The baseline as configured in the paper.
    pub fn new() -> Self {
        Centralized
    }
}

impl Scheduler for Centralized {
    fn name(&self) -> String {
        "centralized".to_string()
    }

    fn route(&self, _class: JobClass) -> Route {
        Route::Central(Scope::Whole)
    }

    fn probe_targets(
        &self,
        _view: &PlacementView<'_>,
        _tasks: usize,
        _rng: &mut SimRng,
        _out: &mut Vec<ServerId>,
    ) {
        unreachable!("the centralized baseline routes no class through probing")
    }
}

/// The split-cluster baseline (§4.6): disjoint partitions — centralized
/// long scheduling on the general partition, distributed short scheduling
/// confined to the reserved partition, no stealing.
#[derive(Debug, Clone, Copy)]
pub struct SplitCluster {
    short_partition: f64,
}

impl SplitCluster {
    /// A split cluster reserving the given fraction for short jobs.
    pub fn new(short_partition_fraction: f64) -> Self {
        SplitCluster {
            short_partition: short_partition_fraction,
        }
    }
}

impl Scheduler for SplitCluster {
    fn name(&self) -> String {
        "split-cluster".to_string()
    }

    fn short_partition_fraction(&self) -> f64 {
        self.short_partition
    }

    fn route(&self, class: JobClass) -> Route {
        match class {
            JobClass::Long => Route::Central(Scope::General),
            JobClass::Short => Route::Distributed(Scope::ShortReserved),
        }
    }

    fn probe_targets(
        &self,
        view: &PlacementView<'_>,
        tasks: usize,
        rng: &mut SimRng,
        out: &mut Vec<ServerId>,
    ) {
        ProbePlanner.targets_in_view_into(view, tasks, rng, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hawk_matches_paper_defaults() {
        let h = Hawk::new(0.17);
        assert_eq!(h.name(), "hawk");
        assert_eq!(h.short_partition_fraction(), 0.17);
        assert_eq!(h.route(JobClass::Long), Route::Central(Scope::General));
        assert_eq!(h.route(JobClass::Short), Route::Distributed(Scope::Whole));
        let steal = h.steal().expect("stealing on");
        assert_eq!(steal.cap, 10);
        assert_eq!(steal.granularity, StealGranularity::FirstBlockedGroup);
    }

    #[test]
    fn hawk_ablations_flip_one_component() {
        let no_central = Hawk::new(0.17).without_centralized();
        assert_eq!(no_central.name(), "hawk-wout-centralized");
        assert_eq!(
            no_central.route(JobClass::Long),
            Route::Distributed(Scope::General)
        );
        assert!(no_central.steal().is_some());

        let no_part = Hawk::new(0.17).without_partition();
        assert_eq!(no_part.name(), "hawk-wout-partition");
        assert_eq!(no_part.short_partition_fraction(), 0.0);

        let no_steal = Hawk::new(0.17).without_stealing();
        assert_eq!(no_steal.name(), "hawk-wout-stealing");
        assert!(no_steal.steal().is_none());
        assert_eq!(
            no_steal.route(JobClass::Long),
            Route::Central(Scope::General)
        );
    }

    #[test]
    fn hawk_variant_names_match_legacy_configs() {
        assert_eq!(
            Hawk::new(0.2).probe_avoidance(3).name(),
            "hawk-probe-avoidance"
        );
        assert_eq!(Hawk::new(0.2).steal_cap(50).name(), "hawk");
    }

    #[test]
    fn steal_cap_floor_is_one() {
        assert_eq!(Hawk::new(0.2).steal_cap(0).steal().unwrap().cap, 1);
    }

    #[test]
    fn baselines_route_like_the_paper() {
        let s = Sparrow::new();
        assert_eq!(s.route(JobClass::Long), Route::Distributed(Scope::Whole));
        assert_eq!(s.route(JobClass::Short), Route::Distributed(Scope::Whole));
        assert!(s.steal().is_none());
        assert_eq!(s.short_partition_fraction(), 0.0);

        let c = Centralized::new();
        assert_eq!(c.route(JobClass::Long), Route::Central(Scope::Whole));
        assert_eq!(c.route(JobClass::Short), Route::Central(Scope::Whole));

        let split = SplitCluster::new(0.17);
        assert_eq!(split.route(JobClass::Long), Route::Central(Scope::General));
        assert_eq!(
            split.route(JobClass::Short),
            Route::Distributed(Scope::ShortReserved)
        );
        assert!(split.steal().is_none());
    }

    #[test]
    fn default_pick_victims_respects_cap_and_partition() {
        let hawk = Hawk::new(0.2).steal_cap(5);
        let partition = Partition::new(100, 0.2);
        let mut rng = SimRng::seed_from_u64(7);
        let mut victims = Vec::new();
        hawk.victims(&partition, ServerId(90), None)
            .expect("hawk steals")
            .drain_into(&mut rng, &mut Vec::new(), &mut victims);
        assert_eq!(victims.len(), 5);
        for v in &victims {
            assert!(partition.in_general(*v));
        }
        assert!(Sparrow::new()
            .victims(&partition, ServerId(90), None)
            .is_none());
    }
}
