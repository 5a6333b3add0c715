//! The fluent experiment API: one cell = a trace + a scheduler + the
//! simulation parameters.
//!
//! [`Experiment::builder`] is the primary entry point for running a
//! single cell; [`Sweep`](crate::Sweep) multiplies a builder over axes of
//! schedulers, cluster sizes, seeds and more, and runs the grid in
//! parallel.
//!
//! # Examples
//!
//! ```
//! use hawk_core::{compare, Experiment};
//! use hawk_core::scheduler::{Hawk, Sparrow};
//! use hawk_workload::motivation::MotivationConfig;
//! use hawk_workload::JobClass;
//!
//! let trace = MotivationConfig {
//!     jobs: 30,
//!     short_tasks: 4,
//!     long_tasks: 16,
//!     ..Default::default()
//! }
//! .generate(7);
//!
//! let base = Experiment::builder().nodes(64).trace(trace);
//! let hawk = base.clone().scheduler(Hawk::new(0.17)).run();
//! let sparrow = base.scheduler(Sparrow::new()).run();
//! let cmp = compare(&hawk, &sparrow, JobClass::Short);
//! assert!(cmp.p50_ratio.is_some());
//! ```

use std::sync::Arc;

use hawk_net::TopologySpec;
use hawk_simcore::SimDuration;
use hawk_workload::classify::{Cutoff, JobEstimates, MisestimateRange};
use hawk_workload::scenario::{DynamicsScript, ScenarioSpec, SpeedSpec};
use hawk_workload::Trace;

use crate::config::{CentralOverhead, SimConfig};
use crate::driver::Driver;
use crate::metrics::MetricsReport;
use crate::scheduler::Scheduler;
use crate::shard::ShardedDriver;

/// Anything an [`ExperimentBuilder`] accepts as a trace: an owned or
/// shared [`Trace`] (borrowed traces are cloned once).
pub trait IntoTrace {
    /// Converts into a shared trace.
    fn into_trace(self) -> Arc<Trace>;
}

impl IntoTrace for Trace {
    fn into_trace(self) -> Arc<Trace> {
        Arc::new(self)
    }
}

impl IntoTrace for &Trace {
    fn into_trace(self) -> Arc<Trace> {
        Arc::new(self.clone())
    }
}

impl IntoTrace for Arc<Trace> {
    fn into_trace(self) -> Arc<Trace> {
        self
    }
}

impl IntoTrace for &Arc<Trace> {
    fn into_trace(self) -> Arc<Trace> {
        Arc::clone(self)
    }
}

/// One fully specified experiment cell, ready to run (or to be multiplied
/// into a [`Sweep`](crate::Sweep)).
#[derive(Clone)]
pub struct Experiment {
    trace: Arc<Trace>,
    scheduler: Arc<dyn Scheduler>,
    sim: SimConfig,
}

impl Experiment {
    /// Starts describing an experiment. The builder begins from the
    /// paper's defaults (1,500 nodes, Google cutoff, exact estimates,
    /// the paper's flat network, free central decisions).
    pub fn builder() -> ExperimentBuilder {
        ExperimentBuilder::default()
    }

    /// The trace this cell runs.
    pub fn trace(&self) -> &Arc<Trace> {
        &self.trace
    }

    /// The scheduling policy.
    pub fn scheduler(&self) -> &Arc<dyn Scheduler> {
        &self.scheduler
    }

    /// The policy-independent simulation parameters.
    pub fn sim(&self) -> &SimConfig {
        &self.sim
    }

    /// Runs the cell to completion on the calling thread. Deterministic:
    /// the same cell produces bit-identical reports.
    ///
    /// `shards <= 1` (the default) runs the single-stream [`Driver`];
    /// `shards > 1` runs the sharded harness
    /// ([`crate::ShardedDriver`]). Sharded results are deterministic per
    /// shard count but not digest-comparable across shard counts.
    pub fn run(&self) -> MetricsReport {
        self.run_with_estimates().0
    }

    /// [`Experiment::run`], ignoring its argument. Kept only because the
    /// frozen benchmark (`hawkbench/workloads.rs`) calls it; owed to the
    /// benchmark-only PR, whose `hawk_sharded_50k` "2 workers" wording is
    /// stale with it.
    #[doc(hidden)]
    pub fn run_with_workers(&self, _workers: usize) -> MetricsReport {
        self.run()
    }

    /// Like [`Experiment::run`], but also returns the (possibly
    /// misestimated) per-job estimates the run actually used (§4.8).
    pub fn run_with_estimates(&self) -> (MetricsReport, JobEstimates) {
        run_cell(&self.trace, Arc::clone(&self.scheduler), &self.sim)
    }

    /// Runs the cell on an explicit execution [`Backend`]. `run_on(&SimBackend)`
    /// is exactly [`Experiment::run`]; other backends (e.g. the real-time
    /// prototype in `hawk-proto`) execute the same policy under a
    /// different model and report in the same [`MetricsReport`]
    /// conventions, so the results are directly comparable.
    ///
    /// [`Backend`]: crate::Backend
    /// [`SimBackend`]: crate::SimBackend
    pub fn run_on(&self, backend: &dyn crate::Backend) -> MetricsReport {
        backend.run_cell(&self.trace, Arc::clone(&self.scheduler), &self.sim)
    }
}

/// Fluent description of an experiment cell; see [`Experiment::builder`].
///
/// Cloning a builder is cheap (the trace and scheduler are shared), which
/// is how one base configuration fans out into many cells.
#[derive(Clone, Default)]
pub struct ExperimentBuilder {
    trace: Option<Arc<Trace>>,
    scheduler: Option<Arc<dyn Scheduler>>,
    sim: SimConfig,
}

impl ExperimentBuilder {
    /// Sets the cluster size in servers.
    pub fn nodes(mut self, nodes: usize) -> Self {
        self.sim.nodes = nodes;
        self
    }

    /// Sets the scheduling policy.
    pub fn scheduler(mut self, scheduler: impl Scheduler + 'static) -> Self {
        self.scheduler = Some(Arc::new(scheduler));
        self
    }

    /// Sets an already-shared scheduling policy (no re-wrapping).
    pub fn scheduler_shared(mut self, scheduler: Arc<dyn Scheduler>) -> Self {
        self.scheduler = Some(scheduler);
        self
    }

    /// Sets the trace.
    pub fn trace(mut self, trace: impl IntoTrace) -> Self {
        self.trace = Some(trace.into_trace());
        self
    }

    /// Sets the scripted cluster dynamics (node down/up events) the
    /// driver replays; the empty default is a static cluster.
    pub fn dynamics(mut self, dynamics: DynamicsScript) -> Self {
        self.sim.dynamics = dynamics;
        self
    }

    /// Sets the per-server execution-speed profile
    /// ([`SpeedSpec::Uniform`] — the default — is the paper's homogeneous
    /// cluster).
    pub fn speeds(mut self, speeds: SpeedSpec) -> Self {
        self.sim.speeds = speeds;
        self
    }

    /// Applies a whole [`ScenarioSpec`] at once: the scenario's trace
    /// (generated with `trace_seed`), its dynamics script and its speed
    /// profile. Scheduler, cluster size and the remaining simulation
    /// parameters stay with the builder.
    pub fn scenario(mut self, scenario: &ScenarioSpec, trace_seed: u64) -> Self {
        self.trace = Some(Arc::new(scenario.trace(trace_seed)));
        self.sim.dynamics = scenario.dynamics.clone();
        self.sim.speeds = scenario.speeds.clone();
        self
    }

    /// Sets the short/long cutoff on estimated task runtime (§3.3).
    pub fn cutoff(mut self, cutoff: Cutoff) -> Self {
        self.sim.cutoff = cutoff;
        self
    }

    /// Enables the §4.8 estimation-error model.
    pub fn misestimate(mut self, range: MisestimateRange) -> Self {
        self.sim.misestimate = Some(range);
        self
    }

    /// Sets or clears the estimation-error model.
    pub fn misestimate_opt(mut self, range: Option<MisestimateRange>) -> Self {
        self.sim.misestimate = range;
        self
    }

    /// Sets the network topology: a fat tree (optionally with per-link
    /// contention) or a `TopologySpec::Constant` delay model. The default
    /// is [`TopologySpec::paper_default`], the paper's flat 0.5 ms network.
    pub fn topology(mut self, topology: TopologySpec) -> Self {
        self.sim.topology = topology;
        self
    }

    /// Sets the centralized-scheduler decision cost (default: free, as in
    /// the paper's simulator).
    pub fn central_overhead(mut self, overhead: CentralOverhead) -> Self {
        self.sim.central_overhead = overhead;
        self
    }

    /// Sets the utilization sampling interval (paper: 100 s).
    pub fn util_interval(mut self, interval: SimDuration) -> Self {
        self.sim.util_interval = interval;
        self
    }

    /// Sets the RNG seed for probe placement, stealing and misestimation.
    pub fn seed(mut self, seed: u64) -> Self {
        self.sim.seed = seed;
        self
    }

    /// Sets the shard count: `1` (the default) runs the classic
    /// single-stream driver, `K > 1` the sharded driver.
    /// See [`SimConfig::shards`] for the determinism contract.
    pub fn shards(mut self, shards: usize) -> Self {
        self.sim.shards = shards;
        self
    }

    /// Enables serving-mode admission control: arrivals are gated by the
    /// precomputed [`AdmissionPlan`](crate::AdmissionPlan) (defer/shed
    /// when offered work exceeds usable capacity). The `None` default
    /// admits everything and stays byte-identical to the classic digests.
    pub fn admission(mut self, policy: crate::AdmissionPolicy) -> Self {
        self.sim.admission = Some(policy);
        self
    }

    /// Enables windowed live metrics with the given window length; the
    /// report's [`MetricsReport::live`](crate::MetricsReport) carries the
    /// last [`LIVE_RING`](crate::LIVE_RING) closed windows.
    pub fn live_window(mut self, window: SimDuration) -> Self {
        self.sim.live_window = Some(window);
        self
    }

    /// The simulation parameters accumulated so far.
    pub fn sim(&self) -> &SimConfig {
        &self.sim
    }

    /// The trace, if one was set.
    pub fn trace_ref(&self) -> Option<&Arc<Trace>> {
        self.trace.as_ref()
    }

    /// The scheduler, if one was set.
    pub fn scheduler_ref(&self) -> Option<&Arc<dyn Scheduler>> {
        self.scheduler.as_ref()
    }

    /// Finalizes the cell.
    ///
    /// # Panics
    ///
    /// Panics if no trace or no scheduler was provided.
    pub fn build(self) -> Experiment {
        Experiment {
            trace: self.trace.expect("Experiment::builder() needs .trace(..)"),
            scheduler: self
                .scheduler
                .expect("Experiment::builder() needs .scheduler(..)"),
            sim: self.sim,
        }
    }

    /// Builds and runs the cell in one call.
    pub fn run(self) -> MetricsReport {
        self.build().run()
    }

    /// Starts a [`Sweep`](crate::Sweep) from this base configuration.
    pub fn sweep(self) -> crate::Sweep {
        crate::Sweep::over(self)
    }
}

/// The one place a harness is chosen for a simulated cell: `shards <= 1`
/// runs the single-stream [`Driver`] (byte-identical to every pinned
/// golden digest), `shards > 1` the [`ShardedDriver`]. Every simulation
/// entry point — [`Experiment::run`], [`Experiment::run_with_estimates`],
/// [`crate::SimBackend`] — routes through here, so they cannot disagree.
pub(crate) fn run_cell(
    trace: &Trace,
    scheduler: Arc<dyn Scheduler>,
    sim: &SimConfig,
) -> (MetricsReport, JobEstimates) {
    if sim.shards > 1 {
        ShardedDriver::new(trace, scheduler, sim).run_with_estimates()
    } else {
        Driver::with_scheduler(trace, scheduler, sim).run_with_estimates()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::compare;
    use crate::scheduler::{Hawk, Sparrow};
    use hawk_workload::motivation::MotivationConfig;
    use hawk_workload::JobClass;

    fn small_motivation() -> Trace {
        MotivationConfig {
            jobs: 60,
            short_tasks: 8,
            long_tasks: 30,
            ..Default::default()
        }
        .generate(3)
    }

    #[test]
    fn runs_are_deterministic() {
        let cell = Experiment::builder()
            .nodes(128)
            .scheduler(Hawk::new(0.17))
            .trace(small_motivation())
            .build();
        let a = cell.run();
        let b = cell.run();
        assert_eq!(a.results, b.results);
        assert_eq!(a.steals, b.steals);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn different_seeds_differ() {
        let base = Experiment::builder()
            .nodes(128)
            .scheduler(Sparrow::new())
            .trace(small_motivation());
        let a = base.clone().seed(1).build().run();
        let b = base.seed(2).build().run();
        // Probe placement differs, so at least one runtime should differ.
        assert_ne!(a.results, b.results);
    }

    #[test]
    fn estimates_returned_match_run() {
        let cell = Experiment::builder()
            .nodes(128)
            .scheduler(Hawk::new(0.17))
            .trace(small_motivation())
            .misestimate(MisestimateRange::symmetric(0.5))
            .build();
        let (report, estimates) = cell.run_with_estimates();
        for r in &report.results {
            assert_eq!(r.scheduled_class, estimates.class(r.job, cell.sim().cutoff));
        }
    }

    #[test]
    fn loaded_cluster_hawk_beats_sparrow_for_shorts() {
        // The paper's core claim, at miniature scale: a loaded
        // heterogeneous cluster where Sparrow's shorts queue behind longs.
        let trace = MotivationConfig {
            jobs: 150,
            short_tasks: 6,
            long_tasks: 40,
            mean_interarrival: hawk_simcore::SimDuration::from_secs(25),
            ..Default::default()
        }
        .generate(11);
        let base = Experiment::builder().nodes(150).trace(trace);
        let hawk = base.clone().scheduler(Hawk::new(0.17)).run();
        let sparrow = base.scheduler(Sparrow::new()).run();
        let cmp = compare(&hawk, &sparrow, JobClass::Short);
        let p90 = cmp.p90_ratio.expect("short jobs exist");
        assert!(
            p90 < 1.0,
            "Hawk should beat Sparrow for short jobs under load: p90 ratio {p90}"
        );
    }

    #[test]
    #[should_panic(expected = "needs .trace")]
    fn builder_requires_a_trace() {
        let _ = Experiment::builder().scheduler(Sparrow::new()).build();
    }

    #[test]
    #[should_panic(expected = "needs .scheduler")]
    fn builder_requires_a_scheduler() {
        let _ = Experiment::builder().trace(small_motivation()).build();
    }
}
