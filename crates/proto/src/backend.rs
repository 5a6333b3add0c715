//! [`ProtoBackend`]: the prototype as a [`Backend`] for the shared
//! policies.
//!
//! This is the piece that closes the paper's §4.4 loop in-repo: the exact
//! `Arc<dyn Scheduler>` value an [`Experiment`](hawk_core::Experiment)
//! runs on the simulator can be re-run on the real-time prototype with
//! one line, and both produce [`MetricsReport`]s in the same conventions.

use std::sync::Arc;

use hawk_core::{Backend, MetricsReport, Scheduler, SimConfig};
use hawk_workload::Trace;

use crate::fault::FaultSpec;
use crate::runtime::{run_prototype, ExecutionMode, ProtoConfig, PAPER_DIST_SCHEDULERS};

/// Runs experiment cells on the prototype cluster.
///
/// [`SimConfig`] maps onto the prototype as follows: `nodes` → worker
/// daemons, `cutoff`/`seed`/`util_interval`/`dynamics`/`speeds` carry
/// over directly, and [`SimConfig::topology`] becomes
/// the virtual router's message-delay model (ignored in real-time mode,
/// where messaging latency is whatever the machine provides). The cell is
/// checked by the simulator's own [`check_cell`](hawk_core::check_cell),
/// and the run is summarised by the simulator's own [`MetricsReport`]
/// code. Fields the execution model cannot honour are rejected:
///
/// * `misestimate` must be `None` — the prototype runs exact estimates
///   (panics otherwise rather than silently diverging);
/// * `admission` must be `None` — admission control is simulator-only.
///
/// # Examples
///
/// ```
/// use hawk_core::{compare, Experiment, SimBackend};
/// use hawk_core::scheduler::Hawk;
/// use hawk_proto::ProtoBackend;
/// use hawk_workload::motivation::MotivationConfig;
/// use hawk_workload::JobClass;
///
/// let trace = MotivationConfig {
///     jobs: 12,
///     short_tasks: 3,
///     long_tasks: 8,
///     ..Default::default()
/// }
/// .generate(2);
/// let cell = Experiment::builder()
///     .nodes(16)
///     .scheduler(Hawk::new(0.2))
///     .trace(trace)
///     .build();
///
/// // One policy, two backends; the reports share every convention.
/// let sim = cell.run_on(&SimBackend);
/// let proto = cell.run_on(&ProtoBackend::deterministic());
/// assert_eq!(sim.results.len(), proto.results.len());
/// let cmp = compare(&proto, &sim, JobClass::Long);
/// assert!(cmp.p50_ratio.is_some());
/// ```
#[derive(Debug, Clone)]
pub struct ProtoBackend {
    /// `true` runs live threads on the wall clock; `false` runs the
    /// deterministic virtual-clock router.
    pub real_time: bool,
    /// Fault injection for the virtual router (must stay
    /// [`FaultSpec::none`] in real-time mode). [`FaultSpec::none`] leaves
    /// runs byte-identical to a backend without the field.
    pub faults: FaultSpec,
}

impl ProtoBackend {
    /// The deterministic virtual-clock backend (byte-identical per seed)
    /// with the paper's 10 distributed schedulers.
    pub fn deterministic() -> Self {
        ProtoBackend {
            real_time: false,
            faults: FaultSpec::none(),
        }
    }

    /// The wall-clock threaded backend with the paper's 10 distributed
    /// schedulers. Trace times are wall-clock offsets: scale traces down
    /// first (see `hawk_workload::sample`).
    pub fn real_time() -> Self {
        ProtoBackend {
            real_time: true,
            faults: FaultSpec::none(),
        }
    }

    /// Same backend with fault injection (virtual-clock mode only). A
    /// spec that injects runs the daemons hardened, on the protocol's
    /// default timeouts.
    pub fn faults(mut self, faults: FaultSpec) -> Self {
        self.faults = faults;
        self
    }

    /// The [`ProtoConfig`] a given [`SimConfig`] maps to.
    ///
    /// # Panics
    ///
    /// Panics when `sim` sets `misestimate` or `admission`: the
    /// prototype runs exact estimates and admits every job.
    pub fn config_for(&self, sim: &SimConfig) -> ProtoConfig {
        assert!(
            sim.misestimate.is_none(),
            "the prototype backend runs exact estimates; drop `.misestimate(..)`"
        );
        assert!(
            sim.admission.is_none(),
            "admission control is simulator-only; drop `.admission(..)`"
        );
        ProtoConfig {
            workers: sim.nodes,
            dist_schedulers: PAPER_DIST_SCHEDULERS,
            cutoff: sim.cutoff,
            util_interval: sim.util_interval,
            seed: sim.seed,
            mode: if self.real_time {
                ExecutionMode::RealTime
            } else {
                ExecutionMode::Virtual {
                    topology: sim.topology,
                }
            },
            dynamics: sim.dynamics.clone(),
            speeds: sim.speeds.clone(),
            faults: self.faults.clone(),
        }
    }
}

impl Backend for ProtoBackend {
    fn name(&self) -> String {
        if self.real_time {
            "proto-rt".to_string()
        } else {
            "proto".to_string()
        }
    }

    fn run_cell(
        &self,
        trace: &Trace,
        scheduler: Arc<dyn Scheduler>,
        sim: &SimConfig,
    ) -> MetricsReport {
        let cfg = self.config_for(sim);
        let name = scheduler.name();
        run_prototype(trace, scheduler, &cfg).into_metrics(name, sim.nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hawk_core::scheduler::Sparrow;
    use hawk_core::Experiment;
    use hawk_simcore::{SimDuration, SimTime};
    use hawk_workload::{Job, JobId};

    fn tiny_trace() -> Trace {
        let jobs = vec![
            Job {
                id: JobId(0),
                submission: SimTime::ZERO,
                tasks: vec![SimDuration::from_millis(40); 3],
                generated_class: None,
            },
            Job {
                id: JobId(1),
                submission: SimTime::from_micros(1_000),
                tasks: vec![SimDuration::from_millis(2); 2],
                generated_class: None,
            },
        ];
        Trace::new(jobs).unwrap()
    }

    #[test]
    fn backend_reports_in_shared_conventions() {
        let cell = Experiment::builder()
            .nodes(8)
            .scheduler(Sparrow::new())
            .trace(tiny_trace())
            .cutoff(hawk_workload::classify::Cutoff(SimDuration::from_millis(
                10,
            )))
            .build();
        let report = cell.run_on(&ProtoBackend::deterministic());
        assert_eq!(report.scheduler, "sparrow");
        assert_eq!(report.nodes, 8);
        assert_eq!(report.results.len(), 2);
        // Deterministic: a second run is identical.
        let again = cell.run_on(&ProtoBackend::deterministic());
        assert_eq!(report.results, again.results);
        assert_eq!(report.events, again.events);
    }

    #[test]
    #[should_panic(expected = "exact estimates")]
    fn misestimation_is_rejected() {
        use hawk_workload::classify::MisestimateRange;
        let sim = SimConfig {
            misestimate: Some(MisestimateRange::symmetric(0.5)),
            ..SimConfig::default()
        };
        ProtoBackend::deterministic().config_for(&sim);
    }
}
