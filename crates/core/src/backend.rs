//! The [`Backend`] abstraction: one policy, many execution models.
//!
//! The paper validates its simulator against a real Spark-based prototype
//! (§4.4, Figures 16/17): the *same* scheduling policy is run both under
//! discrete-event simulation and on a live cluster, and the two must agree
//! qualitatively. This module makes that cross-check a first-class
//! concept: a [`Backend`] executes one experiment cell — a trace, an
//! `Arc<dyn Scheduler>` policy, and the policy-independent [`SimConfig`]
//! parameters — and returns a [`MetricsReport`] in the shared conventions,
//! so reports from different backends are directly comparable with
//! [`compare`](crate::compare).
//!
//! Two backends exist in the workspace:
//!
//! * [`SimBackend`] (here) — the deterministic discrete-event
//!   [`Driver`](crate::Driver);
//! * `ProtoBackend` (in `hawk-proto`) — the real-time prototype: node
//!   daemons exchanging messages, either as OS threads on the wall clock
//!   or single-threaded on a deterministic virtual clock.
//!
//! The conformance harness (`tests/backend_conformance.rs` at the
//! workspace root) runs a policy grid through both backends from a single
//! scenario and asserts the paper's qualitative claims hold in each.
//!
//! # Examples
//!
//! ```
//! use hawk_core::{Backend, Experiment, SimBackend};
//! use hawk_core::scheduler::Sparrow;
//! use hawk_workload::motivation::MotivationConfig;
//!
//! let trace = MotivationConfig {
//!     jobs: 20,
//!     short_tasks: 4,
//!     long_tasks: 10,
//!     ..Default::default()
//! }
//! .generate(3);
//! let cell = Experiment::builder()
//!     .nodes(32)
//!     .scheduler(Sparrow::new())
//!     .trace(trace)
//!     .build();
//!
//! // `run_on(&SimBackend)` is exactly `run()`.
//! let direct = cell.run();
//! let via_backend = cell.run_on(&SimBackend);
//! assert_eq!(direct.results, via_backend.results);
//! assert_eq!(SimBackend.name(), "sim");
//! ```

use std::sync::Arc;

use hawk_workload::Trace;

use crate::config::SimConfig;
use crate::experiment::run_cell;
use crate::metrics::MetricsReport;
use crate::scheduler::Scheduler;

/// An execution model for experiment cells: runs `scheduler` over `trace`
/// under the policy-independent parameters `sim` and reports metrics in
/// the shared [`MetricsReport`] conventions.
///
/// Implementations interpret [`SimConfig`] as faithfully as their
/// execution model allows and must document any field they cannot honour
/// (e.g. the prototype backend rejects misestimation, which needs the
/// driver's estimate bookkeeping).
pub trait Backend {
    /// Short backend label for reports and TSV output (e.g. `"sim"`,
    /// `"proto"`, `"proto-rt"`).
    fn name(&self) -> String;

    /// Executes one cell to completion.
    fn run_cell(
        &self,
        trace: &Trace,
        scheduler: Arc<dyn Scheduler>,
        sim: &SimConfig,
    ) -> MetricsReport;
}

/// The discrete-event simulation backend: a thin [`Backend`] wrapper over
/// the simulation harnesses ([`Driver`](crate::Driver), or
/// [`ShardedDriver`](crate::ShardedDriver) when `sim.shards > 1`).
/// Deterministic and bit-identical to
/// [`Experiment::run`](crate::Experiment::run).
#[derive(Debug, Clone, Copy, Default)]
pub struct SimBackend;

impl Backend for SimBackend {
    fn name(&self) -> String {
        "sim".to_string()
    }

    fn run_cell(
        &self,
        trace: &Trace,
        scheduler: Arc<dyn Scheduler>,
        sim: &SimConfig,
    ) -> MetricsReport {
        run_cell(trace, scheduler, sim).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::Hawk;
    use crate::Experiment;
    use hawk_workload::motivation::MotivationConfig;

    #[test]
    fn sim_backend_matches_direct_run() {
        let trace = MotivationConfig {
            jobs: 40,
            short_tasks: 6,
            long_tasks: 20,
            ..Default::default()
        }
        .generate(9);
        let cell = Experiment::builder()
            .nodes(64)
            .scheduler(Hawk::new(0.2))
            .trace(trace)
            .build();
        let direct = cell.run();
        let backend = SimBackend.run_cell(cell.trace(), Arc::clone(cell.scheduler()), cell.sim());
        assert_eq!(direct.results, backend.results);
        assert_eq!(direct.steals, backend.steals);
        assert_eq!(direct.events, backend.events);
    }

    #[test]
    fn backend_is_object_safe() {
        let backends: Vec<Box<dyn Backend>> = vec![Box::new(SimBackend)];
        assert_eq!(backends[0].name(), "sim");
    }
}
