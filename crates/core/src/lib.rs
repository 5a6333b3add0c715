//! The Hawk hybrid scheduler, its baselines, and the experiment API that
//! runs them.
//!
//! This crate implements the paper's primary contribution — the hybrid
//! centralized/distributed scheduler of §3 — together with every scheduler
//! the evaluation compares it to, all running on the simulated cluster
//! substrate from [`hawk_cluster`]. It is organized around two
//! abstractions:
//!
//! * **The [`Scheduler`] trait** ([`scheduler`] module) — a pluggable
//!   policy description: routing per job class, probe placement, steal
//!   capability and victim choice, probe bouncing. The paper's policies
//!   are trait impls composed from reusable parts:
//!   [`Hawk`](scheduler::Hawk) (with its Figure 7 ablations as one-liner
//!   variants), [`Sparrow`](scheduler::Sparrow),
//!   [`Centralized`](scheduler::Centralized) and
//!   [`SplitCluster`](scheduler::SplitCluster). The [`Driver`] is a
//!   policy-agnostic event loop: new schedulers plug in without driver
//!   changes (see `examples/power_of_d.rs`).
//! * **The [`Backend`] abstraction** ([`backend`] module) — one policy,
//!   many execution models. [`SimBackend`] wraps the driver; the
//!   `hawk-proto` crate provides a real-time prototype backend driven by
//!   the *same* `Arc<dyn Scheduler>` policies, and
//!   `tests/backend_conformance.rs` cross-checks the two the way the
//!   paper validates its simulator against its Spark prototype (§4.4).
//! * **The [`Experiment`] builder and [`Sweep`] runner** — a fluent API
//!   describing one evaluation cell (trace + scheduler + cluster size +
//!   settings) or a whole grid of them. [`Sweep::run_all`] executes
//!   independent cells in parallel and returns a typed result grid;
//!   results are bit-identical to sequential runs.
//!
//! [`compare`] computes the paper's normalized metrics from two
//! [`MetricsReport`]s.
//!
//! Beyond the paper, the simulator harnesses can gate arrivals under
//! overload with an [`AdmissionPolicy`] (defer, then shed). Admission
//! control is simulator-only: the prototype backend refuses a cell that
//! sets it.
//!
//! # Quick start
//!
//! ```
//! use hawk_core::{compare, Experiment};
//! use hawk_core::scheduler::{Hawk, Sparrow};
//! use hawk_workload::motivation::MotivationConfig;
//! use hawk_workload::JobClass;
//!
//! // A small §2.3-style workload on a small cluster.
//! let trace = MotivationConfig {
//!     jobs: 40,
//!     short_tasks: 10,
//!     long_tasks: 40,
//!     ..Default::default()
//! }
//! .generate(1);
//!
//! // One builder, two cells, run in parallel.
//! let results = Experiment::builder()
//!     .nodes(100)
//!     .trace(trace)
//!     .sweep()
//!     .scheduler(Hawk::new(0.17))
//!     .scheduler(Sparrow::new())
//!     .run_all();
//!
//! let hawk = results.get("hawk", 100).unwrap();
//! let sparrow = results.get("sparrow", 100).unwrap();
//! let cmp = compare(hawk, sparrow, JobClass::Short);
//! assert!(cmp.p50_ratio.is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod backend;
mod centralized;
mod config;
mod distributed;
mod driver;
mod experiment;
pub mod metrics;
mod protocol;
pub mod scheduler;
mod shard;
mod steal_policy;
mod sweep;

pub use admission::{AdmissionDecision, AdmissionPlan, AdmissionPolicy};
pub use backend::{Backend, SimBackend};
pub use centralized::CentralScheduler;
pub use config::{check_cell, Route, Scope, SimConfig, DEFAULT_SEED};
pub use distributed::{displaced_probe, land, late_bind, Landing, ProbePlanner};
pub use driver::Driver;
pub use experiment::{Experiment, ExperimentBuilder, IntoTrace};
pub use metrics::{
    compare, AdmissionStats, ClassSummary, Comparison, JobResult, MetricsReport, ShardedStats,
    StreamingStats, StreamingSummary,
};
pub use protocol::{Event, EventCounts};
// Convenience re-exports of the network-topology layer (the canonical home
// is `hawk_net`): the selector every `SimConfig` carries plus the types a
// topology-aware experiment touches.
pub use hawk_net::{Endpoint, FatTreeParams, NetworkStats, RackGeometry, Topology, TopologySpec};
pub use scheduler::{PlacementView, Scheduler, StealSpec};
pub use shard::ShardedDriver;
pub use steal_policy::{StealPolicy, VictimDraw};
pub use sweep::{worker_budget, CellResult, Sweep, SweepResults};
