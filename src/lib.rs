//! # Hawk: Hybrid Datacenter Scheduling
//!
//! A from-scratch Rust reproduction of *Hawk: Hybrid Datacenter
//! Scheduling* (Delgado, Dinu, Kermarrec, Zwaenepoel — USENIX ATC 2015):
//! a hybrid scheduler for heterogeneous cluster workloads that schedules
//! the few resource-heavy **long jobs** with a centralized waiting-time
//! scheduler and the many latency-sensitive **short jobs** with
//! Sparrow-style distributed probing, reserving a small cluster partition
//! for short tasks and rescuing stragglers with **randomized work
//! stealing**.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`simcore`] — deterministic discrete-event simulation substrate
//!   (clock, event queue, RNG, indexed heap, statistics).
//! * [`workload`] — the trace model and synthetic generators for every
//!   workload in the paper's evaluation (Google 2011, Cloudera-b/c/d, Facebook 2010, Yahoo 2011,
//!   and the §2.3 motivating scenario).
//! * [`cluster`] — the simulated cluster: single-slot FIFO servers, late
//!   binding, partitions, and the Figure 3 steal scan.
//! * [`net`] — the topology-aware network layer: the pluggable
//!   [`Topology`](net::Topology) trait with the paper's flat constant
//!   delay, a placement-aware fat-tree, and a contended fat-tree with
//!   per-link FIFO queueing (§4.1, §4.8).
//! * [`core`] — the pluggable [`Scheduler`](core::Scheduler) trait with
//!   Hawk and the Sparrow / fully-centralized / split-cluster baselines as
//!   policy impls, the policy-agnostic simulation driver, the fluent
//!   [`Experiment`](core::Experiment) builder and the parallel
//!   [`Sweep`](core::Sweep) runner, and the paper's metrics.
//! * [`proto`] — the real-time prototype **backend**: the same
//!   [`Scheduler`](core::Scheduler) policies running on live node
//!   daemons (threads + channels + sleep tasks, or a deterministic
//!   virtual clock), the stand-in for the paper's Spark deployment and
//!   the second half of its §4.4 sim-vs-implementation cross-check.
//!
//! # Quick start
//!
//! ```
//! use hawk::prelude::*;
//! use hawk::workload::google::{GoogleTraceConfig, GOOGLE_SHORT_PARTITION};
//!
//! // A small Google-like trace on a 100×-scaled cluster, and one
//! // experiment description fanned out over two schedulers — the cells
//! // run in parallel.
//! let trace = GoogleTraceConfig::with_scale(100, 400).generate(42);
//! let results = Experiment::builder()
//!     .nodes(150)
//!     .trace(trace)
//!     .sweep()
//!     .scheduler(Hawk::new(GOOGLE_SHORT_PARTITION))
//!     .scheduler(Sparrow::new())
//!     .run_all();
//!
//! let hawk = results.get("hawk", 150).unwrap();
//! let sparrow = results.get("sparrow", 150).unwrap();
//! let short = compare(hawk, sparrow, JobClass::Short);
//! println!("short-job p90 ratio (Hawk/Sparrow): {:?}", short.p90_ratio);
//! ```
//!
//! See `examples/` for runnable scenarios (including `power_of_d`, a
//! custom scheduler plugged in through the trait) and
//! `crates/bench/src/bin/` for the binaries regenerating every table and
//! figure in the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hawk_cluster as cluster;
pub use hawk_core as core;
pub use hawk_net as net;
pub use hawk_proto as proto;
pub use hawk_simcore as simcore;
pub use hawk_workload as workload;

/// Commonly used items, importable in one line.
pub mod prelude {
    pub use hawk_cluster::{Cluster, NetworkModel, Partition, QueueEntry, ServerId, TaskSpec};
    pub use hawk_core::scheduler::{Centralized, Hawk, Sparrow, SplitCluster};
    pub use hawk_core::{
        compare, Backend, CentralScheduler, Comparison, Experiment, ExperimentBuilder, JobResult,
        MetricsReport, PlacementView, Scheduler, SimBackend, SimConfig, StealSpec, Sweep,
        SweepResults,
    };
    pub use hawk_net::{Endpoint, FatTreeParams, NetworkStats, Topology, TopologySpec};
    pub use hawk_proto::{run_prototype, ExecutionMode, ProtoBackend, ProtoConfig, ProtoReport};
    pub use hawk_simcore::{SimDuration, SimRng, SimTime};
    pub use hawk_workload::classify::{Cutoff, JobEstimates, MisestimateRange};
    pub use hawk_workload::scenario::{
        ArrivalProcess, ArrivalSpec, DynamicsScript, ScenarioSpec, SpeedSpec, TraceFamily,
    };
    pub use hawk_workload::{Job, JobClass, JobId, Trace};
}
