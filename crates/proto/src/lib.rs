//! The real-time prototype **backend**: the same `Scheduler` policies the
//! simulator runs, executing on live node daemons (§3.8, §4.10).
//!
//! The paper implements Hawk as a Spark scheduler plug-in — Sparrow's node
//! monitors augmented with a centralized scheduler and work stealing over
//! Thrift RPC — and validates the simulator against a 100-node cluster run
//! where scaled-down trace tasks execute as *sleeps* (§4.4). This crate is
//! the equivalent in-process system, built so that **policy code is
//! shared, not re-implemented**:
//!
//! * every **node monitor** embeds the simulator's
//!   [`hawk_cluster::Server`] state machine (same FIFO queue, same late
//!   binding, same packed stat word, same Figure 3 steal scan);
//! * **distributed schedulers** place probes by calling
//!   [`Scheduler::probe_targets`](hawk_core::Scheduler::probe_targets)
//!   over a membership-only shadow cluster;
//! * the **centralized scheduler** wraps the simulator's
//!   [`hawk_core::CentralScheduler`] (§3.7 waiting-time algorithm);
//! * steal victims come from
//!   [`Scheduler::victims`](hawk_core::Scheduler::victims),
//!   probe bouncing from
//!   [`Scheduler::bounce_probe`](hawk_core::Scheduler::bounce_probe);
//! * a cell is checked by [`hawk_core::check_cell`], the call every
//!   simulator harness makes, and a run is summarised by
//!   [`MetricsReport`](hawk_core::MetricsReport) through
//!   [`ProtoReport::into_metrics`].
//!
//! Two execution modes share those daemons ([`ExecutionMode`]): real OS
//! threads exchanging channel messages on the wall clock (the paper's
//! deployment model — noisy, non-deterministic, §4.10), and a
//! single-threaded **virtual-clock** router whose runs are byte-identical
//! per seed. They share the run around the daemons too: both walk one
//! feed of submissions and dynamics events, record each job's submission
//! and completion on their own clock, and hand that to one
//! [`ProtoReport`] constructor. The virtual mode is what lets
//! `tests/backend_conformance.rs` hold the prototype and the simulator
//! side by side on the same trace. Every job is submitted at its trace
//! time: admission control is simulator-only, and [`ProtoBackend`]
//! refuses a cell that sets it.
//!
//! [`ProtoBackend`] packages all of this as a
//! [`Backend`](hawk_core::Backend).
//!
//! # Examples
//!
//! ```
//! use hawk_core::{Experiment, SimBackend};
//! use hawk_core::scheduler::Hawk;
//! use hawk_proto::ProtoBackend;
//! use hawk_workload::sample::PrototypeSampleConfig;
//!
//! // A tiny sample so the doc test finishes in milliseconds.
//! let sample = PrototypeSampleConfig {
//!     short_jobs: 20,
//!     long_jobs: 2,
//!     cluster_size: 8,
//!     duration_divisor: 100_000,
//! };
//! let trace = sample.generate(1);
//! let cell = Experiment::builder()
//!     .nodes(8)
//!     .cutoff(sample.cutoff())
//!     .scheduler(Hawk::new(0.25))
//!     .trace(trace)
//!     .build();
//!
//! // One policy, two backends.
//! let sim = cell.run_on(&SimBackend);
//! let proto = cell.run_on(&ProtoBackend::deterministic());
//! assert_eq!(sim.results.len(), proto.results.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod fault;
mod msg;
mod report;
mod runtime;
mod scheduler;
mod virt;
mod worker;

pub use backend::ProtoBackend;
pub use fault::{FaultSpec, PartitionWindow};
pub use msg::{CentralMsg, DistMsg, WorkerMsg};
pub use report::{Deliveries, MsgKind, ProtoReport};
pub use runtime::{run_prototype, ExecutionMode, ProtoConfig};
