//! The simulated cluster substrate of the Hawk reproduction.
//!
//! Implements the system model of paper §3.1 plus the node-monitor
//! behaviour the schedulers rely on:
//!
//! * every server (worker) has **one FIFO queue** and one execution slot
//!   ("each simulated cluster node has 1 slot", §4.1);
//! * queue entries are either **probes** (late-binding reservations placed
//!   by distributed schedulers, §3.5) or **tasks** (placed directly by the
//!   centralized scheduler, §3.7);
//! * when a probe reaches the head of the queue the server requests a task
//!   from the job's scheduler and blocks for the round trip;
//! * idle servers may **steal** the first consecutive group of short
//!   entries queued behind a long task on a victim server (§3.6, Figure 3);
//! * the cluster is split into a **general partition** and a reserved
//!   **short partition** (§3.4).
//!
//! The crate is scheduler-agnostic *and* execution-agnostic: server
//! methods return [`ServerAction`]s that the caller turns into follow-up
//! work. The simulation driver in `hawk-core` turns them into
//! discrete-event timers and messages; the real-time prototype in
//! `hawk-proto` embeds the same [`Server`] state machine in node-daemon
//! threads and turns the actions into channel messages — so both backends
//! run the exact same queue/steal semantics.
//!
//! # Examples
//!
//! ```
//! use hawk_cluster::{Cluster, QueueEntry, ServerAction, ServerId};
//! use hawk_workload::{JobClass, JobId};
//!
//! // A 10-server cluster reserving 20 % for short tasks (§3.4).
//! let mut cluster = Cluster::new(10, 0.2);
//! assert_eq!(cluster.partition().general_count(), 8);
//!
//! // A probe landing on an idle server immediately asks for a task
//! // (late binding, §3.5); its depth is one load of its stat word.
//! let action = cluster.enqueue(
//!     ServerId(3),
//!     QueueEntry::Probe { job: JobId(7), class: JobClass::Short },
//! );
//! assert_eq!(action, Some(ServerAction::RequestBind { job: JobId(7) }));
//! assert_eq!(cluster.queue_depth(ServerId(3)), 1);
//! assert_eq!(cluster.steal_candidate_count(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod entry;
pub mod index;
mod network;
mod partition;
mod queue;
mod server;
pub mod steal;

pub use cluster::{Cluster, UtilizationTracker};
pub use entry::{QueueEntry, TaskSpec};
pub use network::NetworkModel;
pub use partition::Partition;
pub use queue::QueueSlab;
pub use server::{scale_duration, RunningTask, Server, ServerAction, ServerId, Slot, Stat};
pub use steal::StealGranularity;
