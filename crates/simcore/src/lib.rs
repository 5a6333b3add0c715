//! Deterministic discrete-event simulation substrate for the Hawk reproduction.
//!
//! This crate provides the building blocks that the cluster simulator in
//! `hawk-cluster` and the scheduler drivers in `hawk-core` are built on:
//!
//! * [`SimTime`] / [`SimDuration`] — an integer microsecond clock, exact and
//!   totally ordered (no floating-point tie ambiguity).
//! * [`EventQueue`] and [`Engine`] — a binary-heap future event list with a
//!   deterministic FIFO tie-break for simultaneous events.
//! * [`SimRng`] — a small, fully deterministic xoshiro256++ generator with
//!   the distributions the paper needs (uniform, exponential, Gaussian,
//!   log-normal) and distinct-sampling helpers, so that every experiment is
//!   reproducible from a single `u64` seed.
//! * [`IndexedMinHeap`] — a decrease/increase-key priority queue used by the
//!   centralized scheduler's ⟨server, waiting-time⟩ queue (paper §3.7).
//! * [`EntrySlab`] — a slab arena of queue nodes threaded into per-owner
//!   intrusive FIFO lists with free-list recycling: one contiguous
//!   allocation backs every server queue of a simulated cluster.
//! * [`BatchPool`] — recycled batch buffers addressed by `Copy` handles,
//!   so events can carry value batches without owning a `Vec`.
//! * [`stats`] — percentile, streaming-quantile and summary statistics
//!   used by the evaluation harness.
//!
//! The simulation model follows the Sparrow simulator that the Hawk paper
//! augments (§4.1): single-threaded, event-driven, with a constant network
//! delay and free scheduling decisions.
//!
//! # Examples
//!
//! ```
//! use hawk_simcore::{Engine, SimDuration};
//!
//! // Events are `Copy`: the queue stores them in a recycled slab arena.
//! #[derive(Debug, Clone, Copy, PartialEq)]
//! enum Ev {
//!     Ping(u32),
//! }
//!
//! let mut engine: Engine<Ev> = Engine::new();
//! engine.schedule(SimDuration::from_secs_f64(1.0), Ev::Ping(1));
//! engine.schedule(SimDuration::from_millis(500), Ev::Ping(2));
//!
//! let (t, ev) = engine.pop().unwrap();
//! assert_eq!(ev, Ev::Ping(2));
//! assert_eq!(t.as_micros(), 500_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod indexed_heap;
mod pool;
mod queue;
mod rng;
mod slab;
pub mod stats;
mod time;

pub use engine::Engine;
pub use indexed_heap::IndexedMinHeap;
pub use pool::{BatchHandle, BatchPool};
pub use queue::EventQueue;
pub use rng::SimRng;
pub use slab::EntrySlab;
pub use time::{SimDuration, SimTime};
