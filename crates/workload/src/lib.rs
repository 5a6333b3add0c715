//! Workload traces and synthetic generators for the Hawk reproduction.
//!
//! The Hawk paper (§4.1) evaluates on the Google 2011 cluster trace and on
//! synthetic traces derived from published Cloudera, Facebook and Yahoo
//! workload statistics. The real Google trace is not redistributable, so
//! this crate provides:
//!
//! * [`Job`] / [`Trace`] — the trace model every experiment consumes:
//!   `(job id, submission time, per-task durations)`, exactly the tuple
//!   format the paper's simulator takes as input.
//! * [`google`] — a calibrated synthetic generator reproducing the Google
//!   trace's published heterogeneity statistics (Table 1 / §2.1): ~10 % long
//!   jobs carrying ~83.65 % of task-seconds and ~28 % of tasks.
//! * [`kmeans`] — the paper's own derivation of the Cloudera-b/c/d,
//!   Facebook 2010 and Yahoo 2011 traces from k-means cluster centroids
//!   (exponential per-job draws, Gaussian per-task durations with σ=2·mean).
//! * [`motivation`] — the §2.3 scenario that motivates Hawk (Figure 1).
//! * [`sample`] — the 3,300-job, 1000×-scaled sample used by the prototype
//!   experiments (Figures 16/17).
//! * [`scenario`] — the scenario layer: [`scenario::ScenarioSpec`] composes
//!   a trace family, an arrival process ([`scenario::ArrivalProcess`]), a
//!   cluster-dynamics script and a per-server speed profile into one
//!   declarative cluster story.
//! * [`classify`] — estimated task runtime, the short/long cutoff, and the
//!   misestimation model of §4.8.
//! * [`stats`] — the Table 1 / Table 2 workload statistics.
//!
//! # Examples
//!
//! ```
//! use hawk_workload::classify::Cutoff;
//! use hawk_workload::scenario::{ScenarioSpec, TraceFamily};
//! use hawk_workload::JobClass;
//!
//! // A 10×-scaled Google-like workload, generated deterministically.
//! let scenario = ScenarioSpec::new(TraceFamily::Google { scale: 10 }, 200);
//! let trace = scenario.trace(42);
//! assert_eq!(trace.len(), 200);
//! assert_eq!(trace, scenario.trace(42)); // same seed, same trace
//!
//! // ~10 % of jobs classify long under the Google cutoff (§2.1).
//! let long = trace
//!     .jobs()
//!     .iter()
//!     .filter(|j| Cutoff::GOOGLE_DEFAULT.classify(j.mean_task_duration()) == JobClass::Long)
//!     .count();
//! assert!((10..=40).contains(&long), "{long} long jobs of 200");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrivals;
pub mod classify;
pub mod google;
mod job;
pub mod kmeans;
pub mod motivation;
pub mod sample;
pub mod scenario;
pub mod stats;

pub use job::{Job, JobClass, JobId, Trace, TraceError};
