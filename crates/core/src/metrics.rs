//! Experiment metrics: per-job runtimes, percentiles, and the paper's
//! normalized comparisons.
//!
//! The paper's primary metric is the ratio of the 50th (or 90th) percentile
//! job runtime between Hawk and a baseline, computed separately for short
//! and long jobs (§4.1 "Metrics"). Figure 5c adds the fraction of jobs for
//! which Hawk is better than or equal to the baseline, and the average
//! job runtime ratio.
//!
//! A run is recorded once, as its per-job [`JobResult`]s; everything else
//! here is read off them. That includes the bounded-memory streaming
//! summary ([`StreamingStats::from_results`]), which every harness — the
//! simulator's two and the prototype's — derives from its results at
//! report time, and the simulator's live windows ([`LiveMetrics`]), which
//! add only what the results cannot tell: occupancy and steals sampled at
//! each window close.

use crate::admission::{AdmissionDecision, AdmissionPlan};
use crate::live::LiveMetrics;
use crate::protocol::EventCounts;
use hawk_net::NetworkStats;
use hawk_simcore::stats::{mean, percentile, percentile_of_sorted, StreamingQuantiles};
use hawk_simcore::{SimDuration, SimTime};
use hawk_workload::{JobClass, JobId};
use serde::{Deserialize, Serialize};

/// The outcome of one job in one experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobResult {
    /// The job.
    pub job: JobId,
    /// Class under *exact* estimates — the grouping every figure reports
    /// ("the set of jobs classified as long when no mis-estimations are
    /// present", §4.8).
    pub true_class: JobClass,
    /// Class the scheduler actually used (differs from `true_class` only
    /// under misestimation).
    pub scheduled_class: JobClass,
    /// Submission time.
    pub submission: SimTime,
    /// Completion time of the job's last task.
    pub completion: SimTime,
    /// Number of tasks.
    pub num_tasks: usize,
}

impl JobResult {
    /// Job runtime: completion − submission (includes every scheduling and
    /// queueing delay).
    pub fn runtime(&self) -> SimDuration {
        self.completion - self.submission
    }
}

/// How the sharded driver's one event list was spread over its cores.
/// `None` on every single-stream path. Excluded from the golden digests
/// (like [`NetworkStats`]): the contract pins *what* the simulation
/// computed, not how the work was partitioned.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ShardedStats {
    /// Maximal runs of consecutive events dispatched to one core: how
    /// often the global time order hands over from one core to another.
    pub epochs: u64,
    /// Sends whose destination endpoint is hosted by another core than the
    /// sender's — the messages a wire transport would put on the wire.
    pub merge_envelopes: u64,
}

/// Tail percentiles of one job class as estimated by the bounded-memory
/// [`StreamingQuantiles`] sink, the serving-mode counterpart of the exact
/// [`ClassSummary`]: each quantile is within
/// [`StreamingQuantiles::RELATIVE_ERROR`] of the sort-based value, but
/// computed without buffering per-job runtimes. Seconds, like
/// `ClassSummary`. Excluded from the golden digests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct StreamingSummary {
    /// Number of completed jobs the sink absorbed.
    pub jobs: u64,
    /// Streaming 50th percentile runtime, seconds.
    pub p50: Option<f64>,
    /// Streaming 90th percentile runtime, seconds.
    pub p90: Option<f64>,
    /// Streaming 99th percentile runtime, seconds.
    pub p99: Option<f64>,
}

impl StreamingSummary {
    /// Reads p50/p90/p99 out of a sink fed *microsecond* runtimes,
    /// converting to seconds.
    pub fn from_sink(sink: &StreamingQuantiles) -> StreamingSummary {
        let secs = |p: f64| sink.quantile(p).map(|micros| micros / 1e6);
        StreamingSummary {
            jobs: sink.count(),
            p50: secs(50.0),
            p90: secs(90.0),
            p99: secs(99.0),
        }
    }
}

/// Streaming runtime percentiles for both true classes, derived from a
/// run's results by [`StreamingStats::from_results`]. Excluded from the
/// golden digests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct StreamingStats {
    /// Jobs truly short (exact-estimate classification).
    pub short: StreamingSummary,
    /// Jobs truly long.
    pub long: StreamingSummary,
}

impl StreamingStats {
    /// Folds every result's runtime, in microseconds, into one bounded
    /// sink per true class. Jobs the admission `plan` shed never ran and
    /// are left out; they are found by the plan's decision, not by a zero
    /// runtime, which a zero-duration job on a zero-delay network has too.
    /// A sink buckets a value by the value alone, so folding the results
    /// after the run equals feeding the sinks at every completion, bit for
    /// bit.
    pub fn from_results(results: &[JobResult], plan: Option<&AdmissionPlan>) -> StreamingStats {
        let mut short = StreamingQuantiles::new();
        let mut long = StreamingQuantiles::new();
        for result in results {
            if plan.is_some_and(|plan| plan.decision(result.job) == AdmissionDecision::Shed) {
                continue;
            }
            let sink = match result.true_class {
                JobClass::Short => &mut short,
                JobClass::Long => &mut long,
            };
            sink.record(result.runtime().as_micros());
        }
        StreamingStats {
            short: StreamingSummary::from_sink(&short),
            long: StreamingSummary::from_sink(&long),
        }
    }

    /// The summary for `class`.
    pub fn class(&self, class: JobClass) -> StreamingSummary {
        match class {
            JobClass::Short => self.short,
            JobClass::Long => self.long,
        }
    }
}

/// Admission-control outcome counters, derived once from the precomputed
/// [`AdmissionPlan`] (so a job deferred across several gate windows still
/// counts once). All-zero when no
/// [`AdmissionPolicy`](crate::AdmissionPolicy) is configured. Unlike the
/// proto fault counters, these *are* mapped across backends
/// ([`ProtoReport::into_metrics`](../hawk_proto) keeps them), because the
/// plan is a pure function of the trace and both backends must agree
/// exactly. Excluded from the golden digests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct AdmissionStats {
    /// Truly-short jobs shed (rejected outright, runtime recorded as 0).
    pub sheds_short: u64,
    /// Truly-long jobs shed.
    pub sheds_long: u64,
    /// Truly-short jobs admitted late (arrival postponed to a later gate
    /// window).
    pub deferrals_short: u64,
    /// Truly-long jobs admitted late.
    pub deferrals_long: u64,
}

impl AdmissionStats {
    /// Total jobs shed across both classes.
    pub fn sheds(&self) -> u64 {
        self.sheds_short + self.sheds_long
    }

    /// Total jobs deferred (and eventually admitted) across both classes.
    pub fn deferrals(&self) -> u64 {
        self.deferrals_short + self.deferrals_long
    }
}

/// Everything measured in one experiment run.
#[derive(Debug, Clone, Serialize)]
pub struct MetricsReport {
    /// Scheduler name (from [`Scheduler::name`](crate::Scheduler::name)).
    pub scheduler: String,
    /// Cluster size.
    pub nodes: usize,
    /// Per-job outcomes, indexed by job id.
    pub results: Vec<JobResult>,
    /// Median of the 100 s utilization snapshots.
    pub median_utilization: f64,
    /// Maximum utilization snapshot.
    pub max_utilization: f64,
    /// Raw utilization samples (Figure 1 quotes median and max; kept for
    /// inspection).
    pub utilization_samples: Vec<f64>,
    /// Simulated time at which the last job completed.
    pub makespan: SimTime,
    /// Simulation events processed (throughput accounting).
    pub events: u64,
    /// Number of successful steal operations (entries moved > 0).
    pub steals: u64,
    /// Number of steal attempts (idle transitions that contacted victims).
    pub steal_attempts: u64,
    /// Victim queues actually walked: contacted victims that passed the
    /// steal-candidate index (the rest were ruled out by one bitmap load).
    /// Not part of the golden digests.
    pub steal_scans: u64,
    /// Events the protocol core dispatched, by kind
    /// ([`Event::KINDS`](crate::Event::KINDS) labels the slots). Not part
    /// of the golden digests. `bind_request` is zero on a single-stream
    /// run of a flat static cell, whose bind round trip is the one
    /// `bind_response` event.
    pub events_by_kind: EventCounts,
    /// Queue entries migrated off failed servers under scenario dynamics
    /// (tasks re-placed, live probes re-probed). Zero on static clusters.
    pub migrations: u64,
    /// Reservations abandoned at node failure because their job had no
    /// unlaunched tasks left. Zero on static clusters.
    pub abandons: u64,
    /// Per-link-class message counts and steal-locality counters from the
    /// network topology. All-zero under the flat constant-delay network
    /// (placement-blind models classify nothing). Not part of the golden
    /// digests.
    pub network: NetworkStats,
    /// Epoch/merge counters when the run executed on the sharded driver;
    /// `None` single-stream. Not part of the golden digests.
    pub sharded: Option<ShardedStats>,
    /// Streaming per-class runtime percentiles: a view of `results`
    /// ([`StreamingStats::from_results`]). Not part of the golden digests.
    pub streaming: StreamingStats,
    /// Windowed live metrics, `Some` only when
    /// [`SimConfig::live_window`](crate::SimConfig) is set. Not part of
    /// the golden digests.
    pub live: Option<LiveMetrics>,
    /// Admission-control shed/deferral counters; all-zero without an
    /// [`AdmissionPolicy`](crate::AdmissionPolicy). Not part of the golden
    /// digests.
    pub admission: AdmissionStats,
}

impl MetricsReport {
    /// Runtimes, in seconds, of all jobs of `class` (by true class).
    pub fn runtimes(&self, class: JobClass) -> Vec<f64> {
        self.results
            .iter()
            .filter(|r| r.true_class == class)
            .map(|r| r.runtime().as_secs_f64())
            .collect()
    }

    /// The `p`-th percentile runtime of `class` jobs, seconds.
    pub fn runtime_percentile(&self, class: JobClass, p: f64) -> Option<f64> {
        percentile(&self.runtimes(class), p)
    }

    /// Mean runtime of `class` jobs, seconds.
    pub fn mean_runtime(&self, class: JobClass) -> Option<f64> {
        mean(&self.runtimes(class))
    }

    /// The per-class runtimes collected once and sorted ascending, ready
    /// for repeated percentile reads via
    /// [`percentile_of_sorted`].
    /// [`MetricsReport::summary`] and [`compare`] derive every quantile
    /// from one of these instead of re-collecting and re-sorting per
    /// percentile.
    pub fn sorted_runtimes(&self, class: JobClass) -> Vec<f64> {
        let mut runtimes = self.runtimes(class);
        runtimes.sort_by(|a, b| a.partial_cmp(b).expect("runtimes are never NaN"));
        runtimes
    }

    /// Per-class summary (50th/90th percentiles and mean): one collection
    /// pass and one sort, shared by every quantile.
    pub fn summary(&self, class: JobClass) -> ClassSummary {
        // Mean in job-id order: summation order is part of the
        // reproducible bit-exact output (sorting first would reassociate
        // the floating-point sum).
        let mean = self.mean_runtime(class);
        let sorted = self.sorted_runtimes(class);
        let pctl = |p: f64| (!sorted.is_empty()).then(|| percentile_of_sorted(&sorted, p));
        ClassSummary {
            class,
            jobs: sorted.len(),
            p50: pctl(50.0),
            p90: pctl(90.0),
            mean,
        }
    }
}

/// Percentile summary for one job class.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClassSummary {
    /// The class summarized.
    pub class: JobClass,
    /// Number of jobs.
    pub jobs: usize,
    /// 50th percentile runtime, seconds.
    pub p50: Option<f64>,
    /// 90th percentile runtime, seconds.
    pub p90: Option<f64>,
    /// Mean runtime, seconds.
    pub mean: Option<f64>,
}

/// The paper's normalized comparison of a scheduler against a baseline for
/// one job class ("Hawk normalized to Sparrow": values < 1 favour the
/// subject).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Comparison {
    /// Class compared.
    pub class: JobClass,
    /// subject p50 / baseline p50.
    pub p50_ratio: Option<f64>,
    /// subject p90 / baseline p90.
    pub p90_ratio: Option<f64>,
    /// subject mean / baseline mean (Figure 5c).
    pub mean_ratio: Option<f64>,
    /// Fraction of jobs where the subject's runtime ≤ the baseline's
    /// (Figure 5c, "fraction of jobs Hawk improves [or equals]").
    pub fraction_improved_or_equal: Option<f64>,
    /// Fraction of jobs where the subject is strictly better.
    pub fraction_improved: Option<f64>,
}

/// Compares `subject` against `baseline` for `class`, pairing jobs by id.
///
/// Both reports must come from the same trace.
///
/// # Panics
///
/// Panics if the reports cover different numbers of jobs.
pub fn compare(subject: &MetricsReport, baseline: &MetricsReport, class: JobClass) -> Comparison {
    assert_eq!(
        subject.results.len(),
        baseline.results.len(),
        "comparing reports from different traces"
    );
    let ratio = |a: Option<f64>, b: Option<f64>| match (a, b) {
        (Some(a), Some(b)) if b > 0.0 => Some(a / b),
        _ => None,
    };
    // One collect+sort per report, shared by both percentiles (the mean
    // stays in job-id order; see `MetricsReport::summary`).
    let subject_summary = subject.summary(class);
    let baseline_summary = baseline.summary(class);
    let p50_ratio = ratio(subject_summary.p50, baseline_summary.p50);
    let p90_ratio = ratio(subject_summary.p90, baseline_summary.p90);
    let mean_ratio = ratio(subject_summary.mean, baseline_summary.mean);

    let mut improved = 0usize;
    let mut improved_or_equal = 0usize;
    let mut total = 0usize;
    for (s, b) in subject.results.iter().zip(&baseline.results) {
        debug_assert_eq!(s.job, b.job);
        if s.true_class != class {
            continue;
        }
        total += 1;
        if s.runtime() < b.runtime() {
            improved += 1;
            improved_or_equal += 1;
        } else if s.runtime() == b.runtime() {
            improved_or_equal += 1;
        }
    }
    let frac = |n: usize| (total > 0).then(|| n as f64 / total as f64);
    Comparison {
        class,
        p50_ratio,
        p90_ratio,
        mean_ratio,
        fraction_improved_or_equal: frac(improved_or_equal),
        fraction_improved: frac(improved),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(job: u32, class: JobClass, runtime_secs: u64) -> JobResult {
        JobResult {
            job: JobId(job),
            true_class: class,
            scheduled_class: class,
            submission: SimTime::from_secs(0),
            completion: SimTime::from_secs(runtime_secs),
            num_tasks: 1,
        }
    }

    fn report(results: Vec<JobResult>) -> MetricsReport {
        MetricsReport {
            scheduler: "test".to_string(),
            nodes: 10,
            results,
            median_utilization: 0.5,
            max_utilization: 0.9,
            utilization_samples: vec![0.5],
            makespan: SimTime::from_secs(100),
            events: 0,
            steals: 0,
            steal_attempts: 0,
            steal_scans: 0,
            events_by_kind: Default::default(),
            migrations: 0,
            abandons: 0,
            network: NetworkStats::default(),
            sharded: None,
            streaming: StreamingStats::default(),
            live: None,
            admission: AdmissionStats::default(),
        }
    }

    #[test]
    fn runtime_is_completion_minus_submission() {
        let mut r = result(0, JobClass::Short, 50);
        r.submission = SimTime::from_secs(10);
        assert_eq!(r.runtime(), SimDuration::from_secs(40));
    }

    #[test]
    fn percentiles_split_by_class() {
        let rep = report(vec![
            result(0, JobClass::Short, 10),
            result(1, JobClass::Short, 20),
            result(2, JobClass::Short, 30),
            result(3, JobClass::Long, 1_000),
        ]);
        assert_eq!(rep.runtime_percentile(JobClass::Short, 50.0), Some(20.0));
        assert_eq!(rep.runtime_percentile(JobClass::Long, 50.0), Some(1_000.0));
        assert_eq!(rep.mean_runtime(JobClass::Short), Some(20.0));
        let summary = rep.summary(JobClass::Short);
        assert_eq!(summary.jobs, 3);
        assert_eq!(summary.p50, Some(20.0));
    }

    #[test]
    fn empty_class_yields_none() {
        let rep = report(vec![result(0, JobClass::Short, 10)]);
        assert_eq!(rep.runtime_percentile(JobClass::Long, 50.0), None);
        assert_eq!(rep.mean_runtime(JobClass::Long), None);
        let s = rep.summary(JobClass::Long);
        assert_eq!(s.jobs, 0);
        assert_eq!(s.p50, None);
    }

    #[test]
    fn comparison_ratios_and_fractions() {
        let subject = report(vec![
            result(0, JobClass::Short, 10), // better
            result(1, JobClass::Short, 20), // equal
            result(2, JobClass::Short, 40), // worse
            result(3, JobClass::Long, 500),
        ]);
        let baseline = report(vec![
            result(0, JobClass::Short, 20),
            result(1, JobClass::Short, 20),
            result(2, JobClass::Short, 30),
            result(3, JobClass::Long, 1_000),
        ]);
        let c = compare(&subject, &baseline, JobClass::Short);
        // p50: 20 / 20.
        assert_eq!(c.p50_ratio, Some(1.0));
        assert!((c.fraction_improved.unwrap() - 1.0 / 3.0).abs() < 1e-12);
        assert!((c.fraction_improved_or_equal.unwrap() - 2.0 / 3.0).abs() < 1e-12);
        let l = compare(&subject, &baseline, JobClass::Long);
        assert_eq!(l.p50_ratio, Some(0.5));
        assert_eq!(l.mean_ratio, Some(0.5));
    }

    #[test]
    #[should_panic(expected = "different traces")]
    fn mismatched_reports_rejected() {
        let a = report(vec![result(0, JobClass::Short, 1)]);
        let b = report(vec![]);
        compare(&a, &b, JobClass::Short);
    }

    #[test]
    fn misestimation_grouping_uses_true_class() {
        // A job scheduled as short but truly long groups with long jobs.
        let mut r = result(0, JobClass::Long, 100);
        r.scheduled_class = JobClass::Short;
        let rep = report(vec![r]);
        assert_eq!(rep.runtimes(JobClass::Long).len(), 1);
        assert!(rep.runtimes(JobClass::Short).is_empty());
    }
}
