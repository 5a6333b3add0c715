//! A calibrated synthetic stand-in for the Google 2011 cluster trace.
//!
//! The paper evaluates on the public Google trace (506,460 jobs after
//! cleaning). The trace itself is not redistributable, so this module
//! generates a synthetic trace calibrated to the heterogeneity statistics
//! the paper reports for it (§2.1, Table 1, Figure 4):
//!
//! * the top ~10 % of jobs by mean task duration are "long" at the paper's
//!   1129 s cutoff,
//! * long jobs carry ~83.65 % of task-seconds,
//! * long jobs contribute ~28 % of all tasks,
//! * the per-job mean task duration of long jobs is ~7.3× that of short
//!   jobs (which implies the task-weighted ratio is ~13×, because task
//!   count and duration correlate positively within long jobs),
//! * task durations vary within a job.
//!
//! Every experiment consumes the trace only through `(submission time,
//! #tasks, per-task durations)`, so matching these marginals reproduces the
//! queueing dynamics the paper measures.
//!
//! # Model
//!
//! Job class is drawn Bernoulli (10 % long). Task counts are log-normal
//! (short: median 10, σ=1.0, clamped to ≤180; long: median 25, σ=1.3,
//! clamped to ≤8000 — the Figure 4c/4d axis ranges). Short jobs draw a mean
//! task duration log-normal (median 150 s, σ=0.85) truncated below the
//! cutoff; long jobs draw `base · (t/25)^0.344 · ε` with `ε` log-normal
//! (σ=0.5), truncated above the cutoff — the `(t/25)^0.344` term creates
//! the within-class count/duration correlation that separates the per-job
//! (7.34×) from the task-weighted (13×) duration ratios reported in §2.1.
//! Per-task durations are Gaussian around the job mean (σ = 0.5·mean,
//! positive-truncated). Submissions are Poisson.

use hawk_simcore::{SimDuration, SimRng};
use serde::{Deserialize, Serialize};

use crate::arrivals::PoissonArrivals;
use crate::job::{Job, JobClass, JobId, Trace};

/// The paper's short/long cutoff for the Google trace, in seconds.
pub const GOOGLE_CUTOFF_SECS: f64 = 1129.0;

/// Fraction of the cluster reserved as the short partition for the Google
/// trace (§4.1: 17 %, the long-job task-seconds complement of Table 1).
pub const GOOGLE_SHORT_PARTITION: f64 = 0.17;

/// Expected task-seconds per generated job; anchors load calibration.
///
/// Derived analytically from the distribution parameters below and verified
/// by the `calibration` test; used to pick the Poisson inter-arrival mean
/// that yields a target offered load at a given cluster size.
pub const EXPECTED_TASK_SECONDS_PER_JOB: f64 = 19_660.0;

/// The paper's Figure 5 cluster-size sweep (thousands of nodes).
pub const PAPER_NODE_SWEEP: [usize; 9] = [
    10_000, 15_000, 20_000, 25_000, 30_000, 35_000, 40_000, 45_000, 50_000,
];

/// Configuration for the synthetic Google-like trace.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GoogleTraceConfig {
    /// Number of jobs to generate (the paper's cleaned trace has 506,460).
    pub jobs: usize,
    /// Mean Poisson inter-arrival time between job submissions.
    pub mean_interarrival: SimDuration,
    /// Probability that a job is drawn from the long population.
    pub long_fraction: f64,
    /// Relative per-task duration spread within a job (σ/mean).
    pub within_job_spread: f64,
}

impl GoogleTraceConfig {
    /// A `scale`× scaled-down configuration: run the paper's experiments on
    /// clusters `scale`× smaller by slowing arrivals `scale`×, preserving
    /// offered load at every point of the sweep.
    pub fn with_scale(scale: u64, jobs: usize) -> Self {
        // λ = ρ·n / E[task-seconds per job] at the ρ=0.9, n=15,000 anchor.
        let base_interarrival = EXPECTED_TASK_SECONDS_PER_JOB / (0.9 * 15_000.0);
        GoogleTraceConfig {
            jobs,
            mean_interarrival: SimDuration::from_secs_f64(base_interarrival * scale as f64),
            long_fraction: 0.10,
            within_job_spread: 0.5,
        }
    }

    /// The Figure 5 node sweep scaled by the same factor passed to
    /// [`GoogleTraceConfig::with_scale`].
    pub fn scaled_node_sweep(scale: u64) -> Vec<usize> {
        PAPER_NODE_SWEEP
            .iter()
            .map(|&n| (n as u64 / scale).max(1) as usize)
            .collect()
    }

    /// Generates the trace deterministically from `seed`.
    pub fn generate(&self, seed: u64) -> Trace {
        let mut root = SimRng::seed_from_u64(seed);
        let mut class_rng = root.split();
        let mut shape_rng = root.split();
        let mut task_rng = root.split();
        let mut arrival_rng = root.split();

        let mut arrivals = PoissonArrivals::new(self.mean_interarrival);
        let mut jobs = Vec::with_capacity(self.jobs);
        for i in 0..self.jobs {
            let submission = arrivals.next_arrival(&mut arrival_rng);
            let class = if class_rng.chance(self.long_fraction) {
                JobClass::Long
            } else {
                JobClass::Short
            };
            let (num_tasks, mean_dur) = draw_job_shape(class, &mut shape_rng);
            let tasks =
                draw_task_durations(num_tasks, mean_dur, self.within_job_spread, &mut task_rng);
            jobs.push(Job {
                id: JobId(i as u32),
                submission,
                tasks,
                generated_class: Some(class),
            });
        }
        Trace::new(jobs).expect("generator emits a valid trace")
    }
}

impl Default for GoogleTraceConfig {
    /// The default is the 10×-scaled configuration with 5,000 jobs, sized
    /// so the full Figure 5 sweep runs in seconds.
    fn default() -> Self {
        Self::with_scale(10, 5_000)
    }
}

/// Draws `(task count, mean task duration in seconds)` for one job.
fn draw_job_shape(class: JobClass, rng: &mut SimRng) -> (usize, f64) {
    match class {
        JobClass::Short => {
            let tasks = log_normal_count(rng, 10.0, 1.0, 180);
            // Truncate below the cutoff so the drawn mean is consistent with
            // the short class (realized means may still straddle it).
            let mean = loop {
                let d = 150.0 * rng.log_normal(0.0, 0.85);
                if d < GOOGLE_CUTOFF_SECS {
                    break d;
                }
            };
            (tasks, mean)
        }
        JobClass::Long => {
            let tasks = log_normal_count(rng, 25.0, 1.3, 8_000);
            // Positive count/duration correlation within the long class; see
            // the module docs for the derivation of the 0.344 exponent.
            let base = 1_200.0 * (tasks as f64 / 25.0).powf(0.344);
            let mean = loop {
                let d = base * rng.log_normal(0.0, 0.5);
                if d >= GOOGLE_CUTOFF_SECS {
                    break d;
                }
            };
            (tasks, mean)
        }
    }
}

/// Draws a log-normal integer count with the given median and sigma,
/// clamped to `[1, max]`.
fn log_normal_count(rng: &mut SimRng, median: f64, sigma: f64, max: usize) -> usize {
    let x = median * rng.log_normal(0.0, sigma);
    (x.round() as usize).clamp(1, max)
}

/// Draws per-task durations around a job mean: Gaussian with
/// σ = `spread`·mean, truncated positive.
pub(crate) fn draw_task_durations(
    count: usize,
    mean_secs: f64,
    spread: f64,
    rng: &mut SimRng,
) -> Vec<SimDuration> {
    (0..count)
        .map(|_| SimDuration::from_secs_f64(rng.positive_normal(mean_secs, spread * mean_secs)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::Cutoff;
    use crate::stats::WorkloadStats;

    #[test]
    fn generator_is_deterministic() {
        let cfg = GoogleTraceConfig::with_scale(10, 200);
        let a = cfg.generate(7);
        let b = cfg.generate(7);
        assert_eq!(a, b);
        let c = cfg.generate(8);
        assert_ne!(a, c);
    }

    #[test]
    fn job_count_and_ordering() {
        let cfg = GoogleTraceConfig::with_scale(10, 500);
        let t = cfg.generate(1);
        assert_eq!(t.len(), 500);
        for w in t.jobs().windows(2) {
            assert!(w[0].submission <= w[1].submission);
        }
    }

    #[test]
    fn calibration_matches_table1() {
        // Table 1 (Google 2011): 10.00 % long jobs, 83.65 % task-seconds.
        // §2.1 adds: long jobs are 28 % of tasks; per-job mean duration
        // ratio 7.34×. Verify the synthetic trace within sampling tolerance.
        let cfg = GoogleTraceConfig::with_scale(10, 20_000);
        let t = cfg.generate(42);
        let stats = WorkloadStats::by_cutoff(&t, Cutoff::GOOGLE_DEFAULT);

        let long_frac = stats.long_job_fraction;
        assert!(
            (0.085..=0.115).contains(&long_frac),
            "long job fraction {long_frac}"
        );
        let ts_share = stats.long_task_seconds_share;
        assert!(
            (0.79..=0.88).contains(&ts_share),
            "long task-seconds share {ts_share}"
        );
        let task_share = stats.long_task_share;
        assert!(
            (0.23..=0.33).contains(&task_share),
            "long task share {task_share}"
        );
        let ratio = stats.mean_duration_ratio;
        assert!(
            (5.0..=11.0).contains(&ratio),
            "per-job duration ratio {ratio}"
        );
    }

    #[test]
    fn generated_class_agrees_with_cutoff_mostly() {
        let cfg = GoogleTraceConfig::with_scale(10, 5_000);
        let t = cfg.generate(3);
        let cutoff = Cutoff::GOOGLE_DEFAULT;
        let agree = t
            .jobs()
            .iter()
            .filter(|j| cutoff.classify(j.mean_task_duration()) == j.generated_class.unwrap())
            .count();
        let frac = agree as f64 / t.len() as f64;
        assert!(frac > 0.97, "cutoff/provenance agreement {frac}");
    }

    #[test]
    fn task_count_bounds_respected() {
        let cfg = GoogleTraceConfig::with_scale(10, 3_000);
        let t = cfg.generate(5);
        for j in t.jobs() {
            assert!((1..=8_000).contains(&j.num_tasks()));
            if j.generated_class == Some(JobClass::Short) {
                assert!(
                    j.num_tasks() <= 180,
                    "short job with {} tasks",
                    j.num_tasks()
                );
            }
            for &d in &j.tasks {
                assert!(d > SimDuration::ZERO);
            }
        }
    }

    #[test]
    fn offered_load_matches_anchor() {
        // At scale 10 the 1,500-node point should see ≈0.9 offered load:
        // total task-seconds / (span · nodes).
        let cfg = GoogleTraceConfig::with_scale(10, 20_000);
        let t = cfg.generate(11);
        let ts = t.total_task_seconds().as_secs_f64();
        let span = t.span().as_secs_f64();
        let load = ts / (span * 1_500.0);
        assert!((0.7..=1.1).contains(&load), "offered load at anchor {load}");
    }

    #[test]
    fn scaled_node_sweep_divides() {
        assert_eq!(
            GoogleTraceConfig::scaled_node_sweep(10),
            vec![1_000, 1_500, 2_000, 2_500, 3_000, 3_500, 4_000, 4_500, 5_000]
        );
        assert_eq!(
            GoogleTraceConfig::scaled_node_sweep(1).to_vec(),
            PAPER_NODE_SWEEP.to_vec()
        );
    }
}
