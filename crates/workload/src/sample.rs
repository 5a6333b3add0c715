//! The 3,300-job prototype sample (§4.1 "Real cluster run", Figures 16/17).
//!
//! The paper's cluster experiments use a subset of 3,300 Google-trace jobs
//! — 3,000 short (300 per distributed scheduler) and 300 long — on a
//! 100-node cluster. To obtain runtimes proportional to the trace they:
//!
//! * scale task durations down 1000× (seconds → milliseconds) and run them
//!   as sleep tasks,
//! * scale the number of tasks per job down by the ratio between the
//!   largest job in the sample and the cluster size, proportionally
//!   *increasing* the remaining tasks' durations to preserve each job's
//!   task-seconds,
//! * draw job inter-arrival times from a Poisson distribution whose mean is
//!   a chosen multiple of the mean task runtime (the Figure 16/17 x-axis).
//!
//! This module reproduces that preparation against the synthetic Google
//! generator.

use hawk_simcore::{SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

use crate::arrivals::with_poisson_arrivals;
use crate::classify::Cutoff;
use crate::google::GoogleTraceConfig;
use crate::job::{Job, JobClass, JobId, Trace};

/// Configuration of the prototype sample.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PrototypeSampleConfig {
    /// Number of short jobs (paper: 3,000).
    pub short_jobs: usize,
    /// Number of long jobs (paper: 300).
    pub long_jobs: usize,
    /// Cluster size the sample is scaled for (paper: 100 nodes).
    pub cluster_size: usize,
    /// Duration scale-down divisor (paper: 1000, seconds → milliseconds).
    pub duration_divisor: u64,
}

impl Default for PrototypeSampleConfig {
    fn default() -> Self {
        PrototypeSampleConfig {
            short_jobs: 3_000,
            long_jobs: 300,
            cluster_size: 100,
            duration_divisor: 1_000,
        }
    }
}

impl PrototypeSampleConfig {
    /// Generates the scaled sample deterministically from `seed`.
    ///
    /// Submission times are placeholders (jobs 1 ms apart); callers rewrite
    /// them per load level with [`arrivals_for_load_multiplier`].
    pub fn generate(&self, seed: u64) -> Trace {
        let mut rng = SimRng::seed_from_u64(seed);
        // Over-generate and split by provenance to hit the exact class mix.
        let source = GoogleTraceConfig::with_scale(1, (self.short_jobs + self.long_jobs) * 2)
            .generate(rng.next_u64());
        let mut short: Vec<Job> = Vec::with_capacity(self.short_jobs);
        let mut long: Vec<Job> = Vec::with_capacity(self.long_jobs);
        for job in source.jobs() {
            match job.generated_class {
                Some(JobClass::Short) if short.len() < self.short_jobs => short.push(job.clone()),
                Some(JobClass::Long) if long.len() < self.long_jobs => long.push(job.clone()),
                _ => {}
            }
        }
        assert!(
            short.len() == self.short_jobs && long.len() == self.long_jobs,
            "source trace too small for the requested sample"
        );

        let mut jobs = short;
        jobs.append(&mut long);
        rng.shuffle(&mut jobs);

        // Scale task counts so the largest job fits the cluster, preserving
        // per-job task-seconds; then scale durations by the divisor.
        let max_tasks = jobs.iter().map(Job::num_tasks).max().expect("non-empty");
        let count_divisor = (max_tasks as f64 / self.cluster_size as f64).max(1.0);
        for (i, job) in jobs.iter_mut().enumerate() {
            let old_count = job.num_tasks();
            let new_count = ((old_count as f64 / count_divisor).round() as usize).max(1);
            let compensation = old_count as f64 / new_count as f64;
            let mean = job.mean_task_duration().as_secs_f64();
            let scaled = mean * compensation / self.duration_divisor as f64;
            // Keep per-task variation: rescale the first `new_count`
            // durations by the same factor rather than flattening them.
            let mut tasks: Vec<SimDuration> = job
                .tasks
                .iter()
                .take(new_count)
                .map(|d| {
                    SimDuration::from_micros(
                        ((d.as_micros() as f64) * compensation / self.duration_divisor as f64)
                            .round()
                            .max(1.0) as u64,
                    )
                })
                .collect();
            if tasks.is_empty() {
                tasks.push(SimDuration::from_secs_f64(scaled.max(1e-6)));
            }
            job.tasks = tasks;
            job.id = JobId(i as u32);
            job.submission = SimTime::from_micros(i as u64 * 1_000);
        }
        Trace::new(jobs).expect("sample is a valid trace")
    }

    /// The scaled cutoff separating short from long jobs in the sample: the
    /// Google cutoff divided by [`Self::duration_divisor`].
    ///
    /// Note the task-count compensation multiplies some long jobs' task
    /// durations, which only moves them further above the cutoff.
    pub fn cutoff(&self) -> Cutoff {
        Cutoff(SimDuration::from_micros(
            Cutoff::GOOGLE_DEFAULT.0.as_micros() / self.duration_divisor,
        ))
    }
}

/// Rewrites the sample's arrivals so that `multiplier = 1` saturates a
/// `workers`-node cluster (offered load 1.0) and larger multipliers
/// decrease load proportionally — the Figure 16/17 sweep semantics.
///
/// The paper expresses the sweep as "mean job inter-arrival rate as a
/// multiple of the mean task runtime", which on its trace spans
/// high-to-moderate load. Our synthetic sample's task-count scale-down
/// inflates per-task durations (task-seconds are preserved), so the same
/// literal formula yields a nearly idle cluster; anchoring the multiplier
/// at saturation preserves what the figure actually varies. Documented in
/// DESIGN.md.
pub fn arrivals_for_load_multiplier(
    trace: &Trace,
    multiplier: f64,
    workers: usize,
    rng: &mut SimRng,
) -> Trace {
    assert!(multiplier > 0.0 && workers > 0);
    let ts_per_job = trace.total_task_seconds().as_secs_f64() / trace.len().max(1) as f64;
    let mean = SimDuration::from_secs_f64(multiplier * ts_per_job / workers as f64);
    with_poisson_arrivals(trace, mean, rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_has_requested_mix() {
        let cfg = PrototypeSampleConfig {
            short_jobs: 300,
            long_jobs: 30,
            ..Default::default()
        };
        let t = cfg.generate(1);
        assert_eq!(t.len(), 330);
        let long = t
            .jobs()
            .iter()
            .filter(|j| j.generated_class == Some(JobClass::Long))
            .count();
        assert_eq!(long, 30);
    }

    #[test]
    fn largest_job_fits_cluster() {
        let cfg = PrototypeSampleConfig {
            short_jobs: 300,
            long_jobs: 30,
            ..Default::default()
        };
        let t = cfg.generate(2);
        // Rounding of per-job counts can exceed the target by a hair; allow
        // a small margin like the paper's "keeping the ratio constant".
        assert!(
            t.max_tasks_per_job() <= (cfg.cluster_size as f64 * 1.05) as usize,
            "max tasks {}",
            t.max_tasks_per_job()
        );
    }

    #[test]
    fn task_seconds_preserved_through_count_scaling() {
        // Durations shrink 1000× but per-job task-seconds (×1000) must be
        // within rounding of the original: count compensation is exact.
        let cfg = PrototypeSampleConfig {
            short_jobs: 200,
            long_jobs: 20,
            ..Default::default()
        };
        let mut rng = SimRng::seed_from_u64(3);
        let source = GoogleTraceConfig::with_scale(1, 440).generate(rng.next_u64());
        // Regenerate through the same path and compare totals loosely: the
        // sample keeps total work proportional.
        let t = cfg.generate(3);
        let per_task_ratio =
            source.mean_task_runtime().as_secs_f64() / t.mean_task_runtime().as_secs_f64();
        // Compensation re-inflates durations, so the ratio is below 1000 by
        // roughly the count divisor; it must at least stay within [20, 1000].
        assert!(
            (20.0..=1_500.0).contains(&per_task_ratio),
            "per-task scale ratio {per_task_ratio}"
        );
    }

    #[test]
    fn scaled_cutoff_divides() {
        let cfg = PrototypeSampleConfig::default();
        assert_eq!(
            cfg.cutoff().0.as_micros(),
            Cutoff::GOOGLE_DEFAULT.0.as_micros() / 1_000
        );
    }

    #[test]
    fn deterministic() {
        let cfg = PrototypeSampleConfig {
            short_jobs: 100,
            long_jobs: 10,
            ..Default::default()
        };
        assert_eq!(cfg.generate(6), cfg.generate(6));
    }

    #[test]
    fn load_multiplier_anchors_at_saturation() {
        // Multiplier 1 on `workers` nodes must offer ≈1.0 load: total
        // task-seconds ≈ span × workers.
        let cfg = PrototypeSampleConfig {
            short_jobs: 500,
            long_jobs: 50,
            ..Default::default()
        };
        let sample = cfg.generate(8);
        let mut rng = SimRng::seed_from_u64(9);
        let loaded = arrivals_for_load_multiplier(&sample, 1.0, 100, &mut rng);
        let offered =
            loaded.total_task_seconds().as_secs_f64() / (loaded.span().as_secs_f64() * 100.0);
        assert!((0.8..=1.25).contains(&offered), "offered load {offered}");

        let light = arrivals_for_load_multiplier(&sample, 2.0, 100, &mut rng);
        let offered_light =
            light.total_task_seconds().as_secs_f64() / (light.span().as_secs_f64() * 100.0);
        assert!(
            offered_light < offered * 0.7,
            "multiplier 2 should halve load: {offered_light} vs {offered}"
        );
    }
}
