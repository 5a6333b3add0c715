//! Workload statistics: Table 1 and Table 2.
//!
//! Table 1 reports, per workload, the fraction of long jobs and the share
//! of task-seconds they consume. §2.1 additionally reports the long jobs'
//! share of tasks and the ratio of mean task durations. (Figure 4's CDFs of
//! per-job mean task duration and task count are drawn by the `fig04` row,
//! which sorts its own series.)

use serde::{Deserialize, Serialize};

use crate::classify::Cutoff;
use crate::job::{Job, JobClass, Trace};

/// Heterogeneity statistics of a trace (Table 1 / §2.1).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadStats {
    /// Number of jobs in the trace (Table 2).
    pub total_jobs: usize,
    /// Number of long jobs.
    pub long_jobs: usize,
    /// Fraction of jobs classified long.
    pub long_job_fraction: f64,
    /// Long jobs' share of total task-seconds (Table 1).
    pub long_task_seconds_share: f64,
    /// Long jobs' share of the total task count (§2.1: 28 % for Google).
    pub long_task_share: f64,
    /// Ratio of per-job mean task duration, long/short (§2.1: 7.34×).
    pub mean_duration_ratio: f64,
}

impl WorkloadStats {
    /// Computes the statistics classifying jobs by `cutoff` on their true
    /// mean task duration — how the paper derives the Google numbers
    /// ("we order the jobs by average task duration", §2.1).
    pub fn by_cutoff(trace: &Trace, cutoff: Cutoff) -> Self {
        Self::compute(trace, |job| cutoff.classify(job.mean_task_duration()))
    }

    /// Computes the statistics using the generator's ground-truth class,
    /// falling back to `cutoff` for jobs without one — how Table 1 reports
    /// the k-means-derived workloads (class = source cluster).
    pub fn by_provenance(trace: &Trace, fallback: Cutoff) -> Self {
        Self::compute(trace, |job| {
            job.generated_class
                .unwrap_or_else(|| fallback.classify(job.mean_task_duration()))
        })
    }

    fn compute(trace: &Trace, class_of: impl Fn(&Job) -> JobClass) -> Self {
        let mut long_jobs = 0usize;
        let mut long_ts = 0.0f64;
        let mut short_ts = 0.0f64;
        let mut long_tasks = 0u64;
        let mut short_tasks = 0u64;
        let mut long_dur_sum = 0.0f64;
        let mut short_dur_sum = 0.0f64;

        for job in trace.jobs() {
            let ts = job.task_seconds().as_secs_f64();
            let mean = job.mean_task_duration().as_secs_f64();
            match class_of(job) {
                JobClass::Long => {
                    long_jobs += 1;
                    long_ts += ts;
                    long_tasks += job.num_tasks() as u64;
                    long_dur_sum += mean;
                }
                JobClass::Short => {
                    short_ts += ts;
                    short_tasks += job.num_tasks() as u64;
                    short_dur_sum += mean;
                }
            }
        }

        let total_jobs = trace.len();
        let short_jobs = total_jobs - long_jobs;
        let total_ts = long_ts + short_ts;
        let total_tasks = long_tasks + short_tasks;
        let long_mean = if long_jobs > 0 {
            long_dur_sum / long_jobs as f64
        } else {
            0.0
        };
        let short_mean = if short_jobs > 0 {
            short_dur_sum / short_jobs as f64
        } else {
            0.0
        };

        WorkloadStats {
            total_jobs,
            long_jobs,
            long_job_fraction: if total_jobs > 0 {
                long_jobs as f64 / total_jobs as f64
            } else {
                0.0
            },
            long_task_seconds_share: if total_ts > 0.0 {
                long_ts / total_ts
            } else {
                0.0
            },
            long_task_share: if total_tasks > 0 {
                long_tasks as f64 / total_tasks as f64
            } else {
                0.0
            },
            mean_duration_ratio: if short_mean > 0.0 {
                long_mean / short_mean
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobId;
    use hawk_simcore::{SimDuration, SimTime};

    fn mk_job(id: u32, mean_secs: u64, tasks: usize, class: Option<JobClass>) -> Job {
        Job {
            id: JobId(id),
            submission: SimTime::from_secs(id as u64),
            tasks: vec![SimDuration::from_secs(mean_secs); tasks],
            generated_class: class,
        }
    }

    #[test]
    fn by_cutoff_partitions_task_seconds() {
        // One long job: 10 tasks × 1000 s = 10,000 ts.
        // Three short jobs: 5 tasks × 100 s = 500 ts each, 1,500 total.
        let t = Trace::new(vec![
            mk_job(0, 1000, 10, None),
            mk_job(1, 100, 5, None),
            mk_job(2, 100, 5, None),
            mk_job(3, 100, 5, None),
        ])
        .unwrap();
        let s = WorkloadStats::by_cutoff(&t, Cutoff::from_secs(500));
        assert_eq!(s.total_jobs, 4);
        assert_eq!(s.long_jobs, 1);
        assert!((s.long_job_fraction - 0.25).abs() < 1e-12);
        assert!((s.long_task_seconds_share - 10_000.0 / 11_500.0).abs() < 1e-12);
        assert!((s.long_task_share - 10.0 / 25.0).abs() < 1e-12);
        assert!((s.mean_duration_ratio - 10.0).abs() < 1e-12);
    }

    #[test]
    fn provenance_overrides_cutoff() {
        // The generator labels this slow job short; provenance stats follow
        // the label, cutoff stats follow the mean duration.
        let t = Trace::new(vec![
            mk_job(0, 1000, 1, Some(JobClass::Short)),
            mk_job(1, 100, 1, Some(JobClass::Long)),
        ])
        .unwrap();
        let prov = WorkloadStats::by_provenance(&t, Cutoff::from_secs(500));
        assert_eq!(prov.long_jobs, 1);
        assert!((prov.long_task_seconds_share - 100.0 / 1100.0).abs() < 1e-12);
        let cut = WorkloadStats::by_cutoff(&t, Cutoff::from_secs(500));
        assert!((cut.long_task_seconds_share - 1000.0 / 1100.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_traces() {
        let empty = Trace::new(vec![]).unwrap();
        let s = WorkloadStats::by_cutoff(&empty, Cutoff::from_secs(1));
        assert_eq!(s.total_jobs, 0);
        assert_eq!(s.long_job_fraction, 0.0);
        assert_eq!(s.mean_duration_ratio, 0.0);

        // All-long trace: the short mean is zero, ratio degrades to 0.
        let all_long = Trace::new(vec![mk_job(0, 1000, 1, None)]).unwrap();
        let s = WorkloadStats::by_cutoff(&all_long, Cutoff::from_secs(1));
        assert_eq!(s.long_jobs, 1);
        assert_eq!(s.mean_duration_ratio, 0.0);
    }
}
