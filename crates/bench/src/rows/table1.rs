//! Table 1: long jobs form a small fraction of all jobs but consume the
//! bulk of the resources.
//!
//! Columns: workload, % long jobs, % task-seconds from long jobs, with the
//! paper's published values alongside. The Google trace additionally
//! reports the §2.1 statistics: long jobs' share of tasks (paper: 28 %)
//! and the per-job mean-task-duration ratio (paper: 7.34×).

use crate::{fmt, fmt4, HarnessOpts, Table};
use hawk_workload::classify::Cutoff;
use hawk_workload::google::GoogleTraceConfig;
use hawk_workload::kmeans::KmeansTraceConfig;
use hawk_workload::stats::WorkloadStats;

pub(crate) fn run(opts: &HarnessOpts, _: &[String]) -> Table {
    let jobs = opts.jobs.unwrap_or(60_000);

    let mut table = Table::default();

    // Google: classified by the 1129 s cutoff on mean task duration (§2.1).
    let google = GoogleTraceConfig::with_scale(1, jobs).generate(opts.seed);
    let gs = WorkloadStats::by_cutoff(&google, Cutoff::GOOGLE_DEFAULT);
    table.push([
        ("workload", fmt("google-2011")),
        ("long_jobs_pct", fmt4(gs.long_job_fraction * 100.0)),
        ("paper_long_jobs_pct", fmt("10.00")),
        ("task_seconds_pct", fmt4(gs.long_task_seconds_share * 100.0)),
        ("paper_task_seconds_pct", fmt("83.65")),
        ("long_task_share_pct", fmt4(gs.long_task_share * 100.0)),
        ("mean_duration_ratio", fmt4(gs.mean_duration_ratio)),
    ]);

    // Derived workloads: classified by source cluster (§4.1).
    let derived: [(KmeansTraceConfig, f64, f64); 5] = [
        (KmeansTraceConfig::cloudera_b(jobs), 7.67, 99.65),
        (KmeansTraceConfig::cloudera_c(jobs), 5.02, 92.79),
        (KmeansTraceConfig::cloudera_d(jobs), 4.12, 89.72),
        (KmeansTraceConfig::facebook(jobs), 2.01, 99.79),
        (KmeansTraceConfig::yahoo(jobs), 9.41, 98.31),
    ];
    for (cfg, paper_long, paper_ts) in derived {
        let trace = cfg.generate(opts.seed);
        let s = WorkloadStats::by_provenance(&trace, Cutoff::from_secs(cfg.default_cutoff_secs));
        table.push([
            ("workload", fmt(cfg.name)),
            ("long_jobs_pct", fmt4(s.long_job_fraction * 100.0)),
            ("paper_long_jobs_pct", fmt4(paper_long)),
            ("task_seconds_pct", fmt4(s.long_task_seconds_share * 100.0)),
            ("paper_task_seconds_pct", fmt4(paper_ts)),
            ("long_task_share_pct", fmt4(s.long_task_share * 100.0)),
            ("mean_duration_ratio", fmt4(s.mean_duration_ratio)),
        ]);
    }
    eprintln!("table1: done ({jobs} jobs per workload)");
    table
}
