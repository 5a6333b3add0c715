//! Table 2: number of long jobs and total number of jobs per simulated
//! trace.
//!
//! The paper simulates the full job counts (Google 506,460; Cloudera-c
//! 21,030; Facebook 1,169,184; Yahoo 24,262). The harness generates the
//! published count for each workload unless `--jobs` overrides it (the
//! Facebook count is large; `--quick` truncates it).

use crate::{fmt, fmt4, HarnessOpts, RunMode, Table};
use hawk_workload::classify::Cutoff;
use hawk_workload::google::GoogleTraceConfig;
use hawk_workload::kmeans::KmeansTraceConfig;
use hawk_workload::stats::WorkloadStats;

pub(crate) fn run(opts: &HarnessOpts, _: &[String]) -> Table {
    let mut table = Table::default();

    let cap = |published: usize| match (opts.jobs, opts.mode) {
        (Some(j), _) => j.min(published),
        (None, RunMode::Quick) => published.min(20_000),
        (None, RunMode::Paper) => published.min(120_000),
        (None, RunMode::FullTrace) => published,
    };

    let google_jobs = cap(506_460);
    let google = GoogleTraceConfig::with_scale(1, google_jobs).generate(opts.seed);
    let gs = WorkloadStats::by_cutoff(&google, Cutoff::GOOGLE_DEFAULT);
    table.push([
        ("workload", fmt("google-2011")),
        ("long_jobs_pct", fmt4(gs.long_job_fraction * 100.0)),
        ("paper_long_jobs_pct", fmt("10.00")),
        ("total_jobs", fmt(google.len())),
        ("paper_total_jobs", fmt(506_460)),
    ]);

    let derived: [(KmeansTraceConfig, f64, usize); 3] = [
        (KmeansTraceConfig::cloudera_c(cap(21_030)), 5.02, 21_030),
        (KmeansTraceConfig::facebook(cap(1_169_184)), 2.01, 1_169_184),
        (KmeansTraceConfig::yahoo(cap(24_262)), 9.41, 24_262),
    ];
    for (cfg, paper_long, paper_total) in derived {
        let trace = cfg.generate(opts.seed);
        let s = WorkloadStats::by_provenance(&trace, Cutoff::from_secs(cfg.default_cutoff_secs));
        table.push([
            ("workload", fmt(cfg.name)),
            ("long_jobs_pct", fmt4(s.long_job_fraction * 100.0)),
            ("paper_long_jobs_pct", fmt4(paper_long)),
            ("total_jobs", fmt(trace.len())),
            ("paper_total_jobs", fmt(paper_total)),
        ]);
    }
    eprintln!("table2: done");
    table
}
