//! Figure 1: CDF of short-job runtime under Sparrow in a loaded,
//! heterogeneous cluster (the §2.3 motivation).
//!
//! The scenario: 15,000 servers; 1,000 jobs; 95 % short (100 tasks of
//! 100 s), 5 % long (1,000 tasks of 20,000 s); Poisson arrivals with a
//! 50 s mean. The paper reports median utilization 86 % and maximum
//! 97.8 %, and a short-job runtime CDF with a large fraction of jobs
//! beyond 15,000 s even though ≈300 servers are free at any time — pure
//! head-of-line blocking behind long tasks.
//!
//! Output: the short-job runtime CDF (one row per 2 % of jobs), then the
//! utilization summary.

use crate::{base, fmt, fmt4, HarnessOpts, Table};
use hawk_core::scheduler::Sparrow;
use hawk_simcore::stats::percentile_of_sorted;
use hawk_workload::classify::Cutoff;
use hawk_workload::motivation::MotivationConfig;
use hawk_workload::JobClass;

pub(crate) fn run(opts: &HarnessOpts, _: &[String]) -> Table {
    let mut scenario = MotivationConfig::default();
    if let Some(jobs) = opts.jobs {
        scenario.jobs = jobs;
    }
    let nodes = MotivationConfig::PAPER_NODES / opts.cluster_scale() as usize;
    if opts.cluster_scale() != 1 {
        // Keep offered load: fewer nodes need proportionally slower arrivals.
        scenario.mean_interarrival = scenario.mean_interarrival * opts.cluster_scale();
    }

    eprintln!(
        "fig01: {} jobs on {} nodes under Sparrow...",
        scenario.jobs, nodes
    );
    let trace = scenario.generate(opts.seed);
    let report = base(opts)
        .nodes(nodes)
        .scheduler(Sparrow::new())
        // Any cutoff between 100 s and 20,000 s classifies this synthetic
        // mix exactly; use the Google default.
        .cutoff(Cutoff::GOOGLE_DEFAULT)
        .trace(trace)
        .run();

    let mut runtimes = report.runtimes(JobClass::Short);
    runtimes.sort_by(|a, b| a.partial_cmp(b).expect("runtimes are finite"));

    let mut table = Table::default();
    for pct in (2..=100).step_by(2) {
        let value = percentile_of_sorted(&runtimes, pct as f64);
        table.push([("cdf_pct", fmt(pct)), ("short_job_runtime_s", fmt4(value))]);
    }

    eprintln!(
        "fig01: median utilization {:.1}% (paper: 86%), max {:.1}% (paper: 97.8%)",
        report.median_utilization * 100.0,
        report.max_utilization * 100.0
    );
    let blocked = runtimes.iter().filter(|&&r| r > 15_000.0).count();
    eprintln!(
        "fig01: {:.1}% of short jobs exceed 15,000 s (paper: \"a large fraction\"); ideal runtime is ~100 s",
        100.0 * blocked as f64 / runtimes.len().max(1) as f64
    );
    table
}
