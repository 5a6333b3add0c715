//! Figure 6: Hawk normalized to Sparrow on the Cloudera (6a), Facebook
//! (6b) and Yahoo (6c) traces — 90th percentile runtimes for long and
//! short jobs, plus Sparrow's median utilization, sweeping cluster size.
//!
//! Paper sweeps: Cloudera 15k–50k nodes (9 % short partition), Facebook
//! 70k–170k (2 %), Yahoo 5k–19k (2 %). The paper's headline: Hawk's
//! benefits hold across all traces, with *larger* short-job improvements
//! than on Google because the short partitions are less utilized, leaving
//! more stealing opportunities.

use crate::{base, fmt, fmt4, ratio_quad, sweep_pair, HarnessOpts, RunMode, Table};
use hawk_core::scheduler::{Hawk, Sparrow};
use hawk_workload::classify::Cutoff;
use hawk_workload::kmeans::KmeansTraceConfig;
use std::sync::Arc;

fn sweep(base: &[usize], scale: u64) -> Vec<usize> {
    base.iter().map(|&n| n / scale as usize).collect()
}

pub(crate) fn run(opts: &HarnessOpts, _: &[String]) -> Table {
    let scale = opts.cluster_scale();

    // (config, paper cluster sweep, default job count)
    let cases: Vec<(KmeansTraceConfig, Vec<usize>, usize)> = vec![
        (
            KmeansTraceConfig::cloudera_c(0),
            vec![
                15_000, 20_000, 25_000, 30_000, 35_000, 40_000, 45_000, 50_000,
            ],
            21_030,
        ),
        (
            KmeansTraceConfig::facebook(0),
            vec![70_000, 90_000, 110_000, 130_000, 150_000, 170_000],
            60_000,
        ),
        (
            KmeansTraceConfig::yahoo(0),
            vec![5_000, 7_000, 9_000, 11_000, 13_000, 15_000, 17_000, 19_000],
            24_262,
        ),
    ];

    let mut table = Table::default();
    for (mut cfg, paper_sweep, default_jobs) in cases {
        cfg.jobs = opts.jobs.unwrap_or(match opts.mode {
            RunMode::Quick => default_jobs.min(6_000),
            RunMode::Paper => default_jobs,
            RunMode::FullTrace => cfg.paper_job_count().unwrap_or(default_jobs),
        });
        if scale != 1 {
            // Preserve offered load on scaled-down clusters.
            cfg.mean_interarrival = cfg.mean_interarrival * scale;
        }
        eprintln!("fig06: generating {} ({} jobs)...", cfg.name, cfg.jobs);
        let trace = Arc::new(cfg.generate(opts.seed));
        let env = base(opts).cutoff(Cutoff::from_secs(cfg.default_cutoff_secs));
        let nodes_sweep = sweep(&paper_sweep, scale);
        eprintln!(
            "fig06: {}: running {} cells in parallel...",
            cfg.name,
            2 * nodes_sweep.len()
        );
        let rows = sweep_pair(
            &trace,
            Hawk::new(cfg.short_partition_fraction),
            Sparrow::new(),
            &nodes_sweep,
            &env,
        );
        for (nodes, hawk, sparrow) in rows {
            let (p50l, p90l, p50s, p90s) = ratio_quad(&hawk, &sparrow);
            table.push([
                ("trace", fmt(cfg.name)),
                ("nodes", fmt(nodes)),
                ("p90_long", fmt4(p90l)),
                ("p90_short", fmt4(p90s)),
                ("p50_long", fmt4(p50l)),
                ("p50_short", fmt4(p50s)),
                ("sparrow_median_util", fmt4(sparrow.median_utilization)),
            ]);
        }
    }
    eprintln!("fig06: done");
    table
}
