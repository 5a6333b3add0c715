//! Figures 10 and 11: Hawk normalized to a split cluster, Google trace,
//! sweeping cluster size — short jobs (Fig 10) and long jobs (Fig 11).
//!
//! The split cluster reserves 17 % for short jobs and 83 % exclusively for
//! long jobs (no shared general partition, no stealing). Paper findings:
//! the split cluster is slightly better for long jobs (shorts never take
//! its space) but dramatically worse for short jobs at intermediate sizes,
//! where shorts cannot overflow into the rest of the cluster.

use crate::{fmt, fmt4, hawk_vs_baseline, HarnessOpts, Table};
use hawk_core::scheduler::SplitCluster;
use hawk_workload::google::GOOGLE_SHORT_PARTITION;

pub(crate) fn run(opts: &HarnessOpts, _: &[String]) -> Table {
    let table = hawk_vs_baseline(
        opts,
        "fig10_11",
        SplitCluster::new(GOOGLE_SHORT_PARTITION),
        |nodes, (p50l, p90l, p50s, p90s), _, _| {
            vec![
                ("nodes", fmt(nodes)),
                ("p50_short", fmt4(p50s)),
                ("p90_short", fmt4(p90s)),
                ("p50_long", fmt4(p50l)),
                ("p90_long", fmt4(p90l)),
            ]
        },
    );
    eprintln!("fig10_11: done (Fig 10 = short columns, Fig 11 = long columns)");
    table
}
