//! Figures 8 and 9: Hawk normalized to the fully centralized scheduler,
//! Google trace, sweeping cluster size — short jobs (Fig 8) and long jobs
//! (Fig 9).
//!
//! Paper findings: under heavy load (10k–15k nodes) the centralized
//! scheduler penalizes short jobs (Hawk's ratios ≪ 1) because it has no
//! idle options and queues shorts behind longs; as load drops the two
//! converge. For long jobs the centralized approach is slightly better
//! (ratios a bit above 1): it can use the entire cluster, Hawk only the
//! general partition.

use crate::{fmt, fmt4, hawk_vs_baseline, HarnessOpts, Table};
use hawk_core::scheduler::Centralized;

pub(crate) fn run(opts: &HarnessOpts, _: &[String]) -> Table {
    let table = hawk_vs_baseline(
        opts,
        "fig08_09",
        Centralized::new(),
        |nodes, (p50l, p90l, p50s, p90s), _, central| {
            vec![
                ("nodes", fmt(nodes)),
                ("p50_short", fmt4(p50s)),
                ("p90_short", fmt4(p90s)),
                ("p50_long", fmt4(p50l)),
                ("p90_long", fmt4(p90l)),
                ("centralized_median_util", fmt4(central.median_utilization)),
            ]
        },
    );
    eprintln!("fig08_09: done (Fig 8 = short columns, Fig 9 = long columns)");
    table
}
