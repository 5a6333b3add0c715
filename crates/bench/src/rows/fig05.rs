//! Figure 5: Hawk normalized to Sparrow on the Google trace, sweeping
//! cluster size (paper: 10,000–50,000 nodes).
//!
//! * Fig 5a — 50th/90th percentile runtime ratios for **long** jobs, plus
//!   Sparrow's median cluster utilization.
//! * Fig 5b — the same ratios for **short** jobs.
//! * Fig 5c — fraction of jobs Hawk improves-or-equals and the average
//!   runtime ratio, per class.
//!
//! Paper reference points (best cases, 15,000–25,000 nodes): Hawk improves
//! short jobs by 80 % (p50) and 90 % (p90) — ratios 0.2 and 0.1 — and long
//! jobs by 35 % (p50) and 10 % (p90) — ratios 0.65 and 0.90. At 15,000
//! nodes Hawk improves 68 % of short jobs and is ≥ Sparrow for 86 % (72 %
//! for long jobs); the short-job average runtime ratio dips to ≈1/7.

use crate::{fmt, fmt4, hawk_vs_baseline, HarnessOpts, Table};
use hawk_core::compare;
use hawk_core::scheduler::Sparrow;
use hawk_workload::JobClass;

pub(crate) fn run(opts: &HarnessOpts, _: &[String]) -> Table {
    let table = hawk_vs_baseline(
        opts,
        "fig05",
        Sparrow::new(),
        |nodes, (p50l, p90l, p50s, p90s), hawk, sparrow| {
            let long = compare(hawk, sparrow, JobClass::Long);
            let short = compare(hawk, sparrow, JobClass::Short);
            vec![
                ("nodes", fmt(nodes)),
                ("p50_long", fmt4(p50l)),
                ("p90_long", fmt4(p90l)),
                ("p50_short", fmt4(p50s)),
                ("p90_short", fmt4(p90s)),
                ("sparrow_median_util", fmt4(sparrow.median_utilization)),
                ("hawk_median_util", fmt4(hawk.median_utilization)),
                (
                    "frac_improved_or_eq_long",
                    fmt4(long.fraction_improved_or_equal),
                ),
                (
                    "frac_improved_or_eq_short",
                    fmt4(short.fraction_improved_or_equal),
                ),
                ("mean_ratio_long", fmt4(long.mean_ratio)),
                ("mean_ratio_short", fmt4(short.mean_ratio)),
                ("hawk_steals", fmt(hawk.steals)),
            ]
        },
    );
    eprintln!("fig05: done");
    table
}
