//! Figures 12 and 13: sensitivity to the short/long cutoff. Hawk
//! normalized to Sparrow at 15,000 nodes on the Google trace, sweeping the
//! cutoff over 750–2000 s — long jobs (Fig 12) and short jobs (Fig 13).
//!
//! Paper findings: Hawk's benefits hold across the whole range. Smaller
//! cutoffs improve short jobs the most (more jobs count as long, the short
//! partition is underloaded, stealing is easier) but hurt the long-job
//! 90th percentile (Sparrow can spread long jobs over the whole cluster).

use crate::{fmt, fmt4, google_cell, google_hawk, ratio_quad, HarnessOpts, Table};
use hawk_core::scheduler::Sparrow;
use hawk_workload::classify::Cutoff;

/// The paper's cutoff sweep, seconds (1129 s is the default cutoff).
const CUTOFFS: [u64; 6] = [750, 1_000, 1_129, 1_300, 1_500, 2_000];

pub(crate) fn run(opts: &HarnessOpts, _: &[String]) -> Table {
    let (cell, nodes) = google_cell(opts);

    eprintln!(
        "fig12_13: running {} cells at {nodes} nodes in parallel...",
        2 * CUTOFFS.len()
    );
    let results = cell
        .sweep()
        .scheduler(google_hawk())
        .scheduler(Sparrow::new())
        .cutoffs(CUTOFFS.iter().map(|&s| Cutoff::from_secs(s)))
        .run_all();

    let mut table = Table::default();
    for cutoff_secs in CUTOFFS {
        let cutoff = Cutoff::from_secs(cutoff_secs);
        let cell = |name: &str| {
            &results
                .find(|c| c.scheduler == name && c.cutoff == cutoff)
                .expect("cell ran")
                .report
        };
        let (hawk, sparrow) = (cell("hawk"), cell("sparrow"));
        let (p50l, p90l, p50s, p90s) = ratio_quad(hawk, sparrow);
        let long_pct = 100.0
            * hawk
                .results
                .iter()
                .filter(|r| r.true_class.is_long())
                .count() as f64
            / hawk.results.len() as f64;
        table.push([
            ("cutoff_s", fmt(cutoff_secs)),
            ("p50_long", fmt4(p50l)),
            ("p90_long", fmt4(p90l)),
            ("p50_short", fmt4(p50s)),
            ("p90_short", fmt4(p90s)),
            ("long_jobs_pct", fmt4(long_pct)),
        ]);
    }
    eprintln!("fig12_13: done (Fig 12 = long columns, Fig 13 = short columns) at {nodes} nodes");
    table
}
