//! Figure 7: break-down of Hawk's benefits — each component disabled in
//! turn, normalized to full Hawk. Google trace, 15,000 nodes.
//!
//! Paper findings: without centralized scheduling, long jobs take a
//! significant hit (and short jobs improve slightly); without the
//! partition, short jobs suffer; without stealing, short jobs are greatly
//! penalized and long jobs also degrade (they share queues with more
//! short tasks).

use crate::{fmt, fmt4, google_cell, google_hawk, ratio_quad, HarnessOpts, Table};

pub(crate) fn run(opts: &HarnessOpts, _: &[String]) -> Table {
    let (cell, nodes) = google_cell(opts);

    eprintln!("fig07: running full Hawk and 3 ablations at {nodes} nodes in parallel...");
    let results = cell
        .sweep()
        .scheduler(google_hawk())
        .scheduler(google_hawk().without_centralized())
        .scheduler(google_hawk().without_partition())
        .scheduler(google_hawk().without_stealing())
        .run_all();
    let hawk = results.get("hawk", nodes).expect("full Hawk cell ran");

    let mut table = Table::default();
    for cell in results.iter().skip(1) {
        let (p50l, p90l, p50s, p90s) = ratio_quad(&cell.report, hawk);
        table.push([
            ("variant", fmt(&cell.scheduler)),
            ("p50_short", fmt4(p50s)),
            ("p90_short", fmt4(p90s)),
            ("p50_long", fmt4(p50l)),
            ("p90_long", fmt4(p90l)),
        ]);
    }
    eprintln!("fig07: done (values are variant/Hawk; >1 means the variant is worse)");
    table
}
