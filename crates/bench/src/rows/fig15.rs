//! Figure 15: sensitivity to the number of stealing attempts. Hawk with a
//! varying cap on the random nodes contacted per steal attempt, normalized
//! to Hawk with cap 1 — short jobs, 15,000 nodes, Google trace.
//!
//! Paper finding: performance improves with the cap, but even a low value
//! (10, the default) captures most of the benefit.

use crate::{fmt, fmt4, google_cell, google_hawk, HarnessOpts, Table};
use hawk_core::compare;
use hawk_workload::JobClass;

/// The paper's cap sweep.
const CAPS: [usize; 13] = [1, 2, 3, 4, 5, 10, 15, 20, 25, 50, 75, 100, 250];

pub(crate) fn run(opts: &HarnessOpts, _: &[String]) -> Table {
    let (cell, nodes) = google_cell(opts);

    eprintln!(
        "fig15: running {} Hawk cap variants at {nodes} nodes in parallel...",
        CAPS.len()
    );
    let mut sweep = cell.sweep();
    for cap in CAPS {
        sweep = sweep.scheduler(google_hawk().steal_cap(cap));
    }
    // Every variant is named "hawk": rows pair with CAPS by grid order
    // (insertion order of the scheduler axis, the only populated axis).
    let results = sweep.run_all();
    assert_eq!(results.cells.len(), CAPS.len());
    let cap1 = &results.cells[0].report;

    let mut table = Table::default();
    for (cap, cell) in CAPS.iter().zip(results.iter()) {
        let hawk = &cell.report;
        let short = compare(hawk, cap1, JobClass::Short);
        table.push([
            ("cap", fmt(cap)),
            ("p50_short", fmt4(short.p50_ratio)),
            ("p90_short", fmt4(short.p90_ratio)),
            ("steals", fmt(hawk.steals)),
            ("steal_attempts", fmt(hawk.steal_attempts)),
        ]);
    }
    eprintln!("fig15: done");
    table
}
