//! Ablation: short-partition sizing.
//!
//! Hawk sizes the reserved short partition from the workload's long-job
//! task-seconds share (§3.4) — 17 % for the Google trace. This bench
//! sweeps the fraction to show the trade-off the rule balances: too small
//! and short jobs lose their refuge (and stealing thieves); too large and
//! long jobs are squeezed into a cramped general partition.

use crate::{fmt, fmt4, google_cell, ratio_quad, HarnessOpts, Table};
use hawk_core::scheduler::{Hawk, Sparrow};

/// Short-partition fractions to sweep (the paper's rule picks 0.17).
const FRACTIONS: [f64; 7] = [0.0, 0.05, 0.10, 0.17, 0.25, 0.35, 0.50];

pub(crate) fn run(opts: &HarnessOpts, _: &[String]) -> Table {
    let (cell, nodes) = google_cell(opts);

    eprintln!(
        "ablation_partition_size: Sparrow + {} Hawk fractions at {nodes} nodes in parallel...",
        FRACTIONS.len()
    );
    // Scheduler axis order: Sparrow first, then one Hawk per fraction —
    // rows pair with FRACTIONS by grid order.
    let mut sweep = cell.sweep().scheduler(Sparrow::new());
    for fraction in FRACTIONS {
        sweep = sweep.scheduler(Hawk::new(fraction));
    }
    let results = sweep.run_all();
    assert_eq!(results.cells.len(), 1 + FRACTIONS.len());
    let sparrow = &results.cells[0].report;
    // Guard the index pairing against any future grid-order change
    // (fraction 0.0 names itself "hawk-wout-partition").
    assert_eq!(sparrow.scheduler, "sparrow");
    for cell in results.iter().skip(1) {
        assert!(cell.scheduler.starts_with("hawk"), "{}", cell.scheduler);
    }

    let mut table = Table::default();
    for (fraction, cell) in FRACTIONS.iter().zip(results.iter().skip(1)) {
        let hawk = &cell.report;
        let (p50l, p90l, p50s, p90s) = ratio_quad(hawk, sparrow);
        table.push([
            ("short_partition_fraction", fmt4(*fraction)),
            ("p50_short_vs_sparrow", fmt4(p50s)),
            ("p90_short_vs_sparrow", fmt4(p90s)),
            ("p50_long_vs_sparrow", fmt4(p50l)),
            ("p90_long_vs_sparrow", fmt4(p90l)),
            ("steals", fmt(hawk.steals)),
        ]);
    }
    eprintln!("ablation_partition_size: done (the paper's task-seconds rule gives 0.17)");
    table
}
