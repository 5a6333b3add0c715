//! Ablation: steal granularity (§3.6's design rationale).
//!
//! The paper steals "the first consecutive group of short tasks that come
//! after a long task", arguing that stealing from random positions "would
//! likely end up focusing on too many jobs at the same time while failing
//! to improve most", and that a bounded group keeps the benefit on a few
//! jobs so their *job* runtimes improve. This bench pits the paper's
//! policy against that strawman (one random blocked entry per steal) and
//! against the maximally aggressive variant (every blocked short), all
//! normalized to the paper's policy.

use crate::{fmt, fmt4, google_cell, google_hawk, ratio_quad, HarnessOpts, RatioQuad, Table};
use hawk_cluster::StealGranularity;

pub(crate) fn run(opts: &HarnessOpts, _: &[String]) -> Table {
    let (cell, nodes) = google_cell(opts);

    eprintln!("ablation_steal_granularity: 3 granularities at {nodes} nodes in parallel...");
    let results = cell
        .sweep()
        .scheduler(google_hawk())
        .scheduler(google_hawk().steal_granularity(StealGranularity::RandomBlockedEntry))
        .scheduler(google_hawk().steal_granularity(StealGranularity::AllBlockedShorts))
        .run_all();
    let paper = results.get("hawk", nodes).expect("paper-policy cell ran");

    let line = |granularity: &str, (p50l, p90l, p50s, p90s): RatioQuad, steals: u64| {
        [
            ("granularity", fmt(granularity)),
            ("p50_short", fmt4(p50s)),
            ("p90_short", fmt4(p90s)),
            ("p50_long", fmt4(p50l)),
            ("p90_long", fmt4(p90l)),
            ("steals", fmt(steals)),
        ]
    };
    let mut table = Table::default();
    let one = Some(1.0);
    table.push(line(
        "first-blocked-group(paper)",
        (one, one, one, one),
        paper.steals,
    ));
    for cell in results.iter().skip(1) {
        let quad = ratio_quad(&cell.report, paper);
        table.push(line(&cell.scheduler, quad, cell.report.steals));
    }
    eprintln!("ablation_steal_granularity: done (>1 means worse than the paper's policy)");
    table
}
