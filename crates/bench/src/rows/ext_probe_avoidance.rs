//! Extension: long-aware probe bouncing (after Eagle, Hawk's successor).
//!
//! Hawk's distributed schedulers place probes blindly; stealing repairs
//! the bad placements afterwards. Eagle instead prevents them: node
//! monitors know which servers hold long work and short tasks avoid
//! queueing there. This bench evaluates a bounce-based variant of that
//! idea on top of Hawk — a short probe landing on a server with long work
//! retries elsewhere, up to a hop limit — and reports it against plain
//! Hawk and Sparrow.

use crate::{fmt, fmt4, google_cell, google_hawk, ratio_quad, HarnessOpts, RatioQuad, Table};
use hawk_core::scheduler::Sparrow;

const BOUNCE_LIMITS: [u8; 4] = [1, 2, 4, 8];

pub(crate) fn run(opts: &HarnessOpts, _: &[String]) -> Table {
    let (cell, nodes) = google_cell(opts);

    eprintln!(
        "ext_probe_avoidance: baselines + {} bounce variants at {nodes} nodes in parallel...",
        BOUNCE_LIMITS.len()
    );
    // Scheduler axis order: hawk, sparrow, then one variant per bounce
    // limit — rows pair with BOUNCE_LIMITS by grid order.
    let mut sweep = cell
        .sweep()
        .scheduler(google_hawk())
        .scheduler(Sparrow::new());
    for limit in BOUNCE_LIMITS {
        sweep = sweep.scheduler(google_hawk().probe_avoidance(limit));
    }
    let results = sweep.run_all();
    assert_eq!(results.cells.len(), 2 + BOUNCE_LIMITS.len());
    let hawk = &results.cells[0].report;
    let sparrow = &results.cells[1].report;
    // Guard the index pairing against any future grid-order change.
    assert_eq!(hawk.scheduler, "hawk");
    assert_eq!(sparrow.scheduler, "sparrow");
    for cell in results.iter().skip(2) {
        assert_eq!(cell.scheduler, "hawk-probe-avoidance");
    }

    let line = |variant: String, (_, p90l, p50s, p90s): RatioQuad, steals: u64| {
        [
            ("variant", variant),
            ("p50_short_vs_hawk", fmt4(p50s)),
            ("p90_short_vs_hawk", fmt4(p90s)),
            ("p90_long_vs_hawk", fmt4(p90l)),
            ("steals", fmt(steals)),
        ]
    };
    let mut table = Table::default();
    let one = Some(1.0);
    table.push(line(
        "hawk(plain)".into(),
        (one, one, one, one),
        hawk.steals,
    ));
    for (limit, cell) in BOUNCE_LIMITS.iter().zip(results.iter().skip(2)) {
        let quad = ratio_quad(&cell.report, hawk);
        table.push(line(
            format!("hawk+bounce({limit})"),
            quad,
            cell.report.steals,
        ));
    }
    let (_, _, p50s, p90s) = ratio_quad(hawk, sparrow);
    eprintln!(
        "ext_probe_avoidance: reference — Hawk/Sparrow short ratios p50 {} p90 {}",
        fmt4(p50s),
        fmt4(p90s),
    );
    eprintln!("ext_probe_avoidance: done (<1 means the extension beats plain Hawk)");
    table
}
