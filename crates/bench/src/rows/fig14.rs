//! Figure 14: sensitivity to task-runtime misestimation. Hawk with
//! misestimated task runtimes normalized to Sparrow, long jobs, 15,000
//! nodes, Google trace, averaged over ten runs.
//!
//! Each job's correct estimate is multiplied by a uniform factor from the
//! range on the x-axis (0.1–1.9 is the widest, 0.7–1.3 the narrowest).
//! Jobs are grouped by the class they'd have *without* misestimation.
//! Paper finding: Hawk is robust — opposing misclassifications cancel, and
//! at 15,000 nodes long jobs misclassified as short actually benefit from
//! the less-loaded short partition, so the p90 improves slightly as the
//! range widens.

use crate::{fmt4, google_cell, google_hawk, ratio_quad, HarnessOpts, RunMode, Table};
use hawk_core::scheduler::Sparrow;
use hawk_workload::classify::MisestimateRange;

/// The paper's misestimation ranges: symmetric deltas 0.9 down to 0.3.
const DELTAS: [f64; 7] = [0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3];

pub(crate) fn run(opts: &HarnessOpts, _: &[String]) -> Table {
    let (env, nodes) = google_cell(opts);
    let runs = if opts.mode == RunMode::Quick { 3 } else { 10 };
    let seeds: Vec<u64> = (0..runs).map(|i| opts.seed + i).collect();

    // Sparrow ignores estimates; one run per seed is shared by all ranges.
    eprintln!("fig14: {runs} Sparrow baseline runs at {nodes} nodes in parallel...");
    let sparrows = env
        .clone()
        .sweep()
        .scheduler(Sparrow::new())
        .seeds(seeds.iter().copied())
        .run_all();

    eprintln!(
        "fig14: {} misestimated Hawk runs in parallel...",
        DELTAS.len() * runs as usize
    );
    let hawks = env
        .sweep()
        .scheduler(google_hawk())
        .misestimates(DELTAS.iter().map(|&d| MisestimateRange::symmetric(d)))
        .seeds(seeds.iter().copied())
        .run_all();

    let mut table = Table::default();
    for delta in DELTAS {
        let range = MisestimateRange::symmetric(delta);
        let mut sums = [0.0f64; 4];
        for &seed in &seeds {
            let sparrow = &sparrows
                .find(|c| c.seed == seed)
                .expect("baseline cell ran")
                .report;
            let hawk = &hawks
                .find(|c| c.seed == seed && c.misestimate == Some(range))
                .expect("hawk cell ran")
                .report;
            let (p50l, p90l, p50s, p90s) = ratio_quad(hawk, sparrow);
            for (sum, ratio) in sums.iter_mut().zip([p50l, p90l, p50s, p90s]) {
                *sum += ratio.unwrap_or(f64::NAN);
            }
        }
        let n = runs as f64;
        table.push([
            ("range", format!("{:.1}-{:.1}", range.lo, range.hi)),
            ("p50_long", fmt4(sums[0] / n)),
            ("p90_long", fmt4(sums[1] / n)),
            ("p50_short", fmt4(sums[2] / n)),
            ("p90_short", fmt4(sums[3] / n)),
        ]);
        eprintln!("fig14: range {:.1}-{:.1} done", range.lo, range.hi);
    }
    eprintln!("fig14: done (long columns are Figure 14; short columns show the paper's \"minute variations\")");
    table
}
