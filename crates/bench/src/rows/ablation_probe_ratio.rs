//! Ablation: probe ratio.
//!
//! Sparrow found a probe ratio of 2 to be best and the Hawk paper adopts
//! it ("we compare against Sparrow configured to send two probes per task
//! because the authors of Sparrow have found two to be the best probe
//! ratio", §4.1). This bench sweeps the ratio for both schedulers. Note
//! the simulator charges network delay but no server-side messaging CPU,
//! so very high ratios are kinder here than on a real cluster — the
//! interesting regime is how little ratios above 2 buy.

use crate::{fmt4, google_cell, google_hawk, run_pairs, runtime4, HarnessOpts, Table};
use hawk_core::scheduler::Sparrow;
use hawk_workload::JobClass::Short;

const RATIOS: [f64; 5] = [1.0, 1.5, 2.0, 3.0, 4.0];

pub(crate) fn run(opts: &HarnessOpts, _: &[String]) -> Table {
    let (cell, nodes) = google_cell(opts);

    eprintln!(
        "ablation_probe_ratio: running {} cells at {nodes} nodes in parallel...",
        2 * RATIOS.len()
    );
    let mut cells = Vec::new();
    for ratio in RATIOS {
        let sparrow = Sparrow::new().probe_ratio(ratio);
        let hawk = google_hawk().probe_ratio(ratio);
        cells.push(cell.clone().scheduler(sparrow).build());
        cells.push(cell.clone().scheduler(hawk).build());
    }
    let pairs = run_pairs(cells, "sparrow", "hawk");

    let mut table = Table::default();
    for (ratio, (sparrow, hawk)) in RATIOS.iter().zip(&pairs) {
        table.push([
            ("probe_ratio", fmt4(*ratio)),
            ("sparrow_p50_short_s", runtime4(sparrow, Short, 50.0)),
            ("sparrow_p90_short_s", runtime4(sparrow, Short, 90.0)),
            ("hawk_p50_short_s", runtime4(hawk, Short, 50.0)),
            ("hawk_p90_short_s", runtime4(hawk, Short, 90.0)),
        ]);
    }
    eprintln!("ablation_probe_ratio: done (absolute short-job runtimes, seconds)");
    table
}
