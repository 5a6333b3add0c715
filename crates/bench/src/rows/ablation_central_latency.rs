//! Ablation: centralized-scheduler decision cost.
//!
//! The paper's §1 motivation for hybrid scheduling is that "the very large
//! number of scheduling decisions … can overwhelm centralized schedulers"
//! — yet its simulator gives the fully-centralized baseline free
//! decisions (§4.1). This bench makes the cost explicit: the centralized
//! scheduler processes jobs serially at a configurable per-task decision
//! cost, and we sweep that cost.
//!
//! Expectation: the fully-centralized baseline's short-job latency
//! explodes once the decision pipeline saturates (its arrival rate ×
//! processing cost approaches 1), while Hawk — whose centralized
//! component only sees the few long jobs — is barely affected. This
//! quantifies the paper's core scalability argument.

use crate::{fmt, google_cell, google_hawk, run_pairs, runtime4, HarnessOpts, Table};
use hawk_core::scheduler::Centralized;
use hawk_core::CentralOverhead;
use hawk_simcore::SimDuration;
use hawk_workload::JobClass::{Long, Short};

/// Per-task decision costs to sweep, in milliseconds.
///
/// With the default truncated trace, jobs arrive every ≈1.46 s and average
/// ≈20 tasks, so the serial decision pipeline of the fully-centralized
/// baseline saturates near 70 ms per task; the sweep brackets that point.
const PER_TASK_MS: [u64; 6] = [0, 10, 30, 70, 100, 150];

pub(crate) fn run(opts: &HarnessOpts, _: &[String]) -> Table {
    let (cell, nodes) = google_cell(opts);

    // The overhead axis is not a fluent sweep dimension; build the 2 cells
    // per cost point explicitly and run the whole list in parallel.
    let mut cells = Vec::new();
    for ms in PER_TASK_MS {
        let env = cell.clone().central_overhead(CentralOverhead {
            per_job: SimDuration::from_millis(2 * ms),
            per_task: SimDuration::from_millis(ms),
        });
        cells.push(env.clone().scheduler(Centralized::new()).build());
        cells.push(env.scheduler(google_hawk()).build());
    }
    eprintln!(
        "ablation_central_latency: running {} cells at {nodes} nodes in parallel...",
        cells.len()
    );
    let pairs = run_pairs(cells, "centralized", "hawk");

    let mut table = Table::default();
    for (ms, (central, hawk)) in PER_TASK_MS.iter().zip(&pairs) {
        table.push([
            ("per_task_decision_ms", fmt(ms)),
            ("centralized_p50_short_s", runtime4(central, Short, 50.0)),
            ("centralized_p90_short_s", runtime4(central, Short, 90.0)),
            ("hawk_p50_short_s", runtime4(hawk, Short, 50.0)),
            ("hawk_p90_short_s", runtime4(hawk, Short, 90.0)),
            ("centralized_p90_long_s", runtime4(central, Long, 90.0)),
            ("hawk_p90_long_s", runtime4(hawk, Long, 90.0)),
        ]);
    }
    eprintln!("ablation_central_latency: done (absolute runtimes in seconds)");
    table
}
