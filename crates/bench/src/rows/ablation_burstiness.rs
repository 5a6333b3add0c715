//! Ablation: arrival burstiness.
//!
//! The paper's simulator submits jobs through a smooth Poisson process;
//! real cluster traces arrive in bursts (retries, cron fan-outs, diurnal
//! waves). Burstiness is precisely what stresses a statically-sized short
//! partition: a clump of short jobs overflows it, and only a scheduler
//! that lets shorts spill into the general partition absorbs the wave.
//!
//! This bench rewrites the Google-like trace's arrivals with a two-state
//! bursty process of identical average rate and compares Hawk against
//! Sparrow and against the split cluster (§4.6) under both arrival
//! models. Expectation: the split cluster's short-job penalty grows
//! sharply under bursts, while Hawk degrades gracefully.

use std::sync::Arc;

use crate::{
    base, fmt, fmt4, google_hawk, google_sensitivity_nodes, google_setup, ratio_quad, HarnessOpts,
    Table,
};
use hawk_core::scheduler::{Sparrow, SplitCluster};
use hawk_simcore::SimRng;
use hawk_workload::arrivals::with_bursty_arrivals;
use hawk_workload::google::GOOGLE_SHORT_PARTITION;

pub(crate) fn run(opts: &HarnessOpts, _: &[String]) -> Table {
    let (poisson_trace, _) = google_setup(opts);
    let nodes = google_sensitivity_nodes(opts);
    let mut rng = SimRng::seed_from_u64(opts.seed ^ 0xB00B5);
    // Bursts submit jobs 10× faster, ~1 job in 5 arrives inside a burst.
    let bursty_trace = Arc::new(with_bursty_arrivals(
        &poisson_trace,
        10.0,
        80.0,
        20.0,
        &mut rng,
    ));

    let mut table = Table::default();
    for (label, trace) in [("poisson", &poisson_trace), ("bursty", &bursty_trace)] {
        eprintln!("ablation_burstiness: {label} arrivals, 3 schedulers at {nodes} nodes...");
        let results = base(opts)
            .nodes(nodes)
            .trace(trace)
            .sweep()
            .scheduler(google_hawk())
            .scheduler(Sparrow::new())
            .scheduler(SplitCluster::new(GOOGLE_SHORT_PARTITION))
            .run_all();
        let hawk = results.get("hawk", nodes).expect("hawk cell ran");
        for name in ["sparrow", "split-cluster"] {
            let other = results.get(name, nodes).expect("baseline cell ran");
            let (_, p90l, p50s, p90s) = ratio_quad(other, hawk);
            table.push([
                ("arrivals", fmt(label)),
                ("scheduler", fmt(name)),
                ("p50_short_vs_hawk", fmt4(p50s)),
                ("p90_short_vs_hawk", fmt4(p90s)),
                ("p90_long_vs_hawk", fmt4(p90l)),
                ("median_util", fmt4(other.median_utilization)),
            ]);
        }
    }
    eprintln!("ablation_burstiness: done (>1 means worse than Hawk on the same arrivals)");
    table
}
