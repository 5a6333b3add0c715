//! A scheduler the paper never shipped, plugged in from outside the
//! workspace: **power-of-d-choices** probing (after Mitzenmacher's
//! two-choices result and its heterogeneous-server analyses, e.g.
//! Moaddeli et al., arXiv:1904.00447).
//!
//! Instead of Sparrow's blind batch probing (2t probes placed uniformly at
//! random, late binding sorts it out), each task samples `d` random
//! servers, asks for their queue depths, and sends its single probe to the
//! least-loaded sample. This is the extensibility proof for the
//! [`Scheduler`] trait: the policy below is written entirely against the
//! public API — routing, probe placement via the cluster view, no steal
//! hook — and the driver runs it without a single driver change.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example power_of_d
//! ```

use hawk::core::Route;
use hawk::prelude::*;
use hawk::workload::google::{GoogleTraceConfig, GOOGLE_SHORT_PARTITION};

/// Power-of-d-choices probing: one probe per task, aimed at the shallowest
/// of `d` uniformly sampled queues.
struct PowerOfD {
    /// Samples per task (d = 2 is the classic "power of two choices").
    d: usize,
}

impl Scheduler for PowerOfD {
    fn name(&self) -> String {
        format!("power-of-{}", self.d)
    }

    fn route(&self, _class: JobClass) -> Route {
        // Load-aware probing needs no partition and no central queue.
        Route::Distributed(hawk::core::Scope::Whole)
    }

    fn probe_targets(
        &self,
        view: &PlacementView<'_>,
        tasks: usize,
        rng: &mut SimRng,
        out: &mut Vec<ServerId>,
    ) {
        out.extend((0..tasks).map(|_| {
            // Textbook power-of-d: draw all `d` samples and keep the
            // shallowest. Each depth is one load of the sampled server's
            // stat word, so a task costs O(d) whatever the scope size.
            let mut best = view.random_server(rng);
            let mut best_depth = view.queue_depth(best);
            for _ in 1..self.d {
                let candidate = view.random_server(rng);
                let depth = view.queue_depth(candidate);
                if depth < best_depth {
                    best = candidate;
                    best_depth = depth;
                }
            }
            best
        }));
    }
}

fn main() {
    // The 10×-scaled high-load Google cell from the quickstart.
    let trace = GoogleTraceConfig::with_scale(10, 3_000).generate(42);
    let nodes = 1_500;

    println!("power-of-d vs the paper's schedulers, {nodes} nodes:\n");
    let results = Experiment::builder()
        .nodes(nodes)
        .trace(trace)
        .sweep()
        .scheduler(Sparrow::new())
        .scheduler(PowerOfD { d: 2 })
        .scheduler(PowerOfD { d: 4 })
        .scheduler(Hawk::new(GOOGLE_SHORT_PARTITION))
        .run_all();

    println!(
        "{:<14} {:>12} {:>12} {:>12} {:>12}",
        "scheduler", "short p50", "short p90", "long p50", "long p90"
    );
    for cell in results.iter() {
        let s = cell.report.summary(JobClass::Short);
        let l = cell.report.summary(JobClass::Long);
        println!(
            "{:<14} {:>11.1}s {:>11.1}s {:>11.1}s {:>11.1}s",
            cell.scheduler,
            s.p50.unwrap_or(f64::NAN),
            s.p90.unwrap_or(f64::NAN),
            l.p50.unwrap_or(f64::NAN),
            l.p90.unwrap_or(f64::NAN),
        );
    }

    let sparrow = results.get("sparrow", nodes).expect("sparrow ran");
    let po2 = results.get("power-of-2", nodes).expect("power-of-2 ran");
    let short = compare(po2, sparrow, JobClass::Short);
    println!(
        "\npower-of-2 / Sparrow short-job ratios: p50 {:.3}, p90 {:.3}",
        short.p50_ratio.unwrap_or(f64::NAN),
        short.p90_ratio.unwrap_or(f64::NAN)
    );
    println!(
        "(a single load-aware probe commits before queues move, so under\n\
         this heterogeneous load it loses to Sparrow's 2t probes with late\n\
         binding — and both lose to Hawk's partition + stealing; the point\n\
         here is the plumbing: a new policy ran with zero driver changes)"
    );
}
