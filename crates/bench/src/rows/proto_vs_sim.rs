//! One policy, two backends: the §4.4 sim-vs-implementation cross-check
//! as a TSV grid.
//!
//! Runs a policy grid (Hawk, its no-stealing ablation, Sparrow) on the
//! same high-load Google-like scenario through the discrete-event
//! simulator and the prototype's deterministic virtual-clock backend,
//! and prints the headline percentiles side by side plus the
//! proto/sim conformance ratio per cell. Both backends execute the
//! *same* `Arc<dyn Scheduler>` values; `tests/backend_conformance.rs`
//! asserts the qualitative claims this table lets you eyeball.
//!
//! Columns: scheduler, backend, p50/p90 short, p50/p90 long, steals,
//! wall-clock milliseconds, and (on proto rows) the p90-short proto/sim
//! ratio — the Figure 16/17 agreement number.
//!
//! `--faults` adds a third row per scheduler: the virtual prototype under
//! [`FaultSpec::chaos`] plus a mid-run partition, so the fault-free and
//! faulty divergence from the simulator sit side by side.

use std::sync::Arc;
use std::time::Instant;

use super::{conformance_trace, islanded, CONFORMANCE_NODES};
use crate::{fmt4, has_flag, ratio, HarnessOpts, Table};
use hawk_core::scheduler::{Hawk, Sparrow};
use hawk_core::{Backend, Experiment, MetricsReport, Scheduler, SimBackend};
use hawk_proto::{FaultSpec, ProtoBackend};
use hawk_workload::JobClass;

pub(crate) fn run(opts: &HarnessOpts, flags: &[String]) -> Table {
    let trace = conformance_trace("proto_vs_sim", opts);

    let schedulers: Vec<Arc<dyn Scheduler>> = vec![
        Arc::new(Hawk::new(0.17)),
        Arc::new(Hawk::new(0.17).without_stealing()),
        Arc::new(Sparrow::new()),
    ];
    let sim = SimBackend;
    let proto = ProtoBackend::deterministic();
    // The faulty axis: the chaos cell plus a 1000 s partition.
    let faulty = ProtoBackend::deterministic().faults(islanded(FaultSpec::chaos(), 1_000));

    let mut table = Table::default();
    for scheduler in schedulers {
        let mut sim_p90_short = None;
        let mut rows: Vec<(&dyn Backend, &str)> = vec![(&sim, "sim"), (&proto, "proto")];
        if has_flag(flags, "--faults") {
            rows.push((&faulty, "proto-faulty"));
        }
        for (backend, name) in rows {
            let start = Instant::now();
            let report: MetricsReport = Experiment::builder()
                .nodes(CONFORMANCE_NODES)
                .trace(&trace)
                .seed(opts.seed)
                .scheduler_shared(Arc::clone(&scheduler))
                .build()
                .run_on(backend);
            let wall = start.elapsed();
            let short = report.summary(JobClass::Short);
            let long = report.summary(JobClass::Long);
            let conformance = match name {
                "sim" => {
                    sim_p90_short = short.p90;
                    None
                }
                _ => ratio(short.p90, sim_p90_short),
            };
            table.push([
                ("scheduler", report.scheduler.clone()),
                ("backend", name.to_string()),
                ("p50_short", fmt4(short.p50)),
                ("p90_short", fmt4(short.p90)),
                ("p50_long", fmt4(long.p50)),
                ("p90_long", fmt4(long.p90)),
                ("steals", report.steals.to_string()),
                ("wall_ms", format!("{:.1}", wall.as_secs_f64() * 1e3)),
                ("p90_short_vs_sim", fmt4(conformance)),
            ]);
        }
    }
    eprintln!("proto_vs_sim: done (p90_short_vs_sim ≈ 1.0 = backends agree)");
    table
}
