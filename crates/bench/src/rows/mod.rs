//! The studies themselves: one module per [`Row`], each a
//! `run(&HarnessOpts, flags) -> Table` under its module doc (what the
//! paper reports for it, and what the columns are), and [`ROWS`], the
//! table `repro` selects from.

use std::sync::Arc;

use hawk_proto::FaultSpec;
use hawk_simcore::SimTime;
use hawk_workload::scenario::{ScenarioSpec, TraceFamily};
use hawk_workload::Trace;

use crate::{HarnessOpts, Row, RunMode};

/// Declares each study's module and lists it in [`ROWS`] under the
/// module's own name, in this order: a study cannot be compiled without
/// being selectable, nor be listed under a name other than its file's.
/// A `{ field: value }` suffix overrides [`Row::new`]'s defaults.
macro_rules! rows {
    ($($name:ident: $about:literal $({ $($field:ident: $value:expr),+ })?,)+) => {
        $(pub mod $name;)+

        /// Every study, in paper order: tables and figures first, then the
        /// backend-conformance and topology studies, the beyond-paper
        /// ablations and the chaos sweep.
        pub const ROWS: &[Row] = &[$(Row {
            $($($field: $value,)+)?
            ..Row::new(stringify!($name), $about, $name::run)
        }),+];
    };
}

rows! {
    table1: "workload heterogeneity statistics (Table 1)",
    table2: "per-trace job counts (Table 2)",
    fig01: "short-job runtime CDF under Sparrow (Figure 1 / §2.3)",
    fig04: "workload property CDFs (Figure 4)",
    fig05: "Hawk vs Sparrow on the Google trace (Figure 5)",
    fig06: "Hawk vs Sparrow on derived traces (Figure 6)",
    fig07: "Hawk component ablations (Figure 7)",
    fig08_09: "Hawk vs fully centralized (Figures 8 and 9)",
    fig10_11: "Hawk vs split cluster (Figures 10 and 11)",
    fig12_13: "cutoff sensitivity (Figures 12 and 13)",
    fig14: "misestimation sensitivity (Figure 14)",
    fig15: "steal-attempt cap sensitivity (Figure 15)",
    fig16_17: "prototype vs simulation, Hawk vs Sparrow (Figures 16 and 17)" { wall_clock: true },
    proto_vs_sim: "one policy grid through the simulator and the prototype backend" {
        extra: &[(
            "--faults",
            "add a faulty virtual-prototype row per scheduler \
             (FaultSpec::chaos + a 1000 s ten-worker partition)",
        )]
    },
    latency_topology: "§4.8 network-latency ablation on a contended fat tree" {
        extra: &[("--smoke", "the CI spelling of --quick")]
    },
    ablation_burstiness: "arrival-burstiness ablation",
    ablation_central_latency: "centralized decision-cost ablation (§1 motivation)",
    ablation_partition_size: "short-partition sizing sweep (§3.4)",
    ablation_probe_ratio: "probe-ratio sweep (§4.1 parameter)",
    ablation_steal_granularity: "steal-granularity design-choice ablation (§3.6)",
    ext_probe_avoidance: "Eagle-style probe-avoidance extension on top of Hawk",
    chaos_sweep: "drop-rate x partition-length sweep of the hardened virtual prototype" {
        extra: &[(
            "--smoke",
            "one moderate fault cell run twice: assert 100% completion and \
             a deterministic digest",
        )]
    },
}

/// Cluster size of the §4.4 conformance cell `proto_vs_sim` and
/// `chaos_sweep` share: ~90 % offered load on 100 nodes (the 15,000-node
/// ρ=0.9 anchor divided by [`CONFORMANCE_SCALE`]).
const CONFORMANCE_NODES: usize = 100;
const CONFORMANCE_SCALE: u64 = 150;

/// The conformance cell's Google-like trace, sized by mode.
fn conformance_trace(name: &str, opts: &HarnessOpts) -> Arc<Trace> {
    let jobs = opts.jobs.unwrap_or(match opts.mode {
        RunMode::Quick => 200,
        RunMode::Paper => 1_000,
        RunMode::FullTrace => 5_000,
    });
    let family = TraceFamily::Google {
        scale: CONFORMANCE_SCALE,
    };
    let scenario = ScenarioSpec::new(family, jobs);
    eprintln!(
        "{name}: {jobs} jobs on {CONFORMANCE_NODES} nodes ({})",
        scenario.label()
    );
    Arc::new(scenario.trace(opts.seed))
}

/// `faults` plus one partition window, `secs` long from t = 100 s,
/// islanding ten workers with no co-hosted scheduler daemons (the central
/// daemon lives on host 0, distributed scheduler `s` on host
/// `s % workers`).
fn islanded(faults: FaultSpec, secs: u64) -> FaultSpec {
    faults.partition(
        SimTime::from_secs(100),
        SimTime::from_secs(100 + secs),
        (40..50).collect(),
    )
}
