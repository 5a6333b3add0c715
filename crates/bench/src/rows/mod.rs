//! The studies themselves: one module per [`Row`], each a
//! `run(&HarnessOpts, flags) -> Table` under its module doc (what the
//! paper reports for it, and what the columns are), and [`ROWS`], the
//! table `repro` selects from.

use crate::Row;

/// Declares each study's module and lists it in [`ROWS`] under the
/// module's own name, in this order: a study cannot be compiled without
/// being selectable, nor be listed under a name other than its file's.
/// A `{ field: value }` suffix overrides [`Row::new`]'s defaults.
macro_rules! rows {
    ($($name:ident: $about:literal $({ $($field:ident: $value:expr),+ })?,)+) => {
        $(pub mod $name;)+

        /// Every study, in paper order: tables and figures first, then the
        /// §4.8 topology study and the probe-avoidance extension.
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
    latency_topology: "§4.8 network-latency ablation on a contended fat tree" {
        extra: &[("--smoke", "the CI spelling of --quick")]
    },
    ext_probe_avoidance: "Eagle-style probe-avoidance extension on top of Hawk",
}
