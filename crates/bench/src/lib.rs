//! Shared harness utilities for the figure/table regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the Hawk
//! paper and prints a TSV series to stdout (plus commentary on stderr).
//! They share a tiny CLI convention:
//!
//! * default — the paper's cluster sizes with a truncated job count
//!   (tens of thousands of jobs; seconds to a few minutes per figure);
//! * `--quick` — clusters and task counts scaled down 10× for smoke runs;
//! * `--full-trace` (alias `--paper-scale`) — the full published job count
//!   (506,460 jobs for the Google trace; minutes to tens of minutes);
//! * `--jobs N` / `--seed S` — explicit overrides.
//!
//! Truncating the job count shortens the simulated horizon but preserves
//! the arrival rate, and therefore the offered load at every sweep point —
//! the quantity the paper's figures are parameterized by.
//!
//! # Examples
//!
//! ```
//! use hawk_bench::{HarnessOpts, RunMode, GOOGLE_DEFAULT_JOBS, GOOGLE_FULL_JOBS};
//!
//! // The shared CLI convention resolves job counts per mode.
//! let opts = HarnessOpts { mode: RunMode::Quick, ..Default::default() };
//! assert_eq!(opts.cluster_scale(), 10);
//! assert_eq!(
//!     opts.job_count(GOOGLE_DEFAULT_JOBS, GOOGLE_FULL_JOBS),
//!     GOOGLE_DEFAULT_JOBS / 6
//! );
//! let full = HarnessOpts { mode: RunMode::FullTrace, ..Default::default() };
//! assert_eq!(full.job_count(GOOGLE_DEFAULT_JOBS, GOOGLE_FULL_JOBS), 506_460);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod micro;

use std::fmt::Display;
use std::sync::Arc;

use hawk_core::{compare, Experiment, ExperimentBuilder, MetricsReport, Scheduler, SweepResults};
use hawk_workload::google::GoogleTraceConfig;
use hawk_workload::{JobClass, Trace};

/// How much of the paper's configuration to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// 10×-scaled clusters, small trace: CI-speed smoke runs.
    Quick,
    /// Paper cluster sizes, truncated trace (the default).
    Paper,
    /// Paper cluster sizes, full published job count.
    FullTrace,
}

/// Parsed harness options.
#[derive(Debug, Clone, Copy)]
pub struct HarnessOpts {
    /// Scale mode.
    pub mode: RunMode,
    /// Job-count override.
    pub jobs: Option<usize>,
    /// Seed override.
    pub seed: u64,
}

impl Default for HarnessOpts {
    fn default() -> Self {
        HarnessOpts {
            mode: RunMode::Paper,
            jobs: None,
            seed: hawk_core::DEFAULT_SEED,
        }
    }
}

impl HarnessOpts {
    /// Job count for this run: the override if given, else per mode.
    pub fn job_count(&self, default_jobs: usize, full_jobs: usize) -> usize {
        self.jobs.unwrap_or(match self.mode {
            RunMode::Quick => (default_jobs / 6).max(500),
            RunMode::Paper => default_jobs,
            RunMode::FullTrace => full_jobs,
        })
    }

    /// Cluster scale divisor: 10 in quick mode, 1 otherwise.
    pub fn cluster_scale(&self) -> u64 {
        match self.mode {
            RunMode::Quick => 10,
            _ => 1,
        }
    }
}

/// Parses `std::env::args()` under the shared convention; exits with a
/// usage message on unknown flags.
pub fn parse_args(binary: &str, description: &str) -> HarnessOpts {
    parse_args_with(binary, description, &[]).0
}

/// Like [`parse_args`], but a binary may declare extra boolean flags
/// (`(flag, help)` pairs, e.g. `("--faults", "add faulty rows")`).
/// Returns the shared options plus the extra flags that were present;
/// anything undeclared still exits with the usage message.
pub fn parse_args_with(
    binary: &str,
    description: &str,
    extra: &[(&str, &str)],
) -> (HarnessOpts, Vec<String>) {
    let mut opts = HarnessOpts::default();
    let mut flags = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.mode = RunMode::Quick,
            "--full-trace" | "--paper-scale" => opts.mode = RunMode::FullTrace,
            "--jobs" => {
                let v = args.next().unwrap_or_default();
                opts.jobs = Some(
                    v.parse()
                        .unwrap_or_else(|_| usage(binary, description, extra)),
                );
            }
            "--seed" => {
                let v = args.next().unwrap_or_default();
                opts.seed = v
                    .parse()
                    .unwrap_or_else(|_| usage(binary, description, extra));
            }
            "--help" | "-h" => usage(binary, description, extra),
            other => {
                if extra.iter().any(|(flag, _)| *flag == other) {
                    flags.push(other.to_string());
                } else {
                    usage(binary, description, extra);
                }
            }
        }
    }
    (opts, flags)
}

fn usage(binary: &str, description: &str, extra: &[(&str, &str)]) -> ! {
    eprintln!("{binary}: {description}");
    let extras: String = extra.iter().map(|(flag, _)| format!(" [{flag}]")).collect();
    eprintln!("usage: {binary} [--quick | --full-trace] [--jobs N] [--seed S]{extras}");
    for (flag, help) in extra {
        eprintln!("  {flag}: {help}");
    }
    std::process::exit(2);
}

/// The Google trace job count the paper uses after cleaning.
pub const GOOGLE_FULL_JOBS: usize = 506_460;

/// Default truncated Google job count for paper-size clusters.
pub const GOOGLE_DEFAULT_JOBS: usize = 30_000;

/// Generates the Google-like trace and its cluster-size sweep for `opts`.
pub fn google_setup(opts: &HarnessOpts) -> (Arc<Trace>, Vec<usize>) {
    let scale = opts.cluster_scale();
    let jobs = opts.job_count(GOOGLE_DEFAULT_JOBS, GOOGLE_FULL_JOBS);
    eprintln!("generating Google-like trace: {jobs} jobs, cluster scale 1/{scale}");
    let trace = GoogleTraceConfig::with_scale(scale, jobs).generate(opts.seed);
    (Arc::new(trace), GoogleTraceConfig::scaled_node_sweep(scale))
}

/// The Google-trace cluster size the sensitivity studies fix (15,000 nodes
/// in the paper; scaled in quick mode).
pub fn google_sensitivity_nodes(opts: &HarnessOpts) -> usize {
    15_000 / opts.cluster_scale() as usize
}

/// Prints a TSV header row to stdout.
pub fn tsv_header(columns: &[&str]) {
    println!("{}", columns.join("\t"));
}

/// Prints one TSV row of preformatted values.
pub fn tsv_row(values: &[String]) {
    println!("{}", values.join("\t"));
}

/// Formats an optional float with 4 decimals for TSV output.
pub fn fmt4(x: impl Into<Option<f64>>) -> String {
    match x.into() {
        Some(v) => format!("{v:.4}"),
        None => "-".into(),
    }
}

/// Formats any displayable value.
pub fn fmt<T: Display>(x: T) -> String {
    x.to_string()
}

/// The base experiment description for a harness run: the paper's
/// defaults with the run's seed. Binaries refine it with `.cutoff(..)`,
/// `.central_overhead(..)` etc. before fanning out cells.
pub fn base(opts: &HarnessOpts) -> ExperimentBuilder {
    Experiment::builder().seed(opts.seed)
}

/// Runs one scheduler on a trace at one cluster size.
pub fn run_cell(
    trace: &Arc<Trace>,
    scheduler: impl Scheduler + 'static,
    nodes: usize,
    base: &ExperimentBuilder,
) -> MetricsReport {
    base.clone()
        .trace(trace)
        .scheduler(scheduler)
        .nodes(nodes)
        .run()
}

/// Runs `subject` and `baseline` across a cluster-size sweep — every cell
/// in parallel — and returns `(nodes, subject report, baseline report)`
/// rows in sweep order. The boilerplate loop of most paper figures.
///
/// # Panics
///
/// Panics if the two schedulers share a name (the rows could not be
/// paired).
pub fn sweep_pair(
    trace: &Arc<Trace>,
    subject: impl Scheduler + 'static,
    baseline: impl Scheduler + 'static,
    nodes: &[usize],
    base: &ExperimentBuilder,
) -> Vec<(usize, MetricsReport, MetricsReport)> {
    let subject_name = subject.name();
    let baseline_name = baseline.name();
    assert_ne!(
        subject_name, baseline_name,
        "schedulers must be nameable apart"
    );
    let results = base
        .clone()
        .trace(trace)
        .sweep()
        .scheduler(subject)
        .scheduler(baseline)
        .nodes(nodes.iter().copied())
        .run_all();
    // Grid order is schedulers × nodes: the first half of the cells is the
    // subject's node sweep, the second half the baseline's. Move the
    // reports out instead of cloning them (at --full-trace scale a report
    // holds one JobResult per job), with name/nodes asserts guarding the
    // pairing against any future grid-order change.
    let mut subject_cells = results.cells;
    assert_eq!(subject_cells.len(), 2 * nodes.len());
    let baseline_cells = subject_cells.split_off(nodes.len());
    nodes
        .iter()
        .zip(subject_cells)
        .zip(baseline_cells)
        .map(|((&n, s), b)| {
            assert!(
                s.scheduler == subject_name && s.nodes == n,
                "subject cell order"
            );
            assert!(
                b.scheduler == baseline_name && b.nodes == n,
                "baseline cell order"
            );
            (n, s.report, b.report)
        })
        .collect()
}

/// Runs a list of fully built cells in parallel, preserving order.
pub fn run_cells(cells: Vec<Experiment>) -> SweepResults {
    let mut sweep = Experiment::builder().sweep();
    for cell in cells {
        sweep = sweep.cell(cell);
    }
    sweep.run_all()
}

/// The four normalized ratios most figures report: (p50 long, p90 long,
/// p50 short, p90 short) of `subject` over `baseline`.
pub fn ratio_quad(
    subject: &MetricsReport,
    baseline: &MetricsReport,
) -> (Option<f64>, Option<f64>, Option<f64>, Option<f64>) {
    let long = compare(subject, baseline, JobClass::Long);
    let short = compare(subject, baseline, JobClass::Short);
    (
        long.p50_ratio,
        long.p90_ratio,
        short.p50_ratio,
        short.p90_ratio,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt4_formats() {
        assert_eq!(fmt4(1.23456), "1.2346");
        assert_eq!(fmt4(None), "-");
        assert_eq!(fmt4(Some(0.5)), "0.5000");
    }

    #[test]
    fn job_count_per_mode() {
        let mut opts = HarnessOpts::default();
        assert_eq!(opts.job_count(30_000, 506_460), 30_000);
        opts.mode = RunMode::FullTrace;
        assert_eq!(opts.job_count(30_000, 506_460), 506_460);
        opts.mode = RunMode::Quick;
        assert_eq!(opts.job_count(30_000, 506_460), 5_000);
        opts.jobs = Some(42);
        assert_eq!(opts.job_count(30_000, 506_460), 42);
    }

    #[test]
    fn cluster_scale_per_mode() {
        let mut opts = HarnessOpts::default();
        assert_eq!(opts.cluster_scale(), 1);
        opts.mode = RunMode::Quick;
        assert_eq!(opts.cluster_scale(), 10);
    }
}
