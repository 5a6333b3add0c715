//! The paper's evaluation as one table of studies, plus the harness
//! utilities they share.
//!
//! Every entry of [`ROWS`] regenerates one table or figure of the Hawk
//! paper (or the §4.8 topology study or the probe-avoidance extension) as a
//! [`Table`]; the `repro` binary prints it as TSV on stdout (commentary
//! goes to stderr) — `repro fig05 --quick`, or `repro all` for every row
//! into `results/<row>.tsv`. All rows share one CLI convention:
//!
//! * default — the paper's cluster sizes with a truncated job count
//!   (tens of thousands of jobs; seconds to a few minutes per figure);
//! * `--quick` — clusters and task counts scaled down 10× for smoke runs;
//! * `--full-trace` (alias `--paper-scale`) — the full published job count
//!   (506,460 jobs for the Google trace; minutes to tens of minutes);
//! * `--jobs N` / `--seed S` — explicit overrides;
//! * per-row extras a [`Row`] declares (`--smoke`).
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

pub mod rows;

pub use rows::ROWS;

use std::fmt::{self, Display};
use std::sync::Arc;

use hawk_core::scheduler::Hawk;
use hawk_core::{compare, Experiment, ExperimentBuilder, MetricsReport, Scheduler};
use hawk_workload::google::{GoogleTraceConfig, GOOGLE_SHORT_PARTITION};
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

/// One study of the evaluation: a paper table or figure, the §4.8
/// topology study, or the probe-avoidance extension.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// What `repro <name>` selects and `results/<name>.tsv` is called.
    pub name: &'static str,
    /// One line for the usage text.
    pub about: &'static str,
    /// Boolean flags beyond the shared convention, as `(flag, help)`.
    pub extra: &'static [(&'static str, &'static str)],
    /// Runs live threads on the wall clock: slow and not reproducible
    /// byte for byte.
    pub wall_clock: bool,
    /// The study: shared options and the extra flags present, to its table.
    pub run: fn(&HarnessOpts, &[String]) -> Table,
}

impl Row {
    /// A deterministic row without extra flags.
    pub const fn new(
        name: &'static str,
        about: &'static str,
        run: fn(&HarnessOpts, &[String]) -> Table,
    ) -> Row {
        Row {
            name,
            about,
            extra: &[],
            wall_clock: false,
            run,
        }
    }
}

/// What a [`Row`] produces; its `Display` is the TSV `repro` prints.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Table {
    /// The header line (empty in an empty table).
    pub columns: Vec<&'static str>,
    /// Preformatted cells, one `Vec` per line.
    pub rows: Vec<Vec<String>>,
}

/// One line of a [`Table`]: `(column, preformatted value)` in print order.
pub type Cells = Vec<(&'static str, String)>;

impl Table {
    /// Appends one line. The first line's columns become the header.
    ///
    /// # Panics
    ///
    /// Panics if a later line names different columns: a study prints one
    /// rectangular series.
    pub fn push(&mut self, cells: impl Into<Cells>) {
        let (columns, values): (Vec<_>, Vec<_>) = cells.into().into_iter().unzip();
        if self.rows.is_empty() {
            self.columns = columns;
        } else {
            assert_eq!(self.columns, columns, "a line off the header's columns");
        }
        self.rows.push(values);
    }
}

impl Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.columns.is_empty() {
            writeln!(f, "{}", self.columns.join("\t"))?;
        }
        self.rows
            .iter()
            .try_for_each(|row| writeln!(f, "{}", row.join("\t")))
    }
}

/// Parses a row's arguments (everything after `repro <row>`) under the
/// shared convention plus the row's `extra` boolean flags; returns the
/// options and the extras present. `None` is a usage error: `--help`, an
/// undeclared flag, or a missing or non-numeric `--jobs` / `--seed` value.
pub fn parse_args_with(
    args: &[String],
    extra: &[(&str, &str)],
) -> Option<(HarnessOpts, Vec<String>)> {
    let mut opts = HarnessOpts::default();
    let mut flags = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.mode = RunMode::Quick,
            "--full-trace" | "--paper-scale" => opts.mode = RunMode::FullTrace,
            "--jobs" => opts.jobs = Some(args.next()?.parse().ok()?),
            "--seed" => opts.seed = args.next()?.parse().ok()?,
            other if extra.iter().any(|(flag, _)| *flag == other) => flags.push(other.to_string()),
            _ => return None,
        }
    }
    Some((opts, flags))
}

/// Whether the extra flag `name` was on the command line.
pub fn has_flag(flags: &[String], name: &str) -> bool {
    flags.iter().any(|f| f == name)
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

/// Hawk as the paper configures it for the Google trace: the 17 % short
/// partition its task-seconds rule gives (§3.4).
pub fn google_hawk() -> Hawk {
    Hawk::new(GOOGLE_SHORT_PARTITION)
}

/// The cell the sensitivity studies fix — [`base`] with the Google trace
/// at 15,000 nodes (the paper's size; scaled in quick mode) — plus that
/// node count.
pub fn google_cell(opts: &HarnessOpts) -> (ExperimentBuilder, usize) {
    let (trace, _) = google_setup(opts);
    let nodes = 15_000 / opts.cluster_scale() as usize;
    (base(opts).nodes(nodes).trace(trace), nodes)
}

/// Formats an optional float with 4 decimals for TSV output.
pub fn fmt4(x: impl Into<Option<f64>>) -> String {
    match x.into() {
        Some(v) => format!("{v:.4}"),
        None => "-".into(),
    }
}

/// A job class's runtime percentile in seconds as a cell (`-` if the class
/// is empty).
pub fn runtime4(report: &MetricsReport, class: JobClass, percentile: f64) -> String {
    fmt4(report.runtime_percentile(class, percentile))
}

/// Formats any displayable value.
pub fn fmt<T: Display>(x: T) -> String {
    x.to_string()
}

/// The base experiment description for a harness run: the paper's
/// defaults with the run's seed. Rows refine it with `.cutoff(..)`,
/// `.topology(..)` etc. before fanning out cells.
pub fn base(opts: &HarnessOpts) -> ExperimentBuilder {
    Experiment::builder().seed(opts.seed)
}

/// Runs `subject` and `baseline` across a cluster-size sweep — every cell
/// in parallel — and returns `(nodes, subject report, baseline report)`
/// rows in sweep order. The boilerplate loop of most paper figures.
pub fn sweep_pair(
    trace: &Arc<Trace>,
    subject: impl Scheduler + 'static,
    baseline: impl Scheduler + 'static,
    nodes: &[usize],
    base: &ExperimentBuilder,
) -> Vec<(usize, MetricsReport, MetricsReport)> {
    let pair: [Arc<dyn Scheduler>; 2] = [Arc::new(subject), Arc::new(baseline)];
    let cell = |n, s: &Arc<dyn Scheduler>| {
        let env = base.clone().trace(trace).nodes(n);
        env.scheduler_shared(Arc::clone(s)).build()
    };
    let cells = nodes
        .iter()
        .flat_map(|&n| [cell(n, &pair[0]), cell(n, &pair[1])])
        .collect();
    let pairs = run_pairs(cells, &pair[0].name(), &pair[1].name());
    nodes
        .iter()
        .zip(pairs)
        .map(|(&n, (s, b))| (n, s, b))
        .collect()
}

/// The skeleton of Figures 5 and 8–11: Hawk against `baseline` across the
/// Google cluster-size sweep, one line per size, rendered by
/// `cells(nodes, ratio_quad(hawk, baseline), hawk, baseline)`.
pub fn hawk_vs_baseline(
    opts: &HarnessOpts,
    name: &str,
    baseline: impl Scheduler + 'static,
    cells: impl Fn(usize, RatioQuad, &MetricsReport, &MetricsReport) -> Cells,
) -> Table {
    let (trace, sweep) = google_setup(opts);
    eprintln!("{name}: running {} cells in parallel...", 2 * sweep.len());
    let mut table = Table::default();
    for (nodes, hawk, other) in sweep_pair(&trace, google_hawk(), baseline, &sweep, &base(opts)) {
        table.push(cells(nodes, ratio_quad(&hawk, &other), &hawk, &other));
    }
    table
}

/// Runs fully built cells in parallel — for axes the fluent sweep does not
/// enumerate — and hands the reports back two by two, in order.
///
/// # Panics
///
/// Panics unless the cells alternate a `first`-named and a `second`-named
/// scheduler: the guard of the index pairing against a cell-order change.
pub fn run_pairs(
    cells: Vec<Experiment>,
    first: &str,
    second: &str,
) -> Vec<(MetricsReport, MetricsReport)> {
    let sweep = cells
        .into_iter()
        .fold(Experiment::builder().sweep(), |sweep, cell| {
            sweep.cell(cell)
        });
    let mut reports = sweep.run_all().cells.into_iter().map(|c| c.report);
    let mut pairs = Vec::new();
    while let Some(a) = reports.next() {
        let b = reports.next().expect("cells come in pairs");
        assert_eq!(a.scheduler, first);
        assert_eq!(b.scheduler, second);
        pairs.push((a, b));
    }
    pairs
}

/// `a / b` where both exist and the denominator is positive.
pub fn ratio(a: Option<f64>, b: Option<f64>) -> Option<f64> {
    match (a, b) {
        (Some(a), Some(b)) if b > 0.0 => Some(a / b),
        _ => None,
    }
}

/// (p50 long, p90 long, p50 short, p90 short) of a subject over a baseline.
pub type RatioQuad = (Option<f64>, Option<f64>, Option<f64>, Option<f64>);

/// The four normalized ratios most figures report: (p50 long, p90 long,
/// p50 short, p90 short) of `subject` over `baseline`.
pub fn ratio_quad(subject: &MetricsReport, baseline: &MetricsReport) -> RatioQuad {
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

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn row_names_are_unique_and_nonempty() {
        for (i, row) in ROWS.iter().enumerate() {
            assert!(!row.name.is_empty() && !row.about.is_empty());
            assert_ne!(row.name, "all", "`repro all` is taken");
            assert!(
                ROWS[..i].iter().all(|earlier| earlier.name != row.name),
                "{} is listed twice",
                row.name
            );
        }
    }

    /// The README's figure table cannot drift from `ROWS`: adding a row
    /// without documenting it (or renaming one) fails here.
    #[test]
    fn readme_names_every_row() {
        let readme = include_str!("../../../README.md");
        for row in ROWS {
            assert!(
                readme.contains(&format!("| `{}` |", row.name)),
                "README.md's figure table does not list `{}`",
                row.name
            );
        }
    }

    #[test]
    fn parser_reads_shared_flags_and_declared_extras() {
        let extra = [("--smoke", "help")];
        let (opts, flags) = parse_args_with(&argv("--quick --jobs 400 --seed 7 --smoke"), &extra)
            .expect("valid argv");
        assert_eq!(
            (opts.mode, opts.jobs, opts.seed),
            (RunMode::Quick, Some(400), 7)
        );
        assert_eq!(flags, ["--smoke"]);
        for alias in ["--full-trace", "--paper-scale"] {
            let (opts, _) = parse_args_with(&argv(alias), &[]).expect("valid argv");
            assert_eq!(opts.mode, RunMode::FullTrace);
        }
        let (opts, flags) = parse_args_with(&[], &extra).expect("no flags is valid");
        assert_eq!((opts.jobs, opts.seed), (None, hawk_core::DEFAULT_SEED));
        assert!(flags.is_empty());
    }

    /// One argv contract for every row: a missing or non-numeric `--jobs`
    /// / `--seed`, `--help` and an undeclared flag are usage errors.
    #[test]
    fn parser_rejects_bad_argv_on_every_row() {
        for row in ROWS {
            let parse = |line: &str| parse_args_with(&argv(line), row.extra);
            for bad in [
                "--jobs",
                "--jobs abc",
                "--quick --seed",
                "--seed -1",
                "--help",
                "-h",
                "--bogus",
                "stray",
            ] {
                assert!(parse(bad).is_none(), "{} accepted `{bad}`", row.name);
            }
            assert!(parse("--quick").is_some());
            assert!(parse("--jobs 5").is_some(), "{}", row.name);
            assert!(parse("--seed 5").is_some(), "{}", row.name);
            for (flag, _) in row.extra {
                assert!(parse(flag).is_some(), "{} rejected its {flag}", row.name);
            }
        }
        assert!(parse_args_with(&argv("--smoke"), &[]).is_none());
    }

    #[test]
    fn table_prints_tsv_and_an_empty_table_prints_nothing() {
        let mut table = Table::default();
        assert_eq!(table.to_string(), "");
        table.push([("a", fmt(1)), ("b", fmt4(0.5))]);
        table.push([("a", fmt(2)), ("b", fmt4(None))]);
        assert_eq!(table.to_string(), "a\tb\n1\t0.5000\n2\t-\n");
    }

    #[test]
    #[should_panic(expected = "off the header's columns")]
    fn table_rejects_a_line_off_the_header() {
        let mut table = Table::default();
        table.push([("a", fmt(1)), ("b", fmt(2))]);
        table.push([("a", fmt(1))]);
    }

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
