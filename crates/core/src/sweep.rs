//! The [`Sweep`] runner: a grid of experiment cells executed in parallel.
//!
//! The paper's evaluation is a large grid of `(trace, scheduler, cluster
//! size)` cells (§4); a sweep describes such a grid fluently from one base
//! [`ExperimentBuilder`] and runs every cell concurrently:
//!
//! ```
//! use hawk_core::Experiment;
//! use hawk_core::scheduler::{Hawk, Sparrow};
//! use hawk_workload::motivation::MotivationConfig;
//!
//! let trace = MotivationConfig { jobs: 20, short_tasks: 3, long_tasks: 8, ..Default::default() }
//!     .generate(1);
//! let results = Experiment::builder()
//!     .trace(trace)
//!     .sweep()
//!     .scheduler(Hawk::new(0.17))
//!     .scheduler(Sparrow::new())
//!     .nodes([32, 64])
//!     .run_all();
//! assert_eq!(results.cells.len(), 4);
//! assert!(results.get("hawk", 64).is_some());
//! ```
//!
//! Cells are independent, seeded simulations, so parallel execution is
//! bit-identical to sequential execution ([`Sweep::run_all_sequential`]
//! exists to assert exactly that). Parallelism uses a scoped-thread work
//! queue from the standard library — the container this repository builds
//! in has no crates.io access, so rayon is not available; the cell loop is
//! shaped so `rayon::scope` could replace it directly if it ever is.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use hawk_workload::classify::{Cutoff, MisestimateRange};
use hawk_workload::Trace;

use crate::experiment::{Experiment, ExperimentBuilder, IntoTrace};
use crate::metrics::MetricsReport;
use crate::scheduler::Scheduler;

/// The number of cells a [`Sweep`] runs at once unless told otherwise.
///
/// Defaults to [`std::thread::available_parallelism`]; the
/// `HAWK_WORKER_BUDGET` environment variable overrides it explicitly
/// (`0` clamps to 1). The override exists both to pin CI runners to a
/// known width and to stop oversubscription when several simulations
/// share a machine.
///
/// # Panics
///
/// Panics when `HAWK_WORKER_BUDGET` is set to something that is not a
/// non-negative integer: a run that mistypes its width must not quietly
/// measure the machine's instead.
pub fn worker_budget() -> usize {
    match std::env::var_os("HAWK_WORKER_BUDGET") {
        Some(raw) => parse_budget(&raw.to_string_lossy()),
        None => std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

fn parse_budget(raw: &str) -> usize {
    match raw.trim().parse::<usize>() {
        Ok(n) => n.max(1),
        Err(_) => panic!("HAWK_WORKER_BUDGET must be a non-negative integer, got {raw:?}"),
    }
}

/// A grid of experiment cells: one base configuration multiplied by axes
/// of schedulers, traces, cluster sizes, seeds, cutoffs and misestimation
/// ranges. Empty axes fall back to the base builder's value.
#[derive(Clone)]
pub struct Sweep {
    base: ExperimentBuilder,
    schedulers: Vec<Arc<dyn Scheduler>>,
    traces: Vec<Arc<Trace>>,
    nodes: Vec<usize>,
    seeds: Vec<u64>,
    cutoffs: Vec<Cutoff>,
    misestimates: Vec<Option<MisestimateRange>>,
    extra_cells: Vec<Experiment>,
    threads: Option<usize>,
}

impl Sweep {
    /// Starts a sweep from a base cell description (also reachable as
    /// [`ExperimentBuilder::sweep`]).
    pub fn over(base: ExperimentBuilder) -> Self {
        Sweep {
            base,
            schedulers: Vec::new(),
            traces: Vec::new(),
            nodes: Vec::new(),
            seeds: Vec::new(),
            cutoffs: Vec::new(),
            misestimates: Vec::new(),
            extra_cells: Vec::new(),
            threads: None,
        }
    }

    /// Adds a scheduler to the scheduler axis.
    pub fn scheduler(mut self, scheduler: impl Scheduler + 'static) -> Self {
        self.schedulers.push(Arc::new(scheduler));
        self
    }

    /// Adds an already-shared scheduler to the scheduler axis.
    pub fn scheduler_shared(mut self, scheduler: Arc<dyn Scheduler>) -> Self {
        self.schedulers.push(scheduler);
        self
    }

    /// Adds a trace to the trace axis.
    pub fn trace(mut self, trace: impl IntoTrace) -> Self {
        self.traces.push(trace.into_trace());
        self
    }

    /// Extends the cluster-size axis.
    pub fn nodes(mut self, nodes: impl IntoIterator<Item = usize>) -> Self {
        self.nodes.extend(nodes);
        self
    }

    /// Extends the seed axis.
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds.extend(seeds);
        self
    }

    /// Extends the cutoff axis (§3.3 sensitivity, Figures 12–13).
    pub fn cutoffs(mut self, cutoffs: impl IntoIterator<Item = Cutoff>) -> Self {
        self.cutoffs.extend(cutoffs);
        self
    }

    /// Extends the misestimation axis (§4.8 sensitivity, Figure 14).
    pub fn misestimates(mut self, ranges: impl IntoIterator<Item = MisestimateRange>) -> Self {
        self.misestimates.extend(ranges.into_iter().map(Some));
        self
    }

    /// Appends one fully built cell outside the grid product (the escape
    /// hatch for axes the fluent surface does not enumerate).
    pub fn cell(mut self, cell: Experiment) -> Self {
        self.extra_cells.push(cell);
        self
    }

    /// Caps concurrent *cells* (default:
    /// [`worker_budget()`](crate::worker_budget)).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Materializes the grid: the cross product of all non-empty axes over
    /// the base configuration (axes left empty use the base's value),
    /// followed by any explicitly appended cells. Order is deterministic:
    /// traces × schedulers × nodes × cutoffs × misestimates × seeds.
    ///
    /// # Panics
    ///
    /// Panics if the sweep has no cells: neither an axis value nor a base
    /// value for the trace or the scheduler, and no explicit cells.
    pub fn grid(&self) -> Vec<Experiment> {
        let traces: Vec<Arc<Trace>> = if self.traces.is_empty() {
            self.base.trace_ref().map(Arc::clone).into_iter().collect()
        } else {
            self.traces.clone()
        };
        let schedulers: Vec<Arc<dyn Scheduler>> = if self.schedulers.is_empty() {
            self.base
                .scheduler_ref()
                .map(Arc::clone)
                .into_iter()
                .collect()
        } else {
            self.schedulers.clone()
        };
        assert!(
            (!traces.is_empty() && !schedulers.is_empty()) || !self.extra_cells.is_empty(),
            "Sweep has no cells: set .trace(..) and .scheduler(..) (on the \
             sweep or its base) or append explicit cells with .cell(..)"
        );
        let base_sim = self.base.sim();
        let nodes = or_default(&self.nodes, base_sim.nodes);
        let seeds = or_default(&self.seeds, base_sim.seed);
        let cutoffs = or_default(&self.cutoffs, base_sim.cutoff);
        let misestimates = or_default(&self.misestimates, base_sim.misestimate);

        let mut cells = Vec::new();
        for trace in &traces {
            for scheduler in &schedulers {
                for &nodes in &nodes {
                    for &cutoff in &cutoffs {
                        for &misestimate in &misestimates {
                            for &seed in &seeds {
                                cells.push(
                                    self.base
                                        .clone()
                                        .trace(trace)
                                        .scheduler_shared(Arc::clone(scheduler))
                                        .nodes(nodes)
                                        .cutoff(cutoff)
                                        .misestimate_opt(misestimate)
                                        .seed(seed)
                                        .build(),
                                );
                            }
                        }
                    }
                }
            }
        }
        cells.extend(self.extra_cells.iter().cloned());
        cells
    }

    /// Runs every cell of the grid in parallel and returns the typed
    /// result grid. Cell results are bit-identical to a sequential run:
    /// each cell is an independent, seeded simulation.
    ///
    /// Every cell — sharded or not — runs on one thread, so
    /// `min(worker_budget(), cells)` cells run at once. An explicit
    /// [`Sweep::threads`] overrides that count; `HAWK_WORKER_BUDGET`
    /// overrides the budget.
    pub fn run_all(&self) -> SweepResults {
        let cells = self.grid();
        let threads = self
            .threads
            .unwrap_or_else(worker_budget)
            .min(cells.len())
            .max(1);
        SweepResults {
            cells: run_cells(&cells, threads),
        }
    }

    /// Runs every cell of the grid on the calling thread, in grid order.
    pub fn run_all_sequential(&self) -> SweepResults {
        SweepResults {
            cells: self.grid().iter().map(CellResult::run).collect(),
        }
    }
}

fn or_default<T: Clone>(axis: &[T], base: T) -> Vec<T> {
    if axis.is_empty() {
        vec![base]
    } else {
        axis.to_vec()
    }
}

/// Executes `cells` on `threads` scoped workers pulling from a shared
/// index. Results land at their cell's index, so output order equals grid
/// order regardless of scheduling.
fn run_cells(cells: &[Experiment], threads: usize) -> Vec<CellResult> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<CellResult>>> = cells.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = cells.get(i) else { break };
                let result = CellResult::run(cell);
                *slots[i].lock().expect("result slot") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot")
                .expect("every cell ran")
        })
        .collect()
}

/// The outcome of one sweep cell, tagged with the cell's coordinates.
#[derive(Clone)]
pub struct CellResult {
    /// Scheduler name (from [`Scheduler::name`]).
    pub scheduler: String,
    /// Cluster size of the cell.
    pub nodes: usize,
    /// Seed of the cell.
    pub seed: u64,
    /// Cutoff of the cell.
    pub cutoff: Cutoff,
    /// Misestimation range of the cell, if any.
    pub misestimate: Option<MisestimateRange>,
    /// The cell's full metrics.
    pub report: MetricsReport,
}

impl CellResult {
    fn run(cell: &Experiment) -> CellResult {
        let sim = cell.sim();
        CellResult {
            scheduler: cell.scheduler().name(),
            nodes: sim.nodes,
            seed: sim.seed,
            cutoff: sim.cutoff,
            misestimate: sim.misestimate,
            report: cell.run(),
        }
    }
}

/// The typed result grid of [`Sweep::run_all`], in grid order.
#[derive(Clone)]
pub struct SweepResults {
    /// One result per cell.
    pub cells: Vec<CellResult>,
}

impl SweepResults {
    /// The report of the first cell matching `(scheduler name, nodes)` —
    /// the lookup most figure loops need.
    ///
    /// Scheduler names describe policy structure, so parameter variants
    /// (e.g. several `Hawk` steal caps) can share a name; this returns
    /// the first in grid order. Disambiguate such sweeps with
    /// [`SweepResults::find`] or by grid-order indexing into
    /// [`SweepResults::cells`].
    pub fn get(&self, scheduler: &str, nodes: usize) -> Option<&MetricsReport> {
        self.cells
            .iter()
            .find(|c| c.scheduler == scheduler && c.nodes == nodes)
            .map(|c| &c.report)
    }

    /// The first cell matching an arbitrary predicate.
    pub fn find(&self, mut pred: impl FnMut(&CellResult) -> bool) -> Option<&CellResult> {
        self.cells.iter().find(|c| pred(c))
    }

    /// Iterates the cells in grid order.
    pub fn iter(&self) -> impl Iterator<Item = &CellResult> {
        self.cells.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{Hawk, Sparrow};
    use hawk_workload::motivation::MotivationConfig;

    fn small_trace() -> Trace {
        MotivationConfig {
            jobs: 24,
            short_tasks: 3,
            long_tasks: 10,
            ..Default::default()
        }
        .generate(2)
    }

    fn base() -> ExperimentBuilder {
        Experiment::builder().trace(small_trace())
    }

    #[test]
    fn grid_is_the_cross_product() {
        let sweep = base()
            .sweep()
            .scheduler(Hawk::new(0.2))
            .scheduler(Sparrow::new())
            .nodes([16, 32, 64])
            .seeds([1, 2]);
        assert_eq!(sweep.grid().len(), 2 * 3 * 2);
    }

    #[test]
    fn empty_axes_fall_back_to_base() {
        let sweep = base().scheduler(Sparrow::new()).nodes(48).sweep();
        let grid = sweep.grid();
        assert_eq!(grid.len(), 1);
        assert_eq!(grid[0].sim().nodes, 48);
    }

    #[test]
    fn parallel_matches_sequential_bit_for_bit() {
        let sweep = base()
            .sweep()
            .scheduler(Hawk::new(0.2))
            .scheduler(Sparrow::new())
            .nodes([16, 64])
            .threads(4);
        let par = sweep.run_all();
        let seq = sweep.run_all_sequential();
        assert_eq!(par.cells.len(), seq.cells.len());
        for (p, s) in par.cells.iter().zip(&seq.cells) {
            assert_eq!(p.scheduler, s.scheduler);
            assert_eq!(p.nodes, s.nodes);
            assert_eq!(p.report.results, s.report.results);
            assert_eq!(p.report.events, s.report.events);
            assert_eq!(p.report.steals, s.report.steals);
            assert_eq!(p.report.utilization_samples, s.report.utilization_samples);
        }
    }

    #[test]
    fn lookup_by_scheduler_and_nodes() {
        let results = base()
            .sweep()
            .scheduler(Hawk::new(0.2))
            .scheduler(Sparrow::new())
            .nodes([16, 32])
            .run_all();
        let hawk16 = results.get("hawk", 16).expect("cell exists");
        assert_eq!(hawk16.nodes, 16);
        assert_eq!(hawk16.scheduler, "hawk");
        assert!(results.get("hawk", 99).is_none());
        assert!(results
            .find(|c| c.scheduler == "sparrow" && c.nodes == 32)
            .is_some());
    }

    #[test]
    fn extra_cells_ride_along() {
        let extra = base().scheduler(Hawk::new(0.3)).nodes(20).build();
        let results = base()
            .sweep()
            .scheduler(Sparrow::new())
            .nodes([16])
            .cell(extra)
            .run_all();
        assert_eq!(results.cells.len(), 2);
        assert_eq!(results.cells[1].nodes, 20);
    }

    #[test]
    fn cells_only_sweep_runs() {
        let cell = base().scheduler(Hawk::new(0.2)).nodes(16).build();
        let results = Experiment::builder().sweep().cell(cell).run_all();
        assert_eq!(results.cells.len(), 1);
        assert_eq!(results.cells[0].nodes, 16);
    }

    #[test]
    fn sharded_cells_match_across_cell_parallelism() {
        // Sharded cells run side by side like any other cell; that must
        // not change any cell's results.
        let sweep = base()
            .shards(2)
            .sweep()
            .scheduler(Hawk::new(0.2))
            .scheduler(Sparrow::new())
            .nodes([16, 32]);
        let par = sweep.run_all();
        let seq = sweep.run_all_sequential();
        assert_eq!(par.cells.len(), seq.cells.len());
        for (p, s) in par.cells.iter().zip(&seq.cells) {
            assert_eq!(p.report.results, s.report.results);
            assert_eq!(p.report.events, s.report.events);
            assert_eq!(p.report.steals, s.report.steals);
        }
    }

    #[test]
    fn worker_budget_env_override_wins() {
        // The only test that sets the variable; the sweeps of the other
        // tests may read it meanwhile and run the same at any width.
        std::env::set_var("HAWK_WORKER_BUDGET", "3");
        assert_eq!(worker_budget(), 3);
        std::env::set_var("HAWK_WORKER_BUDGET", "0");
        assert_eq!(worker_budget(), 1, "zero clamps to one worker");
        std::env::remove_var("HAWK_WORKER_BUDGET");
        assert!(worker_budget() >= 1);
    }

    /// A set-but-unparsable budget is refused, quoting the value, instead
    /// of silently falling back to the machine width. (Through
    /// `parse_budget`, not the environment: a bad value there would
    /// panic whichever other test's sweep read it.)
    #[test]
    fn unparsable_worker_budget_panics_with_the_value() {
        assert_eq!(parse_budget(" 2\n"), 2, "surrounding whitespace is trimmed");
        for bad in ["four", "-1", ""] {
            let payload = std::panic::catch_unwind(|| parse_budget(bad))
                .expect_err("an unparsable budget must panic");
            let message = payload.downcast_ref::<String>().expect("formatted panic");
            assert!(message.contains(&format!("{bad:?}")), "{message}");
        }
    }

    #[test]
    fn seed_axis_varies_results() {
        let results = base()
            .sweep()
            .scheduler(Sparrow::new())
            .nodes([32])
            .seeds([1, 2])
            .run_all();
        assert_eq!(results.cells.len(), 2);
        assert_ne!(
            results.cells[0].report.results,
            results.cells[1].report.results
        );
    }
}
