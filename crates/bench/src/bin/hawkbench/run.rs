//! The untraced run: set-up, warm-up, timed repeats, the correctness gate
//! and the end-to-end metrics. Tracing never runs here, so these numbers
//! are what a user of the system sees.

use std::time::Instant;

use hawk_workload::Trace;

use crate::alloc::Window;
use crate::metrics::{Measured, Note, END_TO_END};
use crate::reference::Reference;
use crate::stats::{median, quartiles};
use crate::workloads::{check_repeat, CellFacts, Prepared, Workload};

/// How much one invocation measures.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    pub jobs: usize,
    /// Set-ups timed for `setup_s` (their median is reported): at least
    /// `setups`, then more until `setup_seconds` have gone or `max_setups`
    /// ran. A set-up takes 10–70 ms, so the floor alone would rest the
    /// median on a tenth of a second of work.
    pub setups: usize,
    pub max_setups: usize,
    pub setup_seconds: f64,
    /// Timed repeats stop once another would run past this budget…
    pub seconds: f64,
    /// …but never before this many, nor beyond `max_repeats`.
    pub min_repeats: usize,
    pub max_repeats: usize,
    /// Builds the calibration kernel for a workload's thread count.
    pub reference: fn(usize) -> Reference,
}

impl Effort {
    /// The comparable effort: one warm-up, then timed repeats of the
    /// 2–3 s cell until the next would run past `seconds`.
    pub fn full(workload: &Workload, seconds: f64) -> Effort {
        Effort {
            jobs: workload.jobs,
            setups: 9,
            max_setups: 150,
            setup_seconds: 1.5,
            seconds,
            min_repeats: 3,
            max_repeats: 15,
            reference: Reference::new,
        }
    }

    /// `--quick`: a smoke-sized cell, three repeats. Not comparable.
    pub fn quick(workload: &Workload) -> Effort {
        Effort {
            jobs: workload.quick_jobs,
            setups: 3,
            max_setups: 3,
            setup_seconds: 0.0,
            seconds: 0.0,
            min_repeats: 3,
            max_repeats: 3,
            reference: Reference::quick,
        }
    }
}

/// Everything one run of one workload produced.
pub struct Outcome {
    pub metrics: Vec<Measured>,
    /// Jobs × timed repeats.
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    /// Digest of the first timed repeat's report (information only).
    pub digest: u64,
    /// Calibrated wall seconds of each timed repeat, in run order (empty
    /// on a traced run, which does not calibrate).
    pub walls: Vec<f64>,
    /// Raw wall seconds of each timed repeat.
    pub raw_walls: Vec<f64>,
    /// Informational values printed next to the metrics but not part of
    /// the contract.
    pub notes: Vec<Note>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// One timed repeat.
pub struct Repeat {
    pub wall_s: f64,
    pub peak_bytes: usize,
    pub facts: CellFacts,
}

/// Runs and checks one cell call inside an allocator window.
pub fn timed_repeat(prepared: &Prepared) -> Repeat {
    let window = Window::open();
    let start = Instant::now();
    let (report, proto) = prepared.run();
    let wall_s = start.elapsed().as_secs_f64();
    let peak_bytes = window.peak_bytes();
    let facts = check_repeat(&report, prepared.trace(), proto.is_some());
    Repeat {
        wall_s,
        peak_bytes,
        facts,
    }
}

/// Folds the per-repeat checks into the attempted / failed counts: a
/// repeat whose invariants tripped, or whose digest differs from the first
/// repeat's, fails every one of its jobs.
pub struct Gate {
    jobs: u64,
    reference: Option<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
}

impl Gate {
    pub fn new(trace: &Trace) -> Gate {
        Gate {
            jobs: trace.len() as u64,
            reference: None,
            attempted: 0,
            failed: 0,
            violations: Vec::new(),
        }
    }

    pub fn admit(&mut self, index: usize, facts: &CellFacts) {
        self.attempted += self.jobs;
        let reference = *self.reference.get_or_insert(facts.digest);
        let mut whole_repeat_failed = !facts.violations.is_empty();
        for v in &facts.violations {
            self.violations.push(format!("repeat {index}: {v}"));
        }
        if facts.digest != reference {
            whole_repeat_failed = true;
            self.violations.push(format!(
                "repeat {index}: report digest {:016x} differs from repeat 0's {reference:016x}",
                facts.digest
            ));
        }
        self.failed += if whole_repeat_failed {
            self.jobs
        } else {
            facts.failed_jobs
        };
    }

    /// Admits a run of the same trace under a configuration whose digest
    /// legitimately differs (another shard count, a clean network): held to
    /// every invariant, but not to the reference digest.
    pub fn admit_other(&mut self, what: &str, facts: &CellFacts) {
        self.attempted += self.jobs;
        for v in &facts.violations {
            self.violations.push(format!("{what}: {v}"));
        }
        self.failed += if facts.violations.is_empty() {
            facts.failed_jobs
        } else {
            self.jobs
        };
    }
}

/// Times full set-ups as `effort` asks and keeps the last prepared cell.
pub fn timed_setups(workload: &Workload, effort: &Effort, seed: u64) -> (Prepared, Vec<f64>) {
    let mut times = Vec::with_capacity(effort.max_setups);
    let mut prepared = None;
    let budget_start = Instant::now();
    while times.len() < effort.max_setups.max(1) {
        if times.len() >= effort.setups
            && budget_start.elapsed().as_secs_f64() >= effort.setup_seconds
        {
            break;
        }
        // Drop the previous cell first: its trace is not part of this
        // set-up, and two live traces would double the resident set.
        drop(prepared.take());
        let start = Instant::now();
        let cell = workload.prepare(effort.jobs, seed);
        times.push(start.elapsed().as_secs_f64());
        prepared = Some(cell);
    }
    (prepared.expect("at least one set-up ran"), times)
}

pub fn run_untraced(workload: &Workload, effort: &Effort, seed: u64) -> Outcome {
    // Every timed stretch below is bracketed by two runs of the calibration
    // kernel (see `reference.rs`). The first run pages its table in.
    let mut reference = (effort.reference)(workload.threads);
    reference.run(workload.threads);

    // Set-up is single-threaded on every workload.
    let setup_before = reference.run(1);
    let (prepared, setup_times) = timed_setups(workload, effort, seed);
    let setup_after = reference.run(1);
    let setup_raw_s = median(&setup_times);
    let setup_s = reference.calibrate(setup_raw_s, setup_before, setup_after);

    // Warm-up: page in the allocator arenas and the code. Checked like any
    // repeat would be, but neither timed nor counted.
    drop(prepared.run());

    let mut gate = Gate::new(prepared.trace());
    let mut raw_walls = Vec::new();
    let mut walls = Vec::new();
    let mut kernels = Vec::new();
    let mut peaks = Vec::new();
    let mut first: Option<CellFacts> = None;
    let budget_start = Instant::now();
    let mut before = reference.run(workload.threads);
    while walls.len() < effort.max_repeats {
        // The next repeat costs about a median cell and one kernel run.
        if walls.len() >= effort.min_repeats
            && budget_start.elapsed().as_secs_f64() + median(&raw_walls) + before > effort.seconds
        {
            break;
        }
        let repeat = timed_repeat(&prepared);
        let after = reference.run(workload.threads);
        gate.admit(walls.len(), &repeat.facts);
        raw_walls.push(repeat.wall_s);
        walls.push(reference.calibrate(repeat.wall_s, before, after));
        kernels.push(before);
        peaks.push(repeat.peak_bytes as f64);
        first.get_or_insert(repeat.facts);
        before = after;
    }
    let facts = first.expect("min_repeats >= 1");

    let cell_wall_s = median(&walls);
    let value_of = |name: &str| match name {
        "cell_wall_s" => cell_wall_s,
        "sim_tasks_per_s" => facts.tasks as f64 / cell_wall_s,
        "setup_s" => setup_s,
        "peak_heap_mib" => median(&peaks) / (1024.0 * 1024.0),
        "sim_short_p50_s" => facts.short_p50,
        "sim_short_p90_s" => facts.short_p90,
        "sim_long_p90_s" => facts.long_p90,
        other => unreachable!("no measurement for end-to-end metric {other}"),
    };
    let metrics = END_TO_END
        .iter()
        .map(|m| Measured {
            name: m.name,
            unit: m.unit,
            value: value_of(m.name),
        })
        .collect();

    let (q1, q3) = quartiles(&walls);
    let min = walls.iter().copied().fold(f64::INFINITY, f64::min);
    let max = walls.iter().copied().fold(0.0, f64::max);
    let notes = vec![
        ("cell_wall_s.min", min, "s"),
        ("cell_wall_s.q1", q1, "s"),
        ("cell_wall_s.q3", q3, "s"),
        ("cell_wall_s.max", max, "s"),
        ("cell_wall_s.n", walls.len() as f64, "count"),
        ("cell_wall_raw_s", median(&raw_walls), "s"),
        ("setup_raw_s", setup_raw_s, "s"),
        ("reference_kernel_s", median(&kernels), "s"),
        ("tasks_completed", facts.tasks as f64, "count"),
    ];

    Outcome {
        metrics,
        attempted: gate.attempted,
        failed: gate.failed,
        violations: gate.violations,
        digest: facts.digest,
        walls,
        raw_walls,
        notes,
    }
}
