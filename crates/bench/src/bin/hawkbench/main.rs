//! `hawkbench`: the repository's benchmark — one command, five workloads,
//! wall-clock per cell with a per-layer attribution underneath.
//!
//! ```text
//! hawkbench [--seed S] [--workload NAME]... [--quick] [--seconds N] [--out FILE]
//! hawkbench --trace [0|1] ...       # the separate traced run (per-layer metrics)
//! hawkbench --compare BASE CHANGE   # A/B verdicts over two --out files
//! ```
//!
//! With no `--workload` every workload runs. Each run prints its metrics by
//! name with their units, then one JSON object on a line of its own:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Untraced runs report the end-to-end metrics, traced runs the per-layer
//! ones. The exit code is 0 only if every job of every repeat passed the
//! correctness gate. `--seed` is `SimConfig::seed`; each workload's job
//! trace is pinned (`workloads.rs`). The host times among the end-to-end
//! metrics are calibrated against a fixed kernel run around every timed
//! stretch (`reference.rs`); the raw wall-clock prints next to them.
//!
//! The binary calls the layer crates directly and does not use the
//! `hawk_bench` library, so nothing outside this directory changes what it
//! measures. Definitions, the layer/end-to-end interaction table, measured
//! noise and the A/B recipe are in `README.md` next to this file.

mod alloc;
mod compare;
mod json;
mod layers;
mod metrics;
mod reference;
mod run;
mod spans;
mod stats;
mod workloads;

use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use json::Json;
use metrics::{FAILED_SHARE, PER_LAYER};
use run::{Effort, Outcome};
use spans::Tracer;
use workloads::{Workload, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Default measurement budget of the timed repeats, seconds: five to seven
/// repeats of a 2–3 s cell. `BENCHMARK.json` passes the same value.
const DEFAULT_SECONDS: f64 = 16.0;

struct Opts {
    seed: u64,
    workloads: Vec<&'static Workload>,
    traced: bool,
    quick: bool,
    seconds: f64,
    out: Option<PathBuf>,
}

enum Invocation {
    Bench(Opts),
    Compare(String, String),
}

fn usage() -> ! {
    eprintln!(
        "usage: hawkbench [--seed S] [--workload NAME]... [--trace [0|1]] [--quick] \
         [--seconds N] [--out FILE]\n       hawkbench --compare BASE.json CHANGE.json\n\
         workloads: {}",
        WORKLOADS.map(|w| w.name).join(", ")
    );
    std::process::exit(2);
}

fn parse_args(args: impl Iterator<Item = String>) -> Invocation {
    let mut opts = Opts {
        seed: hawk_core::DEFAULT_SEED,
        workloads: Vec::new(),
        traced: false,
        quick: false,
        seconds: DEFAULT_SECONDS,
        out: None,
    };
    let mut args = args.peekable();
    let value = |arg: Option<String>| arg.unwrap_or_else(|| usage());
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => opts.seed = value(args.next()).parse().unwrap_or_else(|_| usage()),
            "--workload" => {
                let name = value(args.next());
                opts.workloads
                    .push(workloads::by_name(&name).unwrap_or_else(|| usage()));
            }
            // `--trace` alone asks for the traced run; the driver's form
            // carries an explicit 0 or 1.
            "--trace" => {
                opts.traced = match args.next_if(|next| next == "0" || next == "1") {
                    Some(flag) => flag == "1",
                    None => true,
                }
            }
            "--quick" => opts.quick = true,
            "--seconds" => {
                opts.seconds = value(args.next()).parse().unwrap_or_else(|_| usage());
                if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
                    usage();
                }
            }
            "--out" => opts.out = Some(PathBuf::from(value(args.next()))),
            "--compare" => return Invocation::Compare(value(args.next()), value(args.next())),
            _ => usage(),
        }
    }
    if opts.workloads.is_empty() {
        opts.workloads = WORKLOADS.iter().collect();
    }
    Invocation::Bench(opts)
}

/// What the numbers were measured on. Recorded with every run: a wall
/// clock means nothing without the core count next to it.
struct Machine {
    nproc: usize,
    rustc: String,
    commit: String,
}

impl Machine {
    fn probe() -> Machine {
        let first_line = |program: &str, args: &[&str]| {
            Command::new(program)
                .args(args)
                .output()
                .ok()
                .filter(|out| out.status.success())
                .and_then(|out| String::from_utf8(out.stdout).ok())
                .and_then(|text| text.lines().next().map(str::to_string))
                .unwrap_or_else(|| "unknown".to_string())
        };
        Machine {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: first_line("rustc", &["--version"]),
            commit: first_line("git", &["rev-parse", "--short=12", "HEAD"]),
        }
    }
}

/// Where the span files go: Cargo's target directory, which the
/// repository ignores.
fn trace_dir() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
        .join("hawkbench")
}

impl Outcome {
    fn metrics_json(&self) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    let value =
                        Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]);
                    (m.name.to_string(), value)
                })
                .collect(),
        )
    }

    /// The result line: exactly these four keys.
    fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics_json()),
        ])
        .render()
    }

    /// The `--out` record `--compare` reads back.
    fn record(&self, workload: &Workload, opts: &Opts, machine: &Machine) -> String {
        let seconds = |walls: &[f64]| Json::Arr(walls.iter().map(|&w| Json::Num(w)).collect());
        let notes = self
            .notes
            .iter()
            .map(|&(name, value, _)| (name.to_string(), Json::Num(value)))
            .collect();
        Json::obj([
            ("workload", Json::str(workload.name)),
            ("seed", Json::Num(opts.seed as f64)),
            ("traced", Json::Bool(opts.traced)),
            ("comparable", Json::Bool(!opts.quick)),
            ("nproc", Json::Num(machine.nproc as f64)),
            ("threads", Json::Num(workload.threads as f64)),
            ("rustc", Json::str(&machine.rustc)),
            ("commit", Json::str(&machine.commit)),
            ("report_digest", Json::str(format!("{:016x}", self.digest))),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (FAILED_SHARE, Json::Num(self.failed_share())),
            ("cell_wall_s_repeats", seconds(&self.walls)),
            ("cell_wall_raw_s_repeats", seconds(&self.raw_walls)),
            ("metrics", self.metrics_json()),
            ("notes", Json::Obj(notes)),
        ])
        .render()
    }
}

/// Runs one workload as `opts` asks; a traced run also hands back its
/// spans.
fn run_one(workload: &Workload, opts: &Opts) -> (Outcome, Option<Tracer>) {
    let effort = if opts.quick {
        Effort::quick(workload)
    } else {
        Effort::full(workload, opts.seconds)
    };
    if !opts.traced {
        return (run::run_untraced(workload, &effort, opts.seed), None);
    }
    let mut tracer = Tracer::new(workload.name);
    let outcome = layers::run_traced(workload, &effort, opts.seed, &mut tracer);
    (outcome, Some(tracer))
}

/// Writes the spans of one traced run to `trace-<workload>.json`.
fn write_spans(workload: &Workload, tracer: &Tracer) {
    let dir = trace_dir();
    let path = dir.join(format!("trace-{}.json", workload.name));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, tracer.to_json().render() + "\n"));
    match written {
        Ok(()) => println!(
            "  {} spans written to {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("hawkbench: cannot write {}: {e}", path.display()),
    }
}

/// Counts print whole, measurements with six decimals.
fn number(value: f64) -> String {
    if value.fract() == 0.0 && value.abs() < 1e15 {
        format!("{value:.0}")
    } else {
        format!("{value:.6}")
    }
}

fn print_run(workload: &Workload, opts: &Opts, finished: &Outcome) {
    for m in &finished.metrics {
        let detail = if let Some(e) = metrics::end_to_end(m.name) {
            format!("{} is better, may worsen by {}", e.better.as_str(), e.bound)
        } else {
            let layer = PER_LAYER.iter().find(|l| l.name == m.name);
            layer.map_or(String::new(), |l| {
                format!("{} is better", l.better.as_str())
            })
        };
        println!(
            "  {:<32} {:>18} {:<10} ({detail})",
            m.name,
            number(m.value),
            m.unit
        );
    }
    println!(
        "  {:<32} {:>18} {:<10} (lower is better, absolute: {} of {} jobs x repeats failed)",
        FAILED_SHARE,
        number(finished.failed_share()),
        "fraction",
        finished.failed,
        finished.attempted
    );
    for (name, value, unit) in &finished.notes {
        println!(
            "  {name:<32} {:>18} {unit:<10} (information)",
            number(*value)
        );
    }
    println!(
        "  report_digest {:016x} seed {} comparable {}",
        finished.digest, opts.seed, !opts.quick
    );
    for violation in &finished.violations {
        println!("  VIOLATION {}: {violation}", workload.name);
    }
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Invocation::Compare(base, change) => return ExitCode::from(compare::run(&base, &change)),
        Invocation::Bench(opts) => opts,
    };
    let machine = Machine::probe();

    // Refuse, before measuring anything, a workload that needs more
    // threads than the machine has cores: an oversubscribed row would be
    // labelled with a parallelism it never had.
    for workload in &opts.workloads {
        if workload.threads > machine.nproc {
            eprintln!(
                "hawkbench: {} computes on {} threads but this machine has {} core(s); \
                 refusing to run it oversubscribed",
                workload.name, workload.threads, machine.nproc
            );
            return ExitCode::from(2);
        }
    }

    println!(
        "hawkbench: nproc {}, {}, commit {}, seed {}, {} run{}",
        machine.nproc,
        machine.rustc,
        machine.commit,
        opts.seed,
        if opts.traced { "traced" } else { "untraced" },
        if opts.quick {
            ", --quick (not comparable)"
        } else {
            ""
        },
    );
    let mut all_correct = true;
    for workload in &opts.workloads {
        println!(
            "== {} ({} nodes, {} thread{}) ==",
            workload.name,
            workload.nodes,
            workload.threads,
            if workload.threads == 1 { "" } else { "s" }
        );
        println!("  why: {}", workload.why);
        let (finished, tracer) = run_one(workload, &opts);
        print_run(workload, &opts, &finished);
        if let Some(tracer) = &tracer {
            write_spans(workload, tracer);
        }
        all_correct &= finished.correct();
        if let Some(path) = &opts.out {
            let appended = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut file| {
                    writeln!(file, "{}", finished.record(workload, &opts, &machine))
                });
            if let Err(e) = appended {
                eprintln!("hawkbench: cannot append to {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
        println!("{}", finished.result_line());
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::END_TO_END;

    fn args(list: &[&str]) -> Invocation {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn the_drivers_argument_form_parses() {
        let Invocation::Bench(opts) = args(&[
            "--workload",
            "proto_chaos_1k",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "0",
        ]) else {
            panic!("expected a bench invocation");
        };
        assert_eq!(opts.seed, 7);
        assert_eq!(opts.seconds, 20.0);
        assert!(!opts.traced);
        assert_eq!(opts.workloads.len(), 1);
        assert_eq!(opts.workloads[0].name, "proto_chaos_1k");
    }

    #[test]
    fn trace_takes_an_optional_flag_value() {
        let traced = |list: &[&str]| match args(list) {
            Invocation::Bench(opts) => (opts.traced, opts.quick, opts.workloads.len()),
            Invocation::Compare(..) => panic!("expected a bench invocation"),
        };
        assert_eq!(traced(&["--trace"]), (true, false, WORKLOADS.len()));
        assert_eq!(
            traced(&["--trace", "1", "--quick"]),
            (true, true, WORKLOADS.len())
        );
        assert_eq!(
            traced(&["--trace", "--quick"]),
            (true, true, WORKLOADS.len())
        );
        assert_eq!(traced(&["--trace", "0"]), (false, false, WORKLOADS.len()));
        assert!(matches!(
            args(&["--compare", "a.json", "b.json"]),
            Invocation::Compare(a, b) if a == "a.json" && b == "b.json"
        ));
    }

    #[test]
    fn metric_tables_are_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        for name in &names {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }

    /// `BENCHMARK.json` at the repository root carries the same names,
    /// units, directions, bounds and rationales as the tables here.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .map(|dir| dir.join("BENCHMARK.json"))
            .find(|path| path.is_file())
            .expect("BENCHMARK.json above this package");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let file = Json::parse(&text).expect("BENCHMARK.json is JSON");
        // Every entry of the array under `key`, its values in written order.
        let rows = |key: &str| match file.get(key) {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|item| {
                    let fields = item.as_obj().expect("an object");
                    let values = fields.iter().map(|(_, value)| match value {
                        Json::Str(s) => s.clone(),
                        other => other.render(),
                    });
                    values.collect::<Vec<_>>()
                })
                .collect::<Vec<_>>(),
            _ => panic!("BENCHMARK.json has no {key} array"),
        };
        let workloads: Vec<_> = WORKLOADS
            .iter()
            .map(|w| vec![w.name.to_string(), w.why.to_string()])
            .collect();
        assert_eq!(rows("workloads"), workloads);
        let end_to_end: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                let bound = Json::Num(m.bound).render();
                vec![
                    m.name.into(),
                    m.unit.into(),
                    m.better.as_str().into(),
                    bound,
                ]
            })
            .collect();
        assert_eq!(rows("end_to_end"), end_to_end);
        let per_layer: Vec<Vec<String>> = PER_LAYER
            .iter()
            .map(|m| vec![m.name.into(), m.unit.into(), m.better.as_str().into()])
            .collect();
        assert_eq!(rows("per_layer"), per_layer);
        let seconds = file.get("run_seconds").and_then(Json::as_f64);
        assert_eq!(seconds, Some(DEFAULT_SECONDS));
    }

    /// `--quick` end to end, untraced and traced, on every workload this
    /// machine can run: every metric of both tables comes out, finite, and
    /// the correctness gate passes.
    #[test]
    fn quick_runs_end_to_end() {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        for traced in [false, true] {
            let opts = Opts {
                seed: 11,
                workloads: WORKLOADS.iter().filter(|w| w.threads <= nproc).collect(),
                traced,
                quick: true,
                seconds: 0.0,
                out: None,
            };
            for workload in &opts.workloads {
                let (finished, tracer) = run_one(workload, &opts);
                assert_eq!(tracer.is_some(), traced);
                assert!(
                    finished.correct(),
                    "{}: {:?}",
                    workload.name,
                    finished.violations
                );
                assert!(finished.attempted >= workload.quick_jobs as u64);
                let expected = if traced {
                    PER_LAYER.len()
                } else {
                    END_TO_END.len()
                };
                assert_eq!(finished.metrics.len(), expected);
                for m in &finished.metrics {
                    assert!(
                        m.value.is_finite(),
                        "{} {} = {}",
                        workload.name,
                        m.name,
                        m.value
                    );
                    if !traced {
                        assert!(m.value > 0.0, "{} {} = {}", workload.name, m.name, m.value);
                    }
                }
                let line = Json::parse(&finished.result_line()).expect("the result line is JSON");
                let keys: Vec<&str> = line
                    .as_obj()
                    .expect("an object")
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            }
        }
    }
}
