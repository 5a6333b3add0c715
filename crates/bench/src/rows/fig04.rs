//! Figure 4: workload-property CDFs — average task duration per job
//! (4a long, 4b short) and number of tasks per job (4c long, 4d short)
//! for the Cloudera, Facebook, Yahoo and Google traces.
//!
//! Output: one row per decile per (trace, class, metric) series.

use crate::{fmt, fmt4, HarnessOpts, Table};
use hawk_simcore::stats::percentile_of_sorted;
use hawk_workload::classify::Cutoff;
use hawk_workload::google::GoogleTraceConfig;
use hawk_workload::kmeans::KmeansTraceConfig;
use hawk_workload::{JobClass, Trace};

fn series(trace: &Trace, class: JobClass, cutoff: Cutoff) -> (Vec<f64>, Vec<f64>) {
    let mut durations = Vec::new();
    let mut counts = Vec::new();
    for job in trace.jobs() {
        let c = job
            .generated_class
            .unwrap_or_else(|| cutoff.classify(job.mean_task_duration()));
        if c == class {
            durations.push(job.mean_task_duration().as_secs_f64());
            counts.push(job.num_tasks() as f64);
        }
    }
    durations.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    counts.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    (durations, counts)
}

pub(crate) fn run(opts: &HarnessOpts, _: &[String]) -> Table {
    let jobs = opts.jobs.unwrap_or(40_000);

    let derived = [
        ("cloudera", KmeansTraceConfig::cloudera_c(jobs)),
        ("facebook", KmeansTraceConfig::facebook(jobs)),
        ("yahoo", KmeansTraceConfig::yahoo(jobs)),
    ];
    let mut traces: Vec<(&str, Trace, Cutoff)> = derived
        .iter()
        .map(|(name, cfg)| {
            let cutoff = Cutoff::from_secs(cfg.default_cutoff_secs);
            (*name, cfg.generate(opts.seed), cutoff)
        })
        .collect();
    let google = GoogleTraceConfig::with_scale(1, jobs).generate(opts.seed);
    traces.push(("google", google, Cutoff::GOOGLE_DEFAULT));

    let mut table = Table::default();
    for (name, trace, cutoff) in &traces {
        for class in [JobClass::Long, JobClass::Short] {
            let (durations, counts) = series(trace, class, *cutoff);
            if durations.is_empty() {
                continue;
            }
            let (dur_panel, cnt_panel) = match class {
                JobClass::Long => ("4a_task_duration", "4c_tasks_per_job"),
                JobClass::Short => ("4b_task_duration", "4d_tasks_per_job"),
            };
            for (panel, values) in [(dur_panel, &durations), (cnt_panel, &counts)] {
                for pct in (10..=100).step_by(10) {
                    table.push([
                        ("panel", fmt(panel)),
                        ("trace", fmt(*name)),
                        ("class", fmt(class)),
                        ("cdf_pct", fmt(pct)),
                        ("value", fmt4(percentile_of_sorted(values, pct as f64))),
                    ]);
                }
            }
        }
    }
    eprintln!("fig04: done ({jobs} jobs per trace)");
    table
}
