//! Robustness sweep: the hardened virtual prototype under increasing
//! network hostility.
//!
//! Sweeps message drop rate × scripted partition length on the §4.4
//! conformance cell (Hawk at ~90 % offered load, 100 nodes) and reports,
//! per fault cell: job completion (the hardened protocol must land
//! **every** job), the p90 short/long runtimes and their degradation
//! over the fault-free baseline, and the fault/recovery counters
//! (drops, dups, retries, timeouts fired, tasks relaunched). Every cell
//! is a seeded virtual-clock run, so each row replays byte-identically.
//!
//! `--smoke` runs one moderate cell (1 % drops + one partition window)
//! twice and asserts 100 % completion, a deterministic digest across the
//! two runs and that the per-kind delivery counts add up to `messages` —
//! the CI leg. It prints the per-kind table on stderr.

use std::sync::Arc;
use std::time::Instant;

use hawk_bench::{fmt4, parse_args_with, tsv_header, tsv_row, RunMode};
use hawk_core::scheduler::Hawk;
use hawk_core::{Scheduler, SimConfig};
use hawk_proto::{run_prototype, FaultSpec, MsgKind, ProtoBackend, ProtoConfig, ProtoReport};
use hawk_simcore::SimTime;
use hawk_workload::scenario::{ScenarioSpec, TraceFamily};
use hawk_workload::{JobClass, Trace};

/// The conformance cell: ~90 % offered load on 100 nodes.
const NODES: usize = 100;
const SCALE: u64 = 150;

/// Ten workers with no co-hosted scheduler daemons (the central daemon
/// lives on host 0, distributed scheduler `s` on host `s % workers`).
fn island() -> Vec<u32> {
    (40..50).collect()
}

/// FNV-1a over the per-job runtimes and every counter — fault counters
/// included, so two "identical" runs that drop different messages are
/// *not* considered identical.
fn digest(report: &ProtoReport) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let eat = |h: u64, x: u64| (h ^ x).wrapping_mul(PRIME);
    for j in &report.jobs {
        h = eat(h, j.runtime.as_micros() as u64);
    }
    for x in [
        report.steals,
        report.steal_attempts,
        report.migrations,
        report.messages,
        report.drops,
        report.dups,
        report.retries,
        report.timeouts_fired,
        report.relaunched,
    ] {
        h = eat(h, x);
    }
    h
}

/// What every daemon was handed, by kind, on stderr: the prototype's
/// answer to "where did the messages go".
fn print_deliveries(report: &ProtoReport) {
    eprintln!(
        "deliveries by kind ({} messages + {} task finishes; {} stale timers = {:.1}% of messages):",
        report.messages,
        report.deliveries[MsgKind::TaskFinish],
        report.stale_timers,
        100.0 * report.stale_timers as f64 / report.messages.max(1) as f64
    );
    for (kind, count) in report.deliveries.iter().filter(|&(_, count)| count > 0) {
        eprintln!(
            "  {:<24} {count:>10}  {:5.1}%",
            kind.name(),
            100.0 * count as f64 / report.messages.max(1) as f64
        );
    }
}

fn run(trace: &Trace, cfg: &ProtoConfig) -> (ProtoReport, f64) {
    let start = Instant::now();
    let report = run_prototype(trace, Arc::new(Hawk::new(0.17)) as Arc<dyn Scheduler>, cfg);
    (report, start.elapsed().as_secs_f64() * 1e3)
}

fn main() {
    let (opts, flags) = parse_args_with(
        "chaos_sweep",
        "drop-rate x partition-length sweep of the hardened virtual prototype",
        &[(
            "--smoke",
            "one moderate fault cell run twice: assert 100% completion and \
             a deterministic digest",
        )],
    );
    let smoke = flags.iter().any(|f| f == "--smoke");
    let jobs = opts.jobs.unwrap_or(match opts.mode {
        RunMode::Quick => 200,
        RunMode::Paper => 1_000,
        RunMode::FullTrace => 5_000,
    });
    let scenario = ScenarioSpec::new(TraceFamily::Google { scale: SCALE }, jobs);
    eprintln!(
        "chaos_sweep: {jobs} jobs on {NODES} nodes ({})",
        scenario.label()
    );
    let trace = Arc::new(scenario.trace(opts.seed));
    let cfg_for = |faults: FaultSpec| {
        ProtoBackend::deterministic()
            .faults(faults)
            .config_for(&SimConfig {
                nodes: NODES,
                seed: opts.seed,
                ..SimConfig::default()
            })
    };

    if smoke {
        // The CI cell: 1 % drops, duplicates, reorder jitter, plus one
        // 1000 s partition window islanding ten workers.
        let faults = FaultSpec::chaos().partition(
            SimTime::from_secs(100),
            SimTime::from_secs(1_100),
            island(),
        );
        let cfg = cfg_for(faults);
        let (a, wall_a) = run(&trace, &cfg);
        let (b, wall_b) = run(&trace, &cfg);
        assert_eq!(
            a.jobs.len(),
            trace.len(),
            "hardened prototype lost jobs under the smoke fault cell"
        );
        assert!(a.drops > 0, "the smoke cell dropped nothing");
        let by_kind: u64 = a
            .deliveries
            .iter()
            .filter(|&(kind, _)| kind != MsgKind::TaskFinish)
            .map(|(_, count)| count)
            .sum();
        assert_eq!(
            by_kind, a.messages,
            "per-kind delivery counts do not add up to `messages`"
        );
        assert_eq!(
            digest(&a),
            digest(&b),
            "two seeded faulty runs diverged (smoke digest mismatch)"
        );
        tsv_header(&[
            "completed",
            "drops",
            "dups",
            "retries",
            "timeouts",
            "relaunched",
            "digest",
            "wall_ms",
        ]);
        tsv_row(&[
            format!("{}/{}", a.jobs.len(), trace.len()),
            a.drops.to_string(),
            a.dups.to_string(),
            a.retries.to_string(),
            a.timeouts_fired.to_string(),
            a.relaunched.to_string(),
            format!("{:016x}", digest(&a)),
            format!("{:.1}+{:.1}", wall_a, wall_b),
        ]);
        print_deliveries(&a);
        eprintln!("chaos_sweep --smoke: all jobs completed, digest deterministic");
        return;
    }

    // The fault-free baseline: FaultSpec::none(), the exact historical
    // router path (not even hardened timers).
    let (baseline, _) = run(&trace, &cfg_for(FaultSpec::none()));
    let base_p90 = |class: JobClass| baseline.runtime_percentile(class, 90.0);

    tsv_header(&[
        "drop",
        "partition_s",
        "completed",
        "p90_short",
        "p90_long",
        "p90_short_x",
        "p90_long_x",
        "drops",
        "dups",
        "retries",
        "timeouts",
        "relaunched",
        "wall_ms",
    ]);
    let partitions: [(&str, Option<u64>); 3] =
        [("0", None), ("300", Some(300)), ("3000", Some(3000))];
    for &drop in &[0.0, 0.01, 0.02, 0.05] {
        for &(label, window) in &partitions {
            let mut faults = FaultSpec::chaos().drop_probability(drop);
            if let Some(secs) = window {
                faults = faults.partition(
                    SimTime::from_secs(100),
                    SimTime::from_secs(100 + secs),
                    island(),
                );
            }
            let (report, wall) = run(&trace, &cfg_for(faults));
            assert_eq!(
                report.jobs.len(),
                trace.len(),
                "hardened prototype lost jobs at drop {drop}, partition {label}s"
            );
            let p90 = |class: JobClass| report.runtime_percentile(class, 90.0);
            let ratio = |class: JobClass| match (p90(class), base_p90(class)) {
                (Some(f), Some(b)) if b > 0.0 => Some(f / b),
                _ => None,
            };
            tsv_row(&[
                format!("{drop}"),
                label.to_string(),
                format!("{}/{}", report.jobs.len(), trace.len()),
                fmt4(p90(JobClass::Short)),
                fmt4(p90(JobClass::Long)),
                fmt4(ratio(JobClass::Short)),
                fmt4(ratio(JobClass::Long)),
                report.drops.to_string(),
                report.dups.to_string(),
                report.retries.to_string(),
                report.timeouts_fired.to_string(),
                report.relaunched.to_string(),
                format!("{wall:.1}"),
            ]);
        }
    }
    eprintln!("chaos_sweep: done (p90_*_x = degradation over the fault-free baseline)");
}
