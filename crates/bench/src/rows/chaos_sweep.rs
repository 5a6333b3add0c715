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

use super::{conformance_trace, islanded, CONFORMANCE_NODES};
use crate::{fmt4, has_flag, ratio, HarnessOpts, Table};
use hawk_core::scheduler::Hawk;
use hawk_core::{Scheduler, SimConfig};
use hawk_proto::{run_prototype, FaultSpec, MsgKind, ProtoBackend, ProtoConfig, ProtoReport};
use hawk_workload::JobClass::{self, Long, Short};
use hawk_workload::Trace;

/// FNV-1a over the per-job runtimes and every counter — fault counters
/// included, so two "identical" runs that drop different messages are
/// *not* considered identical.
fn digest(report: &ProtoReport) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let eat = |h: u64, x: u64| (h ^ x).wrapping_mul(PRIME);
    for r in &report.results {
        h = eat(h, r.runtime().as_micros());
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

fn timed(trace: &Trace, cfg: &ProtoConfig) -> (ProtoReport, f64) {
    let start = Instant::now();
    let report = run_prototype(trace, Arc::new(Hawk::new(0.17)) as Arc<dyn Scheduler>, cfg);
    (report, start.elapsed().as_secs_f64() * 1e3)
}

pub(crate) fn run(opts: &HarnessOpts, flags: &[String]) -> Table {
    let trace = conformance_trace("chaos_sweep", opts);
    let cfg_for = |faults: FaultSpec| {
        ProtoBackend::deterministic()
            .faults(faults)
            .config_for(&SimConfig {
                nodes: CONFORMANCE_NODES,
                seed: opts.seed,
                ..SimConfig::default()
            })
    };

    if has_flag(flags, "--smoke") {
        // The CI cell: 1 % drops, duplicates, reorder jitter, plus one
        // 1000 s partition window islanding ten workers.
        let cfg = cfg_for(islanded(FaultSpec::chaos(), 1_000));
        let (a, wall_a) = timed(&trace, &cfg);
        let (b, wall_b) = timed(&trace, &cfg);
        assert_eq!(
            a.results.len(),
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
        let mut table = Table::default();
        table.push([
            ("completed", format!("{}/{}", a.results.len(), trace.len())),
            ("drops", a.drops.to_string()),
            ("dups", a.dups.to_string()),
            ("retries", a.retries.to_string()),
            ("timeouts", a.timeouts_fired.to_string()),
            ("relaunched", a.relaunched.to_string()),
            ("digest", format!("{:016x}", digest(&a))),
            ("wall_ms", format!("{:.1}+{:.1}", wall_a, wall_b)),
        ]);
        print_deliveries(&a);
        eprintln!("chaos_sweep --smoke: all jobs completed, digest deterministic");
        return table;
    }

    // The fault-free baseline: FaultSpec::none(), the exact historical
    // router path (not even hardened timers).
    let metrics = |report: &ProtoReport| {
        let name = "hawk".to_string();
        report.clone().into_metrics(name, CONFORMANCE_NODES)
    };
    let baseline = metrics(&timed(&trace, &cfg_for(FaultSpec::none())).0);
    let base_p90 = |class: JobClass| baseline.runtime_percentile(class, 90.0);

    let mut table = Table::default();
    let partitions: [(&str, Option<u64>); 3] =
        [("0", None), ("300", Some(300)), ("3000", Some(3000))];
    for &drop in &[0.0, 0.01, 0.02, 0.05] {
        for &(label, window) in &partitions {
            let mut faults = FaultSpec::chaos().drop_probability(drop);
            if let Some(secs) = window {
                faults = islanded(faults, secs);
            }
            let (report, wall) = timed(&trace, &cfg_for(faults));
            assert_eq!(
                report.results.len(),
                trace.len(),
                "hardened prototype lost jobs at drop {drop}, partition {label}s"
            );
            let faulty = metrics(&report);
            let p90 = |class: JobClass| faulty.runtime_percentile(class, 90.0);
            let p90_x = |class: JobClass| fmt4(ratio(p90(class), base_p90(class)));
            let completed = format!("{}/{}", report.results.len(), trace.len());
            table.push([
                ("drop", format!("{drop}")),
                ("partition_s", label.to_string()),
                ("completed", completed),
                ("p90_short", fmt4(p90(Short))),
                ("p90_long", fmt4(p90(Long))),
                ("p90_short_x", p90_x(Short)),
                ("p90_long_x", p90_x(Long)),
                ("drops", report.drops.to_string()),
                ("dups", report.dups.to_string()),
                ("retries", report.retries.to_string()),
                ("timeouts", report.timeouts_fired.to_string()),
                ("relaunched", report.relaunched.to_string()),
                ("wall_ms", format!("{wall:.1}")),
            ]);
        }
    }
    eprintln!("chaos_sweep: done (p90_*_x = degradation over the fault-free baseline)");
    table
}
