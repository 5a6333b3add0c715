//! Serving-mode smoke: admission control under a saturating burst.
//!
//! Runs one Hawk cell whose bursty saturation arrivals push offered load
//! to ~130 % of cluster capacity overall (the middle-third plateau runs
//! far hotter), once without admission control and once with the
//! standard gate, and asserts the serving-mode contract end to end:
//!
//! 1. the gate engages — nonzero long-job sheds and deferrals, and the
//!    protected short class is never shed;
//! 2. queue depth stays bounded — the peak windowed backlog with the
//!    gate on is a fraction of the ungated peak, and under an absolute
//!    cap;
//! 3. the run is byte-deterministic — two gated runs produce identical
//!    reports, fingerprint and all.
//!
//! Any violated claim aborts the smoke with a nonzero exit, so the CI
//! leg fails the way a broken digest fails the golden tests. The cell is
//! pinned: the row takes no `--jobs` / `--seed` and prints no TSV.

use std::sync::Arc;

use crate::{google_hawk, HarnessOpts, Table};
use hawk_core::{AdmissionPolicy, Experiment, MetricsReport};
use hawk_simcore::SimDuration;
use hawk_workload::scenario::{ArrivalSpec, ScenarioSpec, TraceFamily};
use hawk_workload::Trace;

/// Cluster size of the smoke cell (the golden-cell geometry).
const NODES: usize = 300;

/// Jobs in the smoke trace: enough for the plateau to saturate every
/// queue, small enough to run in seconds in CI.
const JOBS: usize = 400;

/// Trace / experiment seeds (the golden pair, frozen).
const TRACE_SEED: u64 = 0xDE7E12;
const SIM_SEED: u64 = 0x5EED_601D;

/// Saturation arrivals: calm thirds every ~115 s, the middle third 6x
/// faster. On this trace's total work the overall offered load lands at
/// ~1.3x usable capacity — the plateau alone runs several-x hotter.
const CALM_MEAN_SECS: u64 = 115;
const OVERLOAD: f64 = 6.0;

/// Live window for the backlog gauge: sized so the whole run fits in
/// the 16-window ring and the peak backlog is never rotated out.
const LIVE_WINDOW_SECS: u64 = 2_400;

/// Absolute cap on the gated peak backlog (jobs offered but neither
/// resolved nor shed at a window close). The ungated run peaks around
/// the full plateau depth; the gate must keep the peak under this.
const MAX_GATED_BACKLOG: u64 = 120;

/// The gate: nominal-capacity budget windows, shorts protected, longs
/// deferred up to 4 windows before shedding.
fn policy() -> AdmissionPolicy {
    AdmissionPolicy {
        window: SimDuration::from_secs(300),
        headroom: 1.0,
        max_defer_windows: 4,
        protect_short: true,
    }
}

fn scenario() -> ScenarioSpec {
    ScenarioSpec::new(TraceFamily::Google { scale: 10 }, JOBS).arrivals(ArrivalSpec::Saturation {
        mean: SimDuration::from_secs(CALM_MEAN_SECS),
        overload: OVERLOAD,
    })
}

fn run_cell(trace: &Arc<Trace>, admission: Option<AdmissionPolicy>) -> MetricsReport {
    let mut builder = Experiment::builder()
        .trace(trace)
        .scheduler(google_hawk())
        .nodes(NODES)
        .seed(SIM_SEED)
        .live_window(SimDuration::from_secs(LIVE_WINDOW_SECS));
    if let Some(policy) = admission {
        builder = builder.admission(policy);
    }
    builder.build().run()
}

/// Peak windowed backlog across the retained live windows.
fn peak_backlog(report: &MetricsReport) -> u64 {
    report
        .live
        .as_ref()
        .expect("live_window was set")
        .windows
        .iter()
        .map(|w| w.backlog)
        .max()
        .expect("the run closed no live windows")
}

/// FNV-1a fingerprint over the fields that define the run's outcome:
/// per-job results, admission counters and the streamed populations.
fn fingerprint(report: &MetricsReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for r in &report.results {
        mix(r.job.0 as u64);
        mix(r.submission.as_micros());
        mix(r.completion.as_micros());
    }
    mix(report.admission.sheds_short);
    mix(report.admission.sheds_long);
    mix(report.admission.deferrals_short);
    mix(report.admission.deferrals_long);
    mix(report.streaming.short.jobs);
    mix(report.streaming.long.jobs);
    h
}

pub(crate) fn run(_: &HarnessOpts, _: &[String]) -> Table {
    let trace = Arc::new(scenario().trace(TRACE_SEED));
    let span = trace
        .jobs()
        .last()
        .expect("nonempty trace")
        .submission
        .as_secs_f64();
    let offered = trace.total_task_seconds().as_secs_f64() / (span * NODES as f64);
    eprintln!(
        "saturation_smoke: {JOBS} jobs on {NODES} nodes, offered load {:.2}x \
         over a {:.0} s arrival span (plateau {OVERLOAD}x)",
        offered, span
    );
    assert!(
        offered > 1.1,
        "the smoke cell is not saturating: offered load {offered:.2}x"
    );

    let ungated = run_cell(&trace, None);
    let gated = run_cell(&trace, Some(policy()));

    // Claim 1: the gate engaged, and only ever against longs.
    assert!(gated.admission.sheds() > 0, "the gate never shed");
    assert!(gated.admission.deferrals() > 0, "the gate never deferred");
    assert_eq!(gated.admission.sheds_short, 0, "protected shorts were shed");
    assert_eq!(ungated.admission.sheds(), 0, "ungated run shed jobs");
    assert_eq!(gated.results.len(), JOBS, "gated run lost jobs");

    // Claim 2: bounded queue depth. The ungated plateau backlog is the
    // baseline; the gate must cut the peak and stay under the cap.
    let peak_ungated = peak_backlog(&ungated);
    let peak_gated = peak_backlog(&gated);
    eprintln!(
        "  peak windowed backlog: {peak_ungated} ungated -> {peak_gated} gated \
         ({} sheds, {} deferrals; makespan {:.0} s -> {:.0} s)",
        gated.admission.sheds(),
        gated.admission.deferrals(),
        ungated.makespan.as_secs_f64(),
        gated.makespan.as_secs_f64(),
    );
    assert!(
        peak_gated <= peak_ungated,
        "the gate grew the peak backlog ({peak_gated} vs {peak_ungated})"
    );
    assert!(
        peak_gated <= MAX_GATED_BACKLOG,
        "gated peak backlog {peak_gated} exceeds the {MAX_GATED_BACKLOG} cap"
    );
    // The backlog gauge counts jobs, and the protected shorts dominate by
    // count — the decisive boundedness signal is the drain time: shedding
    // a handful of plateau longs must pull the whole tail in hard.
    let drain_ratio = gated.makespan.as_secs_f64() / ungated.makespan.as_secs_f64();
    assert!(
        drain_ratio <= 0.75,
        "the gate did not bound the drain: gated makespan is {:.2}x the ungated one",
        drain_ratio
    );

    // Claim 3: byte-determinism of the gated run.
    let again = run_cell(&trace, Some(policy()));
    let digest = fingerprint(&gated);
    assert_eq!(
        digest,
        fingerprint(&again),
        "two gated saturation runs diverged"
    );
    eprintln!("  deterministic fingerprint {digest:#018x}");
    eprintln!("saturation_smoke: OK");
    Table::default()
}
