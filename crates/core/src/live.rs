//! Windowed live metrics for serving mode: per-window occupancy, arrival
//! and steal rates, admission outcomes, backlog, and streaming
//! p50/p90/p99 by class.
//!
//! Time is cut into tumbling windows `[i·W, (i+1)·W)` aligned at the
//! simulation origin, where `W` is
//! [`SimConfig::live_window`](crate::SimConfig). The report keeps the
//! last [`LIVE_RING`] *fully closed* windows — the trailing partial
//! window is dropped, a live gauge never reports a half-filled bucket.
//!
//! A window is a view of the run's results, derived once at report time
//! like the run's streaming summary: a job is offered — and, by the
//! admission plan's decision, shed or deferred — in the window holding
//! its trace submission, and completes in the window holding its
//! completion; shed jobs complete nothing. Windows are half-open by
//! timestamp in every harness, so an event on a boundary microsecond
//! belongs to the window it opens. The derivation holds two streaming
//! sinks at a time, reset per window.
//!
//! What the results cannot tell is sampled: the cluster's occupancy at a
//! window's close and the steals during it. Both simulator harnesses own
//! a self-rescheduling `LiveSample` timer that, at every close, writes
//! the whole-cluster utilization (the formula of the 100 s utilization
//! snapshots) and the steal counters summed over cores into a fixed ring
//! (`LiveSamples`); that write allocates nothing, which the zero-alloc
//! regression test enforces. Live metrics are not part of the golden
//! digests.

use hawk_simcore::stats::StreamingQuantiles;
use hawk_simcore::{SimDuration, SimTime};
use hawk_workload::JobClass;
use serde::Serialize;

use crate::admission::{AdmissionDecision, AdmissionPlan};
use crate::metrics::JobResult;

/// Number of fully closed windows retained by the live-metrics ring.
pub const LIVE_RING: usize = 16;

/// Streaming percentile summary of one job class within one window
/// (seconds, same `1/128` relative guarantee as
/// [`StreamingQuantiles`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct WindowClassStats {
    /// Jobs of this class completed in the window.
    pub completions: u64,
    /// Streaming median runtime of those completions, seconds.
    pub p50: Option<f64>,
    /// Streaming 90th percentile, seconds.
    pub p90: Option<f64>,
    /// Streaming 99th percentile, seconds.
    pub p99: Option<f64>,
}

impl WindowClassStats {
    fn from_sink(sink: &StreamingQuantiles) -> WindowClassStats {
        let secs = |p: f64| sink.quantile(p).map(|micros| micros / 1e6);
        WindowClassStats {
            completions: sink.count(),
            p50: secs(50.0),
            p90: secs(90.0),
            p99: secs(99.0),
        }
    }
}

/// One fully closed live window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct LiveWindow {
    /// Window index: the window covers `[index·W, (index+1)·W)`.
    pub index: u64,
    /// Jobs offered in the window — their trace submission falls in it —
    /// including jobs deferred or shed.
    pub arrivals: u64,
    /// Jobs offered in the window that admission control shed.
    pub sheds: u64,
    /// Jobs offered in the window that admission control deferred to a
    /// later one.
    pub deferrals: u64,
    /// Jobs completed in the window (both classes; shed jobs never are).
    pub completions: u64,
    /// Offered-minus-resolved jobs at window close
    /// (`arrivals − completions − sheds`, cumulatively): the queue-growth
    /// gauge that admission control keeps bounded.
    pub backlog: u64,
    /// Cluster utilization sampled at window close (capacity-aware, like
    /// the 100 s utilization snapshots).
    pub occupancy: f64,
    /// Successful steal operations during the window.
    pub steals: u64,
    /// Steal attempts during the window.
    pub steal_attempts: u64,
    /// Short-job completions and streaming percentiles.
    pub short: WindowClassStats,
    /// Long-job completions and streaming percentiles.
    pub long: WindowClassStats,
}

/// The windowed live-metrics report: the last [`LIVE_RING`] closed
/// windows, oldest first. `Some` on
/// [`MetricsReport::live`](crate::MetricsReport) only when
/// [`SimConfig::live_window`](crate::SimConfig) is set.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LiveMetrics {
    /// The window length `W`.
    pub window: SimDuration,
    /// Closed windows, oldest first (at most [`LIVE_RING`]).
    pub windows: Vec<LiveWindow>,
}

impl LiveMetrics {
    /// Offered arrivals per second in `w`.
    pub fn arrival_rate(&self, w: &LiveWindow) -> f64 {
        w.arrivals as f64 / self.window.as_secs_f64()
    }

    /// Successful steals per second in `w`.
    pub fn steal_rate(&self, w: &LiveWindow) -> f64 {
        w.steals as f64 / self.window.as_secs_f64()
    }
}

/// What a harness samples at one window close: the occupancy then, and
/// the steals and steal attempts since the previous close.
#[derive(Debug, Clone, Copy, Default)]
struct Sample {
    occupancy: f64,
    steals: u64,
    steal_attempts: u64,
}

/// A harness's samples of its last [`LIVE_RING`] window closes, in a
/// fixed ring: [`LiveSamples::close`] never allocates.
#[derive(Debug, Clone)]
pub(crate) struct LiveSamples {
    /// The window length, which is also the sampling timer's period.
    pub(crate) window: SimDuration,
    /// Window `i`'s sample, at `i % LIVE_RING`.
    ring: [Sample; LIVE_RING],
    /// Windows closed so far.
    closed: u64,
    /// Cumulative steal counters at the last close.
    steals: u64,
    steal_attempts: u64,
}

impl LiveSamples {
    /// Samples for windows of length `window` (positive: `check_cell`).
    pub(crate) fn new(window: SimDuration) -> LiveSamples {
        LiveSamples {
            window,
            ring: [Sample::default(); LIVE_RING],
            closed: 0,
            steals: 0,
            steal_attempts: 0,
        }
    }

    /// Closes the next window with the cluster's `occupancy` now and the
    /// run's cumulative `steals` and `steal_attempts`.
    pub(crate) fn close(&mut self, occupancy: f64, steals: u64, steal_attempts: u64) {
        self.ring[(self.closed % LIVE_RING as u64) as usize] = Sample {
            occupancy,
            steals: steals - self.steals,
            steal_attempts: steal_attempts - self.steal_attempts,
        };
        self.closed += 1;
        self.steals = steals;
        self.steal_attempts = steal_attempts;
    }

    /// The retained windows of a finished run, read off its `results`
    /// and the admission `plan` it ran under (module docs).
    pub(crate) fn report(
        &self,
        results: &[JobResult],
        plan: Option<&AdmissionPlan>,
    ) -> LiveMetrics {
        let decision = |job| plan.map_or(AdmissionDecision::Admit, |plan| plan.decision(job));
        let w = self.window.as_micros();
        let first = self.closed.saturating_sub(LIVE_RING as u64);
        // Offered but not resolved before the first retained window: a
        // shed job resolves at its submission, which is its completion.
        let before = |at: SimTime| at.as_micros() < first * w;
        let mut backlog = results
            .iter()
            .filter(|r| before(r.submission) && !before(r.completion))
            .count() as u64;
        let (mut short, mut long) = (StreamingQuantiles::new(), StreamingQuantiles::new());
        let windows = (first..self.closed)
            .map(|index| {
                let (start, end) = (index * w, (index + 1) * w);
                let within = |micros: u64| (start..end).contains(&micros);
                let sample = self.ring[(index % LIVE_RING as u64) as usize];
                let mut window = LiveWindow {
                    index,
                    occupancy: sample.occupancy,
                    steals: sample.steals,
                    steal_attempts: sample.steal_attempts,
                    ..LiveWindow::default()
                };
                short.reset();
                long.reset();
                for r in results {
                    let fate = decision(r.job);
                    if within(r.submission.as_micros()) {
                        window.arrivals += 1;
                        match fate {
                            AdmissionDecision::Admit => {}
                            AdmissionDecision::Defer { .. } => window.deferrals += 1,
                            AdmissionDecision::Shed => window.sheds += 1,
                        }
                    }
                    if within(r.completion.as_micros()) && fate != AdmissionDecision::Shed {
                        let sink = match r.true_class {
                            JobClass::Short => &mut short,
                            JobClass::Long => &mut long,
                        };
                        sink.record(r.runtime().as_micros());
                    }
                }
                window.completions = short.count() + long.count();
                backlog = backlog + window.arrivals - window.sheds - window.completions;
                window.backlog = backlog;
                window.short = WindowClassStats::from_sink(&short);
                window.long = WindowClassStats::from_sink(&long);
                window
            })
            .collect();
        LiveMetrics {
            window: self.window,
            windows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionPolicy;
    use hawk_workload::classify::Cutoff;
    use hawk_workload::scenario::DynamicsScript;
    use hawk_workload::{Job, JobId, Trace};

    fn result(job: u32, class: JobClass, submitted_ms: u64, completed_ms: u64) -> JobResult {
        JobResult {
            job: JobId(job),
            true_class: class,
            scheduled_class: class,
            submission: SimTime::from_micros(submitted_ms * 1_000),
            completion: SimTime::from_micros(completed_ms * 1_000),
            num_tasks: 1,
        }
    }

    #[test]
    fn windows_close_on_schedule_and_drop_the_partial_tail() {
        let mut samples = LiveSamples::new(SimDuration::from_secs(10));
        samples.close(0.5, 0, 0);
        let results = [
            result(0, JobClass::Short, 0, 2_000),
            // On the boundary: offered in window 1, which never closed.
            result(1, JobClass::Short, 10_000, 15_000),
        ];
        let live = samples.report(&results, None);
        assert_eq!(live.windows.len(), 1);
        let w = &live.windows[0];
        assert_eq!(w.index, 0);
        assert_eq!(w.arrivals, 1);
        assert_eq!(w.completions, 1);
        assert_eq!(w.short.completions, 1);
        assert_eq!(w.short.p50.map(f64::round), Some(2.0));
        assert_eq!(w.backlog, 0);
        assert_eq!(w.occupancy, 0.5);
        assert!((live.arrival_rate(w) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn backlog_counts_unresolved_offers() {
        // Five jobs at 0.1 s on 3 nodes with a 3 node-second budget per
        // 1 s gate window: long job 0 fits, long jobs 1 and 2 wait; at
        // 1 s job 1 fits and job 2, out of waits, is shed. Shorts 3 and
        // 4 are protected.
        let jobs = (0..5)
            .map(|id| Job {
                id: JobId(id),
                submission: SimTime::from_micros(100_000),
                tasks: vec![SimDuration::from_millis(if id < 3 { 2_000 } else { 500 })],
                generated_class: None,
            })
            .collect();
        let policy = AdmissionPolicy {
            window: SimDuration::from_secs(1),
            headroom: 1.0,
            max_defer_windows: 1,
            protect_short: true,
        };
        let cutoff = Cutoff(SimDuration::from_secs(1));
        let trace = Trace::new(jobs).unwrap();
        let plan = AdmissionPlan::compute(&trace, 3, cutoff, &DynamicsScript::none(), policy);
        let results = [
            result(0, JobClass::Long, 100, 2_100),
            result(1, JobClass::Long, 100, 3_100),
            result(2, JobClass::Long, 100, 100), // shed
            result(3, JobClass::Short, 100, 600),
            result(4, JobClass::Short, 100, 15_000),
        ];
        let mut samples = LiveSamples::new(SimDuration::from_secs(10));
        samples.close(0.0, 0, 0);
        let w = samples.report(&results, Some(&plan)).windows[0];
        assert_eq!(w.backlog, 1); // 5 offered − 1 shed − 3 done
        assert_eq!((w.sheds, w.deferrals), (1, 1));
        assert_eq!((w.short.completions, w.long.completions), (1, 2));
    }

    #[test]
    fn ring_keeps_only_the_last_windows() {
        let mut samples = LiveSamples::new(SimDuration::from_secs(1));
        let windows = LIVE_RING as u64 + 5;
        // One offer a window; job 0 completes as the first retained
        // window opens, so in it, and the rest after the run.
        let results: Vec<JobResult> = (0..windows)
            .map(|t| {
                let completed = if t == 0 { 5_000 } else { 100_000 };
                result(t as u32, JobClass::Short, t * 1_000, completed)
            })
            .collect();
        for _ in 0..windows {
            samples.close(0.0, 0, 0);
        }
        let live = samples.report(&results, None);
        assert_eq!(live.windows.len(), LIVE_RING);
        let (first, last) = (live.windows[0], live.windows[LIVE_RING - 1]);
        assert_eq!((first.index, last.index), (5, windows - 1));
        // Jobs 0–5 were offered by the first retained window's close.
        assert_eq!(first.completions, 1);
        assert_eq!((first.backlog, last.backlog), (5, windows - 1));
    }

    #[test]
    fn steal_deltas_are_per_window() {
        let mut samples = LiveSamples::new(SimDuration::from_secs(1));
        samples.close(0.0, 10, 20);
        samples.close(0.0, 15, 26);
        let live = samples.report(&[], None);
        assert_eq!(live.windows[0].steals, 10);
        assert_eq!(live.windows[1].steals, 5);
        assert_eq!(live.windows[1].steal_attempts, 6);
        assert_eq!(live.steal_rate(&live.windows[1]), 5.0);
    }
}
