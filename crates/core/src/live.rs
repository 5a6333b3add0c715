//! Windowed live metrics for serving mode: per-window occupancy, arrival
//! and steal rates, admission outcomes, backlog, and streaming
//! p50/p90/p99 by class.
//!
//! Time is cut into tumbling windows `[i·W, (i+1)·W)` aligned at the
//! simulation origin, where `W` is
//! [`SimConfig::live_window`](crate::SimConfig). The recorder keeps the
//! last [`LIVE_RING`] *fully closed* windows — the trailing partial
//! window is dropped, a live gauge never reports a half-filled bucket.
//! All window state (including the per-class streaming histograms
//! snapshotted into the ring) is allocated once at construction; the
//! record and close paths are allocation-free, which the zero-alloc
//! regression test enforces.
//!
//! Both simulator harnesses close windows from a dedicated
//! self-rescheduling sampling event (the sharded one closes every core's
//! recorder on it and merges them at report time). Attribution of events
//! landing on the boundary microsecond follows event order and may differ
//! between the two; live metrics are deterministic per harness but are
//! not part of any cross-harness bit-equality contract (and not part of
//! the golden digests).

use hawk_simcore::stats::StreamingQuantiles;
use hawk_simcore::{SimDuration, SimTime};
use hawk_workload::JobClass;
use serde::Serialize;

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
    /// Jobs offered (first arrival firing) in the window, including jobs
    /// later deferred or shed.
    pub arrivals: u64,
    /// Jobs shed by admission control in the window.
    pub sheds: u64,
    /// Jobs whose arrival admission control postponed out of this window.
    pub deferrals: u64,
    /// Jobs completed in the window (both classes).
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
    /// Start time of `w`.
    pub fn start_of(&self, w: &LiveWindow) -> SimTime {
        SimTime::from_micros(w.index * self.window.as_micros())
    }

    /// Offered arrivals per second in `w`.
    pub fn arrival_rate(&self, w: &LiveWindow) -> f64 {
        w.arrivals as f64 / self.window.as_secs_f64()
    }

    /// Successful steals per second in `w`.
    pub fn steal_rate(&self, w: &LiveWindow) -> f64 {
        w.steals as f64 / self.window.as_secs_f64()
    }
}

/// One closed window held in the ring, with its histogram snapshots kept
/// so shards can be merged exactly at report time.
#[derive(Debug, Clone)]
struct ClosedWindow {
    index: u64,
    arrivals: u64,
    sheds: u64,
    deferrals: u64,
    backlog: u64,
    occupancy: f64,
    steals: u64,
    steal_attempts: u64,
    short: StreamingQuantiles,
    long: StreamingQuantiles,
}

/// Accumulates live metrics for one driver (or one shard). Everything is
/// pre-allocated; `on_*` and `close_up_to` never allocate.
#[derive(Debug, Clone)]
pub(crate) struct LiveRecorder {
    window: SimDuration,
    /// End of the currently open window.
    next_close: SimTime,
    /// Index of the currently open window.
    index: u64,
    /// Fully closed windows, written round-robin at `index % LIVE_RING`.
    ring: Vec<ClosedWindow>,
    closed: u64,
    // Open-window accumulators.
    arrivals: u64,
    sheds: u64,
    deferrals: u64,
    steals_at_open: u64,
    attempts_at_open: u64,
    short: StreamingQuantiles,
    long: StreamingQuantiles,
    // Cumulative counters for the backlog gauge.
    total_arrivals: u64,
    total_sheds: u64,
    total_completions: u64,
}

impl LiveRecorder {
    pub(crate) fn new(window: SimDuration) -> LiveRecorder {
        assert!(!window.is_zero(), "live window must be positive");
        LiveRecorder {
            window,
            next_close: SimTime::ZERO + window,
            index: 0,
            ring: (0..LIVE_RING)
                .map(|_| ClosedWindow {
                    index: 0,
                    arrivals: 0,
                    sheds: 0,
                    deferrals: 0,
                    backlog: 0,
                    occupancy: 0.0,
                    steals: 0,
                    steal_attempts: 0,
                    short: StreamingQuantiles::new(),
                    long: StreamingQuantiles::new(),
                })
                .collect(),
            closed: 0,
            arrivals: 0,
            sheds: 0,
            deferrals: 0,
            steals_at_open: 0,
            attempts_at_open: 0,
            short: StreamingQuantiles::new(),
            long: StreamingQuantiles::new(),
            total_arrivals: 0,
            total_sheds: 0,
            total_completions: 0,
        }
    }

    /// A job's first arrival firing (offered load; deferred re-firings
    /// are not counted again).
    pub(crate) fn on_arrival(&mut self) {
        self.arrivals += 1;
        self.total_arrivals += 1;
    }

    /// A job shed by admission control.
    pub(crate) fn on_shed(&mut self) {
        self.sheds += 1;
        self.total_sheds += 1;
    }

    /// A job deferred out of the current window by admission control.
    pub(crate) fn on_deferral(&mut self) {
        self.deferrals += 1;
    }

    /// A job completed with the given true class and runtime.
    pub(crate) fn on_completion(&mut self, class: JobClass, runtime_micros: u64) {
        match class {
            JobClass::Short => self.short.record(runtime_micros),
            JobClass::Long => self.long.record(runtime_micros),
        }
        self.total_completions += 1;
    }

    /// Closes every window whose end is ≤ `limit`. `occupancy` /
    /// `steals` / `steal_attempts` are the caller's *current* cluster
    /// utilization and cumulative steal counters; when several idle
    /// windows close at once the first absorbs the whole steal delta.
    pub(crate) fn close_up_to(
        &mut self,
        limit: SimTime,
        occupancy: f64,
        steals: u64,
        steal_attempts: u64,
    ) {
        while self.next_close <= limit {
            let slot = &mut self.ring[(self.index % LIVE_RING as u64) as usize];
            slot.index = self.index;
            slot.arrivals = self.arrivals;
            slot.sheds = self.sheds;
            slot.deferrals = self.deferrals;
            slot.backlog = self.total_arrivals - self.total_sheds - self.total_completions;
            slot.occupancy = occupancy;
            slot.steals = steals - self.steals_at_open;
            slot.steal_attempts = steal_attempts - self.attempts_at_open;
            slot.short.copy_from(&self.short);
            slot.long.copy_from(&self.long);
            self.closed += 1;
            self.index += 1;
            self.next_close += self.window;
            self.arrivals = 0;
            self.sheds = 0;
            self.deferrals = 0;
            self.steals_at_open = steals;
            self.attempts_at_open = steal_attempts;
            self.short.reset();
            self.long.reset();
        }
    }

    /// Closed windows in chronological order (oldest retained first).
    fn closed_slots(&self) -> impl Iterator<Item = &ClosedWindow> {
        let kept = self.closed.min(LIVE_RING as u64);
        let first = self.closed - kept;
        (first..self.closed).map(move |i| &self.ring[(i % LIVE_RING as u64) as usize])
    }

    /// The single-driver report.
    pub(crate) fn report(&self) -> LiveMetrics {
        LiveMetrics {
            window: self.window,
            windows: self
                .closed_slots()
                .map(|slot| finish_window(slot, &slot.short, &slot.long))
                .collect(),
        }
    }

    /// Merges per-shard recorders into one report: counters sum, shard
    /// occupancies sum (each shard reports only its owned servers'
    /// share), and the per-window histograms merge exactly. Only window
    /// indexes closed by *every* shard are reported.
    pub(crate) fn merge(recorders: &[&LiveRecorder]) -> LiveMetrics {
        let window = recorders
            .first()
            .map(|r| r.window)
            .unwrap_or(SimDuration::from_secs(1));
        // Common fully-closed range across shards.
        let end = recorders.iter().map(|r| r.closed).min().unwrap_or(0);
        let start = recorders
            .iter()
            .map(|r| r.closed - r.closed.min(LIVE_RING as u64))
            .max()
            .unwrap_or(0);
        let mut short = StreamingQuantiles::new();
        let mut long = StreamingQuantiles::new();
        let mut windows = Vec::new();
        for index in start..end {
            let mut merged = ClosedWindow {
                index,
                arrivals: 0,
                sheds: 0,
                deferrals: 0,
                backlog: 0,
                occupancy: 0.0,
                steals: 0,
                steal_attempts: 0,
                short: StreamingQuantiles::new(),
                long: StreamingQuantiles::new(),
            };
            short.reset();
            long.reset();
            for r in recorders {
                let slot = &r.ring[(index % LIVE_RING as u64) as usize];
                debug_assert_eq!(slot.index, index, "shard ring out of phase");
                merged.arrivals += slot.arrivals;
                merged.sheds += slot.sheds;
                merged.deferrals += slot.deferrals;
                merged.backlog += slot.backlog;
                merged.occupancy += slot.occupancy;
                merged.steals += slot.steals;
                merged.steal_attempts += slot.steal_attempts;
                short.merge(&slot.short);
                long.merge(&slot.long);
            }
            windows.push(finish_window(&merged, &short, &long));
        }
        LiveMetrics { window, windows }
    }
}

fn finish_window(
    slot: &ClosedWindow,
    short: &StreamingQuantiles,
    long: &StreamingQuantiles,
) -> LiveWindow {
    LiveWindow {
        index: slot.index,
        arrivals: slot.arrivals,
        sheds: slot.sheds,
        deferrals: slot.deferrals,
        completions: short.count() + long.count(),
        backlog: slot.backlog,
        occupancy: slot.occupancy,
        steals: slot.steals,
        steal_attempts: slot.steal_attempts,
        short: WindowClassStats::from_sink(short),
        long: WindowClassStats::from_sink(long),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(r: &mut LiveRecorder, limit_secs: u64) {
        r.close_up_to(SimTime::from_secs(limit_secs), 0.5, 0, 0);
    }

    #[test]
    fn windows_close_on_schedule_and_drop_the_partial_tail() {
        let mut r = LiveRecorder::new(SimDuration::from_secs(10));
        r.on_arrival();
        r.on_completion(JobClass::Short, 2_000_000);
        close(&mut r, 10); // closes window 0 exactly at its boundary
        r.on_arrival(); // lands in window 1, which never closes
        let live = r.report();
        assert_eq!(live.windows.len(), 1);
        let w = &live.windows[0];
        assert_eq!(w.index, 0);
        assert_eq!(w.arrivals, 1);
        assert_eq!(w.completions, 1);
        assert_eq!(w.short.completions, 1);
        assert_eq!(w.backlog, 0);
        assert!((live.arrival_rate(w) - 0.1).abs() < 1e-12);
        assert_eq!(live.start_of(w), SimTime::ZERO);
    }

    #[test]
    fn backlog_counts_unresolved_offers() {
        let mut r = LiveRecorder::new(SimDuration::from_secs(1));
        for _ in 0..5 {
            r.on_arrival();
        }
        r.on_shed();
        r.on_completion(JobClass::Long, 500_000);
        close(&mut r, 1);
        let live = r.report();
        assert_eq!(live.windows[0].backlog, 3); // 5 offered − 1 shed − 1 done
        assert_eq!(live.windows[0].sheds, 1);
    }

    #[test]
    fn ring_keeps_only_the_last_windows() {
        let mut r = LiveRecorder::new(SimDuration::from_secs(1));
        for t in 0..LIVE_RING as u64 + 5 {
            r.on_arrival();
            close(&mut r, t + 1);
        }
        let live = r.report();
        assert_eq!(live.windows.len(), LIVE_RING);
        assert_eq!(live.windows.first().unwrap().index, 5);
        assert_eq!(live.windows.last().unwrap().index, LIVE_RING as u64 + 5 - 1);
    }

    #[test]
    fn merge_sums_shards_and_matches_global_histograms() {
        let mut a = LiveRecorder::new(SimDuration::from_secs(1));
        let mut b = LiveRecorder::new(SimDuration::from_secs(1));
        let mut global = LiveRecorder::new(SimDuration::from_secs(1));
        for (i, micros) in [1_000u64, 2_000, 3_000, 500_000, 700_000]
            .iter()
            .enumerate()
        {
            let (half, class) = if i % 2 == 0 {
                (&mut a, JobClass::Short)
            } else {
                (&mut b, JobClass::Long)
            };
            half.on_arrival();
            half.on_completion(class, *micros);
            global.on_arrival();
            global.on_completion(class, *micros);
        }
        a.close_up_to(SimTime::from_secs(1), 0.25, 2, 4);
        b.close_up_to(SimTime::from_secs(1), 0.5, 1, 1);
        global.close_up_to(SimTime::from_secs(1), 0.75, 3, 5);
        let merged = LiveRecorder::merge(&[&a, &b]);
        let solo = global.report();
        assert_eq!(merged.windows.len(), 1);
        let (m, g) = (&merged.windows[0], &solo.windows[0]);
        assert_eq!(m.arrivals, g.arrivals);
        assert_eq!(m.completions, g.completions);
        assert_eq!(m.short, g.short); // histogram merge is exact
        assert_eq!(m.long, g.long);
        assert!((m.occupancy - 0.75).abs() < 1e-12);
        assert_eq!(m.steals, 3);
        assert_eq!(m.steal_attempts, 5);
    }

    #[test]
    fn merge_reports_only_windows_closed_by_every_shard() {
        let mut a = LiveRecorder::new(SimDuration::from_secs(1));
        let mut b = LiveRecorder::new(SimDuration::from_secs(1));
        close(&mut a, 3); // windows 0..3 closed
        close(&mut b, 2); // windows 0..2 closed
        let merged = LiveRecorder::merge(&[&a, &b]);
        assert_eq!(merged.windows.len(), 2);
    }

    #[test]
    fn steal_deltas_are_per_window() {
        let mut r = LiveRecorder::new(SimDuration::from_secs(1));
        r.close_up_to(SimTime::from_secs(1), 0.0, 10, 20);
        r.close_up_to(SimTime::from_secs(2), 0.0, 15, 26);
        let live = r.report();
        assert_eq!(live.windows[0].steals, 10);
        assert_eq!(live.windows[1].steals, 5);
        assert_eq!(live.windows[1].steal_attempts, 6);
    }
}
