//! Prototype run results, in the simulator's metric conventions.
//!
//! Both execution modes record a run the same way and hand it over once:
//! each job's submission and completion on the run's own clock
//! ([`Outcomes`]), every daemon's counters folded into one
//! [`DaemonStats`], and the utilization samples. [`ProtoReport::new`] is
//! the one place that turns that into a [`ProtoReport`]: the outcomes
//! become the simulator's [`JobResult`]s, and the streaming summary is
//! derived from them ([`StreamingStats::from_results`]), as it is for a
//! simulator run. The report analyses nothing else:
//! [`ProtoReport::into_metrics`] hands the results to a [`MetricsReport`],
//! whose percentiles, summaries and utilization figures are the
//! simulator's own code, so a prototype number and a simulator number are
//! computed by one code path and are directly comparable.

use hawk_core::{AdmissionStats, JobResult, MetricsReport, StreamingStats};
use hawk_net::NetworkStats;
use hawk_simcore::stats::median;
use hawk_simcore::SimTime;
use hawk_workload::{JobClass, JobId, Trace};

/// Declares [`MsgKind`], its table order and its labels from one list.
macro_rules! msg_kinds {
    ($($variant:ident => $name:literal,)*) => {
        /// What a daemon was handed: one kind per
        /// [`WorkerMsg`](crate::WorkerMsg), [`DistMsg`](crate::DistMsg) and
        /// [`CentralMsg`](crate::CentralMsg) variant (a job submission is the
        /// `Submit` of the daemon it is routed to), plus a worker's
        /// task-finish alarm — which is a local timer, not a message, and the
        /// only kind [`ProtoReport::messages`] does not count. Each variant is
        /// documented by its `daemon.message` label.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum MsgKind {
            $(#[doc = $name] $variant,)*
        }

        impl MsgKind {
            /// Every kind, in table order.
            pub const ALL: &'static [MsgKind] = &[$(MsgKind::$variant,)*];

            /// A stable `daemon.message` label.
            pub fn name(self) -> &'static str {
                match self {
                    $(MsgKind::$variant => $name,)*
                }
            }
        }
    };
}

msg_kinds! {
    Probe => "worker.probe",
    Assign => "worker.assign",
    BindReply => "worker.bind_reply",
    StealRequest => "worker.steal_request",
    StealReply => "worker.steal_reply",
    StealAck => "worker.steal_ack",
    BindTimeout => "worker.bind_timeout",
    StealTimeout => "worker.steal_timeout",
    StealRetransmit => "worker.steal_retransmit",
    WorkerNode => "worker.node",
    WorkerShutdown => "worker.shutdown",
    DistSubmit => "dist.submit",
    TaskRequest => "dist.task_request",
    DistTaskDone => "dist.task_done",
    ReProbe => "dist.reprobe",
    Bounce => "dist.bounce",
    DistJobTimeout => "dist.job_timeout",
    DistNode => "dist.node",
    DistShutdown => "dist.shutdown",
    CentralSubmit => "central.submit",
    CentralTaskDone => "central.task_done",
    Relocate => "central.relocate",
    CentralJobTimeout => "central.job_timeout",
    CentralNode => "central.node",
    CentralShutdown => "central.shutdown",
    TaskFinish => "worker.task_finish",
}

/// Deliveries by [`MsgKind`]: a fixed-size table each daemon bumps once
/// per delivery (no allocation), summed into the report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Deliveries([u64; MsgKind::ALL.len()]);

impl std::ops::Index<MsgKind> for Deliveries {
    type Output = u64;

    fn index(&self, kind: MsgKind) -> &u64 {
        &self.0[kind as usize]
    }
}

impl Deliveries {
    pub(crate) fn record(&mut self, kind: MsgKind) {
        self.0[kind as usize] += 1;
    }

    pub(crate) fn absorb(&mut self, other: &Deliveries) {
        for (sum, x) in self.0.iter_mut().zip(other.0) {
            *sum += x;
        }
    }

    /// Every kind with its count, in table order.
    pub fn iter(&self) -> impl Iterator<Item = (MsgKind, u64)> + '_ {
        MsgKind::ALL.iter().map(|&kind| (kind, self[kind]))
    }

    /// Daemon messages delivered: every kind but the task-finish alarm —
    /// by construction [`ProtoReport::messages`].
    pub fn messages(&self) -> u64 {
        self.0.iter().sum::<u64>() - self[MsgKind::TaskFinish]
    }
}

/// Every daemon's counters: one record for workers and both scheduler
/// kinds, each bumping the fields that apply to it, summed into the report
/// by [`DaemonStats::absorb`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct DaemonStats {
    /// Successful steals (workers).
    pub steals: u64,
    /// Steal attempts (workers).
    pub steal_attempts: u64,
    /// Queue entries re-placed or re-probed off failed workers
    /// (schedulers).
    pub migrations: u64,
    /// Reservations abandoned at node failure (distributed schedulers).
    pub abandons: u64,
    /// Messages handled, and a worker's task-finish alarms, by kind.
    pub deliveries: Deliveries,
    /// Hardened protocol: timers that fired after the wait they covered
    /// had resolved, or for a job already complete.
    pub stale_timers: u64,
    /// Hardened protocol: retransmissions (bind requests, grants) and
    /// timer-driven fresh probes.
    pub retries: u64,
    /// Hardened protocol: retry budgets exhausted, and chain fires that
    /// found overdue handed-out work.
    pub timeouts_fired: u64,
    /// Hardened protocol: tasks relaunched under a bumped attempt
    /// (schedulers).
    pub relaunched: u64,
}

impl DaemonStats {
    /// Adds `other`'s counters to these.
    pub(crate) fn absorb(&mut self, other: &DaemonStats) {
        self.steals += other.steals;
        self.steal_attempts += other.steal_attempts;
        self.migrations += other.migrations;
        self.abandons += other.abandons;
        self.deliveries.absorb(&other.deliveries);
        self.stale_timers += other.stale_timers;
        self.retries += other.retries;
        self.timeouts_fired += other.timeouts_fired;
        self.relaunched += other.relaunched;
    }
}

/// Each job's submission and completion on the run's own clock: virtual
/// time, or wall time since the run started.
#[derive(Default)]
pub(crate) struct Outcomes {
    /// `(submission, completion)` by job id.
    times: Vec<(SimTime, Option<SimTime>)>,
    /// Jobs not complete yet.
    open: usize,
}

impl Outcomes {
    /// Every job submitted at its trace time, none complete.
    pub(crate) fn new(trace: &Trace) -> Self {
        Outcomes {
            times: trace
                .jobs()
                .iter()
                .map(|job| (job.submission, None))
                .collect(),
            open: trace.len(),
        }
    }

    /// Moves `job`'s submission to `at`, when it was handed over.
    pub(crate) fn submit(&mut self, job: JobId, at: SimTime) {
        self.times[job.index()].0 = at;
    }

    /// Records `job`'s completion at `at` (never before its submission).
    pub(crate) fn complete(&mut self, job: JobId, at: SimTime) {
        let (submission, completion) = &mut self.times[job.index()];
        debug_assert!(completion.is_none(), "double completion of {job}");
        *completion = Some(at.max(*submission));
        self.open -= 1;
    }

    /// Jobs not complete yet.
    pub(crate) fn open(&self) -> usize {
        self.open
    }
}

/// What one execution mode measured around the daemons.
pub(crate) struct Measured {
    pub outcomes: Outcomes,
    pub utilization_samples: Vec<f64>,
    pub stats: DaemonStats,
    pub network: NetworkStats,
    pub drops: u64,
    pub dups: u64,
}

/// Everything measured in one prototype run.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtoReport {
    /// Per-job outcomes, indexed by job id, in the simulator's
    /// conventions: microseconds on the run's clock (virtual time, or wall
    /// time since the run started), and the class each job was scheduled
    /// under as both the true and the scheduled class (the prototype runs
    /// exact estimates).
    pub results: Vec<JobResult>,
    /// Periodic utilization samples (fraction of workers executing).
    pub utilization_samples: Vec<f64>,
    /// Successful steal operations (entries moved > 0).
    pub steals: u64,
    /// Steal attempts (idle transitions that picked victims).
    pub steal_attempts: u64,
    /// Entries migrated off failed workers (probes re-probed, central
    /// tasks re-placed). Zero on static clusters.
    pub migrations: u64,
    /// Reservations abandoned at node failure (job had no unlaunched
    /// tasks left). Zero on static clusters.
    pub abandons: u64,
    /// Messages processed across all daemons (the prototype's analogue of
    /// the simulator's event count).
    pub messages: u64,
    /// Per-link-class message counts and steal-locality counters from the
    /// virtual router's network topology. All-zero under the flat constant
    /// model and in the threaded runtime (real channels have no modelled
    /// topology).
    pub network: NetworkStats,
    /// Messages dropped by fault injection. Observability only: fault
    /// counters are *not* mapped into [`MetricsReport`] by
    /// [`Self::into_metrics`], so digests compare outcomes, not the fault
    /// machinery that produced them.
    pub drops: u64,
    /// Messages duplicated by fault injection. Excluded from digests.
    pub dups: u64,
    /// Hardened-protocol retransmissions (probe re-sends, bind/steal
    /// retries). Excluded from digests.
    pub retries: u64,
    /// Hardened timeouts that fired after exhausting their retry budget
    /// (or, for job chains, that found overdue work). Excluded from
    /// digests.
    pub timeouts_fired: u64,
    /// Tasks relaunched under a new attempt by the hardened job chains.
    /// Excluded from digests.
    pub relaunched: u64,
    /// What each daemon was handed, by kind. Observability only, like the
    /// fault counters: excluded from [`Self::into_metrics`] and every
    /// digest.
    pub deliveries: Deliveries,
    /// Hardened timer deliveries that found nothing to do: the bind or
    /// steal epoch had moved on, the grant was acked, or the job was
    /// complete. Excluded from digests.
    pub stale_timers: u64,
    /// Streaming per-class runtime quantiles, derived from `results` by
    /// [`StreamingStats::from_results`] as a simulator run's are. Mapped
    /// into [`MetricsReport::streaming`] by [`Self::into_metrics`].
    pub streaming: StreamingStats,
}

impl ProtoReport {
    /// Assembles the report of a run of `trace`, whose jobs were scheduled
    /// under `classes`, from what its execution mode measured.
    pub(crate) fn new(trace: &Trace, classes: &[JobClass], run: Measured) -> ProtoReport {
        let results: Vec<JobResult> = trace
            .jobs()
            .iter()
            .zip(run.outcomes.times)
            .zip(classes)
            .map(|((job, (submission, completion)), &class)| JobResult {
                job: job.id,
                true_class: class,
                scheduled_class: class,
                submission,
                completion: completion.expect("every job completed"),
                num_tasks: job.num_tasks(),
            })
            .collect();
        ProtoReport {
            streaming: StreamingStats::from_results(&results, None),
            results,
            utilization_samples: run.utilization_samples,
            steals: run.stats.steals,
            steal_attempts: run.stats.steal_attempts,
            migrations: run.stats.migrations,
            abandons: run.stats.abandons,
            messages: run.stats.deliveries.messages(),
            network: run.network,
            drops: run.drops,
            dups: run.dups,
            retries: run.stats.retries,
            timeouts_fired: run.stats.timeouts_fired,
            relaunched: run.stats.relaunched,
            deliveries: run.stats.deliveries,
            stale_timers: run.stats.stale_timers,
        }
    }

    /// Converts the run into a [`MetricsReport`]: the results carry over
    /// as they are, counters map one-to-one (`messages` → `events`), and
    /// the makespan is the last completion. Admission control is
    /// simulator-only, so the admission counters are zero. The result
    /// plugs straight into [`hawk_core::compare`] and the digest machinery
    /// of the determinism suites.
    pub fn into_metrics(self, scheduler: String, nodes: usize) -> MetricsReport {
        let makespan = self
            .results
            .iter()
            .map(|r| r.completion)
            .max()
            .unwrap_or(SimTime::ZERO);
        MetricsReport {
            scheduler,
            nodes,
            results: self.results,
            median_utilization: median(&self.utilization_samples).unwrap_or(0.0),
            max_utilization: self.utilization_samples.iter().copied().fold(0.0, f64::max),
            utilization_samples: self.utilization_samples,
            makespan,
            events: self.messages,
            steals: self.steals,
            steal_attempts: self.steal_attempts,
            // The daemons run their own protocol copy and keep none of
            // these counters (their per-kind view is `deliveries`).
            steal_scans: 0,
            events_by_kind: Default::default(),
            migrations: self.migrations,
            abandons: self.abandons,
            network: self.network,
            sharded: None,
            streaming: self.streaming,
            admission: AdmissionStats::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(job: u32, class: JobClass, millis: u64) -> JobResult {
        JobResult {
            job: JobId(job),
            true_class: class,
            scheduled_class: class,
            submission: SimTime::ZERO,
            completion: SimTime::from_micros(millis * 1_000),
            num_tasks: 1,
        }
    }

    fn report(results: Vec<JobResult>) -> ProtoReport {
        ProtoReport {
            results,
            utilization_samples: vec![0.2, 0.8, 0.5],
            steals: 3,
            steal_attempts: 7,
            migrations: 0,
            abandons: 0,
            messages: 100,
            network: NetworkStats::default(),
            drops: 0,
            dups: 0,
            retries: 0,
            timeouts_fired: 0,
            relaunched: 0,
            deliveries: Deliveries::default(),
            stale_timers: 0,
            streaming: StreamingStats::default(),
        }
    }

    /// The per-class analysis of a prototype run is the simulator's own,
    /// read through [`ProtoReport::into_metrics`].
    #[test]
    fn percentiles_by_class() {
        let m = report(vec![
            result(0, JobClass::Short, 100),
            result(1, JobClass::Short, 300),
            result(2, JobClass::Long, 5_000),
        ])
        .into_metrics("hawk".into(), 8);
        assert_eq!(m.runtime_percentile(JobClass::Short, 50.0), Some(0.2));
        assert_eq!(m.runtime_percentile(JobClass::Long, 90.0), Some(5.0));
        assert_eq!(m.mean_runtime(JobClass::Short), Some(0.2));
        let s = m.summary(JobClass::Short);
        assert_eq!(s.jobs, 2);
        assert_eq!(s.p50, Some(0.2));
    }

    #[test]
    fn empty_class_is_none() {
        let m = ProtoReport {
            utilization_samples: vec![],
            ..report(vec![])
        }
        .into_metrics("hawk".into(), 8);
        assert_eq!(m.runtime_percentile(JobClass::Short, 50.0), None);
        assert_eq!(m.summary(JobClass::Long).p50, None);
        // No samples read as an idle cluster.
        assert_eq!(m.median_utilization, 0.0);
        assert_eq!(m.max_utilization, 0.0);
    }

    /// A prototype run read through [`ProtoReport::into_metrics`] gives
    /// the same percentiles and summary as a simulator report of the same
    /// results: the conversion hands them over untouched.
    #[test]
    fn percentile_convention_matches_metrics_report() {
        let millis = [130u64, 20, 510, 90, 250, 40, 730, 610, 170, 380];
        let results: Vec<JobResult> = millis
            .iter()
            .enumerate()
            .map(|(i, &ms)| result(i as u32, JobClass::Short, ms))
            .collect();
        let proto = report(results.clone()).into_metrics("hawk".into(), 1);
        let metrics = MetricsReport {
            scheduler: "pin".into(),
            nodes: 1,
            results,
            median_utilization: 0.0,
            max_utilization: 0.0,
            utilization_samples: vec![],
            makespan: SimTime::ZERO,
            events: 0,
            steals: 0,
            steal_attempts: 0,
            steal_scans: 0,
            events_by_kind: Default::default(),
            migrations: 0,
            abandons: 0,
            network: NetworkStats::default(),
            sharded: None,
            streaming: StreamingStats::default(),
            admission: AdmissionStats::default(),
        };
        for p in [0.0, 10.0, 50.0, 90.0, 99.0, 100.0] {
            assert_eq!(
                proto.runtime_percentile(JobClass::Short, p),
                metrics.runtime_percentile(JobClass::Short, p),
                "percentile {p} diverged between the two report types"
            );
        }
        assert_eq!(
            proto.summary(JobClass::Short),
            metrics.summary(JobClass::Short)
        );
    }

    #[test]
    fn into_metrics_preserves_runtimes_and_counters() {
        let mut r0 = result(0, JobClass::Short, 150);
        r0.submission = SimTime::from_micros(50_000);
        let m = report(vec![r0, result(1, JobClass::Long, 2_000)]).into_metrics("hawk".into(), 8);
        assert_eq!(m.scheduler, "hawk");
        assert_eq!(m.nodes, 8);
        assert_eq!(m.results.len(), 2);
        assert_eq!(m.results[0].runtime().as_secs_f64(), 0.1);
        assert_eq!(m.results[0].submission, SimTime::from_micros(50_000));
        assert_eq!(m.makespan, SimTime::from_micros(2_000_000));
        assert_eq!(m.steals, 3);
        assert_eq!(m.steal_attempts, 7);
        assert_eq!(m.events, 100);
        assert_eq!(m.admission, AdmissionStats::default());
        assert_eq!(m.runtime_percentile(JobClass::Short, 90.0), Some(0.1));
        assert_eq!(m.median_utilization, 0.5);
        assert_eq!(m.max_utilization, 0.8);
    }
}
