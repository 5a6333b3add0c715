//! Prototype run results, in the simulator's metric conventions.
//!
//! [`ProtoReport`] holds what a prototype run measured and analyses none
//! of it: [`ProtoReport::into_metrics`] converts the run into a
//! [`MetricsReport`], whose percentiles, summaries and utilization figures
//! are the simulator's own code, so a prototype number and a simulator
//! number are computed by one code path and are directly comparable.

use std::time::Duration;

use hawk_core::{AdmissionStats, JobResult, MetricsReport, StreamingStats};
use hawk_net::NetworkStats;
use hawk_simcore::stats::median;
use hawk_simcore::SimTime;
use hawk_workload::{JobClass, JobId};

/// One job's outcome in a prototype run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProtoJobResult {
    /// The job.
    pub job: JobId,
    /// Class under the configured cutoff (exact estimates).
    pub class: JobClass,
    /// Number of tasks.
    pub num_tasks: usize,
    /// When the job was submitted, relative to run start (wall clock in
    /// the threaded runtime, virtual clock in the deterministic one).
    pub submit_offset: Duration,
    /// Runtime: completion − submission.
    pub runtime: Duration,
}

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

/// Everything measured in one prototype run.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtoReport {
    /// Per-job outcomes, indexed by job id.
    pub jobs: Vec<ProtoJobResult>,
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
    /// Streaming per-class runtime quantiles folded from the bounded
    /// sinks both runtimes feed at job completion — the prototype's half
    /// of the serving-mode conformance check. Shed jobs are excluded,
    /// mirroring the simulator's sinks. Mapped into
    /// [`MetricsReport::streaming`] by [`Self::into_metrics`].
    pub streaming: StreamingStats,
    /// Admission-control outcome counters from the shared
    /// [`AdmissionPlan`](hawk_core::AdmissionPlan). Unlike the fault
    /// counters these *are* mapped into [`MetricsReport::admission`]:
    /// the plan is a pure function of the trace and config, so both
    /// backends must report byte-identical counts per seed.
    pub admission: AdmissionStats,
}

impl ProtoReport {
    /// Converts the run into a [`MetricsReport`]: submissions and
    /// completions become microsecond [`SimTime`]s on the run-relative
    /// clock, counters map one-to-one (`messages` → `events`), and the
    /// class recorded at submission becomes both the true and the
    /// scheduled class (the prototype runs exact estimates). The result
    /// plugs straight into [`hawk_core::compare`] and the digest
    /// machinery of the determinism suites.
    pub fn into_metrics(self, scheduler: String, nodes: usize) -> MetricsReport {
        let mut makespan = SimTime::ZERO;
        let results: Vec<JobResult> = self
            .jobs
            .iter()
            .map(|j| {
                let submission = SimTime::from_micros(j.submit_offset.as_micros() as u64);
                let completion =
                    SimTime::from_micros((j.submit_offset + j.runtime).as_micros() as u64);
                makespan = makespan.max(completion);
                JobResult {
                    job: j.job,
                    true_class: j.class,
                    scheduled_class: j.class,
                    submission,
                    completion,
                    num_tasks: j.num_tasks,
                }
            })
            .collect();
        MetricsReport {
            scheduler,
            nodes,
            results,
            median_utilization: median(&self.utilization_samples).unwrap_or(0.0),
            max_utilization: self.utilization_samples.iter().copied().fold(0.0, f64::max),
            utilization_samples: self.utilization_samples,
            makespan,
            events: self.messages,
            steals: self.steals,
            steal_attempts: self.steal_attempts,
            // The daemons run their own protocol copy and keep none of
            // these counters (their per-kind view is `deliveries`, and
            // each owns its queue: there is no shared arena to report).
            steal_scans: 0,
            events_by_kind: Default::default(),
            queue_nodes_high_water: 0,
            queue_arena_growths: 0,
            pending_events_high_water: 0,
            event_arena_growths: 0,
            migrations: self.migrations,
            abandons: self.abandons,
            network: self.network,
            sharded: None,
            streaming: self.streaming,
            live: None,
            admission: self.admission,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(job: u32, class: JobClass, millis: u64) -> ProtoJobResult {
        ProtoJobResult {
            job: JobId(job),
            class,
            num_tasks: 1,
            submit_offset: Duration::ZERO,
            runtime: Duration::from_millis(millis),
        }
    }

    fn report(jobs: Vec<ProtoJobResult>) -> ProtoReport {
        ProtoReport {
            jobs,
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
            admission: AdmissionStats::default(),
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
    /// runtimes: the millisecond-to-`SimTime` conversion loses nothing.
    #[test]
    fn percentile_convention_matches_metrics_report() {
        let millis = [130u64, 20, 510, 90, 250, 40, 730, 610, 170, 380];
        let proto = report(
            millis
                .iter()
                .enumerate()
                .map(|(i, &ms)| result(i as u32, JobClass::Short, ms))
                .collect(),
        )
        .into_metrics("hawk".into(), 1);
        let metrics = MetricsReport {
            scheduler: "pin".into(),
            nodes: 1,
            results: millis
                .iter()
                .enumerate()
                .map(|(i, &ms)| JobResult {
                    job: JobId(i as u32),
                    true_class: JobClass::Short,
                    scheduled_class: JobClass::Short,
                    submission: SimTime::ZERO,
                    completion: SimTime::from_micros(ms * 1_000),
                    num_tasks: 1,
                })
                .collect(),
            median_utilization: 0.0,
            max_utilization: 0.0,
            utilization_samples: vec![],
            makespan: SimTime::ZERO,
            events: 0,
            steals: 0,
            steal_attempts: 0,
            steal_scans: 0,
            events_by_kind: Default::default(),
            queue_nodes_high_water: 0,
            queue_arena_growths: 0,
            pending_events_high_water: 0,
            event_arena_growths: 0,
            migrations: 0,
            abandons: 0,
            network: NetworkStats::default(),
            sharded: None,
            streaming: StreamingStats::default(),
            live: None,
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
        let mut r0 = result(0, JobClass::Short, 100);
        r0.submit_offset = Duration::from_millis(50);
        let mut proto = report(vec![r0, result(1, JobClass::Long, 2_000)]);
        proto.admission = AdmissionStats {
            sheds_short: 0,
            sheds_long: 2,
            deferrals_short: 0,
            deferrals_long: 5,
        };
        let m = proto.clone().into_metrics("hawk".into(), 8);
        assert_eq!(m.scheduler, "hawk");
        assert_eq!(m.nodes, 8);
        assert_eq!(m.results.len(), 2);
        assert_eq!(m.results[0].runtime().as_secs_f64(), 0.1);
        assert_eq!(m.results[0].submission, SimTime::from_micros(50_000));
        assert_eq!(m.makespan, SimTime::from_micros(2_000_000));
        assert_eq!(m.steals, 3);
        assert_eq!(m.steal_attempts, 7);
        assert_eq!(m.events, 100);
        // Admission counters map through — unlike the fault counters,
        // which digests deliberately never see.
        assert_eq!(m.admission, proto.admission);
        assert_eq!(m.admission.sheds(), 2);
        assert_eq!(m.admission.deferrals(), 5);
        assert_eq!(m.runtime_percentile(JobClass::Short, 90.0), Some(0.1));
        assert_eq!(m.median_utilization, 0.5);
        assert_eq!(m.max_utilization, 0.8);
    }
}
