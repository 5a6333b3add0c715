//! The scenario layer: one description for "any cluster story".
//!
//! The paper's evaluation (§4) stresses the hybrid design under varied
//! conditions — estimation error, load levels, cluster sizes — but each of
//! those was wired up ad hoc. A [`ScenarioSpec`] composes the full space
//! declaratively:
//!
//! * a **trace family** ([`TraceFamily`]) — which synthetic workload the
//!   jobs are drawn from (the Google 2011 calibration or the paper's
//!   k-means-derived Cloudera/Facebook/Yahoo heavy-tail mixes);
//! * an **arrival process** ([`ArrivalSpec`] / [`ArrivalProcess`]) — how
//!   submissions are spaced: the family's own arrivals or a saturation
//!   ramp (a trace is rewritten to Poisson arrivals (§2.3) with
//!   [`with_poisson_arrivals`](crate::arrivals::with_poisson_arrivals));
//! * a **dynamics script** ([`DynamicsScript`]) — timed node-down/node-up
//!   events the driver replays against the cluster (rolling maintenance,
//!   correlated failures, capacity loss);
//! * a **speed profile** ([`SpeedSpec`]) — per-server execution-speed
//!   factors modeling heterogeneous hardware ("The Power of d Choices in
//!   Scheduling for Data Centers with Heterogeneous Servers" shows this
//!   regime qualitatively changes probe-based placement).
//!
//! With the dynamics script empty and speeds uniform, a scenario is
//! *exactly* a plain experiment: the golden-determinism suite pins that
//! running a dynamics-off scenario is byte-identical to the classic path.

use hawk_simcore::{SimDuration, SimRng, SimTime};
use serde::Serialize;

use crate::arrivals::{PoissonArrivals, SaturationArrivals};
use crate::google::GoogleTraceConfig;
use crate::job::Trace;
use crate::kmeans::KmeansTraceConfig;

/// An arrival process: a deterministic, seedable stream of non-decreasing
/// submission times.
///
/// Unifies [`PoissonArrivals`] and [`SaturationArrivals`] behind one
/// interface so trace shaping ([`retime`]) and scenario descriptions are
/// process-agnostic.
pub trait ArrivalProcess {
    /// Draws the next submission time (non-decreasing across calls).
    fn next_arrival(&mut self, rng: &mut SimRng) -> SimTime;

    /// Appends `count` arrival times to `out` (`out` is cleared first).
    fn take_into(&mut self, count: usize, rng: &mut SimRng, out: &mut Vec<SimTime>) {
        out.clear();
        out.extend((0..count).map(|_| self.next_arrival(rng)));
    }
}

impl ArrivalProcess for PoissonArrivals {
    fn next_arrival(&mut self, rng: &mut SimRng) -> SimTime {
        PoissonArrivals::next_arrival(self, rng)
    }
}

impl ArrivalProcess for SaturationArrivals {
    fn next_arrival(&mut self, rng: &mut SimRng) -> SimTime {
        SaturationArrivals::next_arrival(self, rng)
    }
}

/// Rewrites a trace's submission times by drawing one arrival per job from
/// `process` — the single clone-and-retime helper shared by every
/// `with_*_arrivals` wrapper and by [`ScenarioSpec::trace`].
///
/// Task durations, ids and generated classes are preserved; only the
/// submission column changes.
pub fn retime(trace: &Trace, process: &mut impl ArrivalProcess, rng: &mut SimRng) -> Trace {
    let mut jobs = trace.jobs().to_vec();
    for job in &mut jobs {
        job.submission = process.next_arrival(rng);
    }
    Trace::new(jobs).expect("arrival processes are monotone")
}

/// The synthetic workload families of §4.1, one constructor each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum TraceFamily {
    /// The calibrated Google-2011-like generator at the given cluster
    /// scale divisor (see [`GoogleTraceConfig::with_scale`]).
    Google {
        /// Scale-down divisor: arrivals are slowed `scale`× so clusters
        /// `scale`× smaller than the paper's see the same offered load.
        scale: u64,
    },
    /// Cloudera-b 2011 (Table 1: 7.67 % long jobs, 99.65 % task-seconds).
    ClouderaB,
    /// Cloudera-c 2011.
    ClouderaC,
    /// Cloudera-d 2011.
    ClouderaD,
    /// Facebook 2010.
    Facebook,
    /// Yahoo 2011.
    Yahoo,
}

impl TraceFamily {
    /// Generates a `jobs`-job trace of this family from `seed`.
    pub fn generate(&self, jobs: usize, seed: u64) -> Trace {
        match *self {
            TraceFamily::Google { scale } => {
                GoogleTraceConfig::with_scale(scale, jobs).generate(seed)
            }
            TraceFamily::ClouderaB => KmeansTraceConfig::cloudera_b(jobs).generate(seed),
            TraceFamily::ClouderaC => KmeansTraceConfig::cloudera_c(jobs).generate(seed),
            TraceFamily::ClouderaD => KmeansTraceConfig::cloudera_d(jobs).generate(seed),
            TraceFamily::Facebook => KmeansTraceConfig::facebook(jobs).generate(seed),
            TraceFamily::Yahoo => KmeansTraceConfig::yahoo(jobs).generate(seed),
        }
    }

    /// Workload name for reports.
    pub fn label(&self) -> String {
        match *self {
            TraceFamily::Google { scale } => format!("google-2011/{scale}x"),
            TraceFamily::ClouderaB => "cloudera-b".to_string(),
            TraceFamily::ClouderaC => "cloudera-c".to_string(),
            TraceFamily::ClouderaD => "cloudera-d".to_string(),
            TraceFamily::Facebook => "facebook-2010".to_string(),
            TraceFamily::Yahoo => "yahoo-2011".to_string(),
        }
    }
}

/// Which arrival process a scenario applies on top of its trace family.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum ArrivalSpec {
    /// Keep the family's own generated submissions.
    AsGenerated,
    /// Rewrite submissions with a saturation ramp: Poisson arrivals whose
    /// rate steps `overload`× past the calm rate for the middle third of
    /// the jobs and back — drives a cell past 100 % usable capacity and
    /// back, the admission-control stress test (see
    /// [`SaturationArrivals`]).
    Saturation {
        /// Mean inter-arrival outside the overload plateau.
        mean: SimDuration,
        /// Plateau rate multiplier (≥ 1).
        overload: f64,
    },
}

/// One timed cluster change in a [`DynamicsScript`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ClusterEvent {
    /// When the change happens.
    pub at: SimTime,
    /// What changes.
    pub change: NodeChange,
}

/// A node lifecycle change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum NodeChange {
    /// The server (by dense index) fails/drains: it stops accepting work,
    /// its queue migrates, its running task completes.
    Down(u32),
    /// The server (by dense index) rejoins empty and idle.
    Up(u32),
}

/// A deterministic, time-ordered script of cluster dynamics the driver
/// replays as simulation events.
///
/// An empty script (the default) is the static cluster every pre-scenario
/// experiment ran on — the golden-determinism suite pins that equivalence.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct DynamicsScript {
    events: Vec<ClusterEvent>,
}

impl DynamicsScript {
    /// The empty script: a static cluster.
    pub fn none() -> Self {
        Self::default()
    }

    /// True when the script has no events (the static-cluster fast path).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The scripted events, in insertion order (the driver's event queue
    /// orders them by time; same-time events fire in insertion order).
    pub fn events(&self) -> &[ClusterEvent] {
        &self.events
    }

    /// Adds a node-down event at `at` for server index `server`.
    pub fn down_at(mut self, at: SimTime, server: u32) -> Self {
        self.events.push(ClusterEvent {
            at,
            change: NodeChange::Down(server),
        });
        self
    }

    /// Adds a node-up event at `at` for server index `server`.
    pub fn up_at(mut self, at: SimTime, server: u32) -> Self {
        self.events.push(ClusterEvent {
            at,
            change: NodeChange::Up(server),
        });
        self
    }

    /// A rolling-maintenance script: starting at `first`, every `period`
    /// the next server of `servers` goes down and comes back `downtime`
    /// later, cycling through the list for `cycles` down/up pairs.
    ///
    /// Deterministic by construction; with `downtime < period` at most one
    /// scripted server is down at a time.
    ///
    /// # Panics
    ///
    /// Panics (when a server is scheduled more than once) unless
    /// `downtime < period × servers.len()`: a server must be back up
    /// before its next outage, otherwise the re-down would land on a
    /// still-down server — a no-op at the driver — and the script would
    /// silently simulate fewer outages than it claims.
    pub fn rolling(
        servers: &[u32],
        first: SimTime,
        period: SimDuration,
        downtime: SimDuration,
        cycles: usize,
    ) -> Self {
        assert!(
            !servers.is_empty(),
            "rolling churn needs at least one server"
        );
        assert!(
            cycles <= servers.len() || downtime < period * servers.len() as u64,
            "rolling churn would re-down a still-down server: downtime {downtime} must be \
             shorter than period x servers ({period} x {})",
            servers.len()
        );
        let mut script = DynamicsScript::none();
        for k in 0..cycles {
            let server = servers[k % servers.len()];
            let down = first + period * k as u64;
            script = script.down_at(down, server).up_at(down + downtime, server);
        }
        script
    }

    /// The largest server index the script touches, if any (drivers
    /// validate it against the cluster size).
    pub fn max_server(&self) -> Option<u32> {
        self.events
            .iter()
            .map(|e| match e.change {
                NodeChange::Down(s) | NodeChange::Up(s) => s,
            })
            .max()
    }
}

/// Per-server execution-speed factors: a task of duration `d` runs in
/// `d / speed` on a server with speed factor `speed`.
///
/// [`SpeedSpec::Uniform`] (the default) is the paper's homogeneous cluster
/// and resolves to `None` so the hot path pays nothing for the feature.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub enum SpeedSpec {
    /// Every server at nominal speed 1.0 (the paper's model).
    #[default]
    Uniform,
    /// A two-tier cluster: `slow_fraction` of servers run at `slow_speed`
    /// (< 1 slows, > 1 accelerates), spread evenly across the id space so
    /// both partitions (§3.4) get their share.
    TwoTier {
        /// Fraction of servers in the slow tier, in `[0, 1]`.
        slow_fraction: f64,
        /// Speed factor of the slow tier; must be finite and positive.
        slow_speed: f64,
    },
    /// Explicit per-server factors; the length must equal the cluster
    /// size.
    PerServer(Vec<f64>),
}

/// Refuses an execution-speed factor that is not finite and positive: an
/// infinite one would run every task in zero time.
///
/// # Panics
///
/// Panics on such a factor, naming it.
pub fn check_speed(speed: f64) {
    assert!(
        speed.is_finite() && speed > 0.0,
        "speed factor {speed} must be finite and positive"
    );
}

impl SpeedSpec {
    /// Resolves to per-server factors for a `nodes`-server cluster, or
    /// `None` for the uniform (all 1.0) profile.
    ///
    /// # Panics
    ///
    /// Panics on a speed that is not finite and positive, a fraction
    /// outside `[0, 1]`, or a `PerServer` length mismatch.
    pub fn resolve(&self, nodes: usize) -> Option<Vec<f64>> {
        match self {
            SpeedSpec::Uniform => None,
            SpeedSpec::TwoTier {
                slow_fraction,
                slow_speed,
            } => {
                assert!(
                    (0.0..=1.0).contains(slow_fraction),
                    "slow fraction {slow_fraction} outside [0, 1]"
                );
                check_speed(*slow_speed);
                let slow = (nodes as f64 * slow_fraction).round() as usize;
                // Bresenham spread: server i is slow iff the cumulative
                // quota crosses an integer at i — deterministic and even.
                Some(
                    (0..nodes)
                        .map(|i| {
                            let before = i * slow / nodes.max(1);
                            let after = (i + 1) * slow / nodes.max(1);
                            if after > before {
                                *slow_speed
                            } else {
                                1.0
                            }
                        })
                        .collect(),
                )
            }
            SpeedSpec::PerServer(speeds) => {
                assert_eq!(
                    speeds.len(),
                    nodes,
                    "per-server speed profile length mismatch"
                );
                speeds.iter().copied().for_each(check_speed);
                Some(speeds.clone())
            }
        }
    }

    /// True when the profile is uniformly 1.0 — either [`SpeedSpec::Uniform`]
    /// itself or an equivalent explicit/two-tier spelling.
    pub fn is_uniform(&self) -> bool {
        match self {
            SpeedSpec::Uniform => true,
            SpeedSpec::TwoTier {
                slow_fraction,
                slow_speed,
            } => *slow_fraction == 0.0 || *slow_speed == 1.0,
            SpeedSpec::PerServer(speeds) => speeds.iter().all(|&s| s == 1.0),
        }
    }
}

/// A complete cluster story: trace family × arrival process × dynamics
/// script × speed profile.
///
/// # Examples
///
/// ```
/// use hawk_simcore::{SimDuration, SimTime};
/// use hawk_workload::scenario::{
///     ArrivalSpec, DynamicsScript, ScenarioSpec, SpeedSpec, TraceFamily,
/// };
///
/// // A Google-like workload on a heterogeneous cluster with one rolling
/// // maintenance wave.
/// let scenario = ScenarioSpec::new(TraceFamily::Google { scale: 10 }, 500)
///     .arrivals(ArrivalSpec::Saturation { mean: SimDuration::from_secs(20), overload: 2.0 })
///     .speeds(SpeedSpec::TwoTier { slow_fraction: 0.25, slow_speed: 0.5 })
///     .dynamics(DynamicsScript::rolling(
///         &[0, 1, 2],
///         SimTime::from_secs(1_000),
///         SimDuration::from_secs(600),
///         SimDuration::from_secs(300),
///         6,
///     ));
/// let trace = scenario.trace(42);
/// assert_eq!(trace.len(), 500);
/// assert_eq!(scenario.dynamics.events().len(), 12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScenarioSpec {
    /// The workload family jobs are drawn from.
    pub family: TraceFamily,
    /// Number of jobs generated.
    pub jobs: usize,
    /// The arrival process applied on top of the family.
    pub arrivals: ArrivalSpec,
    /// The cluster dynamics script.
    pub dynamics: DynamicsScript,
    /// The per-server speed profile.
    pub speeds: SpeedSpec,
}

impl ScenarioSpec {
    /// A static, homogeneous scenario of `jobs` jobs from `family` with
    /// the family's own arrivals — exactly a classic experiment.
    pub fn new(family: TraceFamily, jobs: usize) -> Self {
        ScenarioSpec {
            family,
            jobs,
            arrivals: ArrivalSpec::AsGenerated,
            dynamics: DynamicsScript::none(),
            speeds: SpeedSpec::Uniform,
        }
    }

    /// Sets the arrival process.
    pub fn arrivals(mut self, arrivals: ArrivalSpec) -> Self {
        self.arrivals = arrivals;
        self
    }

    /// Sets the dynamics script.
    pub fn dynamics(mut self, dynamics: DynamicsScript) -> Self {
        self.dynamics = dynamics;
        self
    }

    /// Sets the speed profile.
    pub fn speeds(mut self, speeds: SpeedSpec) -> Self {
        self.speeds = speeds;
        self
    }

    /// Generates the scenario's trace deterministically from `seed`: the
    /// family's trace, retimed per the arrival spec. The retime RNG is
    /// derived from `seed` (salted) so arrival shaping never perturbs the
    /// family's own draws.
    pub fn trace(&self, seed: u64) -> Trace {
        let base = self.family.generate(self.jobs, seed);
        match self.arrivals {
            ArrivalSpec::AsGenerated => base,
            ArrivalSpec::Saturation { mean, overload } => {
                let mut rng = SimRng::seed_from_u64(seed ^ RETIME_SALT);
                let mut ramp = SaturationArrivals::new(mean, overload, base.len());
                retime(&base, &mut ramp, &mut rng)
            }
        }
    }

    /// A short human-readable label for reports.
    pub fn label(&self) -> String {
        let mut label = self.family.label();
        match self.arrivals {
            ArrivalSpec::AsGenerated => {}
            ArrivalSpec::Saturation { .. } => label.push_str("+saturation"),
        }
        if !self.dynamics.is_empty() {
            label.push_str("+churn");
        }
        if !self.speeds.is_uniform() {
            label.push_str("+hetero");
        }
        label
    }
}

/// Salt for the retime RNG stream so arrival shaping is independent of the
/// family's generation draws (arbitrary constant, frozen).
const RETIME_SALT: u64 = 0x5CE4_A210_7E71_4E00;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retime_preserves_everything_but_submissions() {
        let trace = TraceFamily::Yahoo.generate(50, 5);
        let mut rng = SimRng::seed_from_u64(8);
        let mut process = PoissonArrivals::new(SimDuration::from_secs(10));
        let retimed = retime(&trace, &mut process, &mut rng);
        assert_eq!(retimed.len(), trace.len());
        for (a, b) in trace.jobs().iter().zip(retimed.jobs()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.tasks, b.tasks);
            assert_eq!(a.generated_class, b.generated_class);
        }
    }

    #[test]
    fn scenario_as_generated_equals_family_trace() {
        let spec = ScenarioSpec::new(TraceFamily::Google { scale: 10 }, 120);
        assert_eq!(
            spec.trace(7),
            GoogleTraceConfig::with_scale(10, 120).generate(7)
        );
    }

    #[test]
    fn scenario_trace_is_deterministic_per_arrival_spec() {
        for arrivals in [
            ArrivalSpec::AsGenerated,
            ArrivalSpec::Saturation {
                mean: SimDuration::from_secs(20),
                overload: 4.0,
            },
        ] {
            let spec = ScenarioSpec::new(TraceFamily::Facebook, 80).arrivals(arrivals);
            assert_eq!(spec.trace(11), spec.trace(11), "{arrivals:?}");
        }
    }

    #[test]
    fn every_family_generates() {
        for family in [
            TraceFamily::Google { scale: 100 },
            TraceFamily::ClouderaB,
            TraceFamily::ClouderaC,
            TraceFamily::ClouderaD,
            TraceFamily::Facebook,
            TraceFamily::Yahoo,
        ] {
            let trace = family.generate(30, 2);
            assert_eq!(trace.len(), 30, "{}", family.label());
        }
    }

    #[test]
    fn rolling_script_alternates_down_up() {
        let script = DynamicsScript::rolling(
            &[4, 9],
            SimTime::from_secs(100),
            SimDuration::from_secs(50),
            SimDuration::from_secs(20),
            4,
        );
        let events = script.events();
        assert_eq!(events.len(), 8);
        assert_eq!(events[0].change, NodeChange::Down(4));
        assert_eq!(events[1].change, NodeChange::Up(4));
        assert_eq!(events[2].change, NodeChange::Down(9));
        assert_eq!(events[2].at, SimTime::from_secs(150));
        // Cycles wrap around the server list.
        assert_eq!(events[4].change, NodeChange::Down(4));
        assert_eq!(script.max_server(), Some(9));
        assert!(!script.is_empty());
        assert!(DynamicsScript::none().is_empty());
        assert_eq!(DynamicsScript::none().max_server(), None);
    }

    #[test]
    #[should_panic(expected = "still-down server")]
    fn rolling_rejects_overlapping_outages_of_one_server() {
        // Two servers, 60 s period, 130 s downtime: server 0's second
        // outage would start while its first is still in progress.
        DynamicsScript::rolling(
            &[0, 1],
            SimTime::from_secs(0),
            SimDuration::from_secs(60),
            SimDuration::from_secs(130),
            4,
        );
    }

    #[test]
    fn two_tier_speeds_spread_evenly() {
        let spec = SpeedSpec::TwoTier {
            slow_fraction: 0.25,
            slow_speed: 0.5,
        };
        let speeds = spec.resolve(100).unwrap();
        assert_eq!(speeds.len(), 100);
        assert_eq!(speeds.iter().filter(|&&s| s == 0.5).count(), 25);
        // Evenly spread: every 20-server window holds 5 slow servers.
        for chunk in speeds.chunks(20) {
            assert_eq!(chunk.iter().filter(|&&s| s == 0.5).count(), 5);
        }
    }

    #[test]
    fn uniform_speeds_resolve_to_none() {
        assert!(SpeedSpec::Uniform.resolve(50).is_none());
        assert!(SpeedSpec::Uniform.is_uniform());
        assert!(SpeedSpec::TwoTier {
            slow_fraction: 0.0,
            slow_speed: 0.5
        }
        .is_uniform());
        assert!(SpeedSpec::PerServer(vec![1.0; 4]).is_uniform());
        assert!(!SpeedSpec::TwoTier {
            slow_fraction: 0.5,
            slow_speed: 0.5
        }
        .is_uniform());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn per_server_length_must_match() {
        SpeedSpec::PerServer(vec![1.0; 3]).resolve(4);
    }

    #[test]
    #[should_panic(expected = "speed factor inf must be finite and positive")]
    fn two_tier_refuses_an_infinite_speed() {
        SpeedSpec::TwoTier {
            slow_fraction: 0.5,
            slow_speed: f64::INFINITY,
        }
        .resolve(4);
    }

    #[test]
    #[should_panic(expected = "speed factor inf must be finite and positive")]
    fn per_server_refuses_an_infinite_speed() {
        SpeedSpec::PerServer(vec![1.0, f64::INFINITY]).resolve(2);
    }

    #[test]
    fn scenario_labels_compose() {
        let spec = ScenarioSpec::new(TraceFamily::Yahoo, 10)
            .arrivals(ArrivalSpec::Saturation {
                mean: SimDuration::from_secs(20),
                overload: 4.0,
            })
            .speeds(SpeedSpec::TwoTier {
                slow_fraction: 0.2,
                slow_speed: 0.5,
            })
            .dynamics(DynamicsScript::none().down_at(SimTime::from_secs(1), 0));
        assert_eq!(spec.label(), "yahoo-2011+saturation+churn+hetero");
        assert_eq!(
            ScenarioSpec::new(TraceFamily::Yahoo, 10).label(),
            "yahoo-2011"
        );
    }
}
