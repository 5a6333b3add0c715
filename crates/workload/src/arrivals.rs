//! Job arrival processes.
//!
//! The paper derives job submission times from a Poisson process (§2.3 uses
//! a 50 s mean; §4.1's real-cluster runs vary the mean inter-arrival time as
//! a multiple of the mean task runtime).

use hawk_simcore::{SimDuration, SimRng, SimTime};

use crate::job::Trace;

/// A Poisson arrival process: exponential i.i.d. inter-arrival gaps.
///
/// # Examples
///
/// ```
/// use hawk_simcore::{SimDuration, SimRng};
/// use hawk_workload::arrivals::PoissonArrivals;
///
/// let mut rng = SimRng::seed_from_u64(1);
/// let mut arrivals = PoissonArrivals::new(SimDuration::from_secs(50));
/// let t1 = arrivals.next_arrival(&mut rng);
/// let t2 = arrivals.next_arrival(&mut rng);
/// assert!(t2 > t1);
/// ```
#[derive(Debug, Clone)]
pub struct PoissonArrivals {
    mean: SimDuration,
    now: SimTime,
}

impl PoissonArrivals {
    /// Creates a process with the given mean inter-arrival time, starting at
    /// time zero.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is zero.
    pub fn new(mean: SimDuration) -> Self {
        assert!(
            !mean.is_zero(),
            "Poisson mean inter-arrival must be positive"
        );
        PoissonArrivals {
            mean,
            now: SimTime::ZERO,
        }
    }

    /// Draws the next arrival time (strictly increasing except for
    /// microsecond-rounding collisions, which are allowed by [`Trace`]).
    pub fn next_arrival(&mut self, rng: &mut SimRng) -> SimTime {
        let gap = rng.exponential(self.mean.as_secs_f64());
        self.now += SimDuration::from_secs_f64(gap);
        self.now
    }

    /// Generates `count` arrival times.
    pub fn take(&mut self, count: usize, rng: &mut SimRng) -> Vec<SimTime> {
        let mut out = Vec::with_capacity(count);
        self.take_into(count, rng, &mut out);
        out
    }

    /// Like [`PoissonArrivals::take`], writing into a caller-recycled
    /// buffer (cleared first) so repeated draws allocate nothing once the
    /// buffer has warmed up. Delegates to the one shared
    /// [`ArrivalProcess::take_into`] implementation.
    ///
    /// [`ArrivalProcess::take_into`]: crate::scenario::ArrivalProcess::take_into
    pub fn take_into(&mut self, count: usize, rng: &mut SimRng, out: &mut Vec<SimTime>) {
        crate::scenario::ArrivalProcess::take_into(self, count, rng, out);
    }
}

/// Rewrites a trace's submission times with a fresh Poisson process.
///
/// Used by the prototype experiments (Figures 16/17), which re-run the same
/// 3,300-job sample at several load levels by regenerating arrivals with
/// mean inter-arrival = `multiplier × mean task runtime` (§4.1).
pub fn with_poisson_arrivals(trace: &Trace, mean: SimDuration, rng: &mut SimRng) -> Trace {
    crate::scenario::retime(trace, &mut PoissonArrivals::new(mean), rng)
}

/// A saturation ramp: Poisson arrivals whose rate steps past the
/// cluster's capacity and back.
///
/// The stream is cut into thirds by job count: the first third arrives
/// with mean gap `calm_mean` (calm), the middle third with mean gap
/// `calm_mean / overload` (the overload plateau), and the final third
/// calm again. With `overload` sized so the plateau's offered load
/// exceeds usable capacity, the scenario drives a cell past 100 % and
/// back — the admission-control stress test: a well-behaved serving mode
/// sheds or defers the excess during the plateau (bounded backlog)
/// instead of growing queues without bound, and recovers in the final
/// third.
#[derive(Debug, Clone)]
pub struct SaturationArrivals {
    calm_mean: SimDuration,
    overload: f64,
    total: usize,
    drawn: usize,
    now: SimTime,
}

impl SaturationArrivals {
    /// Creates a saturation ramp over `total` jobs.
    ///
    /// * `calm_mean` — mean inter-arrival outside the plateau;
    /// * `overload` — how much faster jobs arrive on the plateau (≥ 1;
    ///   1.0 degenerates to plain Poisson);
    /// * `total` — number of jobs the ramp is cut into thirds over.
    ///
    /// # Panics
    ///
    /// Panics on a zero mean, an overload below 1, or zero jobs.
    pub fn new(calm_mean: SimDuration, overload: f64, total: usize) -> Self {
        assert!(!calm_mean.is_zero(), "calm mean must be positive");
        assert!(overload >= 1.0, "overload factor must be >= 1");
        assert!(total > 0, "saturation ramp needs at least one job");
        SaturationArrivals {
            calm_mean,
            overload,
            total,
            drawn: 0,
            now: SimTime::ZERO,
        }
    }

    /// True while the process is on the overload plateau (middle third).
    pub fn in_overload(&self) -> bool {
        let phase = self.drawn * 3 / self.total;
        phase == 1
    }

    /// Draws the next arrival time.
    pub fn next_arrival(&mut self, rng: &mut SimRng) -> SimTime {
        let mean = if self.in_overload() {
            self.calm_mean.as_secs_f64() / self.overload
        } else {
            self.calm_mean.as_secs_f64()
        };
        self.drawn += 1;
        self.now += SimDuration::from_secs_f64(rng.exponential(mean));
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{Job, JobId};

    #[test]
    fn arrivals_are_monotone() {
        let mut rng = SimRng::seed_from_u64(42);
        let mut p = PoissonArrivals::new(SimDuration::from_secs(50));
        let times = p.take(1000, &mut rng);
        for w in times.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn mean_gap_close_to_target() {
        let mut rng = SimRng::seed_from_u64(7);
        let mut p = PoissonArrivals::new(SimDuration::from_secs(50));
        let n = 20_000;
        let times = p.take(n, &mut rng);
        let span = times.last().unwrap().as_secs_f64();
        let mean_gap = span / n as f64;
        assert!(
            (mean_gap - 50.0).abs() < 1.5,
            "observed mean inter-arrival {mean_gap}"
        );
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_mean_rejected() {
        PoissonArrivals::new(SimDuration::ZERO);
    }

    #[test]
    fn saturation_plateau_is_the_middle_third_and_much_faster() {
        let mut rng = SimRng::seed_from_u64(13);
        let n = 9_000;
        let mut p = SaturationArrivals::new(SimDuration::from_secs(30), 6.0, n);
        let mut times = Vec::with_capacity(n);
        for i in 0..n {
            assert_eq!(p.in_overload(), (n / 3..2 * n / 3).contains(&i), "job {i}");
            times.push(p.next_arrival(&mut rng));
        }
        for w in times.windows(2) {
            assert!(w[0] <= w[1]);
        }
        let span = |range: std::ops::Range<usize>| {
            (times[range.end - 1] - times[range.start]).as_secs_f64() / (range.len() - 1) as f64
        };
        let calm_gap = span(0..n / 3);
        let plateau_gap = span(n / 3..2 * n / 3);
        let recovery_gap = span(2 * n / 3..n);
        assert!((calm_gap - 30.0).abs() < 3.0, "calm gap {calm_gap}");
        assert!((plateau_gap - 5.0).abs() < 1.0, "plateau gap {plateau_gap}");
        assert!(
            (recovery_gap - 30.0).abs() < 3.0,
            "recovery gap {recovery_gap}"
        );
    }

    #[test]
    #[should_panic(expected = "overload factor")]
    fn saturation_rejects_sub_one_overload() {
        SaturationArrivals::new(SimDuration::from_secs(10), 0.9, 100);
    }

    #[test]
    fn rewrite_preserves_tasks() {
        let jobs = (0..10)
            .map(|i| Job {
                id: JobId(i),
                submission: SimTime::from_secs(i as u64 * 100),
                tasks: vec![SimDuration::from_secs(i as u64 + 1)],
                generated_class: None,
            })
            .collect();
        let trace = Trace::new(jobs).unwrap();
        let mut rng = SimRng::seed_from_u64(3);
        let rewritten = with_poisson_arrivals(&trace, SimDuration::from_secs(10), &mut rng);
        assert_eq!(rewritten.len(), trace.len());
        for (a, b) in trace.jobs().iter().zip(rewritten.jobs()) {
            assert_eq!(a.tasks, b.tasks);
            assert_eq!(a.id, b.id);
        }
        // Submissions changed (with overwhelming probability).
        assert_ne!(trace.jobs()[5].submission, rewritten.jobs()[5].submission);
    }
}
