//! Deterministic random number generation for simulations.
//!
//! Every experiment in the reproduction is driven by a single `u64` seed.
//! [`SimRng`] implements xoshiro256++ (seeded through SplitMix64, the
//! recommended initialization) plus the handful of distributions the paper's
//! workload generators and schedulers need. Implementing them here — rather
//! than pulling in `rand_distr` — keeps the dependency surface small and the
//! bit streams stable across toolchain updates.

/// A deterministic xoshiro256++ random number generator.
///
/// # Examples
///
/// ```
/// use hawk_simcore::SimRng;
///
/// let mut a = SimRng::seed_from_u64(42);
/// let mut b = SimRng::seed_from_u64(42);
/// assert_eq!(a.next_u64(), b.next_u64());
///
/// // Derived streams are independent of the parent's subsequent output.
/// let mut stream = a.split();
/// let x = stream.gen_range(0, 100);
/// assert!(x < 100);
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
    /// Cached second output of the Box–Muller transform.
    gauss_spare: Option<f64>,
    /// Recycled membership bitmap for [`SimRng::sample_distinct`]: grown to
    /// the largest population sampled and cleared after each call, so the
    /// hot probe-placement path allocates nothing in steady state. Purely
    /// a cache — never affects the output stream.
    sample_scratch: Vec<u64>,
    /// Recycled pick buffer for [`SimRng::sample_distinct_map_into`].
    /// Purely a cache — never affects the output stream.
    pick_scratch: Vec<usize>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed via SplitMix64 expansion.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng {
            s,
            gauss_spare: None,
            sample_scratch: Vec::new(),
            pick_scratch: Vec::new(),
        }
    }

    /// Derives an independent child generator.
    ///
    /// Used to give each simulation component (probe placement, stealing,
    /// workload generation, …) its own stream so that adding draws in one
    /// component does not perturb the others.
    pub fn split(&mut self) -> SimRng {
        SimRng::seed_from_u64(self.next_u64())
    }

    /// Returns the next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits give a uniform dyadic rational in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn gen_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "gen_range: empty range [{lo}, {hi})");
        let span = hi - lo;
        // Lemire's unbiased bounded generation (rejection on the low word).
        let mut x = self.next_u64();
        let mut m = (x as u128) * (span as u128);
        let mut l = m as u64;
        if l < span {
            let t = span.wrapping_neg() % span;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (span as u128);
                l = m as u64;
            }
        }
        lo + (m >> 64) as u64
    }

    /// Returns a uniform `usize` index in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        self.gen_range(0, n as u64) as usize
    }

    /// Returns a uniform `f64` in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Samples an exponential distribution with the given mean (scale).
    ///
    /// Used for job inter-arrival times (Poisson process, §4.1) and for the
    /// per-job task-count / mean-duration draws of the k-means-derived
    /// traces.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not finite and positive.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(
            mean.is_finite() && mean > 0.0,
            "exponential: mean must be positive, got {mean}"
        );
        // Inverse CDF; (1 - U) avoids ln(0).
        -mean * (1.0 - self.next_f64()).ln()
    }

    /// Samples a standard normal via the Box–Muller transform.
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.gauss_spare.take() {
            return z;
        }
        // Box–Muller: two uniforms → two independent standard normals.
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.gauss_spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Samples a normal distribution with the given mean and standard
    /// deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.standard_normal()
    }

    /// Samples a normal truncated to strictly positive values by rejection.
    ///
    /// The paper draws per-task durations from a Gaussian with σ = 2·mean
    /// "excluding negative values" (§4.1); this implements that truncation.
    /// A tiny positive floor guards against zero-length tasks.
    pub fn positive_normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        loop {
            let x = self.normal(mean, std_dev);
            if x > 0.0 {
                return x;
            }
        }
    }

    /// Samples a log-normal distribution parameterized by the underlying
    /// normal's `mu` and `sigma`.
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.standard_normal()).exp()
    }

    /// Samples `count` distinct indices from `[0, n)`, in random order.
    ///
    /// Uses Floyd's algorithm, O(count) expected work, so probing a job with
    /// `2t` probes into a 50,000-server cluster does not touch all servers.
    /// Membership during the walk is tracked in a recycled bitmap (cleared
    /// through the output list afterwards), so the call is hash-free and
    /// allocation-free in steady state; the draw sequence — and therefore
    /// the result — is identical to the original `HashSet`-based version.
    ///
    /// # Panics
    ///
    /// Panics if `count > n`.
    pub fn sample_distinct(&mut self, n: usize, count: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(count);
        self.sample_distinct_into(n, count, &mut out);
        out
    }

    /// Like [`SimRng::sample_distinct`], writing into a caller-provided
    /// buffer (cleared first); the draw sequence is identical to
    /// [`SimRng::sample_distinct`].
    ///
    /// # Panics
    ///
    /// Panics if `count > n`.
    pub fn sample_distinct_into(&mut self, n: usize, count: usize, out: &mut Vec<usize>) {
        assert!(count <= n, "sample_distinct: count {count} > n {n}");
        out.clear();
        let words = n.div_ceil(64);
        if self.sample_scratch.len() < words {
            self.sample_scratch.resize(words, 0);
        }
        for j in (n - count)..n {
            let t = self.index(j + 1);
            let taken = self.sample_scratch[t / 64] >> (t % 64) & 1 != 0;
            let pick = if taken { j } else { t };
            self.sample_scratch[pick / 64] |= 1 << (pick % 64);
            out.push(pick);
        }
        for &pick in out.iter() {
            self.sample_scratch[pick / 64] &= !(1 << (pick % 64));
        }
        // Floyd's algorithm yields a uniformly random *set*; shuffle to make
        // the order uniform too (probe order matters at queue heads).
        self.shuffle(out);
    }

    /// Samples `count` distinct indices from `[0, n)` in random order and
    /// *appends* `map(index)` for each to `out` (no clear), going through
    /// a recycled internal pick buffer so mapped callers — e.g. probe
    /// placement appending `ServerId`s after a full-round prefix — stay
    /// allocation-free too. The draw sequence is identical to
    /// [`SimRng::sample_distinct`].
    ///
    /// # Panics
    ///
    /// Panics if `count > n`.
    pub fn sample_distinct_map_into<T>(
        &mut self,
        n: usize,
        count: usize,
        out: &mut Vec<T>,
        mut map: impl FnMut(usize) -> T,
    ) {
        let mut picks = std::mem::take(&mut self.pick_scratch);
        self.sample_distinct_into(n, count, &mut picks);
        out.extend(picks.iter().map(|&i| map(i)));
        self.pick_scratch = picks;
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.index(i + 1);
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SimRng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = SimRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_range_bounds_and_coverage() {
        let mut r = SimRng::seed_from_u64(2);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let x = r.gen_range(5, 15);
            assert!((5..15).contains(&x));
            seen[(x - 5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values in range should occur");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn gen_range_rejects_empty() {
        SimRng::seed_from_u64(0).gen_range(3, 3);
    }

    #[test]
    fn exponential_mean_close() {
        let mut r = SimRng::seed_from_u64(3);
        let n = 100_000;
        let mean = 50.0;
        let sum: f64 = (0..n).map(|_| r.exponential(mean)).sum();
        let observed = sum / n as f64;
        assert!(
            (observed - mean).abs() / mean < 0.02,
            "exponential mean off: {observed}"
        );
    }

    #[test]
    fn normal_moments_close() {
        let mut r = SimRng::seed_from_u64(4);
        let n = 100_000;
        let (mu, sd) = (10.0, 3.0);
        let samples: Vec<f64> = (0..n).map(|_| r.normal(mu, sd)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - mu).abs() < 0.05, "mean {mean}");
        assert!((var.sqrt() - sd).abs() < 0.05, "sd {}", var.sqrt());
    }

    #[test]
    fn positive_normal_is_positive() {
        let mut r = SimRng::seed_from_u64(5);
        // σ = 2·mean, as in the paper: heavy truncation pressure.
        for _ in 0..10_000 {
            assert!(r.positive_normal(10.0, 20.0) > 0.0);
        }
    }

    #[test]
    fn sample_distinct_properties() {
        let mut r = SimRng::seed_from_u64(6);
        for &(n, k) in &[(10usize, 10usize), (100, 7), (5, 0), (1, 1), (1000, 999)] {
            let s = r.sample_distinct(n, k);
            assert_eq!(s.len(), k);
            let set: std::collections::HashSet<_> = s.iter().collect();
            assert_eq!(set.len(), k, "indices must be distinct");
            assert!(s.iter().all(|&i| i < n));
        }
    }

    #[test]
    fn sample_distinct_map_into_matches_plain_sampling() {
        let mut a = SimRng::seed_from_u64(21);
        let mut b = SimRng::seed_from_u64(21);
        let plain = a.sample_distinct(50, 7);
        let mut mapped: Vec<u64> = vec![999]; // must append, not clear
        b.sample_distinct_map_into(50, 7, &mut mapped, |i| i as u64 * 2);
        assert_eq!(mapped.len(), 8);
        assert_eq!(mapped[0], 999);
        let expect: Vec<u64> = plain.iter().map(|&i| i as u64 * 2).collect();
        assert_eq!(&mapped[1..], &expect[..]);
        // Streams stay aligned afterwards.
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::seed_from_u64(9);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn split_streams_diverge() {
        let mut parent = SimRng::seed_from_u64(11);
        let mut child1 = parent.split();
        let mut child2 = parent.split();
        let a: Vec<u64> = (0..10).map(|_| child1.next_u64()).collect();
        let b: Vec<u64> = (0..10).map(|_| child2.next_u64()).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn log_normal_positive() {
        let mut r = SimRng::seed_from_u64(12);
        for _ in 0..1000 {
            assert!(r.log_normal(1.0, 2.0) > 0.0);
        }
    }
}
