//! Summary statistics for the evaluation harness.
//!
//! The paper reports 50th/90th percentile job runtimes, medians of
//! utilization snapshots and averages. These helpers implement those
//! reductions with a fixed, documented percentile method so results are
//! reproducible; a CDF row (Figures 1 and 4) sorts its own series and reads
//! it with [`percentile_of_sorted`].

use serde::{Deserialize, Serialize};

/// Returns the `p`-th percentile (0.0–100.0) of `values` using linear
/// interpolation between closest ranks (the same method as `numpy.percentile`
/// default).
///
/// Returns `None` for an empty slice.
///
/// # Examples
///
/// ```
/// use hawk_simcore::stats::percentile;
///
/// let v = vec![1.0, 2.0, 3.0, 4.0];
/// assert_eq!(percentile(&v, 50.0), Some(2.5));
/// assert_eq!(percentile(&v, 100.0), Some(4.0));
/// assert_eq!(percentile(&v, 0.0), Some(1.0));
/// assert_eq!(percentile(&[][..].to_vec(), 50.0), None);
/// ```
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("percentile: NaN in input"));
    Some(percentile_of_sorted(&sorted, p))
}

/// Percentile of an already ascending-sorted slice (no copy, no sort).
///
/// # Panics
///
/// Panics if the slice is empty.
pub fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    let p = p.clamp(0.0, 100.0);
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Returns the median of `values`, or `None` if empty.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// Returns the arithmetic mean, or `None` if empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// Significant mantissa bits kept by [`StreamingQuantiles`]: bucket
/// boundaries are spaced a relative `2^-7 = 1/128` apart beyond the exact
/// region, which is what bounds the sink's quantile error.
const QUANTILE_SIG_BITS: u32 = 7;
/// Values below `2^QUANTILE_SIG_BITS` get exact singleton buckets.
const QUANTILE_LINEAR: u64 = 1 << QUANTILE_SIG_BITS;
/// Largest value exponent the sink resolves; values at or beyond
/// `2^(QUANTILE_MAX_EXP + 1)` µs (~50 simulated days) clamp into the last
/// bucket.
const QUANTILE_MAX_EXP: u32 = 41;
/// Total bucket count: the linear region plus one
/// `2^QUANTILE_SIG_BITS`-bucket group per exponent.
const QUANTILE_BUCKETS: usize =
    (QUANTILE_LINEAR as usize) * (1 + (QUANTILE_MAX_EXP - QUANTILE_SIG_BITS + 1) as usize);

/// A bounded-memory streaming quantile sink over `u64` samples
/// (microseconds, in this codebase), in the spirit of GK/CKMS summaries
/// but implemented as an HDR-histogram-style log-bucketed counter array so
/// that recording is branch-light integer math, memory is fixed at
/// construction, and merging shards is exact.
///
/// # Guarantee
///
/// For any recorded stream, [`StreamingQuantiles::quantile`] is within a
/// relative error of [`StreamingQuantiles::RELATIVE_ERROR`] (`1/128`,
/// ~0.8 %) of [`percentile_of_sorted`] applied to the exact sorted stream:
/// `|est − exact| ≤ RELATIVE_ERROR × exact`. Values below 128 µs are held
/// in exact singleton buckets (zero error); above that, each bucket spans
/// a relative width of `2^-7` and is represented by its midpoint, so any
/// single sample is reconstructed within `2^-8` — the documented bound
/// keeps a 2× margin for the rank interpolation. Values beyond
/// `~2^42` µs clamp into the last bucket (far outside any simulated
/// runtime).
///
/// # Merging
///
/// Bucketing a value is a pure function of the value, so
/// [`StreamingQuantiles::merge`] (element-wise count addition) makes a
/// merged sink *bit-identical* to a single sink fed the union of the
/// streams — per-shard sinks lose nothing relative to a global one.
///
/// # Memory
///
/// One `Vec<u64>` of 4,608 buckets (36 KiB), allocated once at
/// construction; [`StreamingQuantiles::record`],
/// [`StreamingQuantiles::quantile`] and [`StreamingQuantiles::reset`]
/// never allocate, which is what lets the steady-state event loop feed a
/// sink under the zero-allocation regression window.
#[derive(Clone)]
pub struct StreamingQuantiles {
    buckets: Vec<u64>,
    count: u64,
}

impl std::fmt::Debug for StreamingQuantiles {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingQuantiles")
            .field("count", &self.count)
            .field("buckets", &self.buckets.len())
            .finish()
    }
}

impl Default for StreamingQuantiles {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamingQuantiles {
    /// The documented relative-error bound of [`StreamingQuantiles::quantile`]
    /// versus [`percentile_of_sorted`] over the same stream.
    pub const RELATIVE_ERROR: f64 = 1.0 / 128.0;

    /// Creates an empty sink with all memory pre-allocated.
    pub fn new() -> Self {
        StreamingQuantiles {
            buckets: vec![0; QUANTILE_BUCKETS],
            count: 0,
        }
    }

    /// Bucket index of `value`: exact below the linear cutoff, then the
    /// top [`QUANTILE_SIG_BITS`] mantissa bits within each power-of-two
    /// exponent group.
    fn index(value: u64) -> usize {
        if value < QUANTILE_LINEAR {
            return value as usize;
        }
        let value = value.min((1u64 << (QUANTILE_MAX_EXP + 1)) - 1);
        let exp = 63 - value.leading_zeros();
        let mantissa = (value >> (exp - QUANTILE_SIG_BITS)) - QUANTILE_LINEAR;
        (QUANTILE_LINEAR as usize) * (1 + (exp - QUANTILE_SIG_BITS) as usize) + mantissa as usize
    }

    /// Midpoint representative of bucket `index` (exact for the linear
    /// region's singleton buckets).
    fn representative(index: usize) -> f64 {
        let linear = QUANTILE_LINEAR as usize;
        if index < linear {
            return index as f64;
        }
        let group = (index - linear) / linear;
        let mantissa = ((index - linear) % linear) as u64;
        let lo = (QUANTILE_LINEAR + mantissa) << group;
        let width = 1u64 << group;
        lo as f64 + width as f64 / 2.0
    }

    /// Records one sample. Never allocates.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::index(value)] += 1;
        self.count += 1;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Folds `other` into `self` (element-wise count addition). The result
    /// is bit-identical to one sink fed both streams in any order.
    pub fn merge(&mut self, other: &StreamingQuantiles) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
    }

    /// Clears all counts, keeping the allocation (window reuse).
    pub fn reset(&mut self) {
        self.buckets.fill(0);
        self.count = 0;
    }

    /// Representative of the sample at sorted position `rank` (0-based).
    fn value_at(&self, rank: u64) -> f64 {
        let mut cumulative = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cumulative += c;
            if rank < cumulative {
                return Self::representative(i);
            }
        }
        unreachable!("rank {rank} beyond recorded count {}", self.count)
    }

    /// The `p`-th quantile (0.0–100.0) of the recorded stream, or `None`
    /// if empty — same linear-interpolation rank convention as
    /// [`percentile_of_sorted`], within the documented
    /// [`StreamingQuantiles::RELATIVE_ERROR`] of it. Never allocates.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = p / 100.0 * (self.count - 1) as f64;
        let lo = rank.floor() as u64;
        let hi = rank.ceil() as u64;
        let frac = rank - lo as f64;
        let lo_value = self.value_at(lo);
        let hi_value = if hi == lo {
            lo_value
        } else {
            self.value_at(hi)
        };
        Some(lo_value + (hi_value - lo_value) * frac)
    }
}

/// Streaming mean/variance accumulator (Welford's algorithm).
///
/// Used for utilization snapshots and other per-run series where storing
/// every sample would be wasteful.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of observations, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.mean)
    }

    /// Population variance, or `None` if empty.
    pub fn variance(&self) -> Option<f64> {
        (self.count > 0).then(|| self.m2 / self.count as f64)
    }

    /// Standard deviation, or `None` if empty.
    pub fn std_dev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Minimum observation, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum observation, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v: Vec<f64> = (1..=10).map(|x| x as f64).collect();
        assert_eq!(percentile(&v, 50.0), Some(5.5));
        assert_eq!(percentile(&v, 90.0), Some(9.1));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
    }

    #[test]
    fn percentile_single_value() {
        assert_eq!(percentile(&[42.0], 90.0), Some(42.0));
    }

    #[test]
    fn percentile_unsorted_input() {
        let v = vec![9.0, 1.0, 5.0, 3.0, 7.0];
        assert_eq!(percentile(&v, 50.0), Some(5.0));
    }

    #[test]
    fn percentile_clamps_out_of_range_p() {
        let v = vec![1.0, 2.0];
        assert_eq!(percentile(&v, -5.0), Some(1.0));
        assert_eq!(percentile(&v, 150.0), Some(2.0));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(mean(&[1.0, 2.0, 3.0, 4.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[]), None);
    }

    fn exact(values: &mut [u64], p: f64) -> f64 {
        values.sort_unstable();
        let sorted: Vec<f64> = values.iter().map(|&v| v as f64).collect();
        percentile_of_sorted(&sorted, p)
    }

    fn assert_within_bound(sink: &StreamingQuantiles, values: &mut [u64], p: f64) {
        let want = exact(values, p);
        let got = sink.quantile(p).expect("non-empty sink");
        let tolerance = StreamingQuantiles::RELATIVE_ERROR * want + 1e-9;
        assert!(
            (got - want).abs() <= tolerance,
            "p{p}: streaming {got} vs exact {want} (tolerance {tolerance})"
        );
    }

    #[test]
    fn streaming_quantiles_empty_and_counts() {
        let mut sink = StreamingQuantiles::new();
        assert!(sink.is_empty());
        assert_eq!(sink.quantile(50.0), None);
        sink.record(0);
        sink.record(u64::MAX); // clamps into the last bucket, no panic
        assert_eq!(sink.count(), 2);
        assert!(!sink.is_empty());
    }

    #[test]
    fn streaming_quantiles_exact_in_linear_region() {
        let mut sink = StreamingQuantiles::new();
        for v in 0..QUANTILE_LINEAR {
            sink.record(v);
        }
        // Singleton buckets: every quantile of a sub-128 stream is the
        // same interpolation `percentile_of_sorted` computes, exactly.
        let mut values: Vec<u64> = (0..QUANTILE_LINEAR).collect();
        for p in [0.0, 10.0, 50.0, 90.0, 99.0, 100.0] {
            let want = exact(&mut values, p);
            assert_eq!(sink.quantile(p), Some(want), "p{p}");
        }
    }

    #[test]
    fn streaming_quantiles_within_documented_bound() {
        // Deterministic LCG over a heavy-tailed-ish range spanning both
        // the linear region and many exponent groups.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut values = Vec::with_capacity(10_000);
        let mut sink = StreamingQuantiles::new();
        for _ in 0..10_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = (state >> 33) % 50_000_000; // 0 .. 50 s in µs
            values.push(v);
            sink.record(v);
        }
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            assert_within_bound(&sink, &mut values, p);
        }
    }

    #[test]
    fn streaming_quantiles_merge_is_exact() {
        let mut a = StreamingQuantiles::new();
        let mut b = StreamingQuantiles::new();
        let mut global = StreamingQuantiles::new();
        for v in 0..1_000u64 {
            let value = v * 977; // spans linear and exponential buckets
            if v % 2 == 0 {
                a.record(value);
            } else {
                b.record(value);
            }
            global.record(value);
        }
        a.merge(&b);
        assert_eq!(a.count(), global.count());
        for p in [0.0, 25.0, 50.0, 90.0, 99.0, 100.0] {
            assert_eq!(a.quantile(p), global.quantile(p), "p{p}");
        }
    }

    #[test]
    fn streaming_quantiles_reset_empties_the_sink() {
        let mut sink = StreamingQuantiles::new();
        sink.record(12_345);
        assert_eq!(sink.count(), 1);
        sink.reset();
        assert!(sink.is_empty());
        assert_eq!(sink.quantile(50.0), None);
    }

    #[test]
    fn streaming_quantiles_bucket_roundtrip_error() {
        // Every representable value reconstructs within half a bucket
        // width: `representative(index(v))` is within `2^-8`·v of v.
        let mut v = 1u64;
        while v < 1u64 << 42 {
            for probe in [v, v + v / 3, v + v / 2] {
                let rep = StreamingQuantiles::representative(StreamingQuantiles::index(probe));
                let err = (rep - probe as f64).abs();
                let bound = (probe as f64) / 256.0 + 0.5;
                assert!(err <= bound, "value {probe}: rep {rep}, err {err}");
            }
            v *= 2;
        }
    }

    #[test]
    fn online_stats_matches_batch() {
        let v: Vec<f64> = (0..100).map(|x| (x as f64) * 0.7 - 3.0).collect();
        let mut s = OnlineStats::new();
        for &x in &v {
            s.push(x);
        }
        let batch_mean = mean(&v).unwrap();
        assert!((s.mean().unwrap() - batch_mean).abs() < 1e-9);
        let batch_var = v.iter().map(|x| (x - batch_mean).powi(2)).sum::<f64>() / v.len() as f64;
        assert!((s.variance().unwrap() - batch_var).abs() < 1e-9);
        assert_eq!(s.min().unwrap(), -3.0);
        assert_eq!(s.max().unwrap(), 99.0 * 0.7 - 3.0);
        assert_eq!(s.count(), 100);
    }

    #[test]
    fn online_stats_empty() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), None);
        assert_eq!(s.variance(), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }
}
