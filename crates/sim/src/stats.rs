//! Measurement utilities: latency histograms and level gauges.
//!
//! The paper reports mean and 95th-percentile latencies plus throughput
//! (Figure 6). [`Histogram`] records nanosecond latencies with bounded
//! relative error (HDR-style bucketing), so percentile queries stay accurate
//! across the ns-to-ms range without storing every sample.

use std::fmt;

use crate::time::Duration;

/// Number of linear sub-buckets per power-of-two bucket. 32 sub-buckets
/// bound the relative quantization error at ~3%.
const SUB_BUCKETS: usize = 32;
const SUB_BITS: u32 = 5; // log2(SUB_BUCKETS)

/// A latency histogram with logarithmic buckets and linear sub-buckets.
///
/// Values are recorded exactly for small magnitudes and with ≤ ~3 % relative
/// error for large ones. Recording is O(1) and allocation-free after
/// construction.
///
/// # Examples
///
/// ```
/// use ddp_sim::{Duration, Histogram};
///
/// let mut h = Histogram::new();
/// for n in 1..=100u64 {
///     h.record(Duration::from_nanos(n));
/// }
/// assert_eq!(h.count(), 100);
/// assert_eq!(h.percentile(0.50).as_nanos(), 50);
/// let p95 = h.percentile(0.95).as_nanos();
/// assert!((93..=97).contains(&p95)); // ~3% quantization above 32 ns
/// ```
#[derive(Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        // 64 - SUB_BITS power-of-two ranges, each with SUB_BUCKETS cells,
        // covers the full u64 range.
        Histogram {
            buckets: vec![0; (64 - SUB_BITS as usize) * SUB_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn index_for(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros();
        let range = (msb - SUB_BITS + 1) as usize;
        let sub = (value >> (msb - SUB_BITS)) as usize & (SUB_BUCKETS - 1);
        range * SUB_BUCKETS + sub
    }

    /// Returns a representative (upper-edge) value for a bucket index.
    fn value_for(index: usize) -> u64 {
        let range = index / SUB_BUCKETS;
        let sub = (index % SUB_BUCKETS) as u64;
        if range == 0 {
            return sub;
        }
        let msb = range as u32 + SUB_BITS - 1;
        ((1u64 << SUB_BITS) | sub) << (msb - SUB_BITS)
    }

    /// Records one latency sample.
    pub fn record(&mut self, value: Duration) {
        let v = value.as_nanos();
        self.buckets[Self::index_for(v)] += 1;
        self.count += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Returns `true` if nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of all recorded samples, or zero if empty.
    #[must_use]
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos((self.sum / u128::from(self.count)) as u64)
    }

    /// Smallest recorded sample, or zero if empty.
    #[must_use]
    pub fn min(&self) -> Duration {
        if self.count == 0 {
            Duration::ZERO
        } else {
            Duration::from_nanos(self.min)
        }
    }

    /// Largest recorded sample, or zero if empty.
    #[must_use]
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max)
    }

    /// The value at quantile `q` in `[0, 1]` (e.g. `0.95` for p95), or zero
    /// if empty. Exact for values below 32 ns, within ~3 % above.
    #[must_use]
    pub fn percentile(&self, q: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                // Clamp the bucket's representative value to the observed
                // extremes so p100 == max and p0 >= min.
                let v = Self::value_for(i).clamp(self.min, self.max);
                return Duration::from_nanos(v);
            }
        }
        Duration::from_nanos(self.max)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Clears all recorded samples.
    pub fn reset(&mut self) {
        self.buckets.iter_mut().for_each(|b| *b = 0);
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("mean", &self.mean())
            .field("p95", &self.percentile(0.95))
            .field("max", &self.max())
            .finish()
    }
}

/// Tracks the running maximum and time-weighted mean of a level (e.g. queue
/// occupancy or buffered-write count).
///
/// # Examples
///
/// ```
/// use ddp_sim::{LevelGauge, SimTime};
///
/// let mut g = LevelGauge::new();
/// g.set(SimTime::from_nanos(0), 10);
/// g.set(SimTime::from_nanos(10), 30);
/// g.finish(SimTime::from_nanos(20));
/// assert_eq!(g.max(), 30);
/// assert_eq!(g.time_weighted_mean(), 20.0); // 10 for 10ns, 30 for 10ns
/// ```
#[derive(Clone, Debug, Default)]
pub struct LevelGauge {
    current: u64,
    max: u64,
    weighted_sum: u128,
    last_change: crate::time::SimTime,
    total_time: u64,
}

impl LevelGauge {
    /// Creates a gauge at level zero.
    #[must_use]
    pub fn new() -> Self {
        LevelGauge::default()
    }

    /// Creates a gauge whose observed window opens at `now` with `level`:
    /// the mean covers `[now, finish]` only, so a gauge carried across a
    /// measurement boundary does not average in the time before it.
    #[must_use]
    pub fn starting_at(now: crate::time::SimTime, level: u64) -> Self {
        LevelGauge {
            current: level,
            max: level,
            last_change: now,
            ..LevelGauge::default()
        }
    }

    /// Records the level changing to `level` at time `now`.
    pub fn set(&mut self, now: crate::time::SimTime, level: u64) {
        let span = now.saturating_since(self.last_change).as_nanos();
        self.weighted_sum += u128::from(self.current) * u128::from(span);
        self.total_time += span;
        self.last_change = now;
        self.current = level;
        self.max = self.max.max(level);
    }

    /// Closes the measurement window at `now`, accounting the final span.
    pub fn finish(&mut self, now: crate::time::SimTime) {
        let level = self.current;
        self.set(now, level);
    }

    /// Current level.
    #[must_use]
    pub fn current(&self) -> u64 {
        self.current
    }

    /// Maximum level ever set.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The time the mean averages over: from the gauge's start to its last
    /// `set` or `finish`. A gauge set only at non-decreasing times and
    /// finished at the window's end observes exactly that window.
    #[must_use]
    pub fn observed(&self) -> Duration {
        Duration::from_nanos(self.total_time)
    }

    /// Time-weighted mean level over the observed window.
    #[must_use]
    pub fn time_weighted_mean(&self) -> f64 {
        if self.total_time == 0 {
            return self.current as f64;
        }
        self.weighted_sum as f64 / self.total_time as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    #[test]
    fn gauge_started_at_t0_averages_over_its_own_window() {
        let mut g = LevelGauge::starting_at(SimTime::from_nanos(1_000), 4);
        g.set(SimTime::from_nanos(1_500), 8);
        g.finish(SimTime::from_nanos(2_000));
        // 4 for 500ns, 8 for 500ns; the 1000ns before t0 is not level 0.
        assert_eq!(g.time_weighted_mean(), 6.0);
        assert_eq!(g.max(), 8);
        let idle = LevelGauge::starting_at(SimTime::from_nanos(1_000), 3);
        assert_eq!(idle.max(), 3, "the opening level counts toward the max");
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), Duration::ZERO);
        assert_eq!(h.percentile(0.5), Duration::ZERO);
        assert_eq!(h.min(), Duration::ZERO);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..32u64 {
            h.record(Duration::from_nanos(v));
        }
        assert_eq!(h.min().as_nanos(), 0);
        assert_eq!(h.max().as_nanos(), 31);
        assert_eq!(h.percentile(1.0).as_nanos(), 31);
    }

    #[test]
    fn large_values_within_relative_error() {
        let mut h = Histogram::new();
        let v = 1_234_567;
        h.record(Duration::from_nanos(v));
        let p = h.percentile(0.5).as_nanos();
        let err = (p as f64 - v as f64).abs() / v as f64;
        assert!(err < 0.04, "relative error {err} too large (got {p})");
    }

    #[test]
    fn percentiles_are_monotone() {
        let mut h = Histogram::new();
        let mut rng = crate::rng::SimRng::seed_from(1);
        for _ in 0..10_000 {
            h.record(Duration::from_nanos(rng.next_below(1_000_000)));
        }
        let mut last = 0;
        for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            let p = h.percentile(q).as_nanos();
            assert!(p >= last, "percentile({q}) = {p} < {last}");
            last = p;
        }
    }

    #[test]
    fn mean_matches_arithmetic_mean() {
        let mut h = Histogram::new();
        for v in [100u64, 200, 300] {
            h.record(Duration::from_nanos(v));
        }
        assert_eq!(h.mean().as_nanos(), 200);
    }

    #[test]
    fn merge_combines_counts_and_extremes() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(Duration::from_nanos(10));
        b.record(Duration::from_nanos(1_000));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min().as_nanos(), 10);
        assert!(a.max().as_nanos() >= 1_000);
    }

    #[test]
    fn reset_clears_everything() {
        let mut h = Histogram::new();
        h.record(Duration::from_nanos(5));
        h.reset();
        assert!(h.is_empty());
        assert_eq!(h.max(), Duration::ZERO);
    }

    #[test]
    fn p95_of_uniform_1_to_100() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(Duration::from_nanos(v));
        }
        let p95 = h.percentile(0.95).as_nanos();
        assert!((93..=97).contains(&p95), "p95 = {p95}");
    }

    #[test]
    fn gauge_tracks_max_and_mean() {
        let mut g = LevelGauge::new();
        g.set(SimTime::from_nanos(0), 4);
        g.set(SimTime::from_nanos(5), 8);
        g.set(SimTime::from_nanos(10), 0);
        g.finish(SimTime::from_nanos(20));
        assert_eq!(g.max(), 8);
        // 4 for 5ns, 8 for 5ns, 0 for 10ns => (20+40)/20 = 3.
        assert!((g.time_weighted_mean() - 3.0).abs() < 1e-9);
        assert_eq!(g.current(), 0);
    }
}
