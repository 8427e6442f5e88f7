//! Simulated time.
//!
//! The simulator tracks time as an integer number of nanoseconds from the
//! start of the simulation. Nanosecond resolution is sufficient for the
//! modeled hardware: the finest-grained latencies in the evaluated
//! architecture (Table 5 of the paper) are cache round trips of a few cycles
//! at 2 GHz, i.e. multiples of 0.5 ns, which we round to whole nanoseconds.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time, in nanoseconds since simulation start.
///
/// `SimTime` is an absolute instant; [`Duration`] is a span between instants.
/// Both are thin wrappers over `u64` and are `Copy`.
///
/// # Examples
///
/// ```
/// use ddp_sim::{Duration, SimTime};
///
/// let t = SimTime::ZERO + Duration::from_micros(1);
/// assert_eq!(t.as_nanos(), 1_000);
/// assert_eq!(t - SimTime::ZERO, Duration::from_nanos(1_000));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
///
/// # Examples
///
/// ```
/// use ddp_sim::Duration;
///
/// let rtt = Duration::from_micros(1);
/// assert_eq!(rtt / 2, Duration::from_nanos(500));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; useful as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `nanos` nanoseconds after simulation start.
    #[must_use]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Returns the instant as nanoseconds since simulation start.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the instant as (fractional) seconds since simulation start.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Returns the span from `earlier` to `self`, or [`Duration::ZERO`] if
    /// `earlier` is later than `self`.
    #[must_use]
    pub fn saturating_since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// Returns the later of two instants.
    #[must_use]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Returns the earlier of two instants.
    #[must_use]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl Duration {
    /// The empty span.
    pub const ZERO: Duration = Duration(0);
    /// The largest representable span.
    pub const MAX: Duration = Duration(u64::MAX);

    /// Creates a span of `nanos` nanoseconds.
    #[must_use]
    pub const fn from_nanos(nanos: u64) -> Self {
        Duration(nanos)
    }

    /// Creates a span of `micros` microseconds.
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        Duration(micros * 1_000)
    }

    /// Creates a span of `millis` milliseconds.
    #[must_use]
    pub const fn from_millis(millis: u64) -> Self {
        Duration(millis * 1_000_000)
    }

    /// Creates a span of `secs` seconds.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        Duration(secs * 1_000_000_000)
    }

    /// Creates a span of `cycles` clock cycles at `ghz` GHz, rounded to the
    /// nearest nanosecond.
    ///
    /// # Examples
    ///
    /// ```
    /// use ddp_sim::Duration;
    ///
    /// // 38 LLC cycles at 2 GHz = 19 ns.
    /// assert_eq!(Duration::from_cycles(38, 2.0), Duration::from_nanos(19));
    /// ```
    #[must_use]
    pub fn from_cycles(cycles: u64, ghz: f64) -> Self {
        Duration((cycles as f64 / ghz).round() as u64)
    }

    /// Returns the span as whole nanoseconds.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the span as (fractional) seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Returns `true` if the span is empty.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies the span by a floating-point factor, rounding to the
    /// nearest nanosecond.
    #[must_use]
    pub fn mul_f64(self, factor: f64) -> Duration {
        Duration((self.0 as f64 * factor).round() as u64)
    }

    /// Adds two spans, saturating at [`Duration::MAX`].
    #[must_use]
    pub fn saturating_add(self, other: Duration) -> Duration {
        Duration(self.0.saturating_add(other.0))
    }

    /// Subtracts `other`, returning [`Duration::ZERO`] on underflow.
    #[must_use]
    pub fn saturating_sub(self, other: Duration) -> Duration {
        Duration(self.0.saturating_sub(other.0))
    }

    /// Returns the larger of two spans.
    #[must_use]
    pub fn max(self, other: Duration) -> Duration {
        Duration(self.0.max(other.0))
    }

    /// Returns the smaller of two spans.
    #[must_use]
    pub fn min(self, other: Duration) -> Duration {
        Duration(self.0.min(other.0))
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: Duration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    fn sub(self, rhs: SimTime) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, Add::add)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        format_nanos(self.0, f)
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        format_nanos(self.0, f)
    }
}

/// Formats a nanosecond count with a human-friendly unit.
fn format_nanos(nanos: u64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if nanos >= 1_000_000_000 {
        write!(f, "{:.3}s", nanos as f64 / 1e9)
    } else if nanos >= 1_000_000 {
        write!(f, "{:.3}ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        write!(f, "{:.3}us", nanos as f64 / 1e3)
    } else {
        write!(f, "{nanos}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::from_nanos(500);
        let d = Duration::from_nanos(250);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn duration_constructors_scale() {
        assert_eq!(Duration::from_micros(3).as_nanos(), 3_000);
        assert_eq!(Duration::from_millis(2).as_nanos(), 2_000_000);
        assert_eq!(Duration::from_secs(1).as_nanos(), 1_000_000_000);
    }

    #[test]
    fn cycles_round_to_nearest_nanosecond() {
        // 12 cycles at 2 GHz = 6 ns exactly.
        assert_eq!(Duration::from_cycles(12, 2.0), Duration::from_nanos(6));
        // 2 cycles at 2 GHz = 1 ns exactly.
        assert_eq!(Duration::from_cycles(2, 2.0), Duration::from_nanos(1));
        // 3 cycles at 2 GHz = 1.5 ns, rounds to 2.
        assert_eq!(Duration::from_cycles(3, 2.0), Duration::from_nanos(2));
    }

    #[test]
    fn saturating_since_clamps_to_zero() {
        let a = SimTime::from_nanos(10);
        let b = SimTime::from_nanos(20);
        assert_eq!(b.saturating_since(a), Duration::from_nanos(10));
        assert_eq!(a.saturating_since(b), Duration::ZERO);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimTime::from_nanos(5).to_string(), "5ns");
        assert_eq!(SimTime::from_nanos(1_500).to_string(), "1.500us");
        assert_eq!(SimTime::from_nanos(2_500_000).to_string(), "2.500ms");
        assert_eq!(SimTime::from_nanos(1_200_000_000).to_string(), "1.200s");
    }

    #[test]
    fn duration_sum_and_scalar_ops() {
        let total: Duration = [1u64, 2, 3].iter().map(|&n| Duration::from_nanos(n)).sum();
        assert_eq!(total, Duration::from_nanos(6));
        assert_eq!(total * 2, Duration::from_nanos(12));
        assert_eq!(total / 3, Duration::from_nanos(2));
    }

    #[test]
    fn mul_f64_rounds() {
        assert_eq!(
            Duration::from_nanos(100).mul_f64(1.256),
            Duration::from_nanos(126)
        );
    }

    #[test]
    fn min_max_orderings() {
        let a = SimTime::from_nanos(1);
        let b = SimTime::from_nanos(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let x = Duration::from_nanos(7);
        let y = Duration::from_nanos(9);
        assert_eq!(x.max(y), y);
        assert_eq!(x.min(y), x);
    }
}
