//! Fixed-point time values with nanosecond resolution.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A point in time or a duration, stored as an integer number of nanoseconds.
///
/// All scheduling arithmetic in the SPMS workspace is performed on `Time`
/// rather than floating-point seconds so that schedulability analysis and the
/// discrete-event simulator agree bit-for-bit on release times, deadlines and
/// budgets.
///
/// `Time` is a thin newtype over `u64`; it saturates on subtraction below zero
/// only through [`Time::saturating_sub`] — the `Sub` operator panics on
/// underflow in debug builds just like plain integer arithmetic, which is the
/// behaviour we want while developing analyses.
///
/// # Example
///
/// ```
/// use spms_task::Time;
///
/// let period = Time::from_millis(10);
/// let wcet = Time::from_micros(2_500);
/// assert_eq!(period.as_nanos(), 10_000_000);
/// assert!((wcet.as_secs_f64() - 0.0025).abs() < 1e-12);
/// ```
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Time(u64);

impl Time {
    /// The zero duration / time origin.
    pub const ZERO: Time = Time(0);
    /// The maximum representable time value.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates a time value from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(nanos: u64) -> Self {
        Time(nanos)
    }

    /// Creates a time value from microseconds.
    #[inline]
    pub const fn from_micros(micros: u64) -> Self {
        Time(micros * 1_000)
    }

    /// Creates a time value from milliseconds.
    #[inline]
    pub const fn from_millis(millis: u64) -> Self {
        Time(millis * 1_000_000)
    }

    /// Creates a time value from whole seconds.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        Time(secs * 1_000_000_000)
    }

    /// Creates a time value from fractional seconds, rounding to the nearest
    /// nanosecond. Negative inputs are clamped to zero.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs <= 0.0 {
            Time::ZERO
        } else {
            Time((secs * 1e9).round() as u64)
        }
    }

    /// Creates a time value from fractional microseconds, rounding to the
    /// nearest nanosecond. Negative inputs are clamped to zero.
    #[inline]
    pub fn from_micros_f64(micros: f64) -> Self {
        if micros <= 0.0 {
            Time::ZERO
        } else {
            Time((micros * 1e3).round() as u64)
        }
    }

    /// Raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Value in milliseconds (integer division).
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Value as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Whether the value is exactly zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction: returns zero instead of underflowing.
    #[inline]
    pub const fn saturating_sub(self, rhs: Time) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }

    /// Checked subtraction.
    #[inline]
    pub const fn checked_sub(self, rhs: Time) -> Option<Time> {
        match self.0.checked_sub(rhs.0) {
            Some(v) => Some(Time(v)),
            None => None,
        }
    }

    /// Checked addition.
    #[inline]
    pub const fn checked_add(self, rhs: Time) -> Option<Time> {
        match self.0.checked_add(rhs.0) {
            Some(v) => Some(Time(v)),
            None => None,
        }
    }

    /// Saturating addition.
    #[inline]
    pub const fn saturating_add(self, rhs: Time) -> Time {
        Time(self.0.saturating_add(rhs.0))
    }

    /// Multiplies by an integer factor.
    #[inline]
    pub const fn saturating_mul(self, factor: u64) -> Time {
        Time(self.0.saturating_mul(factor))
    }

    /// Scales the value by a floating point factor, rounding to the nearest
    /// nanosecond. Negative factors are clamped to zero.
    #[inline]
    pub fn scale(self, factor: f64) -> Time {
        Time::from_secs_f64(self.as_secs_f64() * factor)
    }

    /// Number of whole times `rhs` fits into `self` (integer division).
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    #[inline]
    pub fn div_floor(self, rhs: Time) -> u64 {
        self.0 / rhs.0
    }

    /// Ceiling division: the smallest `k` such that `k * rhs >= self`.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    #[inline]
    pub fn div_ceil(self, rhs: Time) -> u64 {
        self.0.div_ceil(rhs.0)
    }

    /// Ratio of two time values as a floating-point number.
    ///
    /// # Panics
    ///
    /// Panics (returns `inf`) semantics follow IEEE 754 when `rhs` is zero.
    #[inline]
    pub fn ratio(self, rhs: Time) -> f64 {
        self.0 as f64 / rhs.0 as f64
    }

    /// The smaller of the two values.
    #[inline]
    pub fn min(self, rhs: Time) -> Time {
        if self <= rhs {
            self
        } else {
            rhs
        }
    }

    /// The larger of the two values.
    #[inline]
    pub fn max(self, rhs: Time) -> Time {
        if self >= rhs {
            self
        } else {
            rhs
        }
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Pick the most natural unit for display.
        let ns = self.0;
        if ns == 0 {
            write!(f, "0")
        } else if ns.is_multiple_of(1_000_000_000) {
            write!(f, "{}s", ns / 1_000_000_000)
        } else if ns.is_multiple_of(1_000_000) {
            write!(f, "{}ms", ns / 1_000_000)
        } else if ns.is_multiple_of(1_000) {
            write!(f, "{}us", ns / 1_000)
        } else {
            write!(f, "{}ns", ns)
        }
    }
}

impl Add for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Time) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Time) {
        self.0 += rhs.0;
    }
}

impl Sub for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Time) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl SubAssign for Time {
    #[inline]
    fn sub_assign(&mut self, rhs: Time) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Time {
    type Output = Time;
    #[inline]
    fn mul(self, rhs: u64) -> Time {
        Time(self.0 * rhs)
    }
}

impl Mul<Time> for u64 {
    type Output = Time;
    #[inline]
    fn mul(self, rhs: Time) -> Time {
        Time(self * rhs.0)
    }
}

impl Div<u64> for Time {
    type Output = Time;
    #[inline]
    fn div(self, rhs: u64) -> Time {
        Time(self.0 / rhs)
    }
}

impl Rem for Time {
    type Output = Time;
    #[inline]
    fn rem(self, rhs: Time) -> Time {
        Time(self.0 % rhs.0)
    }
}

impl Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        iter.fold(Time::ZERO, |acc, t| acc + t)
    }
}

impl From<u64> for Time {
    /// Interprets the raw integer as nanoseconds.
    fn from(nanos: u64) -> Self {
        Time(nanos)
    }
}

impl From<Time> for u64 {
    fn from(t: Time) -> Self {
        t.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree_on_units() {
        assert_eq!(Time::from_secs(1), Time::from_millis(1_000));
        assert_eq!(Time::from_millis(1), Time::from_micros(1_000));
        assert_eq!(Time::from_micros(1), Time::from_nanos(1_000));
    }

    #[test]
    fn float_roundtrip() {
        let t = Time::from_secs_f64(0.125);
        assert_eq!(t.as_nanos(), 125_000_000);
        assert!((t.as_secs_f64() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn negative_float_clamps_to_zero() {
        assert_eq!(Time::from_secs_f64(-3.0), Time::ZERO);
        assert_eq!(Time::from_micros_f64(-1.0), Time::ZERO);
    }

    #[test]
    fn arithmetic_basics() {
        let a = Time::from_micros(3);
        let b = Time::from_micros(2);
        assert_eq!(a + b, Time::from_micros(5));
        assert_eq!(a - b, Time::from_micros(1));
        assert_eq!(a * 4, Time::from_micros(12));
        assert_eq!(a / 3, Time::from_micros(1));
        assert_eq!((a + b) % a, Time::from_micros(2));
    }

    #[test]
    fn saturating_and_checked() {
        let a = Time::from_nanos(5);
        let b = Time::from_nanos(9);
        assert_eq!(a.saturating_sub(b), Time::ZERO);
        assert_eq!(b.saturating_sub(a), Time::from_nanos(4));
        assert_eq!(a.checked_sub(b), None);
        assert_eq!(Time::MAX.checked_add(a), None);
        assert_eq!(Time::MAX.saturating_add(a), Time::MAX);
    }

    #[test]
    fn division_helpers() {
        let d = Time::from_millis(10);
        let p = Time::from_millis(3);
        assert_eq!(d.div_floor(p), 3);
        assert_eq!(d.div_ceil(p), 4);
        assert!((d.ratio(p) - 10.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn display_picks_natural_unit() {
        assert_eq!(Time::from_secs(2).to_string(), "2s");
        assert_eq!(Time::from_millis(5).to_string(), "5ms");
        assert_eq!(Time::from_micros(7).to_string(), "7us");
        assert_eq!(Time::from_nanos(13).to_string(), "13ns");
        assert_eq!(Time::ZERO.to_string(), "0");
    }

    #[test]
    fn sum_of_times() {
        let total: Time = [
            Time::from_micros(1),
            Time::from_micros(2),
            Time::from_micros(3),
        ]
        .into_iter()
        .sum();
        assert_eq!(total, Time::from_micros(6));
    }

    #[test]
    fn min_max() {
        let a = Time::from_micros(3);
        let b = Time::from_micros(5);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn scale_rounds_to_nanosecond() {
        let t = Time::from_micros(10);
        assert_eq!(t.scale(1.5), Time::from_micros(15));
        assert_eq!(t.scale(0.0), Time::ZERO);
        assert_eq!(t.scale(-2.0), Time::ZERO);
    }
}
