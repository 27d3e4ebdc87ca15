//! Virtual simulation time.
//!
//! All rootcast components share one virtual clock. Time is kept as an
//! integer number of **nanoseconds** since the start of the scenario, which
//! keeps arithmetic exact and makes runs bit-for-bit reproducible (no
//! floating-point drift in the event queue ordering).
//!
//! The paper analyzes a 48-hour window starting 2015-11-30T00:00 UTC; the
//! scenario layer maps `SimTime::ZERO` to that instant, but nothing in this
//! module depends on the mapping.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the virtual clock, in nanoseconds since scenario start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The scenario start instant.
    pub const ZERO: SimTime = SimTime(0);

    /// Largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds since scenario start.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from whole seconds since scenario start.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Construct from whole minutes since scenario start.
    pub const fn from_mins(m: u64) -> Self {
        SimTime::from_secs(m * 60)
    }

    /// Construct from whole hours since scenario start.
    pub const fn from_hours(h: u64) -> Self {
        SimTime::from_secs(h * 3600)
    }

    /// Raw nanoseconds since scenario start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since scenario start, truncated.
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000_000
    }

    /// Seconds since scenario start as a float (for plotting/analysis only;
    /// never used for event ordering).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time since an earlier instant. Saturates at zero rather than
    /// panicking so that analysis code can subtract freely.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The index of the bin of width `bin` containing this instant.
    ///
    /// The paper maps measurements into 10-minute bins (§2.4.1); this is the
    /// primitive that implements that mapping.
    pub fn bin_index(self, bin: SimDuration) -> u64 {
        assert!(bin.0 > 0, "bin width must be positive");
        self.0 / bin.0
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    pub const fn from_mins(m: u64) -> Self {
        SimDuration::from_secs(m * 60)
    }

    pub const fn from_hours(h: u64) -> Self {
        SimDuration::from_secs(h * 3600)
    }

    /// Build from a float number of seconds, rounding to the nearest
    /// nanosecond (halves away from zero, as `f64::round`). Negative and
    /// non-finite inputs clamp to zero; values of 2^64 ns or more
    /// saturate.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 || !s.is_finite() {
            return SimDuration::ZERO;
        }
        let ns = s * 1e9;
        if ns >= 18_446_744_073_709_551_616.0 {
            return SimDuration(u64::MAX);
        }
        // Rounding without the libm call: below 2^53 both the truncation
        // and the remainder are exact, and at or above 2^52 `ns` is
        // already an integer, so the remainder is zero.
        let whole = ns as u64;
        SimDuration(whole + u64::from(ns - whole as f64 >= 0.5))
    }

    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000_000
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// True if this duration is exactly zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0 - d.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, other: SimTime) -> SimDuration {
        SimDuration(self.0 - other.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0 + other.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, other: SimDuration) {
        self.0 += other.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0 - other.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, other: SimDuration) {
        self.0 -= other.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0 * k)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, k: u64) -> SimDuration {
        SimDuration(self.0 / k)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.as_secs();
        write!(f, "{:02}:{:02}:{:02}", s / 3600, (s / 60) % 60, s % 60)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_nanos(1_000_000_000));
        assert_eq!(SimTime::from_mins(2), SimTime::from_secs(120));
        assert_eq!(SimTime::from_hours(1), SimTime::from_mins(60));
        assert_eq!(SimDuration::from_millis(5), SimDuration::from_micros(5_000));
    }

    #[test]
    fn arithmetic_roundtrips() {
        let t = SimTime::from_secs(100);
        let d = SimDuration::from_secs(40);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn bin_index_ten_minutes() {
        let bin = SimDuration::from_mins(10);
        assert_eq!(SimTime::ZERO.bin_index(bin), 0);
        assert_eq!(SimTime::from_mins(9).bin_index(bin), 0);
        assert_eq!(SimTime::from_mins(10).bin_index(bin), 1);
        assert_eq!(SimTime::from_hours(48).bin_index(bin), 288);
    }

    #[test]
    fn saturating_since_clamps() {
        let a = SimTime::from_secs(5);
        let b = SimTime::from_secs(9);
        assert_eq!(b.saturating_since(a), SimDuration::from_secs(4));
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    fn from_secs_f64_handles_edge_cases() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_secs_f64(0.001),
            SimDuration::from_millis(1)
        );
    }

    #[test]
    fn from_secs_f64_rounds_like_f64_round() {
        let reference = |s: f64| -> u64 {
            if s <= 0.0 || !s.is_finite() {
                0
            } else {
                (s * 1e9).round() as u64
            }
        };
        let two52 = 4_503_599_627_370_496.0_f64;
        let two64 = 18_446_744_073_709_551_616.0_f64;
        let cases = [
            0.5e-9,
            1.5e-9,
            2.5e-9,
            0.5f64.next_down() / 1e9,
            (two52 + 0.5) / 1e9,
            (two52 - 0.5) / 1e9,
            two52 * 2.0 / 1e9,
            two64 * (1.0 - f64::EPSILON) / 1e9,
            two64 / 1e9,
            two64 * (1.0 + f64::EPSILON) / 1e9,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 4.0,
            f64::from_bits(1),
            f64::MAX,
            -0.0,
            -1.5e-9,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for s in cases {
            assert_eq!(
                SimDuration::from_secs_f64(s).as_nanos(),
                reference(s),
                "s = {s:e}"
            );
        }
        assert_eq!(SimDuration::from_secs_f64(two64 / 1e9).as_nanos(), u64::MAX);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_secs(3661).to_string(), "01:01:01");
        assert_eq!(SimDuration::from_millis(1500).to_string(), "1.500s");
        assert_eq!(SimDuration::from_micros(250).to_string(), "0.250ms");
        assert_eq!(SimDuration::from_nanos(42).to_string(), "42ns");
    }
}
