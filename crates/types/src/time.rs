//! Simulated time: spans and instants.
//!
//! The original MINOS ran against real hardware: voice boards played samples
//! in real time, optical disks imposed seek and rotation delays, Ethernet
//! links imposed transfer times. The reproduction replaces all of those with
//! a single discrete simulated clock with microsecond resolution. Device
//! models *charge* durations to the clock; browsing engines *schedule*
//! against it. Because the clock is explicit, every experiment is
//! deterministic and runs as fast as the host CPU allows while still
//! reporting hardware-faithful latencies.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A span of simulated time, in microseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Self(us)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Self(ms * 1_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Self(s * 1_000_000)
    }

    /// Creates a duration from a widened microsecond count, saturating at
    /// `u64::MAX` microseconds (~584,000 years of simulated time).
    ///
    /// Device and link models widen to `u128` for intermediate arithmetic
    /// (`bytes * 1_000_000` overflows `u64` past ~18 TB — the original
    /// `Link::transfer_cost` bug); this is the one sanctioned way back to
    /// a `SimDuration`, and the unit-safety lint (`U001`) flags any raw
    /// `as u64` narrowing that bypasses it.
    pub const fn from_micros_saturating(us: u128) -> Self {
        if us > u64::MAX as u128 {
            Self(u64::MAX)
        } else {
            Self(us as u64)
        }
    }

    /// The duration in microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The duration in whole milliseconds (rounded down).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// The duration in seconds as a float, for reporting.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Checked scaling by a rational factor, rounding to nearest.
    pub fn mul_ratio(self, num: u64, den: u64) -> SimDuration {
        assert!(den > 0, "ratio denominator must be positive");
        SimDuration((self.0.saturating_mul(num) + den / 2) / den)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("SimDuration underflow"))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

/// Honours the formatter's width, fill and alignment, so durations line up
/// in padded table columns.
impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = if self.0 >= 1_000_000 {
            format!("{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            format!("{:.3}ms", self.0 as f64 / 1e3)
        } else {
            format!("{}us", self.0)
        };
        f.pad(&text)
    }
}

/// A point on the simulated timeline, in microseconds since simulation
/// start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SimInstant(u64);

impl SimInstant {
    /// Simulation start.
    pub const EPOCH: SimInstant = SimInstant(0);

    /// Creates an instant at the given microsecond offset.
    pub const fn from_micros(us: u64) -> Self {
        Self(us)
    }

    /// Microseconds since simulation start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Duration elapsed since an earlier instant.
    pub fn since(self, earlier: SimInstant) -> SimDuration {
        SimDuration(self.0.checked_sub(earlier.0).expect("instant ordering violated"))
    }

    /// Saturating duration since another instant (zero if `other` is later).
    pub fn saturating_since(self, other: SimInstant) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl Add<SimDuration> for SimInstant {
    type Output = SimInstant;
    fn add(self, rhs: SimDuration) -> SimInstant {
        SimInstant(self.0 + rhs.as_micros())
    }
}

impl fmt::Display for SimInstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(2), SimDuration::from_millis(2_000));
        assert_eq!(SimDuration::from_millis(3), SimDuration::from_micros(3_000));
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_millis(10);
        let b = SimDuration::from_millis(4);
        assert_eq!(a + b, SimDuration::from_millis(14));
        assert_eq!(a - b, SimDuration::from_millis(6));
        assert_eq!(a * 3, SimDuration::from_millis(30));
        assert_eq!(a / 2, SimDuration::from_millis(5));
        assert_eq!(b.saturating_sub(a), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn duration_sub_underflow_panics() {
        let _ = SimDuration::from_millis(1) - SimDuration::from_millis(2);
    }

    #[test]
    fn from_micros_saturating_clamps_widened_counts() {
        assert_eq!(SimDuration::from_micros_saturating(0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_micros_saturating(1_500), SimDuration::from_micros(1_500));
        assert_eq!(
            SimDuration::from_micros_saturating(u64::MAX as u128),
            SimDuration::from_micros(u64::MAX)
        );
        assert_eq!(
            SimDuration::from_micros_saturating(u128::MAX),
            SimDuration::from_micros(u64::MAX)
        );
    }

    #[test]
    fn mul_ratio_rounds_to_nearest() {
        assert_eq!(SimDuration::from_micros(10).mul_ratio(1, 3), SimDuration::from_micros(3));
        assert_eq!(SimDuration::from_micros(10).mul_ratio(1, 4), SimDuration::from_micros(3)); // 2.5 -> 3
        assert_eq!(SimDuration::from_micros(100).mul_ratio(3, 2), SimDuration::from_micros(150));
    }

    #[test]
    fn instant_ordering_and_since() {
        let t0 = SimInstant::EPOCH;
        let t1 = t0 + SimDuration::from_millis(5);
        assert!(t1 > t0);
        assert_eq!(t1.since(t0), SimDuration::from_millis(5));
        assert_eq!(t0.saturating_since(t1), SimDuration::ZERO);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimDuration::from_micros(12).to_string(), "12us");
        assert_eq!(SimDuration::from_micros(1_500).to_string(), "1.500ms");
        assert_eq!(SimDuration::from_millis(2_500).to_string(), "2.500s");
        assert_eq!(SimInstant::from_micros(42).to_string(), "t+42us");
        let (s, us) = (SimDuration::from_micros(1_646_000), SimDuration::from_micros(12));
        assert_eq!(format!("{s:>9}|{us:<6}|{us:^8}|{s:2}"), "   1.646s|12us  |  12us  |1.646s");
    }
}
