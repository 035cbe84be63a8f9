//! Virtual time.
//!
//! All simulated subsystems share a single virtual clock measured in integer
//! nanoseconds since the start of the experiment. [`Nanos`] is used both as
//! an absolute timestamp and as a duration; the arithmetic implementations
//! saturate on underflow so that latency subtraction near time zero is safe.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in virtual time (or a duration), in nanoseconds.
///
/// ```
/// use mccs_sim::Nanos;
/// let t = Nanos::from_micros(50) + Nanos::from_micros(30);
/// assert_eq!(t, Nanos::from_micros(80));
/// assert_eq!(t.as_secs_f64(), 80e-6);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(pub u64);

impl Nanos {
    /// Time zero / the zero duration.
    pub const ZERO: Nanos = Nanos(0);
    /// The maximum representable time; used as "never" in schedulers.
    pub const MAX: Nanos = Nanos(u64::MAX);

    /// Construct from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Nanos(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s * 1_000_000_000)
    }

    /// Construct from fractional seconds, rounding to the nearest nanosecond.
    ///
    /// Negative and non-finite inputs clamp to zero: durations are never
    /// negative in the simulator.
    pub fn from_secs_f64(s: f64) -> Self {
        if s.is_nan() || s <= 0.0 {
            return Nanos::ZERO;
        }
        let ns = s * 1e9;
        // `u64::MAX as f64` rounds up, so compare with >= against 2^64.
        if ns >= 18_446_744_073_709_551_616.0 {
            Nanos::MAX
        } else {
            Nanos(ns.round() as u64)
        }
    }

    /// The raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This time as fractional microseconds.
    fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// This time as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This time as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction: `a.saturating_sub(b)` is zero when `b > a`.
    pub fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition, `None` on overflow.
    pub fn checked_add(self, rhs: Nanos) -> Option<Nanos> {
        self.0.checked_add(rhs.0).map(Nanos)
    }

    /// The earlier of two times.
    pub fn min(self, rhs: Nanos) -> Nanos {
        if self <= rhs {
            self
        } else {
            rhs
        }
    }

    /// The later of two times.
    pub fn max(self, rhs: Nanos) -> Nanos {
        if self >= rhs {
            self
        } else {
            rhs
        }
    }

    /// Multiply a duration by a scalar factor, rounding to nanoseconds.
    pub fn mul_f64(self, factor: f64) -> Nanos {
        Nanos::from_secs_f64(self.as_secs_f64() * factor)
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        *self = *self + rhs;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Nanos {
    fn sub_assign(&mut self, rhs: Nanos) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        iter.fold(Nanos::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Nanos {
    /// Human-scaled rendering: picks ns/µs/ms/s by magnitude.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns < 1_000 {
            write!(f, "{ns}ns")
        } else if ns < 1_000_000 {
            write!(f, "{:.2}us", self.as_micros_f64())
        } else if ns < 1_000_000_000 {
            write!(f, "{:.2}ms", self.as_millis_f64())
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(Nanos::from_micros(1).as_nanos(), 1_000);
        assert_eq!(Nanos::from_millis(1).as_nanos(), 1_000_000);
        assert_eq!(Nanos::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(Nanos::from_secs_f64(1.5).as_nanos(), 1_500_000_000);
    }

    #[test]
    fn from_secs_f64_clamps_bad_inputs() {
        assert_eq!(Nanos::from_secs_f64(-1.0), Nanos::ZERO);
        assert_eq!(Nanos::from_secs_f64(f64::NAN), Nanos::ZERO);
        assert_eq!(Nanos::from_secs_f64(f64::INFINITY), Nanos::MAX);
        assert_eq!(Nanos::from_secs_f64(1e30), Nanos::MAX);
    }

    #[test]
    fn arithmetic_saturates() {
        assert_eq!(Nanos(3) - Nanos(5), Nanos::ZERO);
        assert_eq!(Nanos::MAX + Nanos(1), Nanos::MAX);
        assert_eq!(Nanos(10).saturating_sub(Nanos(4)), Nanos(6));
    }

    #[test]
    fn ordering_and_min_max() {
        let a = Nanos::from_micros(3);
        let b = Nanos::from_micros(7);
        assert!(a < b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn display_picks_scale() {
        assert_eq!(format!("{}", Nanos(500)), "500ns");
        assert_eq!(format!("{}", Nanos::from_micros(12)), "12.00us");
        assert_eq!(format!("{}", Nanos::from_millis(3)), "3.00ms");
        assert_eq!(format!("{}", Nanos::from_secs(2)), "2.000s");
    }

    #[test]
    fn mul_f64_scales() {
        assert_eq!(Nanos::from_secs(2).mul_f64(0.5), Nanos::from_secs(1));
    }

    #[test]
    fn sum_folds() {
        let total: Nanos = [Nanos(1), Nanos(2), Nanos(3)].into_iter().sum();
        assert_eq!(total, Nanos(6));
    }
}
