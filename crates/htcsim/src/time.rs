//! Simulated time: whole seconds since the start of a simulation.
//!
//! HTCondor user logs timestamp events at 1-second resolution, and the
//! paper's bursting simulator replays batches second by second, so a u64
//! second counter is the natural clock for the whole stack.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time (seconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from whole seconds.
    pub fn from_secs(s: u64) -> Self {
        SimTime(s)
    }

    /// Value in seconds.
    pub fn as_secs(self) -> u64 {
        self.0
    }

    /// Value in fractional minutes.
    pub fn as_mins_f64(self) -> f64 {
        self.0 as f64 / 60.0
    }

    /// Value in fractional hours.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / 3600.0
    }

    /// Saturating difference `self - earlier`.
    pub fn since(self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: u64) -> SimTime {
        SimTime(self.0 + rhs)
    }
}

impl AddAssign<u64> for SimTime {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = u64;
    fn sub(self, rhs: SimTime) -> u64 {
        self.0.saturating_sub(rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let h = self.0 / 3600;
        let m = (self.0 % 3600) / 60;
        let s = self.0 % 60;
        write!(f, "{h:02}:{m:02}:{s:02}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        assert_eq!(SimTime::from_secs(90).as_mins_f64(), 1.5);
        assert_eq!(SimTime::from_secs(1800).as_hours_f64(), 0.5);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(100);
        assert_eq!((t + 20).as_secs(), 120);
        let mut u = t;
        u += 5;
        assert_eq!(u.as_secs(), 105);
        assert_eq!(u - t, 5);
        assert_eq!(t - u, 0); // saturating
        assert_eq!(u.since(t), 5);
        assert_eq!(t.since(u), 0);
    }

    #[test]
    fn display_format() {
        assert_eq!(SimTime::from_secs(3_725).to_string(), "01:02:05");
        assert_eq!(SimTime::ZERO.to_string(), "00:00:00");
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert_eq!(SimTime::default(), SimTime::ZERO);
    }
}
