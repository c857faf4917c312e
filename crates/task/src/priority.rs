//! Fixed-priority levels and priority-assignment policies.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A fixed priority level.
///
/// Lower numeric values denote *higher* priority, matching the index-based
/// convention used in the rate-monotonic literature (τ1 is the highest-priority
/// task) and by the FP-TS splitting algorithm of Guan et al. (RTAS 2010) which
/// the paper adopts.
///
/// # Example
///
/// ```
/// use spms_task::Priority;
///
/// let high = Priority::new(0);
/// let low = Priority::new(7);
/// assert!(high.is_higher_than(low));
/// assert!(high < low); // Ord follows the numeric value
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct Priority(u32);

impl Priority {
    /// The highest expressible priority.
    pub const HIGHEST: Priority = Priority(0);
    /// The lowest expressible priority.
    pub const LOWEST: Priority = Priority(u32::MAX);

    /// Creates a priority from its numeric level (0 = highest).
    #[inline]
    pub const fn new(level: u32) -> Self {
        Priority(level)
    }

    /// The numeric level (0 = highest).
    #[inline]
    pub const fn level(self) -> u32 {
        self.0
    }

    /// Whether `self` denotes a strictly higher priority than `other`.
    #[inline]
    pub const fn is_higher_than(self, other: Priority) -> bool {
        self.0 < other.0
    }

    /// Whether `self` denotes a strictly lower priority than `other`.
    #[inline]
    pub const fn is_lower_than(self, other: Priority) -> bool {
        self.0 > other.0
    }

    /// The next lower priority level (saturating).
    #[inline]
    pub const fn lower(self) -> Priority {
        Priority(self.0.saturating_add(1))
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl From<u32> for Priority {
    fn from(level: u32) -> Self {
        Priority(level)
    }
}

impl From<Priority> for u32 {
    fn from(p: Priority) -> Self {
        p.0
    }
}

/// A policy for assigning fixed priorities to a task set.
///
/// The paper's FP-TS scheduler is based on rate-monotonic scheduling, so
/// [`PriorityAssignment::RateMonotonic`] is the default everywhere in the
/// workspace; deadline-monotonic assignment is provided for constrained
/// deadline experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum PriorityAssignment {
    /// Shorter period ⇒ higher priority (ties broken by task id).
    #[default]
    RateMonotonic,
    /// Shorter relative deadline ⇒ higher priority (ties broken by task id).
    DeadlineMonotonic,
    /// Keep the priorities already stored on the tasks; tasks without a
    /// priority keep their relative order after all prioritised tasks.
    Explicit,
}

impl fmt::Display for PriorityAssignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PriorityAssignment::RateMonotonic => write!(f, "rate-monotonic"),
            PriorityAssignment::DeadlineMonotonic => write!(f, "deadline-monotonic"),
            PriorityAssignment::Explicit => write!(f, "explicit"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_matches_numeric_level() {
        assert!(Priority::new(0) < Priority::new(1));
        assert!(Priority::new(0).is_higher_than(Priority::new(1)));
        assert!(Priority::new(5).is_lower_than(Priority::new(2)));
    }

    #[test]
    fn higher_and_lower_saturate() {
        assert_eq!(Priority::LOWEST.lower(), Priority::LOWEST);
        assert_eq!(Priority::new(3).lower(), Priority::new(4));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Priority::new(3).to_string(), "P3");
        assert_eq!(
            PriorityAssignment::RateMonotonic.to_string(),
            "rate-monotonic"
        );
    }

    #[test]
    fn conversions_roundtrip() {
        let p: Priority = 9u32.into();
        let level: u32 = p.into();
        assert_eq!(level, 9);
    }
}
