//! Observation coverage accounting.
//!
//! Measurement systems lose data exactly when things get interesting:
//! RSSAC-002 collection is best-effort under stress, Atlas probes
//! disconnect mid-event, BGP collectors have feed gaps. Instead of
//! panicking on (or silently absorbing) the holes, every consumer
//! annotates its result with a [`Coverage`] — how much of the expected
//! observation window was actually observed — so downstream analyses
//! can report *partial* results the way the paper reports around
//! missing operator data.

/// Fraction of an expected observation window actually observed.
///
/// Counts are in arbitrary but consistent units (seconds of wall time,
/// probe slots, report bins). `expected == 0.0` means "nothing was ever
/// expected", which counts as complete coverage.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Coverage {
    /// Units actually observed.
    pub observed: f64,
    /// Units that would have been observed with no faults.
    pub expected: f64,
}

impl Coverage {
    /// Full coverage over `expected` units.
    pub fn complete(expected: f64) -> Coverage {
        Coverage {
            observed: expected,
            expected,
        }
    }

    /// Record `units` of expected observation, of which `observed`
    /// actually happened.
    pub fn note(&mut self, units: f64, observed: bool) {
        self.expected += units;
        if observed {
            self.observed += units;
        }
    }

    /// Merge another coverage account into this one.
    pub fn merge(&mut self, other: Coverage) {
        self.observed += other.observed;
        self.expected += other.expected;
    }

    /// Observed fraction in `[0, 1]`; 1.0 when nothing was expected.
    pub fn fraction(&self) -> f64 {
        if self.expected <= 0.0 {
            1.0
        } else {
            (self.observed / self.expected).clamp(0.0, 1.0)
        }
    }

    /// True when nothing expected was missed.
    pub fn is_complete(&self) -> bool {
        self.fraction() >= 1.0 - 1e-12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_coverage_is_complete() {
        let c = Coverage::default();
        assert_eq!(c.fraction(), 1.0);
        assert!(c.is_complete());
    }

    #[test]
    fn note_tracks_fraction() {
        let mut c = Coverage::default();
        c.note(60.0, true);
        c.note(60.0, false);
        c.note(60.0, true);
        assert!((c.fraction() - 2.0 / 3.0).abs() < 1e-12);
        assert!(!c.is_complete());
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Coverage::complete(10.0);
        let b = Coverage {
            observed: 0.0,
            expected: 10.0,
        };
        a.merge(b);
        assert!((a.fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fraction_clamps() {
        let c = Coverage {
            observed: 12.0,
            expected: 10.0,
        };
        assert_eq!(c.fraction(), 1.0);
        assert!(c.is_complete());
    }
}
