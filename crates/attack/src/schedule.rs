//! The event schedule: when, what, and how hard.
//!
//! §2.3 of the paper: on Nov 30 2015, 06:50–09:30 UTC (160 min) and again
//! on Dec 1, 05:10–06:10 UTC (60 min), most root letters received ~5 Mq/s
//! of IPv4/UDP queries with fixed qnames (`www.336901.com`, then
//! `www.916yy.com`) and randomized (spoofed) source addresses. Verisign
//! reported D-, L-, and M-root were not attacked.
//!
//! Our scenario clock starts at 2015-11-30T00:00 UTC, so the windows are
//! at +6h50m and +29h10m.

use rootcast_dns::Letter;
use rootcast_netsim::{SimDuration, SimTime};

/// One attack window.
#[derive(Debug, Clone)]
pub struct AttackWindow {
    pub start: SimTime,
    pub duration: SimDuration,
    /// The fixed query name used during this window.
    pub qname: String,
    /// Letters receiving attack traffic.
    pub targets: Vec<Letter>,
    /// Offered attack rate per targeted letter, queries/second.
    pub rate_qps: f64,
}

impl AttackWindow {
    pub fn end(&self) -> SimTime {
        self.start + self.duration
    }

    pub fn contains(&self, t: SimTime) -> bool {
        t >= self.start && t < self.end()
    }

    pub fn targets_letter(&self, letter: Letter) -> bool {
        self.targets.contains(&letter)
    }
}

/// A full schedule of attack windows (non-overlapping, sorted by start).
#[derive(Debug, Clone)]
pub struct AttackSchedule {
    windows: Vec<AttackWindow>,
}

impl AttackSchedule {
    /// Build from windows; they are sorted and checked for overlap.
    pub fn new(mut windows: Vec<AttackWindow>) -> AttackSchedule {
        windows.sort_by_key(|w| w.start);
        for pair in windows.windows(2) {
            assert!(
                pair[0].end() <= pair[1].start,
                "attack windows overlap: {} vs {}",
                pair[0].end(),
                pair[1].start
            );
        }
        AttackSchedule { windows }
    }

    /// An empty schedule (baseline days).
    pub fn quiet() -> AttackSchedule {
        AttackSchedule {
            windows: Vec::new(),
        }
    }

    /// The letters hit on Nov 30 / Dec 1: all but D, L, M (and B is
    /// unicast but was attacked; A confirmed ~5 Mq/s).
    pub fn nov2015_targets() -> Vec<Letter> {
        Letter::ALL
            .into_iter()
            .filter(|l| !matches!(l, Letter::D | Letter::L | Letter::M))
            .collect()
    }

    /// The canonical Nov 30 + Dec 1 schedule at `rate_qps` per letter
    /// (the paper's best estimate is ~5 Mq/s).
    pub fn nov2015(rate_qps: f64) -> AttackSchedule {
        let targets = Self::nov2015_targets();
        AttackSchedule::new(vec![
            AttackWindow {
                start: SimTime::from_hours(6) + SimDuration::from_mins(50),
                duration: SimDuration::from_mins(160),
                qname: "www.336901.com".to_string(),
                targets: targets.clone(),
                rate_qps,
            },
            AttackWindow {
                start: SimTime::from_hours(29) + SimDuration::from_mins(10),
                duration: SimDuration::from_mins(60),
                qname: "www.916yy.com".to_string(),
                targets,
                rate_qps,
            },
        ])
    }

    pub fn windows(&self) -> &[AttackWindow] {
        &self.windows
    }

    /// The window active at `t`, if any.
    pub fn active_window(&self, t: SimTime) -> Option<&AttackWindow> {
        self.windows.iter().find(|w| w.contains(t))
    }

    /// Attack rate offered to `letter` at time `t`.
    pub fn rate_for(&self, letter: Letter, t: SimTime) -> f64 {
        match self.active_window(t) {
            Some(w) if w.targets_letter(letter) => w.rate_qps,
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nov2015_windows_match_paper_timing() {
        let s = AttackSchedule::nov2015(5_000_000.0);
        let w = s.windows();
        assert_eq!(w.len(), 2);
        // Nov 30 06:50 for 160 minutes.
        assert_eq!(w[0].start, SimTime::from_mins(6 * 60 + 50));
        assert_eq!(w[0].end(), SimTime::from_mins(9 * 60 + 30));
        assert_eq!(w[0].qname, "www.336901.com");
        // Dec 1 05:10 (+24h) for 60 minutes.
        assert_eq!(w[1].start, SimTime::from_mins(29 * 60 + 10));
        assert_eq!(w[1].end(), SimTime::from_mins(30 * 60 + 10));
        assert_eq!(w[1].qname, "www.916yy.com");
    }

    #[test]
    fn d_l_m_not_targeted() {
        let s = AttackSchedule::nov2015(5e6);
        let during = SimTime::from_hours(8);
        for letter in [Letter::D, Letter::L, Letter::M] {
            assert_eq!(s.rate_for(letter, during), 0.0);
        }
        for letter in [Letter::A, Letter::B, Letter::K, Letter::E] {
            assert_eq!(s.rate_for(letter, during), 5e6);
        }
        assert_eq!(AttackSchedule::nov2015_targets().len(), 10);
    }

    #[test]
    fn rate_zero_outside_windows() {
        let s = AttackSchedule::nov2015(5e6);
        assert_eq!(s.rate_for(Letter::K, SimTime::from_hours(3)), 0.0);
        assert_eq!(s.rate_for(Letter::K, SimTime::from_hours(12)), 0.0);
        assert_eq!(s.rate_for(Letter::K, SimTime::from_hours(40)), 0.0);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_windows_rejected() {
        let w = |start_min: u64, dur_min: u64| AttackWindow {
            start: SimTime::from_mins(start_min),
            duration: SimDuration::from_mins(dur_min),
            qname: "x.com".into(),
            targets: vec![Letter::A],
            rate_qps: 1.0,
        };
        AttackSchedule::new(vec![w(0, 100), w(50, 10)]);
    }
}
