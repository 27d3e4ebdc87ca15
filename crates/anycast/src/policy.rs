//! Stress-response policies (§2.2 of the paper).
//!
//! A site under more load than it can serve has two options:
//!
//! * **withdraw** its BGP routes, shrinking its catchment and pushing
//!   both legitimate and attack traffic to other sites (the "waterbed"),
//!   or
//! * keep answering as a **degraded absorber**, dropping a fraction of
//!   queries at its saturated ingress but containing the attack traffic
//!   in its own catchment (the "conventional mattress").
//!
//! The paper stresses that real outcomes *emerge* from operator policy,
//! host-ISP behaviour, and implementation details such as BGP session
//! timeouts. We encode the emergent result as an explicit per-site
//! policy, which is exactly what the analysis needs to attribute observed
//! behaviour (and what the ablation benches sweep).

use rootcast_netsim::{SimDuration, SimTime};

/// How a site responds to sustained overload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StressPolicy {
    /// Keep announcing and absorb: excess queries drop at the ingress
    /// queue, accepted ones suffer bufferbloat delay.
    Absorb,
    /// Withdraw routes when offered load exceeds `overload_ratio` ×
    /// capacity for at least `sustain`, but only from the
    /// `after_episodes`-th distinct overload episode onward (several
    /// E-root sites absorbed the first event and only went dark after
    /// the second, §3.3.1). If `retry_after` is set, the site
    /// re-announces after that long (and may withdraw again — BGP-level
    /// flapping, which is what the route collectors see as bursts); if
    /// `None` the site stays down until the scenario ends (operator
    /// intervention).
    Withdraw {
        overload_ratio: f64,
        sustain: SimDuration,
        retry_after: Option<SimDuration>,
        after_episodes: u32,
    },
}

impl StressPolicy {
    /// A conventional withdraw policy: trip at 2× capacity sustained for
    /// 2 minutes, retry after 30 minutes.
    pub fn withdraw_default() -> StressPolicy {
        StressPolicy::Withdraw {
            overload_ratio: 2.0,
            sustain: SimDuration::from_mins(2),
            retry_after: Some(SimDuration::from_mins(30)),
            after_episodes: 1,
        }
    }

    /// Withdraw and stay down (no automatic re-announcement).
    pub fn withdraw_sticky() -> StressPolicy {
        StressPolicy::Withdraw {
            overload_ratio: 2.0,
            sustain: SimDuration::from_mins(2),
            retry_after: None,
            after_episodes: 1,
        }
    }

    /// Absorb the first `n - 1` overload episodes, then withdraw for
    /// good on the `n`-th — the E-root pattern: strongly compromised in
    /// event 1, shut down after event 2.
    pub fn withdraw_after_episode(n: u32) -> StressPolicy {
        StressPolicy::Withdraw {
            overload_ratio: 1.5,
            sustain: SimDuration::from_mins(10),
            retry_after: None,
            after_episodes: n,
        }
    }
}

/// How a site's servers behave behind the load balancer under overload
/// (§3.5: K-FRA concentrated onto one surviving server; K-NRT's three
/// servers all struggled behind a congested shared link).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadBalancerMode {
    /// Under overload, all but one server stop answering; the survivor
    /// keeps serving with stable latency while the ingress drops excess
    /// load. Which server survives is re-drawn per overload episode.
    FailoverConcentrate,
    /// All servers stay reachable behind one congested link: everyone
    /// answers, everyone is slow, some servers (hash-skewed) more loaded
    /// than others.
    SharedLink,
}

/// Tracks the overload state machine for one site.
#[derive(Debug, Clone, Default)]
pub struct OverloadTracker {
    /// When the current continuous overload began.
    over_since: Option<SimTime>,
    /// Number of distinct overload episodes so far (drives per-episode
    /// survivor selection in FailoverConcentrate mode).
    pub episodes: u32,
    /// Currently in an overload episode?
    pub overloaded: bool,
}

impl OverloadTracker {
    /// Update with the instantaneous utilization at `now`; returns `true`
    /// if the sustained-overload condition (`ratio` for `sustain`) holds.
    pub fn update(
        &mut self,
        now: SimTime,
        utilization: f64,
        ratio: f64,
        sustain: SimDuration,
    ) -> bool {
        if utilization > ratio {
            let since = *self.over_since.get_or_insert(now);
            if !self.overloaded {
                self.overloaded = true;
                self.episodes += 1;
            }
            now.saturating_since(since) >= sustain
        } else {
            self.over_since = None;
            self.overloaded = false;
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mins(m: u64) -> SimTime {
        SimTime::from_mins(m)
    }

    #[test]
    fn sustained_overload_trips_after_duration() {
        let mut t = OverloadTracker::default();
        let sustain = SimDuration::from_mins(2);
        assert!(!t.update(mins(0), 3.0, 2.0, sustain));
        assert!(!t.update(mins(1), 3.0, 2.0, sustain));
        assert!(t.update(mins(2), 3.0, 2.0, sustain));
        assert_eq!(t.episodes, 1);
    }

    #[test]
    fn dip_below_threshold_resets() {
        let mut t = OverloadTracker::default();
        let sustain = SimDuration::from_mins(2);
        assert!(!t.update(mins(0), 3.0, 2.0, sustain));
        assert!(!t.update(mins(1), 1.0, 2.0, sustain)); // recovered
        assert!(!t.update(mins(2), 3.0, 2.0, sustain)); // clock restarts
        assert!(!t.update(mins(3), 3.0, 2.0, sustain));
        assert!(t.update(mins(4), 3.0, 2.0, sustain));
        assert_eq!(t.episodes, 2);
    }

    #[test]
    fn exact_threshold_does_not_trip() {
        let mut t = OverloadTracker::default();
        assert!(!t.update(mins(0), 2.0, 2.0, SimDuration::ZERO));
        assert!(!t.overloaded);
    }

    #[test]
    fn zero_sustain_trips_immediately() {
        let mut t = OverloadTracker::default();
        assert!(t.update(mins(0), 2.1, 2.0, SimDuration::ZERO));
    }

    #[test]
    fn policy_constructors() {
        match StressPolicy::withdraw_default() {
            StressPolicy::Withdraw {
                overload_ratio,
                retry_after,
                ..
            } => {
                assert_eq!(overload_ratio, 2.0);
                assert!(retry_after.is_some());
            }
            StressPolicy::Absorb => panic!("wrong policy"),
        }
        match StressPolicy::withdraw_sticky() {
            StressPolicy::Withdraw { retry_after, .. } => assert!(retry_after.is_none()),
            StressPolicy::Absorb => panic!("wrong policy"),
        }
    }
}
