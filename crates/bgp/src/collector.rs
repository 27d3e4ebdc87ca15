//! Route collectors, modeled after BGPmon (§2.4.3).
//!
//! BGPmon peers with dozens of routers around the Internet and records
//! their BGP update streams. The paper counts route changes per root
//! letter in 10-minute bins (Figure 9) to corroborate that the site flips
//! seen from RIPE Atlas are route-driven.
//!
//! Our collector holds a fixed set of peer ASes. Every time the routing
//! table for a prefix is recomputed (a site announced or withdrew), the
//! collector diffs each peer's chosen route against the previous table
//! and counts one update per changed peer — plus a small path-exploration
//! surcharge, since a real convergence emits several transient updates
//! per final change.

use crate::engine::Rib;
use rootcast_netsim::{BinnedSeries, Coverage, SimDuration, SimTime};
use rootcast_topology::AsId;

/// One logged batch of updates at a collector.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateBatch {
    pub at: SimTime,
    /// Number of peers whose best route changed.
    pub changed_peers: usize,
    /// Total update messages observed (includes path exploration).
    pub messages: usize,
}

/// A BGPmon-style collector for one prefix.
#[derive(Debug, Clone)]
pub struct RouteCollector {
    peers: Vec<AsId>,
    /// Last observed route signature per peer (None = unreachable).
    last: Vec<Option<(u32, u16, u32)>>,
    /// Extra transient updates per real change, modeling path exploration.
    exploration_factor: usize,
    log: Vec<UpdateBatch>,
    /// When `Some`, the collector is dark (feed outage) since that time:
    /// observations update peer state but log nothing.
    dark_since: Option<SimTime>,
    /// Closed blackout windows, for coverage accounting.
    blackouts: Vec<(SimTime, SimTime)>,
}

impl RouteCollector {
    /// Create a collector peering with the given ASes.
    pub fn new(peers: Vec<AsId>) -> Self {
        let n = peers.len();
        RouteCollector {
            peers,
            last: vec![None; n],
            exploration_factor: 2,
            log: Vec::new(),
            dark_since: None,
            blackouts: Vec::new(),
        }
    }

    /// Record the initial table without logging churn (session bring-up
    /// is not an event).
    pub fn prime(&mut self, rib: &Rib) {
        for (i, &peer) in self.peers.iter().enumerate() {
            self.last[i] = rib.route(peer).map(|r| r.signature());
        }
    }

    /// Observe a recomputed table at time `t`, logging any changes.
    /// Returns the number of peers whose route changed.
    pub fn observe(&mut self, t: SimTime, rib: &Rib) -> usize {
        let mut changed = 0;
        for (i, &peer) in self.peers.iter().enumerate() {
            let now = rib.route(peer).map(|r| r.signature());
            if now != self.last[i] {
                changed += 1;
                self.last[i] = now;
            }
        }
        if changed > 0 && self.dark_since.is_none() {
            self.log.push(UpdateBatch {
                at: t,
                changed_peers: changed,
                messages: changed * (1 + self.exploration_factor),
            });
        }
        changed
    }

    /// [`observe`](Self::observe) for callers that know exactly which
    /// ASes changed routes since the previous table (`changed[asn]` from
    /// [`Rib::diff_into`]): peers whose entry is unchanged are skipped
    /// without recomputing their signature. Entry equality implies
    /// signature equality, so the skip can never hide an update; debug
    /// builds audit that.
    pub fn observe_changed(&mut self, t: SimTime, rib: &Rib, changed_ases: &[bool]) -> usize {
        let mut changed = 0;
        for (i, &peer) in self.peers.iter().enumerate() {
            if !changed_ases[peer.0 as usize] {
                debug_assert_eq!(
                    rib.route(peer).map(|r| r.signature()),
                    self.last[i],
                    "peer {peer} skipped as unchanged but its signature moved"
                );
                continue;
            }
            let now = rib.route(peer).map(|r| r.signature());
            if now != self.last[i] {
                changed += 1;
                self.last[i] = now;
            }
        }
        if changed > 0 && self.dark_since.is_none() {
            self.log.push(UpdateBatch {
                at: t,
                changed_peers: changed,
                messages: changed * (1 + self.exploration_factor),
            });
        }
        changed
    }

    /// Start or end a feed blackout at time `t`. While dark the
    /// collector keeps tracking peer state (the routers do not stop
    /// routing) but records no updates — modeling a BGPmon observation
    /// gap. Redundant transitions are no-ops.
    pub fn set_dark(&mut self, t: SimTime, dark: bool) {
        match (self.dark_since, dark) {
            (None, true) => self.dark_since = Some(t),
            (Some(from), false) => {
                self.blackouts.push((from, t));
                self.dark_since = None;
            }
            _ => {}
        }
    }

    /// Observation coverage over `[0, horizon)`: the fraction of wall
    /// time the feed was recording. An open blackout extends to the
    /// horizon.
    pub fn coverage(&self, horizon: SimTime) -> Coverage {
        let total = horizon.as_secs_f64();
        let mut missed = 0.0;
        for &(from, to) in &self.blackouts {
            let to = to.min(horizon);
            if to > from {
                missed += (to - from).as_secs_f64();
            }
        }
        if let Some(from) = self.dark_since {
            if horizon > from {
                missed += (horizon - from).as_secs_f64();
            }
        }
        Coverage {
            observed: (total - missed).max(0.0),
            expected: total,
        }
    }

    /// The raw update log.
    pub fn log(&self) -> &[UpdateBatch] {
        &self.log
    }

    /// Total messages across the whole log.
    pub fn total_messages(&self) -> usize {
        self.log.iter().map(|b| b.messages).sum()
    }

    /// Bin the update messages into a time series (Figure 9's y-axis).
    pub fn binned_messages(&self, bin: SimDuration, n_bins: usize) -> BinnedSeries {
        let mut s = BinnedSeries::zeros(bin, n_bins);
        for b in &self.log {
            s.add_at(b.at, b.messages as f64);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::compute_rib_scoped;
    use crate::route::{Origin, Scope};
    use rootcast_topology::{gen, TopologyParams};

    fn build() -> (rootcast_topology::AsGraph, Vec<AsId>) {
        let rng = rootcast_netsim::SimRng::new(11);
        let g = gen::generate(&TopologyParams::tiny(), &rng);
        let stubs = g.by_tier(rootcast_topology::Tier::Stub);
        (g, stubs)
    }

    fn origin(host: AsId) -> Origin {
        Origin {
            host,
            scope: Scope::Global,
            prepend: 0,
        }
    }

    #[test]
    fn no_change_no_log() {
        let (g, stubs) = build();
        let origins = [origin(stubs[0]), origin(stubs[1])];
        let rib = compute_rib_scoped(&g, &origins, &[true, true]);
        let mut c = RouteCollector::new(stubs[2..10].to_vec());
        c.prime(&rib);
        assert_eq!(c.observe(SimTime::from_mins(5), &rib), 0);
        assert!(c.log().is_empty());
    }

    #[test]
    fn withdrawal_produces_updates() {
        let (g, stubs) = build();
        let origins = [origin(stubs[0]), origin(stubs[1])];
        let before = compute_rib_scoped(&g, &origins, &[true, true]);
        let after = compute_rib_scoped(&g, &origins, &[false, true]);
        let mut c = RouteCollector::new(stubs[2..12].to_vec());
        c.prime(&before);
        let changed = c.observe(SimTime::from_mins(10), &after);
        // At least the peers previously in site 0's catchment change.
        let moved = c
            .peers
            .iter()
            .filter(|&&p| before.origin_of(p) != after.origin_of(p))
            .count();
        assert_eq!(changed, moved);
        if changed > 0 {
            assert_eq!(c.log().len(), 1);
            assert_eq!(c.log()[0].messages, changed * 3);
        }
    }

    #[test]
    fn observe_changed_matches_full_scan() {
        let (g, stubs) = build();
        let origins = [origin(stubs[0]), origin(stubs[1])];
        let before = compute_rib_scoped(&g, &origins, &[true, true]);
        let after = compute_rib_scoped(&g, &origins, &[false, true]);
        let mut changed_ases = Vec::new();
        after.diff_into(&before, &mut changed_ases);

        let mut full = RouteCollector::new(stubs[2..12].to_vec());
        let mut fast = full.clone();
        full.prime(&before);
        fast.prime(&before);
        let t = SimTime::from_mins(10);
        assert_eq!(
            full.observe(t, &after),
            fast.observe_changed(t, &after, &changed_ases)
        );
        assert_eq!(full.log(), fast.log());
        assert_eq!(full.last, fast.last);
        // A re-observation of the same table diffs to all-unchanged and
        // must log nothing.
        let none = vec![false; g.len()];
        assert_eq!(fast.observe_changed(t, &after, &none), 0);
        assert_eq!(full.log(), fast.log());
    }

    #[test]
    fn blackout_suppresses_logging_and_reports_coverage() {
        let (g, stubs) = build();
        let origins = [origin(stubs[0]), origin(stubs[1])];
        let before = compute_rib_scoped(&g, &origins, &[true, true]);
        let after = compute_rib_scoped(&g, &origins, &[false, true]);
        let mut c = RouteCollector::new(stubs[2..12].to_vec());
        c.prime(&before);
        c.set_dark(SimTime::from_mins(5), true);
        // An open blackout extends to the horizon.
        let open = c.coverage(SimTime::from_mins(10));
        assert!((open.fraction() - 0.5).abs() < 1e-9);
        // Changes during the blackout update state but log nothing.
        c.observe(SimTime::from_mins(10), &after);
        assert!(c.log().is_empty());
        c.set_dark(SimTime::from_mins(20), false);
        // Re-observing the same table after the blackout stays quiet:
        // the dark observation already absorbed the diff.
        assert_eq!(c.observe(SimTime::from_mins(21), &after), 0);
        let cov = c.coverage(SimTime::from_mins(60));
        assert!((cov.fraction() - 45.0 / 60.0).abs() < 1e-9);
    }

    #[test]
    fn open_blackout_extends_to_horizon() {
        let (_, stubs) = build();
        let mut c = RouteCollector::new(stubs[2..4].to_vec());
        c.set_dark(SimTime::from_mins(30), true);
        let cov = c.coverage(SimTime::from_mins(60));
        assert!((cov.fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn binned_series_places_updates_in_time() {
        let (g, stubs) = build();
        let origins = [origin(stubs[0]), origin(stubs[1])];
        let before = compute_rib_scoped(&g, &origins, &[true, true]);
        let after = compute_rib_scoped(&g, &origins, &[false, true]);
        let mut c = RouteCollector::new(stubs[2..20].to_vec());
        c.prime(&before);
        c.observe(SimTime::from_mins(25), &after);
        let s = c.binned_messages(SimDuration::from_mins(10), 6);
        // All messages land in bin 2 (minutes 20-30).
        let total: f64 = s.values().iter().sum();
        assert_eq!(s.values()[2], total);
    }
}
