//! Shared facilities: the co-location coupling behind collateral damage.
//!
//! Root letters (and other services, like the `.nl` TLD) often rent space
//! in the same data centers. The paper cannot see the shared component
//! directly — "hosting details are usually considered proprietary" — but
//! infers it end-to-end (§3.6): services that were *not* attacked dipped
//! exactly when co-located attacked services were flooded.
//!
//! We model the shared component as a per-facility ingress link with its
//! own fluid queue. Every site in a facility contributes its offered load
//! to the facility link; the link's loss fraction applies to all of them
//! — including innocent bystanders.

use crate::site::FacilityId;
use rootcast_netsim::{FluidQueue, SimTime};
use std::collections::{BTreeMap, BTreeSet};

/// Registry of facility links and their per-step aggregation.
#[derive(Debug, Clone)]
pub struct FacilityTable {
    links: BTreeMap<FacilityId, FluidQueue>,
    /// Load accumulated during the current step.
    pending: BTreeMap<FacilityId, f64>,
    /// Loss fraction computed at the last advance.
    loss: BTreeMap<FacilityId, f64>,
    /// Facilities currently dark (power/link outage): every tenant's
    /// traffic through the link is lost until the outage clears.
    out: BTreeSet<FacilityId>,
}

impl FacilityTable {
    pub fn new() -> FacilityTable {
        FacilityTable {
            links: BTreeMap::new(),
            pending: BTreeMap::new(),
            loss: BTreeMap::new(),
            out: BTreeSet::new(),
        }
    }

    /// Register a facility link with the given capacity and buffer.
    /// Registering the same id twice is an error.
    pub fn register(&mut self, id: FacilityId, capacity_qps: f64, buffer_queries: f64) {
        let prev = self
            .links
            .insert(id, FluidQueue::new(capacity_qps, buffer_queries));
        assert!(prev.is_none(), "facility {id:?} registered twice");
        self.loss.insert(id, 0.0);
    }

    /// Add one site's offered load for the current step.
    pub fn add_load(&mut self, id: FacilityId, qps: f64) {
        assert!(self.links.contains_key(&id), "unknown facility {id:?}");
        *self.pending.entry(id).or_insert(0.0) += qps;
    }

    /// Take a registered facility dark (total outage) or bring it back.
    /// Returns false if the facility is unknown or already in the
    /// requested state, so callers can degrade gracefully.
    pub fn set_out(&mut self, id: FacilityId, out: bool) -> bool {
        if !self.links.contains_key(&id) {
            return false;
        }
        if out {
            self.out.insert(id)
        } else {
            self.out.remove(&id)
        }
    }

    /// Advance all facility queues to `now` under the accumulated load,
    /// recording each link's loss fraction, then clear the accumulators.
    /// Dark facilities drop everything regardless of queue state.
    pub fn advance(&mut self, now: SimTime) {
        for (id, queue) in &mut self.links {
            let offered = self.pending.get(id).copied().unwrap_or(0.0);
            let loss = queue.advance(now, offered);
            self.loss
                .insert(*id, if self.out.contains(id) { 1.0 } else { loss });
        }
        self.pending.clear();
    }

    /// Loss fraction of `id`'s link from the last advance (0 for sites
    /// with no facility, handled by the caller).
    pub fn loss(&self, id: FacilityId) -> f64 {
        self.loss.get(&id).copied().unwrap_or(0.0)
    }

    /// The current queueing delay of a facility link.
    pub fn queue_delay(&self, id: FacilityId) -> rootcast_netsim::SimDuration {
        self.links
            .get(&id)
            .map(FluidQueue::queue_delay)
            .unwrap_or(rootcast_netsim::SimDuration::ZERO)
    }
}

impl Default for FacilityTable {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unloaded_facility_has_no_loss() {
        let mut t = FacilityTable::new();
        t.register(FacilityId(1), 1000.0, 100.0);
        t.add_load(FacilityId(1), 500.0);
        t.advance(SimTime::from_secs(60));
        assert_eq!(t.loss(FacilityId(1)), 0.0);
    }

    #[test]
    fn overloaded_facility_drops_for_all_tenants() {
        let mut t = FacilityTable::new();
        t.register(FacilityId(1), 1000.0, 0.0);
        // Two tenants: an attacked service (2500 qps) and a bystander
        // (500 qps) share the 1000-qps link.
        t.add_load(FacilityId(1), 2500.0);
        t.add_load(FacilityId(1), 500.0);
        t.advance(SimTime::from_secs(60));
        let loss = t.loss(FacilityId(1));
        // 3000 offered on 1000 capacity: ~2/3 dropped — applying to the
        // bystander too. That asymmetric coupling is collateral damage.
        assert!((loss - 2.0 / 3.0).abs() < 1e-6, "loss={loss}");
    }

    #[test]
    fn load_resets_between_steps() {
        let mut t = FacilityTable::new();
        t.register(FacilityId(1), 1000.0, 0.0);
        t.add_load(FacilityId(1), 5000.0);
        t.advance(SimTime::from_secs(60));
        assert!(t.loss(FacilityId(1)) > 0.5);
        // Next step with no load: clean.
        t.advance(SimTime::from_secs(120));
        assert_eq!(t.loss(FacilityId(1)), 0.0);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn double_registration_panics() {
        let mut t = FacilityTable::new();
        t.register(FacilityId(1), 1000.0, 0.0);
        t.register(FacilityId(1), 1000.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "unknown facility")]
    fn load_on_unknown_facility_panics() {
        let mut t = FacilityTable::new();
        t.add_load(FacilityId(9), 1.0);
    }

    #[test]
    fn outage_drops_everything_until_cleared() {
        let mut t = FacilityTable::new();
        t.register(FacilityId(1), 1000.0, 0.0);
        assert!(t.set_out(FacilityId(1), true));
        // Redundant transition reports false.
        assert!(!t.set_out(FacilityId(1), true));
        // Unknown facility degrades gracefully.
        assert!(!t.set_out(FacilityId(9), true));
        t.add_load(FacilityId(1), 10.0);
        t.advance(SimTime::from_secs(60));
        assert_eq!(t.loss(FacilityId(1)), 1.0);
        assert!(t.set_out(FacilityId(1), false));
        t.add_load(FacilityId(1), 10.0);
        t.advance(SimTime::from_secs(120));
        assert_eq!(t.loss(FacilityId(1)), 0.0);
    }

    #[test]
    fn facilities_are_independent() {
        let mut t = FacilityTable::new();
        t.register(FacilityId(1), 1000.0, 0.0);
        t.register(FacilityId(2), 1000.0, 0.0);
        t.add_load(FacilityId(1), 10_000.0);
        t.add_load(FacilityId(2), 10.0);
        t.advance(SimTime::from_secs(60));
        assert!(t.loss(FacilityId(1)) > 0.8);
        assert_eq!(t.loss(FacilityId(2)), 0.0);
    }
}
