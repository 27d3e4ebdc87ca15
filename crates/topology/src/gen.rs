//! Synthetic Internet topology generator.
//!
//! Builds a three-tier AS hierarchy in the style of measured AS graphs:
//!
//! * a small clique of transit-free **Tier-1** backbones (full peer mesh),
//! * regional **Tier-2** transit providers, each multi-homed to 2–3
//!   Tier-1s and peering laterally with geographically close Tier-2s
//!   (the IXP effect), and
//! * **stub** edge networks attached to 1–2 nearby providers.
//!
//! City assignment is weighted by Internet population so Europe, North
//! America, and East Asia are dense — the property that makes European
//! anycast sites (K-AMS, K-LHR, E-FRA, ...) carry the large catchments
//! the paper observes.
//!
//! The generator is deterministic: the same [`SimRng`] master seed yields
//! the same graph.

use crate::geo::{city, city_catalog, CityId};
use crate::graph::{AsGraph, AsId, Relation, Tier};
use rand::Rng;
use rootcast_netsim::rng::weighted_index;
use rootcast_netsim::SimRng;
use std::fmt;

/// A [`TopologyParams`] value the generator cannot honor. Returned by
/// [`TopologyParams::validate`]; the scenario layer surfaces it as a
/// typed `ConfigError` before any state is built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A tier count is outside the generatable range (zero, or more
    /// Tier-1s than distinct catalog cities to seat them in).
    BadTierCount(String),
    /// A continuous knob is non-finite or out of range.
    BadKnob(String),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::BadTierCount(m) => write!(f, "bad tier count: {m}"),
            TopologyError::BadKnob(m) => write!(f, "bad knob: {m}"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// Generation parameters.
#[derive(Debug, Clone)]
pub struct TopologyParams {
    /// Number of Tier-1 backbones (full peer mesh).
    pub n_tier1: usize,
    /// Number of Tier-2 regional providers.
    pub n_tier2: usize,
    /// Number of stub (edge) ASes.
    pub n_stub: usize,
    /// Probability that a stub is multi-homed to two providers.
    pub stub_multihome_prob: f64,
    /// Distance scale (km) for Tier-2 lateral peering probability: two
    /// Tier-2s peer with probability `exp(-d / peering_scale_km)`.
    pub peering_scale_km: f64,
}

impl Default for TopologyParams {
    fn default() -> Self {
        TopologyParams {
            n_tier1: 12,
            n_tier2: 80,
            n_stub: 1500,
            stub_multihome_prob: 0.3,
            peering_scale_km: 1500.0,
        }
    }
}

impl TopologyParams {
    /// A small topology for fast unit tests.
    pub fn tiny() -> Self {
        TopologyParams {
            n_tier1: 3,
            n_tier2: 8,
            n_stub: 40,
            stub_multihome_prob: 0.3,
            peering_scale_km: 1500.0,
        }
    }

    /// Check every invariant [`generate`] depends on. Each Tier-1 gets
    /// its own catalog city (`ranked[i]` below), so `n_tier1` is capped
    /// by the catalog size — beyond it the backbones would silently
    /// collapse into shared cities and distort every catchment built on
    /// top.
    pub fn validate(&self) -> Result<(), TopologyError> {
        if self.n_tier1 < 1 {
            return Err(TopologyError::BadTierCount(
                "need at least one tier-1".into(),
            ));
        }
        if self.n_tier2 < 1 {
            return Err(TopologyError::BadTierCount(
                "need at least one tier-2".into(),
            ));
        }
        let n_cities = city_catalog().len();
        if self.n_tier1 > n_cities {
            return Err(TopologyError::BadTierCount(format!(
                "{} tier-1 backbones but only {n_cities} catalog cities to seat them",
                self.n_tier1
            )));
        }
        if !self.stub_multihome_prob.is_finite() || !(0.0..=1.0).contains(&self.stub_multihome_prob)
        {
            return Err(TopologyError::BadKnob(format!(
                "stub_multihome_prob must be a probability in [0, 1], got {}",
                self.stub_multihome_prob
            )));
        }
        if !self.peering_scale_km.is_finite() || self.peering_scale_km <= 0.0 {
            return Err(TopologyError::BadKnob(format!(
                "peering_scale_km must be finite and positive, got {}",
                self.peering_scale_km
            )));
        }
        Ok(())
    }
}

/// Generate a topology from parameters and the scenario RNG.
///
/// The returned graph always satisfies [`AsGraph::validate`].
pub fn generate(params: &TopologyParams, rng_factory: &SimRng) -> AsGraph {
    if let Err(e) = params.validate() {
        panic!("invalid TopologyParams: {e} (validate up front to get a typed error)");
    }
    let mut rng = rng_factory.stream("topology");
    let mut g = AsGraph::new();
    let cities = city_catalog();
    let weights: Vec<f64> = cities.iter().map(|c| c.population_weight).collect();

    // Tier-1 backbones live in the highest-weight cities, spread out: pick
    // the top cities by weight, one per index order.
    let mut ranked: Vec<usize> = (0..cities.len()).collect();
    // total_cmp: a NaN weight sorts last instead of panicking (and
    // validate() has already rejected knobs that could produce one).
    ranked.sort_by(|&a, &b| weights[b].total_cmp(&weights[a]).then(a.cmp(&b)));
    // validate() guarantees n_tier1 <= catalog size, so every backbone
    // gets a distinct city — no silent modulo collapse.
    let tier1: Vec<AsId> = (0..params.n_tier1)
        .map(|i| g.add_node(Tier::Tier1, CityId(ranked[i] as u16)))
        .collect();
    // Full peer mesh among Tier-1s (transit-free core).
    for i in 0..tier1.len() {
        for j in (i + 1)..tier1.len() {
            g.add_edge(tier1[i], tier1[j], Relation::Peer);
        }
    }

    // Tier-2: every major city (population weight >= 0.8) gets one
    // guaranteed regional provider — real transit markets cover every
    // large metro, and anycast deployments depend on it — then the rest
    // are placed by weighted draw.
    let tier2: Vec<AsId> = {
        let mut t2 = Vec::with_capacity(params.n_tier2);
        let majors: Vec<CityId> = cities
            .iter()
            .enumerate()
            .filter(|(_, c)| c.population_weight >= 0.8)
            .map(|(i, _)| CityId(i as u16))
            .collect();
        for &c in majors.iter().take(params.n_tier2) {
            t2.push(g.add_node(Tier::Tier2, c));
        }
        while t2.len() < params.n_tier2 {
            let c = CityId(weighted_index(&mut rng, &weights) as u16);
            t2.push(g.add_node(Tier::Tier2, c));
        }
        t2
    };
    for &t2 in &tier2 {
        let n_providers = rng.gen_range(2..=3.min(tier1.len()));
        let mut chosen: Vec<AsId> = Vec::new();
        while chosen.len() < n_providers {
            let w: Vec<f64> = tier1
                .iter()
                .map(|&t1| {
                    if chosen.contains(&t1) {
                        0.0
                    } else {
                        proximity_weight(&g, t2, t1)
                    }
                })
                .collect();
            if w.iter().sum::<f64>() <= 0.0 {
                break;
            }
            let pick = tier1[weighted_index(&mut rng, &w)];
            chosen.push(pick);
            // t2 is the customer of the tier-1.
            g.add_edge(pick, t2, Relation::Customer);
        }
    }
    // Lateral Tier-2 peering: probability decays with distance, so ASes in
    // the same metro (IXP members) almost always peer.
    for i in 0..tier2.len() {
        for j in (i + 1)..tier2.len() {
            let d = distance_km(&g, tier2[i], tier2[j]);
            let p = (-d / params.peering_scale_km).exp();
            if rng.gen_bool(p.clamp(0.0, 1.0)) {
                g.add_edge(tier2[i], tier2[j], Relation::Peer);
            }
        }
    }

    // Stubs: weighted city placement, 1–2 providers among nearby Tier-2s
    // (or, rarely, a Tier-1 — large enterprises buy direct transit).
    for _ in 0..params.n_stub {
        let c = CityId(weighted_index(&mut rng, &weights) as u16);
        let s = g.add_node(Tier::Stub, c);
        let n_providers = if rng.gen_bool(params.stub_multihome_prob) {
            2
        } else {
            1
        };
        let mut chosen: Vec<AsId> = Vec::new();
        while chosen.len() < n_providers {
            // 5% chance of buying transit straight from a Tier-1.
            let pool: &[AsId] = if rng.gen_bool(0.05) { &tier1 } else { &tier2 };
            let w: Vec<f64> = pool
                .iter()
                .map(|&p| {
                    if chosen.contains(&p) {
                        0.0
                    } else {
                        proximity_weight(&g, s, p)
                    }
                })
                .collect();
            if w.iter().sum::<f64>() <= 0.0 {
                break;
            }
            let pick = pool[weighted_index(&mut rng, &w)];
            chosen.push(pick);
            g.add_edge(pick, s, Relation::Customer);
        }
    }

    debug_assert!(g.validate().is_ok());
    g
}

fn distance_km(g: &AsGraph, a: AsId, b: AsId) -> f64 {
    let ca = city(g.node(a).city);
    let cb = city(g.node(b).city);
    ca.distance_km(cb)
}

/// Weight for choosing provider `p` for customer `c`: inverse distance
/// with a floor so remote options stay possible.
fn proximity_weight(g: &AsGraph, c: AsId, p: AsId) -> f64 {
    let d = distance_km(g, c, p);
    1.0 / (d + 200.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_validation_rejects_bad_knobs() {
        assert_eq!(TopologyParams::default().validate(), Ok(()));
        assert_eq!(TopologyParams::tiny().validate(), Ok(()));

        let mut p = TopologyParams::tiny();
        p.n_tier1 = 0;
        assert!(matches!(p.validate(), Err(TopologyError::BadTierCount(_))));

        let mut p = TopologyParams::tiny();
        p.n_tier2 = 0;
        assert!(matches!(p.validate(), Err(TopologyError::BadTierCount(_))));

        // More Tier-1s than catalog cities would silently collapse
        // backbones into shared cities under the old modulo indexing.
        let mut p = TopologyParams::tiny();
        p.n_tier1 = city_catalog().len() + 1;
        assert!(matches!(p.validate(), Err(TopologyError::BadTierCount(_))));

        let mut p = TopologyParams::tiny();
        p.stub_multihome_prob = f64::NAN;
        assert!(matches!(p.validate(), Err(TopologyError::BadKnob(_))));

        let mut p = TopologyParams::tiny();
        p.peering_scale_km = 0.0;
        assert!(matches!(p.validate(), Err(TopologyError::BadKnob(_))));
    }

    #[test]
    fn tier1_cities_are_distinct() {
        let g = generate(&TopologyParams::default(), &SimRng::new(9));
        let t1 = g.by_tier(Tier::Tier1);
        let mut cities: Vec<_> = t1.iter().map(|&a| g.node(a).city).collect();
        cities.sort();
        cities.dedup();
        assert_eq!(cities.len(), t1.len(), "tier-1 backbones share a city");
    }

    #[test]
    fn generated_graph_validates() {
        let g = generate(&TopologyParams::default(), &SimRng::new(1));
        assert!(g.validate().is_ok());
        assert_eq!(g.len(), 12 + 80 + 1500, "node count must match parameters");
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = generate(&TopologyParams::tiny(), &SimRng::new(7));
        let b = generate(&TopologyParams::tiny(), &SimRng::new(7));
        assert_eq!(a.len(), b.len());
        assert_eq!(a.edge_count(), b.edge_count());
        for (na, nb) in a.nodes().zip(b.nodes()) {
            assert_eq!(na.city, nb.city);
            assert_eq!(a.neighbors(na.id), b.neighbors(nb.id));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&TopologyParams::tiny(), &SimRng::new(1));
        let b = generate(&TopologyParams::tiny(), &SimRng::new(2));
        // Same node counts, but edge sets should differ.
        let differs = a.edge_count() != b.edge_count()
            || a.nodes().zip(b.nodes()).any(|(x, y)| x.city != y.city);
        assert!(differs, "two seeds produced identical graphs");
    }

    #[test]
    fn tier1_forms_full_mesh() {
        let g = generate(&TopologyParams::tiny(), &SimRng::new(3));
        let t1 = g.by_tier(Tier::Tier1);
        for i in 0..t1.len() {
            for j in (i + 1)..t1.len() {
                assert_eq!(g.relation(t1[i], t1[j]), Some(Relation::Peer));
            }
        }
    }

    #[test]
    fn every_stub_has_a_provider() {
        let g = generate(&TopologyParams::tiny(), &SimRng::new(4));
        for s in g.by_tier(Tier::Stub) {
            let has_provider = g
                .neighbors(s)
                .iter()
                .any(|a| a.relation == Relation::Provider);
            assert!(has_provider, "stub {s} is unattached");
        }
    }

    #[test]
    fn every_tier2_has_tier1_transit() {
        let g = generate(&TopologyParams::tiny(), &SimRng::new(5));
        for t2 in g.by_tier(Tier::Tier2) {
            let upstream = g.neighbors(t2).iter().filter(|a| {
                a.relation == Relation::Provider && g.node(a.neighbor).tier == Tier::Tier1
            });
            assert!(upstream.count() >= 2, "tier2 {t2} lacks redundancy");
        }
    }

    #[test]
    fn europe_is_dense() {
        use crate::geo::Region;
        let g = generate(&TopologyParams::default(), &SimRng::new(6));
        let total = g.by_tier(Tier::Stub).len() as f64;
        let europe = g
            .by_tier(Tier::Stub)
            .iter()
            .filter(|&&s| city(g.node(s).city).region == Region::Europe)
            .count() as f64;
        // Europe holds the plurality of catalog weight; expect 25–60%.
        let frac = europe / total;
        assert!((0.25..0.60).contains(&frac), "europe fraction {frac}");
    }
}
