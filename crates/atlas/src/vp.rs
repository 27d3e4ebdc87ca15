//! The vantage-point fleet, modeled on RIPE Atlas (§2.4.1).
//!
//! RIPE Atlas had ~9000 active probes at the time of the events, heavily
//! biased toward Europe. Each VP regularly sends CHAOS queries to every
//! root letter. The paper's cleaning pipeline (reproduced in
//! [`crate::clean`]) drops VPs with pre-2013 firmware (< 4570) and VPs
//! whose root traffic is hijacked by third parties (74 of 9363, < 1%).
//! We generate a fleet with all three populations so the cleaning code
//! has real work to do.

use rand::Rng;
use rootcast_netsim::rng::SummedWeights;
use rootcast_netsim::stats::mix64;
use rootcast_netsim::SimRng;
use rootcast_topology::{city, AsGraph, AsId, Region, Tier};

/// Identifier of a vantage point (index into the fleet).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VpId(pub u32);

/// The firmware version below which measurements are discarded
/// (released early 2013; the paper's cleaning threshold).
pub const MIN_FIRMWARE: u32 = 4570;

/// One vantage point.
#[derive(Debug, Clone)]
pub struct VantagePoint {
    pub id: VpId,
    /// The AS this VP measures from.
    pub asn: AsId,
    /// Atlas firmware version.
    pub firmware: u32,
    /// Whether a third party intercepts this VP's root queries
    /// (answers locally with a wrong identity and a suspiciously
    /// short RTT).
    pub hijacked: bool,
    /// Mean time between independent VP failures (None = reliable).
    /// A failed VP misses probes for a while — the background noise the
    /// paper guards against with its 20-VP site threshold.
    pub flaky: bool,
}

impl VantagePoint {
    /// Stable per-VP hash used for server selection (stands in for the
    /// VP's source address as seen by load balancers).
    #[inline]
    pub fn client_hash(&self) -> u64 {
        mix64(0xA71A5 ^ u64::from(self.id.0))
    }
}

/// Fleet generation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetParams {
    /// Number of VPs (the paper's dataset: 9363 active, >9000 kept).
    pub n_vps: usize,
    /// Fraction with firmware older than [`MIN_FIRMWARE`].
    pub old_firmware_fraction: f64,
    /// Fraction whose root queries are hijacked (paper: 74/9363).
    pub hijacked_fraction: f64,
    /// Fraction of flaky VPs that fail independently now and then.
    pub flaky_fraction: f64,
}

/// Per-metro probe-density multiplier on top of the regional bias.
/// Atlas is operated from Amsterdam and its probe density peaks in
/// the Benelux/DE/UK corridor — the reason the paper's largest
/// site medians are AMS, FRA and LHR.
fn atlas_city_bias(code: &str) -> f64 {
    match code {
        "AMS" => 4.0,
        "FRA" => 2.5,
        "LHR" => 2.0,
        "CDG" | "ZRH" | "VIE" => 1.3,
        _ => 1.0,
    }
}

/// Regional placement bias. RIPE Atlas is Europe-heavy; this puts
/// ~2/3 of VPs in Europe.
fn atlas_region_bias(r: Region) -> f64 {
    match r {
        Region::Europe => 8.0,
        Region::NorthAmerica => 1.5,
        Region::Asia => 0.6,
        Region::Oceania => 0.7,
        Region::SouthAmerica => 0.3,
        Region::Africa => 0.2,
        Region::MiddleEast => 0.3,
    }
}

impl Default for FleetParams {
    fn default() -> Self {
        FleetParams {
            n_vps: 9363,
            old_firmware_fraction: 0.03,
            hijacked_fraction: 74.0 / 9363.0,
            flaky_fraction: 0.05,
        }
    }
}

impl FleetParams {
    /// A small fleet for tests.
    pub fn tiny(n_vps: usize) -> FleetParams {
        FleetParams {
            n_vps,
            ..FleetParams::default()
        }
    }
}

/// The generated fleet.
#[derive(Debug, Clone)]
pub struct VpFleet {
    vps: Vec<VantagePoint>,
}

impl VpFleet {
    /// Place VPs on stub ASes with the configured regional bias.
    pub fn generate(graph: &AsGraph, params: &FleetParams, rng_factory: &SimRng) -> VpFleet {
        assert!(params.n_vps > 0);
        let mut rng = rng_factory.stream("atlas-fleet");
        let stubs = graph.by_tier(Tier::Stub);
        assert!(!stubs.is_empty());
        let weights: Vec<f64> = stubs
            .iter()
            .map(|&s| {
                let c = city(graph.node(s).city);
                atlas_region_bias(c.region)
                    * atlas_city_bias(c.code)
                    * c.population_weight.max(0.01)
            })
            .collect();
        let weights = SummedWeights::new(&weights);
        let vps = (0..params.n_vps)
            .map(|i| {
                let asn = stubs[weights.sample(&mut rng)];
                let firmware = if rng.gen_bool(params.old_firmware_fraction) {
                    rng.gen_range(4200..MIN_FIRMWARE)
                } else {
                    rng.gen_range(MIN_FIRMWARE..4790)
                };
                VantagePoint {
                    id: VpId(i as u32),
                    asn,
                    firmware,
                    hijacked: rng.gen_bool(params.hijacked_fraction),
                    flaky: rng.gen_bool(params.flaky_fraction),
                }
            })
            .collect();
        VpFleet { vps }
    }

    pub fn len(&self) -> usize {
        self.vps.len()
    }

    pub fn is_empty(&self) -> bool {
        self.vps.is_empty()
    }

    #[inline]
    pub fn vp(&self, id: VpId) -> &VantagePoint {
        &self.vps[id.0 as usize]
    }

    pub fn iter(&self) -> impl Iterator<Item = &VantagePoint> {
        self.vps.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rootcast_topology::{gen, TopologyParams};

    fn fleet(n: usize, seed: u64) -> (AsGraph, VpFleet) {
        let rng = SimRng::new(seed);
        let g = gen::generate(&TopologyParams::tiny(), &rng);
        let f = VpFleet::generate(&g, &FleetParams::tiny(n), &rng);
        (g, f)
    }

    #[test]
    fn fleet_has_requested_size() {
        let (_, f) = fleet(500, 1);
        assert_eq!(f.len(), 500);
    }

    #[test]
    fn europe_dominates() {
        let (g, f) = fleet(2000, 2);
        let europe = f
            .iter()
            .filter(|vp| city(g.node(vp.asn).city).region == Region::Europe)
            .count();
        let frac = europe as f64 / f.len() as f64;
        assert!(frac > 0.5, "europe fraction {frac}");
    }

    #[test]
    fn hijacked_fraction_is_small_but_nonzero() {
        let (_, f) = fleet(5000, 3);
        let h = f.iter().filter(|v| v.hijacked).count();
        let frac = h as f64 / f.len() as f64;
        assert!(
            (0.002..0.02).contains(&frac),
            "hijacked fraction {frac} ({h} VPs)"
        );
    }

    #[test]
    fn firmware_split_matches_params() {
        let (_, f) = fleet(5000, 4);
        let old = f.iter().filter(|v| v.firmware < MIN_FIRMWARE).count();
        let frac = old as f64 / f.len() as f64;
        assert!((0.01..0.06).contains(&frac), "old firmware fraction {frac}");
    }

    #[test]
    fn client_hashes_are_distinct_and_stable() {
        let (_, f) = fleet(100, 5);
        let mut hashes: Vec<u64> = f.iter().map(VantagePoint::client_hash).collect();
        let h0 = f.vp(VpId(0)).client_hash();
        assert_eq!(hashes[0], h0);
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), 100);
    }

    #[test]
    fn deterministic_generation() {
        let (_, f1) = fleet(200, 9);
        let (_, f2) = fleet(200, 9);
        for (a, b) in f1.iter().zip(f2.iter()) {
            assert_eq!(a.asn, b.asn);
            assert_eq!(a.firmware, b.firmware);
            assert_eq!(a.hijacked, b.hijacked);
        }
    }
}
