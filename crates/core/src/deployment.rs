//! The November 2015 deployments: 13 root letters per Table 2, plus the
//! co-located `.nl` TLD service used in the collateral-damage analysis.
//!
//! Architecture facts come from the paper (Table 2 and §3): site counts,
//! global/local splits, B's unicast and H's primary/backup design, and
//! the specific site lists of E- and K-root from Figures 5/6. Capacities
//! are **not public** (the paper: "we know neither site capacity …
//! something generally kept private by operators as a defensive
//! measure"), so we assign them to reproduce the *observed outcome
//! ordering*: A rode out the attack untouched; B (one site) was hit
//! worst; H's primary coast failed over; J saw only a few VPs lose
//! service; K's AMS absorbed with seconds of bufferbloat while LHR was
//! nearly unreachable. Each choice is documented inline.

use rootcast_anycast::{LoadBalancerMode, SiteSpec, StressPolicy};
use rootcast_bgp::Scope;
use rootcast_dns::Letter;
use rootcast_netsim::stats::mix64;
use rootcast_netsim::SimDuration;
use rootcast_topology::{city_by_code, AsGraph, AsId, Relation, Tier};

/// Facility ids used by the canonical scenario.
pub mod facilities {
    use rootcast_anycast::FacilityId;
    /// The Frankfurt data center shared by K-FRA, D-FRA and nl-FRA
    /// (§3.6: "there are seven Root Letters hosted in Frankfurt").
    pub const FRA_SHARED: FacilityId = FacilityId(1);
    /// The Sydney facility shared by E-SYD, D-SYD and nl-SYD.
    pub const SYD_SHARED: FacilityId = FacilityId(2);
}

/// One letter's full deployment.
#[derive(Debug, Clone)]
pub struct LetterDeployment {
    pub letter: Letter,
    pub sites: Vec<SiteSpec>,
    /// RSSAC-002 capture quality while under stress, for the five
    /// letters that reported at event time (None = not reporting).
    /// Values are chosen to reproduce Table 3's undercounting pattern:
    /// A measured the full event, J/K captured fractions, H almost
    /// nothing relative to its offered load.
    pub rssac_capture: Option<f64>,
}

impl LetterDeployment {
    pub fn n_sites(&self) -> usize {
        self.sites.len()
    }
}

/// Pick a host AS in `city_code`, preferring transit (Tier-2) ASes —
/// where real anycast sites sit — and falling back to any AS in the
/// city. `salt` spreads different letters' sites in the same city over
/// different hosts.
pub fn host_in_city(graph: &AsGraph, city_code: &str, salt: u64) -> AsId {
    let (city_id, _) =
        city_by_code(city_code).unwrap_or_else(|| panic!("unknown city code {city_code}"));
    let mut tier2: Vec<AsId> = Vec::new();
    let mut others: Vec<AsId> = Vec::new();
    for node in graph.nodes() {
        if node.city == city_id {
            match node.tier {
                Tier::Tier2 => tier2.push(node.id),
                _ => others.push(node.id),
            }
        }
    }
    let pool = if !tier2.is_empty() { tier2 } else { others };
    assert!(
        !pool.is_empty(),
        "no AS available in {city_code}; enlarge the topology"
    );
    pool[(mix64(salt) % pool.len() as u64) as usize]
}

/// Number of ASes in `root`'s customer cone (`root` plus transitive
/// customers) — the BGP notion of how much of the Internet sits
/// "behind" a host.
fn customer_cone_size(graph: &AsGraph, root: AsId) -> usize {
    let mut seen = vec![false; graph.len()];
    let mut stack = vec![root];
    seen[root.0 as usize] = true;
    let mut count = 0;
    while let Some(id) = stack.pop() {
        count += 1;
        for adj in graph.neighbors(id) {
            if adj.relation == Relation::Customer && !seen[adj.neighbor.0 as usize] {
                seen[adj.neighbor.0 as usize] = true;
                stack.push(adj.neighbor);
            }
        }
    }
    count
}

/// Pick the transit AS in `city_code` with the largest (or smallest)
/// customer cone. Sites whose observed behavior hinges on catchment
/// *size* — K-AMS's IX-scale absorber, K-LHR's pinned peering leg —
/// use this instead of the salted pick, so the outcome is a structural
/// property of the deployment rather than an accident of the topology
/// seed. Ties break on AS id, keeping the choice deterministic.
pub fn host_in_city_by_cone(graph: &AsGraph, city_code: &str, largest: bool) -> AsId {
    let (city_id, _) =
        city_by_code(city_code).unwrap_or_else(|| panic!("unknown city code {city_code}"));
    let mut tier2: Vec<AsId> = Vec::new();
    let mut others: Vec<AsId> = Vec::new();
    for node in graph.nodes() {
        if node.city == city_id {
            match node.tier {
                Tier::Tier2 => tier2.push(node.id),
                _ => others.push(node.id),
            }
        }
    }
    let pool = if !tier2.is_empty() { tier2 } else { others };
    assert!(
        !pool.is_empty(),
        "no AS available in {city_code}; enlarge the topology"
    );
    pool.into_iter()
        .min_by_key(|&id| {
            let cone = customer_cone_size(graph, id) as i64;
            (if largest { -cone } else { cone }, id.0)
        })
        .expect("non-empty pool")
}

/// Does any AS exist in this city? (Small test topologies may not cover
/// every catalog city.)
pub fn city_is_populated(graph: &AsGraph, city_code: &str) -> bool {
    city_by_code(city_code)
        .map(|(id, _)| graph.nodes().any(|n| n.city == id))
        .unwrap_or(false)
}

/// Shorthand for a site builder with a per-letter salt.
fn site(graph: &AsGraph, letter: Letter, code: &str, ordinal: u64, capacity_qps: f64) -> SiteSpec {
    let salt = (letter as u64) << 32 | ordinal;
    SiteSpec::global(code, host_in_city(graph, code, salt), capacity_qps)
}

/// A buffer sized to `seconds` of capacity — the bufferbloat dial. Two
/// seconds of buffering reproduces K-AMS's RTT inflation to ~2 s.
fn buffer_secs(capacity_qps: f64, seconds: f64) -> f64 {
    capacity_qps * seconds
}

/// Build all 13 letters against `graph`.
///
/// Letters with large real deployments are represented with fewer sites
/// than Table 2 reports (the synthetic topology has ~90 cities), but the
/// *ordering* of deployment sizes is preserved — the property behind the
/// paper's site-count/reachability correlation (§3.2.1).
pub fn nov2015_deployments(graph: &AsGraph) -> Vec<LetterDeployment> {
    let mut out = Vec::with_capacity(13);

    // Helper: spread `codes` into plain global absorb sites.
    let spread = |letter: Letter, codes: &[&str], capacity: f64| -> Vec<SiteSpec> {
        codes
            .iter()
            .enumerate()
            .filter(|(_, c)| city_is_populated(graph, c))
            .map(|(i, c)| {
                site(graph, letter, c, i as u64, capacity).with_buffer(buffer_secs(capacity, 1.0))
            })
            .collect()
    };

    // --- A (Verisign): 5 global sites, provisioned to ride out 5 Mq/s
    // ("A continu[ed] to serve all regular queries throughout").
    out.push(LetterDeployment {
        letter: Letter::A,
        sites: spread(Letter::A, &["IAD", "LGA", "FRA", "HKG", "LAX"], 2_000_000.0),
        rssac_capture: Some(1.0),
    });

    // --- B (USC/ISI): unicast, one Los Angeles site. Smallest capacity
    // of any letter: the 5 Mq/s event crushes it (worst reachability in
    // Figure 3) while successful queries keep a *stable RTT* — we give
    // it a shallow buffer so overload drops rather than queues.
    out.push(LetterDeployment {
        letter: Letter::B,
        sites: vec![
            site(graph, Letter::B, "LAX", 0, 350_000.0).with_buffer(buffer_secs(350_000.0, 0.05))
        ],
        rssac_capture: None,
    });

    // --- C (Cogent): 8 global sites, moderate capacity.
    out.push(LetterDeployment {
        letter: Letter::C,
        sites: spread(
            Letter::C,
            &["IAD", "LGA", "ORD", "LAX", "FRA", "CDG", "MAD", "NRT"],
            450_000.0,
        ),
        rssac_capture: None,
    });

    // --- D (U. Maryland): many sites, NOT attacked. D-FRA and D-SYD sit
    // in shared facilities — the collateral-damage bystanders of §3.6.
    let mut d_sites = spread(
        Letter::D,
        &[
            "IAD", "LGA", "ORD", "ATL", "SEA", "DEN", "DFW", "MIA", "YYZ", "LHR", "CDG", "AMS",
            "VIE", "ARN", "GRU", "NRT", "HKG", "QPG",
        ],
        350_000.0,
    );
    // D-FRA is a locally-scoped site in the shared Frankfurt facility:
    // a mid-size catchment whose dip is visible in Figure 14 without
    // denting D's letter-level reachability (Figure 3 shows D flat).
    d_sites.push(
        SiteSpec::global("FRA", host_in_city_by_cone(graph, "FRA", true), 350_000.0)
            .with_scope(Scope::Local)
            .with_facility(facilities::FRA_SHARED),
    );
    d_sites
        .push(site(graph, Letter::D, "SYD", 101, 350_000.0).with_facility(facilities::SYD_SHARED));
    out.push(LetterDeployment {
        letter: Letter::D,
        sites: d_sites,
        rssac_capture: None,
    });

    // --- E (NASA): the paper's Figure 6a site list. Five sites
    // (AMS, CDG, WAW, SYD, NLV) "shut down" after the Dec 1 event:
    // withdraw-sticky. The rest: large sites absorb, small local sites
    // serve their host cones.
    let e_caps: &[(&str, f64)] = &[
        ("AMS", 38_000.0),
        ("FRA", 420_000.0),
        ("LHR", 380_000.0),
        ("ARC", 350_000.0),
        ("CDG", 50_000.0),
        ("VIE", 200_000.0),
        ("QPG", 200_000.0),
        ("ORD", 220_000.0),
        ("KBP", 150_000.0),
        ("ZRH", 160_000.0),
        ("IAD", 260_000.0),
        ("PAO", 240_000.0),
        ("WAW", 22_000.0),
        ("ATL", 200_000.0),
        ("BER", 150_000.0),
        ("SYD", 9_000.0),
        ("SEA", 180_000.0),
        ("NLV", 35_000.0),
        ("MIA", 170_000.0),
        ("NRT", 140_000.0),
        ("TRN", 120_000.0),
        ("AKL", 100_000.0),
        ("MAN", 110_000.0),
        ("BUR", 110_000.0),
        ("LGA", 150_000.0),
        ("PER", 80_000.0),
        ("SNA", 80_000.0),
        ("LBA", 60_000.0),
        ("SIN", 60_000.0),
        ("DXB", 50_000.0),
        ("KGL", 40_000.0),
        ("LAD", 40_000.0),
    ];
    let e_sticky = ["AMS", "CDG", "WAW", "SYD", "NLV"];
    let e_local = ["LBA", "SIN", "DXB", "KGL", "LAD", "PER", "SNA"];
    let e_sites = e_caps
        .iter()
        .enumerate()
        .filter(|(_, (c, _))| city_is_populated(graph, c))
        .map(|(i, &(code, cap))| {
            let mut s =
                site(graph, Letter::E, code, i as u64, cap).with_buffer(buffer_secs(cap, 1.2));
            if e_sticky.contains(&code) {
                s = s.with_policy(StressPolicy::withdraw_after_episode(2));
            } else if e_local.contains(&code) {
                s = s.with_scope(Scope::Local);
            }
            if code == "SYD" {
                s = s.with_facility(facilities::SYD_SHARED);
            }
            s
        })
        .collect();
    out.push(LetterDeployment {
        letter: Letter::E,
        sites: e_sites,
        rssac_capture: None,
    });

    // --- F (ISC): 5 global + many local sites; well provisioned.
    let f_global = ["PAO", "ORD", "LGA", "LHR", "HKG"];
    let f_local = [
        "AMS", "CDG", "MAD", "ROM", "PRG", "ARN", "OSL", "HEL", "GRU", "EZE", "SCL", "JNB", "NBO",
        "TPE", "ICN", "BKK", "YYZ", "MEX", "DUB",
    ];
    let mut f_sites: Vec<SiteSpec> = f_global
        .iter()
        .enumerate()
        .filter(|(_, c)| city_is_populated(graph, c))
        .map(|(i, &c)| {
            site(graph, Letter::F, c, i as u64, 600_000.0).with_buffer(buffer_secs(600_000.0, 1.0))
        })
        .collect();
    f_sites.extend(
        f_local
            .iter()
            .enumerate()
            .filter(|(_, c)| city_is_populated(graph, c))
            .map(|(i, &c)| {
                site(graph, Letter::F, c, 100 + i as u64, 150_000.0).with_scope(Scope::Local)
            }),
    );
    out.push(LetterDeployment {
        letter: Letter::F,
        sites: f_sites,
        rssac_capture: None,
    });

    // --- G (U.S. DoD): 6 global sites, modest capacity. Half the sites
    // withdraw under stress (Figure 4 shows G's RTT jumping as routes
    // moved); the other half absorb, so the letter keeps partial
    // service from farther, slower sites instead of going fully dark.
    out.push(LetterDeployment {
        letter: Letter::G,
        sites: ["IAD", "ORD", "SAN", "BWI", "DEN", "SEA"]
            .iter()
            .enumerate()
            .filter(|(_, c)| city_is_populated(graph, c))
            .map(|(i, &c)| {
                let s = site(graph, Letter::G, c, i as u64, 320_000.0);
                if i % 2 == 0 {
                    s.with_policy(StressPolicy::withdraw_default())
                } else {
                    s.with_buffer(buffer_secs(320_000.0, 1.5))
                }
            })
            .collect(),
        rssac_capture: None,
    });

    // --- H (ARL): two sites, primary (east coast, BWI) and backup
    // (San Diego) de-preferred via prepending. Under overload the
    // primary's session drops, traffic crosses the continent, and the
    // median RTT from (European) VPs converges to B's — Figure 4.
    out.push(LetterDeployment {
        letter: Letter::H,
        sites: vec![
            site(graph, Letter::H, "BWI", 0, 600_000.0).with_policy(StressPolicy::Withdraw {
                overload_ratio: 2.0,
                sustain: SimDuration::from_mins(4),
                retry_after: Some(SimDuration::from_mins(20)),
                after_episodes: 1,
            }),
            site(graph, Letter::H, "SAN", 1, 600_000.0).with_prepend(4),
        ],
        rssac_capture: Some(0.35),
    });

    // --- I (Netnod): ~49 global sites, healthy capacity: mild impact.
    out.push(LetterDeployment {
        letter: Letter::I,
        sites: spread(
            Letter::I,
            &[
                "ARN", "OSL", "CPH", "HEL", "AMS", "LHR", "FRA", "CDG", "MIL", "VIE", "WAW", "MOW",
                "IAD", "ORD", "PAO", "MIA", "YYZ", "HKG", "NRT", "QPG", "SYD", "JNB", "DXB", "GRU",
            ],
            550_000.0,
        ),
        rssac_capture: None,
    });

    // --- J (Verisign): the largest deployment; big global capacity so
    // only a few VPs lose service (Figure 3).
    out.push(LetterDeployment {
        letter: Letter::J,
        sites: spread(
            Letter::J,
            &[
                "IAD", "LGA", "ATL", "ORD", "DFW", "DEN", "SEA", "PAO", "LAX", "MIA", "YYZ", "MEX",
                "GRU", "EZE", "LHR", "FRA", "AMS", "CDG", "MAD", "ARN", "VIE", "PRG", "IST", "NRT",
                "ICN", "HKG", "QPG", "BOM", "SYD", "AKL",
            ],
            650_000.0,
        ),
        rssac_capture: Some(0.40),
    });

    // --- K (RIPE): the paper's main case study; Figure 6b's site list.
    // Per-site tuning reproduces §3.3–§3.5:
    //  * K-AMS — huge catchment, absorbs with ~2 s of bufferbloat;
    //  * K-LHR — a withdrawing global origin *plus* a small local origin
    //    pinned to its host's customer cone: the "stuck" VPs that keep
    //    getting occasional replies while everyone else flips to AMS;
    //  * K-FRA — absorber in the shared Frankfurt facility, failover-
    //    concentrating load balancer (one surviving server, §3.5);
    //  * K-NRT — absorber behind one congested shared link (all three
    //    servers slow, one hash-hot, §3.5).
    let mut k_sites: Vec<SiteSpec> = Vec::new();
    {
        // AMS-IX peering gives K-AMS the biggest catchment in the
        // deployment by construction: host on the largest-cone transit.
        let cap_ams = 150_000.0;
        k_sites.push(
            SiteSpec::global("AMS", host_in_city_by_cone(graph, "AMS", true), cap_ams)
                .with_buffer(buffer_secs(cap_ams, 2.2)),
        );
        let cap_lhr = 80_000.0;
        k_sites.push(
            site(graph, Letter::K, "LHR", 1, cap_lhr)
                .with_buffer(buffer_secs(cap_lhr, 1.0))
                .with_policy(StressPolicy::Withdraw {
                    overload_ratio: 1.5,
                    sustain: SimDuration::from_mins(4),
                    retry_after: Some(SimDuration::from_mins(25)),
                    after_episodes: 1,
                }),
        );
        // The pinned peering leg of K-LHR (same airport code: both
        // origins present as "K-LHR" in CHAOS identities). Hosted on
        // the smallest-cone transit so that when the global origin
        // withdraws, only the host's own cone stays "stuck" here and
        // everyone else flips to AMS — the §3.3 behavior.
        k_sites.push(
            SiteSpec::global("LHR", host_in_city_by_cone(graph, "LHR", false), 60_000.0)
                .with_scope(Scope::Local)
                .with_buffer(buffer_secs(60_000.0, 0.3)),
        );
        let cap_fra = 60_000.0;
        k_sites.push(
            site(graph, Letter::K, "FRA", 3, cap_fra)
                .with_buffer(buffer_secs(cap_fra, 0.8))
                .with_lb_mode(LoadBalancerMode::FailoverConcentrate)
                .with_facility(facilities::FRA_SHARED),
        );
        // K-NRT serves the region's biggest cone through one congested
        // shared link.
        let cap_nrt = 55_000.0;
        k_sites.push(
            SiteSpec::global("NRT", host_in_city_by_cone(graph, "NRT", true), cap_nrt)
                .with_buffer(buffer_secs(cap_nrt, 1.8))
                .with_lb_mode(LoadBalancerMode::SharedLink),
        );
        let k_rest: &[(&str, f64)] = &[
            ("MIA", 300_000.0),
            ("VIE", 280_000.0),
            ("LED", 250_000.0),
            ("MIL", 200_000.0),
            ("ZRH", 200_000.0),
            ("WAW", 150_000.0),
            ("BNE", 180_000.0),
            ("PRG", 180_000.0),
            ("GVA", 180_000.0),
            ("ATH", 120_000.0),
            ("MKC", 120_000.0),
            ("RIX", 100_000.0),
            ("THR", 100_000.0),
            ("BUD", 100_000.0),
            ("KAE", 80_000.0),
            ("BEG", 80_000.0),
            ("HEL", 80_000.0),
            ("PLX", 60_000.0),
            ("OVB", 60_000.0),
            ("POZ", 60_000.0),
            ("ABO", 50_000.0),
            ("AVN", 50_000.0),
            ("BCN", 50_000.0),
            ("REY", 50_000.0),
            ("DOH", 40_000.0),
            ("RNO", 40_000.0),
        ];
        let k_local = [
            "KAE", "PLX", "OVB", "POZ", "ABO", "AVN", "BCN", "REY", "DOH", "RNO",
        ];
        for (i, &(code, cap)) in k_rest.iter().enumerate() {
            if !city_is_populated(graph, code) {
                continue;
            }
            let mut s =
                site(graph, Letter::K, code, 10 + i as u64, cap).with_buffer(buffer_secs(cap, 1.2));
            if k_local.contains(&code) {
                s = s.with_scope(Scope::Local);
            }
            k_sites.push(s);
        }
    }
    out.push(LetterDeployment {
        letter: Letter::K,
        sites: k_sites,
        rssac_capture: Some(0.22),
    });

    // --- L (ICANN): the widest deployment, NOT attacked. Its RSSAC
    // reports show the letter-flip inflow during event 2 (§3.2.2).
    out.push(LetterDeployment {
        letter: Letter::L,
        sites: spread(
            Letter::L,
            &[
                "IAD", "LGA", "ATL", "ORD", "DFW", "DEN", "SEA", "PAO", "LAX", "MIA", "YYZ", "YVR",
                "MEX", "BOG", "GRU", "EZE", "SCL", "LHR", "FRA", "AMS", "CDG", "MAD", "BCN", "ROM",
                "ZRH", "VIE", "PRG", "WAW", "ARN", "HEL", "IST", "MOW", "CAI", "JNB", "NBO", "LOS",
                "DXB", "TLV", "BOM", "DEL", "BKK", "KUL", "QPG", "CGK", "HKG", "TPE", "ICN", "NRT",
                "SYD", "AKL",
            ],
            500_000.0,
        ),
        rssac_capture: Some(1.0),
    });

    // --- M (WIDE): 6 sites centered on Japan, NOT attacked.
    out.push(LetterDeployment {
        letter: Letter::M,
        sites: spread(
            Letter::M,
            &["NRT", "ICN", "HKG", "QPG", "CDG", "PAO"],
            500_000.0,
        ),
        rssac_capture: None,
    });

    assert_eq!(out.len(), 13);
    out
}

/// Legitimate `.nl` query load across both anycast sites of
/// [`nl_deployment`], q/s (80 kq/s, the load behind Figure 15). A fixed
/// part of the modelled event, so not a knob.
pub const NL_QPS: f64 = 80_000.0;

/// The `.nl` anycast deployment used for Figure 15: two anycast sites
/// co-located with root-server sites in the shared facilities. (SIDN
/// also ran four unicast deployments; the figure shows only the two
/// anycast sites that collapsed, which is what we model.)
pub fn nl_deployment(graph: &AsGraph) -> Vec<SiteSpec> {
    // Salts distinct from every letter's salt space ("nl" in ASCII).
    const NL_SALT_FRA: u64 = 0x6E6C_0001;
    const NL_SALT_SYD: u64 = 0x6E6C_0002;
    vec![
        SiteSpec::global("FRA", host_in_city(graph, "FRA", NL_SALT_FRA), 100_000.0)
            .with_facility(facilities::FRA_SHARED),
        SiteSpec::global("SYD", host_in_city(graph, "SYD", NL_SALT_SYD), 100_000.0)
            .with_facility(facilities::SYD_SHARED),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rootcast_netsim::SimRng;
    use rootcast_topology::{gen, TopologyParams};

    fn graph() -> AsGraph {
        gen::generate(&TopologyParams::default(), &SimRng::new(42))
    }

    #[test]
    fn thirteen_letters_configured() {
        let g = graph();
        let deps = nov2015_deployments(&g);
        assert_eq!(deps.len(), 13);
        let letters: Vec<Letter> = deps.iter().map(|d| d.letter).collect();
        assert_eq!(letters, Letter::ALL.to_vec());
    }

    #[test]
    fn site_count_ordering_matches_table2() {
        let g = graph();
        let deps = nov2015_deployments(&g);
        let count = |l: Letter| deps.iter().find(|d| d.letter == l).unwrap().n_sites();
        // B unicast, H two sites; L the widest; K > C; J large.
        assert_eq!(count(Letter::B), 1);
        assert_eq!(count(Letter::H), 2);
        assert!(count(Letter::L) >= count(Letter::J));
        assert!(count(Letter::J) > count(Letter::C));
        assert!(count(Letter::K) > count(Letter::C));
        assert!(count(Letter::E) > 20);
    }

    #[test]
    fn capacity_ordering_reflects_outcomes() {
        let g = graph();
        let deps = nov2015_deployments(&g);
        let cap = |l: Letter| -> f64 {
            let d = deps.iter().find(|d| d.letter == l).unwrap();
            d.sites.iter().map(|s| s.capacity_qps).sum()
        };
        // A provisioned beyond the 5 Mq/s event; B far below.
        assert!(cap(Letter::A) > 5_000_000.0);
        assert!(cap(Letter::B) < 500_000.0);
        assert!(cap(Letter::J) > cap(Letter::K));
    }

    #[test]
    fn k_lhr_has_global_and_local_legs() {
        let g = graph();
        let deps = nov2015_deployments(&g);
        let k = deps.iter().find(|d| d.letter == Letter::K).unwrap();
        let lhr: Vec<&SiteSpec> = k.sites.iter().filter(|s| s.code == "LHR").collect();
        assert_eq!(lhr.len(), 2);
        assert!(lhr.iter().any(|s| s.scope == Scope::Global));
        assert!(lhr.iter().any(|s| s.scope == Scope::Local));
    }

    #[test]
    fn shared_facilities_host_bystanders() {
        let g = graph();
        let deps = nov2015_deployments(&g);
        let in_fra_shared: Vec<Letter> = deps
            .iter()
            .flat_map(|d| {
                d.sites
                    .iter()
                    .filter(|s| s.facility == Some(facilities::FRA_SHARED))
                    .map(move |_| d.letter)
            })
            .collect();
        assert!(in_fra_shared.contains(&Letter::K));
        assert!(in_fra_shared.contains(&Letter::D));
        let nl = nl_deployment(&g);
        assert_eq!(nl.len(), 2);
        assert_eq!(nl[0].facility, Some(facilities::FRA_SHARED));
        assert_eq!(nl[1].facility, Some(facilities::SYD_SHARED));
    }

    #[test]
    fn rssac_reporters_match_paper() {
        let g = graph();
        let deps = nov2015_deployments(&g);
        let reporters: Vec<Letter> = deps
            .iter()
            .filter(|d| d.rssac_capture.is_some())
            .map(|d| d.letter)
            .collect();
        assert_eq!(
            reporters,
            vec![Letter::A, Letter::H, Letter::J, Letter::K, Letter::L]
        );
    }

    #[test]
    fn host_selection_is_deterministic_and_in_city() {
        let g = graph();
        let a = host_in_city(&g, "FRA", 1);
        assert_eq!(a, host_in_city(&g, "FRA", 1));
        let (fra, _) = rootcast_topology::city_by_code("FRA").unwrap();
        assert_eq!(g.node(a).city, fra);
        // Salts spread across hosts when a city has several candidates
        // (AMS in the default catalog has multiple ASes of some tier).
        let hosts: std::collections::BTreeSet<AsId> =
            (0..16).map(|i| host_in_city(&g, "AMS", i)).collect();
        assert!(!hosts.is_empty());
    }
}
