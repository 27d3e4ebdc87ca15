//! The §2.2 thought experiment: withdraw vs. absorb, analytically.
//!
//! The paper grounds its empirical observations in a small model
//! (Figure 2): an anycast deployment of sites with capacities, clients
//! assigned to catchments, attackers with volumes, and a set of possible
//! *responses* — do nothing (absorb), withdraw specific routes, or
//! re-route a neighbor ISP. The score is **H ("happiness")**: how many
//! clients still receive service. This module implements the model in
//! general form, reproduces the paper's five cases, and powers the
//! ablation benches that sweep attack size against policy choice.

use crate::render::TextTable;

/// One site in the model: a capacity and the set of client/attacker
/// groups currently routed to it.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSite {
    pub name: String,
    /// Capacity in attack-traffic units.
    pub capacity: f64,
}

/// A traffic group: either clients (counted toward happiness) or an
/// attacker (pure load). Groups sit behind an ISP that routing can move
/// between sites as a unit.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficGroup {
    pub name: String,
    /// Number of clients in the group (0 for pure attackers).
    pub clients: u32,
    /// Attack volume carried by the group (0 for pure client groups).
    pub attack: f64,
    /// Index of the site this group is currently routed to.
    pub site: usize,
}

/// A deployment state: sites plus routed groups.
#[derive(Debug, Clone, PartialEq)]
pub struct Deployment {
    pub sites: Vec<ModelSite>,
    pub groups: Vec<TrafficGroup>,
}

impl Deployment {
    /// Total offered attack load at each site.
    pub fn site_load(&self) -> Vec<f64> {
        let mut load = vec![0.0; self.sites.len()];
        for g in &self.groups {
            load[g.site] += g.attack;
        }
        load
    }

    /// Happiness: clients whose site is not overloaded.
    ///
    /// Following the paper's simplification, client traffic is ignored
    /// against capacity (`c* ≪ A*`, massive overprovisioning): a site
    /// serves its clients iff `attack load ≤ capacity`.
    pub fn happiness(&self) -> u32 {
        let load = self.site_load();
        self.groups
            .iter()
            .filter(|g| load[g.site] <= self.sites[g.site].capacity)
            .map(|g| g.clients)
            .sum()
    }

    /// Move one group to another site (a route change for its ISP).
    pub fn with_group_moved(&self, group: usize, to_site: usize) -> Deployment {
        let mut d = self.clone();
        assert!(to_site < d.sites.len());
        d.groups[group].site = to_site;
        d
    }

    /// Withdraw a site entirely: all its groups move to `fallback`.
    pub fn with_site_withdrawn(&self, site: usize, fallback: usize) -> Deployment {
        assert_ne!(site, fallback, "withdrawal needs a different fallback");
        let mut d = self.clone();
        for g in &mut d.groups {
            if g.site == site {
                g.site = fallback;
            }
        }
        d
    }

    /// Exhaustive best response: try every assignment of groups to
    /// sites (the model is tiny) and return the maximum happiness.
    /// This is the upper bound an omniscient operator could reach.
    pub fn best_possible(&self) -> u32 {
        let n_sites = self.sites.len();
        let n_groups = self.groups.len();
        assert!(
            n_sites.pow(n_groups as u32) <= 1_000_000,
            "model too large for exhaustive search"
        );
        let mut best = 0;
        let mut assignment = vec![0usize; n_groups];
        loop {
            let mut d = self.clone();
            for (g, &s) in assignment.iter().enumerate() {
                d.groups[g].site = s;
            }
            best = best.max(d.happiness());
            // Odometer increment.
            let mut i = 0;
            loop {
                if i == n_groups {
                    return best;
                }
                assignment[i] += 1;
                if assignment[i] < n_sites {
                    break;
                }
                assignment[i] = 0;
                i += 1;
            }
        }
    }
}

/// The paper's Figure 2 deployment: sites s1, s2 (equal capacity) and S3
/// (10× larger). Traffic arrives through ISPs, and routing moves an ISP's
/// traffic *as a unit*: ISP0 carries client c0 together with attacker A0
/// (they share s1's catchment and cannot be separated — the crux of case
/// 5), ISP1 carries c1 together with A1, and c2/c3 are clean ISPs at s2
/// and S3.
pub fn paper_deployment(s1_capacity: f64, a0: f64, a1: f64) -> Deployment {
    Deployment {
        sites: vec![
            ModelSite {
                name: "s1".into(),
                capacity: s1_capacity,
            },
            ModelSite {
                name: "s2".into(),
                capacity: s1_capacity,
            },
            ModelSite {
                name: "S3".into(),
                capacity: 10.0 * s1_capacity,
            },
        ],
        groups: vec![
            TrafficGroup {
                name: "ISP0 (c0+A0)".into(),
                clients: 1,
                attack: a0,
                site: 0,
            },
            TrafficGroup {
                name: "ISP1 (c1+A1)".into(),
                clients: 1,
                attack: a1,
                site: 0,
            },
            TrafficGroup {
                name: "c2".into(),
                clients: 1,
                attack: 0.0,
                site: 1,
            },
            TrafficGroup {
                name: "c3".into(),
                clients: 1,
                attack: 0.0,
                site: 2,
            },
        ],
    }
}

/// The strategies the paper discusses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Do nothing: overloaded sites become degraded absorbers.
    Absorb,
    /// s1 withdraws the route serving ISP1, shifting c1+A1 to s2
    /// (case 2's move).
    WithdrawIsp1ToS2,
    /// s1 and s2 withdraw everything; S3 serves all (case 3's move).
    WithdrawSmallSites,
    /// Re-route ISP1 (c1+A1) to the big site S3 (case 4's move).
    RerouteIsp1ToS3,
}

impl Strategy {
    pub const ALL: [Strategy; 4] = [
        Strategy::Absorb,
        Strategy::WithdrawIsp1ToS2,
        Strategy::WithdrawSmallSites,
        Strategy::RerouteIsp1ToS3,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Strategy::Absorb => "absorb",
            Strategy::WithdrawIsp1ToS2 => "withdraw ISP1 -> s2",
            Strategy::WithdrawSmallSites => "withdraw s1+s2 -> S3",
            Strategy::RerouteIsp1ToS3 => "reroute ISP1 -> S3",
        }
    }

    /// Apply to the paper deployment (group 1 is ISP1).
    pub fn apply(self, d: &Deployment) -> Deployment {
        match self {
            Strategy::Absorb => d.clone(),
            Strategy::WithdrawIsp1ToS2 => d.with_group_moved(1, 1),
            Strategy::WithdrawSmallSites => d.with_site_withdrawn(0, 2).with_site_withdrawn(1, 2),
            Strategy::RerouteIsp1ToS3 => d.with_group_moved(1, 2),
        }
    }
}

/// One row of the case analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseOutcome {
    pub case: &'static str,
    pub a0: f64,
    pub a1: f64,
    /// Happiness per strategy, in [`Strategy::ALL`] order.
    pub happiness: Vec<u32>,
    /// Best achievable by any assignment.
    pub best_possible: u32,
}

/// Reproduce the paper's five cases with `s1 = s2 = 1`, `S3 = 10`.
///
/// | case | condition | expected best H |
/// |------|-----------|-----------------|
/// | 1 | A0+A1 < s1 | 4 |
/// | 2 | A0+A1 > s1, A0 < s1, A1 < s2 | 4 (withdraw ISP1) |
/// | 3 | A0 > s1, A0+A1 < S3 | 4 (withdraw small sites) |
/// | 4 | A0 > s1, A0+A1 > S3, A1 < S3 | 3 (reroute ISP1) |
/// | 5 | A0 > S3 | 2 (absorb) |
pub fn paper_cases() -> Vec<CaseOutcome> {
    let cases: [(&'static str, f64, f64); 5] = [
        ("1: tiny attack", 0.2, 0.2),
        ("2: s1 overloaded, either half fits", 0.7, 0.7),
        ("3: A0 kills any small site", 3.0, 3.0),
        ("4: combined kills S3, A1 alone fits", 6.0, 6.0),
        ("5: attack kills even S3", 11.0, 11.0),
    ];
    cases
        .iter()
        .map(|&(case, a0, a1)| {
            let d = paper_deployment(1.0, a0, a1);
            let happiness = Strategy::ALL
                .iter()
                .map(|s| s.apply(&d).happiness())
                .collect();
            CaseOutcome {
                case,
                a0,
                a1,
                happiness,
                best_possible: d.best_possible(),
            }
        })
        .collect()
}

/// Render the case table (the quantitative form of §2.2's discussion).
pub fn render_cases(cases: &[CaseOutcome]) -> TextTable {
    let mut headers = vec!["case", "A0", "A1"];
    headers.extend(Strategy::ALL.iter().map(|s| s.name()));
    headers.push("best");
    let mut t = TextTable::new("Figure 2 / §2.2: policy model happiness", &headers);
    for c in cases {
        let mut row = vec![c.case.to_string(), format!("{}", c.a0), format!("{}", c.a1)];
        row.extend(c.happiness.iter().map(|h| h.to_string()));
        row.push(c.best_possible.to_string());
        t.row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(strategy: Strategy, a0: f64, a1: f64) -> u32 {
        strategy.apply(&paper_deployment(1.0, a0, a1)).happiness()
    }

    #[test]
    fn case1_no_harm() {
        // A0+A1 < s1: everyone happy without action.
        assert_eq!(h(Strategy::Absorb, 0.2, 0.2), 4);
    }

    #[test]
    fn case2_withdraw_helps() {
        // s1 overloaded by A0+A1 but each half fits one small site.
        assert_eq!(h(Strategy::Absorb, 0.7, 0.7), 2);
        assert_eq!(h(Strategy::WithdrawIsp1ToS2, 0.7, 0.7), 4);
    }

    #[test]
    fn case3_fold_into_big_site() {
        // A0 alone kills a small site; S3 swallows everything.
        assert_eq!(h(Strategy::Absorb, 3.0, 3.0), 2);
        assert_eq!(h(Strategy::WithdrawIsp1ToS2, 3.0, 3.0), 1);
        assert_eq!(h(Strategy::WithdrawSmallSites, 3.0, 3.0), 4);
    }

    #[test]
    fn case4_reroute_saves_three() {
        // A0+A1 > S3 but A1 alone fits S3: sacrifice c0, save c1.
        assert_eq!(h(Strategy::Absorb, 6.0, 6.0), 2);
        // Folding everything into S3 now kills S3 too: even c3 is lost.
        assert_eq!(h(Strategy::WithdrawSmallSites, 6.0, 6.0), 0);
        assert_eq!(h(Strategy::RerouteIsp1ToS3, 6.0, 6.0), 3);
    }

    #[test]
    fn case5_absorb_is_optimal() {
        // A0 = A1 > S3: any site that hears either ISP dies. Containing
        // both at s1 sacrifices c0 and c1 but protects c2 and c3.
        assert_eq!(h(Strategy::Absorb, 11.0, 11.0), 2);
        assert_eq!(h(Strategy::WithdrawSmallSites, 11.0, 11.0), 0);
        assert_eq!(h(Strategy::RerouteIsp1ToS3, 11.0, 11.0), 1);
        // No assignment beats containment.
        let d = paper_deployment(1.0, 11.0, 11.0);
        assert_eq!(d.best_possible(), 2);
    }

    #[test]
    fn strategies_match_best_possible_in_each_case() {
        // The paper's claim: in every case some listed strategy reaches
        // the omniscient optimum.
        for c in paper_cases() {
            let best_listed = *c.happiness.iter().max().unwrap();
            assert_eq!(
                best_listed, c.best_possible,
                "case {}: strategies {:?} vs best {}",
                c.case, c.happiness, c.best_possible
            );
        }
    }

    #[test]
    fn less_can_be_more() {
        // §2.2: "although perhaps counterintuitive, less can be more" —
        // withdrawing a route (serving with FEWER sites) increases H.
        let d = paper_deployment(1.0, 0.7, 0.7);
        assert!(Strategy::WithdrawIsp1ToS2.apply(&d).happiness() > d.happiness());
    }

    #[test]
    fn render_produces_five_rows() {
        let t = render_cases(&paper_cases());
        assert_eq!(t.rows.len(), 5);
        assert!(t.to_string().contains("absorb"));
    }

    #[test]
    fn happiness_counts_only_reachable_clients() {
        let mut d = paper_deployment(1.0, 0.0, 0.0);
        assert_eq!(d.happiness(), 4);
        // Overload S3 directly.
        d.groups.push(TrafficGroup {
            name: "A2".into(),
            clients: 0,
            attack: 11.0,
            site: 2,
        });
        assert_eq!(d.happiness(), 3, "c3 lost when S3 is overwhelmed");
    }

    #[test]
    fn with_site_withdrawn_moves_all_groups() {
        let d = paper_deployment(1.0, 1.0, 1.0).with_site_withdrawn(0, 2);
        assert!(d.groups.iter().all(|g| g.site != 0));
    }
}
