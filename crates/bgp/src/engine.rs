//! Policy-routing computation: from a set of active anycast origins to a
//! per-AS routing table (and thus the **catchment** of every site).
//!
//! ## Algorithm
//!
//! Under Gao–Rexford export rules, stable routing can be computed in three
//! phases (this is the standard result exploited by AS-level simulators):
//!
//! 1. **Customer phase** — routes flow *upward* (customer → provider)
//!    from the origins. Every AS on such a chain learns the route from a
//!    customer, the most-preferred class, so nothing computed later can
//!    displace these entries.
//! 2. **Peer phase** — every AS holding an origin/customer route offers
//!    it across peering edges. Peer routes are accepted only by ASes with
//!    nothing better and are not re-exported sideways or upward.
//! 3. **Provider phase** — routes flow *downward* (provider → customer)
//!    from every AS that has any route; customers without better routes
//!    adopt them and continue downward.
//!
//! Within each phase we run a Dijkstra-style expansion ordered by
//! advertised path length with a deterministic tiebreak, so the outcome is
//! unique and reproducible.
//!
//! Withdrawals are modeled by recomputing with a smaller active-origin
//! set; the [`crate::collector`] module diffs successive tables the way
//! BGPmon's peers observe update churn.

use crate::route::{LearnedFrom, Origin, OriginIdx, RouteEntry, Scope};
use rootcast_netsim::SimDuration;
use rootcast_topology::{AsGraph, AsId, Relation};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Fixed per-AS-hop forwarding/processing overhead added on top of
/// geographic propagation delay.
pub const HOP_OVERHEAD: SimDuration = SimDuration::from_micros(300);

/// The routing table for one prefix: each AS's chosen route, if any.
#[derive(Debug, Clone, PartialEq)]
pub struct Rib {
    entries: Vec<Option<RouteEntry>>,
}

impl Rib {
    /// The chosen route at `asn`.
    #[inline]
    pub fn route(&self, asn: AsId) -> Option<&RouteEntry> {
        self.entries[asn.0 as usize].as_ref()
    }

    /// The origin (site) `asn`'s traffic reaches, if reachable.
    pub fn origin_of(&self, asn: AsId) -> Option<OriginIdx> {
        self.route(asn).map(|r| r.origin)
    }

    /// Number of ASes with any route.
    pub fn reachable_count(&self) -> usize {
        self.entries.iter().flatten().count()
    }

    /// Iterate `(AsId, &RouteEntry)` for all routed ASes, ascending id.
    pub fn iter(&self) -> impl Iterator<Item = (AsId, &RouteEntry)> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.as_ref().map(|r| (AsId(i as u32), r)))
    }

    /// Catchment sizes: for each origin index, how many ASes route to it.
    pub fn catchment_sizes(&self, n_origins: usize) -> Vec<usize> {
        let mut counts = vec![0usize; n_origins];
        for e in self.entries.iter().flatten() {
            counts[e.origin.0 as usize] += 1;
        }
        counts
    }

    /// An empty RIB of the right size (nothing reachable).
    pub fn unreachable(n_ases: usize) -> Rib {
        Rib {
            entries: vec![None; n_ases],
        }
    }

    /// Mark which ASes chose a different route in `self` than in `prev`:
    /// `changed[asn]` is set iff the entries differ (route appeared,
    /// disappeared, or any field of the chosen route moved). Entry
    /// equality is stricter than the collector's peer signature, so a
    /// consumer that skips unchanged ASes can never miss an update.
    pub fn diff_into(&self, prev: &Rib, changed: &mut Vec<bool>) {
        assert_eq!(self.entries.len(), prev.entries.len());
        changed.clear();
        changed.extend(
            self.entries
                .iter()
                .zip(&prev.entries)
                .map(|(cur, old)| cur != old),
        );
    }
}

/// Compute the stable routing table for a prefix announced by the active
/// subset of `origins`, treating every origin as globally scoped, into a
/// caller-owned table, so reconvergence loops (withdraw/re-announce
/// churn, collector replay) reuse one allocation instead of building a
/// fresh `Vec` per recompute. `rib` is resized to the graph and fully
/// overwritten; prior contents are irrelevant.
///
/// `active[i]` gates `origins[i]`; this is how route withdrawals are
/// expressed (a withdrawn site is simply not an origin for the recompute).
pub fn compute_rib_into(graph: &AsGraph, origins: &[Origin], active: &[bool], rib: &mut Rib) {
    assert_eq!(origins.len(), active.len());
    let n = graph.len();
    rib.entries.clear();
    rib.entries.resize(n, None);
    let entries = &mut rib.entries;

    // Seed origin-host entries. If the same AS hosts several active sites
    // (possible in degenerate configs), the lowest origin index wins.
    for (i, (o, &act)) in origins.iter().zip(active).enumerate() {
        if !act {
            continue;
        }
        let idx = o.host.0 as usize;
        let seed = RouteEntry {
            origin: OriginIdx(i as u32),
            learned: LearnedFrom::Origin,
            path_len: o.prepend,
            next_hop: o.host,
            latency: SimDuration::ZERO,
        };
        match &entries[idx] {
            Some(existing) if !seed.better_than(existing) => {}
            _ => entries[idx] = Some(seed),
        }
    }

    // --- Phase 1: customer routes flow upward. ---
    run_phase(graph, entries, Phase::Customer);
    // --- Phase 2: one-hop peer export. ---
    // Collect offers first so peer routes never cascade through other
    // peers (valley-free: at most one peering edge per path).
    let mut peer_offers: Vec<(AsId, RouteEntry)> = Vec::new();
    for (i, entry) in entries.iter().enumerate() {
        let Some(r) = entry else { continue };
        if !exportable_sideways(r, origins) {
            continue;
        }
        let u = AsId(i as u32);
        for adj in graph.neighbors(u) {
            if adj.relation == Relation::Peer {
                peer_offers.push((
                    adj.neighbor,
                    RouteEntry {
                        origin: r.origin,
                        learned: LearnedFrom::Peer,
                        path_len: r.path_len + 1,
                        next_hop: u,
                        latency: r.latency + graph.geo_delay(u, adj.neighbor) + HOP_OVERHEAD,
                    },
                ));
            }
        }
    }
    for (v, offer) in peer_offers {
        let slot = &mut entries[v.0 as usize];
        match slot {
            Some(existing) if !offer.better_than(existing) => {}
            _ => *slot = Some(offer),
        }
    }
    // --- Phase 3: provider routes flow downward. ---
    run_phase(graph, entries, Phase::Provider);
}

/// Whether `r` may be exported to peers/providers: only origin or
/// customer-learned routes (Gao–Rexford), and never for Local-scope
/// origins, whose host confines the route to its customer cone.
fn exportable_sideways(r: &RouteEntry, origins: &[Origin]) -> bool {
    let scope_ok = origins[r.origin.0 as usize].scope == Scope::Global;
    scope_ok && matches!(r.learned, LearnedFrom::Origin | LearnedFrom::Customer)
}

#[derive(Clone, Copy, PartialEq)]
enum Phase {
    /// Export upward across customer→provider edges.
    Customer,
    /// Export downward across provider→customer edges.
    Provider,
}

/// Export frontier ordered by `(path_len, latency, next_hop, target)`
/// so expansion order — and therefore every tiebreak — is deterministic.
type ExportHeap = BinaryHeap<Reverse<(u16, SimDuration, u32, u32, RouteEntry)>>;

/// Dijkstra-style expansion for one phase. The heap is ordered by
/// `(path_len, next_hop, target)` so expansion order — and therefore
/// every tiebreak — is deterministic.
fn run_phase(graph: &AsGraph, entries: &mut [Option<RouteEntry>], phase: Phase) {
    let mut heap: ExportHeap = BinaryHeap::new();

    let push_exports = |heap: &mut ExportHeap,
                        graph: &AsGraph,
                        u: AsId,
                        r: &RouteEntry,
                        origins_exportable: bool| {
        for adj in graph.neighbors(u) {
            let target_rel_ok = match phase {
                // u exports to its providers (neighbor is Provider to u).
                Phase::Customer => adj.relation == Relation::Provider,
                // u exports to its customers.
                Phase::Provider => adj.relation == Relation::Customer,
            };
            if !target_rel_ok {
                continue;
            }
            if phase == Phase::Customer && !origins_exportable {
                continue;
            }
            let learned = match phase {
                Phase::Customer => LearnedFrom::Customer,
                Phase::Provider => LearnedFrom::Provider,
            };
            let cand = RouteEntry {
                origin: r.origin,
                learned,
                path_len: r.path_len + 1,
                next_hop: u,
                latency: r.latency + graph.geo_delay(u, adj.neighbor) + HOP_OVERHEAD,
            };
            heap.push(Reverse((
                cand.path_len,
                cand.latency,
                cand.next_hop.0,
                adj.neighbor.0,
                cand,
            )));
        }
    };

    // Seed the heap from every AS that currently has a route. In the
    // customer phase only origin/customer routes export upward (Local
    // scope is resolved by `compute_rib_scoped` before we get here); in
    // the provider phase every AS exports its best route downward.
    for (i, entry) in entries.iter().enumerate() {
        let Some(r) = *entry else { continue };
        let u = AsId(i as u32);
        match phase {
            Phase::Customer => {
                if matches!(r.learned, LearnedFrom::Origin | LearnedFrom::Customer) {
                    push_exports(&mut heap, graph, u, &r, true);
                }
            }
            Phase::Provider => push_exports(&mut heap, graph, u, &r, true),
        }
    }

    while let Some(Reverse((_, _, _, target, cand))) = heap.pop() {
        let slot = &mut entries[target as usize];
        let improves = match slot {
            Some(existing) => cand.better_than(existing),
            None => true,
        };
        if !improves {
            continue;
        }
        *slot = Some(cand);
        let u = AsId(target);
        match phase {
            Phase::Customer => {
                // Newly learned customer route keeps flowing upward.
                push_exports(&mut heap, graph, u, &cand, true);
            }
            Phase::Provider => {
                // Newly learned provider route keeps flowing downward.
                push_exports(&mut heap, graph, u, &cand, true);
            }
        }
    }
}

/// Compute the RIB with correct Local-scope semantics.
///
/// This is the public entry point used by the anycast layer. It differs
/// from [`compute_rib_into`] in that Local-scope origins are restricted to the
/// host AS plus its customer cone: implemented by running the main
/// computation with global origins only, then overlaying each local
/// origin's customer cone where the local route is preferred.
pub fn compute_rib_scoped(graph: &AsGraph, origins: &[Origin], active: &[bool]) -> Rib {
    let mut rib = Rib::unreachable(graph.len());
    compute_rib_scoped_into(graph, origins, active, &mut rib, &mut RibScratch::default());
    rib
}

/// Reusable working buffers for [`compute_rib_scoped_into`], owned by the
/// caller so back-to-back recomputes (policy oscillation) allocate
/// nothing. Contents are overwritten on every call.
#[derive(Debug, Clone, Default)]
pub struct RibScratch {
    global_active: Vec<bool>,
    reuses: u64,
    allocs: u64,
}

impl RibScratch {
    /// How often recomputes through this scratch reused a warm buffer
    /// versus having to (re)allocate it: `(reuses, allocs)`. The first
    /// recompute always allocates; a steady-state caller should see
    /// every subsequent one land in `reuses`.
    pub fn reuse_stats(&self) -> (u64, u64) {
        (self.reuses, self.allocs)
    }
}

/// [`compute_rib_scoped`] writing into a caller-owned table and scratch
/// buffers. `rib` is resized and fully overwritten.
pub fn compute_rib_scoped_into(
    graph: &AsGraph,
    origins: &[Origin],
    active: &[bool],
    rib: &mut Rib,
    scratch: &mut RibScratch,
) {
    assert_eq!(origins.len(), active.len());
    if scratch.global_active.capacity() >= origins.len() {
        scratch.reuses += 1;
    } else {
        scratch.allocs += 1;
    }
    // Pass 1: global origins route normally.
    scratch.global_active.clear();
    scratch.global_active.extend(
        origins
            .iter()
            .zip(active)
            .map(|(o, &a)| a && o.scope == Scope::Global),
    );
    compute_rib_into(graph, origins, &scratch.global_active, rib);

    // Pass 2: overlay each active local origin onto its customer cone.
    // Within the cone the local route competes on standard preference
    // (it arrives as Origin at the host, Provider-learned below — but a
    // customer cone sees it as a customer-side route from its provider;
    // we model adoption as: host always prefers its own site; descendants
    // prefer it only if they lack a customer/peer route, mirroring how a
    // NO_EXPORT route from a provider competes at equal local-pref).
    for (i, (o, &act)) in origins.iter().zip(active).enumerate() {
        if !act || o.scope != Scope::Local {
            continue;
        }
        overlay_local_origin(graph, rib, o, OriginIdx(i as u32));
    }
}

fn overlay_local_origin(graph: &AsGraph, rib: &mut Rib, origin: &Origin, idx: OriginIdx) {
    // Host AS: always prefers the in-house site.
    let host_entry = RouteEntry {
        origin: idx,
        learned: LearnedFrom::Origin,
        path_len: origin.prepend,
        next_hop: origin.host,
        latency: SimDuration::ZERO,
    };
    rib.entries[origin.host.0 as usize] = Some(host_entry);

    // BFS down the customer cone; descendants treat the route as
    // provider-learned and adopt it only when it beats what they have.
    let mut heap: ExportHeap = BinaryHeap::new();
    let seed = host_entry;
    for adj in graph.neighbors(origin.host) {
        if adj.relation == Relation::Customer {
            let cand = RouteEntry {
                origin: idx,
                learned: LearnedFrom::Provider,
                path_len: seed.path_len + 1,
                next_hop: origin.host,
                latency: seed.latency + graph.geo_delay(origin.host, adj.neighbor) + HOP_OVERHEAD,
            };
            heap.push(Reverse((
                cand.path_len,
                cand.latency,
                cand.next_hop.0,
                adj.neighbor.0,
                cand,
            )));
        }
    }
    while let Some(Reverse((_, _, _, target, cand))) = heap.pop() {
        let slot = &mut rib.entries[target as usize];
        let improves = match slot {
            Some(existing) => cand.better_than(existing),
            None => true,
        };
        if !improves {
            continue;
        }
        *slot = Some(cand);
        let u = AsId(target);
        for adj in graph.neighbors(u) {
            if adj.relation == Relation::Customer {
                let next = RouteEntry {
                    origin: idx,
                    learned: LearnedFrom::Provider,
                    path_len: cand.path_len + 1,
                    next_hop: u,
                    latency: cand.latency + graph.geo_delay(u, adj.neighbor) + HOP_OVERHEAD,
                };
                heap.push(Reverse((
                    next.path_len,
                    next.latency,
                    next.next_hop.0,
                    adj.neighbor.0,
                    next,
                )));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rootcast_topology::{geo::city_by_code, AsGraph, Tier};

    /// Build a small hand-wired topology:
    ///
    /// ```text
    ///        T1a ===== T1b          (tier-1 peer mesh)
    ///       /    \    /    \
    ///     T2a     T2b      T2c     (customers of tier-1s)
    ///     /  \      \       |
    ///    S1  S2     S3      S4     (stubs)
    /// ```
    fn testnet() -> (AsGraph, Vec<AsId>) {
        let (ams, _) = city_by_code("AMS").unwrap();
        let (lhr, _) = city_by_code("LHR").unwrap();
        let (fra, _) = city_by_code("FRA").unwrap();
        let (iad, _) = city_by_code("IAD").unwrap();
        let mut g = AsGraph::new();
        let t1a = g.add_node(Tier::Tier1, ams); // 0
        let t1b = g.add_node(Tier::Tier1, iad); // 1
        let t2a = g.add_node(Tier::Tier2, lhr); // 2
        let t2b = g.add_node(Tier::Tier2, fra); // 3
        let t2c = g.add_node(Tier::Tier2, iad); // 4
        let s1 = g.add_node(Tier::Stub, lhr); // 5
        let s2 = g.add_node(Tier::Stub, lhr); // 6
        let s3 = g.add_node(Tier::Stub, fra); // 7
        let s4 = g.add_node(Tier::Stub, iad); // 8
        g.add_edge(t1a, t1b, Relation::Peer);
        g.add_edge(t1a, t2a, Relation::Customer);
        g.add_edge(t1a, t2b, Relation::Customer);
        g.add_edge(t1b, t2b, Relation::Customer);
        g.add_edge(t1b, t2c, Relation::Customer);
        g.add_edge(t2a, s1, Relation::Customer);
        g.add_edge(t2a, s2, Relation::Customer);
        g.add_edge(t2b, s3, Relation::Customer);
        g.add_edge(t2c, s4, Relation::Customer);
        assert!(g.validate().is_ok());
        (g, vec![t1a, t1b, t2a, t2b, t2c, s1, s2, s3, s4])
    }

    fn global(host: AsId) -> Origin {
        Origin {
            host,
            scope: Scope::Global,
            prepend: 0,
        }
    }

    #[test]
    fn single_origin_reaches_everyone() {
        let (g, ids) = testnet();
        let origins = [global(ids[5])]; // S1 hosts the service
        let rib = compute_rib_scoped(&g, &origins, &[true]);
        assert_eq!(rib.reachable_count(), g.len());
        // Everyone routes to origin 0.
        for (_, r) in rib.iter() {
            assert_eq!(r.origin, OriginIdx(0));
        }
    }

    #[test]
    fn customer_route_preferred_over_peer_route() {
        let (g, ids) = testnet();
        // Origin at S3 (customer cone of both T1a and T1b).
        let origins = [global(ids[7])];
        let rib = compute_rib_scoped(&g, &origins, &[true]);
        // T1a hears S3's route from its customer T2b (customer route) and
        // potentially from its peer T1b; the customer route must win.
        let r = rib.route(ids[0]).unwrap();
        assert_eq!(r.learned, LearnedFrom::Customer);
        assert_eq!(r.next_hop, ids[3]);
    }

    #[test]
    fn valley_free_no_peer_cascade() {
        let (g, ids) = testnet();
        // Origin at S4 under T2c under T1b only. T1a learns via peer T1b.
        let origins = [global(ids[8])];
        let rib = compute_rib_scoped(&g, &origins, &[true]);
        let t1a = rib.route(ids[0]).unwrap();
        assert_eq!(t1a.learned, LearnedFrom::Peer);
        // T2a (customer of T1a) still gets the route (downward export of a
        // peer-learned route is allowed).
        let t2a = rib.route(ids[2]).unwrap();
        assert_eq!(t2a.learned, LearnedFrom::Provider);
        // And S1 below it.
        assert!(rib.route(ids[5]).is_some());
    }

    #[test]
    fn anycast_splits_catchments_geographically() {
        let (g, ids) = testnet();
        // Two sites: one at S1 (Europe), one at S4 (US).
        let origins = [global(ids[5]), global(ids[8])];
        let rib = compute_rib_scoped(&g, &origins, &[true, true]);
        // S2 shares T2a with S1: customer route wins -> site 0.
        assert_eq!(rib.origin_of(ids[6]), Some(OriginIdx(0)));
        // T2c and T1b are in S4's cone -> site 1.
        assert_eq!(rib.origin_of(ids[4]), Some(OriginIdx(1)));
        assert_eq!(rib.origin_of(ids[1]), Some(OriginIdx(1)));
        let sizes = rib.catchment_sizes(2);
        assert_eq!(sizes.iter().sum::<usize>(), g.len());
        assert!(sizes[0] > 0 && sizes[1] > 0);
    }

    #[test]
    fn withdrawal_shifts_catchment() {
        let (g, ids) = testnet();
        let origins = [global(ids[5]), global(ids[8])];
        let before = compute_rib_scoped(&g, &origins, &[true, true]);
        assert_eq!(before.origin_of(ids[6]), Some(OriginIdx(0)));
        // Withdraw site 0: everyone must move to site 1.
        let after = compute_rib_scoped(&g, &origins, &[false, true]);
        assert_eq!(after.origin_of(ids[6]), Some(OriginIdx(1)));
        assert_eq!(after.reachable_count(), g.len());
        assert_eq!(after.catchment_sizes(2), vec![0, g.len()]);
    }

    #[test]
    fn all_withdrawn_means_unreachable() {
        let (g, ids) = testnet();
        let origins = [global(ids[5])];
        let rib = compute_rib_scoped(&g, &origins, &[false]);
        assert_eq!(rib.reachable_count(), 0);
    }

    #[test]
    fn local_scope_confines_to_customer_cone() {
        let (g, ids) = testnet();
        // Local site hosted at T2a; global site at S4.
        let origins = [
            Origin {
                host: ids[2],
                scope: Scope::Local,
                prepend: 0,
            },
            global(ids[8]),
        ];
        let rib = compute_rib_scoped(&g, &origins, &[true, true]);
        // Host and its stub customers use the local site.
        assert_eq!(rib.origin_of(ids[2]), Some(OriginIdx(0)));
        assert_eq!(rib.origin_of(ids[5]), Some(OriginIdx(0)));
        assert_eq!(rib.origin_of(ids[6]), Some(OriginIdx(0)));
        // Outside the cone nobody sees the local site.
        assert_eq!(rib.origin_of(ids[0]), Some(OriginIdx(1)));
        assert_eq!(rib.origin_of(ids[1]), Some(OriginIdx(1)));
        assert_eq!(rib.origin_of(ids[7]), Some(OriginIdx(1)));
    }

    #[test]
    fn prepending_deprefers_backup_site() {
        let (g, ids) = testnet();
        // Primary at S3, backup at S4 with heavy prepend. T1b sees both as
        // customer routes; prepending must steer it to the primary.
        let origins = [
            global(ids[7]),
            Origin {
                host: ids[8],
                scope: Scope::Global,
                prepend: 4,
            },
        ];
        let rib = compute_rib_scoped(&g, &origins, &[true, true]);
        assert_eq!(rib.origin_of(ids[1]), Some(OriginIdx(0)));
        // Withdraw the primary: backup takes over everywhere.
        let rib2 = compute_rib_scoped(&g, &origins, &[false, true]);
        assert_eq!(rib2.origin_of(ids[1]), Some(OriginIdx(1)));
        assert_eq!(rib2.reachable_count(), g.len());
    }

    #[test]
    fn latency_accumulates_along_path() {
        let (g, ids) = testnet();
        let origins = [global(ids[5])];
        let rib = compute_rib_scoped(&g, &origins, &[true]);
        // The origin host has zero latency; everyone else positive.
        assert_eq!(
            rib.route(ids[5]).map(|r| r.latency),
            Some(SimDuration::ZERO)
        );
        for (asn, r) in rib.iter() {
            if asn != ids[5] {
                assert!(r.latency > SimDuration::ZERO, "AS {asn} latency zero");
            }
        }
        // A two-hop path has at least two hop overheads.
        let s4 = rib.route(ids[8]).unwrap().latency;
        assert!(s4 >= HOP_OVERHEAD * 2);
    }

    #[test]
    fn into_variants_match_allocating_versions_and_diff_is_exact() {
        let (g, ids) = testnet();
        let origins = [global(ids[5]), global(ids[8])];
        let before = compute_rib_scoped(&g, &origins, &[true, true]);
        // Deliberately wrong-sized buffer: must be resized and overwritten.
        let mut rib = Rib::unreachable(1);
        let mut scratch = RibScratch::default();
        compute_rib_scoped_into(&g, &origins, &[true, true], &mut rib, &mut scratch);
        assert_eq!(rib, before);
        // Recompute a withdrawal into the same buffers.
        compute_rib_scoped_into(&g, &origins, &[false, true], &mut rib, &mut scratch);
        let after = compute_rib_scoped(&g, &origins, &[false, true]);
        assert_eq!(rib, after);
        let mut changed = Vec::new();
        rib.diff_into(&before, &mut changed);
        assert_eq!(changed.len(), g.len());
        for (i, &c) in changed.iter().enumerate() {
            let asn = AsId(i as u32);
            assert_eq!(c, before.route(asn) != after.route(asn), "AS {asn}");
        }
    }

    #[test]
    fn deterministic_tiebreak_is_stable() {
        let (g, ids) = testnet();
        let origins = [global(ids[5]), global(ids[8])];
        let a = compute_rib_scoped(&g, &origins, &[true, true]);
        let b = compute_rib_scoped(&g, &origins, &[true, true]);
        assert_eq!(a, b);
    }
}
