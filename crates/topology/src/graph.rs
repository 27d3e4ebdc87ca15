//! The AS-level graph: nodes, business relationships, adjacency.
//!
//! Inter-domain routing policy (and therefore anycast catchment formation)
//! is driven by the *business relationships* between ASes — the classic
//! Gao–Rexford model: a route learned from a customer may be exported to
//! anyone; routes learned from peers or providers are exported only to
//! customers. The graph here records those relationships; the `rootcast-bgp`
//! crate runs policy routing over it.

use crate::geo::{city_propagation_delay, CityId};
use std::fmt;

/// An autonomous-system identifier (index into the graph's node table; not
/// a real-world ASN).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AsId(pub u32);

impl fmt::Display for AsId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

/// Role of an AS in the routing hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Global transit-free backbone (full peer mesh among Tier-1s).
    Tier1,
    /// Regional transit provider; customer of one or more Tier-1s.
    Tier2,
    /// Edge network: eyeball ISP, enterprise, or hosting AS. Originates
    /// no transit.
    Stub,
}

/// Relationship of a neighbor as seen from one side of an edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relation {
    /// The neighbor is my customer (they pay me; I carry their routes
    /// everywhere).
    Customer,
    /// The neighbor is my settlement-free peer.
    Peer,
    /// The neighbor is my provider (I pay them).
    Provider,
}

impl Relation {
    /// The same edge seen from the other side.
    pub fn flipped(self) -> Relation {
        match self {
            Relation::Customer => Relation::Provider,
            Relation::Provider => Relation::Customer,
            Relation::Peer => Relation::Peer,
        }
    }
}

/// An AS node.
#[derive(Debug, Clone)]
pub struct AsNode {
    pub id: AsId,
    pub tier: Tier,
    pub city: CityId,
}

/// One adjacency entry: neighbor id plus our relationship *to* them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Adjacency {
    pub neighbor: AsId,
    /// What the neighbor is to us.
    pub relation: Relation,
}

/// The AS-level topology.
#[derive(Debug, Clone)]
pub struct AsGraph {
    nodes: Vec<AsNode>,
    /// Adjacency lists indexed by `AsId.0`. Kept sorted by neighbor id for
    /// deterministic iteration.
    adj: Vec<Vec<Adjacency>>,
}

impl AsGraph {
    /// An empty graph.
    pub fn new() -> Self {
        AsGraph {
            nodes: Vec::new(),
            adj: Vec::new(),
        }
    }

    /// Add a node, returning its id.
    pub fn add_node(&mut self, tier: Tier, city: CityId) -> AsId {
        let id = AsId(self.nodes.len() as u32);
        self.nodes.push(AsNode { id, tier, city });
        self.adj.push(Vec::new());
        id
    }

    /// Connect `a` and `b` with `a_to_b` describing what `b` is to `a`
    /// (e.g. `Relation::Customer` means `b` is `a`'s customer). Each side
    /// is inserted at its sorted position, so the lists stay sorted
    /// without a re-sort.
    ///
    /// # Panics
    /// Panics if the edge already exists or on a self-loop.
    pub fn add_edge(&mut self, a: AsId, b: AsId, b_is_to_a: Relation) {
        assert_ne!(a, b, "self-loop at {a}");
        let (Err(at_a), Err(at_b)) = (self.find(a, b), self.find(b, a)) else {
            panic!("duplicate edge between {a} and {b}");
        };
        self.adj[a.0 as usize].insert(
            at_a,
            Adjacency {
                neighbor: b,
                relation: b_is_to_a,
            },
        );
        self.adj[b.0 as usize].insert(
            at_b,
            Adjacency {
                neighbor: a,
                relation: b_is_to_a.flipped(),
            },
        );
    }

    /// Binary search of `a`'s sorted adjacency list for `b`: its
    /// position if adjacent, else where it would be inserted.
    fn find(&self, a: AsId, b: AsId) -> Result<usize, usize> {
        self.adj[a.0 as usize].binary_search_by_key(&b, |x| x.neighbor)
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    pub fn node(&self, id: AsId) -> &AsNode {
        &self.nodes[id.0 as usize]
    }

    pub fn nodes(&self) -> impl Iterator<Item = &AsNode> {
        self.nodes.iter()
    }

    /// Neighbors of `id` with the relationship each has to `id`.
    pub fn neighbors(&self, id: AsId) -> &[Adjacency] {
        &self.adj[id.0 as usize]
    }

    pub fn are_neighbors(&self, a: AsId, b: AsId) -> bool {
        self.find(a, b).is_ok()
    }

    /// The relationship `b` has to `a`, if adjacent.
    pub fn relation(&self, a: AsId, b: AsId) -> Option<Relation> {
        let i = self.find(a, b).ok()?;
        Some(self.adj[a.0 as usize][i].relation)
    }

    /// All ASes of a given tier, ascending by id.
    pub fn by_tier(&self, tier: Tier) -> Vec<AsId> {
        self.nodes
            .iter()
            .filter(|n| n.tier == tier)
            .map(|n| n.id)
            .collect()
    }

    /// One-way propagation delay between two adjacent or non-adjacent
    /// ASes' home cities (pure geography; the routing layer adds per-hop
    /// overhead), read from the city-pair table.
    #[inline]
    pub fn geo_delay(&self, a: AsId, b: AsId) -> rootcast_netsim::SimDuration {
        city_propagation_delay(self.node(a).city, self.node(b).city)
    }

    /// One-way last-mile ("access") delay inside an AS: the distance from
    /// an end host or vantage point to the AS's interconnection edge.
    /// Stub networks add a deterministic 2–20 ms (DSL/cable/wireless
    /// spread); transit networks are effectively at the edge already.
    /// This is what lifts baseline anycast RTTs from near-zero to the
    /// tens of milliseconds RIPE Atlas actually measures.
    pub fn access_delay(&self, a: AsId) -> rootcast_netsim::SimDuration {
        use rootcast_netsim::stats::mix64;
        match self.node(a).tier {
            Tier::Stub => {
                let ms = 2_000_000 + mix64(u64::from(a.0) ^ 0xACCE55) % 18_000_000;
                rootcast_netsim::SimDuration::from_nanos(ms)
            }
            Tier::Tier2 => rootcast_netsim::SimDuration::from_micros(500),
            Tier::Tier1 => rootcast_netsim::SimDuration::from_micros(200),
        }
    }

    /// Number of edges (each counted once).
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Check structural invariants; used by tests and the generator.
    ///
    /// Invariants: adjacency symmetry with flipped relations, sorted
    /// adjacency lists, stubs have no customers.
    pub fn validate(&self) -> Result<(), String> {
        for n in &self.nodes {
            let mut prev: Option<AsId> = None;
            for adj in self.neighbors(n.id) {
                if let Some(p) = prev {
                    if adj.neighbor <= p {
                        return Err(format!("adjacency of {} not sorted", n.id));
                    }
                }
                prev = Some(adj.neighbor);
                let back = self
                    .relation(adj.neighbor, n.id)
                    .ok_or_else(|| format!("asymmetric edge {} -> {}", n.id, adj.neighbor))?;
                if back != adj.relation.flipped() {
                    return Err(format!(
                        "relation mismatch on edge {} - {}",
                        n.id, adj.neighbor
                    ));
                }
            }
            if n.tier == Tier::Stub {
                let has_customer = self
                    .neighbors(n.id)
                    .iter()
                    .any(|a| a.relation == Relation::Customer);
                if has_customer {
                    return Err(format!("stub {} has a customer", n.id));
                }
            }
        }
        Ok(())
    }
}

impl Default for AsGraph {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::city_by_code;

    fn two_node_graph() -> (AsGraph, AsId, AsId) {
        let mut g = AsGraph::new();
        let (ams, _) = city_by_code("AMS").unwrap();
        let (lhr, _) = city_by_code("LHR").unwrap();
        let a = g.add_node(Tier::Tier1, ams);
        let b = g.add_node(Tier::Stub, lhr);
        g.add_edge(a, b, Relation::Customer);
        (g, a, b)
    }

    #[test]
    fn edge_is_symmetric_with_flipped_relation() {
        let (g, a, b) = two_node_graph();
        assert_eq!(g.relation(a, b), Some(Relation::Customer));
        assert_eq!(g.relation(b, a), Some(Relation::Provider));
        assert!(g.validate().is_ok());
    }

    #[test]
    fn relation_flip_is_involutive() {
        for r in [Relation::Customer, Relation::Peer, Relation::Provider] {
            assert_eq!(r.flipped().flipped(), r);
        }
        assert_eq!(Relation::Peer.flipped(), Relation::Peer);
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn duplicate_edges_rejected() {
        let (mut g, a, b) = two_node_graph();
        g.add_edge(a, b, Relation::Peer);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loops_rejected() {
        let (mut g, a, _) = two_node_graph();
        g.add_edge(a, a, Relation::Peer);
    }

    #[test]
    fn validate_catches_stub_with_customer() {
        let mut g = AsGraph::new();
        let (ams, _) = city_by_code("AMS").unwrap();
        let a = g.add_node(Tier::Stub, ams);
        let b = g.add_node(Tier::Stub, ams);
        // b is a's customer: invalid for a stub.
        g.add_edge(a, b, Relation::Customer);
        assert!(g.validate().is_err());
    }

    #[test]
    fn by_tier_filters() {
        let (g, a, b) = two_node_graph();
        assert_eq!(g.by_tier(Tier::Tier1), vec![a]);
        assert_eq!(g.by_tier(Tier::Stub), vec![b]);
        assert!(g.by_tier(Tier::Tier2).is_empty());
    }

    #[test]
    fn geo_delay_positive_between_cities() {
        let (g, a, b) = two_node_graph();
        assert!(g.geo_delay(a, b).as_nanos() > 0);
    }

    #[test]
    fn adjacency_stays_sorted_under_any_insertion_order() {
        let (ams, _) = city_by_code("AMS").unwrap();
        let mut g = AsGraph::new();
        let hub = g.add_node(Tier::Tier1, ams);
        let others: Vec<AsId> = (0..9).map(|_| g.add_node(Tier::Stub, ams)).collect();
        for k in [4, 0, 8, 2, 6, 1, 7, 3, 5] {
            g.add_edge(hub, others[k], Relation::Customer);
        }
        let ids: Vec<AsId> = g.neighbors(hub).iter().map(|a| a.neighbor).collect();
        assert_eq!(ids, others);
        for &o in &others {
            assert!(g.are_neighbors(hub, o) && g.are_neighbors(o, hub));
            assert_eq!(g.relation(o, hub), Some(Relation::Provider));
        }
        assert!(!g.are_neighbors(others[0], others[1]));
        assert_eq!(g.relation(others[0], others[1]), None);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn edge_count_counts_once() {
        let (g, _, _) = two_node_graph();
        assert_eq!(g.edge_count(), 1);
    }
}
