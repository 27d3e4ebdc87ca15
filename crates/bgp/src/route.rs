//! Route representation and BGP-style preference ordering.
//!
//! We model the decision process that matters for anycast catchment
//! formation: **local preference by business relationship** (customer
//! routes beat peer routes beat provider routes — the Gao–Rexford
//! ordering), then **shortest AS path** (including origin prepending),
//! then **lowest accumulated latency** (the hot-potato/IGP-metric stage,
//! which is what makes anycast catchments broadly geographic), then a
//! deterministic router-id tiebreak. MEDs and iBGP are out of scope:
//! they do not change which *site* an AS selects, only intra-AS detail.

use rootcast_netsim::SimDuration;
use rootcast_topology::AsId;

/// How a route was learned, in decreasing preference order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LearnedFrom {
    /// This AS originates the prefix (hosts an anycast site).
    Origin,
    /// Learned from a customer (highest local-pref among learned routes).
    Customer,
    /// Learned from a settlement-free peer.
    Peer,
    /// Learned from a transit provider (lowest local-pref).
    Provider,
}

impl LearnedFrom {
    /// Numeric local preference; larger is better.
    pub fn local_pref(self) -> u8 {
        match self {
            LearnedFrom::Origin => 3,
            LearnedFrom::Customer => 2,
            LearnedFrom::Peer => 1,
            LearnedFrom::Provider => 0,
        }
    }
}

/// Index of an origin (anycast site announcement) within a prefix's
/// origin table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OriginIdx(pub u32);

/// One AS's chosen route toward a prefix.
///
/// The derived `Ord` is lexicographic over the fields and exists only so
/// entries can ride in ordered containers deterministically; *routing*
/// preference is [`RouteEntry::better_than`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct RouteEntry {
    /// Which anycast origin (site) this route leads to.
    pub origin: OriginIdx,
    /// How the route was learned.
    pub learned: LearnedFrom,
    /// AS-path length as advertised (hops from origin, plus prepending).
    pub path_len: u16,
    /// The neighbor this AS forwards to (self for the origin host).
    pub next_hop: AsId,
    /// Accumulated one-way forwarding latency from this AS to the origin
    /// host along the chosen path (geography + per-hop overhead).
    pub latency: SimDuration,
}

impl RouteEntry {
    /// BGP decision process: does `self` beat `other`?
    ///
    /// Order: higher local-pref, then shorter AS path, then lowest
    /// accumulated latency — the hot-potato/IGP-metric stage of the real
    /// decision process, and the reason anycast catchments are broadly
    /// *geographic* — then lower next-hop id (router-id tiebreak).
    /// Total and antisymmetric for distinct routes, which makes
    /// selection deterministic.
    pub fn better_than(&self, other: &RouteEntry) -> bool {
        let lp_s = self.learned.local_pref();
        let lp_o = other.learned.local_pref();
        if lp_s != lp_o {
            return lp_s > lp_o;
        }
        if self.path_len != other.path_len {
            return self.path_len < other.path_len;
        }
        if self.latency != other.latency {
            return self.latency < other.latency;
        }
        self.next_hop < other.next_hop
    }

    /// A compact signature for route-change detection at collectors:
    /// two routes with the same signature are "the same route" for
    /// update-counting purposes.
    pub fn signature(&self) -> (u32, u16, u32) {
        (self.origin.0, self.path_len, self.next_hop.0)
    }
}

/// Announcement scope for a site (§2.1: *local* sites use BGP communities
/// such as NO_EXPORT/NOPEER to confine their catchment).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scope {
    /// Announced normally; propagates everywhere policy allows.
    Global,
    /// Confined: the hosting AS uses the route and exports it only to its
    /// direct customers — never to peers or providers.
    Local,
}

/// One anycast origin: a site announcing the service prefix from a host AS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Origin {
    /// The AS hosting this site.
    pub host: AsId,
    pub scope: Scope,
    /// AS-path prepending applied at announcement (0 = none). Used to
    /// de-prefer backup sites (H-root's primary/backup architecture).
    pub prepend: u16,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(learned: LearnedFrom, path_len: u16, next_hop: u32) -> RouteEntry {
        RouteEntry {
            origin: OriginIdx(0),
            learned,
            path_len,
            next_hop: AsId(next_hop),
            latency: SimDuration::ZERO,
        }
    }

    #[test]
    fn customer_beats_shorter_peer() {
        let cust = entry(LearnedFrom::Customer, 9, 5);
        let peer = entry(LearnedFrom::Peer, 1, 5);
        assert!(cust.better_than(&peer));
        assert!(!peer.better_than(&cust));
    }

    #[test]
    fn shorter_path_wins_within_pref_class() {
        let a = entry(LearnedFrom::Peer, 2, 5);
        let b = entry(LearnedFrom::Peer, 3, 1);
        assert!(a.better_than(&b));
    }

    #[test]
    fn next_hop_tiebreak_is_antisymmetric() {
        let a = entry(LearnedFrom::Provider, 2, 1);
        let b = entry(LearnedFrom::Provider, 2, 9);
        assert!(a.better_than(&b));
        assert!(!b.better_than(&a));
    }

    #[test]
    fn local_pref_ordering_matches_gao_rexford() {
        assert!(LearnedFrom::Origin.local_pref() > LearnedFrom::Customer.local_pref());
        assert!(LearnedFrom::Customer.local_pref() > LearnedFrom::Peer.local_pref());
        assert!(LearnedFrom::Peer.local_pref() > LearnedFrom::Provider.local_pref());
    }
}
