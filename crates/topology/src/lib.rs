//! # rootcast-topology
//!
//! AS-level Internet topology and geography model for the rootcast
//! reproduction of *"Anycast vs. DDoS"* (IMC 2016).
//!
//! The paper's phenomena — anycast catchments, site flips, regional bias
//! of RIPE Atlas, collateral damage in shared facilities — all live on top
//! of *where things are* (geography) and *who connects to whom on what
//! terms* (AS business relationships). This crate provides both:
//!
//! * [`geo`] — a catalog of world cities keyed by airport code (the
//!   convention used to name root-server sites), great-circle distance,
//!   and fiber propagation delay;
//! * [`graph`] — the AS graph with Gao–Rexford customer/peer/provider
//!   relationships;
//! * [`gen`] — a deterministic three-tier topology generator.
//!
//! Policy routing over the graph lives in `rootcast-bgp`.

#![forbid(unsafe_code)]

pub mod gen;
pub mod geo;
pub mod graph;

pub use gen::{generate, TopologyError, TopologyParams};
pub use geo::{city, city_by_code, city_catalog, City, CityId, Region};
pub use graph::{Adjacency, AsGraph, AsId, AsNode, Relation, Tier};

/// A function pointer with a stable name.
///
/// Scenario parameter structs hold plugin shapes (regional placement
/// bias, per-metro probe density) as plain `fn` pointers. Deriving
/// `Debug` on such a struct prints the pointer *address*, which ASLR
/// randomizes per process — and anything hashed from that `Debug`
/// output (scenario config hashes, sweep checkpoint manifests) silently
/// changes between runs. `NamedFn` carries the function together with a
/// caller-chosen name and debug-prints only the name, so two processes
/// agree on the representation while two *different* functions still
/// read differently.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct NamedFn<F> {
    pub name: &'static str,
    pub f: F,
}

impl<F> NamedFn<F> {
    pub fn new(name: &'static str, f: F) -> Self {
        NamedFn { name, f }
    }
}

impl<F> core::fmt::Debug for NamedFn<F> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "NamedFn({})", self.name)
    }
}
