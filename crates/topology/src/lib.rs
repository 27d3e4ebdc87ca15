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
//!   and fiber propagation delay, tabulated once for every city pair;
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
