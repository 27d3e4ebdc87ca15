//! # rootcast-bgp
//!
//! Policy-aware path-vector routing for the rootcast reproduction of
//! *"Anycast vs. DDoS"* (IMC 2016).
//!
//! IP anycast works because BGP associates each network with one of the
//! sites announcing a shared prefix — the site's **catchment** (§2.1 of
//! the paper). This crate computes those catchments over a
//! [`rootcast_topology::AsGraph`]:
//!
//! * [`route`] — route entries, the Gao–Rexford preference order
//!   (customer > peer > provider, then path length, then a deterministic
//!   tiebreak), announcement [`Scope`] (global vs. NO_EXPORT-style local)
//!   and AS-path prepending;
//! * [`engine`] — the three-phase stable-routing computation
//!   ([`compute_rib_scoped`]) producing a [`Rib`]: every AS's chosen
//!   route, its origin site, and the accumulated path latency. Route
//!   *withdrawal* — one of the two stress responses the paper identifies
//!   (§2.2) — is expressed by recomputing with a smaller origin set;
//! * [`collector`] — BGPmon-style update observation ([`RouteCollector`])
//!   backing Figure 9.

#![forbid(unsafe_code)]

pub mod collector;
pub mod engine;
pub mod route;

pub use collector::{RouteCollector, UpdateBatch};
pub use engine::{
    compute_rib_into, compute_rib_scoped, compute_rib_scoped_into, Rib, RibScratch, HOP_OVERHEAD,
};
pub use route::{LearnedFrom, Origin, OriginIdx, RouteEntry, Scope};
