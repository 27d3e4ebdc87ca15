//! # rootcast-anycast
//!
//! The anycast service model for the rootcast reproduction of *"Anycast
//! vs. DDoS"* (IMC 2016): letters made of sites, sites made of servers,
//! and the two stress responses the paper identifies — **withdraw** and
//! **degraded absorption** (§2.2).
//!
//! * [`policy`] — [`StressPolicy`] (absorb / withdraw with sustain and
//!   retry), [`LoadBalancerMode`] (per-server behaviour under stress,
//!   §3.5), and the overload state machine;
//! * [`site`] — [`SiteSpec`]/[`SiteState`]: capacity, bufferbloat-depth
//!   ingress queue, announcement state, per-server selection;
//! * [`facility`] — shared data-center links that couple co-located
//!   services (collateral damage, §3.6);
//! * [`service`] — [`AnycastService`]: origins + RIB + fluid stepping +
//!   probe interface (per-epoch [`ProbeRoute`]s viewed through per-tick
//!   [`SiteProbe`] snapshots); the unit the simulation advances.

#![forbid(unsafe_code)]

pub mod facility;
pub mod policy;
pub mod service;
pub mod site;

pub use facility::FacilityTable;
pub use policy::{LoadBalancerMode, OverloadTracker, StressPolicy};
pub use service::{
    AnycastService, CatchmentIndex, ProbeRoute, ProbeView, RoutingChanges, RIB_MEMO_CAP,
};
pub use site::{FacilityId, SiteIdx, SiteProbe, SiteSpec, SiteState, SiteTuning};
