//! # rootcast-netsim
//!
//! Deterministic discrete-event simulation kernel underpinning the
//! [rootcast](../rootcast/index.html) reproduction of *"Anycast vs. DDoS:
//! Evaluating the November 2015 Root DNS Event"* (IMC 2016).
//!
//! This crate deliberately contains **no** networking or DNS knowledge —
//! only the simulation primitives every other layer shares:
//!
//! * [`time`] — integer-nanosecond virtual clock ([`SimTime`],
//!   [`SimDuration`]);
//! * [`event`] — a deterministic event queue with FIFO tie-breaking
//!   ([`EventQueue`]);
//! * [`hash`] — the one stable FNV-1a hash every key and digest folds
//!   through ([`fnv1a`], [`Fnv1a`]);
//! * [`rng`] — seeded, stream-split randomness ([`SimRng`]) so components
//!   never perturb each other's draws;
//! * [`rate`] — the fluid queue model ([`FluidQueue`]) that converts
//!   overload into loss and bufferbloat delay;
//! * [`series`] — fixed-width time-series bins matching the paper's
//!   10-minute methodology ([`BinnedSeries`]), and the samples of a
//!   median series' open bins ([`OpenBins`]);
//! * [`stats`] — medians, quantiles and OLS regression;
//! * [`metrics`] — counters, gauges, and fixed-bucket histograms behind
//!   static handles ([`MetricsRegistry`], [`MetricsSnapshot`]).
//!
//! ## Design
//!
//! Simulations are fully deterministic: the same master seed always
//! reproduces the same run, bit for bit, at any thread count. Randomness
//! is split into named [`SimRng`] streams, so a run may fan work out
//! inside one simulation (each letter's probes run on a lane of their
//! own, with their own stream per minute) as well as across simulations
//! (sweeps) without any draw depending on scheduling.

#![forbid(unsafe_code)]

pub mod coverage;
pub mod event;
pub mod hash;
pub mod metrics;
pub mod rate;
pub mod rng;
pub mod series;
pub mod stats;
pub mod time;

pub use coverage::Coverage;
pub use event::EventQueue;
pub use hash::{fnv1a, Fnv1a};
pub use metrics::{
    CounterId, GaugeId, HistogramId, HistogramSnapshot, HistogramSpec, MetricsRegistry,
    MetricsSnapshot,
};
pub use rand_chacha::ChaCha8Rng;
pub use rate::FluidQueue;
pub use rng::SimRng;
pub use series::{BinnedSeries, OpenBins};
pub use time::{SimDuration, SimTime};
