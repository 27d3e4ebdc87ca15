//! # rootcast-attack
//!
//! Workload generation for the rootcast reproduction of *"Anycast vs.
//! DDoS"* (IMC 2016): the Nov 30 / Dec 1 2015 event traffic and the
//! legitimate background it displaced.
//!
//! * [`schedule`] — [`AttackSchedule`]: the two event windows with their
//!   fixed qnames, targeted letters (all but D, L, M) and per-letter
//!   offered rate (~5 Mq/s);
//! * [`botnet`] — [`Botnet`]: weighted true-origin ASes (which catchments
//!   absorb the attack) plus an aggregate source model reproducing the
//!   unique-address explosion and heavy-hitter skew Verisign reported;
//! * [`legit`] — population-weighted background load and
//!   [`ResolverPopulation`], the RTT/loss-driven letter-selection model
//!   behind "letter flips" (§3.2.2).

#![forbid(unsafe_code)]

pub mod botnet;
pub mod legit;
pub mod schedule;

pub use botnet::{Botnet, BotnetParams};
pub use legit::{
    population_weights, LetterObservation, ResolverPopulation, DEFAULT_LEGIT_TOTAL_QPS,
};
pub use schedule::{AttackSchedule, AttackWindow};
