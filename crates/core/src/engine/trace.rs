//! The run's event log: typed simulation events (policy transitions,
//! saturation onsets, fault transitions, catchment-epoch bumps, RRL
//! activations) stamped with simulated time.
//!
//! The log is always on and complete. Each event site pushes onto
//! [`SimWorld::trace`](crate::engine::SimWorld::trace), which is frozen
//! as [`SimOutput::trace`](crate::sim::SimOutput::trace). Recording
//! never influences simulation state, and events carry no host clock,
//! so the log is a pure function of the scenario seed and two runs can
//! be compared event by event. A canonical 48 h run logs a few hundred
//! events and a 12 h pulse-wave run with flapping routes a few thousand,
//! so the log needs no cap.

use rootcast_netsim::SimTime;
use std::sync::Arc;

/// One structured simulation event. Letters and sites are carried as
/// their display strings so the log is self-describing; service and
/// site names are shared, built once per run, so an event costs no
/// allocation for them.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEventKind {
    /// A stress policy withdrew and/or re-announced sites on a letter.
    PolicyTransition { letter: char, changes: usize },
    /// A site's offered load first exceeded what it can serve.
    SiteSaturationOnset { service: Arc<str>, site: Arc<str> },
    /// A previously saturated site drained back below capacity.
    SiteSaturationClear { service: Arc<str>, site: Arc<str> },
    /// The fault injector applied an injection.
    FaultInjected { description: String },
    /// The fault injector recovered a fault.
    FaultRecovered { description: String },
    /// A RIB recompute bumped a service's catchment epoch.
    CatchmentEpochBump {
        service: Arc<str>,
        epoch: u64,
        changed_ases: u64,
    },
    /// A reporting letter crossed from unstressed into stressed
    /// accounting (RRL suppression active).
    RrlActivated { letter: char },
}

/// A logged event: when it happened in simulated time, and what.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    pub t: SimTime,
    pub kind: TraceEventKind,
}
