//! Bounded structured event trace: a ring buffer of typed simulation
//! events (policy transitions, saturation onsets, fault transitions,
//! catchment-epoch bumps, RRL activations) stamped with both simulated
//! time and host wall time.
//!
//! The trace is an *observer*: recording an event never influences
//! simulation state, and a disabled trace costs one branch per
//! recording site — [`EventTrace::record_with`] takes a closure so the
//! event (and any `String` inside it) is never built when tracing is
//! off. The buffer is capacity-capped; once full, the oldest event is
//! overwritten and `dropped_events` counts what was lost, so a
//! long run keeps the newest window of activity instead of growing
//! without bound.

use rootcast_netsim::SimTime;
use std::collections::VecDeque;
use std::time::Instant;

/// Trace knobs on [`ScenarioConfig`](crate::config::ScenarioConfig).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceConfig {
    /// Record events at all. Disabled (the default) the trace allocates
    /// nothing and every recording site is a single branch.
    pub enabled: bool,
    /// Maximum retained events; older events are overwritten and
    /// counted in [`TraceSnapshot::dropped_events`].
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            enabled: false,
            capacity: 4096,
        }
    }
}

/// One structured simulation event. Letters and sites are carried as
/// their display strings so the snapshot is self-describing.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEventKind {
    /// A stress policy withdrew and/or re-announced sites on a letter.
    PolicyTransition { letter: char, changes: usize },
    /// A site's offered load first exceeded what it can serve.
    SiteSaturationOnset { service: String, site: String },
    /// A previously saturated site drained back below capacity.
    SiteSaturationClear { service: String, site: String },
    /// The fault injector applied an injection.
    FaultInjected { description: String },
    /// The fault injector recovered a fault.
    FaultRecovered { description: String },
    /// A RIB recompute bumped a service's catchment epoch.
    CatchmentEpochBump {
        service: String,
        epoch: u64,
        changed_ases: u64,
    },
    /// A reporting letter crossed from unstressed into stressed
    /// accounting (RRL suppression active).
    RrlActivated { letter: char },
}

/// A recorded event: monotone sequence number, simulated time (nanos),
/// host wall time since the trace was armed (micros), and the payload.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    pub seq: u64,
    pub t_nanos: u64,
    pub wall_micros: u64,
    pub kind: TraceEventKind,
}

/// The ring buffer itself, owned by the
/// [`SimWorld`](crate::engine::SimWorld).
#[derive(Debug)]
pub struct EventTrace {
    enabled: bool,
    capacity: usize,
    buf: VecDeque<TraceEvent>,
    dropped: u64,
    seq: u64,
    armed: Instant,
}

impl EventTrace {
    /// Build from config. A disabled trace pre-allocates nothing.
    pub fn new(cfg: &TraceConfig) -> EventTrace {
        EventTrace {
            enabled: cfg.enabled && cfg.capacity > 0,
            capacity: cfg.capacity,
            buf: if cfg.enabled && cfg.capacity > 0 {
                VecDeque::with_capacity(cfg.capacity)
            } else {
                VecDeque::new()
            },
            dropped: 0,
            seq: 0,
            armed: Instant::now(),
        }
    }

    /// The always-off trace (used by worlds built outside `run`).
    pub fn disabled() -> EventTrace {
        EventTrace::new(&TraceConfig::default())
    }

    /// Is the trace recording?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record the event built by `f`, stamped at simulated time `t`.
    /// When the trace is disabled `f` is never called, so a recording
    /// site like `trace.record_with(t, || kind_with_strings())` costs
    /// one branch and zero allocations on the disabled path.
    #[inline]
    pub fn record_with(&mut self, t: SimTime, f: impl FnOnce() -> TraceEventKind) {
        if !self.enabled {
            return;
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        let event = TraceEvent {
            seq: self.seq,
            t_nanos: t.as_nanos(),
            wall_micros: self.armed.elapsed().as_micros() as u64,
            kind: f(),
        };
        self.seq += 1;
        self.buf.push_back(event);
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events overwritten because the buffer was full.
    pub fn dropped_events(&self) -> u64 {
        self.dropped
    }

    /// Freeze into the exportable snapshot.
    pub fn snapshot(&self) -> TraceSnapshot {
        TraceSnapshot {
            enabled: self.enabled,
            capacity: self.capacity,
            dropped_events: self.dropped,
            events: self.buf.iter().cloned().collect(),
        }
    }
}

/// The trace as exported on [`SimOutput`](crate::sim::SimOutput):
/// retained events in sequence order plus the drop accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSnapshot {
    pub enabled: bool,
    pub capacity: usize,
    /// Events lost to ring overwrite. `events.len() + dropped_events`
    /// is the total ever recorded.
    pub dropped_events: u64,
    pub events: Vec<TraceEvent>,
}

impl TraceSnapshot {
    /// Count retained events matching `pred`.
    pub fn count(&self, pred: impl Fn(&TraceEventKind) -> bool) -> usize {
        self.events.iter().filter(|e| pred(&e.kind)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enabled(capacity: usize) -> EventTrace {
        EventTrace::new(&TraceConfig {
            enabled: true,
            capacity,
        })
    }

    #[test]
    fn disabled_trace_never_builds_events() {
        let mut trace = EventTrace::disabled();
        let mut built = 0u32;
        trace.record_with(SimTime::ZERO, || {
            built += 1;
            TraceEventKind::RrlActivated { letter: 'A' }
        });
        assert_eq!(built, 0, "closure ran on the disabled path");
        assert!(trace.is_empty());
        assert_eq!(trace.dropped_events(), 0);
        assert!(!trace.snapshot().enabled);
    }

    #[test]
    fn ring_overflow_drops_oldest_with_exact_accounting() {
        let mut trace = enabled(4);
        for i in 0..10u64 {
            trace.record_with(SimTime::from_mins(i), || {
                TraceEventKind::CatchmentEpochBump {
                    service: "K-root".into(),
                    epoch: i,
                    changed_ases: i * 3,
                }
            });
        }
        assert_eq!(trace.len(), 4);
        assert_eq!(trace.dropped_events(), 6);
        let snap = trace.snapshot();
        assert_eq!(snap.events.len(), 4);
        assert_eq!(snap.dropped_events, 6);
        // The newest four events survive, in order, with their original
        // sequence numbers intact.
        let seqs: Vec<u64> = snap.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        for e in &snap.events {
            match &e.kind {
                TraceEventKind::CatchmentEpochBump { epoch, .. } => assert_eq!(*epoch, e.seq),
                other => panic!("unexpected event {other:?}"),
            }
        }
    }

    #[test]
    fn events_carry_both_clocks() {
        let mut trace = enabled(8);
        trace.record_with(SimTime::from_mins(7), || TraceEventKind::PolicyTransition {
            letter: 'B',
            changes: 2,
        });
        let snap = trace.snapshot();
        assert_eq!(snap.events[0].t_nanos, SimTime::from_mins(7).as_nanos());
        // Wall stamps are host-side and only guaranteed monotone.
        trace.record_with(SimTime::from_mins(8), || TraceEventKind::PolicyTransition {
            letter: 'B',
            changes: 1,
        });
        let snap = trace.snapshot();
        assert!(snap.events[0].wall_micros <= snap.events[1].wall_micros);
        assert_eq!(
            snap.count(|k| matches!(k, TraceEventKind::PolicyTransition { .. })),
            2
        );
    }

    #[test]
    fn zero_capacity_disables_recording() {
        let mut trace = enabled(0);
        trace.record_with(SimTime::ZERO, || TraceEventKind::RrlActivated {
            letter: 'C',
        });
        assert!(trace.is_empty());
        assert_eq!(trace.dropped_events(), 0);
    }
}
