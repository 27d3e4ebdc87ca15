//! The subsystem engine.
//!
//! A scenario run is a set of [`Subsystem`]s ticking against one shared
//! [`SimWorld`] under a deterministic scheduler. Each subsystem asks for
//! absolute wake-up instants; the engine pops them in time order,
//! breaking ties by scheduling order (FIFO), so the interleaving —
//! and therefore every output — is a pure function of the scenario
//! seed.
//!
//! The six production subsystems mirror the activities the paper's
//! driver interleaves:
//!
//! * [`FluidTraffic`] — per-minute fluid windows: offered load over
//!   current catchments, shared-facility links, ingress queues, and
//!   stress policies (a serial loop over cached catchment indices).
//! * [`ProbeWheel`] — the Atlas fleet's probing wheel: one probe lane
//!   per letter, running behind the engine clock with one RNG stream
//!   per (letter, minute).
//! * [`ResolverRefresh`] — recursive resolvers re-weighting letter
//!   preferences from current RTT/loss (§3.2.2's letter flips).
//! * [`MaintenanceChurn`] — background operator maintenance noise.
//! * [`RssacAccounting`] — RSSAC byte/query accounting and the `.nl`
//!   served-rate series, reading the fluid scratchpad.
//! * [`FaultInjector`] — scheduled, seed-deterministic fault injection
//!   from the scenario's [`FaultPlan`] (site crashes, monitoring gaps,
//!   probe dropout waves, collector blackouts). With an empty plan it
//!   never wakes and the run is bit-identical to one without it.

pub mod faults;
pub mod fluid;
pub mod instrument;
pub mod maintenance;
pub mod metrics;
pub mod probes;
pub mod profile;
pub mod resolvers;
pub mod rssac;
pub mod trace;
pub mod world;

pub use faults::{FaultInjector, FaultKind, FaultPlan, FaultSpec, FaultState, ProbeAction};
pub use fluid::FluidTraffic;
pub use instrument::{Instrumentation, NoopInstrumentation, SpanRecorder};
pub use maintenance::MaintenanceChurn;
pub use metrics::{engine_registry, render_metrics};
pub use probes::ProbeWheel;
pub use profile::{SpanProfile, SpanStat};
pub use resolvers::ResolverRefresh;
pub use rssac::RssacAccounting;
pub use trace::{TraceEvent, TraceEventKind};
pub use world::{FluidScratch, SimWorld, Substrate};

use rootcast_netsim::{EventQueue, SimTime};

/// One engine-driven activity.
///
/// A subsystem owns its private state (wheels, schedules, byte tables)
/// and mutates shared state only through the [`SimWorld`] passed to
/// [`tick`](Subsystem::tick). Wake-ups are absolute instants; returning
/// an empty vector parks the subsystem for the rest of the run.
pub trait Subsystem {
    /// Stable name: the span [`drive`] wraps each tick and the finish
    /// in, and the diagnostics label.
    fn name(&self) -> &'static str;

    /// Wake-ups to seed the schedule with at the start of the run.
    fn initial_wakeups(&mut self) -> Vec<SimTime>;

    /// Handle the wake-up at `t`; return future wake-ups to schedule.
    /// Wake-ups at or before `t` are rejected by the engine (they
    /// would stall virtual time).
    fn tick(&mut self, world: &mut SimWorld, t: SimTime) -> Vec<SimTime>;

    /// Called once after the horizon, in subsystem order, for end-of-run
    /// settlement (e.g. the RSSAC unique-source estimates). Default: no-op.
    fn finish(&mut self, world: &mut SimWorld) {
        let _ = world;
    }
}

/// The six production subsystems for `world`'s scenario, in seeding
/// order. That order is the same-instant tie-break (see [`drive`]):
/// accounting follows the fluid step whose window it settles, and
/// faults apply after every production subsystem has ticked the
/// instant.
pub fn subsystems(world: &SimWorld) -> Vec<Box<dyn Subsystem>> {
    let cfg = world.cfg;
    let rng_factory = world.rng_factory;
    vec![
        Box::new(FluidTraffic::new(cfg.fluid_step).with_reference(cfg.reference_kernels)),
        Box::new(RssacAccounting::new(cfg)),
        Box::new(ProbeWheel::new(world)),
        Box::new(ResolverRefresh::new(cfg.resolver_update)),
        Box::new(MaintenanceChurn::new(
            rng_factory.stream("maintenance"),
            cfg.maintenance_mean,
        )),
        Box::new(FaultInjector::new(
            rng_factory.stream("faults"),
            cfg.faults.clone(),
        )),
    ]
}

/// Drive `subsystems` against `world` until `horizon`, each tick inside
/// a span named after its subsystem and each [`Subsystem::finish`] in a
/// `finish` span under it.
///
/// Subsystems scheduled for the same instant tick in FIFO order of
/// scheduling, which makes the seeding order in `subsystems` the
/// tie-break for the first round and self-rescheduling stable after
/// that: a subsystem listed before another, waking at the same times,
/// always ticks first.
pub fn drive(world: &mut SimWorld, subsystems: &mut [Box<dyn Subsystem>], horizon: SimTime) {
    let mut queue: EventQueue<usize> = EventQueue::new();
    for (idx, sub) in subsystems.iter_mut().enumerate() {
        for w in sub.initial_wakeups() {
            if w <= horizon {
                queue.schedule(w, idx);
            }
        }
    }
    while let Some((t, idx)) = queue.pop_until(horizon) {
        let sub = &mut subsystems[idx];
        world.obs.enter(sub.name());
        let wakeups = sub.tick(world, t);
        world.obs.exit(sub.name());
        for w in wakeups {
            assert!(w > t, "{} scheduled a non-advancing wakeup", sub.name());
            if w <= horizon {
                queue.schedule(w, idx);
            }
        }
    }
    for sub in subsystems.iter_mut() {
        world.obs.enter(sub.name());
        world.obs.enter("finish");
        sub.finish(world);
        world.obs.exit("finish");
        world.obs.exit(sub.name());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScenarioConfig;
    use rootcast_netsim::{SimDuration, SimRng};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A test subsystem that logs its ticks into a shared trace.
    struct Tracer {
        name: &'static str,
        period: SimDuration,
        trace: Rc<RefCell<Vec<(&'static str, SimTime)>>>,
    }

    impl Subsystem for Tracer {
        fn name(&self) -> &'static str {
            self.name
        }
        fn initial_wakeups(&mut self) -> Vec<SimTime> {
            vec![SimTime::ZERO + self.period]
        }
        fn tick(&mut self, _world: &mut SimWorld, t: SimTime) -> Vec<SimTime> {
            self.trace.borrow_mut().push((self.name, t));
            vec![t + self.period]
        }
    }

    #[test]
    fn ties_resolve_in_seeding_order_and_horizon_cuts_off() {
        let mut cfg = ScenarioConfig::small();
        cfg.horizon = SimTime::from_mins(3);
        cfg.pipeline.horizon = cfg.horizon;
        let rngf = SimRng::new(1);
        let mut obs = NoopInstrumentation;
        let mut world = SimWorld::build(&cfg, &rngf, &mut obs).expect("world builds");

        let trace = Rc::new(RefCell::new(Vec::new()));
        let mut subsystems: Vec<Box<dyn Subsystem>> = vec![
            Box::new(Tracer {
                name: "first",
                period: SimDuration::from_mins(1),
                trace: trace.clone(),
            }),
            Box::new(Tracer {
                name: "second",
                period: SimDuration::from_mins(1),
                trace: trace.clone(),
            }),
        ];
        drive(&mut world, &mut subsystems, cfg.horizon);
        let trace = trace.borrow();
        // Three whole minutes inside the horizon; at each instant
        // "first" (seeded first) ticks before "second".
        let expect: Vec<(&str, SimTime)> = (1..=3)
            .flat_map(|m| {
                [
                    ("first", SimTime::from_mins(m)),
                    ("second", SimTime::from_mins(m)),
                ]
            })
            .collect();
        assert_eq!(*trace, expect);
    }
}
