//! Deterministic fault injection: the sixth engine subsystem.
//!
//! The paper's subject is behaviour under partial failure — sites
//! withdraw, RSSAC reports arrive with holes, Atlas probes disconnect
//! mid-event, BGPmon collectors go quiet — and a reproduction should be
//! able to rehearse those failure modes on purpose. A [`FaultPlan`] on
//! the scenario config schedules faults declaratively; the
//! [`FaultInjector`] applies each one at its instant, reverts it when
//! its window closes, and logs every injection and recovery as a
//! [`FaultInjected`](TraceEventKind::FaultInjected) /
//! [`FaultRecovered`](TraceEventKind::FaultRecovered) event in the
//! run's event log ([`SimOutput::trace`](crate::sim::SimOutput::trace)),
//! so the output records exactly what was done to the run.
//!
//! ## Determinism contract
//!
//! Fault application happens on the single-threaded engine loop, and
//! any randomness (e.g. which VPs a dropout wave takes) comes from the
//! injector's dedicated `"faults"` RNG stream — no other subsystem's
//! stream is touched. Same seed + same plan ⇒ bit-identical outputs at
//! any rayon thread count, and an empty plan leaves the run
//! bit-identical to one without the injector at all.
//!
//! ## Degradation semantics
//!
//! Faults thin *observation*, not physics: an RSSAC gap stops the
//! letter's monitoring (coverage drops below 1.0) while the traffic
//! itself still flows; a probe dropout suppresses measurements (the
//! pipeline counts them as missed); a collector blackout stops route
//! logging while peers keep converging. Site and facility faults are
//! the exception — they change the simulated world, like the real
//! crashes they model.

use crate::engine::metrics::keys;
use crate::engine::{SimWorld, Subsystem, TraceEvent, TraceEventKind};
use rand::Rng;
use rootcast_anycast::FacilityId;
use rootcast_dns::Letter;
use rootcast_netsim::{ChaCha8Rng, SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// One kind of injectable fault.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// A site of `letter` crashes: its announcement is withdrawn for the
    /// fault window and restored on recovery. Routing changes are
    /// observed by the letter's collector like any operator action.
    SiteCrash { letter: Letter, site: String },
    /// A shared facility goes dark: every service routed through it
    /// loses all traffic there until recovery.
    FacilityOutage { facility: FacilityId },
    /// The letter's RSSAC monitoring records nothing for the window —
    /// the report's [`Coverage`](rootcast_netsim::Coverage) drops.
    RssacGap { letter: Letter },
    /// The letter's RSSAC monitoring mis-scales recorded traffic by
    /// `factor` (a corrupted interval; `factor` in `[0, 1]`).
    RssacCorrupt { letter: Letter, factor: f64 },
    /// A dropout wave: each kept VP disconnects with probability
    /// `fraction` and issues no probes until recovery. `letters` scopes
    /// the wave (empty = all letters), modelling per-destination
    /// connectivity loss.
    ProbeDropout { fraction: f64, letters: Vec<Letter> },
    /// Firmware-downgrade churn: each kept VP reverts to pre-4650
    /// firmware with probability `fraction`. Downgraded VPs still probe
    /// (burning the same RNG draws) but their measurements are
    /// discarded by the cleaning rule, counted as missed.
    FirmwareDowngrade { fraction: f64 },
    /// The letter's BGPmon-style collector logs no route events for the
    /// window; peer state keeps converging silently.
    CollectorBlackout { letter: Letter },
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::SiteCrash { letter, site } => write!(f, "site-crash {letter}/{site}"),
            FaultKind::FacilityOutage { facility } => {
                write!(f, "facility-outage #{}", facility.0)
            }
            FaultKind::RssacGap { letter } => write!(f, "rssac-gap {letter}"),
            FaultKind::RssacCorrupt { letter, factor } => {
                write!(f, "rssac-corrupt {letter} x{factor}")
            }
            FaultKind::ProbeDropout { fraction, letters } => {
                write!(f, "probe-dropout {:.0}%", fraction * 100.0)?;
                if !letters.is_empty() {
                    write!(f, " towards ")?;
                    for (i, l) in letters.iter().enumerate() {
                        if i > 0 {
                            write!(f, ",")?;
                        }
                        write!(f, "{l}")?;
                    }
                }
                Ok(())
            }
            FaultKind::FirmwareDowngrade { fraction } => {
                write!(f, "firmware-downgrade {:.0}%", fraction * 100.0)
            }
            FaultKind::CollectorBlackout { letter } => {
                write!(f, "collector-blackout {letter}")
            }
        }
    }
}

/// One scheduled fault: inject at `at`, recover at `at + duration`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    pub at: SimTime,
    pub duration: SimDuration,
    pub kind: FaultKind,
}

impl FaultSpec {
    /// The recovery instant.
    pub fn end(&self) -> SimTime {
        self.at + self.duration
    }
}

/// A declarative, seed-deterministic fault schedule.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    pub faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// The empty plan (the default): no faults, bit-identical behaviour
    /// to a run without the injector.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Append one fault; returns `self` for chaining.
    pub fn with(mut self, at: SimTime, duration: SimDuration, kind: FaultKind) -> FaultPlan {
        self.faults.push(FaultSpec { at, duration, kind });
        self
    }
}

/// How an active fault affects one (VP, letter) probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeAction {
    /// Probe normally.
    Normal,
    /// VP is offline for this letter: no probe, no RNG draw; the
    /// pipeline counts a missed probe.
    Skip,
    /// VP probes (RNG draws happen) but the measurement is discarded
    /// as unusable (old firmware); counted as missed.
    Discard,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProbeFaultMode {
    Skip,
    Discard,
}

#[derive(Debug)]
struct ProbeFault {
    vps: BTreeSet<u32>,
    /// `None` = every letter.
    letters: Option<BTreeSet<Letter>>,
    mode: ProbeFaultMode,
}

/// The live fault state other subsystems consult, owned by the world.
/// Empty (the default) means every query below answers "healthy".
#[derive(Debug, Default)]
pub struct FaultState {
    /// Per-letter RSSAC capture multiplier; `0.0` = full gap. Letters
    /// absent from the map are monitored normally.
    rssac_factor: BTreeMap<Letter, f64>,
    /// Active probe-fleet faults, keyed by plan index.
    probe_faults: BTreeMap<usize, ProbeFault>,
    /// Bumped whenever `probe_faults` changes.
    probe_generation: u64,
}

impl FaultState {
    /// The letter's active RSSAC capture multiplier, if any fault
    /// covers it right now (`Some(0.0)` = gap, `Some(f)` = corrupted).
    pub fn rssac_factor(&self, letter: Letter) -> Option<f64> {
        self.rssac_factor.get(&letter).copied()
    }

    /// How the active faults affect a probe from `vp` towards `letter`.
    /// [`ProbeAction::Skip`] wins over [`ProbeAction::Discard`]: an
    /// offline VP cannot probe no matter what firmware it runs.
    pub fn probe_action(&self, vp: u32, letter: Letter) -> ProbeAction {
        let mut action = ProbeAction::Normal;
        for fault in self.probe_faults.values() {
            if !fault.vps.contains(&vp) {
                continue;
            }
            if let Some(scope) = &fault.letters {
                if !scope.contains(&letter) {
                    continue;
                }
            }
            match fault.mode {
                ProbeFaultMode::Skip => return ProbeAction::Skip,
                ProbeFaultMode::Discard => action = ProbeAction::Discard,
            }
        }
        action
    }

    /// A count that moves whenever the set of active probe-fleet faults
    /// changes, so a cache of [`Self::probe_action`] answers stays
    /// valid while it holds still.
    pub fn probe_generation(&self) -> u64 {
        self.probe_generation
    }

    /// True when a probe-fleet fault is active, i.e. when
    /// [`Self::probe_action`] can answer other than
    /// [`ProbeAction::Normal`].
    pub fn has_probe_faults(&self) -> bool {
        !self.probe_faults.is_empty()
    }
}

/// The fault-injection subsystem. Always seeded last, so same-instant
/// faults apply after the production subsystems finish their ticks.
pub struct FaultInjector {
    rng: ChaCha8Rng,
    plan: FaultPlan,
    /// `(instant, plan index, inject?)`, sorted; `cursor` advances as
    /// events are consumed.
    events: Vec<(SimTime, usize, bool)>,
    cursor: usize,
}

impl FaultInjector {
    /// `rng` must be a dedicated stream (the driver uses `"faults"`).
    /// An empty plan schedules no wake-ups: the injector never ticks.
    pub fn new(rng: ChaCha8Rng, plan: FaultPlan) -> FaultInjector {
        let mut events: Vec<(SimTime, usize, bool)> = Vec::with_capacity(plan.faults.len() * 2);
        for (i, f) in plan.faults.iter().enumerate() {
            events.push((f.at, i, true));
            events.push((f.end(), i, false));
        }
        // Recoveries sort before injections at the same instant (false
        // < true), so back-to-back windows hand over cleanly.
        events.sort();
        FaultInjector {
            rng,
            plan,
            events,
            cursor: 0,
        }
    }

    /// Apply one transition, returning a human-readable description of
    /// what was done (with a note when the fault degraded to a no-op,
    /// e.g. an unknown site code).
    fn apply(&mut self, world: &mut SimWorld, t: SimTime, idx: usize, inject: bool) -> String {
        let kind = self.plan.faults[idx].kind.clone();
        let mut note = String::new();
        match &kind {
            FaultKind::SiteCrash { letter, site } => {
                match world.letters.iter().position(|l| l == letter) {
                    None => note = " (unknown letter, ignored)".into(),
                    Some(svc_idx) => match world.services[svc_idx].site_by_code(site) {
                        None => note = " (unknown site, ignored)".into(),
                        Some(s) => {
                            let graph = &world.graph;
                            if world.services[svc_idx].set_announced(s, !inject, graph) {
                                world.observe_routes(t, svc_idx);
                            } else {
                                note = " (already in that state)".into();
                            }
                        }
                    },
                }
            }
            FaultKind::FacilityOutage { facility } => {
                if !world.facility_table.set_out(*facility, inject) {
                    note = " (unregistered facility, ignored)".into();
                }
            }
            FaultKind::RssacGap { letter } => {
                if inject {
                    world.faults.rssac_factor.insert(*letter, 0.0);
                } else {
                    world.faults.rssac_factor.remove(letter);
                }
                if !world.rssac.contains_key(letter) {
                    note = " (letter does not report RSSAC)".into();
                }
            }
            FaultKind::RssacCorrupt { letter, factor } => {
                if inject {
                    world.faults.rssac_factor.insert(*letter, *factor);
                } else {
                    world.faults.rssac_factor.remove(letter);
                }
                if !world.rssac.contains_key(letter) {
                    note = " (letter does not report RSSAC)".into();
                }
            }
            FaultKind::ProbeDropout { fraction, letters } => {
                world.faults.probe_generation += 1;
                if inject {
                    let vps = self.draw_vps(world, *fraction);
                    note = format!(" ({} VPs)", vps.len());
                    world.faults.probe_faults.insert(
                        idx,
                        ProbeFault {
                            vps,
                            letters: if letters.is_empty() {
                                None
                            } else {
                                Some(letters.iter().copied().collect())
                            },
                            mode: ProbeFaultMode::Skip,
                        },
                    );
                } else {
                    world.faults.probe_faults.remove(&idx);
                }
            }
            FaultKind::FirmwareDowngrade { fraction } => {
                world.faults.probe_generation += 1;
                if inject {
                    let vps = self.draw_vps(world, *fraction);
                    note = format!(" ({} VPs)", vps.len());
                    world.faults.probe_faults.insert(
                        idx,
                        ProbeFault {
                            vps,
                            letters: None,
                            mode: ProbeFaultMode::Discard,
                        },
                    );
                } else {
                    world.faults.probe_faults.remove(&idx);
                }
            }
            FaultKind::CollectorBlackout { letter } => match world.collectors.get_mut(letter) {
                Some(c) => c.set_dark(t, inject),
                None => note = " (no collector for letter, ignored)".into(),
            },
        }
        format!("{kind}{note}")
    }

    /// Pick each kept (non-excluded) VP independently with probability
    /// `fraction`, from the injector's own stream.
    fn draw_vps(&mut self, world: &SimWorld, fraction: f64) -> BTreeSet<u32> {
        let excluded = world.cleaning.excluded_set();
        world
            .fleet
            .iter()
            .filter(|vp| !excluded.contains(&vp.id))
            .filter(|_| self.rng.gen_bool(fraction))
            .map(|vp| vp.id.0)
            .collect()
    }
}

impl Subsystem for FaultInjector {
    fn name(&self) -> &'static str {
        "faults"
    }

    fn initial_wakeups(&mut self) -> Vec<SimTime> {
        // Every transition instant, deduplicated (several faults may
        // share one) — an empty plan parks the injector forever.
        let mut at: Vec<SimTime> = self.events.iter().map(|&(t, _, _)| t).collect();
        at.dedup();
        at
    }

    fn tick(&mut self, world: &mut SimWorld, t: SimTime) -> Vec<SimTime> {
        while let Some(&(at, idx, inject)) = self.events.get(self.cursor) {
            if at != t {
                break;
            }
            self.cursor += 1;
            let description = self.apply(world, t, idx, inject);
            let (key, kind) = if inject {
                (
                    keys::FAULT_INJECTIONS,
                    TraceEventKind::FaultInjected { description },
                )
            } else {
                (
                    keys::FAULT_RECOVERIES,
                    TraceEventKind::FaultRecovered { description },
                )
            };
            world.metrics.inc(key, 1);
            world.trace.push(TraceEvent { t, kind });
        }
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScenarioConfig;
    use crate::engine::instrument::NoopInstrumentation;
    use rootcast_netsim::SimRng;

    fn world_fixture<'a>(
        cfg: &'a ScenarioConfig,
        rngf: &'a SimRng,
        obs: &'a mut dyn crate::engine::Instrumentation,
    ) -> SimWorld<'a> {
        SimWorld::build(cfg, rngf, obs).expect("world builds")
    }

    #[test]
    fn empty_plan_never_wakes() {
        let rngf = SimRng::new(3);
        let mut inj = FaultInjector::new(rngf.stream("faults"), FaultPlan::none());
        assert!(inj.initial_wakeups().is_empty());
    }

    #[test]
    fn site_crash_withdraws_and_recovers() {
        let mut cfg = ScenarioConfig::small();
        cfg.horizon = SimTime::from_mins(30);
        cfg.pipeline.horizon = cfg.horizon;
        let plan = FaultPlan::none().with(
            SimTime::from_mins(5),
            SimDuration::from_mins(10),
            FaultKind::SiteCrash {
                letter: Letter::B,
                site: "LAX".into(),
            },
        );
        let rngf = SimRng::new(cfg.seed);
        let mut obs = NoopInstrumentation;
        let mut world = world_fixture(&cfg, &rngf, &mut obs);
        let b = world.letters.iter().position(|&l| l == Letter::B).unwrap();
        let lax = world.services[b].site_by_code("LAX").unwrap();
        let mut inj = FaultInjector::new(rngf.stream("faults"), plan);

        let wakeups = inj.initial_wakeups();
        assert_eq!(wakeups, vec![SimTime::from_mins(5), SimTime::from_mins(15)]);
        inj.tick(&mut world, SimTime::from_mins(5));
        assert!(!world.services[b].site(lax).announced);
        inj.tick(&mut world, SimTime::from_mins(15));
        assert!(world.services[b].site(lax).announced);

        // Each transition recomputes B's routes (an epoch bump), then
        // logs itself.
        let kinds: Vec<&TraceEventKind> = world.trace.iter().map(|e| &e.kind).collect();
        assert!(matches!(
            kinds[..],
            [
                TraceEventKind::CatchmentEpochBump { .. },
                TraceEventKind::FaultInjected { description },
                TraceEventKind::CatchmentEpochBump { .. },
                TraceEventKind::FaultRecovered { .. },
            ] if description.contains("site-crash B/LAX")
        ));
    }

    #[test]
    fn unknown_site_degrades_to_noop() {
        let mut cfg = ScenarioConfig::small();
        cfg.horizon = SimTime::from_mins(30);
        cfg.pipeline.horizon = cfg.horizon;
        let plan = FaultPlan::none().with(
            SimTime::from_mins(1),
            SimDuration::from_mins(1),
            FaultKind::SiteCrash {
                letter: Letter::K,
                site: "XXX".into(),
            },
        );
        let rngf = SimRng::new(cfg.seed);
        let mut obs = NoopInstrumentation;
        let mut world = world_fixture(&cfg, &rngf, &mut obs);
        let mut inj = FaultInjector::new(rngf.stream("faults"), plan);
        inj.tick(&mut world, SimTime::from_mins(1));
        assert!(matches!(
            &world.trace[..],
            [TraceEvent { kind: TraceEventKind::FaultInjected { description }, .. }]
                if description.contains("unknown site")
        ));
    }

    #[test]
    fn dropout_wave_is_deterministic_and_scoped() {
        let mut cfg = ScenarioConfig::small();
        cfg.horizon = SimTime::from_mins(30);
        cfg.pipeline.horizon = cfg.horizon;
        let plan = FaultPlan::none().with(
            SimTime::from_mins(2),
            SimDuration::from_mins(10),
            FaultKind::ProbeDropout {
                fraction: 0.5,
                letters: vec![Letter::E],
            },
        );
        let rngf = SimRng::new(cfg.seed);

        let run_wave = || {
            let mut obs = NoopInstrumentation;
            let mut world = world_fixture(&cfg, &rngf, &mut obs);
            let mut inj = FaultInjector::new(rngf.stream("faults"), plan.clone());
            inj.tick(&mut world, SimTime::from_mins(2));
            let dark: Vec<u32> = world
                .fleet
                .iter()
                .filter(|vp| world.faults.probe_action(vp.id.0, Letter::E) == ProbeAction::Skip)
                .map(|vp| vp.id.0)
                .collect();
            // The wave is scoped: the same VPs probe K normally.
            for &vp in &dark {
                assert_eq!(
                    world.faults.probe_action(vp, Letter::K),
                    ProbeAction::Normal
                );
            }
            assert!(!dark.is_empty());
            (dark, world.faults.has_probe_faults())
        };
        let (a, active) = run_wave();
        let (b, _) = run_wave();
        assert_eq!(a, b, "dropout membership must be seed-deterministic");
        assert!(active);
    }

    #[test]
    fn rssac_factor_tracks_gap_and_corrupt_windows() {
        let mut cfg = ScenarioConfig::small();
        cfg.horizon = SimTime::from_mins(30);
        cfg.pipeline.horizon = cfg.horizon;
        let plan = FaultPlan::none()
            .with(
                SimTime::from_mins(1),
                SimDuration::from_mins(4),
                FaultKind::RssacGap { letter: Letter::H },
            )
            .with(
                SimTime::from_mins(1),
                SimDuration::from_mins(4),
                FaultKind::RssacCorrupt {
                    letter: Letter::K,
                    factor: 0.5,
                },
            );
        let rngf = SimRng::new(cfg.seed);
        let mut obs = NoopInstrumentation;
        let mut world = world_fixture(&cfg, &rngf, &mut obs);
        let mut inj = FaultInjector::new(rngf.stream("faults"), plan);
        inj.tick(&mut world, SimTime::from_mins(1));
        assert_eq!(world.faults.rssac_factor(Letter::H), Some(0.0));
        assert_eq!(world.faults.rssac_factor(Letter::K), Some(0.5));
        assert_eq!(world.faults.rssac_factor(Letter::A), None);
        inj.tick(&mut world, SimTime::from_mins(5));
        assert_eq!(world.faults.rssac_factor(Letter::H), None);
        assert_eq!(world.faults.rssac_factor(Letter::K), None);
    }
}
