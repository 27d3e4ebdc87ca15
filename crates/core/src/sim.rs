//! The scenario driver: a thin builder over the subsystem
//! [`engine`](crate::engine).
//!
//! ## Structure of a run
//!
//! [`run`] validates the configuration ([`ScenarioConfig::validate`]),
//! builds a [`SimWorld`] (topology, services, traffic sources, the
//! calibrated VP fleet) and drives the six [`subsystems`] against it
//! on one deterministic schedule:
//!
//! * [`FluidTraffic`](crate::engine::FluidTraffic) (every minute):
//!   distribute attack + legitimate load over each service's current
//!   catchments, push it through the shared-facility links and
//!   per-site ingress queues, and let stress policies
//!   withdraw/re-announce.
//! * [`RssacAccounting`](crate::engine::RssacAccounting) (same cadence,
//!   ticking after the fluid step): RSSAC byte/query accounting and the
//!   `.nl` served-rate series.
//! * [`ProbeWheel`](crate::engine::ProbeWheel) (every minute): the Atlas
//!   fleet's wheel — each (VP, letter) pair probes on its own phase of
//!   the letter's probing interval (§2.4.1); each letter's probes run
//!   on its own lane, behind the engine clock, and `finish` drains the
//!   lanes.
//! * [`ResolverRefresh`](crate::engine::ResolverRefresh) (every 10 min):
//!   resolvers re-weight letter preferences from current RTT/loss — the
//!   letter-flip mechanism (§3.2.2).
//! * [`MaintenanceChurn`](crate::engine::MaintenanceChurn) (at
//!   exponentially distributed instants): background operator
//!   maintenance noise.
//! * [`FaultInjector`](crate::engine::FaultInjector) (seeded last, so
//!   same-instant faults land after production ticks): scheduled fault
//!   injection from the scenario's
//!   [`FaultPlan`](crate::engine::FaultPlan). An empty plan never
//!   wakes, leaving the run bit-identical to a five-subsystem one.
//!
//! Everything is deterministic in the scenario seed, at any rayon
//! thread count.

use crate::deployment::LetterDeployment;
use crate::engine::metrics::keys;
use crate::engine::Substrate;
use crate::engine::{
    drive, subsystems, Instrumentation, SimWorld, SpanProfile, SpanRecorder, TraceEvent,
};
use crate::error::RootcastError;
use rootcast_atlas::{CleaningReport, MeasurementPipeline};
use rootcast_attack::AttackSchedule;
use rootcast_bgp::RouteCollector;
use rootcast_dns::Letter;
use rootcast_netsim::{BinnedSeries, MetricsSnapshot, SimRng, SimTime};
use rootcast_rssac::{DailyReport, RssacCollector};
use std::collections::BTreeMap;

pub use crate::config::ScenarioConfig;

/// Everything a finished run hands to the analysis layer.
pub struct SimOutput {
    pub letters: Vec<Letter>,
    pub pipeline: MeasurementPipeline,
    pub cleaning: CleaningReport,
    pub collectors: BTreeMap<Letter, RouteCollector>,
    pub rssac: BTreeMap<Letter, RssacCollector>,
    /// Synthesized pre-event baseline (7-day mean) per reporting letter.
    pub rssac_baseline: BTreeMap<Letter, DailyReport>,
    /// Per-site served-query series for .nl (code, series), 10-min bins.
    pub nl_sites: Vec<(String, BinnedSeries)>,
    pub deployments: Vec<LetterDeployment>,
    pub attack: AttackSchedule,
    pub horizon: SimTime,
    pub n_ases: usize,
    pub n_vps_kept: usize,
    /// What happened: every engine metric, frozen at the end of the run
    /// (see [`metrics::keys`](crate::engine::metrics::keys) for the
    /// catalog).
    pub metrics: MetricsSnapshot,
    /// When it happened: every logged event in simulated-time order,
    /// fault injections and recoveries among them.
    pub trace: Vec<TraceEvent>,
    /// Where the wall time went: count, total and max per span path
    /// (`build_world`, `build_world/substrate`, `drive/<subsystem>`,
    /// `finalize`, ...).
    pub spans: SpanProfile,
}

/// Run the scenario to completion. Fails fast with a typed error when
/// the configuration breaks an invariant ([`ScenarioConfig::validate`]).
pub fn run(cfg: &ScenarioConfig) -> Result<SimOutput, RootcastError> {
    cfg.validate()?;
    let mut spans = SpanRecorder::default();
    spans.enter("build_world");
    spans.enter("substrate");
    let substrate = Substrate::build(cfg);
    spans.exit("substrate");
    run_recorded(cfg, &substrate, spans)
}

/// Run the scenario over a prebuilt shared [`Substrate`] (topology,
/// deployments, baseline RIBs, botnet, fleet, calibration), paying only
/// the per-run build cost. [`run`] is exactly `Substrate::build`
/// followed by this, so the output is bit-identical to [`run`] on the
/// same config — the sweep runner's determinism contract rests on this
/// single shared build path. Fails with a typed error when the
/// substrate was built for different substrate knobs
/// ([`ScenarioConfig::substrate_diff`]) or an override names an unknown
/// site.
pub fn run_with_substrate(
    cfg: &ScenarioConfig,
    substrate: &Substrate,
) -> Result<SimOutput, RootcastError> {
    cfg.validate()?;
    let mut spans = SpanRecorder::default();
    spans.enter("build_world");
    run_recorded(cfg, substrate, spans)
}

/// The common back half of both entry points: stamp out the world
/// inside the open `build_world` span, drive it, and freeze the spans.
fn run_recorded(
    cfg: &ScenarioConfig,
    substrate: &Substrate,
    mut spans: SpanRecorder,
) -> Result<SimOutput, RootcastError> {
    let rng_factory = SimRng::new(cfg.seed);
    let world = SimWorld::from_substrate(cfg, &rng_factory, substrate, &mut spans)?;
    world.obs.exit("build_world");
    let mut out = drive_world(world);
    out.spans = spans.finish();
    Ok(out)
}

/// Drive a built world to completion and package the output. The
/// world's observer sees `drive` and `finalize`; the caller fills in
/// [`SimOutput::spans`] once the observer is released.
fn drive_world(mut world: SimWorld<'_>) -> SimOutput {
    let horizon = world.cfg.horizon;
    let mut subsystems = subsystems(&world);
    world.obs.enter("drive");
    drive(&mut world, &mut subsystems, horizon);
    world.obs.exit("drive");
    world.into_output()
}

impl SimWorld<'_> {
    /// Finalize a driven world into its [`SimOutput`], inside a
    /// `finalize` span: close the measurement pipeline, settle the
    /// end-of-run metrics and freeze every record. [`SimOutput::spans`]
    /// is left empty — the observer is still borrowed by the world —
    /// and [`run`] fills it in from its recorder.
    pub fn into_output(self) -> SimOutput {
        let mut world = self;
        let cfg = world.cfg;
        world.obs.enter("finalize");
        world.pipeline.finalize();

        // End-of-run metric settlement: stats accumulated inside the lower
        // layers (pipeline outcomes, scratch-buffer reuse, fleet cleaning)
        // are copied into the registry so the snapshot is the one place to
        // look.
        let outcomes = world.pipeline.outcome_stats();
        world.metrics.inc(keys::PROBES_SITE, outcomes.site);
        world.metrics.inc(keys::PROBES_TIMEOUT, outcomes.timeout);
        world.metrics.inc(keys::PROBES_ERROR, outcomes.error);
        world.metrics.inc(keys::PROBES_MISSED, outcomes.missed);
        let kept = world.cleaning.kept_count();
        world.metrics.set_gauge(keys::VPS_KEPT, kept as f64);
        world
            .metrics
            .set_gauge(keys::VPS_DROPPED, (world.fleet.len() - kept) as f64);
        let (reuses, allocs) = world.services.iter().fold((0, 0), |(r, a), svc| {
            let (r2, a2) = svc.scratch_stats();
            (r + r2, a + a2)
        });
        world.metrics.inc(keys::BGP_SCRATCH_REUSES, reuses);
        world.metrics.inc(keys::BGP_SCRATCH_ALLOCS, allocs);
        let metrics = world.metrics.snapshot();
        world.obs.exit("finalize");

        let SimWorld {
            graph,
            letters,
            services,
            nl_index,
            cleaning,
            pipeline,
            collectors,
            rssac,
            rssac_baseline,
            nl_series,
            deployments,
            trace,
            ..
        } = world;

        let nl_sites = nl_index
            .map(|ni| {
                services[ni]
                    .sites()
                    .iter()
                    .zip(nl_series)
                    .map(|(s, series)| (s.spec.code.clone(), series))
                    .collect()
            })
            .unwrap_or_default();

        SimOutput {
            letters,
            pipeline,
            n_vps_kept: cleaning.kept_count(),
            cleaning,
            collectors,
            rssac,
            rssac_baseline,
            nl_sites,
            deployments,
            attack: cfg.attack.clone(),
            horizon: cfg.horizon,
            n_ases: graph.len(),
            metrics,
            trace,
            spans: SpanProfile::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::TraceEventKind;
    use rootcast_netsim::SimDuration;

    /// One shared small run for the driver's smoke tests (building it is
    /// the expensive part; assertions are cheap).
    fn smoke() -> SimOutput {
        let mut cfg = ScenarioConfig::small();
        cfg.horizon = SimTime::from_hours(2);
        cfg.pipeline.horizon = cfg.horizon;
        cfg.attack = AttackSchedule::new(vec![rootcast_attack::AttackWindow {
            start: SimTime::from_mins(30),
            duration: SimDuration::from_mins(30),
            qname: "www.336901.com".into(),
            targets: AttackSchedule::nov2015_targets(),
            rate_qps: 2_000_000.0,
        }]);
        run(&cfg).expect("valid scenario")
    }

    #[test]
    fn driver_produces_consistent_output() {
        let out = smoke();
        assert_eq!(out.letters.len(), 13);
        assert!(out.n_vps_kept > 300, "kept {}", out.n_vps_kept);
        // Every letter has pipeline data.
        for &l in &out.letters {
            let d = out.pipeline.letter(l);
            assert!(!d.site_codes.is_empty());
        }
        // B-root suffers during the attack: its success series dips.
        let b = out.pipeline.letter(Letter::B);
        let pre: f64 = b
            .success
            .window(SimTime::ZERO, SimTime::from_mins(30))
            .max();
        let during: f64 = b
            .success
            .window(SimTime::from_mins(40), SimTime::from_mins(60))
            .min();
        assert!(
            during < pre * 0.5,
            "B-root should dip under 2 Mq/s: pre={pre} during={during}"
        );
        // L-root (not attacked) stays healthy.
        let l = out.pipeline.letter(Letter::L);
        let l_pre = l
            .success
            .window(SimTime::ZERO, SimTime::from_mins(30))
            .max();
        let l_during = l
            .success
            .window(SimTime::from_mins(40), SimTime::from_mins(60))
            .min();
        assert!(
            l_during > l_pre * 0.8,
            "L-root should stay up: pre={l_pre} during={l_during}"
        );
        // RSSAC: exactly the five reporting letters.
        assert_eq!(out.rssac.len(), 5);
        assert!(out.rssac.contains_key(&Letter::A));
        // .nl series exist.
        assert_eq!(out.nl_sites.len(), 2);
        // The span recorder saw every phase and the five production
        // subsystems tick (the fault injector never wakes on an empty
        // plan, so no fault event is logged); all six finish under
        // `drive`.
        assert!(!out.trace.iter().any(|e| matches!(
            e.kind,
            TraceEventKind::FaultInjected { .. } | TraceEventKind::FaultRecovered { .. }
        )));
        for path in ["build_world", "build_world/substrate", "drive", "finalize"] {
            assert_eq!(out.spans.get(path).map(|s| s.count), Some(1), "{path}");
        }
        for name in ["fluid", "rssac", "probes", "resolvers", "maintenance"] {
            assert!(out.spans.ticks(name) > 0, "missing span for {name}");
        }
        assert_eq!(out.spans.ticks("faults"), 0);
        let drive_children = out
            .spans
            .stats()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent.is_some_and(|p| out.spans.path(p) == "drive"))
            .count();
        assert_eq!(drive_children, 6);
        assert_eq!(
            out.spans.get("drive/faults/finish").map(|s| s.count),
            Some(1)
        );
        assert_eq!(out.spans.ticks("fluid"), 120); // one per minute over 2 h
        assert_eq!(out.spans.ticks("rssac"), 120);
        assert_eq!(out.spans.ticks("probes"), 120);
        // Load extremes live in the metrics registry.
        assert!(out.metrics.gauge("fluid.peak_offered_qps").unwrap_or(0.0) > 0.0);
        assert!(out.metrics.gauge("fluid.worst_served_ratio").unwrap_or(1.0) < 1.0);
        // B-root melted
    }

    #[test]
    fn runs_are_deterministic() {
        let mut cfg = ScenarioConfig::small();
        cfg.horizon = SimTime::from_mins(40);
        cfg.pipeline.horizon = cfg.horizon;
        let a = run(&cfg).expect("valid scenario");
        let b = run(&cfg).expect("valid scenario");
        for &l in &a.letters {
            assert_eq!(
                a.pipeline.letter(l).success.values(),
                b.pipeline.letter(l).success.values(),
                "letter {l} series differ between identical runs"
            );
        }
        assert_eq!(a.n_vps_kept, b.n_vps_kept);
    }
}
