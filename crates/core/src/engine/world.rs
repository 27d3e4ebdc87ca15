//! The shared simulation world: topology, services, traffic sources,
//! measurement state, and the per-window fluid scratchpad that lets
//! subsystems scheduled at the same instant hand results to each other.

use crate::config::{ConfigError, ScenarioConfig};
use crate::deployment::{self, LetterDeployment};
use crate::engine::faults::FaultState;
use crate::engine::instrument::Instrumentation;
use crate::engine::metrics::{engine_registry, keys};
use crate::engine::trace::{EventTrace, TraceEventKind};
use rand::Rng;
use rootcast_anycast::{AnycastService, FacilityTable};
use rootcast_atlas::{
    clean_fleet, execute_probe, CleaningReport, MeasurementPipeline, RawMeasurement, TargetView,
    VantagePoint, VpFleet,
};
use rootcast_attack::{population_weights, Botnet, ResolverPopulation};
use rootcast_bgp::RouteCollector;
use rootcast_dns::Letter;
use rootcast_netsim::{BinnedSeries, SimDuration, SimRng, SimTime};
use rootcast_rssac::{DailyReport, RssacCollector};
use rootcast_topology::{gen, AsGraph, Tier};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The service as `vp` sees it right now, with the catchment site named
/// by its airport code: the view the public `execute_probe` path takes.
/// Draws no RNG.
pub(crate) fn target_view(svc: &AnycastService, vp: &VantagePoint) -> Option<TargetView> {
    let pv = svc.probe_view(vp.asn, vp.client_hash())?;
    Some(TargetView::new(
        svc.site(pv.site).spec.code.clone(),
        pv.server,
        pv.rtt,
        pv.drop_prob,
    ))
}

/// Results of the most recent fluid window, published by
/// [`FluidTraffic`](crate::engine::FluidTraffic) for the accounting
/// subsystems that tick at the same instant.
#[derive(Debug, Default)]
pub struct FluidScratch {
    /// Offered load (attack + legitimate) per service, per site, q/s.
    pub offered: Vec<Vec<f64>>,
    /// Attack-only component of `offered`.
    pub offered_attack: Vec<Vec<f64>>,
    /// Start of the window the loads applied over.
    pub window_start: SimTime,
    /// Width of that window.
    pub dt: SimDuration,
    /// End of the last completed fluid window (= next window's start).
    pub last_fluid: SimTime,
}

/// Everything the subsystems read and mutate while a scenario runs.
///
/// The world owns simulation state only; per-subsystem state (probe
/// wheels, churn schedules, byte-size tables) lives in the subsystems
/// themselves. The `obs` observer is write-only instrumentation: it
/// sees the run but cannot influence it.
pub struct SimWorld<'a> {
    pub cfg: &'a ScenarioConfig,
    pub rng_factory: &'a SimRng,
    pub graph: Arc<AsGraph>,
    /// The 13 root letters, in service order.
    pub letters: Vec<Letter>,
    /// One service per letter, plus `.nl` at `nl_index` if enabled.
    pub services: Vec<AnycastService>,
    pub nl_index: Option<usize>,
    pub facility_table: FacilityTable,
    pub botnet: Arc<Botnet>,
    pub pop_weights: Arc<Vec<f64>>,
    pub resolvers: ResolverPopulation,
    /// Cached per-letter legitimate weight vectors (refreshed by the
    /// resolver subsystem). `offered_per_site` normalizes its weight
    /// vector, so each letter's *total* rate is scaled by the
    /// aggregate shares separately.
    pub legit_weights: Vec<Vec<f64>>,
    /// Content version of `legit_weights`, bumped by a resolver refresh
    /// that changed some AS's row (and so rewrote that AS's cells); a
    /// refresh that changed nothing leaves it. Catchment indices built over the
    /// legit weights key on this (botnet and population weights are
    /// immutable after build, so their version is a constant 1).
    pub legit_weights_version: u64,
    pub legit_shares: [f64; 13],
    /// Converged pre-event shares, frozen once the first attack window
    /// opens — the analogue of the paper's 7-day RSSAC baseline.
    pub baseline_shares: [f64; 13],
    pub first_attack: SimTime,
    pub fleet: Arc<VpFleet>,
    pub cleaning: CleaningReport,
    pub pipeline: MeasurementPipeline,
    pub collectors: BTreeMap<Letter, RouteCollector>,
    pub rssac: BTreeMap<Letter, RssacCollector>,
    /// Synthesized pre-event baseline (7-day mean) per reporting
    /// letter, filled by the accounting subsystem's finish step.
    pub rssac_baseline: BTreeMap<Letter, DailyReport>,
    /// Attack / legitimate queries per (reporting letter, day), for
    /// unique-source estimation after the run.
    pub attack_queries_by_day: BTreeMap<Letter, Vec<f64>>,
    pub legit_queries_by_day: BTreeMap<Letter, Vec<f64>>,
    /// Served-query series per `.nl` site.
    pub nl_series: Vec<BinnedSeries>,
    pub deployments: Vec<LetterDeployment>,
    pub fluid: FluidScratch,
    /// Live fault state written by the injector and consulted by the
    /// probing and accounting subsystems. Empty when no plan is active.
    pub faults: FaultState,
    /// The engine's metric registry (see
    /// [`metrics::keys`](crate::engine::metrics::keys)). Write-only
    /// during the run; snapshotted into the output afterwards.
    pub metrics: rootcast_netsim::MetricsRegistry,
    /// Bounded structured event trace, armed by
    /// [`ScenarioConfig::trace`]; disabled it records nothing and
    /// allocates nothing.
    pub trace: EventTrace,
    pub obs: &'a mut dyn Instrumentation,
}

/// The expensive immutable part of a world: topology, deployments,
/// baseline services with their computed RIBs, the botnet, population
/// weights, the generated VP fleet, and the `t = 0` calibration pass's
/// [`CleaningReport`]. Everything here is a pure function of the
/// scenario's substrate knobs ([`ScenarioConfig::substrate_diff`]: seed,
/// topology, fleet, botnet, `.nl` inclusion) — build it once, wrap it
/// in an `Arc`, and stamp out per-run [`SimWorld`]s with
/// [`SimWorld::from_substrate`]. Per-run knobs (attack schedule, fault
/// plan, facility capacities, site capacity/policy overrides, rates,
/// cadences) never enter the substrate, so a sweep varying only those
/// pays the topology + RIB + calibration cost exactly once per shard.
///
/// `SimWorld::build` itself is now the composition
/// `Substrate::build` → `from_substrate`, so a shared-substrate run is
/// bit-identical to a standalone [`run`](crate::sim::run) by
/// construction: there is only one build path.
pub struct Substrate {
    /// The config this was built from; runs whose substrate knobs
    /// differ from it ([`ScenarioConfig::substrate_diff`]) are rejected.
    pub cfg: ScenarioConfig,
    pub graph: Arc<AsGraph>,
    pub deployments: Vec<LetterDeployment>,
    /// The 13 root letters, in service order.
    pub letters: Vec<Letter>,
    /// Pristine baseline services (RIBs computed, queues empty). Cloned
    /// per run and then retuned by any site overrides.
    pub services: Vec<AnycastService>,
    pub nl_index: Option<usize>,
    pub botnet: Arc<Botnet>,
    pub pop_weights: Arc<Vec<f64>>,
    pub fleet: Arc<VpFleet>,
    /// Calibration-pass cleaning verdicts. Calibration probes at
    /// `t = 0` see empty queues and default trackers, so they depend
    /// only on the RIBs, server counts, and host ASes — none of which a
    /// site override can touch ([`rootcast_anycast::SiteTuning`]).
    pub cleaning: CleaningReport,
}

impl Substrate {
    /// Build the substrate for `cfg`'s substrate knobs. Draws from its
    /// own `SimRng::new(cfg.seed)`, exactly the streams the monolithic
    /// build used ("calibration" plus the topology/botnet/fleet
    /// generators'), so the result is independent of who builds it.
    pub fn build(cfg: &ScenarioConfig) -> Substrate {
        let rng_factory = SimRng::new(cfg.seed);
        let graph = gen::generate(&cfg.topology, &rng_factory);

        let deployments = deployment::nov2015_deployments(&graph);
        let mut services: Vec<AnycastService> = deployments
            .iter()
            .map(|d| {
                AnycastService::new(
                    &format!("{}-root", d.letter),
                    Some(d.letter),
                    &graph,
                    d.sites.clone(),
                )
            })
            .collect();
        let letters: Vec<Letter> = deployments.iter().map(|d| d.letter).collect();
        let nl_index = if cfg.include_nl {
            services.push(AnycastService::new(
                ".nl anycast",
                None,
                &graph,
                deployment::nl_deployment(&graph),
            ));
            Some(services.len() - 1)
        } else {
            None
        };

        let botnet = Botnet::generate(&graph, cfg.botnet.clone(), &rng_factory);
        let pop_weights = population_weights(&graph);

        let fleet = VpFleet::generate(&graph, &cfg.fleet, &rng_factory);
        // Calibration pass: one probe per (VP, letter) to feed hijack
        // detection, exactly how the paper's cleaning classifies VPs.
        let mut calibration: Vec<RawMeasurement> = Vec::with_capacity(fleet.len() * letters.len());
        {
            let mut cal_rng = rng_factory.stream("calibration");
            for vp in fleet.iter() {
                for (svc, &letter) in services.iter().zip(&letters) {
                    let view = target_view(svc, vp);
                    calibration.push(execute_probe(vp, letter, view, SimTime::ZERO, &mut cal_rng));
                }
            }
        }
        let cleaning = clean_fleet(&fleet, &calibration);

        Substrate {
            cfg: cfg.clone(),
            graph: Arc::new(graph),
            deployments,
            letters,
            services,
            nl_index,
            botnet: Arc::new(botnet),
            pop_weights: Arc::new(pop_weights),
            fleet: Arc::new(fleet),
            cleaning,
        }
    }
}

impl<'a> SimWorld<'a> {
    /// Build the full world for `cfg`: topology, deployments, traffic
    /// sources, the calibrated-and-cleaned VP fleet, and all
    /// accounting state, exactly as of `SimTime::ZERO`. This is
    /// [`Substrate::build`] followed by [`Self::from_substrate`] — the
    /// sweep runner calls the two halves separately to share the first.
    pub fn build(
        cfg: &'a ScenarioConfig,
        rng_factory: &'a SimRng,
        obs: &'a mut dyn Instrumentation,
    ) -> Result<SimWorld<'a>, ConfigError> {
        let substrate = Substrate::build(cfg);
        SimWorld::from_substrate(cfg, rng_factory, &substrate, obs)
    }

    /// Stamp out the per-run mutable world over a prebuilt [`Substrate`]:
    /// clone the baseline services (cheap next to recomputing their
    /// RIBs), apply the config's site overrides, and build all per-run
    /// accounting state. Fails with [`ConfigError::SubstrateMismatch`]
    /// when the substrate was built for different substrate knobs, with
    /// [`ConfigError::BadOverride`] when an override names a site the
    /// deployment doesn't have, and with [`ConfigError::BadPipeline`]
    /// when a rastered letter has more sites than a raster cell encodes.
    pub fn from_substrate(
        cfg: &'a ScenarioConfig,
        rng_factory: &'a SimRng,
        substrate: &Substrate,
        obs: &'a mut dyn Instrumentation,
    ) -> Result<SimWorld<'a>, ConfigError> {
        let differing = substrate.cfg.substrate_diff(cfg);
        if !differing.is_empty() {
            return Err(ConfigError::SubstrateMismatch(differing));
        }
        let graph = Arc::clone(&substrate.graph);
        let n_ases = graph.len();
        let letters = substrate.letters.clone();
        let nl_index = substrate.nl_index;

        let mut services = substrate.services.clone();
        for ov in &cfg.site_overrides {
            let si = letters
                .iter()
                .position(|&l| l == ov.letter)
                .ok_or_else(|| {
                    ConfigError::BadOverride(format!("letter {} has no service", ov.letter))
                })?;
            let idx = services[si].site_by_code(&ov.site).ok_or_else(|| {
                ConfigError::BadOverride(format!(
                    "{} has no site {:?} (deployed: {})",
                    ov.letter,
                    ov.site,
                    services[si]
                        .sites()
                        .iter()
                        .map(|s| s.spec.code.as_str())
                        .collect::<Vec<_>>()
                        .join(", ")
                ))
            })?;
            services[si].retune_site(idx, &ov.tuning);
        }

        let mut facility_table = FacilityTable::new();
        for &(fid, cap) in &cfg.facility_capacities {
            facility_table.register(fid, cap, cap * 0.5);
        }

        let resolvers = ResolverPopulation::new(n_ases);
        let legit_weights: Vec<Vec<f64>> = letters
            .iter()
            .map(|&l| resolvers.letter_weights(l, &substrate.pop_weights))
            .collect();
        let legit_shares = resolvers.aggregate_shares(&substrate.pop_weights);
        let first_attack = cfg
            .attack
            .windows()
            .first()
            .map(|w| w.start)
            .unwrap_or(SimTime::MAX);

        let mut pipeline = MeasurementPipeline::new(cfg.pipeline.clone(), substrate.fleet.len());
        for (i, &letter) in letters.iter().enumerate() {
            let codes: Vec<String> = services[i]
                .sites()
                .iter()
                .map(|s| s.spec.code.clone())
                .collect();
            pipeline
                .register_letter(letter, codes)
                .map_err(ConfigError::BadPipeline)?;
        }

        let mut collectors: BTreeMap<Letter, RouteCollector> = BTreeMap::new();
        {
            let mut rng = rng_factory.stream("bgpmon");
            let stubs = graph.by_tier(Tier::Stub);
            let peers: Vec<_> = (0..cfg.n_collector_peers)
                .map(|_| stubs[rng.gen_range(0..stubs.len())])
                .collect();
            for (i, &letter) in letters.iter().enumerate() {
                let mut c = RouteCollector::new(peers.clone());
                c.prime(services[i].rib());
                collectors.insert(letter, c);
            }
        }

        let n_days = (cfg.horizon.as_secs() / 86_400).max(1) as usize;
        let mut rssac: BTreeMap<Letter, RssacCollector> = BTreeMap::new();
        for d in &substrate.deployments {
            if let Some(capture) = d.rssac_capture {
                rssac.insert(d.letter, RssacCollector::new(d.letter, n_days, capture));
            }
        }
        let attack_queries_by_day: BTreeMap<Letter, Vec<f64>> =
            rssac.keys().map(|&l| (l, vec![0.0; n_days])).collect();
        let legit_queries_by_day: BTreeMap<Letter, Vec<f64>> =
            rssac.keys().map(|&l| (l, vec![0.0; n_days])).collect();

        let bin = cfg.pipeline.bin;
        let n_bins = (cfg.horizon.as_nanos() / bin.as_nanos()) as usize;
        let nl_series: Vec<BinnedSeries> = nl_index
            .map(|i| {
                services[i]
                    .sites()
                    .iter()
                    .map(|_| BinnedSeries::zeros(bin, n_bins))
                    .collect()
            })
            .unwrap_or_default();

        Ok(SimWorld {
            cfg,
            rng_factory,
            graph,
            letters,
            services,
            nl_index,
            facility_table,
            botnet: Arc::clone(&substrate.botnet),
            pop_weights: Arc::clone(&substrate.pop_weights),
            resolvers,
            legit_weights,
            legit_weights_version: 1,
            baseline_shares: legit_shares,
            legit_shares,
            first_attack,
            fleet: Arc::clone(&substrate.fleet),
            cleaning: substrate.cleaning.clone(),
            pipeline,
            collectors,
            rssac,
            rssac_baseline: BTreeMap::new(),
            attack_queries_by_day,
            legit_queries_by_day,
            nl_series,
            deployments: substrate.deployments.clone(),
            fluid: FluidScratch::default(),
            faults: FaultState::default(),
            metrics: engine_registry(),
            trace: EventTrace::new(&cfg.trace),
            obs,
        })
    }

    /// Record a routing change with the letter's BGPmon-style collector
    /// (no-op for services without a collector, e.g. `.nl`).
    ///
    /// Every call follows exactly one RIB recompute on that service, so
    /// the service's changed-AS set describes precisely the delta since
    /// the collector's last observation and the collector can skip
    /// unchanged peers; whether that recompute was a route-state memo
    /// hit is counted here too. Debug builds audit every skipped peer against
    /// the full table; the full-scan `RouteCollector::observe` stays as
    /// the bgp crate's unit-test oracle.
    pub fn observe_routes(&mut self, t: SimTime, svc_idx: usize) {
        let svc = &self.services[svc_idx];
        let popcount = svc.changed_ases().iter().filter(|&&c| c).count() as u64;
        let epoch = svc.catchment_epoch();
        self.metrics.inc(keys::BGP_ROUTE_RECOMPUTES, 1);
        let memo = if svc.last_recompute_hit() {
            keys::BGP_RIB_MEMO_HITS
        } else {
            keys::BGP_RIB_MEMO_MISSES
        };
        self.metrics.inc(memo, 1);
        self.metrics.inc(keys::BGP_CHANGED_ASES, popcount);
        self.metrics
            .observe(keys::CHANGED_AS_POPCOUNT, popcount as f64);
        self.trace
            .record_with(t, || TraceEventKind::CatchmentEpochBump {
                service: svc.name.clone(),
                epoch,
                changed_ases: popcount,
            });
        if let Some(letter) = svc.letter {
            if let Some(c) = self.collectors.get_mut(&letter) {
                c.observe_changed(t, svc.rib(), svc.changed_ases());
                self.metrics.inc(keys::BGP_COLLECTOR_UPDATES, 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::instrument::NoopInstrumentation;

    #[test]
    fn build_wires_all_letters_and_nl() {
        let mut cfg = ScenarioConfig::small();
        cfg.horizon = SimTime::from_mins(30);
        cfg.pipeline.horizon = cfg.horizon;
        let rngf = SimRng::new(cfg.seed);
        let mut obs = NoopInstrumentation;
        let world = SimWorld::build(&cfg, &rngf, &mut obs).expect("world builds");
        assert_eq!(world.letters.len(), 13);
        assert_eq!(world.services.len(), 14); // 13 letters + .nl
        assert_eq!(world.nl_index, Some(13));
        assert_eq!(world.collectors.len(), 13);
        assert_eq!(world.rssac.len(), 5);
        assert_eq!(world.nl_series.len(), 2);
        assert!(world.cleaning.kept_count() > 0);
        // The scratchpad starts empty at t=0.
        assert_eq!(world.fluid.last_fluid, SimTime::ZERO);
        assert!(world.fluid.offered.is_empty());
    }
}
