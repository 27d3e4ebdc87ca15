//! Scenario configuration: every knob of a run, with the canonical
//! Nov 30 – Dec 1 2015 reproduction and a scaled-down test variant.

use crate::deployment::facilities;
use crate::engine::faults::{FaultKind, FaultPlan};
use crate::engine::trace::TraceConfig;
use rootcast_atlas::{FleetParams, PipelineConfig, PipelineError};
use rootcast_attack::{AttackSchedule, BotnetParams, DEFAULT_LEGIT_TOTAL_QPS};
use rootcast_dns::{Letter, Name};
use rootcast_netsim::{SimDuration, SimTime};
use rootcast_topology::TopologyParams;
use std::fmt;

/// A scenario configuration that fails its invariants, with enough
/// context to fix the offending knob. Returned by
/// [`ScenarioConfig::validate`] and surfaced through
/// [`RootcastError`](crate::error::RootcastError) by the driver.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// Horizon, cadence, or interval invariants broken.
    BadTiming(String),
    /// A rate or capacity is non-finite or out of range.
    BadRate(String),
    /// Fleet sizing or probability knobs out of range.
    BadFleet(String),
    /// Botnet sizing or heavy-hitter share out of range.
    BadBotnet(String),
    /// An attack window fails to parse or is inconsistent.
    BadAttack(String),
    /// A fault spec in the plan is malformed.
    BadFault(String),
    /// The topology parameters fail their own invariants
    /// ([`TopologyParams::validate`](rootcast_topology::TopologyParams::validate)).
    BadTopology(String),
    /// The trace configuration is unusable.
    BadTrace(String),
    /// A site override names an unknown site or carries a bad value.
    BadOverride(String),
    /// The measurement pipeline cannot hold the deployment, e.g. a
    /// rastered letter with more sites than a raster cell encodes.
    BadPipeline(PipelineError),
    /// A prebuilt [`Substrate`](crate::engine::Substrate) was built for
    /// other substrate knobs; names the ones that differ
    /// ([`ScenarioConfig::substrate_diff`]).
    SubstrateMismatch(Vec<&'static str>),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::BadTiming(m) => write!(f, "bad timing: {m}"),
            ConfigError::BadRate(m) => write!(f, "bad rate: {m}"),
            ConfigError::BadFleet(m) => write!(f, "bad fleet: {m}"),
            ConfigError::BadBotnet(m) => write!(f, "bad botnet: {m}"),
            ConfigError::BadAttack(m) => write!(f, "bad attack window: {m}"),
            ConfigError::BadFault(m) => write!(f, "bad fault spec: {m}"),
            ConfigError::BadTopology(m) => write!(f, "bad topology: {m}"),
            ConfigError::BadTrace(m) => write!(f, "bad trace config: {m}"),
            ConfigError::BadOverride(m) => write!(f, "bad site override: {m}"),
            ConfigError::BadPipeline(e) => write!(f, "bad pipeline: {e}"),
            ConfigError::SubstrateMismatch(knobs) => write!(
                f,
                "substrate built for other knobs: {} differ",
                knobs.join(", ")
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// A probability knob: finite and within `[0, 1]`.
fn check_fraction(name: &str, v: f64) -> Result<(), ConfigError> {
    if !v.is_finite() || !(0.0..=1.0).contains(&v) {
        return Err(ConfigError::BadFleet(format!(
            "{name} must be a probability in [0, 1], got {v}"
        )));
    }
    Ok(())
}

/// A per-run override of one deployed site's non-routing knobs
/// (capacity, buffer depth, stress policy), addressed by letter and
/// airport code. Applied after the shared substrate is cloned, so
/// sweeps can vary these without rebuilding topology, RIBs, or the
/// calibrated fleet — see
/// [`SiteTuning`](rootcast_anycast::SiteTuning) for why exactly these
/// fields are substrate-safe.
#[derive(Debug, Clone)]
pub struct SiteOverride {
    pub letter: Letter,
    /// Airport code of the site within the letter's deployment (`LHR`).
    pub site: String,
    pub tuning: rootcast_anycast::SiteTuning,
}

impl SiteOverride {
    pub fn new(letter: Letter, site: &str, tuning: rootcast_anycast::SiteTuning) -> SiteOverride {
        SiteOverride {
            letter,
            site: site.to_ascii_uppercase(),
            tuning,
        }
    }
}

/// Full scenario configuration.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    pub seed: u64,
    pub topology: TopologyParams,
    pub fleet: FleetParams,
    pub botnet: BotnetParams,
    pub attack: AttackSchedule,
    /// Analysis horizon (the paper's window: 48 h from Nov 30 00:00).
    pub horizon: SimTime,
    /// Fluid model step; must divide the probe wheel minute.
    pub fluid_step: SimDuration,
    /// Probe interval for every letter except A.
    pub probe_interval: SimDuration,
    /// A-root's (slower) probe interval at event time.
    pub a_probe_interval: SimDuration,
    /// Total legitimate root-query load across all letters, q/s.
    pub legit_total_qps: f64,
    /// Resolver preference refresh period.
    pub resolver_update: SimDuration,
    pub pipeline: PipelineConfig,
    /// Number of BGPmon-style collector peers (paper: 152).
    pub n_collector_peers: usize,
    /// Capacity of each shared facility link, q/s: (facility, capacity).
    pub facility_capacities: Vec<(rootcast_anycast::FacilityId, f64)>,
    /// Mean time between background maintenance withdrawals (route
    /// churn noise visible in Figure 9 outside the events); None = off.
    pub maintenance_mean: Option<SimDuration>,
    /// Include the .nl collateral-damage service.
    pub include_nl: bool,
    /// Legitimate .nl query load, q/s (both anycast sites combined).
    pub nl_qps: f64,
    /// Scheduled fault injection (empty by default: no faults, and the
    /// run is bit-identical to one without the injector subsystem).
    pub faults: FaultPlan,
    /// Per-run overrides of deployed sites' non-routing knobs
    /// (capacity / buffer / stress policy), applied after the substrate
    /// is built. Empty by default. These are not substrate knobs
    /// ([`Self::substrate_diff`]): two configs differing only here can
    /// share one substrate.
    pub site_overrides: Vec<SiteOverride>,
    /// Run the fluid tick through its reference implementation (uncached
    /// catchment scans, rayon per-letter fan-out) instead of the cached
    /// serial kernel. Outputs are bit-identical either way; the
    /// determinism suite pins it. Probes and route collectors have one
    /// path each and ignore this flag.
    pub reference_kernels: bool,
    /// Structured event tracing (off by default). Enabling it never
    /// changes simulation outputs: the trace is an observer, and the
    /// determinism suite pins trace-on and trace-off runs bit-identical.
    pub trace: TraceConfig,
}

impl ScenarioConfig {
    /// The canonical full-scale reproduction: 48 h, ~9300 VPs, 5 Mq/s
    /// per attacked letter.
    pub fn nov2015() -> ScenarioConfig {
        ScenarioConfig {
            seed: 20151130,
            topology: TopologyParams::default(),
            fleet: FleetParams::default(),
            botnet: BotnetParams::default(),
            attack: AttackSchedule::nov2015(5_000_000.0),
            horizon: SimTime::from_hours(48),
            fluid_step: SimDuration::from_mins(1),
            probe_interval: SimDuration::from_mins(4),
            a_probe_interval: SimDuration::from_mins(30),
            legit_total_qps: DEFAULT_LEGIT_TOTAL_QPS,
            resolver_update: SimDuration::from_mins(10),
            pipeline: PipelineConfig::paper_default(),
            n_collector_peers: 152,
            facility_capacities: vec![
                // Tuned against the canonical seed's attack exposure so
                // the Frankfurt link saturates once K-LHR's catchment
                // shifts into K-FRA, and Sydney saturates under E-SYD's
                // exposure — the couplings behind Figures 14 and 15.
                (facilities::FRA_SHARED, 95_000.0),
                (facilities::SYD_SHARED, 30_000.0),
            ],
            maintenance_mean: Some(SimDuration::from_mins(90)),
            include_nl: true,
            nl_qps: 80_000.0,
            faults: FaultPlan::none(),
            site_overrides: Vec::new(),
            reference_kernels: false,
            trace: TraceConfig::default(),
        }
    }

    /// A scaled-down configuration for tests and fast iteration: small
    /// topology, few hundred VPs, 12-hour horizon (covers event 1).
    pub fn small() -> ScenarioConfig {
        let mut cfg = ScenarioConfig::nov2015();
        cfg.topology = TopologyParams {
            n_tier1: 6,
            n_tier2: 30,
            n_stub: 400,
            ..TopologyParams::default()
        };
        cfg.fleet = FleetParams::tiny(400);
        cfg.botnet.n_members = 120;
        cfg.horizon = SimTime::from_hours(12);
        cfg.pipeline.horizon = cfg.horizon;
        cfg.pipeline.rtt_subsample = 2;
        cfg
    }

    /// The substrate knobs on which `self` and `other` differ, in
    /// declaration order. The expensive immutable substrate (topology,
    /// deployments, baseline RIBs, botnet, fleet, calibration) is a
    /// function of exactly these: seed, topology, fleet, botnet, and
    /// `.nl` inclusion. Configs with an empty difference can share one
    /// [`Substrate`](crate::engine::Substrate); everything else
    /// (attack, faults, policies, capacities, rates, cadences) is
    /// applied per run. The sweep runner shards its runs by it.
    pub fn substrate_diff(&self, other: &ScenarioConfig) -> Vec<&'static str> {
        [
            ("seed", self.seed == other.seed),
            ("topology", self.topology == other.topology),
            ("fleet", self.fleet == other.fleet),
            ("botnet", self.botnet == other.botnet),
            ("include_nl", self.include_nl == other.include_nl),
        ]
        .into_iter()
        .filter(|&(_, same)| !same)
        .map(|(knob, _)| knob)
        .collect()
    }

    /// Check every invariant a run depends on. Called by
    /// [`run`](crate::sim::run) before any state is built, so a bad
    /// knob fails fast with a typed error instead of a mid-run panic.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.topology
            .validate()
            .map_err(|e| ConfigError::BadTopology(e.to_string()))?;
        if self.trace.enabled && self.trace.capacity == 0 {
            return Err(ConfigError::BadTrace(
                "enabled trace needs a positive capacity".into(),
            ));
        }
        if self.horizon <= SimTime::ZERO {
            return Err(ConfigError::BadTiming("horizon must be positive".into()));
        }
        // The Atlas pipeline bins over its own copy of the horizon and
        // indexes rasters on its own copy of the probe interval; a stale
        // copy would silently misalign them with the rest of the run.
        if self.pipeline.horizon != self.horizon {
            return Err(ConfigError::BadTiming(format!(
                "pipeline.horizon {} must equal horizon {}",
                self.pipeline.horizon, self.horizon
            )));
        }
        if self.pipeline.probe_interval != self.probe_interval {
            return Err(ConfigError::BadTiming(format!(
                "pipeline.probe_interval {} must equal probe_interval {}",
                self.pipeline.probe_interval, self.probe_interval
            )));
        }
        if self.fluid_step.is_zero()
            || !SimDuration::from_mins(1)
                .as_nanos()
                .is_multiple_of(self.fluid_step.as_nanos())
        {
            return Err(ConfigError::BadTiming(format!(
                "fluid_step must be positive and divide one minute, got {:?}",
                self.fluid_step
            )));
        }
        for (name, iv) in [
            ("probe_interval", self.probe_interval),
            ("a_probe_interval", self.a_probe_interval),
        ] {
            if iv.is_zero() || iv.as_secs() % 60 != 0 {
                return Err(ConfigError::BadTiming(format!(
                    "{name} must be a positive whole number of minutes, got {iv:?}"
                )));
            }
        }
        if self.maintenance_mean.is_some_and(|m| m.is_zero()) {
            return Err(ConfigError::BadTiming(
                "maintenance_mean must be positive (None disables churn)".into(),
            ));
        }
        if self.resolver_update.is_zero() {
            return Err(ConfigError::BadTiming(
                "resolver_update must be positive".into(),
            ));
        }
        if self.pipeline.bin.is_zero() {
            return Err(ConfigError::BadTiming(
                "pipeline.bin must be positive".into(),
            ));
        }
        if self.pipeline.rtt_subsample == 0 {
            return Err(ConfigError::BadPipeline(PipelineError::ZeroRttSubsample));
        }
        for (name, rate) in [
            ("legit_total_qps", self.legit_total_qps),
            ("nl_qps", self.nl_qps),
        ] {
            if !rate.is_finite() || rate < 0.0 {
                return Err(ConfigError::BadRate(format!(
                    "{name} must be finite and non-negative, got {rate}"
                )));
            }
        }
        let mut seen = Vec::new();
        for &(fid, cap) in &self.facility_capacities {
            if !cap.is_finite() || cap <= 0.0 {
                return Err(ConfigError::BadRate(format!(
                    "facility #{} capacity must be finite and positive, got {cap}",
                    fid.0
                )));
            }
            if seen.contains(&fid) {
                return Err(ConfigError::BadRate(format!(
                    "facility #{} registered twice",
                    fid.0
                )));
            }
            seen.push(fid);
        }
        if self.fleet.n_vps == 0 {
            return Err(ConfigError::BadFleet("fleet needs at least one VP".into()));
        }
        check_fraction("old_firmware_fraction", self.fleet.old_firmware_fraction)?;
        check_fraction("hijacked_fraction", self.fleet.hijacked_fraction)?;
        check_fraction("flaky_fraction", self.fleet.flaky_fraction)?;
        if self.botnet.n_members == 0 {
            return Err(ConfigError::BadBotnet(
                "botnet needs at least one member".into(),
            ));
        }
        let heavy = self.botnet.heavy_share;
        if !(0.0..=1.0).contains(&heavy) {
            return Err(ConfigError::BadBotnet(format!(
                "heavy_share must be a fraction in [0, 1], got {heavy}"
            )));
        }
        for w in self.attack.windows() {
            if let Err(e) = Name::parse(&w.qname) {
                return Err(ConfigError::BadAttack(format!(
                    "qname {:?} does not parse: {e}",
                    w.qname
                )));
            }
            if !w.rate_qps.is_finite() || w.rate_qps < 0.0 {
                return Err(ConfigError::BadAttack(format!(
                    "rate {} q/s must be finite and non-negative",
                    w.rate_qps
                )));
            }
            if w.duration.is_zero() {
                return Err(ConfigError::BadAttack(
                    "window duration must be positive".into(),
                ));
            }
        }
        for ov in &self.site_overrides {
            if ov.site.is_empty() {
                return Err(ConfigError::BadOverride(format!(
                    "{}: empty site code",
                    ov.letter
                )));
            }
            if let Some(cap) = ov.tuning.capacity_qps {
                if !cap.is_finite() || cap <= 0.0 {
                    return Err(ConfigError::BadOverride(format!(
                        "{}-{}: capacity must be finite and positive, got {cap}",
                        ov.letter, ov.site
                    )));
                }
            }
            if let Some(buf) = ov.tuning.buffer_queries {
                if !buf.is_finite() || buf < 0.0 {
                    return Err(ConfigError::BadOverride(format!(
                        "{}-{}: buffer must be finite and non-negative, got {buf}",
                        ov.letter, ov.site
                    )));
                }
            }
        }
        for spec in &self.faults.faults {
            if spec.duration.is_zero() {
                return Err(ConfigError::BadFault(format!(
                    "{} has zero duration",
                    spec.kind
                )));
            }
            match &spec.kind {
                FaultKind::SiteCrash { site, .. } if site.is_empty() => {
                    return Err(ConfigError::BadFault("site code is empty".into()));
                }
                FaultKind::RssacCorrupt { factor, .. }
                    if !factor.is_finite() || !(0.0..=1.0).contains(factor) =>
                {
                    return Err(ConfigError::BadFault(format!(
                        "corrupt factor must be in [0, 1], got {factor}"
                    )));
                }
                FaultKind::ProbeDropout { fraction, .. }
                | FaultKind::FirmwareDowngrade { fraction }
                    if !fraction.is_finite() || !(0.0..=1.0).contains(fraction) =>
                {
                    return Err(ConfigError::BadFault(format!(
                        "fault fraction must be in [0, 1], got {fraction}"
                    )));
                }
                _ => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_configs_validate() {
        assert_eq!(ScenarioConfig::nov2015().validate(), Ok(()));
        assert_eq!(ScenarioConfig::small().validate(), Ok(()));
    }

    #[test]
    fn broken_knobs_are_rejected_with_typed_errors() {
        let mut cfg = ScenarioConfig::small();
        cfg.horizon = SimTime::ZERO;
        assert!(matches!(cfg.validate(), Err(ConfigError::BadTiming(_))));

        let mut cfg = ScenarioConfig::small();
        cfg.probe_interval = SimDuration::from_secs(90);
        assert!(matches!(cfg.validate(), Err(ConfigError::BadTiming(_))));

        // The pipeline's copies of the horizon and the probe interval
        // must match the scenario's.
        let mut cfg = ScenarioConfig::small();
        cfg.horizon = SimTime::from_hours(6);
        assert!(matches!(cfg.validate(), Err(ConfigError::BadTiming(_))));

        let mut cfg = ScenarioConfig::small();
        cfg.probe_interval = SimDuration::from_mins(8);
        assert!(matches!(cfg.validate(), Err(ConfigError::BadTiming(_))));

        // A zero churn mean would reschedule maintenance at the same
        // instant forever.
        let mut cfg = ScenarioConfig::small();
        cfg.maintenance_mean = Some(SimDuration::ZERO);
        assert!(matches!(cfg.validate(), Err(ConfigError::BadTiming(_))));

        let mut cfg = ScenarioConfig::small();
        cfg.legit_total_qps = f64::NAN;
        assert!(matches!(cfg.validate(), Err(ConfigError::BadRate(_))));

        let mut cfg = ScenarioConfig::small();
        cfg.facility_capacities.push((facilities::FRA_SHARED, 1.0));
        assert!(matches!(cfg.validate(), Err(ConfigError::BadRate(_))));

        let mut cfg = ScenarioConfig::small();
        cfg.fleet.hijacked_fraction = 1.5;
        assert!(matches!(cfg.validate(), Err(ConfigError::BadFleet(_))));

        // Botnet knobs `Botnet::generate` would otherwise assert on.
        let mut cfg = ScenarioConfig::small();
        cfg.botnet.n_members = 0;
        assert!(matches!(cfg.validate(), Err(ConfigError::BadBotnet(_))));
        for heavy in [f64::NAN, -0.1, 1.5] {
            let mut cfg = ScenarioConfig::small();
            cfg.botnet.heavy_share = heavy;
            assert!(matches!(cfg.validate(), Err(ConfigError::BadBotnet(_))));
        }

        let mut cfg = ScenarioConfig::small();
        cfg.attack = AttackSchedule::new(vec![rootcast_attack::AttackWindow {
            start: SimTime::from_mins(1),
            duration: SimDuration::from_mins(1),
            qname: "bad..name".into(),
            targets: AttackSchedule::nov2015_targets(),
            rate_qps: 1.0,
        }]);
        assert!(matches!(cfg.validate(), Err(ConfigError::BadAttack(_))));

        let mut cfg = ScenarioConfig::small();
        cfg.faults = FaultPlan::none().with(
            SimTime::from_mins(1),
            SimDuration::from_mins(5),
            FaultKind::ProbeDropout {
                fraction: f64::NAN,
                letters: vec![],
            },
        );
        assert!(matches!(cfg.validate(), Err(ConfigError::BadFault(_))));

        let mut cfg = ScenarioConfig::small();
        cfg.faults = FaultPlan::none().with(
            SimTime::from_mins(1),
            SimDuration::ZERO,
            FaultKind::RssacGap {
                letter: rootcast_dns::Letter::H,
            },
        );
        assert!(matches!(cfg.validate(), Err(ConfigError::BadFault(_))));

        // Topology invariants surface as typed errors before any state
        // is built, instead of the old mid-generation panic.
        let mut cfg = ScenarioConfig::small();
        cfg.topology.stub_multihome_prob = f64::NAN;
        assert!(matches!(cfg.validate(), Err(ConfigError::BadTopology(_))));
        let mut cfg = ScenarioConfig::small();
        cfg.topology.n_tier1 = 0;
        assert!(matches!(cfg.validate(), Err(ConfigError::BadTopology(_))));

        let mut cfg = ScenarioConfig::small();
        cfg.trace.enabled = true;
        cfg.trace.capacity = 0;
        assert!(matches!(cfg.validate(), Err(ConfigError::BadTrace(_))));

        // Figure 4 would keep VP 0's RTTs alone.
        let mut cfg = ScenarioConfig::small();
        cfg.pipeline.rtt_subsample = 0;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::BadPipeline(PipelineError::ZeroRttSubsample))
        );
    }
}
