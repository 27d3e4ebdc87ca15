//! The three workloads, built only from the public configuration API.
//! The workload seed is the scenario seed; README.md says why each
//! workload exists and which layers it loads.

use rootcast::{
    run_sweep, AttackSchedule, AttackWindow, ConfigPatch, FaultKind, FaultPlan, Letter,
    RootcastError, ScenarioConfig, SimDuration, SimTime, SiteOverride, SiteTuning, StressPolicy,
    SweepAxis, SweepPlan, SweepReport,
};
use rootcast_atlas::FleetParams;
use rootcast_topology::TopologyParams;

/// `ScenarioConfig::nov2015()`'s seed: the run EXPERIMENTS.md measures
/// its shape criteria on, and the deployment's facility capacities
/// were tuned against. Other seeds keep the workload's cost but not
/// those shapes, so the shape checks apply at this seed only.
pub const PAPER_SEED: u64 = 20151130;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `ScenarioConfig::nov2015()`: the paper's run, then every builder.
    PaperCanonical,
    /// A 12-run pulse-wave grid through `run_sweep`.
    PulseSweep,
    /// 12,416 ASes and 1,000 VPs over event 1, then every builder.
    WideTopology,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "paper_canonical" => Some(Workload::PaperCanonical),
            "pulse_sweep" => Some(Workload::PulseSweep),
            "wide_topology" => Some(Workload::WideTopology),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperCanonical => "paper_canonical",
            Workload::PulseSweep => "pulse_sweep",
            Workload::WideTopology => "wide_topology",
        }
    }

    /// The config whose substrate the workload builds: the single run,
    /// or the base of the sweep plan, which all its runs share.
    pub fn base_config(self, seed: u64) -> ScenarioConfig {
        match self {
            Workload::PaperCanonical => {
                let mut cfg = ScenarioConfig::nov2015();
                cfg.seed = seed;
                cfg
            }
            Workload::PulseSweep => {
                let mut cfg = ScenarioConfig::nov2015();
                cfg.seed = seed;
                cfg.fleet = FleetParams::tiny(200);
                twelve_hours(&mut cfg);
                cfg.attack = pulse_wave(3_500_000.0);
                cfg
            }
            Workload::WideTopology => {
                let mut cfg = ScenarioConfig::nov2015();
                cfg.seed = seed;
                cfg.topology = TopologyParams {
                    n_tier1: 16,
                    n_tier2: 400,
                    n_stub: 12_000,
                    ..TopologyParams::default()
                };
                cfg.fleet = FleetParams::tiny(1000);
                twelve_hours(&mut cfg);
                cfg
            }
        }
    }

    /// The sweep plan (only `PulseSweep` has one).
    pub fn sweep_plan(self, seed: u64) -> Option<SweepPlan> {
        (self == Workload::PulseSweep).then(|| pulse_plan(self.base_config(seed)))
    }
}

/// Threads `run_sweep` may use. With nproc top-level threads the
/// vendored rayon runs nproc² (each run's per-letter fan-out spawns
/// again, and the pinned count does not reach those workers). With one,
/// the runs execute inline on the calling thread, which keeps the pin,
/// so the whole sweep runs serially. Measured on a 2-core VM
/// (`pulse_sweep`, seed 21): serially the sweep takes 4.40 s quiet and
/// 4.74 s next to a busy core; at nproc² it takes 4.50 s and 7.98 s, and
/// over ten seeds its run time spread by up to 54% of the median. Only
/// the serial form is steady enough to bound.
pub const SWEEP_THREADS: usize = 1;

/// `run_sweep` with its top-level fan-out pinned to [`SWEEP_THREADS`].
pub fn run_pinned_sweep(plan: &SweepPlan) -> Result<SweepReport, RootcastError> {
    rayon::ThreadPoolBuilder::new()
        .num_threads(SWEEP_THREADS)
        .build()
        .expect("thread pool")
        .install(|| run_sweep(plan))
}

/// A 12 h horizon covers event 1 (Nov 30, 06:50–09:30).
fn twelve_hours(cfg: &mut ScenarioConfig) {
    cfg.horizon = SimTime::from_hours(12);
    cfg.pipeline.horizon = cfg.horizon;
}

/// 30 bursts of 8 minutes every 20 minutes from the first hour on, at
/// `rate_qps` per nov2015 target letter.
fn pulse_wave(rate_qps: f64) -> AttackSchedule {
    AttackSchedule::new(
        (0..30u64)
            .map(|i| AttackWindow {
                start: SimTime::from_mins(60 + 20 * i),
                duration: SimDuration::from_mins(8),
                qname: "www.336901.com".into(),
                targets: AttackSchedule::nov2015_targets(),
                rate_qps,
            })
            .collect(),
    )
}

/// Rate × policy × faults: 3 × 2 × 2 = 12 runs over one substrate.
fn pulse_plan(base: ScenarioConfig) -> SweepPlan {
    let rate =
        |label: &'static str, qps: f64| (label, ConfigPatch::none().with_attack(pulse_wave(qps)));
    // Withdraw at 2x capacity held for 2 minutes, re-announce after 6:
    // shorter than the 12-minute gap between bursts, so every burst
    // can trip a fresh withdrawal and the routes flap all run long.
    let flap = StressPolicy::Withdraw {
        overload_ratio: 2.0,
        sustain: SimDuration::from_mins(2),
        retry_after: Some(SimDuration::from_mins(6)),
        after_episodes: 1,
    };
    let mut withdraw = ConfigPatch::none();
    for (letter, site) in [
        (Letter::K, "LHR"),
        (Letter::K, "FRA"),
        (Letter::K, "AMS"),
        (Letter::C, "FRA"),
        (Letter::E, "AMS"),
        (Letter::H, "SAN"),
    ] {
        withdraw = withdraw.with_site_override(SiteOverride::new(
            letter,
            site,
            SiteTuning::none().with_policy(flap),
        ));
    }
    let storm = FaultPlan::none()
        .with(
            SimTime::from_hours(3),
            SimDuration::from_mins(90),
            FaultKind::SiteCrash {
                letter: Letter::K,
                site: "LHR".into(),
            },
        )
        .with(
            SimTime::from_hours(5),
            SimDuration::from_hours(2),
            FaultKind::ProbeDropout {
                fraction: 0.3,
                letters: Vec::new(),
            },
        )
        .with(
            SimTime::from_hours(8),
            SimDuration::from_hours(1),
            FaultKind::CollectorBlackout { letter: Letter::K },
        );
    SweepPlan::grid(
        "pulse_sweep",
        base,
        &[
            SweepAxis::new(
                "rate",
                vec![
                    rate("2M", 2_000_000.0),
                    rate("3.5M", 3_500_000.0),
                    rate("5M", 5_000_000.0),
                ],
            ),
            SweepAxis::new(
                "policy",
                vec![("default", ConfigPatch::none()), ("withdraw6m", withdraw)],
            ),
            SweepAxis::new(
                "faults",
                vec![
                    ("none", ConfigPatch::none()),
                    ("storm", ConfigPatch::none().with_faults(storm)),
                ],
            ),
        ],
    )
}

/// `rootcast::output_digest` values recorded at this benchmark's
/// commit, one line per run: `workload seed label digest` (label `-`
/// for single-run workloads); `#` starts a comment line. A later
/// change that alters outputs on purpose re-records them (see
/// README.md).
const RECORDED: &str = include_str!("../digests.txt");

/// The recorded digest of run `label` of `workload` at `seed`, if any.
pub fn recorded_digest(workload: Workload, seed: u64, label: &str) -> Option<u64> {
    RECORDED
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            match f.as_slice() {
                [w, s, l, d] if *w == workload.name() && s.parse() == Ok(seed) && *l == label => {
                    u64::from_str_radix(d, 16).ok()
                }
                _ => None,
            }
        })
}
