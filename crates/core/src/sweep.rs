//! Multi-scenario sweep engine: run a *playbook* of scenario variants
//! (policies, site capacities, attack schedules, fault plans) over one
//! shared substrate, and compare the outcomes.
//!
//! The paper's core method is exactly this — contrasting how different
//! anycast configurations weather the same stress (Table 2,
//! Figures 3–14) — and "Anycast Agility" generalizes it to a grid of
//! routing/policy responses. The engine pieces:
//!
//! * [`SweepPlan`]: a base [`ScenarioConfig`] plus a list of labelled
//!   [`ConfigPatch`] deltas — written explicitly or generated as the
//!   cartesian product of [`SweepAxis`] values ([`SweepPlan::grid`]).
//! * A sharded runner ([`run_sweep`] / [`run_sweep_with`]): runs are
//!   grouped by [`ScenarioConfig::substrate_key`]; each shard builds
//!   its expensive immutable [`Substrate`] (topology + baseline RIBs +
//!   calibrated fleet) once and `Arc`-shares it across the shard's
//!   runs, which execute in a deterministic rayon fan-out.
//! * Checkpoint/resume: with [`SweepOptions::checkpoint`] set, every
//!   completed run appends its [`SweepRecord`] to a JSONL manifest
//!   keyed by the resolved config's hash; a restarted sweep reloads
//!   the manifest and re-runs only what's missing.
//! * [`SweepReport`]: per-scenario headline metrics, a cross-scenario
//!   comparison table, best→worst ranking, CSV/JSONL export, and
//!   sweep-level metric rollups summed from each run's
//!   `MetricsRegistry` snapshot.
//!
//! ## Determinism contract
//!
//! `SimWorld::build` is literally `Substrate::build` followed by
//! `SimWorld::from_substrate`, so a shared-substrate run cannot differ
//! from a standalone [`run`](crate::sim::run): there is one build
//! path. Per-run seeds are derived as FNV-1a(base seed, run label)
//! under [`SeedMode::PerRun`] (or inherited under the default
//! [`SeedMode::Shared`]), runs are mutually independent, and results
//! are collected in plan order — so a sweep is bit-identical to N
//! independent `run` calls at any thread count, resumed or not. The
//! pin lives in `tests/determinism.rs`, wired to [`output_digest`].

use crate::analysis;
use crate::config::{ScenarioConfig, SiteOverride};
use crate::engine::{FaultPlan, Substrate};
use crate::error::{RootcastError, SweepError};
use crate::render::{num, TextTable};
use crate::sim::{run_with_substrate, SimOutput};
use rayon::prelude::*;
use rootcast_anycast::FacilityId;
use rootcast_attack::AttackSchedule;
use rootcast_netsim::{fnv1a, Fnv1a};
use serde_json::Value;
use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

/// A delta over a base [`ScenarioConfig`]: only per-run knobs, so the
/// knobs a patch *cannot* express (topology, fleet, botnet sizing,
/// `.nl` inclusion) are exactly the ones that would force a new
/// substrate — except `seed`, which re-derives everything and lands
/// the run in its own shard.
#[derive(Debug, Clone, Default)]
pub struct ConfigPatch {
    /// Replace the master seed (puts the run in a different shard).
    pub seed: Option<u64>,
    /// Replace the attack schedule.
    pub attack: Option<AttackSchedule>,
    /// Replace the fault plan.
    pub faults: Option<FaultPlan>,
    /// Replace the shared-facility capacities.
    pub facility_capacities: Option<Vec<(FacilityId, f64)>>,
    /// Replace the total legitimate query load, q/s.
    pub legit_total_qps: Option<f64>,
    /// Site overrides appended after the base config's own (later
    /// entries win per field, letting grid axes compose).
    pub site_overrides: Vec<SiteOverride>,
}

impl ConfigPatch {
    /// The empty patch: the run is the base config verbatim.
    pub fn none() -> ConfigPatch {
        ConfigPatch::default()
    }

    pub fn with_seed(mut self, seed: u64) -> ConfigPatch {
        self.seed = Some(seed);
        self
    }

    pub fn with_attack(mut self, attack: AttackSchedule) -> ConfigPatch {
        self.attack = Some(attack);
        self
    }

    pub fn with_faults(mut self, faults: FaultPlan) -> ConfigPatch {
        self.faults = Some(faults);
        self
    }

    pub fn with_facility_capacities(mut self, caps: Vec<(FacilityId, f64)>) -> ConfigPatch {
        self.facility_capacities = Some(caps);
        self
    }

    pub fn with_legit_total_qps(mut self, qps: f64) -> ConfigPatch {
        self.legit_total_qps = Some(qps);
        self
    }

    pub fn with_site_override(mut self, ov: SiteOverride) -> ConfigPatch {
        self.site_overrides.push(ov);
        self
    }

    /// Compose two patches; `later`'s fields win, site overrides
    /// concatenate (grid axes merge left to right).
    pub fn merged(&self, later: &ConfigPatch) -> ConfigPatch {
        let mut out = self.clone();
        if later.seed.is_some() {
            out.seed = later.seed;
        }
        if later.attack.is_some() {
            out.attack = later.attack.clone();
        }
        if later.faults.is_some() {
            out.faults = later.faults.clone();
        }
        if later.facility_capacities.is_some() {
            out.facility_capacities = later.facility_capacities.clone();
        }
        if later.legit_total_qps.is_some() {
            out.legit_total_qps = later.legit_total_qps;
        }
        out.site_overrides
            .extend(later.site_overrides.iter().cloned());
        out
    }

    /// Materialize the patched config.
    pub fn apply(&self, base: &ScenarioConfig) -> ScenarioConfig {
        let mut cfg = base.clone();
        if let Some(seed) = self.seed {
            cfg.seed = seed;
        }
        if let Some(attack) = &self.attack {
            cfg.attack = attack.clone();
        }
        if let Some(faults) = &self.faults {
            cfg.faults = faults.clone();
        }
        if let Some(caps) = &self.facility_capacities {
            cfg.facility_capacities = caps.clone();
        }
        if let Some(qps) = self.legit_total_qps {
            cfg.legit_total_qps = qps;
        }
        cfg.site_overrides
            .extend(self.site_overrides.iter().cloned());
        cfg
    }
}

/// One labelled scenario variant in a plan.
#[derive(Debug, Clone)]
pub struct SweepRun {
    /// Unique human-readable label (`"policy=withdraw,rate=5M"`).
    pub label: String,
    pub patch: ConfigPatch,
}

impl SweepRun {
    pub fn new(label: &str, patch: ConfigPatch) -> SweepRun {
        SweepRun {
            label: label.to_string(),
            patch,
        }
    }
}

/// One axis of a cartesian grid: a named knob and its labelled values.
#[derive(Debug, Clone)]
pub struct SweepAxis {
    pub name: String,
    pub points: Vec<(String, ConfigPatch)>,
}

impl SweepAxis {
    pub fn new(name: &str, points: Vec<(&str, ConfigPatch)>) -> SweepAxis {
        SweepAxis {
            name: name.to_string(),
            points: points
                .into_iter()
                .map(|(l, p)| (l.to_string(), p))
                .collect(),
        }
    }
}

/// How each run's master seed is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SeedMode {
    /// Every run inherits the base seed (unless its patch sets one):
    /// one substrate serves the whole sweep. The default, and what a
    /// policy comparison wants — same world, different responses.
    #[default]
    Shared,
    /// Each run derives its own seed as FNV-1a(base seed ⊕ label):
    /// a replication study. Every distinct seed is its own shard.
    PerRun,
}

/// A sweep: base config, seed mode, and the labelled variants.
#[derive(Debug, Clone)]
pub struct SweepPlan {
    pub name: String,
    pub base: ScenarioConfig,
    pub seed_mode: SeedMode,
    pub runs: Vec<SweepRun>,
}

impl SweepPlan {
    /// A plan from an explicit run list.
    pub fn explicit(name: &str, base: ScenarioConfig, runs: Vec<SweepRun>) -> SweepPlan {
        SweepPlan {
            name: name.to_string(),
            base,
            seed_mode: SeedMode::default(),
            runs,
        }
    }

    /// The cartesian product of the axes, labels joined as
    /// `"axis=value,axis=value"`, patches merged left to right.
    pub fn grid(name: &str, base: ScenarioConfig, axes: &[SweepAxis]) -> SweepPlan {
        let mut runs = vec![SweepRun::new("", ConfigPatch::none())];
        for axis in axes {
            let mut next = Vec::with_capacity(runs.len() * axis.points.len());
            for run in &runs {
                for (value, patch) in &axis.points {
                    let label = if run.label.is_empty() {
                        format!("{}={}", axis.name, value)
                    } else {
                        format!("{},{}={}", run.label, axis.name, value)
                    };
                    next.push(SweepRun {
                        label,
                        patch: run.patch.merged(patch),
                    });
                }
            }
            runs = next;
        }
        SweepPlan {
            name: name.to_string(),
            base,
            seed_mode: SeedMode::default(),
            runs,
        }
    }

    pub fn with_seed_mode(mut self, mode: SeedMode) -> SweepPlan {
        self.seed_mode = mode;
        self
    }

    /// The seed a [`SeedMode::PerRun`] sweep derives for `label`.
    pub fn derived_seed(&self, label: &str) -> u64 {
        fnv1a(format!("{}#{}", self.base.seed, label).as_bytes())
    }

    /// Materialize run `i`'s full config: patch applied, seed resolved.
    /// This is the exact config a standalone [`run`](crate::sim::run)
    /// must be handed to reproduce the sweep's record bit for bit.
    pub fn resolve(&self, i: usize) -> ScenarioConfig {
        let run = &self.runs[i];
        let mut cfg = run.patch.apply(&self.base);
        if self.seed_mode == SeedMode::PerRun && run.patch.seed.is_none() {
            cfg.seed = self.derived_seed(&run.label);
        }
        cfg
    }
}

/// Hash identifying a resolved (label, config) pair — the checkpoint
/// manifest key. Uses the config's `Debug` rendering: every knob
/// (including attack windows, fault plans, and site overrides) feeds
/// the digest, and f64 `Debug` is shortest-roundtrip so distinct
/// values cannot collide through formatting.
pub fn config_hash(label: &str, cfg: &ScenarioConfig) -> u64 {
    fnv1a(format!("{label}\u{1f}{cfg:?}").as_bytes())
}

/// A bit-exact digest of everything the analysis layer consumes from a
/// [`SimOutput`] — per-letter success series, every RSSAC day report,
/// `.nl` series, collector log lengths — with floats folded in via
/// `to_bits`, so "close" is not equal. The determinism suite compares
/// runs through it, and sweep records and the benchmark pin it.
pub fn output_digest(out: &SimOutput) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(out.n_ases as u64);
    h.write_u64(out.n_vps_kept as u64);
    for &l in &out.letters {
        for &v in out.pipeline.letter(l).success.values() {
            h.write_u64(v.to_bits());
        }
    }
    for (l, c) in &out.rssac {
        h.write_u64(*l as u64);
        for day in 0..c.n_days() {
            let r = c.report(day);
            h.write_u64(r.queries.to_bits());
            h.write_u64(r.responses.to_bits());
            h.write_u64(r.unique_sources.to_bits());
        }
    }
    for (code, series) in &out.nl_sites {
        h.write_u64(fnv1a(code.as_bytes()));
        for &v in series.values() {
            h.write_u64(v.to_bits());
        }
    }
    for (l, c) in &out.collectors {
        h.write_u64(*l as u64);
        h.write_u64(c.log().len() as u64);
    }
    h.finish()
}

/// Per-run headline metrics: what the comparison table and the ranking
/// read. Every field is finite by construction, even on maximally
/// degraded runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Headline {
    pub n_ases: usize,
    pub n_vps_kept: usize,
    /// Worst per-letter availability through the attack windows:
    /// min(during-event VP success) / pre-event baseline, over all
    /// letters. 1.0 = no visible dip; 0.0 = a letter went dark (or the
    /// run had no usable baseline at all).
    pub worst_letter_availability: f64,
    /// Same ratio averaged over all letters.
    pub mean_letter_availability: f64,
    /// Peak offered load on any single letter, q/s.
    pub peak_offered_qps: f64,
    /// Lowest served/offered ratio any letter hit.
    pub worst_served_ratio: f64,
    /// Stress-policy routing transitions over the run.
    pub policy_transitions: u64,
    /// BGP collector route-change events, all letters.
    pub route_events: u64,
    /// Fault transitions the injector applied.
    pub faults_injected: u64,
}

/// Per-letter availability: the during-event floor of the VP success
/// series relative to its pre-event baseline, clamped to `[0, 1]` and
/// never non-finite. Degraded inputs degrade the *value*, not the type:
/// no events → 1.0 (nothing to dip through); a dead baseline → 0.0.
fn letter_availability(out: &SimOutput, series: &rootcast_netsim::BinnedSeries) -> f64 {
    let baseline = analysis::pre_event_baseline(out, series);
    if analysis::event_windows(out).is_empty() {
        return 1.0;
    }
    if !baseline.is_finite() || baseline <= 0.0 {
        return 0.0;
    }
    let floor = analysis::min_during_events(out, series);
    if !floor.is_finite() {
        // Events exist but no bin intersects them (fault-gapped
        // coverage): report no dip rather than poisoning the ranking.
        return 1.0;
    }
    (floor / baseline).clamp(0.0, 1.0)
}

fn headline(out: &SimOutput) -> Headline {
    let avail: Vec<f64> = out
        .letters
        .iter()
        .map(|&l| letter_availability(out, &out.pipeline.letter(l).success))
        .collect();
    let worst = avail.iter().copied().fold(1.0_f64, f64::min);
    let mean = if avail.is_empty() {
        1.0
    } else {
        avail.iter().sum::<f64>() / avail.len() as f64
    };
    // Gauges a run never set read as their neutral value: no load seen,
    // nothing lost.
    let gauge = |name: &str, unset: f64| match out.metrics.gauge(name) {
        Some(v) if v.is_finite() => v,
        _ => unset,
    };
    Headline {
        n_ases: out.n_ases,
        n_vps_kept: out.n_vps_kept,
        worst_letter_availability: worst,
        mean_letter_availability: mean,
        peak_offered_qps: gauge("fluid.peak_offered_qps", 0.0),
        worst_served_ratio: gauge("fluid.worst_served_ratio", 1.0).min(1.0),
        policy_transitions: out.metrics.counter("fluid.policy_transitions").unwrap_or(0),
        route_events: out.collectors.values().map(|c| c.log().len() as u64).sum(),
        faults_injected: out.faults.len() as u64,
    }
}

/// Everything a finished (or resumed) run contributes to the report —
/// and exactly what one checkpoint-manifest line holds.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRecord {
    pub label: String,
    /// The resolved master seed this run used.
    pub seed: u64,
    /// [`ScenarioConfig::substrate_key`] — which shard served the run.
    pub substrate_key: u64,
    /// [`config_hash`] of (label, resolved config): the manifest key.
    pub config_hash: u64,
    /// [`output_digest`] — the bit-exact identity of the run's output.
    pub output_digest: u64,
    /// Host wall time of the run, milliseconds.
    pub wall_ms: f64,
    pub headline: Headline,
    /// The run's engine counters (for sweep-level rollups; stable
    /// across resume because they ride in the manifest).
    pub counters: Vec<(String, u64)>,
    /// True when this record was loaded from a checkpoint manifest
    /// instead of executed in this sweep.
    pub resumed: bool,
}

impl SweepRecord {
    /// One compact JSON object — the checkpoint-manifest line format.
    /// The 64-bit identities (seed, keys, digests) are encoded as
    /// decimal strings: the JSON value tree stores numbers as `f64`,
    /// which cannot hold a full hash. `resumed` is deliberately not
    /// written — it describes the *reading* sweep, not the run.
    pub fn to_json(&self) -> String {
        let u = |v: u64| Value::String(v.to_string());
        let n = |v: f64| Value::Number(v);
        let h = &self.headline;
        let headline = Value::Object(BTreeMap::from([
            ("n_ases".into(), n(h.n_ases as f64)),
            ("n_vps_kept".into(), n(h.n_vps_kept as f64)),
            (
                "worst_letter_availability".into(),
                n(h.worst_letter_availability),
            ),
            (
                "mean_letter_availability".into(),
                n(h.mean_letter_availability),
            ),
            ("peak_offered_qps".into(), n(h.peak_offered_qps)),
            ("worst_served_ratio".into(), n(h.worst_served_ratio)),
            ("policy_transitions".into(), n(h.policy_transitions as f64)),
            ("route_events".into(), n(h.route_events as f64)),
            ("faults_injected".into(), n(h.faults_injected as f64)),
        ]));
        let counters = Value::Array(
            self.counters
                .iter()
                .map(|(name, v)| Value::Array(vec![Value::String(name.clone()), n(*v as f64)]))
                .collect(),
        );
        Value::Object(BTreeMap::from([
            ("label".into(), Value::String(self.label.clone())),
            ("seed".into(), u(self.seed)),
            ("substrate_key".into(), u(self.substrate_key)),
            ("config_hash".into(), u(self.config_hash)),
            ("output_digest".into(), u(self.output_digest)),
            ("wall_ms".into(), n(self.wall_ms)),
            ("headline".into(), headline),
            ("counters".into(), counters),
        ]))
        .to_string()
    }

    /// Parse a manifest line. `None` on any malformed or incomplete
    /// document — a record cut short by a kill is skipped, not fatal.
    /// The parsed record is marked `resumed`.
    pub fn from_json(s: &str) -> Option<SweepRecord> {
        let v = Value::parse(s)?;
        let u = |key: &str| v.get(key)?.as_str()?.parse::<u64>().ok();
        let h = v.get("headline")?;
        let hf = |key: &str| h.get(key)?.as_f64();
        let hu = |key: &str| h.get(key)?.as_u64();
        let headline = Headline {
            n_ases: hu("n_ases")? as usize,
            n_vps_kept: hu("n_vps_kept")? as usize,
            worst_letter_availability: hf("worst_letter_availability")?,
            mean_letter_availability: hf("mean_letter_availability")?,
            peak_offered_qps: hf("peak_offered_qps")?,
            worst_served_ratio: hf("worst_served_ratio")?,
            policy_transitions: hu("policy_transitions")?,
            route_events: hu("route_events")?,
            faults_injected: hu("faults_injected")?,
        };
        let mut counters = Vec::new();
        for item in v.get("counters")?.as_array()? {
            let pair = item.as_array()?;
            match pair {
                [name, count] => counters.push((name.as_str()?.to_string(), count.as_u64()?)),
                _ => return None,
            }
        }
        Some(SweepRecord {
            label: v.get("label")?.as_str()?.to_string(),
            seed: u("seed")?,
            substrate_key: u("substrate_key")?,
            config_hash: u("config_hash")?,
            output_digest: u("output_digest")?,
            wall_ms: v.get("wall_ms")?.as_f64()?,
            headline,
            counters,
            resumed: true,
        })
    }
}

/// Runner knobs.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// JSONL manifest of completed runs. When the file exists, records
    /// whose [`config_hash`] matches a pending run are reused instead
    /// of re-executed; every newly completed run is appended. Unparsable
    /// lines (a write cut short by a kill) are skipped, not fatal.
    pub checkpoint: Option<PathBuf>,
    /// Execute at most this many pending runs, in deterministic plan
    /// order, and leave the rest pending — the cooperative "kill" the
    /// resume tests and the CI smoke job use. `None` = run everything.
    pub stop_after: Option<usize>,
}

/// Sweep-level rollup: the engine counters summed over every record
/// (executed or resumed) in the report.
#[derive(Debug, Clone, Default)]
pub struct MetricsRollup {
    pub counters: Vec<(String, u64)>,
}

impl MetricsRollup {
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    fn absorb(&mut self, counters: &[(String, u64)]) {
        for (name, v) in counters {
            match self.counters.iter_mut().find(|(n, _)| n == name) {
                Some((_, acc)) => *acc += v,
                None => self.counters.push((name.clone(), *v)),
            }
        }
    }
}

/// What a sweep hands back: one record per completed run (plan order),
/// the labels still pending (only under [`SweepOptions::stop_after`]),
/// and the cross-run aggregates.
#[derive(Debug, Clone)]
pub struct SweepReport {
    pub name: String,
    pub records: Vec<SweepRecord>,
    /// Labels whose runs were not executed (cooperative stop).
    pub pending: Vec<String>,
    /// Distinct substrates the runs sharded into.
    pub n_substrates: usize,
    /// How many records were reused from the checkpoint manifest.
    pub n_resumed: usize,
    pub rollup: MetricsRollup,
}

impl SweepReport {
    /// True when a cooperative stop left runs pending.
    pub fn is_partial(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Records sorted best → worst: primary key worst-letter
    /// availability (higher is better), then mean availability, then
    /// fewer policy transitions (less routing churn wins ties), then
    /// label for total determinism.
    pub fn ranking(&self) -> Vec<&SweepRecord> {
        let mut v: Vec<&SweepRecord> = self.records.iter().collect();
        v.sort_by(|a, b| {
            b.headline
                .worst_letter_availability
                .total_cmp(&a.headline.worst_letter_availability)
                .then_with(|| {
                    b.headline
                        .mean_letter_availability
                        .total_cmp(&a.headline.mean_letter_availability)
                })
                .then_with(|| {
                    a.headline
                        .policy_transitions
                        .cmp(&b.headline.policy_transitions)
                })
                .then_with(|| a.label.cmp(&b.label))
        });
        v
    }

    /// The cross-scenario comparison table, one row per record in plan
    /// order.
    pub fn comparison(&self) -> TextTable {
        let mut t = TextTable::new(
            &format!("Sweep {:?}: {} scenarios", self.name, self.records.len()),
            &[
                "scenario",
                "worst avail",
                "mean avail",
                "worst served",
                "peak Mq/s",
                "transitions",
                "route events",
                "faults",
                "wall ms",
            ],
        );
        for r in &self.records {
            t.row(vec![
                r.label.clone(),
                num(r.headline.worst_letter_availability, 3),
                num(r.headline.mean_letter_availability, 3),
                num(r.headline.worst_served_ratio, 3),
                num(r.headline.peak_offered_qps / 1e6, 2),
                r.headline.policy_transitions.to_string(),
                r.headline.route_events.to_string(),
                r.headline.faults_injected.to_string(),
                num(r.wall_ms, 0),
            ]);
        }
        t
    }

    /// Comparison table plus the best→worst ranking, as display text.
    pub fn render(&self) -> String {
        let mut s = self.comparison().to_string();
        s.push_str("\nranking (best → worst):\n");
        for (i, r) in self.ranking().iter().enumerate() {
            s.push_str(&format!(
                "  {:>2}. {}  (worst avail {})\n",
                i + 1,
                r.label,
                num(r.headline.worst_letter_availability, 3)
            ));
        }
        if self.is_partial() {
            s.push_str(&format!("pending: {}\n", self.pending.join(", ")));
        }
        s
    }

    /// The comparison table as CSV.
    pub fn to_csv(&self) -> String {
        self.comparison().to_csv()
    }

    /// One JSON object per record (the checkpoint manifest format).
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        for r in &self.records {
            s.push_str(&r.to_json());
            s.push('\n');
        }
        s
    }
}

/// Load the checkpoint manifest: `config_hash` → record. Missing file
/// is an empty manifest; unparsable lines (interrupted writes) are
/// skipped.
fn load_manifest(path: &Path) -> Result<BTreeMap<u64, SweepRecord>, SweepError> {
    let mut manifest = BTreeMap::new();
    let file = match std::fs::File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(manifest),
        Err(e) => return Err(SweepError::Checkpoint(format!("{}: {e}", path.display()))),
    };
    for line in std::io::BufReader::new(file).lines() {
        let line = line.map_err(|e| SweepError::Checkpoint(format!("{}: {e}", path.display())))?;
        if line.trim().is_empty() {
            continue;
        }
        if let Some(rec) = SweepRecord::from_json(&line) {
            manifest.insert(rec.config_hash, rec);
        }
    }
    Ok(manifest)
}

/// Run a sweep with default options (share substrates, no checkpoint).
pub fn run_sweep(plan: &SweepPlan) -> Result<SweepReport, RootcastError> {
    run_sweep_with(plan, &SweepOptions::default())
}

/// Run a sweep. Every run's config is resolved and validated up front
/// (one bad variant fails the sweep before any work), pending runs are
/// sharded by substrate key, and each shard executes as a deterministic
/// rayon fan-out over its `Arc`-shared [`Substrate`].
pub fn run_sweep_with(plan: &SweepPlan, opts: &SweepOptions) -> Result<SweepReport, RootcastError> {
    if plan.runs.is_empty() {
        return Err(SweepError::EmptyPlan.into());
    }
    let n = plan.runs.len();
    let resolved: Vec<ScenarioConfig> = (0..n).map(|i| plan.resolve(i)).collect();
    for cfg in &resolved {
        cfg.validate()?;
    }
    let hashes: Vec<u64> = resolved
        .iter()
        .enumerate()
        .map(|(i, cfg)| config_hash(&plan.runs[i].label, cfg))
        .collect();

    let manifest = match &opts.checkpoint {
        Some(path) => load_manifest(path)?,
        None => BTreeMap::new(),
    };
    let mut slots: Vec<Option<SweepRecord>> = hashes
        .iter()
        .map(|h| {
            manifest.get(h).cloned().map(|mut rec| {
                rec.resumed = true;
                rec
            })
        })
        .collect();
    let n_resumed = slots.iter().filter(|s| s.is_some()).count();

    // Shard the pending runs by substrate key, shards ordered by first
    // appearance in the plan, runs in plan order within a shard.
    let mut shards: Vec<(u64, Vec<usize>)> = Vec::new();
    for i in 0..n {
        if slots[i].is_some() {
            continue;
        }
        let key = resolved[i].substrate_key();
        match shards.iter_mut().find(|(k, _)| *k == key) {
            Some((_, idxs)) => idxs.push(i),
            None => shards.push((key, vec![i])),
        }
    }
    let n_substrates = shards.len();

    let ckpt: Option<Mutex<std::fs::File>> = match &opts.checkpoint {
        Some(path) => Some(Mutex::new(
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| SweepError::Checkpoint(format!("{}: {e}", path.display())))?,
        )),
        None => None,
    };

    // Cooperative stop: only the first `budget` pending runs (in shard
    // order = plan order per shard) execute. Deterministic regardless
    // of thread timing, unlike killing workers mid-flight.
    let mut budget = opts.stop_after.unwrap_or(usize::MAX);
    for (_, idxs) in &shards {
        if budget == 0 {
            break;
        }
        let batch: Vec<usize> = idxs.iter().copied().take(budget).collect();
        budget -= batch.len();
        let substrate = Substrate::build(&resolved[batch[0]]);
        let results: Vec<(usize, Result<SweepRecord, RootcastError>)> = batch
            .par_iter()
            .map(|&i| {
                let cfg = &resolved[i];
                let t0 = Instant::now();
                let rec = run_with_substrate(cfg, &substrate).map(|out| {
                    let rec = SweepRecord {
                        label: plan.runs[i].label.clone(),
                        seed: cfg.seed,
                        substrate_key: cfg.substrate_key(),
                        config_hash: hashes[i],
                        output_digest: output_digest(&out),
                        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
                        headline: headline(&out),
                        counters: out.metrics.counters.clone(),
                        resumed: false,
                    };
                    if let Some(f) = &ckpt {
                        // One line per record; failures surface on the
                        // next resume as a shorter manifest, never as a
                        // corrupted sweep.
                        let line = rec.to_json();
                        let mut f = f.lock().expect("checkpoint lock");
                        let _ = writeln!(f, "{line}");
                    }
                    rec
                });
                (i, rec)
            })
            .collect();
        for (i, rec) in results {
            slots[i] = Some(rec?);
        }
    }

    let mut records = Vec::with_capacity(n);
    let mut pending = Vec::new();
    let mut rollup = MetricsRollup::default();
    for (i, slot) in slots.into_iter().enumerate() {
        match slot {
            Some(rec) => {
                rollup.absorb(&rec.counters);
                records.push(rec);
            }
            None => pending.push(plan.runs[i].label.clone()),
        }
    }
    Ok(SweepReport {
        name: plan.name.clone(),
        records,
        pending,
        n_substrates,
        n_resumed,
        rollup,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rootcast_anycast::SiteTuning;
    use rootcast_dns::Letter;

    fn base() -> ScenarioConfig {
        // Deliberately tiny: the sweep tests exercise plumbing, not
        // simulation fidelity (determinism pins live in tests/).
        let mut cfg = ScenarioConfig::small();
        cfg.horizon = rootcast_netsim::SimTime::from_mins(20);
        cfg.pipeline.horizon = cfg.horizon;
        cfg.include_nl = false;
        cfg
    }

    #[test]
    fn config_debug_carries_no_process_dependent_addresses() {
        // `config_hash` and `substrate_key` hash the config's `Debug`
        // form, and the checkpoint manifest compares those hashes
        // *across processes*. A raw `fn`-pointer field debug-prints its
        // ASLR-randomized address ("0x5570..."), which silently
        // invalidated every manifest entry on resume — bias functions
        // are `NamedFn`s now, and nothing else may regress.
        let repr = format!("{:?}", ScenarioConfig::nov2015());
        assert!(
            !repr.contains("0x"),
            "ScenarioConfig Debug output contains a pointer address; \
             config hashes will not survive a process restart: {repr}"
        );
    }

    #[test]
    fn grid_is_the_cartesian_product_with_merged_patches() {
        let axes = [
            SweepAxis::new(
                "policy",
                vec![
                    ("absorb", ConfigPatch::none()),
                    (
                        "thin",
                        ConfigPatch::none().with_site_override(SiteOverride::new(
                            Letter::K,
                            "LHR",
                            SiteTuning::none().with_capacity(10_000.0),
                        )),
                    ),
                ],
            ),
            SweepAxis::new(
                "legit",
                vec![
                    ("low", ConfigPatch::none().with_legit_total_qps(100_000.0)),
                    ("high", ConfigPatch::none().with_legit_total_qps(900_000.0)),
                    ("base", ConfigPatch::none()),
                ],
            ),
        ];
        let plan = SweepPlan::grid("grid", base(), &axes);
        assert_eq!(plan.runs.len(), 6);
        assert_eq!(plan.runs[0].label, "policy=absorb,legit=low");
        assert_eq!(plan.runs[5].label, "policy=thin,legit=base");
        // The merged patch keeps both axes' deltas.
        let cfg = plan.resolve(4); // policy=thin,legit=high
        assert_eq!(cfg.legit_total_qps, 900_000.0);
        assert_eq!(cfg.site_overrides.len(), 1);
        assert_eq!(cfg.site_overrides[0].letter, Letter::K);
        // Shared seed mode: every run keeps the base seed and shares a
        // substrate key.
        assert!((0..6).all(|i| plan.resolve(i).seed == plan.base.seed));
        let k0 = plan.resolve(0).substrate_key();
        assert!((1..6).all(|i| plan.resolve(i).substrate_key() == k0));
    }

    #[test]
    fn per_run_seeds_split_shards() {
        let plan = SweepPlan::explicit(
            "seeds",
            base(),
            vec![
                SweepRun::new("a", ConfigPatch::none()),
                SweepRun::new("b", ConfigPatch::none()),
            ],
        )
        .with_seed_mode(SeedMode::PerRun);
        let a = plan.resolve(0);
        let b = plan.resolve(1);
        assert_ne!(a.seed, b.seed);
        assert_ne!(a.substrate_key(), b.substrate_key());
        // Derivation is stable: same label, same seed.
        assert_eq!(a.seed, plan.derived_seed("a"));
    }

    #[test]
    fn config_hash_distinguishes_variants() {
        let b = base();
        let mut thin = b.clone();
        thin.site_overrides.push(SiteOverride::new(
            Letter::K,
            "LHR",
            SiteTuning::none().with_capacity(10_000.0),
        ));
        assert_ne!(config_hash("x", &b), config_hash("x", &thin));
        assert_ne!(config_hash("x", &b), config_hash("y", &b));
    }

    #[test]
    fn empty_plan_is_a_typed_error() {
        let plan = SweepPlan::explicit("empty", base(), vec![]);
        match run_sweep(&plan) {
            Err(RootcastError::Sweep(SweepError::EmptyPlan)) => {}
            other => panic!("expected EmptyPlan, got {other:?}"),
        }
    }

    #[test]
    fn bad_variant_fails_the_sweep_up_front() {
        let plan = SweepPlan::explicit(
            "bad",
            base(),
            vec![SweepRun::new(
                "nan",
                ConfigPatch::none().with_legit_total_qps(f64::NAN),
            )],
        );
        assert!(matches!(run_sweep(&plan), Err(RootcastError::Config(_))));
    }

    #[test]
    fn unknown_override_site_is_a_typed_error() {
        let plan = SweepPlan::explicit(
            "unknown-site",
            base(),
            vec![SweepRun::new(
                "bogus",
                ConfigPatch::none().with_site_override(SiteOverride::new(
                    Letter::K,
                    "XXX",
                    SiteTuning::none().with_capacity(1.0),
                )),
            )],
        );
        match run_sweep(&plan) {
            Err(RootcastError::Config(crate::config::ConfigError::BadOverride(m))) => {
                assert!(m.contains("XXX"), "message: {m}");
            }
            other => panic!("expected BadOverride, got {other:?}"),
        }
    }

    #[test]
    fn report_ranks_and_serializes() {
        let axes = [SweepAxis::new(
            "legit",
            vec![
                ("low", ConfigPatch::none().with_legit_total_qps(50_000.0)),
                ("base", ConfigPatch::none()),
            ],
        )];
        let plan = SweepPlan::grid("rank", base(), &axes);
        let report = run_sweep(&plan).expect("sweep runs");
        assert_eq!(report.records.len(), 2);
        assert_eq!(report.n_substrates, 1, "shared seed shares a substrate");
        assert!(!report.is_partial());
        let ranking = report.ranking();
        assert_eq!(ranking.len(), 2);
        assert!(
            ranking[0].headline.worst_letter_availability
                >= ranking[1].headline.worst_letter_availability
        );
        // Every rendered cell is finite, and exports round-trip.
        let text = report.render();
        assert!(text.contains("Sweep"), "{text}");
        assert!(!text.contains("NaN") && !text.contains("inf"), "{text}");
        let csv = report.to_csv();
        assert_eq!(csv.lines().count(), 1 + 2, "header + two rows");
        let jsonl = report.to_jsonl();
        for (line, orig) in jsonl.lines().zip(&report.records) {
            let rec = SweepRecord::from_json(line).expect("round-trips");
            assert_eq!(
                SweepRecord {
                    resumed: false,
                    ..rec
                },
                *orig,
                "manifest line loses information"
            );
        }
        // The rollup saw both runs' counters.
        assert!(report.rollup.counter("fluid.windows").unwrap_or(0) > 0);
    }
}
