//! Determinism regression: the engine's outputs are a pure function of
//! the scenario seed, at any rayon thread count.
//!
//! `ProbeWheel` runs one task per letter that probes and records into
//! that letter's own pipeline shard, drawing from per-(letter, minute)
//! RNG streams; the cached `FluidTraffic` tick is serial. The schedule of thread interleavings therefore cannot
//! reach any simulation state. These tests pin that property end to
//! end: two default-pool runs and one forced single-thread run of
//! `ScenarioConfig::small()` must agree bit for bit, and must equal a
//! committed golden digest.
//!
//! Runs are compared through [`output_digest`], a bit-exact fold of
//! everything the analysis layer consumes (floats via `to_bits`, so
//! "close" is not enough).

use rootcast::analysis::raster;
use rootcast::engine::{drive, subsystems, SimWorld};
use rootcast::{
    output_digest, run, run_with_substrate, FaultKind, FaultPlan, Letter, NoopInstrumentation,
    ScenarioConfig, SimDuration, SimOutput, SimTime, Substrate, TraceEventKind,
};
use rootcast_netsim::{Fnv1a, SimRng};

/// `output_digest` of `ScenarioConfig::small()`. A change that moves it
/// changes simulation output and must say why.
const SMALL_GOLDEN: u64 = 0xb9490ca4f13ac6ac;

/// `output_digest` of `small()` under the fault plan in
/// `fault_runs_are_bit_identical_across_thread_counts`.
const FAULTED_SMALL_GOLDEN: u64 = 0x0f778598c082d8ec;

#[test]
fn small_scenario_is_bit_identical_across_runs_and_thread_counts() {
    let cfg = ScenarioConfig::small();

    let first = output_digest(&run(&cfg).expect("valid scenario"));
    assert_eq!(
        first, SMALL_GOLDEN,
        "small() output moved: {first:#018x} vs golden {SMALL_GOLDEN:#018x}"
    );
    let second = output_digest(&run(&cfg).expect("valid scenario"));
    assert_eq!(first, second, "two identical runs diverged");

    let single = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("single-thread pool")
        .install(|| output_digest(&run(&cfg).expect("valid scenario")));
    assert_eq!(
        first, single,
        "single-thread run diverged from the default pool"
    );
}

/// FNV-1a of `small()`'s Figure 11 (K, LHR/FRA starts, 300 VPs): the
/// full ASCII raster followed by the cohort table. `output_digest` skips
/// the raster, so this pins the per-probe timelines.
const SMALL_FIGURE11_GOLDEN: u64 = 0x29dbc17209f92d77;

#[test]
fn small_scenario_figure11_raster_is_pinned() {
    let out = run(&ScenarioConfig::small()).expect("valid scenario");
    let fig = raster::figure11(&out, Letter::K, &["LHR", "FRA"], 300).expect("K is rastered");
    let mut h = Fnv1a::new();
    h.write(fig.render_ascii(usize::MAX).as_bytes());
    h.write(fig.render_cohorts().to_string().as_bytes());
    let digest = h.finish();
    assert_eq!(
        digest, SMALL_FIGURE11_GOLDEN,
        "small() Figure 11 moved: {digest:#018x} vs golden {SMALL_FIGURE11_GOLDEN:#018x}"
    );
}

/// FNV-1a over the `Debug` form of every letter's `LetterData` (success
/// and error series, RTT samples, site counts, flips and flip events,
/// watched-server series, raster, probe tallies), then the summed
/// outcome stats. `output_digest` folds only the success series; this
/// pins everything else the probe layer writes.
fn probe_layer_digest(out: &SimOutput) -> u64 {
    let mut h = Fnv1a::new();
    for &l in &out.letters {
        h.write(format!("{:?}", out.pipeline.letter(l)).as_bytes());
    }
    h.write(format!("{:?}", out.pipeline.outcome_stats()).as_bytes());
    h.finish()
}

/// [`probe_layer_digest`] of `small()`.
const SMALL_PROBE_LAYER_GOLDEN: u64 = 0xe98331e052220ca4;

/// [`probe_layer_digest`] of [`faulted_small`].
const FAULTED_SMALL_PROBE_LAYER_GOLDEN: u64 = 0x10c04cb62aea1282;

#[test]
fn small_scenario_probe_layer_is_pinned() {
    // `small()`'s 12 h cover event 1: drop coins, timeouts, the watched
    // K sites and `rtt_subsample = 2` all reach the pipeline.
    let digest = probe_layer_digest(&run(&ScenarioConfig::small()).expect("valid scenario"));
    assert_eq!(
        digest, SMALL_PROBE_LAYER_GOLDEN,
        "small() probe layer moved: {digest:#018x} vs golden {SMALL_PROBE_LAYER_GOLDEN:#018x}"
    );
}

#[test]
fn faulted_small_probe_layer_is_pinned() {
    let digest = probe_layer_digest(&run(&faulted_small()).expect("valid scenario"));
    assert_eq!(
        digest, FAULTED_SMALL_PROBE_LAYER_GOLDEN,
        "faulted small() probe layer moved: {digest:#018x} vs golden \
         {FAULTED_SMALL_PROBE_LAYER_GOLDEN:#018x}"
    );
}

#[test]
fn cached_kernels_are_bit_identical_to_reference_kernels() {
    // `reference_kernels` selects only the fluid tick: a full run on
    // the cached tick (catchment-epoch index, serial loop) must agree bit
    // for bit with the uncached reference tick (full per-AS scans, rayon
    // per-letter fan-out). Caching must never change output.
    let mut cfg = ScenarioConfig::small();
    assert!(!cfg.reference_kernels, "cached kernels are the default");
    let cached = output_digest(&run(&cfg).expect("valid scenario"));
    cfg.reference_kernels = true;
    let reference = output_digest(&run(&cfg).expect("valid scenario"));
    assert_eq!(
        cached, reference,
        "the cached fluid tick diverged from the reference tick"
    );
}

/// Drive `cfg` through `sim::run`'s subsystem list over a world
/// observed by [`NoopInstrumentation`] instead of the span recorder.
fn digest_unobserved(cfg: &ScenarioConfig) -> u64 {
    let rng = SimRng::new(cfg.seed);
    let substrate = Substrate::build(cfg);
    let mut obs = NoopInstrumentation;
    let mut world =
        SimWorld::from_substrate(cfg, &rng, &substrate, &mut obs).expect("world builds");
    let mut subsystems = subsystems(&world);
    drive(&mut world, &mut subsystems, cfg.horizon);
    let out = world.into_output();
    assert!(
        out.spans.stats().is_empty(),
        "a no-op observer records no spans"
    );
    output_digest(&out)
}

#[test]
fn tracing_is_a_pure_observer() {
    // The observability layer must never change outputs: a run with the
    // event trace enabled is bit-identical (in everything the analysis
    // layer consumes) to the same scenario with tracing disabled, and
    // the span recorder every `run` installs is bit-identical to a world
    // driven with no observer at all. Only the trace/span artifacts may
    // differ.
    let cfg = ScenarioConfig::small();
    let dark = run(&cfg).expect("valid scenario");
    assert!(!dark.trace.enabled, "trace is off by default");
    assert!(dark.trace.events.is_empty(), "disabled trace stays empty");

    let mut traced_cfg = cfg.clone();
    traced_cfg.trace.enabled = true;
    traced_cfg.trace.capacity = 16_384;
    let traced = run(&traced_cfg).expect("valid scenario");
    assert!(traced.trace.enabled);
    assert!(
        !traced.trace.events.is_empty(),
        "the small scenario produces policy transitions and epoch bumps"
    );
    assert_eq!(
        output_digest(&dark),
        output_digest(&traced),
        "enabling the event trace changed simulation output"
    );

    assert_eq!(
        output_digest(&dark),
        digest_unobserved(&cfg),
        "the span recorder changed simulation output"
    );

    // Metrics are also observation-only and identical either way.
    assert_eq!(
        dark.metrics.counter("fluid.windows"),
        traced.metrics.counter("fluid.windows")
    );
    assert_eq!(
        dark.metrics.counter("fluid.policy_transitions"),
        traced.metrics.counter("fluid.policy_transitions")
    );

    // Only lettered services transition: the trace records lettered
    // transitions only, the counter every service, and they agree
    // (`.nl` absorbs and never withdraws).
    assert_eq!(traced.trace.dropped_events, 0);
    let lettered: usize = traced
        .trace
        .events
        .iter()
        .map(|e| match e.kind {
            TraceEventKind::PolicyTransition { changes, .. } => changes,
            _ => 0,
        })
        .sum();
    assert!(lettered > 0, "the small scenario withdraws sites");
    assert_eq!(
        Some(lettered as u64),
        traced.metrics.counter("fluid.policy_transitions")
    );
}

#[test]
fn shared_substrate_runs_are_bit_identical_to_standalone_runs() {
    // The sweep engine's determinism contract: running a scenario over
    // a prebuilt shared substrate — with per-run knobs (here a 3×
    // legitimate-load change) applied on top — is bit-identical to a
    // cold standalone run of the same config. `SimWorld::build` is
    // exactly `Substrate::build` + `from_substrate`, so this pins that
    // the two paths cannot drift apart.
    let base = ScenarioConfig::small();
    let mut variant = base.clone();
    variant.legit_total_qps *= 3.0;

    let substrate = Substrate::build(&base);
    for cfg in [&base, &variant] {
        let shared = output_digest(&run_with_substrate(cfg, &substrate).expect("valid scenario"));
        let standalone = output_digest(&run(cfg).expect("valid scenario"));
        assert_eq!(
            shared, standalone,
            "substrate sharing changed simulation output"
        );
    }
}

/// `small()` with every fault kind in play, among them a site crash, a
/// probe dropout wave and a firmware downgrade.
fn faulted_small() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::small();
    cfg.faults = FaultPlan::none()
        .with(
            SimTime::from_mins(15),
            SimDuration::from_mins(30),
            FaultKind::SiteCrash {
                letter: Letter::B,
                site: "LAX".into(),
            },
        )
        .with(
            SimTime::from_mins(20),
            SimDuration::from_mins(45),
            FaultKind::RssacGap { letter: Letter::H },
        )
        .with(
            SimTime::from_mins(25),
            SimDuration::from_mins(60),
            FaultKind::RssacCorrupt {
                letter: Letter::K,
                factor: 0.4,
            },
        )
        .with(
            SimTime::from_mins(10),
            SimDuration::from_mins(50),
            FaultKind::ProbeDropout {
                fraction: 0.3,
                letters: vec![Letter::E, Letter::F],
            },
        )
        .with(
            SimTime::from_mins(30),
            SimDuration::from_mins(40),
            FaultKind::FirmwareDowngrade { fraction: 0.2 },
        )
        .with(
            SimTime::from_mins(5),
            SimDuration::from_mins(90),
            FaultKind::CollectorBlackout { letter: Letter::K },
        );
    cfg
}

#[test]
fn fault_runs_are_bit_identical_across_thread_counts() {
    // Same property with every fault kind in play: the injector draws
    // from its own RNG stream on the single-threaded engine loop, so
    // faulted runs must stay a pure function of (seed, plan) too.
    let cfg = faulted_small();
    let pooled = run(&cfg).expect("valid scenario");
    let first = output_digest(&pooled);
    assert_eq!(
        first, FAULTED_SMALL_GOLDEN,
        "faulted small() output moved: {first:#018x} vs golden {FAULTED_SMALL_GOLDEN:#018x}"
    );
    let second = output_digest(&run(&cfg).expect("valid scenario"));
    assert_eq!(first, second, "two identical fault runs diverged");

    let single = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("single-thread pool")
        .install(|| run(&cfg).expect("valid scenario"));
    assert_eq!(
        first,
        output_digest(&single),
        "single-thread fault run diverged from the default pool"
    );
    // The digest folds only the success series; the dropout and
    // firmware faults also reach coverage, flips, RTTs and watches
    // through each shard's missed-probe path.
    for &l in &pooled.letters {
        assert!(
            pooled.pipeline.letter(l) == single.pipeline.letter(l),
            "letter {l}: single-thread fault run diverged from the default pool"
        );
    }
    assert_eq!(
        pooled.pipeline.outcome_stats(),
        single.pipeline.outcome_stats()
    );
}
