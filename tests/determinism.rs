//! Determinism regression: the engine's outputs are a pure function of
//! the scenario seed, at any rayon thread count.
//!
//! `ProbeWheel` runs one probe lane per letter that probes and records
//! into that letter's own pipeline shard, minute by minute in order,
//! drawing from per-(letter, minute) RNG streams; the cached
//! `FluidTraffic` tick is serial. The schedule of thread interleavings
//! therefore cannot reach any simulation state. These tests pin that
//! property end to end: runs of `ScenarioConfig::small()`, plain and
//! faulted, on the default pool and at 1, 2, 3 and 4 threads must agree
//! bit for bit, and must equal committed golden digests.
//!
//! Runs are compared through [`output_digest`], a bit-exact fold of
//! everything the analysis layer consumes (floats via `to_bits`, so
//! "close" is not enough), and through their event logs, which carry
//! simulated time only and so must match event for event.

use rootcast::analysis::{letter_rtt, raster, servers, site_rtt};
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

    let pooled = run(&cfg).expect("valid scenario");
    let first = output_digest(&pooled);
    assert_eq!(
        first, SMALL_GOLDEN,
        "small() output moved: {first:#018x} vs golden {SMALL_GOLDEN:#018x}"
    );
    let second = output_digest(&run(&cfg).expect("valid scenario"));
    assert_eq!(first, second, "two identical runs diverged");
    assert_identical_at_thread_counts(&cfg, &pooled);
    let (n, digest) = event_log_digest(&pooled);
    assert_eq!(
        (n, digest),
        SMALL_EVENT_LOG_GOLDEN,
        "small() event log moved: {n} events, {digest:#018x}"
    );
}

/// Run `f` on a rayon pool of `threads`.
fn with_threads<T: Send>(threads: usize, f: impl FnOnce() -> T + Send) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool")
        .install(f)
}

/// Assert that `cfg` runs at 1, 2, 3 and 4 threads exactly as `pooled`
/// ran on the default pool: the same output digest, event log, every
/// letter's `LetterData` and outcome tallies. `output_digest` folds only
/// the success series; the probe lanes also write coverage, flips, RTTs,
/// watches and the raster.
fn assert_identical_at_thread_counts(cfg: &ScenarioConfig, pooled: &SimOutput) {
    for threads in 1..=4 {
        let out = with_threads(threads, || run(cfg).expect("valid scenario"));
        assert_eq!(
            output_digest(pooled),
            output_digest(&out),
            "{threads} threads: output diverged from the default pool"
        );
        assert!(
            pooled.trace == out.trace,
            "{threads} threads: event log diverged from the default pool"
        );
        for &l in &pooled.letters {
            assert!(
                pooled.pipeline.letter(l) == out.pipeline.letter(l),
                "{threads} threads: letter {l} diverged from the default pool"
            );
        }
        assert_eq!(
            pooled.pipeline.outcome_stats(),
            out.pipeline.outcome_stats(),
            "{threads} threads: outcome tallies diverged from the default pool"
        );
    }
}

/// FNV-1a over the event log: per event, its simulated time in
/// nanoseconds, then the `Debug` form of its kind. Returns the event
/// count alongside.
fn event_log_digest(out: &SimOutput) -> (usize, u64) {
    let mut h = Fnv1a::new();
    for e in &out.trace {
        h.write_u64(e.t.as_nanos());
        h.write(format!("{:?}", e.kind).as_bytes());
    }
    (out.trace.len(), h.finish())
}

/// [`event_log_digest`] of `small()`.
const SMALL_EVENT_LOG_GOLDEN: (usize, u64) = (242, 0x2f10416f8f2c734c);

/// [`event_log_digest`] of [`faulted_small`].
const FAULTED_SMALL_EVENT_LOG_GOLDEN: (usize, u64) = (256, 0xdbf8b95064291c37);

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
/// and error series, per-bin RTT medians, site counts, flips and flip
/// events, watched-server series, raster, probe tallies), then the
/// summed outcome stats. `output_digest` folds only the success series; this
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
const SMALL_PROBE_LAYER_GOLDEN: u64 = 0xfc3d873834845dcd;

/// [`probe_layer_digest`] of [`faulted_small`].
const FAULTED_SMALL_PROBE_LAYER_GOLDEN: u64 = 0x0b30824e2b95e524;

/// FNV-1a over the `Debug` form of the figures that read RTTs: Figure 4
/// (per-letter medians), Figure 7 (watched sites) and Figures 12–13
/// (watched servers).
fn rtt_figures_digest(out: &SimOutput) -> u64 {
    let mut h = Fnv1a::new();
    h.write(format!("{:?}", letter_rtt::figure4(out)).as_bytes());
    h.write(format!("{:?}", site_rtt::figure7(out)).as_bytes());
    h.write(format!("{:?}", servers::figures12_13(out)).as_bytes());
    h.finish()
}

/// FNV-1a over the `Debug` form of every field of every letter's
/// `LetterData` except its RTT series (`rtt`, and each watch's
/// `site_rtt` and `rtts`): what the probe layer writes besides RTTs,
/// in a form that does not depend on how RTTs are stored.
fn letter_data_sans_rtt_digest(out: &SimOutput) -> u64 {
    let mut h = Fnv1a::new();
    for &l in &out.letters {
        let d = out.pipeline.letter(l);
        let watch_counts: Vec<_> = d.watches.iter().map(|(s, w)| (s, &w.counts)).collect();
        h.write(
            format!(
                "{:?}",
                (
                    d.letter,
                    &d.site_codes,
                    &d.success,
                    &d.errors,
                    &d.site_counts,
                    &d.flips,
                    &d.flip_events,
                    watch_counts,
                    &d.raster,
                    (d.observed_probes, d.missed_probes),
                )
            )
            .as_bytes(),
        );
    }
    h.finish()
}

/// [`rtt_figures_digest`] of `small()`.
const SMALL_RTT_FIGURES_GOLDEN: u64 = 0x643c74a379ee3af6;

/// [`rtt_figures_digest`] of [`faulted_small`].
const FAULTED_SMALL_RTT_FIGURES_GOLDEN: u64 = 0x8aa8fdb374577436;

/// [`letter_data_sans_rtt_digest`] of `small()`.
const SMALL_LETTER_DATA_SANS_RTT_GOLDEN: u64 = 0x0c6cedadb183f0dd;

/// [`letter_data_sans_rtt_digest`] of [`faulted_small`].
const FAULTED_SMALL_LETTER_DATA_SANS_RTT_GOLDEN: u64 = 0xafd5a23df7772cf8;

/// Assert `out`'s RTT figures and its `LetterData` without RTTs match
/// their goldens; `name` labels the failure.
fn assert_probe_layer_pins(out: &SimOutput, name: &str, figures: u64, sans_rtt: u64) {
    let digest = rtt_figures_digest(out);
    assert_eq!(
        digest, figures,
        "{name} RTT figures moved: {digest:#018x} vs golden {figures:#018x}"
    );
    let digest = letter_data_sans_rtt_digest(out);
    assert_eq!(
        digest, sans_rtt,
        "{name} LetterData without RTTs moved: {digest:#018x} vs golden {sans_rtt:#018x}"
    );
}

#[test]
fn small_scenario_probe_layer_is_pinned() {
    // `small()`'s 12 h cover event 1: drop coins, timeouts, the watched
    // K sites and `rtt_subsample = 2` all reach the pipeline.
    let out = run(&ScenarioConfig::small()).expect("valid scenario");
    assert_probe_layer_pins(
        &out,
        "small()",
        SMALL_RTT_FIGURES_GOLDEN,
        SMALL_LETTER_DATA_SANS_RTT_GOLDEN,
    );
    let digest = probe_layer_digest(&out);
    assert_eq!(
        digest, SMALL_PROBE_LAYER_GOLDEN,
        "small() probe layer moved: {digest:#018x} vs golden {SMALL_PROBE_LAYER_GOLDEN:#018x}"
    );
}

#[test]
fn faulted_small_probe_layer_is_pinned() {
    let out = run(&faulted_small()).expect("valid scenario");
    assert_probe_layer_pins(
        &out,
        "faulted small()",
        FAULTED_SMALL_RTT_FIGURES_GOLDEN,
        FAULTED_SMALL_LETTER_DATA_SANS_RTT_GOLDEN,
    );
    let digest = probe_layer_digest(&out);
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
fn run_unobserved(cfg: &ScenarioConfig) -> SimOutput {
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
    out
}

#[test]
fn tracing_is_a_pure_observer() {
    // The observability layer must never change outputs: the span
    // recorder every `run` installs is bit-identical to a world driven
    // with no observer at all, in everything the analysis layer
    // consumes and in the event log. Only the span artifacts may differ.
    let cfg = ScenarioConfig::small();
    let recorded = run(&cfg).expect("valid scenario");
    assert!(
        !recorded.trace.is_empty(),
        "the small scenario produces policy transitions and epoch bumps"
    );
    let unobserved = run_unobserved(&cfg);
    assert_eq!(
        output_digest(&recorded),
        output_digest(&unobserved),
        "the span recorder changed simulation output"
    );
    assert!(
        recorded.trace == unobserved.trace,
        "the span recorder changed the event log"
    );

    // Metrics are also observation-only and identical either way.
    assert_eq!(
        recorded.metrics.counter("fluid.windows"),
        unobserved.metrics.counter("fluid.windows")
    );
    assert_eq!(
        recorded.metrics.counter("fluid.policy_transitions"),
        unobserved.metrics.counter("fluid.policy_transitions")
    );

    // Only lettered services transition: the log records lettered
    // transitions only, the counter every service, and they agree
    // (`.nl` absorbs and never withdraws).
    let lettered: usize = recorded
        .trace
        .iter()
        .map(|e| match e.kind {
            TraceEventKind::PolicyTransition { changes, .. } => changes,
            _ => 0,
        })
        .sum();
    assert!(lettered > 0, "the small scenario withdraws sites");
    assert_eq!(
        Some(lettered as u64),
        recorded.metrics.counter("fluid.policy_transitions")
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
        let shared = run_with_substrate(cfg, &substrate).expect("valid scenario");
        let standalone = run(cfg).expect("valid scenario");
        assert_eq!(
            output_digest(&shared),
            output_digest(&standalone),
            "substrate sharing changed simulation output"
        );
        assert!(
            shared.trace == standalone.trace,
            "substrate sharing changed the event log"
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
    // The dropout and firmware faults also reach coverage, flips, RTTs
    // and watches through each shard's missed-probe path.
    assert_identical_at_thread_counts(&cfg, &pooled);
    let (n, digest) = event_log_digest(&pooled);
    assert_eq!(
        (n, digest),
        FAULTED_SMALL_EVENT_LOG_GOLDEN,
        "faulted small() event log moved: {n} events, {digest:#018x}"
    );
}
