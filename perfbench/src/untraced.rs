//! The untraced run: end-to-end metrics only, measured with nothing
//! but `Instant` pairs around whole public calls.

use crate::analysis::{check_finite, check_paper_shape, regenerate, render_report};
use crate::stats::{median, peak_rss_mb, ratio, reset_peak_rss, Tally};
use crate::workloads::{recorded_digest, run_pinned_sweep, Workload, PAPER_SEED};
use crate::Metrics;
use rootcast::{output_digest, sim, ScenarioConfig, Substrate, SweepPlan};
use std::time::{Duration, Instant};

/// Check a run's digest: against the recorded value when this seed has
/// one, and always against the first run of this invocation.
pub fn check_digest(
    tally: &mut Tally,
    scenario: u64,
    workload: Workload,
    seed: u64,
    label: &str,
    digest: u64,
) {
    if let Some(want) = recorded_digest(workload, seed, label) {
        if digest != want {
            tally.fail(
                scenario,
                format!("{label}: digest {digest:016x}, recorded {want:016x}"),
            );
        }
    }
    let seen = *tally.digests.entry(label.to_string()).or_insert(digest);
    if digest != seen {
        tally.fail(
            scenario,
            format!("{label}: digest {digest:016x} differs from the first run's {seen:016x}"),
        );
    }
}

/// Repeat `f` at least `min_reps` times and for at least `min_time`;
/// `f` returns the seconds its measured call took, and checks its
/// output outside that time.
fn repeat(min_reps: usize, min_time: Duration, mut f: impl FnMut() -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < min_reps || start.elapsed() < min_time {
        times.push(f());
    }
    times
}

/// Time `f` in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Run `workload` untraced in rounds until `seconds` have passed (at
/// least two rounds, so every invocation also checks that its runs
/// repeat). A round sets up (for at least 0.3 s), runs once and
/// analyses (for at least 0.5 s), so the three timings sample the same
/// stretch of time; each round's output is checked and dropped before
/// the next round starts. Peak memory is taken per round, from a
/// high-water mark reset at the round's start, and reported as the
/// median: a sweep's peak depends on how its parallel runs happen to
/// overlap, and one unlucky overlap should not set the figure.
pub fn run(workload: Workload, seed: u64, seconds: f64, tally: &mut Tally) -> Metrics {
    let plan = workload.sweep_plan(seed);
    let cfg = workload.base_config(seed);
    let (mut setup_times, mut run_times, mut analysis_times) = (Vec::new(), Vec::new(), Vec::new());
    let mut peaks = Vec::new();
    let mut every_round_reset = true;
    let mut probes = 0.0;
    let start = Instant::now();
    while run_times.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        every_round_reset &= reset_peak_rss();
        let mut substrate = None;
        setup_times.extend(repeat(1, Duration::from_millis(300), || {
            let (s, dt) = timed(|| Substrate::build(&cfg));
            substrate = Some(s);
            dt
        }));
        let round = match (&plan, substrate) {
            // `run_sweep` builds its own substrate; the one timed above
            // is dropped first so it does not count towards the peak.
            (Some(plan), _) => sweep_round(workload, seed, plan, tally),
            (None, Some(substrate)) => single_round(workload, seed, &cfg, &substrate, tally),
            (None, None) => unreachable!("at least one setup rep"),
        };
        let Some((dt, analysis, n_probes)) = round else {
            break;
        };
        run_times.push(dt);
        analysis_times.extend(analysis);
        probes = n_probes;
        match peak_rss_mb() {
            Ok(mb) => peaks.push(mb),
            Err(e) => tally.fail(0, e),
        }
    }

    // Without a per-round reset each reading is the whole process's
    // peak so far, and only the last one covers every round.
    let rss = if every_round_reset {
        median(&peaks)
    } else {
        peaks.last().copied().unwrap_or(0.0)
    };
    let (setup_s, run_s, analysis_s) = (
        median(&setup_times),
        median(&run_times),
        median(&analysis_times),
    );
    let mut m = Metrics::default();
    m.put("setup_s", setup_s, "s");
    m.put("run_s", run_s, "s");
    m.put("wall_s", setup_s + run_s + analysis_s, "s");
    m.put("probes_per_s", ratio(probes, run_s), "probes/s");
    m.put("peak_rss_mb", rss, "MB");
    m
}

/// One round's run time, analysis times and probe count; `None` when
/// the run failed, which ends the measurement.
type Round = Option<(f64, Vec<f64>, f64)>;

/// One scenario through `run_with_substrate`, then every analysis
/// builder over its output, with the output checks.
fn single_round(
    workload: Workload,
    seed: u64,
    cfg: &ScenarioConfig,
    substrate: &Substrate,
    tally: &mut Tally,
) -> Round {
    let scenario = tally.attempt();
    let (result, dt) = timed(|| sim::run_with_substrate(cfg, substrate));
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            tally.fail(scenario, format!("run failed: {e}"));
            return None;
        }
    };
    check_digest(tally, scenario, workload, seed, "-", output_digest(&out));

    let mut rendered = None;
    let analysis = repeat(2, Duration::from_millis(500), || {
        let (r, dt) = timed(|| regenerate(&out, &mut |_, build| build()));
        rendered = Some(r);
        dt
    });
    if let Err(e) = rendered
        .expect("at least one analysis rep")
        .and_then(|tables| check_finite(&tables))
    {
        tally.fail(scenario, e);
    }
    if workload == Workload::PaperCanonical && seed == PAPER_SEED {
        if let Err(e) = check_paper_shape(&out) {
            tally.fail(scenario, e);
        }
    }
    let probes = out.metrics.counter("probes.fused").unwrap_or(0) as f64;
    Some((dt, analysis, probes))
}

/// The whole grid through `run_sweep` (see [`run_pinned_sweep`]); the analysis is what a sweep
/// user reads: the rendered, ranked comparison.
fn sweep_round(workload: Workload, seed: u64, plan: &SweepPlan, tally: &mut Tally) -> Round {
    let scenarios: Vec<u64> = plan.runs.iter().map(|_| tally.attempt()).collect();
    let (result, dt) = timed(|| run_pinned_sweep(plan));
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            for &s in &scenarios {
                tally.fail(s, format!("sweep failed: {e}"));
            }
            return None;
        }
    };
    check_report(tally, &scenarios, workload, seed, plan, &report);

    let mut rendered = String::new();
    let analysis = repeat(2, Duration::from_millis(500), || {
        let (text, dt) = timed(|| render_report(&report));
        rendered = text;
        dt
    });
    if let Err(e) = check_finite(&[rendered]) {
        tally.fail(scenarios[0], e);
    }
    let probes = report.rollup.counter("probes.fused").unwrap_or(0) as f64;
    Some((dt, analysis, probes))
}

/// A finished sweep must hold one record per planned run, in plan
/// order, each with the expected digest.
pub fn check_report(
    tally: &mut Tally,
    scenarios: &[u64],
    workload: Workload,
    seed: u64,
    plan: &SweepPlan,
    report: &rootcast::SweepReport,
) {
    if report.is_partial() || report.records.len() != plan.runs.len() {
        for &s in scenarios {
            tally.fail(s, format!("sweep is partial: {:?} pending", report.pending));
        }
        return;
    }
    for ((rec, run), &s) in report.records.iter().zip(&plan.runs).zip(scenarios) {
        if rec.label != run.label {
            tally.fail(s, format!("record {} out of plan order", rec.label));
        }
        check_digest(tally, s, workload, seed, &rec.label, rec.output_digest);
    }
}
