//! Fault-injection acceptance: a scenario with a non-empty `FaultPlan`
//! runs to completion, the fault ledger lists every injected fault, the
//! affected letters degrade to partial results annotated with coverage,
//! and everything the faults did not touch stays bit-identical to the
//! fault-free run.
//!
//! Background churn is pinned off (no maintenance, resolver refresh
//! beyond the horizon) so routing noise cannot couple letters: the only
//! differences between the two runs are the injected faults themselves.

use rootcast::analysis::{event_size, reachability};
use rootcast::{
    output_digest, run, run_sweep, ConfigPatch, FaultKind, FaultPlan, Letter, ScenarioConfig,
    SimDuration, SimOutput, SimTime, SweepPlan, SweepRun,
};
use rootcast_attack::{AttackSchedule, AttackWindow};

fn base_cfg() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::small();
    cfg.horizon = SimTime::from_hours(2);
    cfg.pipeline.horizon = cfg.horizon;
    // No background churn: maintenance off, resolver refresh never
    // fires. B-root's only site (LAX) is unicast and shares no facility,
    // so its crash cannot reach any other letter.
    cfg.maintenance_mean = None;
    cfg.resolver_update = SimDuration::from_hours(100);
    cfg.attack = AttackSchedule::new(vec![AttackWindow {
        start: SimTime::from_mins(30),
        duration: SimDuration::from_mins(30),
        qname: "www.336901.com".into(),
        targets: AttackSchedule::nov2015_targets(),
        rate_qps: 2_000_000.0,
    }]);
    cfg
}

fn fault_plan() -> FaultPlan {
    FaultPlan::none()
        .with(
            SimTime::from_mins(20),
            SimDuration::from_mins(30),
            FaultKind::SiteCrash {
                letter: Letter::B,
                site: "LAX".into(),
            },
        )
        .with(
            SimTime::from_mins(30),
            SimDuration::from_mins(40),
            FaultKind::RssacGap { letter: Letter::H },
        )
        .with(
            SimTime::from_mins(10),
            SimDuration::from_mins(60),
            FaultKind::ProbeDropout {
                fraction: 0.5,
                letters: vec![Letter::E],
            },
        )
}

/// The two runs every assertion compares. Building them dominates the
/// test binary's runtime, so do it once.
fn runs() -> &'static (SimOutput, SimOutput) {
    use std::sync::OnceLock;
    static RUNS: OnceLock<(SimOutput, SimOutput)> = OnceLock::new();
    RUNS.get_or_init(|| {
        let clean = run(&base_cfg()).expect("valid scenario");
        let mut cfg = base_cfg();
        cfg.faults = fault_plan();
        let faulted = run(&cfg).expect("valid scenario");
        (clean, faulted)
    })
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn fault_ledger_lists_every_fault() {
    let (_, faulted) = runs();
    let ledger = &faulted.faults;
    assert_eq!(ledger.len(), 6, "3 injections + 3 recoveries: {ledger:?}");
    for needle in [
        "site-crash B/LAX",
        "rssac-gap H",
        "probe-dropout 50% towards E",
    ] {
        let hits = ledger
            .iter()
            .filter(|f| f.description.contains(needle))
            .count();
        assert_eq!(hits, 2, "{needle}: inject + recover expected, {hits} found");
    }
    // The ledger is in injection-time order.
    for pair in ledger.windows(2) {
        assert!(pair[0].at <= pair[1].at, "ledger out of order: {ledger:?}");
    }
}

#[test]
fn fault_ledger_matches_injection_and_recovery_counters() {
    let (clean, faulted) = runs();
    let count = |out: &SimOutput, name: &str| out.metrics.counter(name).expect(name);
    assert_eq!(count(faulted, "faults.injections"), 3);
    assert_eq!(
        faulted.faults.len() as u64,
        count(faulted, "faults.injections") + count(faulted, "faults.recoveries")
    );
    assert!(clean.faults.is_empty());
    assert_eq!(count(clean, "faults.injections"), 0);
}

#[test]
fn sweep_headline_reads_the_registry_and_the_ledger() {
    let (_, faulted) = runs();
    let plan = SweepPlan::explicit(
        "headline",
        base_cfg(),
        vec![SweepRun::new(
            "faulted",
            ConfigPatch::none().with_faults(fault_plan()),
        )],
    );
    let report = run_sweep(&plan).expect("sweep runs");
    let rec = &report.records[0];
    assert_eq!(rec.output_digest, output_digest(faulted), "same run");
    let h = &rec.headline;
    let gauge = |name: &str| faulted.metrics.gauge(name).expect(name);
    assert!(h.peak_offered_qps > 0.0);
    assert_eq!(h.peak_offered_qps, gauge("fluid.peak_offered_qps"));
    assert!(h.worst_served_ratio < 1.0, "B-root melted");
    assert_eq!(
        h.worst_served_ratio,
        gauge("fluid.worst_served_ratio").min(1.0)
    );
    assert_eq!(
        Some(h.policy_transitions),
        faulted.metrics.counter("fluid.policy_transitions")
    );
    assert_eq!(h.faults_injected, faulted.faults.len() as u64);
    assert_eq!(h.faults_injected, 6);
}

#[test]
fn gapped_rssac_letter_degrades_others_stay_bit_identical() {
    let (clean, faulted) = runs();
    // H observed 80 of 120 minutes.
    let h = faulted.rssac[&Letter::H].report(0);
    let frac = h.coverage.fraction();
    assert!(
        (frac - 80.0 / 120.0).abs() < 1e-12,
        "H coverage {frac}, wanted 2/3"
    );
    assert!(
        h.queries < clean.rssac[&Letter::H].report(0).queries,
        "a 40-minute gap must drop recorded queries"
    );
    // The other reporting letters never saw a fault: reports (totals,
    // histograms, unique sources, coverage) are bit-identical.
    for letter in [Letter::A, Letter::J, Letter::K, Letter::L] {
        let c = clean.rssac[&letter].report(0);
        let f = faulted.rssac[&letter].report(0);
        assert_eq!(c, f, "{letter} report changed under unrelated faults");
        assert!(f.coverage.is_complete(), "{letter} coverage dipped");
    }
}

#[test]
fn probe_dropout_thins_coverage_others_stay_bit_identical() {
    let (clean, faulted) = runs();
    let e = faulted.pipeline.letter(Letter::E).coverage();
    assert!(
        e.fraction() < 1.0,
        "E coverage {} after a 50% dropout wave",
        e.fraction()
    );
    assert!(clean.pipeline.letter(Letter::E).coverage().is_complete());
    // Every letter the plan does not touch (all but E's dropout and B's
    // site crash) keeps a bit-identical success series.
    for &letter in &clean.letters {
        if matches!(letter, Letter::B | Letter::E) {
            continue;
        }
        assert_eq!(
            bits(clean.pipeline.letter(letter).success.values()),
            bits(faulted.pipeline.letter(letter).success.values()),
            "{letter} series changed under unrelated faults"
        );
        assert!(faulted.pipeline.letter(letter).coverage().is_complete());
    }
}

#[test]
fn site_crash_blacks_out_the_letter_then_recovers() {
    let (clean, faulted) = runs();
    let b = faulted.pipeline.letter(Letter::B);
    // During the crash window (20-50 min) B has no announced site: no VP
    // can reach it, unlike the clean run's pre-attack plateau.
    let dark = b
        .success
        .window(SimTime::from_mins(20), SimTime::from_mins(30));
    let clean_same = clean
        .pipeline
        .letter(Letter::B)
        .success
        .window(SimTime::from_mins(20), SimTime::from_mins(30));
    assert!(
        dark.max() < clean_same.max() * 0.2,
        "B still reachable mid-crash: {} vs clean {}",
        dark.max(),
        clean_same.max()
    );
    // After recovery (50 min) and the attack's end (60 min), B comes back.
    let after = b
        .success
        .window(SimTime::from_mins(80), SimTime::from_mins(120));
    assert!(
        after.max() > clean_same.max() * 0.5,
        "B never recovered: {} vs {}",
        after.max(),
        clean_same.max()
    );
}

#[test]
fn analyses_annotate_partial_results_with_coverage() {
    let (clean, faulted) = runs();
    // Table 3: H's row carries its reduced coverage; the other reporting
    // letters' deltas are bit-identical to the fault-free table.
    let t3_clean = event_size::table3(clean);
    let t3 = event_size::table3(faulted);
    let h = t3.row(Letter::H, 0).expect("H reports");
    assert!(
        h.coverage.fraction() < 1.0,
        "H Table3 coverage {}",
        h.coverage.fraction()
    );
    for letter in [Letter::A, Letter::J, Letter::K, Letter::L] {
        let c = t3_clean.row(letter, 0).expect("clean row");
        let f = t3.row(letter, 0).expect("faulted row");
        assert_eq!(
            c.dq_mqps.to_bits(),
            f.dq_mqps.to_bits(),
            "{letter} dQ moved"
        );
        assert_eq!(
            c.dq_gbps.to_bits(),
            f.dq_gbps.to_bits(),
            "{letter} Gb/s moved"
        );
        assert!(f.coverage.is_complete(), "{letter} coverage dipped");
    }
    // Figure 3: E's row reports the dropout wave's thinned probe
    // coverage; untouched letters stay complete.
    let fig = reachability::figure3(faulted);
    let row = |l: Letter| fig.rows.iter().find(|r| r.letter == l).expect("row");
    assert!(row(Letter::E).coverage.fraction() < 1.0);
    for l in [Letter::A, Letter::K, Letter::L] {
        assert!(row(l).coverage.is_complete(), "{l} probe coverage dipped");
    }
}
