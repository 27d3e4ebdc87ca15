//! Scenario-level sanity: vary one knob, check the outcome moves the
//! right way. These are the "physics tests" of the simulation — if any
//! fails, figure shapes can no longer be trusted.

use rootcast::analysis::{flips, reachability, routing};
use rootcast::{sim, Letter, ScenarioConfig, SimDuration, SimTime};
use rootcast_attack::{AttackSchedule, AttackWindow};

fn base_cfg() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::small();
    cfg.horizon = SimTime::from_hours(2);
    cfg.pipeline.horizon = cfg.horizon;
    cfg
}

fn with_rate(rate_qps: f64) -> ScenarioConfig {
    let mut cfg = base_cfg();
    cfg.attack = AttackSchedule::new(vec![AttackWindow {
        start: SimTime::from_mins(40),
        duration: SimDuration::from_mins(40),
        qname: "www.336901.com".into(),
        targets: AttackSchedule::nov2015_targets(),
        rate_qps,
    }]);
    cfg
}

#[test]
fn no_attack_means_no_damage() {
    let mut cfg = base_cfg();
    cfg.attack = AttackSchedule::quiet();
    let out = sim::run(&cfg).expect("valid scenario");
    let fig = reachability::figure3(&out);
    for row in &fig.rows {
        // With no event windows, survival is NaN ("no event observed");
        // damage is instead checked over the whole series: the worst
        // bin must stay near the baseline.
        assert!(
            row.survival.is_nan(),
            "{}: survival should be undefined without events, got {}",
            row.letter,
            row.survival
        );
        let worst = row.series.min();
        assert!(
            worst > row.baseline * 0.85,
            "{} dipped to {worst} (baseline {}) with no attack",
            row.letter,
            row.baseline
        );
    }
}

#[test]
fn bigger_attack_hurts_more() {
    let small = sim::run(&with_rate(500_000.0)).expect("valid scenario");
    let large = sim::run(&with_rate(4_000_000.0)).expect("valid scenario");
    let surv = |out: &rootcast::SimOutput, l: Letter| {
        reachability::figure3(out)
            .rows
            .iter()
            .find(|r| r.letter == l)
            .unwrap()
            .survival
    };
    // B (the single-site letter) degrades monotonically with rate.
    let b_small = surv(&small, Letter::B);
    let b_large = surv(&large, Letter::B);
    assert!(
        b_large < b_small,
        "B survival {b_large} under 4 Mq/s vs {b_small} under 0.5 Mq/s"
    );
    // The whole system (mean survival of attacked letters) degrades too.
    let mean = |out: &rootcast::SimOutput| {
        let fig = reachability::figure3(out);
        let vals: Vec<f64> = fig
            .rows
            .iter()
            .filter(|r| !matches!(r.letter, Letter::D | Letter::L | Letter::M))
            .map(|r| r.survival)
            .collect();
        vals.iter().sum::<f64>() / vals.len() as f64
    };
    assert!(mean(&large) < mean(&small));
}

#[test]
fn attack_below_all_capacities_is_invisible() {
    // 50 kq/s spread over catchments is far below every site's capacity
    // (§2.2 case 1: A0 + A1 < s1 for everyone).
    let out = sim::run(&with_rate(50_000.0)).expect("valid scenario");
    let fig = reachability::figure3(&out);
    for row in &fig.rows {
        assert!(
            row.survival > 0.9,
            "{} suffered ({}) under a trivial attack",
            row.letter,
            row.survival
        );
    }
}

#[test]
fn different_seeds_same_shape() {
    // Structural conclusions must not depend on the seed: B worst-ish,
    // unattacked letters fine.
    for seed in [1u64, 77, 4242] {
        let mut cfg = with_rate(3_000_000.0);
        cfg.seed = seed;
        let out = sim::run(&cfg).expect("valid scenario");
        let fig = reachability::figure3(&out);
        let b = fig.rows.iter().find(|r| r.letter == Letter::B).unwrap();
        let l = fig.rows.iter().find(|r| r.letter == Letter::L).unwrap();
        assert!(b.survival < 0.6, "seed {seed}: B survived {}", b.survival);
        assert!(l.survival > 0.9, "seed {seed}: L dipped to {}", l.survival);
        assert!(b.survival < l.survival, "seed {seed}: ordering broke");
    }
}

#[test]
fn maintenance_noise_off_means_quiet_baseline() {
    let mut cfg = base_cfg();
    cfg.attack = AttackSchedule::quiet();
    cfg.maintenance_mean = None;
    let out = sim::run(&cfg).expect("valid scenario");
    // Without maintenance or attack, collectors log nothing.
    let total_updates: usize = out.collectors.values().map(|c| c.total_messages()).sum();
    assert_eq!(total_updates, 0, "spurious route churn");
    // And flips are essentially zero.
    let total_flips: f64 = out
        .letters
        .iter()
        .map(|&l| out.pipeline.letter(l).flips.values().iter().sum::<f64>())
        .sum();
    assert!(
        total_flips < 10.0,
        "flips {total_flips} in a dead-quiet run"
    );
}

#[test]
fn pulse_schedule_event_shares_are_union_covered() {
    // Ten 8-minute bursts every 20 minutes: the padded event windows
    // overlap, and each flip or route change must count once.
    let mut cfg = ScenarioConfig::small();
    cfg.horizon = SimTime::from_hours(6);
    cfg.pipeline.horizon = cfg.horizon;
    cfg.attack = AttackSchedule::new(
        (0..10u64)
            .map(|i| AttackWindow {
                start: SimTime::from_mins(60 + 20 * i),
                duration: SimDuration::from_mins(8),
                qname: "www.336901.com".into(),
                targets: AttackSchedule::nov2015_targets(),
                rate_qps: 3_500_000.0,
            })
            .collect(),
    );
    let out = sim::run(&cfg).expect("valid scenario");

    let fig8 = flips::figure8(&out);
    let shares: Vec<f64> = fig8
        .event_shares
        .iter()
        .copied()
        .filter(|s| s.is_finite())
        .collect();
    assert!(!shares.is_empty(), "the pulses cause flips");
    for share in shares {
        assert!((0.0..=1.0).contains(&share), "Figure 8 event share {share}");
    }

    let fig9 = routing::figure9(&out);
    let total: f64 = out.letters.iter().map(|&l| fig9.total(l)).sum();
    let during = fig9.event_total(&out);
    assert!(total > 0.0, "the pulses cause route changes");
    assert!(
        during <= total,
        "Figure 9 event total {during} exceeds total {total}"
    );
}
