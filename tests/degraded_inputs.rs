//! Every Figure/Table builder against a *maximally* degraded run: no
//! attack at all, every VP dropped for the whole horizon, every
//! letter's RSSAC accounting gapped, every collector blacked out. The
//! analysis layer must neither panic nor leak a non-finite value into
//! any rendered cell or CSV export — empty inputs degrade to empty or
//! "–" cells, with coverage columns saying why.
//!
//! This is the sharpest version of `render_nan.rs`: that test thins
//! observation; this one removes it.

use rootcast::analysis::{
    collateral, event_size, flips, letter_rtt, raster, reachability, routing, servers, site_reach,
    site_rtt,
};
use rootcast::render::TextTable;
use rootcast::{
    render_metrics, run, run_sweep, run_with_substrate, AttackSchedule, ConfigError, ConfigPatch,
    FaultKind, FaultPlan, Letter, RootcastError, ScenarioConfig, SimDuration, SimTime, Substrate,
    SweepPlan, SweepRun,
};
use rootcast_anycast::{AnycastService, SiteSpec};
use rootcast_atlas::PipelineError;
use rootcast_topology::AsId;

/// Zero attack, zero observation: all VPs disconnected, all RSSAC
/// records and collectors gapped for effectively the whole horizon.
fn dead_cfg() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::small();
    cfg.horizon = SimTime::from_hours(2);
    cfg.pipeline.horizon = cfg.horizon;
    cfg.attack = AttackSchedule::quiet();
    let start = SimTime::from_mins(1);
    let rest = SimDuration::from_mins(118);
    let mut faults = FaultPlan::none().with(
        start,
        rest,
        FaultKind::ProbeDropout {
            fraction: 1.0,
            letters: Vec::new(), // empty = every letter
        },
    );
    for letter in Letter::ALL {
        faults = faults
            .with(start, rest, FaultKind::RssacGap { letter })
            .with(start, rest, FaultKind::CollectorBlackout { letter });
    }
    cfg.faults = faults;
    cfg
}

/// Every table the flagship example prints.
fn all_tables(out: &rootcast::SimOutput) -> Vec<TextTable> {
    let mut tables = vec![
        site_reach::table2(out).render(),
        event_size::table3(out).render(),
        reachability::figure3(out).render(),
        letter_rtt::figure4(out).render(),
    ];
    for letter in [Letter::E, Letter::K, Letter::B] {
        tables.push(site_reach::figure5(out, letter).render());
        tables.push(site_reach::figure6(out, letter).render());
    }
    tables.push(site_rtt::figure7(out).render());
    tables.push(flips::figure8(out).render());
    tables.push(routing::figure9(out).render());
    tables.push(flips::figure10(out, Letter::K, "LHR").render());
    tables.push(flips::figure10(out, Letter::K, "FRA").render());
    tables.push(
        raster::figure11(out, Letter::K, &["LHR", "FRA"], 300)
            .expect("K is rastered")
            .render_cohorts(),
    );
    tables.push(servers::figures12_13(out).render());
    tables.push(collateral::figure14(out, Letter::D).render());
    tables.push(collateral::figure15(out).render());
    tables.extend(render_metrics(&out.metrics));
    tables
}

fn assert_finite_rendering(tables: &[TextTable]) {
    for table in tables {
        let text = table.to_string();
        let csv = table.to_csv();
        for rendered in [&text, &csv] {
            assert!(!rendered.contains("NaN"), "rendered NaN:\n{text}");
            assert!(!rendered.contains("inf"), "rendered inf:\n{text}");
        }
    }
}

#[test]
fn dead_run_renders_every_table_without_panic_or_nan() {
    let out = run(&dead_cfg()).expect("dead scenario still runs");
    assert!(
        out.metrics.counter("faults.injections").unwrap_or(0) > 0,
        "faults must have fired"
    );
    // The dropout really removed observation: K has no flip events.
    let flow = flips::figure10(&out, Letter::K, "LHR");
    assert_eq!(flow.outflow_share("AMS"), 0.0, "empty outflow share");
    assert_finite_rendering(&all_tables(&out));
}

#[test]
fn attacked_but_unobserved_event_days_degrade_explicitly() {
    // Keep the Nov 30 attack but gap every letter's RSSAC record: the
    // event day exists, no attacked letter reports it. Table 3 must
    // keep the day as a flagged degraded row, not drop it.
    let mut cfg = ScenarioConfig::small();
    cfg.horizon = SimTime::from_hours(9);
    cfg.pipeline.horizon = cfg.horizon;
    let start = SimTime::from_mins(1);
    let rest = SimDuration::from_mins(9 * 60 - 2);
    let mut faults = FaultPlan::none();
    for letter in Letter::ALL {
        faults = faults.with(start, rest, FaultKind::RssacGap { letter });
    }
    cfg.faults = faults;
    let out = run(&cfg).expect("gapped scenario runs");

    let t3 = event_size::table3(&out);
    assert!(
        !t3.bounds.is_empty(),
        "the attacked day must survive as a degraded bounds row"
    );
    for b in &t3.bounds {
        assert!(b.is_degraded(t3.n_attacked), "all letters were gapped");
        assert!(b.lower_mqps.is_finite(), "lower bound is a true sum");
    }
    let rendered = t3.render();
    assert!(
        rendered
            .to_string()
            .contains(&format!("/{}", t3.n_attacked)),
        "bounds rows must show how many letters they rest on:\n{rendered}"
    );
    assert_finite_rendering(&[rendered]);
}

#[test]
fn sweep_over_dead_scenario_reports_finite_headlines() {
    let plan = SweepPlan::explicit(
        "degraded",
        dead_cfg(),
        vec![SweepRun::new("dead", ConfigPatch::none())],
    );
    let report = run_sweep(&plan).expect("sweep over a dead run works");
    let h = &report.records[0].headline;
    for v in [
        h.worst_letter_availability,
        h.mean_letter_availability,
        h.peak_offered_qps,
        h.worst_served_ratio,
    ] {
        assert!(v.is_finite(), "headline value must be finite: {h:?}");
    }
    // No attack → no event windows → no dip to report.
    assert_eq!(h.worst_letter_availability, 1.0);
    let text = report.render();
    assert!(!text.contains("NaN") && !text.contains("inf"), "{text}");
    assert_finite_rendering(&[report.comparison()]);
}

#[test]
fn oversized_deployment_fails_only_where_rastered() {
    // 253 sites are more than one raster cell encodes. An unrastered
    // letter may deploy them and runs; a rastered one is a typed error
    // from the world build, not a panic.
    let mut cfg = ScenarioConfig::small();
    cfg.horizon = SimTime::from_hours(1);
    cfg.pipeline.horizon = cfg.horizon;
    let mut substrate = Substrate::build(&cfg);
    let e = substrate
        .letters
        .iter()
        .position(|&l| l == Letter::E)
        .expect("E deployed");
    let n_ases = substrate.graph.len();
    let sites: Vec<SiteSpec> = (0..253)
        .map(|i| SiteSpec::global(&format!("X{i:03}"), AsId((i * 7 % n_ases) as u32), 5_000.0))
        .collect();
    substrate.services[e] = AnycastService::new("E-root", Some(Letter::E), &substrate.graph, sites);

    assert!(!cfg.pipeline.raster_letters.contains(&Letter::E));
    let out = run_with_substrate(&cfg, &substrate).expect("an unrastered letter has no site cap");
    let data = out.pipeline.letter(Letter::E);
    assert_eq!(data.site_codes.len(), 253);
    assert!(data.observed_probes > 0 && data.raster.is_none());

    cfg.pipeline.raster_letters.push(Letter::E);
    match run_with_substrate(&cfg, &substrate) {
        Err(RootcastError::Config(ConfigError::BadPipeline(
            PipelineError::TooManyRasterSites { letter, sites },
        ))) => assert_eq!((letter, sites), (Letter::E, 253)),
        other => panic!("expected TooManyRasterSites, got {:?}", other.err()),
    }
}

#[test]
fn substrate_built_for_other_knobs_is_a_typed_mismatch() {
    // A prebuilt substrate serves exactly the configs whose substrate
    // knobs match the one it was built from; the error names the
    // knobs that differ. Per-run knobs never count.
    let mut cfg = ScenarioConfig::small();
    cfg.horizon = SimTime::from_hours(1);
    cfg.pipeline.horizon = cfg.horizon;
    let substrate = Substrate::build(&cfg);
    let mismatch = |other: &ScenarioConfig| match run_with_substrate(other, &substrate) {
        Err(RootcastError::Config(ConfigError::SubstrateMismatch(knobs))) => knobs,
        other => panic!("expected SubstrateMismatch, got {:?}", other.err()),
    };

    let mut reseeded = cfg.clone();
    reseeded.seed += 1;
    assert_eq!(mismatch(&reseeded), ["seed"]);

    let mut no_nl = cfg.clone();
    no_nl.include_nl = false;
    assert_eq!(mismatch(&no_nl), ["include_nl"]);

    let mut busier = cfg.clone();
    busier.legit_total_qps *= 2.0;
    run_with_substrate(&busier, &substrate).expect("a per-run knob shares the substrate");
}

#[test]
fn broken_botnet_knobs_are_typed_errors_not_panics() {
    // `Botnet::generate` asserts on both knobs during `Substrate::build`;
    // `run` must reject them first with a typed error.
    let mut empty = ScenarioConfig::small();
    empty.botnet.n_members = 0;
    let mut nan_share = ScenarioConfig::small();
    nan_share.botnet.heavy_share = f64::NAN;
    for cfg in [empty, nan_share] {
        match run(&cfg) {
            Err(RootcastError::Config(ConfigError::BadBotnet(_))) => {}
            other => panic!("expected BadBotnet, got {:?}", other.err()),
        }
    }
}

#[test]
fn zero_rtt_subsample_is_a_typed_error_not_a_one_vp_figure() {
    // With `rtt_subsample == 0` only VP 0's id is a multiple of it, so
    // every Figure 4 median would come from one VP. `run` rejects it up
    // front.
    let mut cfg = ScenarioConfig::small();
    cfg.pipeline.rtt_subsample = 0;
    match run(&cfg) {
        Err(RootcastError::Config(ConfigError::BadPipeline(PipelineError::ZeroRttSubsample))) => {}
        other => panic!("expected ZeroRttSubsample, got {:?}", other.err()),
    }
}

#[test]
fn missing_facility_capacity_is_a_typed_error_not_a_panic() {
    // Sites of several letters sit in shared facilities. A capacity list
    // that leaves their facility out must be rejected with a typed error
    // naming the site and the facility, from a run and from a sweep
    // patch alike, before the first fluid tick loads an unregistered
    // facility link.
    let mut cfg = ScenarioConfig::small();
    cfg.horizon = SimTime::from_hours(1);
    cfg.pipeline.horizon = cfg.horizon;
    let bad_rate = |err: Option<RootcastError>| match err {
        Some(RootcastError::Config(ConfigError::BadRate(m))) => m,
        other => panic!("expected BadRate, got {other:?}"),
    };

    let plan = SweepPlan::explicit(
        "facilities",
        cfg.clone(),
        vec![SweepRun::new(
            "no-capacities",
            ConfigPatch::none().with_facility_capacities(Vec::new()),
        )],
    );
    let from_sweep = bad_rate(run_sweep(&plan).err());

    cfg.facility_capacities.clear();
    let from_run = bad_rate(run(&cfg).err());
    assert_eq!(from_run, from_sweep);
    assert!(
        from_run.contains(" site ") && from_run.contains("facility #1"),
        "message names the site and the facility: {from_run}"
    );
}
