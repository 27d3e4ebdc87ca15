//! Rendering under degraded observation: a fault-gapped run must never
//! leak a literal `NaN` (or `inf`) into any rendered table. Undefined
//! cells render as "–" and the coverage columns say *why* the cell is
//! undefined.
//!
//! This is the golden test for the NaN-leak sweep: faults gap out RSSAC
//! accounting (empty event-day baselines → 0/0), crash B-root's only
//! site (no successful bins → empty event windows), and thin E's probe
//! fleet (sparse series), which between them exercise every division
//! that used to produce a bare `NaN` in the output.

use rootcast::analysis::{
    collateral, event_size, flips, letter_rtt, raster, reachability, routing, servers, site_reach,
    site_rtt,
};
use rootcast::render::TextTable;
use rootcast::{
    render_metrics, run, FaultKind, FaultPlan, Letter, ScenarioConfig, SimDuration, SimTime,
};

fn gapped_cfg() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::small();
    cfg.horizon = SimTime::from_hours(2);
    cfg.pipeline.horizon = cfg.horizon;
    cfg.faults = FaultPlan::none()
        .with(
            SimTime::from_mins(20),
            SimDuration::from_mins(30),
            FaultKind::SiteCrash {
                letter: Letter::B,
                site: "LAX".into(),
            },
        )
        .with(
            SimTime::from_mins(5),
            SimDuration::from_mins(110),
            FaultKind::RssacGap { letter: Letter::H },
        )
        .with(
            SimTime::from_mins(10),
            SimDuration::from_mins(100),
            FaultKind::ProbeDropout {
                fraction: 0.9,
                letters: vec![Letter::E],
            },
        );
    cfg
}

/// Every table the flagship example prints, from a gapped run.
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

#[test]
fn gapped_run_renders_without_nan() {
    let out = run(&gapped_cfg()).expect("gapped scenario runs");
    // The faults really did gap observation, so the NaN-prone paths run.
    assert!(!out.faults.is_empty(), "faults must have fired");
    for table in all_tables(&out) {
        let text = table.to_string();
        let csv = table.to_csv();
        for rendered in [&text, &csv] {
            assert!(!rendered.contains("NaN"), "rendered NaN in table:\n{text}");
            assert!(!rendered.contains("inf"), "rendered inf in table:\n{text}");
        }
    }
}

#[test]
fn undefined_cells_render_as_dash_with_coverage_context() {
    let out = run(&gapped_cfg()).expect("gapped scenario runs");
    // H's RSSAC record is gapped for nearly the whole horizon: its
    // Table 3 coverage column must report partial coverage.
    let t3 = event_size::table3(&out);
    if let Some(h) = t3.row(Letter::H, 0) {
        assert!(
            h.coverage.fraction() < 1.0,
            "H coverage {} should be partial under an RssacGap",
            h.coverage.fraction()
        );
    }
    let rendered = t3.render().to_string();
    assert!(
        rendered.contains('%'),
        "Table 3 must carry its coverage column:\n{rendered}"
    );
}
