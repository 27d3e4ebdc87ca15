//! The flagship reproduction: run the full-scale Nov 30 / Dec 1 2015
//! scenario (48 hours, ~9300 vantage points, 5 Mq/s per attacked
//! letter) and regenerate **every table and figure** of the paper.
//!
//! ```text
//! cargo run --release --example root_event_nov2015 [-- --small] [--csv DIR]
//! ```
//!
//! * `--small` — use the scaled-down configuration (tens of
//!   milliseconds instead of about a second);
//! * `--csv DIR` — additionally write every table as CSV into `DIR`.
//!
//! Expected wall time for the full configuration: about 1.0–1.1 s in
//! release on a 2-vCPU machine, with a peak RSS of about 22 MB.

use rootcast::analysis::{
    collateral, event_size, flips, letter_rtt, raster, reachability, routing, servers, site_reach,
    site_rtt,
};
use rootcast::render::TextTable;
use rootcast::{policy_model, sim, Letter, ScenarioConfig};
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let small = args.iter().any(|a| a == "--small");
    let csv_dir: Option<PathBuf> = args
        .iter()
        .position(|a| a == "--csv")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from);

    let cfg = if small {
        ScenarioConfig::small()
    } else {
        ScenarioConfig::nov2015()
    };
    eprintln!(
        "running {} scenario: horizon {}, {} VPs, attack {:.1} Mq/s per letter ...",
        if small { "small" } else { "full Nov-2015" },
        cfg.horizon,
        cfg.fleet.n_vps,
        cfg.attack
            .windows()
            .first()
            .map(|w| w.rate_qps / 1e6)
            .unwrap_or(0.0),
    );
    let t0 = std::time::Instant::now();
    let out = sim::run(&cfg).expect("valid scenario");
    eprintln!("simulation finished in {:.1?}\n", t0.elapsed());

    let mut tables: Vec<(&str, TextTable)> = Vec::new();

    // §2.2 / Figure 2 — the policy model (no simulation needed).
    tables.push((
        "fig2_policy_model",
        policy_model::render_cases(&policy_model::paper_cases()),
    ));

    // Table 2 — reported vs observed sites.
    tables.push(("table2_site_census", site_reach::table2(&out).render()));

    // Table 3 — event size estimation.
    tables.push(("table3_event_size", event_size::table3(&out).render()));

    // Figure 3 — per-letter reachability.
    let fig3 = reachability::figure3(&out);
    tables.push(("fig3_letter_reachability", fig3.render()));

    // Figure 4 — per-letter RTT.
    tables.push(("fig4_letter_rtt", letter_rtt::figure4(&out).render()));

    // Figures 5 & 6 — per-site reachability for E and K.
    for letter in [Letter::E, Letter::K] {
        let tag5: &str = match letter {
            Letter::E => "fig5_sites_e",
            _ => "fig5_sites_k",
        };
        let tag6: &str = match letter {
            Letter::E => "fig6_series_e",
            _ => "fig6_series_k",
        };
        tables.push((tag5, site_reach::figure5(&out, letter).render()));
        tables.push((tag6, site_reach::figure6(&out, letter).render()));
    }

    // Figure 7 — watched-site RTT.
    tables.push(("fig7_site_rtt", site_rtt::figure7(&out).render()));

    // Figure 8 — site flips.
    tables.push(("fig8_site_flips", flips::figure8(&out).render()));

    // Figure 9 — BGP route changes.
    tables.push(("fig9_route_changes", routing::figure9(&out).render()));

    // Figure 10 — flip flows for K-LHR and K-FRA.
    tables.push((
        "fig10_flows_lhr",
        flips::figure10(&out, Letter::K, "LHR").render(),
    ));
    tables.push((
        "fig10_flows_fra",
        flips::figure10(&out, Letter::K, "FRA").render(),
    ));

    // Figure 11 — the VP raster and cohorts.
    let fig11 = raster::figure11(&out, Letter::K, &["LHR", "FRA"], 300).expect("K is rastered");
    tables.push(("fig11_cohorts", fig11.render_cohorts()));

    // Figures 12/13 — per-server behaviour.
    tables.push(("fig12_13_servers", servers::figures12_13(&out).render()));

    // Figures 14/15 — collateral damage.
    tables.push((
        "fig14_collateral_droot",
        collateral::figure14(&out, Letter::D).render(),
    ));
    tables.push(("fig15_collateral_nl", collateral::figure15(&out).render()));

    for (_, table) in &tables {
        println!("{table}\n");
    }

    // A sample of the Figure 11 raster as ASCII art (60 rows).
    println!("=== Figure 11: K-root raster (sample; rows = VPs, cols = 4-min probes) ===");
    println!("legend: lowercase = VP's home site, '.' timeout, 'x' error");
    print!("{}", fig11.render_ascii(60));

    if let Some(dir) = csv_dir {
        std::fs::create_dir_all(&dir).expect("create csv dir");
        for (name, table) in &tables {
            let path = dir.join(format!("{name}.csv"));
            std::fs::write(&path, table.to_csv()).expect("write csv");
        }
        eprintln!("\nwrote {} CSV files to {}", tables.len(), dir.display());
    }

    if let (Some(all), Some(att)) = (&fig3.sites_vs_worst, &fig3.sites_vs_worst_attacked) {
        eprintln!(
            "\nheadline: site-count vs worst reachability R^2 = {:.2} over all letters, \
             {:.2} over attacked letters excl. A (paper: 0.87)",
            all.r_squared, att.r_squared
        );
    }
}
