//! Grid sweep driver: a 3×2 scenario grid (K-LHR capacity × attack
//! rate) over one shared substrate, with checkpoint/resume wired to the
//! environment so CI can kill a sweep partway and prove it resumes.
//!
//! ```text
//! cargo run --release --example sweep_grid
//!
//! # checkpointed, stopping after 2 runs (the CI smoke job's "kill"):
//! SWEEP_CHECKPOINT=/tmp/sweep.jsonl SWEEP_STOP_AFTER=2 \
//!     cargo run --release --example sweep_grid
//! # ...then resume the rest:
//! SWEEP_CHECKPOINT=/tmp/sweep.jsonl cargo run --release --example sweep_grid
//! ```
//!
//! Environment:
//! * `SWEEP_CHECKPOINT` — JSONL manifest path; completed runs are
//!   appended and reloaded on the next invocation.
//! * `SWEEP_STOP_AFTER` — execute at most N pending runs, then exit
//!   reporting the rest as pending (exit code 2, so scripts can tell a
//!   partial sweep from a finished one). A value that is not a count
//!   is an error (exit code 1).
//! * `SWEEP_CSV` — write the comparison table as CSV to this path.

use rootcast::{
    run_sweep_with, AttackSchedule, ConfigPatch, Letter, ScenarioConfig, SimTime, SiteOverride,
    SiteTuning, SweepAxis, SweepOptions, SweepPlan,
};

fn cap(qps: f64) -> ConfigPatch {
    ConfigPatch::none().with_site_override(SiteOverride::new(
        Letter::K,
        "LHR",
        SiteTuning::none().with_capacity(qps),
    ))
}

fn main() {
    let mut base = ScenarioConfig::small();
    // The smoke grid only needs the first hours of event 1: keep each
    // run cheap so a 6-scenario sweep stays CI-sized.
    base.horizon = SimTime::from_hours(8);
    base.pipeline.horizon = base.horizon;

    let plan = SweepPlan::grid(
        "klhr-capacity-vs-rate",
        base,
        &[
            SweepAxis::new(
                "klhr_cap",
                vec![
                    ("base", ConfigPatch::none()),
                    ("half", cap(50_000.0)),
                    ("tenth", cap(10_000.0)),
                ],
            ),
            SweepAxis::new(
                "rate",
                vec![
                    (
                        "2M",
                        ConfigPatch::none().with_attack(AttackSchedule::nov2015(2_000_000.0)),
                    ),
                    (
                        "5M",
                        ConfigPatch::none().with_attack(AttackSchedule::nov2015(5_000_000.0)),
                    ),
                ],
            ),
        ],
    );

    let stop_after = match std::env::var_os("SWEEP_STOP_AFTER") {
        None => None,
        Some(v) => match v.to_str().and_then(|s| s.parse().ok()) {
            Some(n) => Some(n),
            None => {
                eprintln!("SWEEP_STOP_AFTER must be a run count, got {v:?}");
                std::process::exit(1);
            }
        },
    };
    let opts = SweepOptions {
        checkpoint: std::env::var_os("SWEEP_CHECKPOINT").map(Into::into),
        stop_after,
    };
    let report = match run_sweep_with(&plan, &opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("sweep failed: {e}");
            std::process::exit(1);
        }
    };

    print!("{}", report.render());
    println!(
        "substrates built: {}  resumed from checkpoint: {}",
        report.n_substrates, report.n_resumed
    );

    if let Ok(path) = std::env::var("SWEEP_CSV") {
        if let Err(e) = std::fs::write(&path, report.to_csv()) {
            eprintln!("writing {path}: {e}");
            std::process::exit(1);
        }
        println!("comparison CSV written to {path}");
    }

    if report.is_partial() {
        std::process::exit(2);
    }
}
