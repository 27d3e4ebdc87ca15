//! The sweep engine's two contracts, end to end:
//!
//! 1. **Determinism** — a sweep over N scenarios is bit-identical to N
//!    independent `run` calls on the resolved configs (same derived
//!    seeds), shared substrate or not, at any thread count.
//! 2. **Resume** — a checkpointed sweep stopped partway picks up
//!    exactly where it left off: completed runs are loaded from the
//!    manifest (not re-executed) and the final report matches an
//!    uninterrupted sweep, even with a corrupted manifest line in the
//!    way.
//!
//! Plus the thread budget the sweep's nested fan-out relies on: each
//! run inside the sweep's workers starts one probe-lane helper per
//! thread of its share beyond its own, and must stay within the
//! sweep's pool.

use rayon::prelude::*;
use rootcast::{
    output_digest, run, run_sweep, run_sweep_with, ConfigPatch, Letter, ScenarioConfig, SeedMode,
    SimTime, SiteOverride, SiteTuning, SweepAxis, SweepOptions, SweepPlan, SweepRun,
};
use std::path::PathBuf;

fn base() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::small();
    // Short horizon: these tests exercise sweep plumbing, not the
    // event-window analysis (tier-1 covers that on the full small run).
    cfg.horizon = SimTime::from_hours(2);
    cfg.pipeline.horizon = cfg.horizon;
    cfg
}

fn grid() -> SweepPlan {
    SweepPlan::grid(
        "itest",
        base(),
        &[
            SweepAxis::new(
                "legit",
                vec![
                    ("low", ConfigPatch::none().with_legit_total_qps(200_000.0)),
                    ("base", ConfigPatch::none()),
                ],
            ),
            SweepAxis::new(
                "klhr",
                vec![
                    ("base", ConfigPatch::none()),
                    (
                        "thin",
                        ConfigPatch::none().with_site_override(SiteOverride::new(
                            Letter::K,
                            "LHR",
                            SiteTuning::none().with_capacity(20_000.0),
                        )),
                    ),
                ],
            ),
        ],
    )
}

fn manifest_path(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("rootcast-sweep-{tag}-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

#[test]
fn sweep_is_bit_identical_to_independent_runs() {
    let plan = grid();
    let report = run_sweep(&plan).expect("sweep runs");
    assert_eq!(report.records.len(), 4);
    // Shared seed mode: one substrate serves all four variants.
    assert_eq!(report.n_substrates, 1);
    for (i, rec) in report.records.iter().enumerate() {
        let cfg = plan.resolve(i);
        assert_eq!(rec.seed, cfg.seed, "record must carry the resolved seed");
        let standalone = run(&cfg).expect("standalone run");
        assert_eq!(
            rec.output_digest,
            output_digest(&standalone),
            "sweep run {:?} diverged from a standalone run of its config",
            rec.label
        );
    }
}

#[test]
fn per_run_seeds_replicate_like_independent_runs() {
    // PerRun mode re-derives the whole world per label, so each run is
    // its own shard. The small() topology is tuned to the canonical
    // seed — deployment wants every paper city hosted — so the
    // replication base enlarges it enough that arbitrary derived seeds
    // hold all sites.
    let mut cfg = base();
    cfg.topology.n_tier2 = 60;
    cfg.topology.n_stub = 1200;
    let plan = SweepPlan::explicit(
        "replicate",
        cfg,
        vec![
            SweepRun::new("a", ConfigPatch::none()),
            SweepRun::new("b", ConfigPatch::none()),
        ],
    )
    .with_seed_mode(SeedMode::PerRun);
    let report = run_sweep(&plan).expect("sweep runs");
    assert_eq!(report.n_substrates, 2, "one shard per derived seed");
    for (i, rec) in report.records.iter().enumerate() {
        let cfg = plan.resolve(i);
        assert_eq!(rec.seed, plan.derived_seed(&plan.runs[i].label));
        let standalone = run(&cfg).expect("standalone run");
        assert_eq!(
            rec.output_digest,
            output_digest(&standalone),
            "replicate run {:?} diverged from a standalone run",
            rec.label
        );
    }
}

#[test]
fn shared_substrate_matches_naive_rebuild() {
    let plan = grid();
    let shared = run_sweep(&plan).expect("shared sweep");
    // Shared seed mode: one substrate serves all four variants.
    assert_eq!(shared.n_substrates, 1);
    // The naive loop: every run builds its own substrate.
    for (i, rec) in shared.records.iter().enumerate() {
        let naive = run(&plan.resolve(i)).expect("naive run");
        assert_eq!(
            rec.output_digest,
            output_digest(&naive),
            "substrate sharing changed the output of {:?}",
            rec.label
        );
    }
}

#[test]
fn checkpointed_sweep_resumes_without_rerunning() {
    let plan = grid();
    let path = manifest_path("resume");
    let full = run_sweep(&plan).expect("reference sweep");

    // "Kill" the sweep after two runs: cooperative stop, deterministic
    // regardless of thread timing.
    let partial = run_sweep_with(
        &plan,
        &SweepOptions {
            checkpoint: Some(path.clone()),
            stop_after: Some(2),
        },
    )
    .expect("partial sweep");
    assert!(partial.is_partial());
    assert_eq!(partial.records.len(), 2);
    assert_eq!(partial.pending.len(), 2);
    assert_eq!(partial.n_resumed, 0);

    // A torn write from the kill must not poison the manifest.
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .expect("manifest exists");
        writeln!(f, "{{\"label\":\"torn").expect("append");
    }

    // Resume: the two completed runs load from the manifest, the other
    // two execute, and the result matches the uninterrupted sweep.
    let resumed = run_sweep_with(
        &plan,
        &SweepOptions {
            checkpoint: Some(path.clone()),
            ..SweepOptions::default()
        },
    )
    .expect("resumed sweep");
    assert!(!resumed.is_partial());
    assert_eq!(resumed.n_resumed, 2, "completed runs must not re-run");
    for (a, b) in resumed.records.iter().zip(&full.records) {
        assert_eq!(a.label, b.label);
        assert_eq!(
            a.output_digest, b.output_digest,
            "resume changed the output of {:?}",
            a.label
        );
        assert_eq!(a.headline, b.headline);
        assert_eq!(a.counters, b.counters, "rollup inputs must survive resume");
    }
    assert_eq!(
        resumed.rollup.counters, full.rollup.counters,
        "sweep-level rollup must be resume-stable"
    );

    // A third pass finds everything done.
    let done = run_sweep_with(
        &plan,
        &SweepOptions {
            checkpoint: Some(path.clone()),
            ..SweepOptions::default()
        },
    )
    .expect("no-op sweep");
    assert_eq!(done.n_resumed, 4);
    assert_eq!(done.n_substrates, 0, "nothing pending, nothing built");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn changed_config_invalidates_only_its_manifest_entry() {
    let path = manifest_path("invalidate");
    let plan = SweepPlan::explicit(
        "inval",
        base(),
        vec![
            SweepRun::new("a", ConfigPatch::none()),
            SweepRun::new("b", ConfigPatch::none().with_legit_total_qps(150_000.0)),
        ],
    );
    let opts = SweepOptions {
        checkpoint: Some(path.clone()),
        ..SweepOptions::default()
    };
    let first = run_sweep_with(&plan, &opts).expect("first sweep");
    assert_eq!(first.n_resumed, 0);

    // Change run b's patch: its config hash moves, a's stays.
    let plan2 = SweepPlan::explicit(
        "inval",
        base(),
        vec![
            SweepRun::new("a", ConfigPatch::none()),
            SweepRun::new("b", ConfigPatch::none().with_legit_total_qps(175_000.0)),
        ],
    );
    let second = run_sweep_with(&plan2, &opts).expect("second sweep");
    assert_eq!(second.n_resumed, 1, "only the unchanged run resumes");
    assert_eq!(
        first.records[0].output_digest,
        second.records[0].output_digest
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn nested_fan_outs_stay_within_the_pool() {
    // Each worker, the caller included, sees its share,
    // max(1, n / workers), of the pool's n threads, so the probe lanes
    // of a run nested inside a parallel sweep never multiply the
    // thread count.
    let seen = |threads: usize, items: usize| -> Vec<usize> {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool")
            .install(|| {
                (0..items)
                    .into_par_iter()
                    .map(|_| rayon::current_num_threads())
                    .collect()
            })
    };
    assert_eq!(seen(4, 2), vec![2, 2]);
    assert_eq!(seen(2, 12), vec![1; 12]);
    // A single item runs inline with the caller's count.
    assert_eq!(seen(3, 1), vec![3]);
}
