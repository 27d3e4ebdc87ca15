//! The traced run: per-layer metrics from spans recorded around calls
//! into each layer's public functions, plus exact counts read from an
//! untraced run of the same scenarios.
//!
//! The engine is driven here rather than through `sim::run`: the
//! benchmark builds `SimWorld::from_substrate`, wraps each of the six
//! production subsystems in [`Timed`], calls `engine::drive` and
//! `pipeline.finalize()` itself. That copies the subsystem list of
//! `sim::drive_world`; the fidelity check below fails the benchmark if
//! the copy drifts from the library.

use crate::analysis::{
    check_finite, check_paper_shape, k_ams_norms, regenerate, render_report, STEPS,
};
use crate::spans::{span, Recorder, SharedRecorder, Timed};
use crate::stats::{median, quantile, ratio, Tally};
use crate::untraced::{check_digest, check_report, timed};
use crate::workloads::{run_pinned_sweep, Workload, PAPER_SEED, SWEEP_THREADS};
use crate::Metrics;
use rootcast::engine::{
    drive, FaultInjector, FluidTraffic, MaintenanceChurn, NoopInstrumentation, ProbeWheel,
    ResolverRefresh, RssacAccounting, SimWorld,
};
use rootcast::{
    nl_deployment, nov2015_deployments, output_digest, sim, ScenarioConfig, Substrate, Subsystem,
};
use rootcast_anycast::AnycastService;
use rootcast_atlas::VpFleet;
use rootcast_attack::Botnet;
use rootcast_netsim::SimRng;
use rootcast_topology::gen;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::rc::Rc;

/// The production subsystems, in `sim::drive_world`'s seeding order.
const SUBSYSTEMS: [&str; 6] = [
    "fluid",
    "rssac",
    "probes",
    "resolvers",
    "maintenance",
    "faults",
];

/// Only subsystems with at least this many ticks on every workload
/// report a p90 (ten samples beyond it).
const P90_SUBSYSTEMS: [&str; 3] = ["fluid", "rssac", "probes"];

/// Counters `sim::drive_world` settles after `finalize` from state
/// outside the registry; the traced drive does not settle them, so the
/// fidelity check skips them.
const SETTLED_AFTER_DRIVE: [&str; 7] = [
    "probes.outcome.site",
    "probes.outcome.timeout",
    "probes.outcome.error",
    "probes.outcome.missed",
    "bgp.scratch.reuses",
    "bgp.scratch.allocs",
    "trace.events_dropped",
];

/// Exact counts read from the untraced outputs.
const COUNTS: [&str; 11] = [
    "probes.fused",
    "probes.outcome.site",
    "fluid.windows",
    "fluid.policy_transitions",
    "fluid.catchment_index.hits",
    "fluid.catchment_index.rebuilds",
    "bgp.route_recomputes",
    "bgp.changed_ases",
    "bgp.scratch.reuses",
    "resolvers.refreshes",
    "maintenance.withdrawals",
];

/// Substrate builds per layer; each layer reports the median.
const SUBSTRATE_REPS: usize = 3;

/// Analysis passes; each builder reports the median.
const ANALYSIS_REPS: usize = 3;

pub struct Traced {
    pub metrics: Metrics,
    pub spans: SharedRecorder,
}

pub fn run(workload: Workload, seed: u64, tally: &mut Tally) -> Traced {
    let rec: SharedRecorder = Rc::new(RefCell::new(Recorder::new()));
    let plan = workload.sweep_plan(seed);
    let cfg = workload.base_config(seed);
    let substrate = span(&rec, "substrate", || substrate_layers(&cfg, &rec));

    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut untraced_s = 0.0;
    let mut sweep_metrics = [0.0; 4];
    let mut k_ams_max = 0.0;
    match &plan {
        None => {
            let scenario = tally.attempt();
            let (result, dt) = timed(|| sim::run_with_substrate(&cfg, &substrate));
            untraced_s = dt;
            match result {
                Ok(out) => {
                    let d = output_digest(&out);
                    check_digest(tally, scenario, workload, seed, "-", d);
                    let traced = span(&rec, "engine.run", || drive_traced(&cfg, &substrate, &rec));
                    check_fidelity(tally, scenario, &out.metrics.counters, &traced);
                    counts = out.metrics.counters.iter().cloned().collect();
                    analysis_layers(&out, &rec, tally, scenario);
                    k_ams_max = k_ams_norms(&out).map_or(0.0, |(_, max)| max);
                    if workload == Workload::PaperCanonical && seed == PAPER_SEED {
                        if let Err(e) = check_paper_shape(&out) {
                            tally.fail(scenario, e);
                        }
                    }
                }
                Err(e) => tally.fail(scenario, format!("run failed: {e}")),
            }
        }
        Some(plan) => {
            let scenarios: Vec<u64> = plan.runs.iter().map(|_| tally.attempt()).collect();
            let (result, sweep_s) = timed(|| run_pinned_sweep(plan));
            match result {
                Ok(report) => {
                    check_report(tally, &scenarios, workload, seed, plan, &report);
                    let walls: Vec<f64> = report.records.iter().map(|r| r.wall_ms).collect();
                    let wall_sum: f64 = walls.iter().sum();
                    untraced_s = wall_sum / 1e3;
                    sweep_metrics = [
                        report.n_substrates as f64,
                        report.records.len() as f64,
                        median(&walls),
                        ratio(wall_sum / 1e3, sweep_s * SWEEP_THREADS as f64),
                    ];
                    // Drive each run with the threads the untraced sweep had.
                    let pool = rayon::ThreadPoolBuilder::new()
                        .num_threads(SWEEP_THREADS)
                        .build()
                        .expect("thread pool");
                    for (i, rec_i) in report.records.iter().enumerate() {
                        let run_cfg = plan.resolve(i);
                        let traced = span(&rec, "engine.run", || {
                            pool.install(|| drive_traced(&run_cfg, &substrate, &rec))
                        });
                        check_fidelity(tally, scenarios[i], &rec_i.counters, &traced);
                    }
                    counts = report.rollup.counters.iter().cloned().collect();
                    let mut rendered = String::new();
                    for _ in 0..ANALYSIS_REPS {
                        rendered = span(&rec, "analysis", || render_report(&report));
                    }
                    if let Err(e) = check_finite(&[rendered]) {
                        tally.fail(scenarios[0], e);
                    }
                }
                Err(e) => {
                    for &s in &scenarios {
                        tally.fail(s, format!("sweep failed: {e}"));
                    }
                }
            }
        }
    }

    let metrics = layer_metrics(
        &rec.borrow(),
        &counts,
        untraced_s,
        sweep_metrics,
        k_ams_max,
        tally,
    );
    Traced {
        metrics,
        spans: rec,
    }
}

/// Time each substrate layer through its public builder, then the
/// whole `Substrate::build`; return the last substrate built.
fn substrate_layers(cfg: &ScenarioConfig, rec: &SharedRecorder) -> Substrate {
    let mut substrate = None;
    for _ in 0..SUBSTRATE_REPS {
        let rng = SimRng::new(cfg.seed);
        let graph = span(rec, "topology.generate_s", || {
            gen::generate(&cfg.topology, &rng)
        });
        span(rec, "anycast.baseline_ribs_s", || {
            let mut services: Vec<AnycastService> = nov2015_deployments(&graph)
                .into_iter()
                .map(|d| {
                    AnycastService::new(
                        &format!("{}-root", d.letter),
                        Some(d.letter),
                        &graph,
                        d.sites,
                    )
                })
                .collect();
            if cfg.include_nl {
                services.push(AnycastService::new(
                    ".nl anycast",
                    None,
                    &graph,
                    nl_deployment(&graph),
                ));
            }
            black_box(services)
        });
        span(rec, "attack.botnet_s", || {
            black_box(Botnet::generate(&graph, cfg.botnet.clone(), &rng))
        });
        span(rec, "atlas.fleet_s", || {
            black_box(VpFleet::generate(&graph, &cfg.fleet, &rng))
        });
        substrate = Some(span(rec, "core.substrate_s", || Substrate::build(cfg)));
    }
    substrate.expect("at least one substrate rep")
}

/// Drive one scenario with every subsystem timed; return the counters
/// the drive fed into the world's registry.
fn drive_traced(
    cfg: &ScenarioConfig,
    substrate: &Substrate,
    rec: &SharedRecorder,
) -> Result<Vec<(String, u64)>, String> {
    let rng = SimRng::new(cfg.seed);
    let mut obs = NoopInstrumentation;
    let mut world = span(rec, "core.from_substrate_s", || {
        SimWorld::from_substrate(cfg, &rng, substrate, &mut obs)
    })
    .map_err(|e| format!("from_substrate: {e}"))?;
    let mut subsystems: Vec<Box<dyn Subsystem>> = vec![
        Box::new(FluidTraffic::new(cfg.fluid_step).with_reference(cfg.reference_kernels)),
        Box::new(RssacAccounting::new(cfg)),
        Box::new(ProbeWheel::new(&world)),
        Box::new(ResolverRefresh::new(cfg.resolver_update)),
        Box::new(MaintenanceChurn::new(
            rng.stream("maintenance"),
            cfg.maintenance_mean,
        )),
        Box::new(FaultInjector::new(rng.stream("faults"), cfg.faults.clone())),
    ];
    subsystems = subsystems
        .into_iter()
        .map(|s| Timed::boxed(s, rec))
        .collect();
    span(rec, "engine.drive_s", || {
        drive(&mut world, &mut subsystems, cfg.horizon)
    });
    span(rec, "atlas.finalize_s", || world.pipeline.finalize());
    Ok(world.metrics.snapshot().counters)
}

/// Every counter the drive feeds must equal the untraced run's value.
fn check_fidelity(
    tally: &mut Tally,
    scenario: u64,
    untraced: &[(String, u64)],
    traced: &Result<Vec<(String, u64)>, String>,
) {
    let traced = match traced {
        Ok(t) => t,
        Err(e) => return tally.fail(scenario, format!("traced drive failed: {e}")),
    };
    let want: BTreeMap<&str, u64> = untraced.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    for (name, got) in traced {
        if SETTLED_AFTER_DRIVE.contains(&name.as_str()) {
            continue;
        }
        if want.get(name.as_str()) != Some(got) {
            tally.fail(
                scenario,
                format!(
                    "traced drive diverged: {name} = {got}, untraced {:?}; \
                     the benchmark's subsystem list no longer matches sim::drive_world",
                    want.get(name.as_str())
                ),
            );
        }
    }
}

/// Time each analysis builder over `out`, `ANALYSIS_REPS` times.
fn analysis_layers(
    out: &rootcast::SimOutput,
    rec: &SharedRecorder,
    tally: &mut Tally,
    scenario: u64,
) {
    for _ in 0..ANALYSIS_REPS {
        let result = span(rec, "analysis", || {
            regenerate(out, &mut |name, build| span(rec, name, build))
        });
        match result {
            Ok(r) => {
                if let Err(e) = check_finite(&r) {
                    return tally.fail(scenario, e);
                }
            }
            Err(e) => return tally.fail(scenario, e),
        }
    }
}

/// Derive every per-layer metric from the spans and the counts.
fn layer_metrics(
    rec: &Recorder,
    counts: &BTreeMap<String, u64>,
    untraced_s: f64,
    sweep: [f64; 4],
    k_ams_max: f64,
    tally: &Tally,
) -> Metrics {
    let sum = |name: &str| rec.durations(name).iter().sum::<f64>();
    let med = |name: &str| median(&rec.durations(name));
    let count = |name: &str| counts.get(name).copied().unwrap_or(0) as f64;
    let mut m = Metrics::default();

    for name in [
        "topology.generate_s",
        "anycast.baseline_ribs_s",
        "attack.botnet_s",
        "atlas.fleet_s",
        "core.substrate_s",
    ] {
        m.put(name, med(name), "s");
    }
    let from_substrate = sum("core.from_substrate_s");
    let drive = sum("engine.drive_s");
    let finalize = sum("atlas.finalize_s");
    m.put("core.from_substrate_s", from_substrate, "s");

    let mut busy_total = 0.0;
    let mut busy = BTreeMap::new();
    for sub in SUBSYSTEMS {
        let ticks_us: Vec<f64> = rec
            .durations(&format!("engine.{sub}.tick"))
            .iter()
            .map(|s| s * 1e6)
            .collect();
        let b = ticks_us.iter().sum::<f64>() * 1e-6 + sum(&format!("engine.{sub}.finish"));
        busy_total += b;
        busy.insert(sub, b);
        m.put(&format!("engine.{sub}.busy_s"), b, "s");
        m.put(
            &format!("engine.{sub}.ticks"),
            ticks_us.len() as f64,
            "count",
        );
        m.put(
            &format!("engine.{sub}.tick_us.p50"),
            quantile(&ticks_us, 0.5),
            "us",
        );
        if P90_SUBSYSTEMS.contains(&sub) {
            m.put(
                &format!("engine.{sub}.tick_us.p90"),
                quantile(&ticks_us, 0.9),
                "us",
            );
        }
    }
    m.put("engine.drive_s", drive, "s");
    m.put("engine.sched_s", drive - busy_total, "s");
    m.put("atlas.finalize_s", finalize, "s");
    m.put(
        "engine.trace_overhead",
        ratio(from_substrate + drive + finalize, untraced_s),
        "ratio",
    );

    m.put(
        "engine.probes.ns_per_probe",
        ratio(busy["probes"] * 1e9, count("probes.fused")),
        "ns",
    );
    m.put(
        "engine.fluid.us_per_window",
        ratio(busy["fluid"] * 1e6, count("fluid.windows")),
        "us",
    );
    m.put(
        "engine.resolvers.ms_per_refresh",
        ratio(busy["resolvers"] * 1e3, count("resolvers.refreshes")),
        "ms",
    );

    for name in COUNTS {
        m.put(name, count(name), "count");
    }
    let hits = count("fluid.catchment_index.hits");
    m.put(
        "fluid.catchment_index.hit_ratio",
        ratio(hits, hits + count("fluid.catchment_index.rebuilds")),
        "ratio",
    );
    let reuses = count("bgp.scratch.reuses");
    m.put(
        "bgp.scratch.reuse_ratio",
        ratio(reuses, reuses + count("bgp.scratch.allocs")),
        "ratio",
    );
    let outcomes: f64 = [
        "probes.outcome.site",
        "probes.outcome.timeout",
        "probes.outcome.error",
        "probes.outcome.missed",
    ]
    .iter()
    .map(|n| count(n))
    .sum();
    m.put(
        "probes.site_ratio",
        ratio(count("probes.outcome.site"), outcomes),
        "ratio",
    );

    for name in STEPS {
        m.put(name, med(name), "s");
    }
    m.put("analysis.total_s", med("analysis"), "s");
    m.put("analysis.k_ams_max_over_median", k_ams_max, "ratio");

    let [substrates, runs, run_ms_p50, efficiency] = sweep;
    m.put("sweep.substrates", substrates, "count");
    m.put("sweep.runs", runs, "count");
    m.put("sweep.run_ms.p50", run_ms_p50, "ms");
    m.put("sweep.parallel_efficiency", efficiency, "ratio");

    m.put(
        "failed_share",
        ratio(tally.failed() as f64, tally.attempted as f64),
        "ratio",
    );
    m
}
