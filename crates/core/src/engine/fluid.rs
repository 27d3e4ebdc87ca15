//! Fluid traffic windows: the per-minute core of the simulation.
//!
//! Each tick distributes attack + legitimate load over every service's
//! current catchments (fanned out per letter on rayon), pushes it
//! through the shared-facility links and per-site ingress queues, and
//! runs stress policies. The offered loads are published to
//! [`FluidScratch`](crate::engine::FluidScratch) for the accounting
//! subsystem ticking at the same instant.

use crate::engine::metrics::keys;
use crate::engine::trace::TraceEventKind;
use crate::engine::{SimWorld, Subsystem};
use rayon::prelude::*;
use rootcast_anycast::CatchmentIndex;
use rootcast_netsim::{SimDuration, SimTime};

/// The fluid-model subsystem. Carries its cadence plus the per-service
/// catchment indices and scratch buffers the cached tick reuses; the
/// results it produces live in the world (queue states, policy state,
/// scratch).
///
/// The cached tick is serial on purpose: with catchment indices the
/// offered split is O(n_sites) per service — a few hundred flops — far
/// below the cost of fanning tasks out to a thread pool, and a serial
/// loop is trivially deterministic at any thread count. The reference
/// path (`with_reference(true)`) keeps the original uncached rayon
/// fan-out so equivalence tests can pin the two together.
#[derive(Debug)]
pub struct FluidTraffic {
    step: SimDuration,
    reference: bool,
    /// Attack-weight (botnet) index per service.
    atk_idx: Vec<CatchmentIndex>,
    /// Legit-weight (per-letter resolver, or population for `.nl`) index
    /// per service.
    leg_idx: Vec<CatchmentIndex>,
    /// Reusable legitimate-load buffer.
    leg: Vec<f64>,
    /// Per-service, per-site saturation flags from the previous window
    /// (a site is saturated while it drops at the facility or queue),
    /// for onset/clear edge detection.
    saturated: Vec<Vec<bool>>,
}

impl FluidTraffic {
    pub fn new(step: SimDuration) -> FluidTraffic {
        FluidTraffic {
            step,
            reference: false,
            atk_idx: Vec::new(),
            leg_idx: Vec::new(),
            leg: Vec::new(),
            saturated: Vec::new(),
        }
    }

    /// Select the uncached reference implementation (golden tests only).
    pub fn with_reference(mut self, reference: bool) -> FluidTraffic {
        self.reference = reference;
        self
    }
}

impl Subsystem for FluidTraffic {
    fn name(&self) -> &'static str {
        "fluid"
    }

    fn initial_wakeups(&mut self) -> Vec<SimTime> {
        vec![SimTime::ZERO + self.step]
    }

    fn tick(&mut self, world: &mut SimWorld, t: SimTime) -> Vec<SimTime> {
        let cfg = world.cfg;
        let window_start = world.fluid.last_fluid;
        let dt = t - window_start;

        // 1. Offered load per service/site under current ribs, into last
        // window's buffers (reclaimed from the world scratch; empty only
        // on the first tick).
        let n = world.services.len();
        let mut offered = std::mem::take(&mut world.fluid.offered);
        let mut offered_attack = std::mem::take(&mut world.fluid.offered_attack);

        if self.reference {
            // Reference path: uncached, one rayon task per service.
            let (services, botnet, legit_weights, pop_weights, legit_shares) = (
                &world.services,
                &world.botnet,
                &world.legit_weights,
                &world.pop_weights,
                &world.legit_shares,
            );
            let loads: Vec<(Vec<f64>, Vec<f64>)> = (0..services.len())
                .into_par_iter()
                .map(|i| {
                    let svc = &services[i];
                    if let Some(letter) = svc.letter {
                        let atk_rate = cfg.attack.rate_for(letter, window_start);
                        let atk = svc.offered_per_site(botnet.weights(), atk_rate);
                        let leg = svc.offered_per_site(
                            &legit_weights[i],
                            cfg.legit_total_qps * legit_shares[letter as usize],
                        );
                        let sum: Vec<f64> = atk.iter().zip(&leg).map(|(a, b)| a + b).collect();
                        (atk, sum)
                    } else {
                        let leg = svc.offered_per_site(pop_weights, cfg.nl_qps);
                        (vec![0.0; leg.len()], leg)
                    }
                })
                .collect();
            let unzipped: (Vec<_>, Vec<_>) = loads.into_iter().unzip();
            offered_attack = unzipped.0;
            offered = unzipped.1;
        } else {
            // Cached path: per-site weight sums keyed on (catchment
            // epoch, weight version) make each split O(n_sites); the
            // fills share their arithmetic with `offered_per_site`, so
            // the loads are bit-identical to the reference path.
            offered.resize_with(n, Vec::new);
            offered_attack.resize_with(n, Vec::new);
            self.atk_idx.resize_with(n, Default::default);
            self.leg_idx.resize_with(n, Default::default);
            let (mut hits, mut rebuilds) = (0u64, 0u64);
            let mut note = |rebuilt: bool| {
                if rebuilt {
                    rebuilds += 1;
                } else {
                    hits += 1;
                }
            };
            for i in 0..n {
                let svc = &world.services[i];
                let atk_out = &mut offered_attack[i];
                let out = &mut offered[i];
                if let Some(letter) = svc.letter {
                    let atk_rate = cfg.attack.rate_for(letter, window_start);
                    note(svc.refresh_catchment_index(
                        &mut self.atk_idx[i],
                        world.botnet.weights(),
                        1,
                    ));
                    self.atk_idx[i].offered_per_site_into(atk_rate, atk_out);
                    note(svc.refresh_catchment_index(
                        &mut self.leg_idx[i],
                        &world.legit_weights[i],
                        world.legit_weights_version,
                    ));
                    self.leg_idx[i].offered_per_site_into(
                        cfg.legit_total_qps * world.legit_shares[letter as usize],
                        &mut self.leg,
                    );
                    out.clear();
                    out.extend(atk_out.iter().zip(&self.leg).map(|(a, b)| a + b));
                } else {
                    note(svc.refresh_catchment_index(&mut self.leg_idx[i], &world.pop_weights, 1));
                    self.leg_idx[i].offered_per_site_into(cfg.nl_qps, out);
                    atk_out.clear();
                    atk_out.resize(out.len(), 0.0);
                }
            }
            world.metrics.inc(keys::CATCHMENT_INDEX_HITS, hits);
            world.metrics.inc(keys::CATCHMENT_INDEX_REBUILDS, rebuilds);
        }
        world.metrics.inc(keys::FLUID_WINDOWS, 1);

        // 2. Facility links first (shared risk), then site queues.
        for (svc, off) in world.services.iter().zip(&offered) {
            svc.stage_facility_load(off, &mut world.facility_table);
        }
        world.facility_table.advance(t);
        for (svc, off) in world.services.iter_mut().zip(&offered) {
            svc.advance_queues(t, off, &world.facility_table);
        }

        // Conservation audit (debug builds): per site, every offered
        // query is either dropped at the shared facility, dropped at the
        // site queue, or served — nothing is created or lost between the
        // offered split and the loss fields the accounting reads.
        #[cfg(debug_assertions)]
        for (svc, off) in world.services.iter().zip(&offered) {
            for (site, &offered_qps) in svc.sites().iter().zip(off) {
                assert!(
                    offered_qps.is_finite() && offered_qps >= 0.0,
                    "site {}: offered load {offered_qps} is not a finite non-negative rate",
                    site.spec.code
                );
                assert!(
                    site.offered_qps == offered_qps,
                    "site {}: queue advanced with {} q/s but the window offered {offered_qps} q/s",
                    site.spec.code,
                    site.offered_qps
                );
                let fac_dropped = offered_qps * site.facility_loss;
                let queue_dropped = (offered_qps - fac_dropped) * site.last_loss;
                let served = offered_qps * (1.0 - site.facility_loss) * (1.0 - site.last_loss);
                let balance = fac_dropped + queue_dropped + served;
                assert!(
                    (balance - offered_qps).abs() <= 1e-9 * offered_qps.max(1.0),
                    "site {}: offered {offered_qps} q/s but accounted {balance} q/s \
                     (facility drop {fac_dropped} + queue drop {queue_dropped} + served {served})",
                    site.spec.code
                );
            }
        }

        // Saturation edges: a site is saturated while it drops queries
        // at the shared facility or its own ingress queue. Onsets and
        // clears are counted, traced, and the live count gauged.
        self.saturated.resize_with(world.services.len(), Vec::new);
        for (i, svc) in world.services.iter().enumerate() {
            let prev = &mut self.saturated[i];
            prev.resize(svc.sites().len(), false);
            for (s, site) in svc.sites().iter().enumerate() {
                let sat = site.facility_loss > 0.0 || site.last_loss > 0.0;
                if sat != prev[s] {
                    let key = if sat {
                        keys::SITE_SATURATION_ONSETS
                    } else {
                        keys::SITE_SATURATION_CLEARS
                    };
                    world.metrics.inc(key, 1);
                    world.trace.record_with(t, || {
                        let service = svc.name.clone();
                        let code = site.spec.code.clone();
                        if sat {
                            TraceEventKind::SiteSaturationOnset {
                                service,
                                site: code,
                            }
                        } else {
                            TraceEventKind::SiteSaturationClear {
                                service,
                                site: code,
                            }
                        }
                    });
                    prev[s] = sat;
                }
            }
        }
        let live: usize = self
            .saturated
            .iter()
            .map(|v| v.iter().filter(|&&s| s).count())
            .sum();
        world.metrics.set_gauge(keys::SITES_SATURATED, live as f64);

        // Per-letter load and queue-depth instrumentation.
        for (i, svc) in world.services.iter().enumerate() {
            if svc.letter.is_none() {
                continue;
            }
            let offered_total: f64 = offered[i].iter().sum();
            let served_total: f64 = svc.served_total();
            world
                .metrics
                .max_gauge(keys::PEAK_OFFERED_QPS, offered_total);
            if offered_total > 0.0 {
                let ratio = served_total / offered_total;
                world.metrics.min_gauge(keys::WORST_SERVED_RATIO, ratio);
                world.metrics.observe(keys::SERVED_RATIO, ratio);
            }
            for site in svc.sites() {
                let delay = site.queue_delay();
                if !delay.is_zero() {
                    world
                        .metrics
                        .observe(keys::QUEUE_DELAY_MS, delay.as_secs_f64() * 1e3);
                }
            }
        }

        // 3. Stress policies; observe routing changes.
        for i in 0..world.services.len() {
            let changes = {
                let svc = &mut world.services[i];
                svc.apply_policies(t, &world.graph)
            };
            if !changes.is_empty() {
                world
                    .metrics
                    .inc(keys::POLICY_TRANSITIONS, changes.len() as u64);
                if let Some(letter) = world.services[i].letter {
                    world
                        .trace
                        .record_with(t, || TraceEventKind::PolicyTransition {
                            letter: (b'A' + letter as u8) as char,
                            changes: changes.len(),
                        });
                }
                world.observe_routes(t, i);
            }
        }

        // Publish this window for the accounting subsystems.
        world.fluid.offered = offered;
        world.fluid.offered_attack = offered_attack;
        world.fluid.window_start = window_start;
        world.fluid.dt = dt;
        world.fluid.last_fluid = t;

        vec![t + self.step]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScenarioConfig;
    use crate::engine::instrument::NoopInstrumentation;
    use rootcast_netsim::SimRng;

    #[test]
    fn tick_publishes_scratch_and_fills_queues() {
        let mut cfg = ScenarioConfig::small();
        cfg.horizon = SimTime::from_mins(10);
        cfg.pipeline.horizon = cfg.horizon;
        let rngf = SimRng::new(cfg.seed);
        let mut obs = NoopInstrumentation;
        let mut world = SimWorld::build(&cfg, &rngf, &mut obs).expect("world builds");
        let mut fluid = FluidTraffic::new(cfg.fluid_step);

        let t = SimTime::ZERO + cfg.fluid_step;
        let next = fluid.tick(&mut world, t);
        assert_eq!(next, vec![t + cfg.fluid_step]);
        assert_eq!(world.fluid.last_fluid, t);
        assert_eq!(world.fluid.window_start, SimTime::ZERO);
        assert_eq!(world.fluid.dt, cfg.fluid_step);
        assert_eq!(world.fluid.offered.len(), world.services.len());
        // No attack at t=0, so offered loads are purely legitimate:
        // every letter's total is positive and attack components zero.
        for (i, svc) in world.services.iter().enumerate() {
            let total: f64 = world.fluid.offered[i].iter().sum();
            assert!(total > 0.0, "service {i} got no load");
            if svc.letter.is_some() {
                assert!(world.fluid.offered_attack[i].iter().all(|&a| a == 0.0));
            }
        }
    }

    #[test]
    fn cached_and_reference_ticks_are_bit_identical() {
        let mut cfg = ScenarioConfig::small();
        cfg.horizon = SimTime::from_mins(10);
        cfg.pipeline.horizon = cfg.horizon;
        let rngf = SimRng::new(cfg.seed);
        let run = |reference: bool| {
            let mut obs = NoopInstrumentation;
            let mut world = SimWorld::build(&cfg, &rngf, &mut obs).expect("world builds");
            let mut fluid = FluidTraffic::new(cfg.fluid_step).with_reference(reference);
            let mut t = SimTime::ZERO;
            for _ in 0..5 {
                t += cfg.fluid_step;
                fluid.tick(&mut world, t);
            }
            (
                world.fluid.offered.clone(),
                world.fluid.offered_attack.clone(),
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn offered_split_is_deterministic_across_thread_counts() {
        let mut cfg = ScenarioConfig::small();
        cfg.horizon = SimTime::from_mins(5);
        cfg.pipeline.horizon = cfg.horizon;
        let rngf = SimRng::new(cfg.seed);

        let run_once = |threads: usize| -> Vec<Vec<f64>> {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            pool.install(|| {
                let mut obs = NoopInstrumentation;
                let mut world = SimWorld::build(&cfg, &rngf, &mut obs).expect("world builds");
                let mut fluid = FluidTraffic::new(cfg.fluid_step);
                fluid.tick(&mut world, SimTime::ZERO + cfg.fluid_step);
                world.fluid.offered.clone()
            })
        };
        assert_eq!(run_once(1), run_once(4));
    }
}
