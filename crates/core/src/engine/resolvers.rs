//! Resolver preference refresh.
//!
//! Every `resolver_update` period, each populated AS re-observes the 13
//! letters (RTT and loss through its current catchments) and re-weights
//! its letter preferences — the mechanism behind the paper's §3.2.2
//! letter flips. The refreshed weights feed the next fluid window; the
//! pre-event aggregate shares are frozen as the RSSAC baseline once the
//! first attack window opens.
//!
//! A refresh is scoped to what moved since the previous one. An AS's
//! observation of a letter is a function of the letter's routing
//! (its catchment epoch) and of the snapshot of the site it reaches, so
//! only (AS, letter) cells whose letter re-routed, or whose site's
//! snapshot changed, are observed again. The refresh walks the moved
//! letters one at a time over the populated ASes, with one route lookup
//! per cell, and marks each row whose raw weights changed bitwise; a
//! second pass renormalizes only the marked rows and writes them into
//! `legit_weights`. The first refresh is full: the prior is uniform,
//! not observed.
//!
//! A cell's weight is `weigh(rtt_factor(rtt), loss)`, and the `powf`
//! inside [`ResolverPopulation::rtt_factor`] is most of its cost. Each
//! cell keeps the RTT of its last evaluation and that RTT's factor, so
//! `powf` runs only when the RTT moved; under route flapping most
//! re-observed cells see the RTT they saw before. Debug-assertion builds
//! recompute the factor on every memo hit and compare bits.
//!
//! [`ResolverPopulation::rtt_factor`]: rootcast_attack::ResolverPopulation::rtt_factor

use crate::engine::metrics::keys;
use crate::engine::{SimWorld, Subsystem};
use rootcast_anycast::{AnycastService, SiteProbe};
use rootcast_attack::ResolverPopulation;
use rootcast_netsim::{SimDuration, SimTime};
use rootcast_topology::AsId;

/// The resolver-population subsystem.
#[derive(Debug)]
pub struct ResolverRefresh {
    period: SimDuration,
    /// Per letter (service order): what the previous refresh observed.
    seen: Vec<LetterInput>,
    /// Populated ASes, ascending; empty until the first refresh.
    populated: Vec<usize>,
    /// `raw[k][letter]`: the raw weights behind `populated[k]`'s row.
    raw: Vec<[f64; 13]>,
    /// `dirty[k]`: `populated[k]`'s raw weights changed this refresh.
    dirty: Vec<bool>,
    /// Reusable snapshot buffer.
    snaps: Vec<SiteProbe>,
}

/// One letter's inputs as of the previous refresh, and what moved since.
#[derive(Debug, Default)]
struct LetterInput {
    /// Catchment epoch (0 = never observed).
    epoch: u64,
    snaps: Vec<SiteProbe>,
    /// The catchments moved: every AS re-observes the letter.
    rerouted: bool,
    /// Per site: its snapshot changed.
    site_moved: Vec<bool>,
    /// `factors[k]`: the RTT factor of `populated[k]`'s last evaluation
    /// of this letter.
    factors: Vec<FactorMemo>,
}

/// An RTT and its [`ResolverPopulation::rtt_factor`], a pure function of
/// the RTT.
#[derive(Debug, Clone, Copy)]
struct FactorMemo {
    rtt_ns: u64,
    factor: f64,
}

impl LetterInput {
    /// Record the letter's current inputs; returns whether any moved.
    fn update(&mut self, svc: &AnycastService, snaps: &mut Vec<SiteProbe>) -> bool {
        svc.site_probes_into(snaps);
        self.rerouted = self.epoch != svc.catchment_epoch();
        self.epoch = svc.catchment_epoch();
        self.site_moved.clear();
        if self.snaps.len() == snaps.len() {
            self.site_moved
                .extend(self.snaps.iter().zip(snaps.iter()).map(|(a, b)| a != b));
        } else {
            self.site_moved.resize(snaps.len(), true);
        }
        std::mem::swap(&mut self.snaps, snaps);
        self.rerouted || self.site_moved.contains(&true)
    }
}

/// Per-refresh work counts, fed to the registry.
#[derive(Default)]
struct Work {
    /// Cells observed again.
    observations: u64,
    /// `powf` evaluations: memo misses.
    rtt_factors: u64,
}

impl ResolverRefresh {
    pub fn new(period: SimDuration) -> ResolverRefresh {
        ResolverRefresh {
            period,
            seen: Vec::new(),
            populated: Vec::new(),
            raw: Vec::new(),
            dirty: Vec::new(),
            snaps: Vec::new(),
        }
    }

    /// Allocate the per-AS state on the first refresh. Every memo starts
    /// as the valid pair for a zero RTT, so a lookup has no empty case.
    fn init(&mut self, world: &SimWorld, work: &mut Work) {
        self.seen
            .resize_with(world.letters.len(), LetterInput::default);
        self.populated = (0..world.pop_weights.len())
            .filter(|&a| world.pop_weights[a] > 0.0)
            .collect();
        let n = self.populated.len();
        // Letters absent from the world stay unreachable: weight 0.
        self.raw = vec![[0.0; 13]; n];
        // The uniform prior is not observed: every row is set.
        self.dirty = vec![true; n];
        let zero = FactorMemo {
            rtt_ns: 0,
            factor: ResolverPopulation::rtt_factor(SimDuration::ZERO),
        };
        work.rtt_factors += 1;
        for input in &mut self.seen {
            input.factors = vec![zero; n];
        }
    }

    /// Re-observe letter `i` (service index) for every populated AS it
    /// must, and mark the rows whose raw weight for it changed.
    fn observe_letter(&mut self, world: &SimWorld, i: usize, work: &mut Work) {
        let (svc, input) = (&world.services[i], &mut self.seen[i]);
        let letter = world.letters[i] as usize;
        let cells = self.populated.iter().zip(&mut input.factors);
        for (k, (&a, memo)) in cells.enumerate() {
            let asn = AsId(a as u32);
            let w = match svc.probe_route(asn, u64::from(asn.0)) {
                // Still unreachable: the epoch did not move.
                None if !input.rerouted => continue,
                None => 0.0,
                Some(r) if !input.rerouted && !input.site_moved[r.site] => continue,
                Some(r) => {
                    let pv = r.view(&input.snaps[r.site]);
                    let rtt_ns = pv.rtt.as_nanos();
                    if memo.rtt_ns == rtt_ns {
                        debug_assert_eq!(
                            ResolverPopulation::rtt_factor(pv.rtt).to_bits(),
                            memo.factor.to_bits(),
                            "memoized RTT factor of {pv:?} is stale"
                        );
                    } else {
                        *memo = FactorMemo {
                            rtt_ns,
                            factor: ResolverPopulation::rtt_factor(pv.rtt),
                        };
                        work.rtt_factors += 1;
                    }
                    ResolverPopulation::weigh(memo.factor, pv.drop_prob)
                }
            };
            work.observations += 1;
            let cell = &mut self.raw[k][letter];
            if w.to_bits() != cell.to_bits() {
                *cell = w;
                self.dirty[k] = true;
            }
        }
    }
}

impl Subsystem for ResolverRefresh {
    fn name(&self) -> &'static str {
        "resolvers"
    }

    fn initial_wakeups(&mut self) -> Vec<SimTime> {
        vec![SimTime::ZERO + self.period]
    }

    fn tick(&mut self, world: &mut SimWorld, t: SimTime) -> Vec<SimTime> {
        let mut work = Work::default();
        if self.seen.is_empty() {
            self.init(world, &mut work);
        }
        // Site state is fixed for the whole refresh: snapshot it once.
        for i in 0..self.seen.len() {
            if self.seen[i].update(&world.services[i], &mut self.snaps) {
                self.observe_letter(world, i, &mut work);
            }
        }
        let mut any_row_changed = false;
        let rows = self.populated.iter().zip(&self.raw).zip(&mut self.dirty);
        for ((&a, raw), dirty) in rows {
            if !std::mem::take(dirty) {
                continue;
            }
            world.resolvers.set_raw(a, raw);
            let row = world.resolvers.shares(a);
            for (i, &letter) in world.letters.iter().enumerate() {
                world.legit_weights[i][a] = world.pop_weights[a] * row[letter as usize];
            }
            any_row_changed = true;
        }
        if any_row_changed {
            world.legit_weights_version += 1;
            world.legit_shares = world.resolvers.aggregate_shares(&world.pop_weights);
        }
        world.metrics.inc(keys::RESOLVER_REFRESHES, 1);
        world
            .metrics
            .inc(keys::RESOLVER_OBSERVATIONS, work.observations);
        world
            .metrics
            .inc(keys::RESOLVER_RTT_FACTORS, work.rtt_factors);
        if t < world.first_attack {
            world.baseline_shares = world.legit_shares;
        }
        vec![t + self.period]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ScenarioConfig, SiteOverride};
    use crate::engine::instrument::NoopInstrumentation;
    use crate::engine::{drive, subsystems, FaultKind, FaultPlan};
    use rootcast_anycast::{SiteTuning, StressPolicy};
    use rootcast_attack::LetterObservation;
    use rootcast_dns::Letter;
    use rootcast_netsim::SimRng;
    use std::cell::Cell;
    use std::rc::Rc;

    /// The full refresh the scoped one replaced, kept as the oracle:
    /// every populated AS observes every letter from scratch, and every
    /// letter's weight vector is rebuilt.
    fn full_refresh(world: &SimWorld) -> (ResolverPopulation, Vec<Vec<f64>>, [f64; 13]) {
        let mut pop = ResolverPopulation::new(world.pop_weights.len());
        for node in world.graph.nodes() {
            if world.pop_weights[node.id.0 as usize] <= 0.0 {
                continue;
            }
            let mut obs = [LetterObservation::unreachable(); 13];
            for (i, &letter) in world.letters.iter().enumerate() {
                let svc = &world.services[i];
                if let Some(pv) = svc.probe_view(node.id, u64::from(node.id.0)) {
                    obs[letter as usize] = LetterObservation {
                        rtt: Some(pv.rtt),
                        loss: pv.drop_prob,
                    };
                }
            }
            pop.update_as(node.id.0 as usize, &obs);
        }
        let weights = world
            .letters
            .iter()
            .map(|&l| pop.letter_weights(l, &world.pop_weights))
            .collect();
        let shares = pop.aggregate_shares(&world.pop_weights);
        (pop, weights, shares)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// What a checked run's refreshes did.
    #[derive(Default)]
    struct Tally {
        /// Refreshes that left the weights version alone.
        quiet: Cell<u32>,
        /// Refreshes that bumped it.
        bumped: Cell<u32>,
        /// Refreshes after the first in which some letter re-routed.
        rerouted: Cell<u32>,
    }

    fn bump(c: &Cell<u32>) {
        c.set(c.get() + 1);
    }

    /// The production refresh, checked bit for bit against
    /// [`full_refresh`] after every tick.
    struct Checked {
        inner: ResolverRefresh,
        tally: Rc<Tally>,
    }

    impl Subsystem for Checked {
        fn name(&self) -> &'static str {
            self.inner.name()
        }

        fn initial_wakeups(&mut self) -> Vec<SimTime> {
            self.inner.initial_wakeups()
        }

        fn tick(&mut self, world: &mut SimWorld, t: SimTime) -> Vec<SimTime> {
            let version = world.legit_weights_version;
            let first = self.inner.seen.is_empty();
            let next = self.inner.tick(world, t);
            if !first && self.inner.seen.iter().any(|s| s.rerouted) {
                bump(&self.tally.rerouted);
            }
            let (pop, weights, shares) = full_refresh(world);
            for a in 0..pop.len() {
                assert_eq!(
                    bits(world.resolvers.shares(a)),
                    bits(pop.shares(a)),
                    "AS {a}'s row at {t:?}"
                );
            }
            for (i, w) in weights.iter().enumerate() {
                assert_eq!(
                    bits(&world.legit_weights[i]),
                    bits(w),
                    "letter {i} at {t:?}"
                );
            }
            assert_eq!(bits(&world.legit_shares), bits(&shares), "shares at {t:?}");
            bump(if world.legit_weights_version == version {
                &self.tally.quiet
            } else {
                &self.tally.bumped
            });
            next
        }
    }

    /// Drive `cfg` with the resolver refresh checked after every tick;
    /// returns the tally and the world's registry.
    fn checked_run(cfg: &ScenarioConfig) -> (Rc<Tally>, rootcast_netsim::MetricsRegistry) {
        let rngf = SimRng::new(cfg.seed);
        let mut obs = NoopInstrumentation;
        let mut world = SimWorld::build(cfg, &rngf, &mut obs).expect("world builds");
        let tally = Rc::new(Tally::default());
        let mut subs = subsystems(&world);
        let slot = subs
            .iter()
            .position(|s| s.name() == "resolvers")
            .expect("a resolver subsystem");
        subs[slot] = Box::new(Checked {
            inner: ResolverRefresh::new(cfg.resolver_update),
            tally: Rc::clone(&tally),
        });
        drive(&mut world, &mut subs, cfg.horizon);
        (tally, world.metrics)
    }

    #[test]
    fn scoped_refresh_matches_full_refresh_on_a_faulted_run() {
        let mut cfg = ScenarioConfig::small();
        cfg.faults = FaultPlan::none()
            .with(
                SimTime::from_mins(15),
                SimDuration::from_mins(30),
                FaultKind::SiteCrash {
                    letter: Letter::B,
                    site: "LAX".into(),
                },
            )
            .with(
                SimTime::from_mins(10),
                SimDuration::from_mins(50),
                FaultKind::ProbeDropout {
                    fraction: 0.3,
                    letters: vec![Letter::E, Letter::F],
                },
            )
            .with(
                SimTime::from_mins(5),
                SimDuration::from_mins(90),
                FaultKind::CollectorBlackout { letter: Letter::K },
            );
        let (tally, _) = checked_run(&cfg);
        // Both paths ran: refreshes that changed rows and refreshes that
        // changed nothing (and so kept every fluid index warm).
        assert!(
            tally.bumped.get() > 1,
            "{} refreshes bumped",
            tally.bumped.get()
        );
        assert!(tally.quiet.get() > 0, "no refresh was quiet");
    }

    #[test]
    fn scoped_refresh_matches_full_refresh_under_route_flapping() {
        // Withdraw at 1.2x capacity held for a minute, re-announce after
        // 4: shorter than the 10-minute resolver period, so letters
        // re-route between refreshes and their routes come back, and the
        // RTT memo sees cells both keep and change their RTT.
        let mut cfg = ScenarioConfig::small();
        let flap = StressPolicy::Withdraw {
            overload_ratio: 1.2,
            sustain: SimDuration::from_mins(1),
            retry_after: Some(SimDuration::from_mins(4)),
            after_episodes: 1,
        };
        for (letter, site) in [
            (Letter::K, "LHR"),
            (Letter::K, "FRA"),
            (Letter::C, "FRA"),
            (Letter::E, "AMS"),
            (Letter::H, "SAN"),
        ] {
            cfg.site_overrides.push(SiteOverride::new(
                letter,
                site,
                SiteTuning::none().with_policy(flap),
            ));
        }
        for threads in [1, 3] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            let (tally, metrics) = pool.install(|| checked_run(&cfg));
            assert!(
                tally.rerouted.get() > 0,
                "{threads} threads: no refresh saw a re-routed letter"
            );
            let observations = metrics.counter(keys::RESOLVER_OBSERVATIONS);
            let factors = metrics.counter(keys::RESOLVER_RTT_FACTORS);
            assert!(
                factors < observations,
                "{threads} threads: {factors} RTT factors for {observations} observations"
            );
        }
    }

    #[test]
    fn refresh_reweights_letters_and_freezes_baseline() {
        let mut cfg = ScenarioConfig::small();
        cfg.horizon = SimTime::from_mins(30);
        cfg.pipeline.horizon = cfg.horizon;
        let rngf = SimRng::new(cfg.seed);
        let mut obs = NoopInstrumentation;
        let mut world = SimWorld::build(&cfg, &rngf, &mut obs).expect("world builds");
        let mut sub = ResolverRefresh::new(cfg.resolver_update);

        let uniform_shares = world.legit_shares;
        let t = SimTime::ZERO + cfg.resolver_update;
        let next = sub.tick(&mut world, t);
        assert_eq!(next, vec![t + cfg.resolver_update]);
        // RTT-shaped preferences are no longer the uninformed prior.
        assert_ne!(world.legit_shares, uniform_shares);
        let sum: f64 = world.legit_shares.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "shares sum to {sum}");
        // Pre-event ticks move the frozen baseline along.
        assert!(t < world.first_attack);
        assert_eq!(world.baseline_shares, world.legit_shares);

        // A tick after the first attack window leaves the baseline.
        let frozen = world.baseline_shares;
        let during = world.first_attack + SimDuration::from_mins(1);
        sub.tick(&mut world, during);
        assert_eq!(world.baseline_shares, frozen);
    }
}
