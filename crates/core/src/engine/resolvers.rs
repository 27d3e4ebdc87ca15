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
//! only (AS, letter) pairs whose letter re-routed, or whose site's
//! snapshot changed, are observed again. A row whose raw weights are
//! bitwise unchanged keeps its shares, and only changed rows are
//! renormalized and written into `legit_weights`. The first refresh is
//! full: the prior is uniform, not observed.

use crate::engine::metrics::keys;
use crate::engine::{SimWorld, Subsystem};
use rootcast_anycast::{AnycastService, SiteProbe};
use rootcast_attack::LetterObservation;
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
    /// Reusable snapshot buffer.
    snaps: Vec<SiteProbe>,
    /// Indices of the letters whose inputs moved this refresh.
    moved: Vec<usize>,
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

    /// Must `asn` observe this moved letter again?
    fn stale_for(&self, svc: &AnycastService, asn: AsId) -> bool {
        self.rerouted || svc.catchment_site(asn).is_some_and(|s| self.site_moved[s])
    }
}

impl ResolverRefresh {
    pub fn new(period: SimDuration) -> ResolverRefresh {
        ResolverRefresh {
            period,
            seen: Vec::new(),
            populated: Vec::new(),
            raw: Vec::new(),
            snaps: Vec::new(),
            moved: Vec::new(),
        }
    }
}

/// How `asn`'s resolvers see `svc` through its site snapshots `snaps`.
fn observe(svc: &AnycastService, snaps: &[SiteProbe], asn: AsId) -> LetterObservation {
    match svc.probe_route(asn, u64::from(asn.0)) {
        Some(r) => {
            let pv = r.view(&snaps[r.site]);
            LetterObservation {
                rtt: Some(pv.rtt),
                loss: pv.drop_prob,
            }
        }
        None => LetterObservation::unreachable(),
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
        let first = self.seen.is_empty();
        if first {
            self.seen
                .resize_with(world.letters.len(), LetterInput::default);
            self.populated = (0..world.pop_weights.len())
                .filter(|&a| world.pop_weights[a] > 0.0)
                .collect();
            // Letters absent from the world stay unreachable: weight 0.
            self.raw = vec![[0.0; 13]; self.populated.len()];
        }
        // Site state is fixed for the whole refresh: snapshot it once.
        self.moved.clear();
        for (i, (input, svc)) in self.seen.iter_mut().zip(&world.services).enumerate() {
            if input.update(svc, &mut self.snaps) {
                self.moved.push(i);
            }
        }
        let mut any_row_changed = false;
        if !self.moved.is_empty() {
            for (&a, raw) in self.populated.iter().zip(&mut self.raw) {
                let asn = AsId(a as u32);
                let mut changed = first;
                for &i in &self.moved {
                    let (svc, input) = (&world.services[i], &self.seen[i]);
                    if !input.stale_for(svc, asn) {
                        continue;
                    }
                    let w = world.resolvers.raw_weight(&observe(svc, &input.snaps, asn));
                    let cell = &mut raw[world.letters[i] as usize];
                    if w.to_bits() != cell.to_bits() {
                        *cell = w;
                        changed = true;
                    }
                }
                if changed {
                    world.resolvers.set_raw(a, raw);
                    let row = world.resolvers.shares(a);
                    for (i, &letter) in world.letters.iter().enumerate() {
                        world.legit_weights[i][a] = world.pop_weights[a] * row[letter as usize];
                    }
                    any_row_changed = true;
                }
            }
        }
        if any_row_changed {
            world.legit_weights_version += 1;
            world.legit_shares = world.resolvers.aggregate_shares(&world.pop_weights);
        }
        world.metrics.inc(keys::RESOLVER_REFRESHES, 1);
        if t < world.first_attack {
            world.baseline_shares = world.legit_shares;
        }
        vec![t + self.period]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScenarioConfig;
    use crate::engine::instrument::NoopInstrumentation;
    use crate::engine::{drive, subsystems, FaultKind, FaultPlan};
    use rootcast_attack::ResolverPopulation;
    use rootcast_dns::Letter;
    use rootcast_netsim::SimRng;
    use std::cell::Cell;
    use std::rc::Rc;

    /// The full refresh the scoped one replaced, kept as the oracle:
    /// every populated AS observes every letter from scratch, and every
    /// letter's weight vector is rebuilt.
    fn full_refresh(world: &SimWorld) -> (ResolverPopulation, Vec<Vec<f64>>, [f64; 13]) {
        let mut pop = ResolverPopulation::new(world.pop_weights.len());
        pop.alpha = world.resolvers.alpha;
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

    /// The production refresh, checked bit for bit against
    /// [`full_refresh`] after every tick. Counts refreshes that left the
    /// weights version alone and ones that bumped it.
    struct Checked {
        inner: ResolverRefresh,
        quiet: Rc<Cell<u32>>,
        bumped: Rc<Cell<u32>>,
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
            let next = self.inner.tick(world, t);
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
            let counter = if world.legit_weights_version == version {
                &self.quiet
            } else {
                &self.bumped
            };
            counter.set(counter.get() + 1);
            next
        }
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
        let rngf = SimRng::new(cfg.seed);
        let mut obs = NoopInstrumentation;
        let mut world = SimWorld::build(&cfg, &rngf, &mut obs).expect("world builds");
        let (quiet, bumped) = (Rc::new(Cell::new(0)), Rc::new(Cell::new(0)));
        let mut subs = subsystems(&world);
        let slot = subs
            .iter()
            .position(|s| s.name() == "resolvers")
            .expect("a resolver subsystem");
        subs[slot] = Box::new(Checked {
            inner: ResolverRefresh::new(cfg.resolver_update),
            quiet: Rc::clone(&quiet),
            bumped: Rc::clone(&bumped),
        });
        drive(&mut world, &mut subs, cfg.horizon);
        // Both paths ran: refreshes that changed rows and refreshes that
        // changed nothing (and so kept every fluid index warm).
        assert!(bumped.get() > 1, "{} refreshes bumped", bumped.get());
        assert!(quiet.get() > 0, "no refresh was quiet");
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
