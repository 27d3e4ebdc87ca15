//! Resolver preference refresh.
//!
//! Every `resolver_update` period, each populated AS re-observes all 13
//! letters (RTT and loss through its current catchments) and re-weights
//! its letter preferences — the mechanism behind the paper's §3.2.2
//! letter flips. The refreshed weights feed the next fluid window; the
//! pre-event aggregate shares are frozen as the RSSAC baseline once the
//! first attack window opens.

use crate::engine::metrics::keys;
use crate::engine::{SimWorld, Subsystem};
use rootcast_anycast::SiteProbe;
use rootcast_attack::LetterObservation;
use rootcast_netsim::{SimDuration, SimTime};

/// The resolver-population subsystem.
#[derive(Debug)]
pub struct ResolverRefresh {
    period: SimDuration,
}

impl ResolverRefresh {
    pub fn new(period: SimDuration) -> ResolverRefresh {
        ResolverRefresh { period }
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
        // Site state is fixed for the whole refresh: snapshot it once.
        let snaps: Vec<Vec<SiteProbe>> = world
            .services
            .iter()
            .map(|svc| {
                let mut snap = Vec::new();
                svc.site_probes_into(&mut snap);
                snap
            })
            .collect();
        for node in world.graph.nodes() {
            let a = node.id.0 as usize;
            if world.pop_weights[a] <= 0.0 {
                continue;
            }
            let mut obs = [LetterObservation::unreachable(); 13];
            for (i, &letter) in world.letters.iter().enumerate() {
                let svc = &world.services[i];
                let route = svc.probe_route(node.id, u64::from(node.id.0));
                if let Some(pv) = route.map(|r| r.view(&snaps[i][r.site])) {
                    obs[letter as usize] = LetterObservation {
                        rtt: Some(pv.rtt),
                        loss: pv.drop_prob,
                    };
                }
            }
            world.resolvers.update_as(a, &obs);
        }
        for (i, &letter) in world.letters.iter().enumerate() {
            world.legit_weights[i] = world.resolvers.letter_weights(letter, &world.pop_weights);
        }
        world.legit_weights_version += 1;
        world.metrics.inc(keys::RESOLVER_REFRESHES, 1);
        world.legit_shares = world.resolvers.aggregate_shares(&world.pop_weights);
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
    use rootcast_netsim::SimRng;

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
