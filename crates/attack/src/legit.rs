//! Legitimate background traffic and the recursive-resolver model.
//!
//! Recursive resolvers query the root at a low, steady rate (RSSAC
//! baselines in Table 3: ~0.03–0.06 Mq/s per letter) and choose *which*
//! letter to ask based on observed latency, retrying others on failure
//! (RFC 2182 operational practice; the Yu et al. study the paper cites).
//! That selection behaviour produces the paper's §3.2.2 observation:
//! L-root — never attacked — saw a 1.66× query-rate increase during the
//! second event as resolvers fled unresponsive letters ("letter flips").
//!
//! [`ResolverPopulation`] keeps, per AS, a preference distribution over
//! the 13 letters and re-weights it from the letters' current
//! per-AS RTT and loss.

use rootcast_dns::Letter;
use rootcast_netsim::SimDuration;
use rootcast_topology::{city, AsGraph, Tier};

/// Total legitimate root query load across all letters (queries/second).
/// Table 3's per-letter baselines are ~0.04 Mq/s; times 13 letters this
/// is ~0.5 Mq/s of root traffic system-wide.
pub const DEFAULT_LEGIT_TOTAL_QPS: f64 = 520_000.0;

/// Selection sharpness: letters are weighted ∝ (1/rtt_ms)^ALPHA. Yu et
/// al. observed resolvers skew toward low-RTT authorities but keep
/// probing others; alpha ≈ 1.5–2 reproduces that mix.
const ALPHA: f64 = 1.5;

/// Per-AS legitimate-traffic weights: Internet population by city.
/// Indexed by `AsId.0`, zero for transit ASes (resolvers live at the
/// edge). Sums to 1.
pub fn population_weights(graph: &AsGraph) -> Vec<f64> {
    let mut w = vec![0.0f64; graph.len()];
    for node in graph.nodes() {
        if node.tier == Tier::Stub {
            w[node.id.0 as usize] = city(node.city).population_weight.max(0.01);
        }
    }
    let total: f64 = w.iter().sum();
    assert!(total > 0.0, "no stub ASes to carry legitimate traffic");
    for x in &mut w {
        *x /= total;
    }
    w
}

/// How one AS's resolvers currently observe one letter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LetterObservation {
    /// Smoothed RTT to the letter's current catchment site, if reachable.
    pub rtt: Option<SimDuration>,
    /// Probability a query to the letter is lost right now.
    pub loss: f64,
}

impl LetterObservation {
    pub fn unreachable() -> LetterObservation {
        LetterObservation {
            rtt: None,
            loss: 1.0,
        }
    }
}

/// Per-AS letter-preference state for the whole resolver population.
#[derive(Debug, Clone)]
pub struct ResolverPopulation {
    /// `shares[asn][letter]`: fraction of the AS's root queries sent to
    /// that letter. Rows sum to 1 (or 0 if nothing is reachable).
    shares: Vec<[f64; 13]>,
}

impl ResolverPopulation {
    /// Start with uniform preferences across all letters.
    pub fn new(n_ases: usize) -> ResolverPopulation {
        ResolverPopulation {
            shares: vec![[1.0 / 13.0; 13]; n_ases],
        }
    }

    /// Number of ASes tracked.
    pub fn len(&self) -> usize {
        self.shares.len()
    }

    pub fn is_empty(&self) -> bool {
        self.shares.is_empty()
    }

    /// The current letter shares for an AS.
    pub fn shares(&self, asn: usize) -> &[f64; 13] {
        &self.shares[asn]
    }

    /// Re-derive one AS's preferences from fresh observations: each
    /// letter's [`raw_weight`](Self::raw_weight), normalized by
    /// [`set_raw`](Self::set_raw).
    pub fn update_as(&mut self, asn: usize, obs: &[LetterObservation; 13]) {
        let raw = obs.map(|o| self.raw_weight(&o));
        self.set_raw(asn, &raw);
    }

    /// The unnormalized preference weight of one letter observation:
    /// `(1000 / (rtt_ms + 5))^ALPHA × (1 - loss)²`, zero if unreachable.
    /// Squaring the delivery probability reflects that a resolver needs
    /// both its query and the answer to survive, and that losses
    /// trigger costly retries it learns to avoid.
    ///
    /// It is `weigh(rtt_factor(rtt), loss)` ([`Self::weigh`],
    /// [`Self::rtt_factor`]), so a caller that memoizes the RTT factor
    /// gets the same bits.
    pub fn raw_weight(&self, o: &LetterObservation) -> f64 {
        match o.rtt {
            Some(rtt) => Self::weigh(Self::rtt_factor(rtt), o.loss),
            None => 0.0,
        }
    }

    /// The RTT half of [`raw_weight`](Self::raw_weight):
    /// `(1000 / (max(rtt_ms, 0.1) + 5))^ALPHA`. The only `powf` of a
    /// resolver refresh, and a pure function of `rtt`.
    pub fn rtt_factor(rtt: SimDuration) -> f64 {
        let rtt_ms = rtt.as_millis_f64().max(0.1);
        (1000.0 / (rtt_ms + 5.0)).powf(ALPHA)
    }

    /// The loss half of [`raw_weight`](Self::raw_weight): `factor ×
    /// delivery²`, with delivery `1 - loss` clamped to [0, 1].
    pub fn weigh(factor: f64, loss: f64) -> f64 {
        let delivery = (1.0 - loss).clamp(0.0, 1.0);
        factor * delivery * delivery
    }

    /// Set one AS's shares from its 13 raw weights, normalized to sum
    /// to 1 (left all zero when nothing is reachable). A row is a pure
    /// function of its raw weights.
    pub fn set_raw(&mut self, asn: usize, raw: &[f64; 13]) {
        let total: f64 = raw.iter().sum();
        let mut row = *raw;
        if total > 0.0 {
            for w in &mut row {
                *w /= total;
            }
        }
        self.shares[asn] = row;
    }

    /// Aggregate share of the whole population's queries going to each
    /// letter, weighting each AS by `pop_weights` (the same weights that
    /// scale its traffic).
    pub fn aggregate_shares(&self, pop_weights: &[f64]) -> [f64; 13] {
        assert_eq!(pop_weights.len(), self.shares.len());
        let mut agg = [0.0f64; 13];
        for (row, &pw) in self.shares.iter().zip(pop_weights) {
            if pw > 0.0 {
                for (a, s) in agg.iter_mut().zip(row) {
                    *a += pw * s;
                }
            }
        }
        agg
    }

    /// Per-AS traffic weight toward one letter: `pop_weight × share`.
    /// This is the weight vector [`AnycastService::offered_per_site`]
    /// consumes for legitimate traffic.
    ///
    /// [`AnycastService::offered_per_site`]:
    ///     ../../rootcast_anycast/service/struct.AnycastService.html#method.offered_per_site
    pub fn letter_weights(&self, letter: Letter, pop_weights: &[f64]) -> Vec<f64> {
        assert_eq!(pop_weights.len(), self.shares.len());
        let li = letter as usize;
        self.shares
            .iter()
            .zip(pop_weights)
            .map(|(row, &pw)| pw * row[li])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rootcast_netsim::SimRng;
    use rootcast_topology::{gen, TopologyParams};

    fn obs(rtt_ms: u64, loss: f64) -> LetterObservation {
        LetterObservation {
            rtt: Some(SimDuration::from_millis(rtt_ms)),
            loss,
        }
    }

    #[test]
    fn population_weights_normalized_stub_only() {
        let g = gen::generate(&TopologyParams::tiny(), &SimRng::new(1));
        let w = population_weights(&g);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        for node in g.nodes() {
            if node.tier != Tier::Stub {
                assert_eq!(w[node.id.0 as usize], 0.0);
            }
        }
    }

    #[test]
    fn initial_shares_uniform() {
        let p = ResolverPopulation::new(3);
        for s in p.shares(0) {
            assert!((s - 1.0 / 13.0).abs() < 1e-12);
        }
    }

    #[test]
    fn low_rtt_letter_preferred() {
        let mut p = ResolverPopulation::new(1);
        let mut o = [obs(100, 0.0); 13];
        o[Letter::K as usize] = obs(10, 0.0);
        p.update_as(0, &o);
        let s = p.shares(0);
        let k = s[Letter::K as usize];
        for (i, &v) in s.iter().enumerate() {
            if i != Letter::K as usize {
                assert!(k > 3.0 * v, "K share {k} vs letter {i} share {v}");
            }
        }
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn lossy_letters_shed_traffic_to_clean_ones() {
        let mut p = ResolverPopulation::new(1);
        // All letters at equal RTT; 10 of 13 heavily lossy (the attack).
        let mut o = [obs(50, 0.95); 13];
        for l in [Letter::D, Letter::L, Letter::M] {
            o[l as usize] = obs(50, 0.0);
        }
        p.update_as(0, &o);
        let s = p.shares(0);
        let clean: f64 = [Letter::D, Letter::L, Letter::M]
            .iter()
            .map(|&l| s[l as usize])
            .sum();
        // The three clean letters absorb nearly everything — the
        // letter-flip effect that raised L-root's query rate (§3.2.2).
        assert!(clean > 0.95, "clean share {clean}");
    }

    #[test]
    fn unreachable_letter_gets_zero() {
        let mut p = ResolverPopulation::new(1);
        let mut o = [obs(50, 0.0); 13];
        o[Letter::B as usize] = LetterObservation::unreachable();
        p.update_as(0, &o);
        assert_eq!(p.shares(0)[Letter::B as usize], 0.0);
    }

    #[test]
    fn all_unreachable_gives_zero_row() {
        let mut p = ResolverPopulation::new(1);
        let o = [LetterObservation::unreachable(); 13];
        p.update_as(0, &o);
        assert_eq!(p.shares(0).iter().sum::<f64>(), 0.0);
    }

    #[test]
    fn raw_weight_is_weigh_of_rtt_factor_bitwise() {
        let p = ResolverPopulation::new(1);
        let rtts = [
            0,
            1,
            50_000,
            99_999,
            100_000,
            1_000_000,
            12_345_678,
            87_000_000,
            5_000_000_000,
            3_600_000_000_000,
            u64::MAX,
        ]
        .map(SimDuration::from_nanos);
        let losses = [0.0, 0.5, 1.0, -0.25, 1.5, 0.123_456_789];
        for rtt in rtts {
            for loss in losses {
                let o = LetterObservation {
                    rtt: Some(rtt),
                    loss,
                };
                let split = ResolverPopulation::weigh(ResolverPopulation::rtt_factor(rtt), loss);
                // The whole formula as one expression: the reference.
                let delivery = (1.0 - loss).clamp(0.0, 1.0);
                let fused = (1000.0 / (rtt.as_millis_f64().max(0.1) + 5.0)).powf(ALPHA)
                    * delivery
                    * delivery;
                let w = p.raw_weight(&o);
                assert_eq!(w.to_bits(), split.to_bits(), "rtt {rtt:?}, loss {loss}");
                assert_eq!(w.to_bits(), fused.to_bits(), "rtt {rtt:?}, loss {loss}");
            }
        }
        // Below the 0.1 ms clamp every RTT weighs the same.
        assert_eq!(
            ResolverPopulation::rtt_factor(SimDuration::ZERO).to_bits(),
            ResolverPopulation::rtt_factor(SimDuration::from_nanos(99_999)).to_bits()
        );
    }

    #[test]
    fn aggregate_and_letter_weights_consistent() {
        let mut p = ResolverPopulation::new(2);
        let mut o = [obs(50, 0.0); 13];
        o[Letter::K as usize] = obs(10, 0.0);
        p.update_as(0, &o);
        // AS 1 keeps uniform shares.
        let pop = vec![0.25, 0.75];
        let agg = p.aggregate_shares(&pop);
        assert!((agg.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let kw = p.letter_weights(Letter::K, &pop);
        assert!((kw.iter().sum::<f64>() - agg[Letter::K as usize]).abs() < 1e-12);
    }
}
