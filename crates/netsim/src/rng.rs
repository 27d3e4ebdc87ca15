//! Deterministic, stream-split random number generation.
//!
//! Every stochastic component of the simulation draws from its own named
//! stream derived from the scenario's master seed. Adding a new component
//! (or reordering draws inside one) therefore never perturbs the random
//! sequences observed by the others — the property that keeps regression
//! baselines stable as the codebase grows.
//!
//! We use ChaCha8 rather than `rand`'s `StdRng` because ChaCha's output is
//! specified and stable across `rand` versions and platforms.

use crate::hash::stream_key_hash;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Factory for per-component RNG streams.
#[derive(Debug, Clone)]
pub struct SimRng {
    master_seed: u64,
}

impl SimRng {
    /// Create the factory from the scenario master seed.
    pub fn new(master_seed: u64) -> Self {
        SimRng { master_seed }
    }

    /// The master seed this factory was created with.
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// Derive the RNG stream for a named component.
    ///
    /// The same `(master_seed, name)` pair always yields the same stream.
    /// Different names yield independent streams (derived by hashing the
    /// name into the ChaCha key).
    pub fn stream(&self, name: &str) -> ChaCha8Rng {
        let mut key = [0u8; 32];
        key[..8].copy_from_slice(&self.master_seed.to_le_bytes());
        key[8..16].copy_from_slice(&stream_key_hash(name.as_bytes()).to_le_bytes());
        // Mix the name a second way so one-character names still spread
        // over the key space.
        let prefix_hash = {
            let prefix: [u8; 16] = key[..16].try_into().expect("16-byte prefix");
            stream_key_hash(&prefix)
        };
        key[16..24].copy_from_slice(&prefix_hash.to_le_bytes());
        ChaCha8Rng::from_seed(key)
    }

    /// Derive a stream for a named component plus numeric index — e.g. one
    /// stream per vantage point.
    pub fn indexed_stream(&self, name: &str, index: u64) -> ChaCha8Rng {
        let mut rng = self.stream(name);
        // Jump the stream to a per-index position by re-keying. ChaCha8Rng
        // supports cheap stream selection via `set_stream`.
        rng.set_stream(index);
        rng
    }
}

/// Draw from an exponential distribution with the given rate (events per
/// unit) using inverse-CDF sampling. Returns the waiting time in the same
/// unit as `1/rate`. Used for Poisson arrival processes.
pub fn exp_sample<R: Rng>(rng: &mut R, rate: f64) -> f64 {
    assert!(rate > 0.0, "exponential rate must be positive");
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    -u.ln() / rate
}

/// Sample an index from a discrete distribution given by non-negative
/// weights. Panics if all weights are zero or the slice is empty.
pub fn weighted_index<R: Rng>(rng: &mut R, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    assert!(
        total > 0.0 && total.is_finite(),
        "weights must have a positive finite sum"
    );
    let mut x = rng.gen_range(0.0..total);
    for (i, &w) in weights.iter().enumerate() {
        if x < w {
            return i;
        }
        x -= w;
    }
    // Floating-point round-off can leave us past the end; return the last
    // non-zero weight.
    weights
        .iter()
        .rposition(|&w| w > 0.0)
        .expect("at least one positive weight")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn same_seed_same_stream() {
        let a = SimRng::new(42).stream("atlas").next_u64();
        let b = SimRng::new(42).stream("atlas").next_u64();
        assert_eq!(a, b);
    }

    #[test]
    fn different_names_differ() {
        let a = SimRng::new(42).stream("atlas").next_u64();
        let b = SimRng::new(42).stream("attack").next_u64();
        assert_ne!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = SimRng::new(1).stream("atlas").next_u64();
        let b = SimRng::new(2).stream("atlas").next_u64();
        assert_ne!(a, b);
    }

    #[test]
    fn indexed_streams_are_independent_and_stable() {
        let f = SimRng::new(7);
        let a1 = f.indexed_stream("vp", 1).next_u64();
        let a2 = f.indexed_stream("vp", 2).next_u64();
        let a1_again = f.indexed_stream("vp", 1).next_u64();
        assert_ne!(a1, a2);
        assert_eq!(a1, a1_again);
    }

    #[test]
    fn exp_sample_mean_approximates_inverse_rate() {
        let mut rng = SimRng::new(3).stream("exp");
        let rate = 4.0;
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| exp_sample(&mut rng, rate)).sum::<f64>() / n as f64;
        assert!((mean - 1.0 / rate).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = SimRng::new(9).stream("w");
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0u32; 3];
        for _ in 0..10_000 {
            counts[weighted_index(&mut rng, &weights)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = f64::from(counts[2]) / f64::from(counts[0]);
        assert!((ratio - 3.0).abs() < 0.3, "ratio={ratio}");
    }

    #[test]
    #[should_panic(expected = "positive finite sum")]
    fn weighted_index_rejects_all_zero() {
        let mut rng = SimRng::new(9).stream("w");
        weighted_index(&mut rng, &[0.0, 0.0]);
    }
}
