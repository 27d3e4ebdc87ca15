//! Small statistics toolkit shared by the analysis modules.
//!
//! Nothing here is exotic: medians and quantiles for RTT series, linear
//! regression for the paper's site-count vs. reachability correlation
//! (§3.2.1 reports R² = 0.87), and a streaming cardinality sketch used by
//! the RSSAC-002 generator to count unique source addresses the way a real
//! collector would (exact counting of ~1.8 B spoofed addresses per day is
//! memory-prohibitive; operators use sketches too).

/// Median of a slice; NaN values are ignored. Returns NaN for an empty (or
/// all-NaN) input.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Quantile `q` in `[0, 1]` of a slice using the nearest-rank method on the
/// sorted finite values. Returns NaN when no finite values exist.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    if v.len() == 1 {
        return v[0];
    }
    // Linear interpolation between closest ranks (type-7, same as numpy
    // default) so medians of even-length slices average the middle pair.
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let frac = pos - lo as f64;
        v[lo] * (1.0 - frac) + v[hi] * frac
    }
}

/// Arithmetic mean; NaN for empty input, NaN values ignored.
pub fn mean(values: &[f64]) -> f64 {
    let finite: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if finite.is_empty() {
        return f64::NAN;
    }
    finite.iter().sum::<f64>() / finite.len() as f64
}

/// Result of an ordinary-least-squares fit `y = slope * x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Regression {
    pub slope: f64,
    pub intercept: f64,
    /// Coefficient of determination.
    pub r_squared: f64,
    pub n: usize,
}

/// Ordinary least squares over `(x, y)` pairs. Pairs with non-finite
/// members are skipped. Returns `None` with fewer than two usable points
/// or when x has zero variance.
pub fn linear_regression(pairs: &[(f64, f64)]) -> Option<Regression> {
    let pts: Vec<(f64, f64)> = pairs
        .iter()
        .copied()
        .filter(|(x, y)| x.is_finite() && y.is_finite())
        .collect();
    let n = pts.len();
    if n < 2 {
        return None;
    }
    let nf = n as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let mx = sx / nf;
    let my = sy / nf;
    let sxx: f64 = pts.iter().map(|p| (p.0 - mx).powi(2)).sum();
    let syy: f64 = pts.iter().map(|p| (p.1 - my).powi(2)).sum();
    let sxy: f64 = pts.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    if sxx == 0.0 {
        return None;
    }
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let r_squared = if syy == 0.0 {
        1.0
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    Some(Regression {
        slope,
        intercept,
        r_squared,
        n,
    })
}

/// Pearson correlation coefficient; `None` under the same conditions as
/// [`linear_regression`].
pub fn pearson(pairs: &[(f64, f64)]) -> Option<f64> {
    let reg = linear_regression(pairs)?;
    let r = reg.r_squared.sqrt();
    Some(if reg.slope < 0.0 { -r } else { r })
}

/// A fixed-precision HyperLogLog cardinality sketch (2^12 registers,
/// standard error ≈ 1.6 %). Used to count unique spoofed source addresses
/// per letter per day for the RSSAC-002 reports (Table 3's "M IPs" column).
#[derive(Debug, Clone)]
pub struct CardinalitySketch {
    registers: Vec<u8>,
}

const HLL_P: u32 = 12;
const HLL_M: usize = 1 << HLL_P;

impl Default for CardinalitySketch {
    fn default() -> Self {
        Self::new()
    }
}

impl CardinalitySketch {
    pub fn new() -> Self {
        CardinalitySketch {
            registers: vec![0; HLL_M],
        }
    }

    /// Insert a 64-bit item (callers hash their keys; IPv4 addresses are
    /// mixed through [`mix64`] first).
    pub fn insert(&mut self, item: u64) {
        let h = mix64(item);
        let idx = (h >> (64 - HLL_P)) as usize;
        let rest = h << HLL_P;
        // Rank = position of the leftmost 1-bit in the remaining bits.
        let rank = (rest.leading_zeros() + 1).min(64 - HLL_P + 1) as u8;
        if rank > self.registers[idx] {
            self.registers[idx] = rank;
        }
    }

    /// Estimated number of distinct inserted items.
    pub fn estimate(&self) -> f64 {
        let m = HLL_M as f64;
        let alpha = 0.7213 / (1.0 + 1.079 / m);
        let sum: f64 = self
            .registers
            .iter()
            .map(|&r| 2f64.powi(-i32::from(r)))
            .sum();
        let raw = alpha * m * m / sum;
        // Small-range correction (linear counting) per the HLL paper.
        if raw <= 2.5 * m {
            let zeros = self.registers.iter().filter(|&&r| r == 0).count();
            if zeros > 0 {
                return m * (m / zeros as f64).ln();
            }
        }
        raw
    }

    /// Merge another sketch into this one (union of the underlying sets).
    pub fn merge(&mut self, other: &CardinalitySketch) {
        for (a, b) in self.registers.iter_mut().zip(&other.registers) {
            *a = (*a).max(*b);
        }
    }

    /// Reset to empty.
    pub fn clear(&mut self) {
        self.registers.fill(0);
    }
}

/// SplitMix64 finalizer: a fast, well-distributed 64-bit mixer.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn median_ignores_nan() {
        assert_eq!(median(&[f64::NAN, 5.0, 1.0, f64::NAN, 3.0]), 3.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [0.0, 10.0];
        assert_eq!(quantile(&v, 0.0), 0.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
        assert_eq!(quantile(&v, 0.25), 2.5);
    }

    #[test]
    fn regression_recovers_exact_line() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 * i as f64 + 1.0)).collect();
        let r = linear_regression(&pts).unwrap();
        assert!((r.slope - 3.0).abs() < 1e-12);
        assert!((r.intercept - 1.0).abs() < 1e-12);
        assert!((r.r_squared - 1.0).abs() < 1e-12);
    }

    #[test]
    fn regression_rejects_degenerate() {
        assert!(linear_regression(&[(1.0, 2.0)]).is_none());
        assert!(linear_regression(&[(1.0, 2.0), (1.0, 3.0)]).is_none());
    }

    #[test]
    fn pearson_sign_follows_slope() {
        let up: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, i as f64)).collect();
        let down: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, -(i as f64))).collect();
        assert!(pearson(&up).unwrap() > 0.99);
        assert!(pearson(&down).unwrap() < -0.99);
    }

    #[test]
    fn sketch_estimates_within_error() {
        let mut s = CardinalitySketch::new();
        let n = 100_000u64;
        for i in 0..n {
            s.insert(i);
        }
        let est = s.estimate();
        let err = (est - n as f64).abs() / n as f64;
        assert!(err < 0.05, "estimate {est} off by {err}");
    }

    #[test]
    fn sketch_small_range_is_accurate() {
        let mut s = CardinalitySketch::new();
        for i in 0..100u64 {
            s.insert(i);
            s.insert(i); // duplicates must not inflate
        }
        let est = s.estimate();
        assert!((est - 100.0).abs() < 5.0, "estimate {est}");
    }

    #[test]
    fn sketch_merge_is_union() {
        let mut a = CardinalitySketch::new();
        let mut b = CardinalitySketch::new();
        for i in 0..50_000u64 {
            a.insert(i);
            b.insert(i + 25_000);
        }
        a.merge(&b);
        let est = a.estimate();
        let err = (est - 75_000.0).abs() / 75_000.0;
        assert!(err < 0.05, "estimate {est} off by {err}");
    }
}
