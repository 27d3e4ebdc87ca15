//! Small statistics toolkit shared by the analysis modules.
//!
//! Nothing here is exotic: medians and quantiles for RTT series, linear
//! regression for the paper's site-count vs. reachability correlation
//! (§3.2.1 reports R² = 0.87), and the hash mixer behind stable
//! per-key randomness.

/// Median of a slice; NaN values are ignored. Returns NaN for an empty (or
/// all-NaN) input.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// [`median`] of `values`, computed in place: the non-finite values are
/// removed and the rest reordered, instead of copied. The same bits as
/// [`median`] of the original values.
pub fn median_in_place(values: &mut Vec<f64>) -> f64 {
    values.retain(|x| x.is_finite());
    select_quantile(values, 0.5)
}

/// Quantile `q` in `[0, 1]` of a slice: linear interpolation between the
/// two closest ranks of the finite values in `f64::total_cmp` order.
/// Returns NaN when no finite values exist.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    select_quantile(&mut v, q)
}

/// [`quantile`] of `v`, whose values are all finite, reordering them.
fn select_quantile(v: &mut [f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
    if v.is_empty() {
        return f64::NAN;
    }
    if v.len() == 1 {
        return v[0];
    }
    // Linear interpolation between closest ranks (type-7, same as numpy
    // default) so medians of even-length slices average the middle pair.
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    // Only ranks `lo` and `hi = lo + 1` are needed, so select instead of
    // sorting. `total_cmp` is a total order, so each rank holds the value
    // a full sort would put there (-0 before +0, duplicates included).
    let (_, &mut lo_value, above) = v.select_nth_unstable_by(lo, f64::total_cmp);
    if lo == hi {
        return lo_value;
    }
    // Everything above rank `lo` sorts at or after it; rank `hi` is the
    // least of those (never empty here, since `hi` is a valid index).
    let hi_value = above
        .iter()
        .copied()
        .min_by(f64::total_cmp)
        .unwrap_or(lo_value);
    let frac = pos - lo as f64;
    lo_value * (1.0 - frac) + hi_value * frac
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

/// SplitMix64 finalizer: a fast, well-distributed 64-bit mixer.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A probability made safe for `gen_bool`: clamped to `[0, 1]`, with
/// NaN (a broken loss estimate) failing closed to certain loss.
#[inline]
pub fn sanitize_probability(p: f64) -> f64 {
    if p.is_nan() {
        1.0
    } else {
        p.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sort-based quantile the selection replaced, kept as the oracle.
    fn sorted_quantile(values: &[f64], q: f64) -> f64 {
        let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
        if v.is_empty() {
            return f64::NAN;
        }
        v.sort_by(f64::total_cmp);
        if v.len() == 1 {
            return v[0];
        }
        let pos = q * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        if lo == hi {
            v[lo]
        } else {
            let frac = pos - lo as f64;
            v[lo] * (1.0 - frac) + v[hi] * frac
        }
    }

    #[test]
    fn selected_quantiles_match_the_sorted_oracle_bit_for_bit() {
        // Multisets drawn from a small palette (so duplicates, NaN, ±0
        // and infinities all recur) mixed with arbitrary finite values.
        const PALETTE: [f64; 8] = [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.5,
            -2.25,
            f64::MIN_POSITIVE,
        ];
        let mut x = 0u64;
        let mut next = || {
            x = mix64(x);
            x
        };
        for case in 0..2_000 {
            let len = (next() % 40) as usize + usize::from(case % 2 == 0);
            let values: Vec<f64> = (0..len)
                .map(|_| match next() % 3 {
                    0 => (next() % 1_000) as f64 / 8.0 - 60.0,
                    _ => PALETTE[(next() % PALETTE.len() as u64) as usize],
                })
                .collect();
            let mut owned = values.clone();
            assert_eq!(
                median_in_place(&mut owned).to_bits(),
                median(&values).to_bits(),
                "in place over {values:?}"
            );
            let random_q = (next() % 10_001) as f64 / 10_000.0;
            for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0, random_q] {
                assert_eq!(
                    quantile(&values, q).to_bits(),
                    sorted_quantile(&values, q).to_bits(),
                    "q={q} over {values:?}"
                );
            }
        }
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        let mut v = vec![4.0, f64::NAN, 1.0, 2.0, f64::INFINITY, 3.0];
        assert_eq!(median_in_place(&mut v), 2.5);
        assert_eq!(v.len(), 4, "the non-finite values are gone");
        assert!(median_in_place(&mut Vec::new()).is_nan());
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
}
