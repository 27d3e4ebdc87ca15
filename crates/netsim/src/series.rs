//! Binned time series, the common currency of the analysis layer.
//!
//! The paper's methodology (§2.4.1) maps raw observations into fixed-width
//! time bins (10 minutes for most figures, 4 minutes for the VP raster of
//! Figure 11). `BinnedSeries` implements that mapping once so every
//! analysis module shares identical binning semantics.

use crate::time::{SimDuration, SimTime};

/// A time series of f64 values over fixed-width bins starting at t=0.
///
/// Two series are equal when their bins hold the same bits: a NaN bin
/// (a median with no sample) equals a NaN bin, so series compare for
/// bit-identical output, and `-0.0` differs from `0.0`.
#[derive(Debug, Clone)]
pub struct BinnedSeries {
    bin: SimDuration,
    values: Vec<f64>,
}

impl PartialEq for BinnedSeries {
    fn eq(&self, other: &BinnedSeries) -> bool {
        self.bin == other.bin
            && self.values.len() == other.values.len()
            && self
                .values
                .iter()
                .zip(&other.values)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

impl BinnedSeries {
    /// A series of `n_bins` zeros with the given bin width.
    pub fn zeros(bin: SimDuration, n_bins: usize) -> Self {
        assert!(!bin.is_zero());
        BinnedSeries {
            bin,
            values: vec![0.0; n_bins],
        }
    }

    /// Build from explicit values.
    pub fn from_values(bin: SimDuration, values: Vec<f64>) -> Self {
        assert!(!bin.is_zero());
        BinnedSeries { bin, values }
    }

    /// Width of each bin.
    pub fn bin_width(&self) -> SimDuration {
        self.bin
    }

    /// Number of bins.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The values, one per bin.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Start time of bin `i`.
    pub fn bin_start(&self, i: usize) -> SimTime {
        SimTime::ZERO + self.bin * (i as u64)
    }

    /// Bin index containing instant `t`, if within the series.
    pub fn index_of(&self, t: SimTime) -> Option<usize> {
        let i = t.bin_index(self.bin) as usize;
        (i < self.values.len()).then_some(i)
    }

    /// Add `v` to the bin containing `t`. Silently ignores out-of-range
    /// instants (trailing observations after the analysis window).
    pub fn add_at(&mut self, t: SimTime, v: f64) {
        if let Some(i) = self.index_of(t) {
            self.values[i] += v;
        }
    }

    /// Increment the bin containing `t` by one (counting observations).
    pub fn incr_at(&mut self, t: SimTime) {
        self.add_at(t, 1.0);
    }

    /// Increment bin `i` by one; out-of-range indices are ignored, like
    /// out-of-range instants in [`Self::incr_at`].
    #[inline]
    pub fn incr_bin(&mut self, i: usize) {
        if let Some(v) = self.values.get_mut(i) {
            *v += 1.0;
        }
    }

    /// Set bin `i` to `v`; out-of-range indices are ignored, like
    /// [`Self::incr_bin`]'s.
    pub fn set_bin(&mut self, i: usize, v: f64) {
        if let Some(x) = self.values.get_mut(i) {
            *x = v;
        }
    }

    /// Element-wise `f` of every bin (e.g. a unit conversion).
    pub fn map(&self, f: impl Fn(f64) -> f64) -> BinnedSeries {
        BinnedSeries {
            bin: self.bin,
            values: self.values.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Element-wise ratio to a scalar (e.g. normalize to a median).
    pub fn scaled(&self, k: f64) -> BinnedSeries {
        self.map(|v| v * k)
    }

    /// Minimum over bins (NaN-free series assumed).
    pub fn min(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Maximum over bins.
    pub fn max(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Median over bins (see [`crate::stats::median`]).
    pub fn median(&self) -> f64 {
        crate::stats::median(&self.values)
    }

    /// Restrict to bins whose start lies in `[from, to)`. Both bounds
    /// round up to a bin boundary, so an unaligned window keeps every
    /// bin that starts inside it and no bin that starts before it.
    pub fn window(&self, from: SimTime, to: SimTime) -> BinnedSeries {
        let first_bin_at = |t: SimTime| {
            (t.as_nanos().div_ceil(self.bin.as_nanos()) as usize).min(self.values.len())
        };
        let lo = first_bin_at(from);
        let hi = first_bin_at(to).max(lo);
        BinnedSeries {
            bin: self.bin,
            values: self.values[lo..hi].to_vec(),
        }
    }

    /// Iterate `(bin_start, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.values
            .iter()
            .enumerate()
            .map(|(i, &v)| (self.bin_start(i), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mins(m: u64) -> SimTime {
        SimTime::from_mins(m)
    }

    #[test]
    fn incr_counts_per_bin() {
        let mut s = BinnedSeries::zeros(SimDuration::from_mins(10), 6);
        s.incr_at(mins(0));
        s.incr_at(mins(9));
        s.incr_at(mins(10));
        s.incr_at(mins(59));
        assert_eq!(s.values(), &[2.0, 1.0, 0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn out_of_range_ignored() {
        let mut s = BinnedSeries::zeros(SimDuration::from_mins(10), 2);
        s.incr_at(mins(25));
        assert_eq!(s.values(), &[0.0, 0.0]);
    }

    #[test]
    fn bin_indexed_writes_match_instant_writes() {
        let bin = SimDuration::from_mins(10);
        let (mut by_t, mut by_i) = (BinnedSeries::zeros(bin, 3), BinnedSeries::zeros(bin, 3));
        // 35 lies past the last bin: both forms drop it.
        for m in [0, 9, 10, 25, 35] {
            by_t.incr_at(mins(m));
            by_i.incr_bin((m / 10) as usize);
        }
        assert_eq!(by_i.values(), &[2.0, 1.0, 1.0]);
        assert_eq!(by_t, by_i);
        // `set_bin` drops out-of-range indices the same way.
        by_i.set_bin(3, 9.0);
        by_i.set_bin(1, 9.0);
        assert_eq!(by_i.values(), &[2.0, 9.0, 1.0]);
    }

    #[test]
    fn window_slices_bins() {
        let s = BinnedSeries::from_values(SimDuration::from_mins(10), vec![1.0, 2.0, 3.0, 4.0]);
        let w = s.window(mins(10), mins(30));
        assert_eq!(w.values(), &[2.0, 3.0]);
    }

    #[test]
    fn window_rounds_unaligned_bounds_up_to_bin_starts() {
        let s = BinnedSeries::from_values(
            SimDuration::from_mins(10),
            vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
        );
        // Bins starting at 10 and 20 lie in [5, 25).
        assert_eq!(s.window(mins(5), mins(25)).values(), &[1.0, 2.0]);
        // An 8-minute burst keeps the bin it starts on.
        assert_eq!(s.window(mins(60), mins(68)).values(), &[6.0]);
        // No bin starts in [61, 69), and a reversed range is empty.
        assert!(s.window(mins(61), mins(69)).is_empty());
        assert!(s.window(mins(40), mins(20)).is_empty());
        // Bounds past the end clamp to the series.
        assert_eq!(s.window(mins(65), mins(500)).values(), &[7.0]);
    }

    #[test]
    fn min_max_median() {
        let s = BinnedSeries::from_values(SimDuration::from_mins(10), vec![5.0, 1.0, 3.0]);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 5.0);
        assert_eq!(s.median(), 3.0);
    }

    #[test]
    fn equality_is_bitwise() {
        let bin = SimDuration::from_mins(10);
        let nan = BinnedSeries::from_values(bin, vec![1.0, f64::NAN]);
        assert_eq!(nan, nan.clone());
        assert_ne!(
            BinnedSeries::from_values(bin, vec![0.0]),
            BinnedSeries::from_values(bin, vec![-0.0])
        );
        assert_ne!(nan, BinnedSeries::from_values(bin, vec![1.0]));
        assert_ne!(
            nan,
            BinnedSeries::from_values(SimDuration::from_mins(4), vec![1.0, f64::NAN])
        );
    }

    #[test]
    fn map_applies_per_bin() {
        let s = BinnedSeries::from_values(SimDuration::from_mins(10), vec![2e6, f64::NAN]);
        let ms = s.map(|ns| ns / 1e6);
        assert_eq!(ms.values()[0], 2.0);
        assert!(ms.values()[1].is_nan());
        assert_eq!(ms.bin_width(), s.bin_width());
        assert_eq!(s.scaled(0.5).values()[0], 1e6);
    }
}
