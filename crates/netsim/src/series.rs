//! Binned time series, the common currency of the analysis layer.
//!
//! The paper's methodology (§2.4.1) maps raw observations into fixed-width
//! time bins (10 minutes for most figures, 4 minutes for the VP raster of
//! Figure 11). `BinnedSeries` implements that mapping once so every
//! analysis module shares identical binning semantics.

use crate::time::{SimDuration, SimTime};

/// A time series of f64 values over fixed-width bins starting at t=0.
#[derive(Debug, Clone, PartialEq)]
pub struct BinnedSeries {
    bin: SimDuration,
    values: Vec<f64>,
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

    /// Element-wise ratio to a scalar (e.g. normalize to a median).
    pub fn scaled(&self, k: f64) -> BinnedSeries {
        BinnedSeries {
            bin: self.bin,
            values: self.values.iter().map(|v| v * k).collect(),
        }
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

/// Accumulates `(time, value)` samples and reduces each bin with a chosen
/// statistic — the pattern used for per-bin median RTT (Figures 4, 7, 13).
#[derive(Debug, Clone, PartialEq)]
pub struct SampleBins {
    bin: SimDuration,
    samples: Vec<Vec<f64>>,
}

/// Per-bin reduction statistic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reduce {
    Median,
    Mean,
    Count,
    Min,
    Max,
}

impl SampleBins {
    pub fn new(bin: SimDuration, n_bins: usize) -> Self {
        assert!(!bin.is_zero());
        SampleBins {
            bin,
            samples: vec![Vec::new(); n_bins],
        }
    }

    /// Like [`SampleBins::new`], with room for `cap` samples reserved in
    /// every bin up front, so pushes up to that many never reallocate.
    pub fn with_bin_capacity(bin: SimDuration, n_bins: usize, cap: usize) -> Self {
        assert!(!bin.is_zero());
        SampleBins {
            bin,
            samples: (0..n_bins).map(|_| Vec::with_capacity(cap)).collect(),
        }
    }

    /// Number of samples in bin `i` (0 out of range).
    pub fn bin_len(&self, i: usize) -> usize {
        self.samples.get(i).map_or(0, Vec::len)
    }

    /// Samples bin `i` holds room for without reallocating (0 out of
    /// range).
    pub fn bin_capacity(&self, i: usize) -> usize {
        self.samples.get(i).map_or(0, Vec::capacity)
    }

    /// Number of bins.
    pub fn n_bins(&self) -> usize {
        self.samples.len()
    }

    /// Record one sample at instant `t`. Out-of-range samples are dropped.
    pub fn push(&mut self, t: SimTime, v: f64) {
        self.push_bin(t.bin_index(self.bin) as usize, v);
    }

    /// Record one sample in bin `i`. Out-of-range indices are dropped.
    #[inline]
    pub fn push_bin(&mut self, i: usize, v: f64) {
        if let Some(bin) = self.samples.get_mut(i) {
            bin.push(v);
        }
    }

    /// Number of samples in the bin containing `t`.
    pub fn count_at(&self, t: SimTime) -> usize {
        self.bin_len(t.bin_index(self.bin) as usize)
    }

    /// Reduce to a [`BinnedSeries`]. Empty bins yield `empty_value`
    /// (typically `f64::NAN` for RTT series, `0.0` for counts).
    pub fn reduce(&self, how: Reduce, empty_value: f64) -> BinnedSeries {
        let values = self
            .samples
            .iter()
            .map(|s| {
                if s.is_empty() {
                    if how == Reduce::Count {
                        0.0
                    } else {
                        empty_value
                    }
                } else {
                    match how {
                        Reduce::Median => crate::stats::median(s),
                        Reduce::Mean => s.iter().sum::<f64>() / s.len() as f64,
                        Reduce::Count => s.len() as f64,
                        Reduce::Min => s.iter().copied().fold(f64::INFINITY, f64::min),
                        Reduce::Max => s.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                    }
                }
            })
            .collect();
        BinnedSeries {
            bin: self.bin,
            values,
        }
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
    fn reserved_bins_hold_their_capacity() {
        let mut b = SampleBins::with_bin_capacity(SimDuration::from_mins(10), 3, 5);
        assert_eq!(b.n_bins(), 3);
        for i in 0..5 {
            b.push_bin(1, f64::from(i));
        }
        assert_eq!((b.bin_len(1), b.bin_len(0), b.bin_len(7)), (5, 0, 0));
        assert!((0..3).all(|i| b.bin_capacity(i) >= 5));
        assert_eq!(b.bin_capacity(7), 0);
        // Reserving changes nothing a reduction sees.
        let mut plain = SampleBins::new(SimDuration::from_mins(10), 3);
        for i in 0..5 {
            plain.push_bin(1, f64::from(i));
        }
        assert_eq!(b, plain);
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
        let (mut sb_t, mut sb_i) = (SampleBins::new(bin, 3), SampleBins::new(bin, 3));
        // 35 lies past the last bin: both forms drop it.
        for m in [0, 9, 10, 25, 35] {
            by_t.incr_at(mins(m));
            by_i.incr_bin((m / 10) as usize);
            sb_t.push(mins(m), m as f64);
            sb_i.push_bin((m / 10) as usize, m as f64);
        }
        assert_eq!(by_i.values(), &[2.0, 1.0, 1.0]);
        assert_eq!(by_t, by_i);
        assert_eq!(sb_t, sb_i);
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
    fn sample_bins_median_reduction() {
        let mut b = SampleBins::new(SimDuration::from_mins(10), 2);
        b.push(mins(1), 10.0);
        b.push(mins(2), 30.0);
        b.push(mins(3), 20.0);
        let med = b.reduce(Reduce::Median, f64::NAN);
        assert_eq!(med.values()[0], 20.0);
        assert!(med.values()[1].is_nan());
        let counts = b.reduce(Reduce::Count, 0.0);
        assert_eq!(counts.values(), &[3.0, 0.0]);
    }
}
