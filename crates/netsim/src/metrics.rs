//! Metrics primitives: counters, gauges, and fixed-bucket histograms
//! behind static handles.
//!
//! A [`MetricsRegistry`] is built once from a static catalog (name
//! arrays and histogram specs declared as `const`s by the owning
//! layer), so every update is an index into a flat vector — no string
//! hashing, no allocation, no locks. The engine owns one registry per
//! run and exports it as a [`MetricsSnapshot`] when the run finishes.
//!
//! Handles are plain indices into the catalog the registry was built
//! from. Declaring them as `const`s next to the name arrays keeps the
//! pairing visible and lets a unit test pin handle ↔ name agreement.

/// Handle to a monotonically increasing counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(pub usize);

/// Handle to a last/extreme-value gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(pub usize);

/// Handle to a fixed-bucket histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(pub usize);

/// Static description of one histogram: its name and upper bucket
/// bounds (ascending). Values land in the first bucket whose bound is
/// `>=` the value; anything above the last bound lands in the implicit
/// overflow bucket, so there are `bounds.len() + 1` buckets in total.
#[derive(Debug, Clone, Copy)]
pub struct HistogramSpec {
    pub name: &'static str,
    pub bounds: &'static [f64],
}

/// A run-scoped metrics registry over a static catalog.
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    counter_names: &'static [&'static str],
    gauge_names: &'static [&'static str],
    histogram_specs: &'static [HistogramSpec],
    counters: Vec<u64>,
    /// Gauges start unset (`None`) so a never-touched gauge snapshots
    /// as absent instead of a misleading zero.
    gauges: Vec<Option<f64>>,
    hist_counts: Vec<Vec<u64>>,
    hist_sums: Vec<f64>,
}

impl MetricsRegistry {
    /// Build a registry over a static catalog. All values start at zero
    /// (counters, histogram buckets) or unset (gauges).
    pub fn new(
        counter_names: &'static [&'static str],
        gauge_names: &'static [&'static str],
        histogram_specs: &'static [HistogramSpec],
    ) -> MetricsRegistry {
        MetricsRegistry {
            counter_names,
            gauge_names,
            histogram_specs,
            counters: vec![0; counter_names.len()],
            gauges: vec![None; gauge_names.len()],
            hist_counts: histogram_specs
                .iter()
                .map(|s| vec![0; s.bounds.len() + 1])
                .collect(),
            hist_sums: vec![0.0; histogram_specs.len()],
        }
    }

    /// Add `by` to a counter.
    #[inline]
    pub fn inc(&mut self, id: CounterId, by: u64) {
        self.counters[id.0] += by;
    }

    /// Current value of a counter.
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters[id.0]
    }

    /// Set a gauge to `v` (last-value semantics).
    #[inline]
    pub fn set_gauge(&mut self, id: GaugeId, v: f64) {
        self.gauges[id.0] = Some(v);
    }

    /// Raise a gauge to `v` if `v` exceeds its current value
    /// (peak-tracking semantics).
    #[inline]
    pub fn max_gauge(&mut self, id: GaugeId, v: f64) {
        match self.gauges[id.0] {
            Some(cur) if cur >= v => {}
            _ => self.gauges[id.0] = Some(v),
        }
    }

    /// Lower a gauge to `v` if `v` is below its current value
    /// (trough-tracking semantics).
    #[inline]
    pub fn min_gauge(&mut self, id: GaugeId, v: f64) {
        match self.gauges[id.0] {
            Some(cur) if cur <= v => {}
            _ => self.gauges[id.0] = Some(v),
        }
    }

    /// Record one observation into a histogram. Non-finite values are
    /// counted in the overflow bucket and excluded from the sum.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, v: f64) {
        let spec = &self.histogram_specs[id.0];
        let bucket = if v.is_finite() {
            self.hist_sums[id.0] += v;
            spec.bounds
                .iter()
                .position(|&b| v <= b)
                .unwrap_or(spec.bounds.len())
        } else {
            spec.bounds.len()
        };
        self.hist_counts[id.0][bucket] += 1;
    }

    /// Freeze the registry into an export-friendly snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counter_names
                .iter()
                .zip(&self.counters)
                .map(|(&n, &v)| (n.to_string(), v))
                .collect(),
            gauges: self
                .gauge_names
                .iter()
                .zip(&self.gauges)
                .filter_map(|(&n, &v)| v.map(|v| (n.to_string(), v)))
                .collect(),
            histograms: self
                .histogram_specs
                .iter()
                .enumerate()
                .map(|(i, s)| HistogramSnapshot {
                    name: s.name.to_string(),
                    bounds: s.bounds.to_vec(),
                    counts: self.hist_counts[i].clone(),
                    sum: self.hist_sums[i],
                })
                .collect(),
        }
    }
}

/// One histogram, frozen: `counts[i]` observations fell at or below
/// `bounds[i]`; `counts[bounds.len()]` is the overflow bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    pub name: String,
    pub bounds: Vec<f64>,
    pub counts: Vec<u64>,
    /// Sum of all finite observations (for mean computation).
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Total observations across all buckets.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Mean of the finite observations, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        let n = self.total();
        if n == 0 {
            None
        } else {
            Some(self.sum / n as f64)
        }
    }
}

/// Every metric of a finished run, in catalog order. Exported on
/// `SimOutput`; serializes for machine consumption.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Look up a counter by name (convenience for tests/reports).
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Look up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Look up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COUNTERS: &[&str] = &["ticks", "faults"];
    const GAUGES: &[&str] = &["peak_qps", "untouched"];
    const HISTS: &[HistogramSpec] = &[HistogramSpec {
        name: "delay_ms",
        bounds: &[1.0, 10.0, 100.0],
    }];

    #[test]
    fn counters_and_gauges_accumulate() {
        let mut m = MetricsRegistry::new(COUNTERS, GAUGES, HISTS);
        m.inc(CounterId(0), 3);
        m.inc(CounterId(0), 2);
        m.max_gauge(GaugeId(0), 5.0);
        m.max_gauge(GaugeId(0), 2.0);
        let s = m.snapshot();
        assert_eq!(s.counter("ticks"), Some(5));
        assert_eq!(s.counter("faults"), Some(0));
        assert_eq!(s.gauge("peak_qps"), Some(5.0));
        assert_eq!(s.gauge("untouched"), None);
    }

    #[test]
    fn min_gauge_tracks_troughs() {
        let mut m = MetricsRegistry::new(COUNTERS, GAUGES, HISTS);
        m.min_gauge(GaugeId(0), 0.9);
        m.min_gauge(GaugeId(0), 0.4);
        m.min_gauge(GaugeId(0), 0.7);
        assert_eq!(m.snapshot().gauge("peak_qps"), Some(0.4));
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut m = MetricsRegistry::new(COUNTERS, GAUGES, HISTS);
        for v in [0.5, 1.0, 5.0, 50.0, 5000.0, f64::NAN] {
            m.observe(HistogramId(0), v);
        }
        let s = m.snapshot();
        let h = s.histogram("delay_ms").unwrap();
        assert_eq!(h.counts, vec![2, 1, 1, 2]); // NaN lands in overflow
        assert_eq!(h.total(), 6);
        // NaN excluded from the sum.
        assert_eq!(h.sum, 0.5 + 1.0 + 5.0 + 50.0 + 5000.0);
        assert!(h.mean().unwrap().is_finite());
    }

    #[test]
    fn empty_histogram_has_no_mean() {
        let m = MetricsRegistry::new(COUNTERS, GAUGES, HISTS);
        assert_eq!(m.snapshot().histograms[0].mean(), None);
    }
}
