//! RSSAC-002 style operator reporting (§2.4.2).
//!
//! RSSAC-002 defines daily, per-letter operational statistics: query and
//! response volumes, unique source counts, and query/response size
//! distributions in 16-byte bins. At the time of the events only five
//! letters (A, H, J, K, L) published it, and the spec is explicit that
//! collection is *best effort* — monitoring loses data exactly when the
//! service is stressed. The paper leans on that caveat: Table 3's
//! reported rates differ wildly across letters because most letters
//! undercounted during the attack.
//!
//! [`RssacCollector`] reproduces both the format and the failure mode:
//! a per-letter `stressed_capture` factor thins recorded traffic during
//! attack windows, so the generated reports exhibit the same
//! under-reporting the estimation procedure must correct for.

use rootcast_dns::Letter;
use rootcast_netsim::{Coverage, SimDuration, SimTime};
use std::collections::BTreeMap;

/// Width of RSSAC-002 size bins, bytes.
pub const SIZE_BIN: usize = 16;

/// A size histogram in 16-byte bins (key = bin lower edge).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SizeHistogram {
    bins: BTreeMap<u32, f64>,
}

impl SizeHistogram {
    pub fn add(&mut self, size_bytes: usize, count: f64) {
        debug_assert!(count.is_finite() && count >= 0.0, "bad count {count}");
        if !(count.is_finite() && count > 0.0) {
            return;
        }
        let bin = (size_bytes / SIZE_BIN * SIZE_BIN) as u32;
        *self.bins.entry(bin).or_insert(0.0) += count;
    }

    /// Total count across bins.
    pub fn total(&self) -> f64 {
        self.bins.values().sum()
    }

    /// `(bin_lower_edge, count)` pairs ascending.
    pub fn bins(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.bins.iter().map(|(&b, &c)| (b, c))
    }

    /// The bin with the largest count, if any — how the paper identifies
    /// the attack's fixed-qname signature in the reports (§3.1).
    pub fn dominant_bin(&self) -> Option<(u32, f64)> {
        self.bins
            .iter()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(&b, &c)| (b, c))
    }

    /// Mean size weighted by count (bin midpoints), or NaN when empty.
    pub fn mean_size(&self) -> f64 {
        let total = self.total();
        if total == 0.0 {
            return f64::NAN;
        }
        let weighted: f64 = self
            .bins
            .iter()
            .map(|(&b, &c)| (b as f64 + SIZE_BIN as f64 / 2.0) * c)
            .sum();
        weighted / total
    }
}

/// One letter-day of RSSAC-002 data.
#[derive(Debug, Clone, PartialEq)]
pub struct DailyReport {
    pub letter: Letter,
    /// Day index since scenario start (day 0 = Nov 30).
    pub day: u32,
    /// Queries received (as *recorded* — subject to best-effort capture).
    pub queries: f64,
    /// Responses sent.
    pub responses: f64,
    /// Distinct IPv4 sources observed.
    pub unique_sources: f64,
    pub query_sizes: SizeHistogram,
    pub response_sizes: SizeHistogram,
    /// How much of the day's accounting window was actually observed.
    /// `< 1.0` when monitoring gaps (injected or otherwise) thinned the
    /// record — the consumer should treat the totals as partial.
    pub coverage: Coverage,
}

impl DailyReport {
    /// Mean query rate over the day, q/s.
    pub fn mean_qps(&self) -> f64 {
        self.queries / 86_400.0
    }

    /// Estimated inbound bandwidth in Gb/s over an interval of
    /// `active_secs` (the paper evaluates event traffic over the event
    /// window, not the whole day). Adds IPv4+UDP header bytes.
    pub fn query_gbps_over(&self, active_secs: f64) -> f64 {
        if active_secs <= 0.0 || self.queries == 0.0 {
            return 0.0;
        }
        let mean_packet = self.query_sizes.mean_size() + 28.0;
        self.queries * mean_packet * 8.0 / active_secs / 1e9
    }

    /// Same for responses.
    pub fn response_gbps_over(&self, active_secs: f64) -> f64 {
        if active_secs <= 0.0 || self.responses == 0.0 {
            return 0.0;
        }
        let mean_packet = self.response_sizes.mean_size() + 28.0;
        self.responses * mean_packet * 8.0 / active_secs / 1e9
    }
}

/// Per-letter best-effort collector.
#[derive(Debug, Clone)]
pub struct RssacCollector {
    letter: Letter,
    /// Fraction of traffic actually recorded while the letter is under
    /// stress (1.0 = perfect monitoring, as A-root managed; small values
    /// reproduce H/J/K's undercounting in Table 3).
    stressed_capture: f64,
    days: Vec<DayAcc>,
}

#[derive(Debug, Clone, Default)]
struct DayAcc {
    queries: f64,
    responses: f64,
    unique_sources: f64,
    query_sizes: SizeHistogram,
    response_sizes: SizeHistogram,
    coverage: Coverage,
}

impl RssacCollector {
    pub fn new(letter: Letter, n_days: usize, stressed_capture: f64) -> RssacCollector {
        assert!((0.0..=1.0).contains(&stressed_capture));
        RssacCollector {
            letter,
            stressed_capture,
            days: vec![DayAcc::default(); n_days],
        }
    }

    pub fn letter(&self) -> Letter {
        self.letter
    }

    fn day_index(t: SimTime) -> usize {
        (t.as_secs() / 86_400) as usize
    }

    /// Record fluid traffic over `[from, from+dt)`: `query_qps` arriving
    /// queries and `response_qps` outgoing responses with the given
    /// packet payload sizes. `stressed` applies the best-effort capture
    /// factor. The interval must not span a day boundary (the driver
    /// steps in minutes).
    #[allow(clippy::too_many_arguments)]
    pub fn add_fluid(
        &mut self,
        from: SimTime,
        dt: SimDuration,
        query_qps: f64,
        response_qps: f64,
        query_size: usize,
        response_size: usize,
        stressed: bool,
    ) {
        if dt.is_zero() || (query_qps <= 0.0 && response_qps <= 0.0) {
            return;
        }
        let day = Self::day_index(from);
        let Some(acc) = self.days.get_mut(day) else {
            return;
        };
        let capture = if stressed { self.stressed_capture } else { 1.0 };
        let q = query_qps * dt.as_secs_f64() * capture;
        let r = response_qps * dt.as_secs_f64() * capture;
        acc.queries += q;
        acc.responses += r;
        if q > 0.0 {
            acc.query_sizes.add(query_size, q);
        }
        if r > 0.0 {
            acc.response_sizes.add(response_size, r);
        }
    }

    /// Merge an estimate of distinct sources seen during some traffic
    /// component of `day` (components are additive across disjoint
    /// source populations: baseline resolvers vs. spoofed attack space).
    pub fn add_unique_sources(&mut self, day: usize, estimate: f64) {
        if let Some(acc) = self.days.get_mut(day) {
            acc.unique_sources += estimate;
        }
    }

    /// Record whether the accounting window `[from, from+dt)` was
    /// actually observed by the monitoring pipeline. Drivers call this
    /// once per accounting step; a report gap notes the window with
    /// `observed = false`, pushing the day's [`Coverage`] below 1.0.
    /// Out-of-range days are ignored, like [`RssacCollector::add_fluid`].
    pub fn note_window(&mut self, from: SimTime, dt: SimDuration, observed: bool) {
        if dt.is_zero() {
            return;
        }
        let day = Self::day_index(from);
        if let Some(acc) = self.days.get_mut(day) {
            acc.coverage.note(dt.as_secs_f64(), observed);
        }
    }

    /// Produce the day's report. A day outside the collector's range —
    /// e.g. a consumer asking for day 1 of a short scenario — yields an
    /// empty report with zero coverage instead of panicking, so analyses
    /// degrade to partial results.
    pub fn report(&self, day: usize) -> DailyReport {
        let Some(acc) = self.days.get(day) else {
            return DailyReport {
                letter: self.letter,
                day: day as u32,
                queries: 0.0,
                responses: 0.0,
                unique_sources: 0.0,
                query_sizes: SizeHistogram::default(),
                response_sizes: SizeHistogram::default(),
                coverage: Coverage {
                    observed: 0.0,
                    expected: 86_400.0,
                },
            };
        };
        DailyReport {
            letter: self.letter,
            day: day as u32,
            queries: acc.queries,
            responses: acc.responses,
            unique_sources: acc.unique_sources,
            query_sizes: acc.query_sizes.clone(),
            response_sizes: acc.response_sizes.clone(),
            coverage: acc.coverage,
        }
    }

    pub fn n_days(&self) -> usize {
        self.days.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(hours: u64) -> SimTime {
        SimTime::from_hours(hours)
    }

    #[test]
    fn histogram_bins_by_16() {
        let mut h = SizeHistogram::default();
        h.add(44, 10.0); // 32-47 bin
        h.add(47, 5.0);
        h.add(48, 1.0); // 48-63 bin
        let bins: Vec<(u32, f64)> = h.bins().collect();
        assert_eq!(bins, vec![(32, 15.0), (48, 1.0)]);
        assert_eq!(h.dominant_bin(), Some((32, 15.0)));
        assert_eq!(h.total(), 16.0);
    }

    #[test]
    fn attack_bin_dominates_like_table3() {
        // Baseline traffic: mixed sizes. Attack: fixed 44-byte queries
        // (www.336901.com payload) at 100x volume.
        let mut c = RssacCollector::new(Letter::A, 2, 1.0);
        c.add_fluid(
            t(0),
            SimDuration::from_hours(6),
            40_000.0,
            39_000.0,
            60,
            400,
            false,
        );
        c.add_fluid(
            t(7),
            SimDuration::from_mins(160),
            5_000_000.0,
            3_800_000.0,
            44,
            488,
            false,
        );
        let r = c.report(0);
        let (bin, _) = r.query_sizes.dominant_bin().unwrap();
        assert_eq!(bin, 32, "32-47B bin dominates, as reported for Nov 30");
        let (rbin, _) = r.response_sizes.dominant_bin().unwrap();
        assert_eq!(rbin, 480, "responses in the 480-495 band");
    }

    #[test]
    fn capture_factor_thins_stressed_traffic() {
        let mut full = RssacCollector::new(Letter::K, 1, 1.0);
        let mut lossy = RssacCollector::new(Letter::K, 1, 0.2);
        for c in [&mut full, &mut lossy] {
            c.add_fluid(
                t(1),
                SimDuration::from_hours(1),
                1000.0,
                900.0,
                44,
                488,
                true,
            );
            c.add_fluid(
                t(3),
                SimDuration::from_hours(1),
                1000.0,
                900.0,
                44,
                488,
                false,
            );
        }
        let rf = full.report(0);
        let rl = lossy.report(0);
        assert!((rf.queries - 2000.0 * 3600.0).abs() < 1.0);
        // Lossy letter recorded 20% of the stressed hour + 100% of the
        // calm hour.
        assert!((rl.queries - (0.2 + 1.0) * 1000.0 * 3600.0).abs() < 1.0);
    }

    #[test]
    fn traffic_lands_on_correct_day() {
        let mut c = RssacCollector::new(Letter::J, 2, 1.0);
        c.add_fluid(
            t(5),
            SimDuration::from_hours(1),
            100.0,
            90.0,
            44,
            488,
            false,
        );
        c.add_fluid(
            t(30),
            SimDuration::from_hours(1),
            200.0,
            180.0,
            44,
            488,
            false,
        );
        assert!((c.report(0).queries - 100.0 * 3600.0).abs() < 1e-6);
        assert!((c.report(1).queries - 200.0 * 3600.0).abs() < 1e-6);
        // Day 2 does not exist: adding is a no-op, not a panic.
        c.add_fluid(t(50), SimDuration::from_hours(1), 1.0, 1.0, 44, 488, false);
    }

    #[test]
    fn unique_sources_accumulate() {
        let mut c = RssacCollector::new(Letter::A, 1, 1.0);
        c.add_unique_sources(0, 5.3e6);
        c.add_unique_sources(0, 1.8e9);
        let r = c.report(0);
        assert!((r.unique_sources - (5.3e6 + 1.8e9)).abs() < 1.0);
    }

    #[test]
    fn gbps_accounts_headers() {
        let mut c = RssacCollector::new(Letter::A, 1, 1.0);
        // 1 Mq/s of 44-byte queries for 1000 seconds.
        c.add_fluid(t(0), SimDuration::from_secs(1000), 1e6, 0.0, 44, 488, false);
        let r = c.report(0);
        // Mean packet = bin midpoint (40) + 28 = 68 B -> 0.544 Gb/s.
        let gbps = r.query_gbps_over(1000.0);
        assert!((gbps - 0.544).abs() < 0.01, "gbps={gbps}");
    }

    #[test]
    fn mean_size_nan_when_empty() {
        let h = SizeHistogram::default();
        assert!(h.mean_size().is_nan());
        assert_eq!(h.dominant_bin(), None);
    }

    #[test]
    fn out_of_range_day_reports_empty_with_zero_coverage() {
        let c = RssacCollector::new(Letter::K, 1, 1.0);
        let r = c.report(5);
        assert_eq!(r.queries, 0.0);
        assert_eq!(r.day, 5);
        assert_eq!(r.coverage.fraction(), 0.0);
    }

    #[test]
    fn noted_gaps_reduce_coverage() {
        let mut c = RssacCollector::new(Letter::H, 1, 1.0);
        c.note_window(t(0), SimDuration::from_hours(6), true);
        c.note_window(t(6), SimDuration::from_hours(2), false);
        let cov = c.report(0).coverage;
        assert!((cov.fraction() - 6.0 / 8.0).abs() < 1e-12);
        // Collectors that never note windows stay "complete".
        let quiet = RssacCollector::new(Letter::A, 1, 1.0);
        assert!(quiet.report(0).coverage.is_complete());
        // Out-of-range windows are ignored, not panics.
        c.note_window(t(30), SimDuration::from_hours(1), false);
    }
}
