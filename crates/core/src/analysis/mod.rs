//! One analysis module per table/figure of the paper.
//!
//! Each module consumes a finished [`SimOutput`]
//! and produces the same rows/series the paper reports, plus a
//! [`TextTable`](crate::render::TextTable) rendering:
//!
//! | module | reproduces |
//! |--------|------------|
//! | [`reachability`] | Figure 3 + the §3.2.1 site-count/worst-reachability correlation |
//! | [`letter_rtt`]   | Figure 4 |
//! | [`site_reach`]   | Figures 5 & 6 and Table 2's observed-site census |
//! | [`site_rtt`]     | Figure 7 |
//! | [`flips`]        | Figures 8 & 10 |
//! | [`routing`]      | Figure 9 |
//! | [`raster`]       | Figure 11 (+ the §3.4.2 client cohorts) |
//! | [`servers`]      | Figures 12 & 13 |
//! | [`collateral`]   | Figures 14 & 15 |
//! | [`event_size`]   | Table 3 |
//!
//! The §2.2 policy model (Figure 2) lives in
//! [`crate::policy_model`] since it needs no simulation output.

pub mod collateral;
pub mod event_size;
pub mod flips;
pub mod letter_rtt;
pub mod raster;
pub mod reachability;
pub mod routing;
pub mod servers;
pub mod site_reach;
pub mod site_rtt;

use crate::sim::SimOutput;
use rootcast_netsim::{SimDuration, SimTime};

/// Minimum median VP count for a site to be considered stable
/// (§2.4.1: "we only consider sites whose catchments contain a median of
/// at least 20 VPs").
pub const STABLE_SITE_MIN_VPS: f64 = 20.0;

/// The event windows of a run, as `(start, end)` pairs.
pub fn event_windows(out: &SimOutput) -> Vec<(SimTime, SimTime)> {
    out.attack
        .windows()
        .iter()
        .map(|w| (w.start, w.end()))
        .collect()
}

/// The union cover of all event windows padded by `pad` on each side —
/// the "during the events" mask used when scanning for worst values.
/// Overlapping or touching padded windows merge, so the result is
/// sorted and disjoint and no instant is counted twice.
pub fn padded_event_windows(out: &SimOutput, pad: SimDuration) -> Vec<(SimTime, SimTime)> {
    let mut padded: Vec<(SimTime, SimTime)> = event_windows(out)
        .into_iter()
        .map(|(s, e)| {
            let start = SimTime::from_nanos(s.as_nanos().saturating_sub(pad.as_nanos()));
            (start, e + pad)
        })
        .collect();
    padded.sort_unstable();
    let mut cover: Vec<(SimTime, SimTime)> = Vec::with_capacity(padded.len());
    for (s, e) in padded {
        match cover.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => cover.push((s, e)),
        }
    }
    cover
}

/// Minimum of a series restricted to the event windows. Returns NaN
/// when no event window intersects the series (e.g. a horizon that ends
/// before the first attack) — callers render NaN as "no event observed"
/// rather than reporting a fictitious extreme.
pub fn min_during_events(out: &SimOutput, series: &rootcast_netsim::BinnedSeries) -> f64 {
    let mut min = f64::INFINITY;
    let mut seen = false;
    for (s, e) in padded_event_windows(out, SimDuration::from_mins(10)) {
        let w = series.window(s, e);
        if !w.is_empty() {
            min = min.min(w.min());
            seen = true;
        }
    }
    if seen {
        min
    } else {
        f64::NAN
    }
}

/// A quiet-period baseline: the median over the pre-event hours
/// (scenario start to first event).
pub fn pre_event_baseline(out: &SimOutput, series: &rootcast_netsim::BinnedSeries) -> f64 {
    let first = event_windows(out)
        .first()
        .map(|&(s, _)| s)
        .unwrap_or(out.horizon);
    series.window(SimTime::ZERO, first).median()
}

/// Shared test fixture: one small simulation reused by every analysis
/// module's tests (building it dominates test cost).
#[cfg(test)]
pub(crate) mod fixture {
    use crate::sim::{run, ScenarioConfig, SimOutput};
    use rootcast_attack::{AttackSchedule, AttackWindow};
    use rootcast_netsim::{SimDuration, SimTime};
    use std::sync::OnceLock;

    static OUT: OnceLock<SimOutput> = OnceLock::new();

    /// A 3-hour run with one 40-minute event, small fleet.
    pub fn smoke() -> &'static SimOutput {
        OUT.get_or_init(|| {
            let mut cfg = ScenarioConfig::small();
            cfg.horizon = SimTime::from_hours(3);
            cfg.pipeline.horizon = cfg.horizon;
            cfg.attack = AttackSchedule::new(vec![AttackWindow {
                start: SimTime::from_mins(60),
                duration: SimDuration::from_mins(40),
                qname: "www.336901.com".into(),
                targets: AttackSchedule::nov2015_targets(),
                rate_qps: 3_000_000.0,
            }]);
            run(&cfg).expect("valid scenario")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_window_helpers() {
        let out = fixture::smoke();
        let w = event_windows(out);
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].0, SimTime::from_mins(60));
        assert_eq!(w[0].1, SimTime::from_mins(100));
        let padded = padded_event_windows(out, SimDuration::from_mins(10));
        assert_eq!(padded[0].0, SimTime::from_mins(50));
        assert_eq!(padded[0].1, SimTime::from_mins(110));
    }

    #[test]
    fn baseline_and_event_min_differ_for_attacked_letter() {
        let out = fixture::smoke();
        let b = out.pipeline.letter(rootcast_dns::Letter::B);
        let base = pre_event_baseline(out, &b.success);
        let worst = min_during_events(out, &b.success);
        assert!(worst < base, "B-root: worst {worst} !< baseline {base}");
    }
}
