//! Figures 14 & 15: collateral damage.
//!
//! §3.6's end-to-end evidence of shared risk: D-root — never attacked —
//! shows sites losing ≥10% of their VPs exactly during the events
//! (Figure 14), and two `.nl` TLD anycast sites co-located with root
//! sites see their query rates collapse (Figure 15).

use crate::analysis::{min_during_events, pre_event_baseline, STABLE_SITE_MIN_VPS};
use crate::render::{num, sparkline, TextTable};
use crate::sim::SimOutput;
use rootcast_dns::Letter;
use rootcast_netsim::BinnedSeries;

/// A bystander site showing a correlated dip.
#[derive(Debug, Clone)]
pub struct CollateralSite {
    pub letter: Letter,
    pub code: String,
    pub median: f64,
    /// Worst VP count during the events.
    pub event_min: f64,
    /// `1 - event_min/median`: the dip depth.
    pub dip: f64,
    pub series: BinnedSeries,
}

#[derive(Debug, Clone)]
pub struct Figure14 {
    pub letter: Letter,
    /// Sites meeting the paper's filter: ≥ 20-VP median and ≥ 10% dip.
    pub affected: Vec<CollateralSite>,
    /// All stable sites, for comparison.
    pub stable_total: usize,
}

/// Figure 14's threshold: a site counts as affected at a 10% dip.
pub const DIP_THRESHOLD: f64 = 0.10;

pub fn figure14(out: &SimOutput, letter: Letter) -> Figure14 {
    let data = out.pipeline.letter(letter);
    let mut affected = Vec::new();
    let mut stable_total = 0;
    let mut seen: std::collections::BTreeSet<&str> = Default::default();
    for (i, code) in data.site_codes.iter().enumerate() {
        if !seen.insert(code) {
            continue;
        }
        let series = &data.site_counts[i];
        let median = series.median();
        if median < STABLE_SITE_MIN_VPS {
            continue;
        }
        stable_total += 1;
        let event_min = min_during_events(out, series);
        let dip = 1.0 - event_min / median;
        if dip >= DIP_THRESHOLD {
            affected.push(CollateralSite {
                letter,
                code: code.clone(),
                median,
                event_min,
                dip,
                series: series.clone(),
            });
        }
    }
    affected.sort_by(|a, b| b.dip.total_cmp(&a.dip));
    Figure14 {
        letter,
        affected,
        stable_total,
    }
}

impl Figure14 {
    pub fn render(&self) -> TextTable {
        let mut t = TextTable::new(
            &format!(
                "Figure 14: {}-root collateral-affected sites ({} of {} stable sites)",
                self.letter,
                self.affected.len(),
                self.stable_total
            ),
            &["site", "median", "event min", "dip", "series"],
        );
        for s in &self.affected {
            t.row(vec![
                format!("{}-{}", s.letter, s.code),
                num(s.median, 0),
                num(s.event_min, 0),
                if s.dip.is_finite() {
                    format!("{:.0}%", s.dip * 100.0)
                } else {
                    "–".to_string()
                },
                sparkline(s.series.values()),
            ]);
        }
        t
    }
}

/// One `.nl` anycast site's query-rate trajectory (Figure 15 anonymizes
/// rates; we normalize to the pre-event baseline the same way).
#[derive(Debug, Clone)]
pub struct NlSite {
    pub code: String,
    /// Served queries per bin normalized to the pre-event baseline.
    pub normalized: BinnedSeries,
    /// Worst normalized value during the events.
    pub event_min: f64,
}

#[derive(Debug, Clone)]
pub struct Figure15 {
    pub sites: Vec<NlSite>,
}

pub fn figure15(out: &SimOutput) -> Figure15 {
    let sites = out
        .nl_sites
        .iter()
        .map(|(code, series)| {
            let base = pre_event_baseline(out, series).max(1.0);
            let normalized = series.scaled(1.0 / base);
            let event_min = min_during_events(out, &normalized);
            NlSite {
                code: code.clone(),
                normalized,
                event_min,
            }
        })
        .collect();
    Figure15 { sites }
}

impl Figure15 {
    pub fn render(&self) -> TextTable {
        let mut t = TextTable::new(
            "Figure 15: .nl anycast sites, normalized query rate",
            &["site", "event min (x baseline)", "series"],
        );
        for s in &self.sites {
            t.row(vec![
                format!("nl-{}", s.code),
                num(s.event_min, 2),
                sparkline(s.normalized.values()),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::fixture::smoke;

    #[test]
    fn d_root_shows_collateral_sites() {
        let fig = figure14(smoke(), Letter::D);
        assert!(fig.stable_total > 0, "no stable D sites");
        assert!(
            !fig.affected.is_empty(),
            "no D collateral despite shared facilities"
        );
        // FRA (shared with attacked K-FRA) is among them.
        assert!(
            fig.affected.iter().any(|s| s.code == "FRA"),
            "D-FRA missing from {:?}",
            fig.affected
                .iter()
                .map(|s| s.code.clone())
                .collect::<Vec<_>>()
        );
        for s in &fig.affected {
            assert!(s.dip >= DIP_THRESHOLD);
            assert!(s.median >= STABLE_SITE_MIN_VPS);
        }
    }

    #[test]
    fn most_d_sites_are_unaffected() {
        // Collateral is localized: the bulk of D's (unattacked) sites
        // must sail through.
        let fig = figure14(smoke(), Letter::D);
        assert!(
            fig.affected.len() * 2 < fig.stable_total.max(1) * 2,
            "affected {} of {}",
            fig.affected.len(),
            fig.stable_total
        );
        assert!(fig.affected.len() < fig.stable_total);
    }

    #[test]
    fn nl_sites_collapse_during_events() {
        let fig = figure15(smoke());
        assert_eq!(fig.sites.len(), 2);
        let fra = fig.sites.iter().find(|s| s.code == "FRA").unwrap();
        assert!(
            fra.event_min < 0.8,
            "nl-FRA event min {} (should dip)",
            fra.event_min
        );
    }

    #[test]
    fn renders_work() {
        assert!(figure14(smoke(), Letter::D)
            .render()
            .to_string()
            .contains("Figure 14"));
        assert!(figure15(smoke()).render().to_string().contains("Figure 15"));
    }
}
