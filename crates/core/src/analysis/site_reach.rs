//! Figures 5 & 6 (per-site reachability for a letter) and Table 2's
//! observed-site census.
//!
//! Figure 5 summarizes each site by its minimum and maximum VP count
//! normalized to the site's median; Figure 6 shows the full per-site
//! time series with "critical" bins where reachability fell below the
//! median. Table 2's right column counts the sites a letter *observably*
//! operates — what CHAOS answers reveal to the measurement platform.

use crate::analysis::{min_during_events, STABLE_SITE_MIN_VPS};
use crate::render::{num, sparkline, TextTable};
use crate::sim::SimOutput;
use rootcast_dns::Letter;
use rootcast_netsim::BinnedSeries;

/// One site's Figure 5 row.
#[derive(Debug, Clone)]
pub struct SiteRow {
    pub code: String,
    pub median: f64,
    /// min over bins / median.
    pub min_norm: f64,
    /// max over bins / median.
    pub max_norm: f64,
    /// Whether the site clears the 20-VP stability threshold.
    pub stable: bool,
    /// Worst bin during the events, normalized.
    pub event_min_norm: f64,
}

/// Figure 5 for one letter.
#[derive(Debug, Clone)]
pub struct Figure5 {
    pub letter: Letter,
    /// Rows ordered by median VP count, descending (the paper's order).
    pub rows: Vec<SiteRow>,
}

pub fn figure5(out: &SimOutput, letter: Letter) -> Figure5 {
    let data = out.pipeline.letter(letter);
    let mut rows: Vec<SiteRow> = Vec::new();
    let mut seen: std::collections::BTreeSet<&str> = Default::default();
    for (i, code) in data.site_codes.iter().enumerate() {
        // Duplicate codes (multi-origin sites like K-LHR) are recorded
        // under their first index; skip the shadow entries.
        if !seen.insert(code) {
            continue;
        }
        let s = &data.site_counts[i];
        let median = s.median();
        if median <= 0.0 && s.max() <= 0.0 {
            continue; // site never observed
        }
        let denom = median.max(1.0);
        rows.push(SiteRow {
            code: code.clone(),
            median,
            min_norm: s.min() / denom,
            max_norm: s.max() / denom,
            stable: median >= STABLE_SITE_MIN_VPS,
            event_min_norm: min_during_events(out, s) / denom,
        });
    }
    rows.sort_by(|a, b| b.median.total_cmp(&a.median));
    Figure5 { letter, rows }
}

impl Figure5 {
    pub fn render(&self) -> TextTable {
        let mut t = TextTable::new(
            &format!(
                "Figure 5: {}-root per-site min/max (normalized to median)",
                self.letter
            ),
            &[
                "site",
                "median",
                "min/med",
                "max/med",
                "event min/med",
                "stable",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                format!("{}-{}", self.letter, r.code),
                num(r.median, 0),
                num(r.min_norm, 2),
                num(r.max_norm, 2),
                num(r.event_min_norm, 2),
                if r.stable { "yes".into() } else { "".into() },
            ]);
        }
        t
    }
}

/// One site's Figure 6 panel.
#[derive(Debug, Clone)]
pub struct SitePanel {
    pub code: String,
    pub median: f64,
    pub series: BinnedSeries,
    /// Bin indices where the count fell below the median — the paper's
    /// red "critical" stretches.
    pub critical_bins: Vec<usize>,
}

/// Figure 6 for one letter.
#[derive(Debug, Clone)]
pub struct Figure6 {
    pub letter: Letter,
    pub panels: Vec<SitePanel>,
}

pub fn figure6(out: &SimOutput, letter: Letter) -> Figure6 {
    let data = out.pipeline.letter(letter);
    let mut seen: std::collections::BTreeSet<&str> = Default::default();
    let mut panels: Vec<SitePanel> = Vec::new();
    for (i, code) in data.site_codes.iter().enumerate() {
        if !seen.insert(code) {
            continue;
        }
        let series = data.site_counts[i].clone();
        let median = series.median();
        if median <= 0.0 && series.max() <= 0.0 {
            continue;
        }
        let critical_bins = series
            .values()
            .iter()
            .enumerate()
            .filter(|(_, &v)| v < median * 0.75)
            .map(|(b, _)| b)
            .collect();
        panels.push(SitePanel {
            code: code.clone(),
            median,
            series,
            critical_bins,
        });
    }
    panels.sort_by(|a, b| b.median.total_cmp(&a.median));
    Figure6 { letter, panels }
}

impl Figure6 {
    pub fn render(&self) -> TextTable {
        let mut t = TextTable::new(
            &format!("Figure 6: {}-root per-site reachability", self.letter),
            &["site", "median", "critical bins", "series"],
        );
        for p in &self.panels {
            t.row(vec![
                format!("{}-{}", self.letter, p.code),
                num(p.median, 0),
                p.critical_bins.len().to_string(),
                sparkline(p.series.values()),
            ]);
        }
        t
    }
}

/// Table 2: reported vs observed sites for every letter.
#[derive(Debug, Clone)]
pub struct CensusRow {
    pub letter: Letter,
    pub operator: String,
    /// Sites in the deployment configuration ("reported").
    pub reported: usize,
    /// Distinct site codes ever observed via CHAOS by any cleaned VP.
    pub observed: usize,
}

#[derive(Debug, Clone)]
pub struct Table2 {
    pub rows: Vec<CensusRow>,
}

pub fn table2(out: &SimOutput) -> Table2 {
    let rows = out
        .letters
        .iter()
        .enumerate()
        .map(|(i, &letter)| {
            let data = out.pipeline.letter(letter);
            let mut codes: std::collections::BTreeSet<&str> = Default::default();
            for (s, code) in data.site_codes.iter().enumerate() {
                if data.site_counts[s].max() > 0.0 {
                    codes.insert(code);
                }
            }
            // Distinct configured codes (a dual-origin site counts once).
            let reported: std::collections::BTreeSet<&str> = out.deployments[i]
                .sites
                .iter()
                .map(|s| s.code.as_str())
                .collect();
            CensusRow {
                letter,
                operator: letter.operator().to_string(),
                reported: reported.len(),
                observed: codes.len(),
            }
        })
        .collect();
    Table2 { rows }
}

impl Table2 {
    pub fn render(&self) -> TextTable {
        let mut t = TextTable::new(
            "Table 2: letters, reported vs observed sites",
            &["letter", "operator", "reported", "observed"],
        );
        for r in &self.rows {
            t.row(vec![
                r.letter.to_string(),
                r.operator.clone(),
                r.reported.to_string(),
                r.observed.to_string(),
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
    fn figure5_ordered_by_median() {
        let fig = figure5(smoke(), Letter::K);
        assert!(!fig.rows.is_empty());
        for pair in fig.rows.windows(2) {
            assert!(pair[0].median >= pair[1].median);
        }
        // Normalizations are consistent: min <= 1 <= max for sites with
        // a positive median.
        for r in fig.rows.iter().filter(|r| r.median >= 1.0) {
            assert!(r.min_norm <= 1.0 + 1e-9, "{}: min {}", r.code, r.min_norm);
            assert!(r.max_norm >= 1.0 - 1e-9, "{}: max {}", r.code, r.max_norm);
        }
    }

    #[test]
    fn duplicate_site_codes_collapse() {
        // K-LHR has two origins but must appear once.
        let fig = figure5(smoke(), Letter::K);
        let lhr = fig.rows.iter().filter(|r| r.code == "LHR").count();
        assert!(lhr <= 1, "LHR appeared {lhr} times");
    }

    #[test]
    fn stressed_k_sites_show_critical_bins() {
        let fig = figure6(smoke(), Letter::K);
        let total_critical: usize = fig.panels.iter().map(|p| p.critical_bins.len()).sum();
        assert!(total_critical > 0, "no critical bins anywhere");
    }

    #[test]
    fn unattacked_letter_has_few_critical_bins() {
        let fig = figure6(smoke(), Letter::M);
        let stable_panels = fig.panels.iter().filter(|p| p.median >= 5.0);
        for p in stable_panels {
            assert!(
                p.critical_bins.len() <= 3,
                "M-{} critical {} bins",
                p.code,
                p.critical_bins.len()
            );
        }
    }

    #[test]
    fn census_counts_are_sane() {
        let t2 = table2(smoke());
        assert_eq!(t2.rows.len(), 13);
        for r in &t2.rows {
            assert!(
                r.observed <= r.reported,
                "{}: observed {} > reported {}",
                r.letter,
                r.observed,
                r.reported
            );
        }
        let b = t2.rows.iter().find(|r| r.letter == Letter::B).unwrap();
        assert_eq!(b.reported, 1);
        assert_eq!(b.observed, 1);
        assert!(t2.render().to_string().contains("Table 2"));
    }
}
