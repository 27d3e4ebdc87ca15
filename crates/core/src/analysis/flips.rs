//! Figures 8 & 10: site flips.
//!
//! A *site flip* is a VP whose consecutive (site-answering) bins name
//! different sites — the client-visible footprint of a route change.
//! Figure 8 counts flips per letter over time; bursts align with the
//! events. Figure 10 drills into K-root: VPs leaving K-LHR and K-FRA
//! during the events go overwhelmingly to K-AMS, and return afterwards.

use crate::analysis::padded_event_windows;
use crate::render::{num, sparkline, TextTable};
use crate::sim::SimOutput;
use rootcast_dns::Letter;
use rootcast_netsim::{BinnedSeries, SimDuration};
use std::collections::BTreeMap;

/// Figure 8: flips per letter.
#[derive(Debug, Clone)]
pub struct Figure8 {
    pub rows: Vec<(Letter, BinnedSeries)>,
    /// Per-row event share (fraction of flips inside the padded event
    /// windows), aligned with `rows`. NaN when a letter never flipped —
    /// the renderer shows those cells as "–".
    pub event_shares: Vec<f64>,
}

pub fn figure8(out: &SimOutput) -> Figure8 {
    let mut fig = Figure8 {
        rows: out
            .letters
            .iter()
            .map(|&l| (l, out.pipeline.letter(l).flips.clone()))
            .collect(),
        event_shares: Vec::new(),
    };
    fig.event_shares = fig
        .rows
        .iter()
        .map(|&(l, _)| fig.event_share(out, l))
        .collect();
    fig
}

impl Figure8 {
    /// Total flips for a letter.
    pub fn total(&self, letter: Letter) -> f64 {
        self.rows
            .iter()
            .find(|(l, _)| *l == letter)
            .map(|(_, s)| s.values().iter().sum())
            .unwrap_or(0.0)
    }

    /// Fraction of a letter's flips that fall inside the (padded) event
    /// windows — near 1.0 when flips are event-driven.
    pub fn event_share(&self, out: &SimOutput, letter: Letter) -> f64 {
        let Some((_, series)) = self.rows.iter().find(|(l, _)| *l == letter) else {
            return f64::NAN;
        };
        let total: f64 = series.values().iter().sum();
        if total == 0.0 {
            return f64::NAN;
        }
        let mut during = 0.0;
        for (s, e) in padded_event_windows(out, SimDuration::from_mins(30)) {
            during += series.window(s, e).values().iter().sum::<f64>();
        }
        during / total
    }

    pub fn render(&self) -> TextTable {
        let mut t = TextTable::new(
            "Figure 8: site flips per letter",
            &["letter", "total flips", "event share", "series"],
        );
        for (i, (l, s)) in self.rows.iter().enumerate() {
            let share = self.event_shares.get(i).copied().unwrap_or(f64::NAN);
            t.row(vec![
                l.to_string(),
                num(s.values().iter().sum(), 0),
                num(share, 2),
                sparkline(s.values()),
            ]);
        }
        t
    }
}

/// Where VPs leaving one site went (or where arrivals came from).
#[derive(Debug, Clone)]
pub struct FlowTable {
    pub letter: Letter,
    /// The focal site code.
    pub site: String,
    /// Flips out of the site during the events: destination code → count.
    pub outflow_during: BTreeMap<String, u64>,
    /// Flips into the site after the last event ended: origin → count.
    pub inflow_after: BTreeMap<String, u64>,
}

/// Figure 10 for one focal site of one letter (the paper uses K-LHR and
/// K-FRA, with K-AMS as the main destination).
pub fn figure10(out: &SimOutput, letter: Letter, site_code: &str) -> FlowTable {
    let data = out.pipeline.letter(letter);
    let code = site_code.to_ascii_uppercase();
    let focal: Vec<u16> = data
        .site_codes
        .iter()
        .enumerate()
        .filter(|(_, c)| **c == code)
        .map(|(i, _)| i as u16)
        .collect();
    let bin = data.flips.bin_width();
    let windows = padded_event_windows(out, SimDuration::from_mins(20));
    let in_events = |at_bin: u32| {
        let t = rootcast_netsim::SimTime::ZERO + bin * u64::from(at_bin);
        windows.iter().any(|&(s, e)| t >= s && t < e)
    };
    let last_end = out
        .attack
        .windows()
        .iter()
        .map(|w| w.end())
        .max()
        .unwrap_or(rootcast_netsim::SimTime::ZERO);
    let mut outflow_during: BTreeMap<String, u64> = BTreeMap::new();
    let mut inflow_after: BTreeMap<String, u64> = BTreeMap::new();
    for f in &data.flip_events {
        let t = rootcast_netsim::SimTime::ZERO + bin * u64::from(f.at_bin);
        if focal.contains(&f.from_site) && in_events(f.at_bin) {
            *outflow_during
                .entry(data.site_codes[f.to_site as usize].clone())
                .or_insert(0) += 1;
        }
        if focal.contains(&f.to_site) && t >= last_end {
            *inflow_after
                .entry(data.site_codes[f.from_site as usize].clone())
                .or_insert(0) += 1;
        }
    }
    FlowTable {
        letter,
        site: code,
        outflow_during,
        inflow_after,
    }
}

impl FlowTable {
    /// Fraction of event-time outflow going to `dest`. A run with no
    /// outflow at all (no attack, or the site's catchment never moved)
    /// sends no share anywhere: 0.0, not 0/0 = NaN — callers feed this
    /// straight into rendered cells and CSV.
    pub fn outflow_share(&self, dest: &str) -> f64 {
        let dest = dest.to_ascii_uppercase();
        let total: u64 = self.outflow_during.values().sum();
        if total == 0 {
            return 0.0;
        }
        *self.outflow_during.get(&dest).unwrap_or(&0) as f64 / total as f64
    }

    pub fn render(&self) -> TextTable {
        let mut t = TextTable::new(
            &format!(
                "Figure 10: flips out of {}-{} during events / into it after",
                self.letter, self.site
            ),
            &["direction", "peer site", "flips"],
        );
        for (dest, n) in &self.outflow_during {
            t.row(vec![
                "out (during)".into(),
                format!("{}-{}", self.letter, dest),
                n.to_string(),
            ]);
        }
        for (src, n) in &self.inflow_after {
            t.row(vec![
                "in (after)".into(),
                format!("{}-{}", self.letter, src),
                n.to_string(),
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
    fn attacked_letters_flip_during_events() {
        let out = smoke();
        let fig = figure8(out);
        // K flips and those flips concentrate in the event windows.
        let k_total = fig.total(Letter::K);
        assert!(k_total > 0.0, "no K flips at all");
        let share = fig.event_share(out, Letter::K);
        assert!(share > 0.5, "K event flip share {share}");
    }

    #[test]
    fn unattacked_letters_flip_little() {
        let out = smoke();
        let fig = figure8(out);
        let k = fig.total(Letter::K);
        let m = fig.total(Letter::M);
        assert!(m < k, "M (not attacked) flips {m} should be below K's {k}");
    }

    #[test]
    fn lhr_outflow_reaches_ams() {
        let out = smoke();
        let flow = figure10(out, Letter::K, "LHR");
        let total: u64 = flow.outflow_during.values().sum();
        assert!(total > 0, "no outflow from K-LHR during events");
        // AMS should be a major destination (the paper: 70-80%).
        let ams = flow.outflow_share("AMS");
        assert!(ams.is_finite() && ams >= 0.0, "share must be finite: {ams}");
        assert!(flow.render().to_string().contains("Figure 10"));
    }

    #[test]
    fn outflow_share_of_quiet_site_is_zero_not_nan() {
        // A site that never shed a VP during the events has no outflow
        // to apportion: every share is 0.0. The old 0/0 path returned
        // NaN, which leaked into Figure 10 CSV exports.
        let flow = FlowTable {
            letter: Letter::K,
            site: "LHR".into(),
            outflow_during: BTreeMap::new(),
            inflow_after: BTreeMap::new(),
        };
        let share = flow.outflow_share("AMS");
        assert_eq!(share, 0.0, "empty outflow must yield 0.0, got {share}");
    }

    #[test]
    fn outflow_share_sums_to_one() {
        let out = smoke();
        let flow = figure10(out, Letter::K, "LHR");
        if !flow.outflow_during.is_empty() {
            let sum: f64 = flow
                .outflow_during
                .keys()
                .map(|d| flow.outflow_share(d))
                .sum();
            assert!((sum - 1.0).abs() < 1e-9, "shares sum {sum}");
        }
    }
}
