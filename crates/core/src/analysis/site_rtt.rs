//! Figure 7: median RTT of *watched* sites over time.
//!
//! The paper's headline example: K-AMS stayed reachable but its median
//! RTT rose from ~30 ms to 1 s (Nov 30) and almost 2 s (Dec 1) —
//! "industrial-scale bufferbloat" at an absorbing site. K-NRT behaves
//! the same way from a higher baseline.

use crate::analysis::{event_windows, pre_event_baseline};
use crate::render::{num, sparkline, TextTable};
use crate::sim::SimOutput;
use rootcast_dns::Letter;
use rootcast_netsim::BinnedSeries;

/// One watched site's RTT trajectory.
#[derive(Debug, Clone)]
pub struct SiteRttRow {
    pub letter: Letter,
    pub code: String,
    pub series_ms: BinnedSeries,
    pub baseline_ms: f64,
    /// Peak bin-median during each event window, ms.
    pub event_peaks_ms: Vec<f64>,
}

#[derive(Debug, Clone)]
pub struct Figure7 {
    pub rows: Vec<SiteRttRow>,
}

/// Compute Figure 7 from every watched site in the pipeline config.
pub fn figure7(out: &SimOutput) -> Figure7 {
    let mut rows = Vec::new();
    for &letter in &out.letters {
        let data = out.pipeline.letter(letter);
        for (&site_idx, watch) in &data.watches {
            let series_ms = watch.site_rtt.map(|ns| ns / 1e6);
            let baseline_ms = pre_event_baseline(out, &series_ms);
            let event_peaks_ms = event_windows(out)
                .into_iter()
                .map(|(s, e)| {
                    let w = series_ms.window(s, e);
                    if w.is_empty() {
                        f64::NAN
                    } else {
                        w.max()
                    }
                })
                .collect();
            rows.push(SiteRttRow {
                letter,
                code: data.site_codes[site_idx as usize].clone(),
                series_ms,
                baseline_ms,
                event_peaks_ms,
            });
        }
    }
    Figure7 { rows }
}

impl Figure7 {
    /// Find a row by letter and site code.
    pub fn site(&self, letter: Letter, code: &str) -> Option<&SiteRttRow> {
        let code = code.to_ascii_uppercase();
        self.rows
            .iter()
            .find(|r| r.letter == letter && r.code == code)
    }

    pub fn render(&self) -> TextTable {
        let mut t = TextTable::new(
            "Figure 7: median RTT at watched sites (ms)",
            &["site", "baseline", "event peaks", "series"],
        );
        for r in &self.rows {
            t.row(vec![
                format!("{}-{}", r.letter, r.code),
                num(r.baseline_ms, 1),
                r.event_peaks_ms
                    .iter()
                    .map(|&p| num(p, 0))
                    .collect::<Vec<_>>()
                    .join(" / "),
                sparkline(r.series_ms.values()),
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
    fn k_ams_rtt_inflates_under_absorption() {
        let fig = figure7(smoke());
        let ams = fig.site(Letter::K, "AMS").expect("K-AMS watched");
        let peak = ams.event_peaks_ms[0];
        assert!(
            peak > ams.baseline_ms * 5.0,
            "K-AMS baseline {} peak {}",
            ams.baseline_ms,
            peak
        );
        assert!(
            peak > 500.0,
            "K-AMS peak {peak} ms should reach bufferbloat scale"
        );
    }

    #[test]
    fn k_nrt_also_watched_and_inflated() {
        let fig = figure7(smoke());
        let nrt = fig.site(Letter::K, "NRT").expect("K-NRT watched");
        assert!(
            nrt.event_peaks_ms[0] > nrt.baseline_ms,
            "NRT peak {} vs baseline {}",
            nrt.event_peaks_ms[0],
            nrt.baseline_ms
        );
    }

    #[test]
    fn lookup_is_case_insensitive_and_render_works() {
        let fig = figure7(smoke());
        assert!(fig.site(Letter::K, "ams").is_some());
        assert!(fig.site(Letter::K, "XXX").is_none());
        assert!(fig.render().to_string().contains("Figure 7"));
    }
}
