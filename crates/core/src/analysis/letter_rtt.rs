//! Figure 4: median RTT per letter over time.
//!
//! The paper plots only letters whose RTT visibly changes (B, C, G, H,
//! K) and notes that H's event-time median converges to B's — evidence
//! that H's (European) clients were re-routed across the Atlantic to its
//! West-coast backup when the East-coast primary withdrew.

use crate::analysis::{event_windows, pre_event_baseline};
use crate::render::{num, sparkline, TextTable};
use crate::sim::SimOutput;
use rootcast_dns::Letter;
use rootcast_netsim::BinnedSeries;

/// One letter's RTT trajectory.
#[derive(Debug, Clone)]
pub struct RttRow {
    pub letter: Letter,
    /// Median RTT per bin, milliseconds (NaN where nothing succeeded).
    pub series_ms: BinnedSeries,
    /// Pre-event baseline median, ms.
    pub baseline_ms: f64,
    /// Peak bin-median during the events, ms.
    pub event_peak_ms: f64,
    /// `event_peak / baseline`; letters above [`SIGNIFICANT_CHANGE`] are
    /// the ones the paper plots.
    pub change_factor: f64,
}

/// Change factor beyond which a letter is considered visibly affected.
pub const SIGNIFICANT_CHANGE: f64 = 1.5;

#[derive(Debug, Clone)]
pub struct Figure4 {
    pub rows: Vec<RttRow>,
}

pub fn figure4(out: &SimOutput) -> Figure4 {
    let rows = out
        .letters
        .iter()
        .map(|&letter| {
            let series_ms = out.pipeline.letter(letter).rtt_median_ms();
            let baseline_ms = pre_event_baseline(out, &series_ms);
            let mut peak: f64 = f64::NAN;
            for (s, e) in event_windows(out) {
                let w = series_ms.window(s, e);
                if !w.is_empty() {
                    let m = w.max();
                    peak = if peak.is_nan() { m } else { peak.max(m) };
                }
            }
            RttRow {
                letter,
                change_factor: if baseline_ms > 0.0 {
                    peak / baseline_ms
                } else {
                    f64::NAN
                },
                series_ms,
                baseline_ms,
                event_peak_ms: peak,
            }
        })
        .collect();
    Figure4 { rows }
}

impl Figure4 {
    /// The letters the figure would plot: visible change only.
    pub fn significant(&self) -> Vec<&RttRow> {
        self.rows
            .iter()
            .filter(|r| r.change_factor.is_finite() && r.change_factor >= SIGNIFICANT_CHANGE)
            .collect()
    }

    pub fn render(&self) -> TextTable {
        let mut t = TextTable::new(
            "Figure 4: median RTT per letter (ms)",
            &[
                "letter",
                "baseline",
                "event peak",
                "factor",
                "plotted",
                "series",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.letter.to_string(),
                num(r.baseline_ms, 1),
                num(r.event_peak_ms, 1),
                num(r.change_factor, 2),
                if r.change_factor >= SIGNIFICANT_CHANGE {
                    "yes".into()
                } else {
                    "".into()
                },
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
    fn h_root_rtt_jumps_when_primary_withdraws() {
        let fig = figure4(smoke());
        let h = fig.rows.iter().find(|r| r.letter == Letter::H).unwrap();
        assert!(
            h.change_factor > SIGNIFICANT_CHANGE,
            "H change factor {} (baseline {} peak {})",
            h.change_factor,
            h.baseline_ms,
            h.event_peak_ms
        );
    }

    #[test]
    fn unattacked_letters_rtt_stable() {
        let fig = figure4(smoke());
        for l in [Letter::L, Letter::M] {
            let r = fig.rows.iter().find(|r| r.letter == l).unwrap();
            assert!(
                r.change_factor < SIGNIFICANT_CHANGE,
                "{l} factor {}",
                r.change_factor
            );
        }
    }

    #[test]
    fn k_root_shows_bufferbloat() {
        // K's absorbing sites queue heavily: the letter-level median
        // must rise during the event.
        let fig = figure4(smoke());
        let k = fig.rows.iter().find(|r| r.letter == Letter::K).unwrap();
        assert!(
            k.event_peak_ms > k.baseline_ms * 2.0,
            "K baseline {} peak {}",
            k.baseline_ms,
            k.event_peak_ms
        );
    }

    #[test]
    fn significant_set_nonempty_and_renders() {
        let fig = figure4(smoke());
        assert!(!fig.significant().is_empty());
        assert!(fig.render().to_string().contains("Figure 4"));
    }
}
