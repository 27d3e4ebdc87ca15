//! Figure 9: BGP route changes per letter, as seen by the collectors.
//!
//! The paper corroborates Atlas-observed site flips with BGPmon update
//! streams: occasional changes over the whole period, but *very
//! frequent* bursts across many letters inside the two event windows.

use crate::analysis::padded_event_windows;
use crate::render::{num, sparkline, TextTable};
use crate::sim::SimOutput;
use rootcast_dns::Letter;
use rootcast_netsim::{BinnedSeries, SimDuration};

#[derive(Debug, Clone)]
pub struct Figure9 {
    pub rows: Vec<(Letter, BinnedSeries)>,
    /// Bin width used.
    pub bin: SimDuration,
}

pub fn figure9(out: &SimOutput) -> Figure9 {
    let bin = SimDuration::from_mins(10);
    let n_bins = (out.horizon.as_nanos() / bin.as_nanos()) as usize;
    let rows = out
        .letters
        .iter()
        .map(|&l| {
            let series = out
                .collectors
                .get(&l)
                .map(|c| c.binned_messages(bin, n_bins))
                .unwrap_or_else(|| BinnedSeries::zeros(bin, n_bins));
            (l, series)
        })
        .collect();
    Figure9 { rows, bin }
}

impl Figure9 {
    pub fn total(&self, letter: Letter) -> f64 {
        self.rows
            .iter()
            .find(|(l, _)| *l == letter)
            .map(|(_, s)| s.values().iter().sum())
            .unwrap_or(0.0)
    }

    /// Route-change messages inside the padded event windows, across all
    /// letters.
    pub fn event_total(&self, out: &SimOutput) -> f64 {
        let mut sum = 0.0;
        for (_, s) in &self.rows {
            for (a, b) in padded_event_windows(out, SimDuration::from_mins(30)) {
                sum += s.window(a, b).values().iter().sum::<f64>();
            }
        }
        sum
    }

    pub fn render(&self) -> TextTable {
        let mut t = TextTable::new(
            "Figure 9: BGP route-change messages per letter (collector view)",
            &["letter", "total msgs", "series"],
        );
        for (l, s) in &self.rows {
            t.row(vec![
                l.to_string(),
                num(s.values().iter().sum(), 0),
                sparkline(s.values()),
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
    fn withdrawing_letters_generate_updates() {
        let out = smoke();
        let fig = figure9(out);
        // H's primary/backup flapping guarantees updates.
        assert!(fig.total(Letter::H) > 0.0, "H should flap");
        // B is unicast with absorb policy: only maintenance noise, which
        // cannot apply to a single-site letter (its site holds the whole
        // catchment).
        assert_eq!(fig.total(Letter::B), 0.0);
    }

    #[test]
    fn updates_concentrate_in_events() {
        let out = smoke();
        let fig = figure9(out);
        let event = fig.event_total(out);
        let all: f64 = out.letters.iter().map(|&l| fig.total(l)).sum();
        assert!(all > 0.0);
        assert!(
            event / all > 0.5,
            "event share {} of {all} messages",
            event / all
        );
    }

    #[test]
    fn render_lists_letters() {
        let fig = figure9(smoke());
        assert_eq!(fig.rows.len(), 13);
        assert!(fig.render().to_string().contains("Figure 9"));
    }
}
