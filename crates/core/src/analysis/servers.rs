//! Figures 12 & 13: individual servers inside watched sites.
//!
//! §3.5's finding: per-server behaviour can diverge sharply from
//! site-level behaviour. At K-FRA, replies collapsed onto a single
//! surviving server during each event (a different one each time); at
//! K-NRT all three servers stayed visible but slow, one markedly more
//! loaded than its siblings. Measurement studies must therefore observe
//! *all* servers of a site.

use crate::analysis::event_windows;
use crate::render::{num, sparkline, TextTable};
use crate::sim::SimOutput;
use rootcast_dns::Letter;
use rootcast_netsim::BinnedSeries;
use std::collections::BTreeMap;

/// Per-server data for one watched site.
#[derive(Debug, Clone)]
pub struct ServerPanel {
    pub letter: Letter,
    pub site: String,
    /// Per-server VP counts per bin (key = server ordinal).
    pub counts: BTreeMap<u16, BinnedSeries>,
    /// Per-server median RTT (ms) per bin.
    pub rtt_ms: BTreeMap<u16, BinnedSeries>,
}

#[derive(Debug, Clone)]
pub struct Figures12And13 {
    pub panels: Vec<ServerPanel>,
}

pub fn figures12_13(out: &SimOutput) -> Figures12And13 {
    let mut panels = Vec::new();
    for &letter in &out.letters {
        let data = out.pipeline.letter(letter);
        for (&site_idx, watch) in &data.watches {
            let rtt_ms = watch
                .rtts
                .iter()
                .map(|(&srv, nanos)| (srv, nanos.map(|ns| ns / 1e6)))
                .collect();
            panels.push(ServerPanel {
                letter,
                site: data.site_codes[site_idx as usize].clone(),
                counts: watch.counts.clone(),
                rtt_ms,
            });
        }
    }
    Figures12And13 { panels }
}

impl ServerPanel {
    /// Which servers answered in the settled second half of each event
    /// window (the first minutes contain the pre-overload transition,
    /// which is not what Figure 12 characterizes).
    pub fn responding_during_events(&self, out: &SimOutput) -> Vec<Vec<u16>> {
        event_windows(out)
            .into_iter()
            .map(|(s, e)| {
                let half = s + (e - s) / 2;
                self.counts
                    .iter()
                    .filter(|(_, series)| series.window(half, e).values().iter().sum::<f64>() > 0.0)
                    .map(|(&srv, _)| srv)
                    .collect()
            })
            .collect()
    }
}

impl Figures12And13 {
    pub fn site(&self, letter: Letter, code: &str) -> Option<&ServerPanel> {
        let code = code.to_ascii_uppercase();
        self.panels
            .iter()
            .find(|p| p.letter == letter && p.site == code)
    }

    pub fn render(&self) -> TextTable {
        let mut t = TextTable::new(
            "Figures 12/13: per-server reachability and RTT at watched sites",
            &[
                "site",
                "server",
                "total answers",
                "median rtt ms",
                "count series",
            ],
        );
        for p in &self.panels {
            for (&srv, counts) in &p.counts {
                let rtt = p.rtt_ms.get(&srv).map(|s| s.median()).unwrap_or(f64::NAN);
                t.row(vec![
                    format!("{}-{}", p.letter, p.site),
                    format!("s{srv}"),
                    num(counts.values().iter().sum(), 0),
                    num(rtt, 1),
                    sparkline(counts.values()),
                ]);
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::fixture::smoke;
    use crate::analysis::pre_event_baseline;

    /// Servers answering before the first event (the healthy set).
    fn responding_baseline(panel: &ServerPanel, out: &SimOutput) -> Vec<u16> {
        panel
            .counts
            .iter()
            .filter(|(_, series)| pre_event_baseline(out, series) > 0.0)
            .map(|(&srv, _)| srv)
            .collect()
    }

    #[test]
    fn k_fra_concentrates_to_one_server() {
        let out = smoke();
        let figs = figures12_13(out);
        let fra = figs.site(Letter::K, "FRA").expect("K-FRA watched");
        let healthy = responding_baseline(fra, out);
        assert!(healthy.len() >= 2, "baseline servers {healthy:?}");
        let during = fra.responding_during_events(out);
        // In the (single) event the responding set shrinks to one
        // survivor — the §3.5 K-FRA pattern.
        assert_eq!(
            during[0].len(),
            1,
            "K-FRA during-event servers {:?}",
            during[0]
        );
    }

    #[test]
    fn k_nrt_keeps_all_servers_but_slow() {
        let out = smoke();
        let figs = figures12_13(out);
        let nrt = figs.site(Letter::K, "NRT").expect("K-NRT watched");
        let healthy = responding_baseline(nrt, out);
        let during = nrt.responding_during_events(out);
        // SharedLink mode: nobody disappears entirely.
        assert_eq!(
            during[0].len(),
            healthy.len(),
            "K-NRT lost servers: {:?} -> {:?}",
            healthy,
            during[0]
        );
    }

    #[test]
    fn per_server_rtt_rises_at_nrt() {
        let out = smoke();
        let figs = figures12_13(out);
        let nrt = figs.site(Letter::K, "NRT").expect("K-NRT watched");
        let (es, ee) = crate::analysis::event_windows(out)[0];
        let mut any_rise = false;
        for series in nrt.rtt_ms.values() {
            let base = pre_event_baseline(out, series);
            let w = series.window(es, ee);
            if !w.is_empty() && w.max() > base * 2.0 {
                any_rise = true;
            }
        }
        assert!(any_rise, "no K-NRT server showed RTT inflation");
    }

    #[test]
    fn render_contains_servers() {
        let figs = figures12_13(smoke());
        let s = figs.render().to_string();
        assert!(s.contains("s1"));
    }
}
