//! Figure 3: per-letter reachability, and the §3.2.1 correlation between
//! deployment size and worst-case responsiveness (the paper reports
//! R² = 0.87 between a letter's site count and the smallest number of
//! VPs that still received answers during the events).

use crate::analysis::{min_during_events, pre_event_baseline};
use crate::render::{num, sparkline, TextTable};
use crate::sim::SimOutput;
use rootcast_atlas::A_PROBE_INTERVAL;
use rootcast_dns::Letter;
use rootcast_netsim::stats::{linear_regression, Regression};
use rootcast_netsim::{BinnedSeries, Coverage};

/// One letter's reachability summary.
#[derive(Debug, Clone)]
pub struct LetterRow {
    pub letter: Letter,
    /// Number of configured sites.
    pub n_sites: usize,
    /// VPs answering successfully per 10-minute bin. A-root's series is
    /// scaled for its slower probing interval, as in the paper.
    pub series: BinnedSeries,
    /// Pre-event baseline (median successful VPs).
    pub baseline: f64,
    /// Worst bin during the events.
    pub worst: f64,
    /// `worst / baseline` — the survival fraction.
    pub survival: f64,
    /// Fraction of the letter's scheduled probes that produced usable
    /// observations. `< 1.0` when probe-fleet faults thinned the view —
    /// the series (and `worst`) then under-state the letter's health.
    pub coverage: Coverage,
}

/// The full Figure 3 result.
#[derive(Debug, Clone)]
pub struct Figure3 {
    pub rows: Vec<LetterRow>,
    /// OLS of `worst` against `n_sites` across all letters (§3.2.1).
    pub sites_vs_worst: Option<Regression>,
    /// The same regression over the paper's effective sample: attacked
    /// letters only, excluding A (which the paper drops for its
    /// too-sparse probing). This is the closest analogue of the
    /// reported R² = 0.87.
    pub sites_vs_worst_attacked: Option<Regression>,
}

/// Compute Figure 3 from a run.
pub fn figure3(out: &SimOutput) -> Figure3 {
    let mut rows = Vec::with_capacity(out.letters.len());
    for (i, &letter) in out.letters.iter().enumerate() {
        // A letter the pipeline never registered yields no row — a
        // partial figure, not a panic.
        let Some(data) = out.pipeline.try_letter(letter) else {
            continue;
        };
        // A-root was probed every 30 min vs 4 min for others (§2.4.1):
        // with 10-minute bins only a fraction of VPs have a probe
        // scheduled per bin, so we scale its series by the ratio of its
        // probing interval to the bin width, the way the paper scales
        // A's observations. (No scaling when A probes at least once per
        // bin, as it does post-2016.)
        let scale = if letter == Letter::A {
            let bin = data.success.bin_width().as_secs_f64();
            (A_PROBE_INTERVAL.as_secs_f64() / bin).max(1.0)
        } else {
            1.0
        };
        let series = data.success.scaled(scale);
        let baseline = pre_event_baseline(out, &series);
        let worst = min_during_events(out, &series);
        rows.push(LetterRow {
            letter,
            n_sites: out.deployments[i].n_sites(),
            survival: if baseline > 0.0 {
                worst / baseline
            } else {
                f64::NAN
            },
            coverage: data.coverage(),
            series,
            baseline,
            worst,
        });
    }
    let pairs: Vec<(f64, f64)> = rows.iter().map(|r| (r.n_sites as f64, r.worst)).collect();
    let attacked: std::collections::BTreeSet<Letter> = out
        .attack
        .windows()
        .iter()
        .flat_map(|w| w.targets.iter().copied())
        .collect();
    let attacked_pairs: Vec<(f64, f64)> = rows
        .iter()
        .filter(|r| r.letter != Letter::A && attacked.contains(&r.letter))
        .map(|r| (r.n_sites as f64, r.worst))
        .collect();
    Figure3 {
        sites_vs_worst: linear_regression(&pairs),
        sites_vs_worst_attacked: linear_regression(&attacked_pairs),
        rows,
    }
}

impl Figure3 {
    /// Letters ordered by survival, worst first — the paper's narrative
    /// order (B, then H, ...).
    pub fn worst_first(&self) -> Vec<&LetterRow> {
        let mut v: Vec<&LetterRow> = self.rows.iter().collect();
        // total_cmp sorts NaN (no event observed) after every number.
        v.sort_by(|a, b| a.survival.total_cmp(&b.survival));
        v
    }

    pub fn render(&self) -> TextTable {
        let mut t = TextTable::new(
            "Figure 3: VPs with successful queries per letter",
            &[
                "letter", "sites", "baseline", "worst", "survival", "cover", "series",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.letter.to_string(),
                r.n_sites.to_string(),
                num(r.baseline, 0),
                num(r.worst, 0),
                num(r.survival, 2),
                format!("{}%", num(r.coverage.fraction() * 100.0, 0)),
                sparkline(r.series.values()),
            ]);
        }
        if let Some(reg) = &self.sites_vs_worst {
            t.row(vec![
                "R^2".into(),
                num(reg.r_squared, 2),
                "".into(),
                "".into(),
                "".into(),
                "".into(),
                format!(
                    "worst = {} * sites + {}",
                    num(reg.slope, 0),
                    num(reg.intercept, 0)
                ),
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
    fn unattacked_letters_survive_attacked_suffer() {
        let fig = figure3(smoke());
        let get = |l: Letter| fig.rows.iter().find(|r| r.letter == l).unwrap();
        for l in [Letter::D, Letter::L, Letter::M] {
            assert!(get(l).survival > 0.9, "{l} survival {}", get(l).survival);
        }
        assert!(
            get(Letter::B).survival < 0.5,
            "B {}",
            get(Letter::B).survival
        );
        // B is the worst letter.
        assert_eq!(fig.worst_first()[0].letter, Letter::B);
    }

    #[test]
    fn sites_correlate_positively_with_worst() {
        let fig = figure3(smoke());
        let reg = fig.sites_vs_worst.expect("13 letters regress");
        assert!(reg.slope > 0.0, "slope {}", reg.slope);
        // The paper reports R^2 = 0.87 over its effective sample
        // (attacked letters, A omitted); ours must be strongly positive
        // on the same restriction.
        let att = fig.sites_vs_worst_attacked.expect("attacked sample");
        assert!(att.slope > 0.0);
        assert!(att.r_squared > 0.5, "attacked R^2 {}", att.r_squared);
        assert!(reg.r_squared > 0.2, "all-letters R^2 {}", reg.r_squared);
    }

    #[test]
    fn a_root_series_is_scaled() {
        let out = smoke();
        let fig = figure3(out);
        let a = fig.rows.iter().find(|r| r.letter == Letter::A).unwrap();
        let raw = out.pipeline.letter(Letter::A).success.median();
        assert!((a.series.median() - raw * 3.0).abs() < 1e-9);
    }

    #[test]
    fn render_has_all_letters() {
        let t = figure3(smoke()).render();
        assert!(t.rows.len() >= 13);
        let s = t.to_string();
        assert!(s.contains("Figure 3"));
    }
}
