//! Table 3: how big were the events?
//!
//! The paper estimates event size from best-effort RSSAC-002 reports:
//! subtract a 7-day baseline from each reporting letter's event-day
//! totals, convert to Mq/s and Gb/s over the event window, then build
//! * a **lower bound** — the sum over reporting attacked letters (known
//!   to undercount, since most letters lost measurement data under
//!   stress),
//! * a **scaled** value accounting for attacked letters that did not
//!   report, and
//! * an **upper bound** — assume every attacked letter received what
//!   A-root (the only letter that measured the full event) reported.

use crate::render::{num, TextTable};
use crate::sim::SimOutput;
use rootcast_dns::Letter;
use rootcast_netsim::Coverage;
use rootcast_rssac::gbps;

/// One (letter, event-day) row of Table 3.
#[derive(Debug, Clone)]
pub struct Table3Row {
    pub letter: Letter,
    /// 0 = Nov 30 (160-minute event), 1 = Dec 1 (60-minute event).
    pub day: usize,
    pub attacked: bool,
    /// Δqueries over the event window, Mq/s.
    pub dq_mqps: f64,
    /// Δquery traffic, Gb/s.
    pub dq_gbps: f64,
    /// Δresponses, Mq/s.
    pub dr_mqps: f64,
    /// Δresponse traffic, Gb/s.
    pub dr_gbps: f64,
    /// Unique sources that day, millions.
    pub unique_m: f64,
    /// Ratio to the baseline unique count.
    pub unique_ratio: f64,
    /// Baseline queries, Mq/s (the rightmost columns of Table 3).
    pub baseline_mqps: f64,
    /// How much of the day's accounting the letter actually observed.
    /// `< 1.0` when monitoring gaps thinned the record — the deltas
    /// above are then partial, exactly like the real Table 3 caveats.
    pub coverage: Coverage,
}

/// Aggregate bounds for one event day.
///
/// A fault-gapped run can leave an event day with *no* reporting
/// attacked letters. The day still gets a `DayBounds` — dropping it
/// would silently shrink the table — but a degraded one, flagged by
/// `n_reporting == 0`: the lower bound is a true 0.0 (nothing was
/// observed), while the scaled and upper estimates are undefined (NaN,
/// rendered as "–").
#[derive(Debug, Clone)]
pub struct DayBounds {
    pub day: usize,
    /// Event duration in seconds.
    pub event_secs: f64,
    /// How many attacked letters actually reported this day. 0 marks a
    /// degraded row whose estimates are partial or undefined.
    pub n_reporting: usize,
    /// Sum over reporting attacked letters.
    pub lower_mqps: f64,
    pub lower_gbps: f64,
    /// Lower bound scaled by attacked/reporting ratio.
    pub scaled_mqps: f64,
    pub scaled_gbps: f64,
    /// A-root's rate times the number of attacked letters.
    pub upper_mqps: f64,
    pub upper_gbps: f64,
    pub upper_resp_gbps: f64,
}

impl DayBounds {
    /// True when monitoring gaps left estimates partial or undefined
    /// (fewer reporting letters than attacked letters).
    pub fn is_degraded(&self, n_attacked: usize) -> bool {
        self.n_reporting < n_attacked
    }
}

#[derive(Debug, Clone)]
pub struct Table3 {
    pub rows: Vec<Table3Row>,
    pub bounds: Vec<DayBounds>,
    pub n_attacked: usize,
}

pub fn table3(out: &SimOutput) -> Table3 {
    // Event seconds per day (day of a window = start day).
    let mut event_secs = [0.0f64; 2];
    for w in out.attack.windows() {
        let day = (w.start.as_secs() / 86_400) as usize;
        if day < event_secs.len() {
            event_secs[day] += w.duration.as_secs_f64();
        }
    }
    let attacked_letters: Vec<Letter> = out
        .attack
        .windows()
        .iter()
        .flat_map(|w| w.targets.iter().copied())
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();

    let mut rows = Vec::new();
    for (&letter, collector) in &out.rssac {
        // A letter with no synthesized baseline cannot produce deltas:
        // degrade to a partial table rather than panicking.
        let Some(baseline) = out.rssac_baseline.get(&letter) else {
            continue;
        };
        let attacked = attacked_letters.contains(&letter);
        for (day, &secs) in event_secs
            .iter()
            .enumerate()
            .take(collector.n_days().min(2))
        {
            let report = collector.report(day);
            if secs == 0.0 {
                continue;
            }
            // Prorate the (full-day) baseline to the fraction of the day
            // inside the horizon — short test horizons cover partial days.
            let day_start = day as u64 * 86_400;
            let in_horizon = (out.horizon.as_secs().saturating_sub(day_start)).min(86_400) as f64;
            let horizon_frac = in_horizon / 86_400.0;
            let dq = (report.queries - baseline.queries * horizon_frac).max(0.0);
            let dr = (report.responses - baseline.responses * horizon_frac).max(0.0);
            // Δ traffic concentrated in the event window, like the paper.
            let dq_mqps = dq / secs / 1e6;
            let dr_mqps = dr / secs / 1e6;
            // Mean packet sizes from the event-day histograms (dominated
            // by the attack bins during events). An empty histogram (the
            // whole day gapped out) has no mean size; the delta is zero
            // there, so the traffic estimate is too.
            rows.push(Table3Row {
                letter,
                day,
                attacked,
                dq_mqps,
                dq_gbps: gbps(dq, &report.query_sizes, secs),
                dr_mqps,
                dr_gbps: gbps(dr, &report.response_sizes, secs),
                unique_m: report.unique_sources / 1e6,
                unique_ratio: report.unique_sources / baseline.unique_sources.max(1.0),
                baseline_mqps: baseline.queries / 86_400.0 / 1e6,
                coverage: report.coverage,
            });
        }
    }

    let n_attacked = attacked_letters.len();
    let mut bounds = Vec::new();
    for (day, &day_secs) in event_secs.iter().enumerate() {
        if day_secs == 0.0 {
            continue;
        }
        let day_rows: Vec<&Table3Row> =
            rows.iter().filter(|r| r.day == day && r.attacked).collect();
        let lower_mqps: f64 = day_rows.iter().map(|r| r.dq_mqps).sum();
        let lower_gbps: f64 = day_rows.iter().map(|r| r.dq_gbps).sum();
        // No reporting letters at all (every record fault-gapped out):
        // keep the day, with the scaled estimate undefined rather than
        // lower × ∞.
        let scale = if day_rows.is_empty() {
            f64::NAN
        } else {
            n_attacked as f64 / day_rows.len() as f64
        };
        let a_row = day_rows.iter().find(|r| r.letter == Letter::A);
        let (upper_mqps, upper_gbps, upper_resp_gbps) = match a_row {
            Some(a) => (
                a.dq_mqps * n_attacked as f64,
                a.dq_gbps * n_attacked as f64,
                a.dr_gbps * n_attacked as f64,
            ),
            None => (f64::NAN, f64::NAN, f64::NAN),
        };
        bounds.push(DayBounds {
            day,
            event_secs: day_secs,
            n_reporting: day_rows.len(),
            lower_mqps,
            lower_gbps,
            scaled_mqps: lower_mqps * scale,
            scaled_gbps: lower_gbps * scale,
            upper_mqps,
            upper_gbps,
            upper_resp_gbps,
        });
    }
    Table3 {
        rows,
        bounds,
        n_attacked,
    }
}

impl Table3 {
    pub fn row(&self, letter: Letter, day: usize) -> Option<&Table3Row> {
        self.rows
            .iter()
            .find(|r| r.letter == letter && r.day == day)
    }

    pub fn render(&self) -> TextTable {
        let mut t = TextTable::new(
            "Table 3: RSSAC-002 event-size estimates",
            &[
                "letter",
                "day",
                "attacked",
                "dQ Mq/s",
                "dQ Gb/s",
                "dR Mq/s",
                "dR Gb/s",
                "M IPs",
                "ratio",
                "base Mq/s",
                "cover",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.letter.to_string(),
                r.day.to_string(),
                if r.attacked {
                    "yes".into()
                } else {
                    "no".into()
                },
                num(r.dq_mqps, 2),
                num(r.dq_gbps, 2),
                num(r.dr_mqps, 2),
                num(r.dr_gbps, 2),
                num(r.unique_m, 1),
                format!("{}x", num(r.unique_ratio, 0)),
                num(r.baseline_mqps, 2),
                format!("{}%", num(r.coverage.fraction() * 100.0, 0)),
            ]);
        }
        for b in &self.bounds {
            t.row(vec![
                "lower".into(),
                b.day.to_string(),
                "".into(),
                num(b.lower_mqps, 1),
                num(b.lower_gbps, 1),
                "".into(),
                "".into(),
                "".into(),
                "".into(),
                "".into(),
                // Which fraction of attacked letters this day's
                // estimates rest on — 0/N flags a degraded day.
                format!("{}/{}", b.n_reporting, self.n_attacked),
            ]);
            t.row(vec![
                "scaled".into(),
                b.day.to_string(),
                "".into(),
                num(b.scaled_mqps, 1),
                num(b.scaled_gbps, 1),
                "".into(),
                "".into(),
                "".into(),
                "".into(),
                "".into(),
                "".into(),
            ]);
            t.row(vec![
                "upper".into(),
                b.day.to_string(),
                "".into(),
                num(b.upper_mqps, 1),
                num(b.upper_gbps, 1),
                "".into(),
                num(b.upper_resp_gbps, 1),
                "".into(),
                "".into(),
                "".into(),
                "".into(),
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
    fn a_reports_more_than_undercounting_letters() {
        let t3 = table3(smoke());
        let a = t3.row(Letter::A, 0).expect("A reports");
        let k = t3.row(Letter::K, 0).expect("K reports");
        let h = t3.row(Letter::H, 0).expect("H reports");
        assert!(a.dq_mqps > k.dq_mqps, "A {} vs K {}", a.dq_mqps, k.dq_mqps);
        assert!(a.dq_mqps > h.dq_mqps);
        // A captured most of the offered 3 Mq/s (it has capacity).
        assert!(a.dq_mqps > 1.0, "A dq {}", a.dq_mqps);
    }

    #[test]
    fn l_root_is_not_attacked_but_reports() {
        let t3 = table3(smoke());
        let l = t3.row(Letter::L, 0).expect("L reports");
        assert!(!l.attacked);
        // L's delta is letter-flip inflow only: well below A's attack
        // traffic (the exact ratio depends on how long resolvers take to
        // flip back after the event).
        let a = t3.row(Letter::A, 0).unwrap();
        assert!(
            l.dq_mqps < a.dq_mqps * 0.5,
            "L {} vs A {}",
            l.dq_mqps,
            a.dq_mqps
        );
    }

    #[test]
    fn bounds_are_ordered() {
        let t3 = table3(smoke());
        assert!(!t3.bounds.is_empty());
        for b in &t3.bounds {
            // The smoke run has no monitoring gaps: every day has at
            // least one reporting attacked letter and finite bounds.
            assert!(b.n_reporting > 0);
            assert!(b.scaled_mqps.is_finite());
            assert!(b.lower_mqps <= b.scaled_mqps + 1e-9);
            assert!(
                b.scaled_mqps <= b.upper_mqps * 1.001,
                "scaled {} vs upper {}",
                b.scaled_mqps,
                b.upper_mqps
            );
        }
    }

    #[test]
    fn responses_below_queries_rrl() {
        let t3 = table3(smoke());
        let a = t3.row(Letter::A, 0).unwrap();
        assert!(
            a.dr_mqps < a.dq_mqps,
            "RRL must suppress responses: dR {} dQ {}",
            a.dr_mqps,
            a.dq_mqps
        );
        // But response *bytes* exceed query bytes (responses ~10x size).
        assert!(
            a.dr_gbps > a.dq_gbps,
            "dR {} Gb/s vs dQ {}",
            a.dr_gbps,
            a.dq_gbps
        );
    }

    #[test]
    fn unique_ip_ratio_explodes_for_attacked() {
        let t3 = table3(smoke());
        let a = t3.row(Letter::A, 0).unwrap();
        assert!(a.unique_ratio > 5.0, "A unique ratio {}", a.unique_ratio);
    }

    #[test]
    fn render_contains_bounds() {
        let s = table3(smoke()).render().to_string();
        assert!(s.contains("lower"));
        assert!(s.contains("upper"));
    }
}
