//! Figure 11: per-VP site-choice timelines ("raster") and the §3.4.2
//! client cohorts.
//!
//! The paper samples 300 VPs that start at K-LHR or K-FRA and plots each
//! VP's site choice per 4-minute probe slot. Around the first event it
//! identifies four behaviours: (1) VPs *stuck* to the overloaded site
//! getting only occasional replies, (2) VPs that flip to K-AMS for the
//! event and return, (3) VPs that scatter to other sites, and (4) VPs
//! that flip and stay.

use crate::error::{AnalysisError, RootcastError};
use crate::render::TextTable;
use crate::sim::SimOutput;
use rootcast_atlas::{raster_code, PROBE_INTERVAL};
use rootcast_dns::Letter;

/// One VP's timeline.
#[derive(Debug, Clone)]
pub struct RasterRow {
    pub vp: u32,
    /// Site index the VP started at.
    pub start_site: u16,
    /// One cell per probe slot: [`raster_code`] values.
    pub cells: Vec<u8>,
}

/// The behavioural cohorts of §3.4.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cohort {
    /// Sticks to the focal site, answered only intermittently.
    StuckDegraded,
    /// Leaves during the event, returns afterwards.
    FlipAndReturn,
    /// Leaves during the event and stays elsewhere.
    FlipAndStay,
    /// Anything else (healthy throughout, mixed, or sparse data).
    Other,
}

#[derive(Debug, Clone)]
pub struct Figure11 {
    pub letter: Letter,
    /// Site codes, indexed by site index (for decoding cells).
    pub site_codes: Vec<String>,
    pub rows: Vec<RasterRow>,
    /// Probe-slot range of the first event `(start, end)`.
    pub event_slots: (usize, usize),
}

/// Build the raster for VPs that start at any of `start_codes`.
/// `max_vps` bounds the sample (the paper uses 300).
///
/// Per-VP timelines exist only for the letters listed in
/// `PipelineConfig::raster_letters`; asking for any other letter is a
/// typed [`AnalysisError::LetterNotRastered`], not a panic — a caller
/// sweeping figures over a reconfigured run can skip or report it.
pub fn figure11(
    out: &SimOutput,
    letter: Letter,
    start_codes: &[&str],
    max_vps: usize,
) -> Result<Figure11, RootcastError> {
    let data = out.pipeline.letter(letter);
    let Some(raster) = data.raster.as_ref() else {
        return Err(AnalysisError::LetterNotRastered {
            letter,
            available: out.pipeline.config().raster_letters.clone(),
        }
        .into());
    };
    let focal: Vec<u8> = data
        .site_codes
        .iter()
        .enumerate()
        .filter(|(_, c)| start_codes.iter().any(|s| s.eq_ignore_ascii_case(c)))
        .map(|(i, _)| raster_code::SITE_BASE + i as u8)
        .collect();
    let mut rows = Vec::new();
    for vp in 0..raster.n_vps() {
        if rows.len() >= max_vps {
            break;
        }
        // The VP's first site answer determines its start site.
        let first_site = raster
            .slots(vp)
            .find(|&c| c >= raster_code::SITE_BASE && c != raster_code::MISSING);
        let Some(start) = first_site else { continue };
        if !focal.contains(&start) {
            continue;
        }
        rows.push(RasterRow {
            vp: vp as u32,
            start_site: u16::from(start - raster_code::SITE_BASE),
            cells: raster.row(vp),
        });
    }
    let probe_ns = PROBE_INTERVAL.as_nanos();
    let (e_start, e_end) = out
        .attack
        .windows()
        .first()
        .map(|w| {
            (
                (w.start.as_nanos() / probe_ns) as usize,
                (w.end().as_nanos() / probe_ns) as usize,
            )
        })
        .unwrap_or((0, 0));
    Ok(Figure11 {
        letter,
        site_codes: data.site_codes.clone(),
        rows,
        event_slots: (e_start, e_end),
    })
}

impl Figure11 {
    /// Classify one row against the first event window.
    pub fn classify(&self, row: &RasterRow) -> Cohort {
        let (es, ee) = self.event_slots;
        if ee == 0 || row.cells.len() <= es {
            return Cohort::Other;
        }
        let focal = raster_code::SITE_BASE + row.start_site as u8;
        let during: Vec<u8> = row.cells[es.min(row.cells.len())..ee.min(row.cells.len())].to_vec();
        let after_end = (ee + (ee - es).max(8)).min(row.cells.len());
        let after: Vec<u8> = row.cells[ee.min(row.cells.len())..after_end].to_vec();
        if during.is_empty() {
            return Cohort::Other;
        }
        let n = during.len() as f64;
        let at_focal = during.iter().filter(|&&c| c == focal).count() as f64;
        let timeouts = during
            .iter()
            .filter(|&&c| c == raster_code::TIMEOUT)
            .count() as f64;
        let elsewhere = during
            .iter()
            .filter(|&&c| c >= raster_code::SITE_BASE && c != focal && c != raster_code::MISSING)
            .count() as f64;
        let after_focal = after.iter().filter(|&&c| c == focal).count() as f64;
        let after_site = after
            .iter()
            .filter(|&&c| c >= raster_code::SITE_BASE && c != raster_code::MISSING)
            .count() as f64;
        if elsewhere / n > 0.3 {
            // Flipped away; did it come back?
            if after_site > 0.0 && after_focal / after_site > 0.5 {
                Cohort::FlipAndReturn
            } else {
                Cohort::FlipAndStay
            }
        } else if (at_focal + timeouts) / n > 0.8 && timeouts / n > 0.3 {
            Cohort::StuckDegraded
        } else {
            Cohort::Other
        }
    }

    /// Cohort histogram over all rows.
    pub fn cohort_counts(&self) -> [(Cohort, usize); 4] {
        let mut counts = [
            (Cohort::StuckDegraded, 0usize),
            (Cohort::FlipAndReturn, 0),
            (Cohort::FlipAndStay, 0),
            (Cohort::Other, 0),
        ];
        for row in &self.rows {
            let c = self.classify(row);
            for slot in &mut counts {
                if slot.0 == c {
                    slot.1 += 1;
                }
            }
        }
        counts
    }

    /// ASCII rendering: one row per VP, one char per probe slot
    /// ('.':timeout, 'x':error, 'A'..: sites by first letter of code;
    /// the focal start site is lowercase).
    pub fn render_ascii(&self, max_rows: usize) -> String {
        let mut out = String::new();
        for row in self.rows.iter().take(max_rows) {
            let focal = raster_code::SITE_BASE + row.start_site as u8;
            for &c in &row.cells {
                let ch = match c {
                    raster_code::TIMEOUT => '.',
                    raster_code::ERROR => 'x',
                    raster_code::MISSING => ' ',
                    s if s == focal => self.site_codes[(s - raster_code::SITE_BASE) as usize]
                        .chars()
                        .next()
                        .unwrap_or('?')
                        .to_ascii_lowercase(),
                    s => self.site_codes[(s - raster_code::SITE_BASE) as usize]
                        .chars()
                        .next()
                        .unwrap_or('?'),
                };
                out.push(ch);
            }
            out.push('\n');
        }
        out
    }

    pub fn render_cohorts(&self) -> TextTable {
        let mut t = TextTable::new(
            &format!("Figure 11 cohorts ({}-root, event 1)", self.letter),
            &["cohort", "VPs"],
        );
        for (c, n) in self.cohort_counts() {
            t.row(vec![format!("{c:?}"), n.to_string()]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::fixture::smoke;

    fn fig() -> Figure11 {
        figure11(smoke(), Letter::K, &["LHR", "FRA"], 300).expect("K is rastered")
    }

    #[test]
    fn unrastered_letter_is_a_typed_error_not_a_panic() {
        // The smoke pipeline rasters only K; asking for M must name
        // the letter and what *is* available.
        match figure11(smoke(), Letter::M, &["LHR"], 300) {
            Err(RootcastError::Analysis(AnalysisError::LetterNotRastered {
                letter,
                available,
            })) => {
                assert_eq!(letter, Letter::M);
                assert_eq!(available, vec![Letter::K]);
            }
            other => panic!("expected LetterNotRastered, got {other:?}"),
        }
    }

    #[test]
    fn raster_rows_start_at_focal_sites() {
        let f = fig();
        assert!(!f.rows.is_empty(), "no VPs start at K-LHR/K-FRA");
        for row in &f.rows {
            let code = &f.site_codes[row.start_site as usize];
            assert!(code == "LHR" || code == "FRA", "start {code}");
        }
    }

    #[test]
    fn event_slots_are_within_timelines() {
        let f = fig();
        let (es, ee) = f.event_slots;
        assert!(es < ee);
        let max_len = f.rows.iter().map(|r| r.cells.len()).max().unwrap();
        assert!(es < max_len);
    }

    #[test]
    fn cohorts_cover_all_rows() {
        let f = fig();
        let total: usize = f.cohort_counts().iter().map(|(_, n)| n).sum();
        assert_eq!(total, f.rows.len());
    }

    #[test]
    fn some_vps_flip_during_the_event() {
        let f = fig();
        let counts = f.cohort_counts();
        let flips = counts[1].1 + counts[2].1; // FlipAndReturn + FlipAndStay
        assert!(
            flips > 0,
            "expected flips among {} focal VPs: {counts:?}",
            f.rows.len()
        );
    }

    #[test]
    fn ascii_render_shape() {
        let f = fig();
        let art = f.render_ascii(10);
        let lines: Vec<&str> = art.lines().collect();
        assert!(!lines.is_empty());
        assert!(f.render_cohorts().to_string().contains("cohorts"));
    }
}
