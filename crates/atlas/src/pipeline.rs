//! Streaming measurement pipeline: raw probes → per-bin observations →
//! the aggregates every figure in the paper reads.
//!
//! The paper's methodology (§2.4.1): map observations into ten-minute
//! bins; within a bin prefer *site* answers over *errors* over *missing*
//! replies. We implement that preference in a single streaming pass so a
//! full 48-hour, 9000-VP, 13-letter run never materializes the ~90 M raw
//! measurements — per-(VP, letter) state is O(1) and aggregates are
//! per-bin.
//!
//! Outputs maintained per letter:
//!
//! * successful-VP count per bin (Figure 3) and error count;
//! * subsampled RTTs per bin (Figure 4's medians);
//! * per-site VP counts per bin (Figures 5, 6, 14);
//! * site flips per bin plus the individual flip events (Figures 8, 10);
//! * per-server counts and RTTs for *watched* sites (Figures 12, 13);
//! * optional full per-probe site timelines ("raster") at probe
//!   granularity for Figures 10 and 11.

use crate::clean::{CleanObs, FastObs};
use crate::vp::VpId;
use rootcast_dns::Letter;
use rootcast_netsim::{BinnedSeries, Coverage, Reduce, SampleBins, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::fmt;

/// Typed failure of a pipeline operation. Recording into the pipeline
/// is fallible — a measurement can name a letter or site the pipeline
/// was never configured for — and the caller decides whether that is a
/// programmer error (unwrap) or data to skip (degrade).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// The letter was never registered with [`MeasurementPipeline::register_letter`].
    UnregisteredLetter(Letter),
    /// A site identity not in the letter's registered site list.
    UnknownSite { letter: Letter, site: String },
    /// A VP id at or beyond the fleet size the pipeline was built for.
    VpOutOfRange { vp: VpId, n_vps: usize },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::UnregisteredLetter(l) => write!(f, "letter {l} not registered"),
            PipelineError::UnknownSite { letter, site } => {
                write!(f, "unknown site {site} for {letter}")
            }
            PipelineError::VpOutOfRange { vp, n_vps } => {
                write!(f, "VP {} beyond fleet size {n_vps}", vp.0)
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Bin width for all aggregates (paper: 10 minutes).
    pub bin: SimDuration,
    /// Analysis horizon; observations beyond it are dropped.
    pub horizon: SimTime,
    /// Keep RTT samples from one VP in `rtt_subsample` (memory bound;
    /// medians are insensitive to this).
    pub rtt_subsample: u32,
    /// Sites whose per-server behaviour is tracked (Figures 12/13).
    pub watched_sites: Vec<(Letter, String)>,
    /// Letters with full per-probe site timelines (Figures 10/11).
    pub raster_letters: Vec<Letter>,
    /// Probe spacing used to index raster timelines.
    pub probe_interval: SimDuration,
}

impl PipelineConfig {
    /// The paper's parameters: 10-minute bins over 48 hours, raster for
    /// K-root, per-server watches on K-FRA and K-NRT.
    pub fn paper_default() -> PipelineConfig {
        PipelineConfig {
            bin: SimDuration::from_mins(10),
            horizon: SimTime::from_hours(48),
            rtt_subsample: 8,
            watched_sites: vec![
                (Letter::K, "FRA".to_string()),
                (Letter::K, "NRT".to_string()),
                (Letter::K, "AMS".to_string()),
            ],
            raster_letters: vec![Letter::K],
            probe_interval: SimDuration::from_mins(4),
        }
    }

    fn n_bins(&self) -> usize {
        (self.horizon.as_nanos() / self.bin.as_nanos()) as usize
    }

    fn n_probes(&self) -> usize {
        (self.horizon.as_nanos() / self.probe_interval.as_nanos()) as usize
    }
}

/// Raster cell codes (per-probe site timeline).
pub mod raster_code {
    /// No reply within the timeout.
    pub const TIMEOUT: u8 = 0;
    /// An error reply.
    pub const ERROR: u8 = 1;
    /// Sites are encoded as `SITE_BASE + site_idx`.
    pub const SITE_BASE: u8 = 2;
    /// No probe recorded for this slot (VP not yet active).
    pub const MISSING: u8 = 255;
}

/// One recorded site-flip event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlipEvent {
    pub at_bin: u32,
    pub vp: VpId,
    pub from_site: u16,
    pub to_site: u16,
}

/// Per-server aggregates for a watched site.
#[derive(Debug, Clone)]
pub struct ServerWatch {
    /// VP count per bin, per server ordinal (1-based key).
    pub counts: BTreeMap<u16, BinnedSeries>,
    /// RTT samples per bin, per server ordinal.
    pub rtts: BTreeMap<u16, SampleBins>,
    /// Site-level RTT samples (Figure 7).
    pub site_rtt: SampleBins,
}

/// Everything accumulated for one letter.
#[derive(Debug, Clone)]
pub struct LetterData {
    pub letter: Letter,
    /// Airport codes, indexed by site index.
    pub site_codes: Vec<String>,
    /// VPs with a successful (site) answer per bin — Figure 3.
    pub success: BinnedSeries,
    /// VPs whose best answer was an error per bin.
    pub errors: BinnedSeries,
    /// Subsampled per-bin RTTs — Figure 4.
    pub rtt: SampleBins,
    /// VP count per bin for each site — Figures 5/6/14.
    pub site_counts: Vec<BinnedSeries>,
    /// Site flips per bin — Figure 8.
    pub flips: BinnedSeries,
    /// Individual flip events — Figure 10.
    pub flip_events: Vec<FlipEvent>,
    /// Watched-site per-server data, keyed by site index.
    pub watches: BTreeMap<u16, ServerWatch>,
    /// Per-probe site timeline per VP (raster letters only).
    pub raster: Option<Vec<Vec<u8>>>,
    /// Probes recorded within the horizon.
    pub observed_probes: u64,
    /// Scheduled probes that never produced a measurement (probe-fleet
    /// dropout, firmware churn) — reported via [`LetterData::coverage`].
    pub missed_probes: u64,
}

impl LetterData {
    /// Index of a site code.
    pub fn site_idx(&self, code: &str) -> Option<u16> {
        let code = code.to_ascii_uppercase();
        self.site_codes
            .iter()
            .position(|c| *c == code)
            .map(|i| i as u16)
    }

    /// Fraction of scheduled probes that actually produced a
    /// measurement. 1.0 when no probe was ever reported missing.
    pub fn coverage(&self) -> Coverage {
        Coverage {
            observed: self.observed_probes as f64,
            expected: (self.observed_probes + self.missed_probes) as f64,
        }
    }

    /// Per-bin median RTT in milliseconds (NaN where no samples).
    pub fn rtt_median_ms(&self) -> BinnedSeries {
        let s = self.rtt.reduce(Reduce::Median, f64::NAN);
        BinnedSeries::from_values(s.bin_width(), s.values().iter().map(|v| v / 1e6).collect())
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum BinBest {
    Empty,
    Timeout,
    Error,
    Site {
        site: u16,
        server: u16,
        rtt: SimDuration,
    },
}

impl BinBest {
    /// Preference rank: site > error > timeout > empty.
    fn rank(self) -> u8 {
        match self {
            BinBest::Empty => 0,
            BinBest::Timeout => 1,
            BinBest::Error => 2,
            BinBest::Site { .. } => 3,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct VpLetterState {
    cur_bin: u32,
    best: BinBest,
    last_site: Option<u16>,
}

impl Default for VpLetterState {
    fn default() -> Self {
        VpLetterState {
            cur_bin: 0,
            best: BinBest::Empty,
            last_site: None,
        }
    }
}

/// Pipeline-wide tallies of probe clean/drop outcomes: how many
/// recorded observations resolved to a site, timed out, or errored, and
/// how many scheduled probes produced nothing at all. Counted once per
/// recorded probe regardless of which entry point (fused or reference)
/// delivered it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeOutcomeStats {
    pub site: u64,
    pub timeout: u64,
    pub error: u64,
    pub missed: u64,
}

/// The streaming pipeline.
#[derive(Debug)]
pub struct MeasurementPipeline {
    cfg: PipelineConfig,
    n_vps: usize,
    /// Registered letters in registration order.
    letter_order: Vec<Letter>,
    letters: BTreeMap<Letter, LetterData>,
    /// Per (vp, letter-slot) streaming state.
    state: Vec<VpLetterState>,
    outcomes: ProbeOutcomeStats,
}

impl MeasurementPipeline {
    pub fn new(cfg: PipelineConfig, n_vps: usize) -> MeasurementPipeline {
        assert!(n_vps > 0);
        assert!(!cfg.bin.is_zero());
        MeasurementPipeline {
            cfg,
            n_vps,
            letter_order: Vec::new(),
            letters: BTreeMap::new(),
            state: Vec::new(),
            outcomes: ProbeOutcomeStats::default(),
        }
    }

    pub fn config(&self) -> &PipelineConfig {
        &self.cfg
    }

    /// Pipeline-wide probe outcome tallies (clean/drop accounting).
    pub fn outcome_stats(&self) -> ProbeOutcomeStats {
        self.outcomes
    }

    /// Register a letter and its site codes before recording for it.
    pub fn register_letter(&mut self, letter: Letter, site_codes: Vec<String>) {
        assert!(
            !self.letters.contains_key(&letter),
            "letter {letter} registered twice"
        );
        assert!(
            site_codes.len() < (raster_code::MISSING - raster_code::SITE_BASE) as usize,
            "too many sites for raster encoding"
        );
        let n_bins = self.cfg.n_bins();
        let bin = self.cfg.bin;
        let site_codes: Vec<String> = site_codes.iter().map(|c| c.to_ascii_uppercase()).collect();
        let watches: BTreeMap<u16, ServerWatch> = self
            .cfg
            .watched_sites
            .iter()
            .filter(|(l, _)| *l == letter)
            .filter_map(|(_, code)| {
                site_codes
                    .iter()
                    .position(|c| c == &code.to_ascii_uppercase())
                    .map(|i| {
                        (
                            i as u16,
                            ServerWatch {
                                counts: BTreeMap::new(),
                                rtts: BTreeMap::new(),
                                site_rtt: SampleBins::new(bin, n_bins),
                            },
                        )
                    })
            })
            .collect();
        let raster = self
            .cfg
            .raster_letters
            .contains(&letter)
            .then(|| vec![Vec::new(); self.n_vps]);
        let data = LetterData {
            letter,
            site_counts: site_codes
                .iter()
                .map(|_| BinnedSeries::zeros(bin, n_bins))
                .collect(),
            site_codes,
            success: BinnedSeries::zeros(bin, n_bins),
            errors: BinnedSeries::zeros(bin, n_bins),
            rtt: SampleBins::new(bin, n_bins),
            flips: BinnedSeries::zeros(bin, n_bins),
            flip_events: Vec::new(),
            watches,
            raster,
            observed_probes: 0,
            missed_probes: 0,
        };
        self.letters.insert(letter, data);
        self.letter_order.push(letter);
        // Grow the state table: one slot per (vp, letter).
        self.state.resize(
            self.n_vps * self.letter_order.len(),
            VpLetterState::default(),
        );
    }

    fn slot(&self, vp: VpId, letter: Letter) -> Result<usize, PipelineError> {
        let li = self
            .letter_order
            .iter()
            .position(|&l| l == letter)
            .ok_or(PipelineError::UnregisteredLetter(letter))?;
        if vp.0 as usize >= self.n_vps {
            return Err(PipelineError::VpOutOfRange {
                vp,
                n_vps: self.n_vps,
            });
        }
        Ok(li * self.n_vps + vp.0 as usize)
    }

    /// Record that a scheduled probe produced no measurement at all
    /// (the VP was disconnected or its result was discarded). Counts
    /// toward [`LetterData::coverage`]; beyond-horizon slots are ignored
    /// symmetrically with [`MeasurementPipeline::record`].
    pub fn note_missed(&mut self, letter: Letter, at: SimTime) -> Result<(), PipelineError> {
        if at >= self.cfg.horizon {
            return Ok(());
        }
        let data = self
            .letters
            .get_mut(&letter)
            .ok_or(PipelineError::UnregisteredLetter(letter))?;
        data.missed_probes += 1;
        self.outcomes.missed += 1;
        Ok(())
    }

    /// Record one cleaned observation. Thin wrapper over
    /// [`Self::record_fast`]: resolves the identity's site code to its
    /// index (after the horizon and slot checks, preserving the error
    /// order: unregistered letter, then VP range, then unknown site),
    /// then records on the fused path.
    pub fn record(
        &mut self,
        vp: VpId,
        letter: Letter,
        at: SimTime,
        obs: &CleanObs,
    ) -> Result<(), PipelineError> {
        if at >= self.cfg.horizon {
            return Ok(());
        }
        self.slot(vp, letter)?;
        let fast = match obs {
            CleanObs::Timeout => FastObs::Timeout,
            CleanObs::Error => FastObs::Error,
            CleanObs::Site(id, rtt) => {
                let data = self.letters.get(&letter).expect("slot() checked");
                let site = data
                    .site_idx(&id.site)
                    .ok_or_else(|| PipelineError::UnknownSite {
                        letter,
                        site: id.site.clone(),
                    })?;
                FastObs::Site {
                    site,
                    server: id.server,
                    rtt: *rtt,
                }
            }
        };
        self.record_fast(vp, letter, at, fast)
    }

    /// Record one observation already resolved to a site index — the
    /// fused-path primary implementation (no strings touched). A site
    /// index beyond the letter's registered sites is an
    /// [`PipelineError::UnknownSite`] (reported as `#idx`).
    pub fn record_fast(
        &mut self,
        vp: VpId,
        letter: Letter,
        at: SimTime,
        obs: FastObs,
    ) -> Result<(), PipelineError> {
        if at >= self.cfg.horizon {
            return Ok(());
        }
        let bin = at.bin_index(self.cfg.bin) as u32;
        let slot = self.slot(vp, letter)?;

        // Raster: per-probe timeline, padded for any missed slots.
        let probe_seq = (at.as_nanos() / self.cfg.probe_interval.as_nanos()) as usize;
        let n_probes = self.cfg.n_probes();
        let data = self.letters.get_mut(&letter).expect("slot() checked");
        let code = match obs {
            FastObs::Timeout => raster_code::TIMEOUT,
            FastObs::Error => raster_code::ERROR,
            FastObs::Site { site, .. } => {
                if site as usize >= data.site_codes.len() {
                    return Err(PipelineError::UnknownSite {
                        letter,
                        site: format!("#{site}"),
                    });
                }
                raster_code::SITE_BASE + site as u8
            }
        };
        data.observed_probes += 1;
        match obs {
            FastObs::Timeout => self.outcomes.timeout += 1,
            FastObs::Error => self.outcomes.error += 1,
            FastObs::Site { .. } => self.outcomes.site += 1,
        }
        if let Some(raster) = &mut data.raster {
            if probe_seq < n_probes {
                let row = &mut raster[vp.0 as usize];
                while row.len() < probe_seq {
                    row.push(raster_code::MISSING);
                }
                if row.len() == probe_seq {
                    row.push(code);
                } else {
                    // Second probe in the same slot: prefer the "better"
                    // outcome, mirroring bin preference.
                    let existing = row[probe_seq];
                    if code_rank(code) > code_rank(existing) {
                        row[probe_seq] = code;
                    }
                }
            }
        }

        // Binning with site > error > timeout preference.
        let state = &mut self.state[slot];
        if bin != state.cur_bin {
            let finished = *state;
            Self::commit(data, vp, finished, self.cfg.rtt_subsample);
            if let BinBest::Site { site, .. } = finished.best {
                // The committed bin's site becomes the reference point
                // for flip detection in later bins.
                state.last_site = Some(site);
            }
            state.cur_bin = bin;
            state.best = BinBest::Empty;
        }
        let cand = match obs {
            FastObs::Timeout => BinBest::Timeout,
            FastObs::Error => BinBest::Error,
            // The site index was validated above, at raster-code time.
            FastObs::Site { site, server, rtt } => BinBest::Site { site, server, rtt },
        };
        if cand.rank() > state.best.rank() {
            state.best = cand;
        }
        Ok(())
    }

    fn commit(data: &mut LetterData, vp: VpId, st: VpLetterState, rtt_subsample: u32) {
        let bin_start = SimTime::ZERO + data.success.bin_width() * u64::from(st.cur_bin);
        // Find the slot in the state table we were given (committing uses
        // only the letter-local aggregates).
        match st.best {
            BinBest::Empty | BinBest::Timeout => {}
            BinBest::Error => data.errors.incr_at(bin_start),
            BinBest::Site { site, server, rtt } => {
                data.success.incr_at(bin_start);
                data.site_counts[site as usize].incr_at(bin_start);
                if vp.0.is_multiple_of(rtt_subsample) {
                    data.rtt.push(bin_start, rtt.as_nanos() as f64);
                }
                if let Some(prev) = st.last_site {
                    if prev != site {
                        data.flips.incr_at(bin_start);
                        data.flip_events.push(FlipEvent {
                            at_bin: st.cur_bin,
                            vp,
                            from_site: prev,
                            to_site: site,
                        });
                    }
                }
                if let Some(watch) = data.watches.get_mut(&site) {
                    let n_bins = data.success.len();
                    let bw = data.success.bin_width();
                    watch
                        .counts
                        .entry(server)
                        .or_insert_with(|| BinnedSeries::zeros(bw, n_bins))
                        .incr_at(bin_start);
                    watch
                        .rtts
                        .entry(server)
                        .or_insert_with(|| SampleBins::new(bw, n_bins))
                        .push(bin_start, rtt.as_nanos() as f64);
                    watch.site_rtt.push(bin_start, rtt.as_nanos() as f64);
                }
            }
        }
        // last_site tracking happens in the caller (needs mutable state).
    }

    /// Flush all outstanding bins. Call once after the last record.
    pub fn finalize(&mut self) {
        for (li, &letter) in self.letter_order.iter().enumerate() {
            let data = self.letters.get_mut(&letter).expect("registered");
            for vpi in 0..self.n_vps {
                let slot = li * self.n_vps + vpi;
                let st = self.state[slot];
                Self::commit(data, VpId(vpi as u32), st, self.cfg.rtt_subsample);
                self.state[slot].best = BinBest::Empty;
            }
        }
    }

    /// Accumulated data for a letter, or `None` when it was never
    /// registered — the graceful-degradation accessor analyses use.
    pub fn try_letter(&self, letter: Letter) -> Option<&LetterData> {
        self.letters.get(&letter)
    }

    /// Accumulated data for a letter.
    ///
    /// # Panics
    /// On an unregistered letter — asking for one is a programmer
    /// error; use [`MeasurementPipeline::try_letter`] to degrade.
    pub fn letter(&self, letter: Letter) -> &LetterData {
        self.letters
            .get(&letter)
            .unwrap_or_else(|| panic!("letter {letter} not registered"))
    }

    /// All registered letters, in registration order.
    pub fn registered(&self) -> &[Letter] {
        &self.letter_order
    }
}

fn code_rank(code: u8) -> u8 {
    match code {
        raster_code::MISSING => 0,
        raster_code::TIMEOUT => 1,
        raster_code::ERROR => 2,
        _ => 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rootcast_dns::ServerIdentity;

    fn cfg() -> PipelineConfig {
        PipelineConfig {
            bin: SimDuration::from_mins(10),
            horizon: SimTime::from_hours(1),
            rtt_subsample: 1,
            watched_sites: vec![(Letter::K, "FRA".into())],
            raster_letters: vec![Letter::K],
            probe_interval: SimDuration::from_mins(4),
        }
    }

    fn site_obs(code: &str, server: u16, rtt_ms: u64) -> CleanObs {
        CleanObs::Site(
            ServerIdentity::new(Letter::K, code, server),
            SimDuration::from_millis(rtt_ms),
        )
    }

    fn pipeline() -> MeasurementPipeline {
        let mut p = MeasurementPipeline::new(cfg(), 4);
        p.register_letter(Letter::K, vec!["AMS".into(), "FRA".into()]);
        p
    }

    fn t(mins: u64) -> SimTime {
        SimTime::from_mins(mins)
    }

    #[test]
    fn success_counted_per_bin() {
        let mut p = pipeline();
        p.record(VpId(0), Letter::K, t(1), &site_obs("AMS", 1, 30))
            .unwrap();
        p.record(VpId(1), Letter::K, t(2), &site_obs("FRA", 1, 20))
            .unwrap();
        p.record(VpId(2), Letter::K, t(3), &CleanObs::Timeout)
            .unwrap();
        p.finalize();
        let d = p.letter(Letter::K);
        assert_eq!(d.success.values()[0], 2.0);
        assert_eq!(d.site_counts[0].values()[0], 1.0); // AMS
        assert_eq!(d.site_counts[1].values()[0], 1.0); // FRA
        assert_eq!(d.errors.values()[0], 0.0);
    }

    #[test]
    fn site_preferred_over_error_and_timeout_within_bin() {
        let mut p = pipeline();
        p.record(VpId(0), Letter::K, t(0), &CleanObs::Timeout)
            .unwrap();
        p.record(VpId(0), Letter::K, t(4), &CleanObs::Error)
            .unwrap();
        p.record(VpId(0), Letter::K, t(8), &site_obs("AMS", 1, 30))
            .unwrap();
        p.finalize();
        let d = p.letter(Letter::K);
        assert_eq!(d.success.values()[0], 1.0);
        assert_eq!(d.errors.values()[0], 0.0);
    }

    #[test]
    fn error_preferred_over_timeout() {
        let mut p = pipeline();
        p.record(VpId(0), Letter::K, t(0), &CleanObs::Error)
            .unwrap();
        p.record(VpId(0), Letter::K, t(4), &CleanObs::Timeout)
            .unwrap();
        p.finalize();
        let d = p.letter(Letter::K);
        assert_eq!(d.errors.values()[0], 1.0);
        assert_eq!(d.success.values()[0], 0.0);
    }

    #[test]
    fn flip_detected_across_bins() {
        let mut p = pipeline();
        p.record(VpId(0), Letter::K, t(1), &site_obs("FRA", 1, 20))
            .unwrap();
        p.record(VpId(0), Letter::K, t(11), &site_obs("AMS", 1, 30))
            .unwrap();
        p.record(VpId(0), Letter::K, t(21), &site_obs("AMS", 1, 30))
            .unwrap();
        p.record(VpId(0), Letter::K, t(31), &site_obs("FRA", 1, 20))
            .unwrap();
        p.finalize();
        let d = p.letter(Letter::K);
        let total_flips: f64 = d.flips.values().iter().sum();
        assert_eq!(total_flips, 2.0, "FRA->AMS and AMS->FRA");
        assert_eq!(d.flip_events.len(), 2);
        let fra = d.site_idx("FRA").unwrap();
        let ams = d.site_idx("AMS").unwrap();
        assert_eq!(d.flip_events[0].from_site, fra);
        assert_eq!(d.flip_events[0].to_site, ams);
    }

    #[test]
    fn timeout_gap_does_not_count_as_flip() {
        let mut p = pipeline();
        p.record(VpId(0), Letter::K, t(1), &site_obs("FRA", 1, 20))
            .unwrap();
        p.record(VpId(0), Letter::K, t(11), &CleanObs::Timeout)
            .unwrap();
        p.record(VpId(0), Letter::K, t(21), &site_obs("FRA", 1, 20))
            .unwrap();
        p.finalize();
        let d = p.letter(Letter::K);
        assert_eq!(d.flips.values().iter().sum::<f64>(), 0.0);
    }

    #[test]
    fn gap_then_new_site_is_one_flip() {
        let mut p = pipeline();
        p.record(VpId(0), Letter::K, t(1), &site_obs("FRA", 1, 20))
            .unwrap();
        p.record(VpId(0), Letter::K, t(11), &CleanObs::Timeout)
            .unwrap();
        p.record(VpId(0), Letter::K, t(21), &site_obs("AMS", 1, 30))
            .unwrap();
        p.finalize();
        let d = p.letter(Letter::K);
        assert_eq!(d.flips.values().iter().sum::<f64>(), 1.0);
    }

    #[test]
    fn watched_site_tracks_servers() {
        let mut p = pipeline();
        p.record(VpId(0), Letter::K, t(1), &site_obs("FRA", 1, 20))
            .unwrap();
        p.record(VpId(1), Letter::K, t(2), &site_obs("FRA", 2, 25))
            .unwrap();
        p.record(VpId(2), Letter::K, t(3), &site_obs("AMS", 1, 30))
            .unwrap(); // not watched
        p.finalize();
        let d = p.letter(Letter::K);
        let fra = d.site_idx("FRA").unwrap();
        let watch = d.watches.get(&fra).expect("FRA watched");
        assert_eq!(watch.counts[&1].values()[0], 1.0);
        assert_eq!(watch.counts[&2].values()[0], 1.0);
        assert_eq!(watch.site_rtt.count_at(t(0)), 2);
        let ams = d.site_idx("AMS").unwrap();
        assert!(!d.watches.contains_key(&ams));
    }

    #[test]
    fn raster_records_probe_level_timeline() {
        let mut p = pipeline();
        p.record(VpId(0), Letter::K, t(0), &site_obs("FRA", 1, 20))
            .unwrap();
        p.record(VpId(0), Letter::K, t(4), &CleanObs::Timeout)
            .unwrap();
        p.record(VpId(0), Letter::K, t(12), &site_obs("AMS", 1, 30))
            .unwrap();
        p.finalize();
        let d = p.letter(Letter::K);
        let row = &d.raster.as_ref().unwrap()[0];
        let fra = raster_code::SITE_BASE + d.site_idx("FRA").unwrap() as u8;
        let ams = raster_code::SITE_BASE + d.site_idx("AMS").unwrap() as u8;
        assert_eq!(
            row.as_slice(),
            &[fra, raster_code::TIMEOUT, raster_code::MISSING, ams]
        );
    }

    #[test]
    fn rtt_median_ms_converts_units() {
        let mut p = pipeline();
        p.record(VpId(0), Letter::K, t(1), &site_obs("AMS", 1, 30))
            .unwrap();
        p.record(VpId(1), Letter::K, t(2), &site_obs("AMS", 1, 50))
            .unwrap();
        p.finalize();
        let med = p.letter(Letter::K).rtt_median_ms();
        assert!((med.values()[0] - 40.0).abs() < 1e-9);
        assert!(med.values()[1].is_nan());
    }

    #[test]
    fn observations_beyond_horizon_ignored() {
        let mut p = pipeline();
        p.record(
            VpId(0),
            Letter::K,
            SimTime::from_hours(2),
            &site_obs("AMS", 1, 30),
        )
        .unwrap();
        p.finalize();
        let d = p.letter(Letter::K);
        assert_eq!(d.success.values().iter().sum::<f64>(), 0.0);
    }

    #[test]
    fn unregistered_letter_is_a_typed_error() {
        let mut p = pipeline();
        assert_eq!(
            p.record(VpId(0), Letter::E, t(0), &CleanObs::Timeout),
            Err(PipelineError::UnregisteredLetter(Letter::E))
        );
        assert_eq!(
            p.note_missed(Letter::E, t(0)),
            Err(PipelineError::UnregisteredLetter(Letter::E))
        );
        assert!(p.try_letter(Letter::E).is_none());
    }

    #[test]
    fn unknown_site_and_oversized_vp_are_typed_errors() {
        let mut p = pipeline();
        assert_eq!(
            p.record(VpId(0), Letter::K, t(0), &site_obs("ZRH", 1, 20)),
            Err(PipelineError::UnknownSite {
                letter: Letter::K,
                site: "ZRH".into()
            })
        );
        assert_eq!(
            p.record(VpId(99), Letter::K, t(0), &CleanObs::Timeout),
            Err(PipelineError::VpOutOfRange {
                vp: VpId(99),
                n_vps: 4
            })
        );
    }

    #[test]
    fn record_fast_matches_record_and_preserves_error_order() {
        // Same observation stream through both entry points produces
        // identical aggregates (record() is a thin wrapper).
        let mut slow = pipeline();
        let mut fast = pipeline();
        let stream: [(u32, u64, CleanObs); 6] = [
            (0, 1, site_obs("AMS", 1, 30)),
            (1, 2, site_obs("FRA", 2, 20)),
            (2, 3, CleanObs::Timeout),
            (0, 11, CleanObs::Error),
            (1, 12, site_obs("AMS", 1, 25)),
            (1, 22, site_obs("FRA", 1, 25)), // flip
        ];
        for (vp, mins, obs) in &stream {
            slow.record(VpId(*vp), Letter::K, t(*mins), obs).unwrap();
            let f = match obs {
                CleanObs::Timeout => FastObs::Timeout,
                CleanObs::Error => FastObs::Error,
                CleanObs::Site(id, rtt) => FastObs::Site {
                    site: if id.site == "AMS" { 0 } else { 1 },
                    server: id.server,
                    rtt: *rtt,
                },
            };
            fast.record_fast(VpId(*vp), Letter::K, t(*mins), f).unwrap();
        }
        slow.finalize();
        fast.finalize();
        let (s, f) = (slow.letter(Letter::K), fast.letter(Letter::K));
        assert_eq!(s.success.values(), f.success.values());
        assert_eq!(s.errors.values(), f.errors.values());
        assert_eq!(s.flips.values(), f.flips.values());
        assert_eq!(s.flip_events, f.flip_events);
        for (a, b) in s.site_counts.iter().zip(&f.site_counts) {
            assert_eq!(a.values(), b.values());
        }
        assert_eq!(s.raster, f.raster);
        assert_eq!(s.observed_probes, f.observed_probes);

        // Error ordering matches record(): letter registration first,
        // then VP range, then site validity; out-of-range site indices
        // surface as `#idx`.
        let mut p = pipeline();
        let bad = FastObs::Site {
            site: 7,
            server: 1,
            rtt: SimDuration::from_millis(20),
        };
        assert_eq!(
            p.record_fast(VpId(0), Letter::E, t(0), bad),
            Err(PipelineError::UnregisteredLetter(Letter::E))
        );
        assert_eq!(
            p.record_fast(VpId(99), Letter::K, t(0), bad),
            Err(PipelineError::VpOutOfRange {
                vp: VpId(99),
                n_vps: 4
            })
        );
        assert_eq!(
            p.record_fast(VpId(0), Letter::K, t(0), bad),
            Err(PipelineError::UnknownSite {
                letter: Letter::K,
                site: "#7".into()
            })
        );
        // Beyond-horizon observations are ignored, even invalid ones.
        assert_eq!(
            p.record_fast(VpId(0), Letter::K, SimTime::from_hours(2), bad),
            Ok(())
        );
    }

    #[test]
    fn missed_probes_reduce_coverage() {
        let mut p = pipeline();
        p.record(VpId(0), Letter::K, t(1), &site_obs("AMS", 1, 30))
            .unwrap();
        p.note_missed(Letter::K, t(5)).unwrap();
        p.note_missed(Letter::K, t(9)).unwrap();
        // Beyond-horizon slots ignored symmetrically with record().
        p.note_missed(Letter::K, SimTime::from_hours(2)).unwrap();
        p.finalize();
        let cov = p.letter(Letter::K).coverage();
        assert!((cov.fraction() - 1.0 / 3.0).abs() < 1e-12);
        // A letter with no missed probes stays complete.
        let mut q = pipeline();
        q.record(VpId(0), Letter::K, t(1), &site_obs("AMS", 1, 30))
            .unwrap();
        q.finalize();
        assert!(q.letter(Letter::K).coverage().is_complete());
    }
}
