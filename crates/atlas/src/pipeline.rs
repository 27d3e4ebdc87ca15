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
use crate::probe::UNMEASURED_RTT;
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
    /// [`MeasurementPipeline::register_letter`] was called twice for
    /// one letter.
    DuplicateLetter(Letter),
    /// A rastered letter has more sites than one raster cell can encode
    /// ([`raster_code::MAX_SITES`]).
    TooManyRasterSites { letter: Letter, sites: usize },
    /// [`PipelineConfig::rtt_subsample`] is zero: no VP id is a multiple
    /// of it but VP 0's, so Figure 4 would keep one VP's RTTs.
    ZeroRttSubsample,
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
            PipelineError::DuplicateLetter(l) => write!(f, "letter {l} registered twice"),
            PipelineError::TooManyRasterSites { letter, sites } => write!(
                f,
                "{letter} has {sites} sites but a raster encodes at most {}",
                raster_code::MAX_SITES
            ),
            PipelineError::ZeroRttSubsample => write!(f, "rtt_subsample must be positive"),
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
    /// medians are insensitive to this). Must be positive.
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

    /// Probe slots on the raster grid: whole probe intervals within the
    /// horizon.
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
    /// Most sites a rastered letter may have.
    pub const MAX_SITES: usize = (MISSING - SITE_BASE - 1) as usize;
}

/// Per-probe site timelines of one letter ([`raster_code`] cells), one
/// per VP. Stored column-major — one column per probe slot, one cell per
/// VP — because the probe tick writes a whole column in VP order; a row
/// is read back with [`Raster::row`].
#[derive(Debug, Clone, PartialEq)]
pub struct Raster {
    n_vps: usize,
    /// `n_probes × n_vps` cells at `[probe_seq * n_vps + vp]`, `MISSING`
    /// until a probe lands there.
    cells: Vec<u8>,
}

impl Raster {
    fn new(n_probes: usize, n_vps: usize) -> Raster {
        Raster {
            n_vps,
            cells: vec![raster_code::MISSING; n_probes * n_vps],
        }
    }

    /// Number of VP rows.
    pub fn n_vps(&self) -> usize {
        self.n_vps
    }

    /// Record `code` at (probe slot, VP). A second probe in the same
    /// slot keeps the better code, by [`code_rank`].
    #[inline]
    fn record(&mut self, probe_seq: usize, vp: usize, code: u8) {
        let cell = &mut self.cells[probe_seq * self.n_vps + vp];
        if code_rank(code) > code_rank(*cell) {
            *cell = code;
        }
    }

    /// Every probe slot of one VP's timeline, in order, `MISSING` where
    /// it recorded nothing; empty beyond the fleet. Lazy, so a scan for
    /// the first answer stops there.
    pub fn slots(&self, vp: usize) -> impl DoubleEndedIterator<Item = u8> + ExactSizeIterator + '_ {
        let column = match self.cells.get(vp..) {
            Some(cells) if vp < self.n_vps => cells,
            _ => &[],
        };
        column.iter().step_by(self.n_vps).copied()
    }

    /// One VP's timeline: one cell per probe slot up to its last
    /// recorded probe, earlier unprobed slots `MISSING`. Empty for a VP
    /// that never probed (or beyond the fleet).
    pub fn row(&self, vp: usize) -> Vec<u8> {
        let len = self
            .slots(vp)
            .rposition(|c| c != raster_code::MISSING)
            .map_or(0, |last| last + 1);
        self.slots(vp).take(len).collect()
    }
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
#[derive(Debug, Clone, PartialEq)]
pub struct ServerWatch {
    /// VP count per bin, per server ordinal (1-based key).
    pub counts: BTreeMap<u16, BinnedSeries>,
    /// RTT samples per bin, per server ordinal.
    pub rtts: BTreeMap<u16, SampleBins>,
    /// Site-level RTT samples (Figure 7).
    pub site_rtt: SampleBins,
}

/// Everything accumulated for one letter.
#[derive(Debug, Clone, PartialEq)]
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
    pub raster: Option<Raster>,
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

// An unmeasured RTT is a sentinel value (`UNMEASURED_RTT`), not a
// wider `BinBest`: per-VP state stays at 24 bytes.
const _: () = assert!(std::mem::size_of::<VpLetterState>() <= 24);

impl Default for VpLetterState {
    fn default() -> Self {
        VpLetterState {
            cur_bin: 0,
            best: BinBest::Empty,
            last_site: None,
        }
    }
}

/// Tallies of probe clean/drop outcomes: how many recorded observations
/// resolved to a site, timed out, or errored, and how many scheduled
/// probes produced nothing at all. Each shard counts its own letter;
/// [`MeasurementPipeline::outcome_stats`] sums them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeOutcomeStats {
    pub site: u64,
    pub timeout: u64,
    pub error: u64,
    pub missed: u64,
}

/// One letter's slice of the pipeline: its aggregates, its per-VP
/// streaming state and its outcome tallies. No state crosses letters,
/// so shards record independently — the probe wheel gives each letter
/// its own task that probes and records in one pass.
#[derive(Debug)]
pub struct LetterShard {
    data: LetterData,
    /// Streaming state per VP, indexed by `VpId`.
    state: Vec<VpLetterState>,
    outcomes: ProbeOutcomeStats,
    horizon: SimTime,
    probe_interval: SimDuration,
    rtt_subsample: RttSubsample,
}

/// Which VPs feed Figure 4's RTT bins, and how many samples a bin can
/// therefore hold.
#[derive(Debug, Clone, Copy)]
struct RttSubsample {
    /// Keep RTTs from VPs whose id is a multiple of this.
    every: u32,
    /// Subsampled VPs in the fleet: each commits a bin at most once, so
    /// no bin holds more samples than this.
    per_bin: usize,
}

impl RttSubsample {
    /// `every` must be positive; registration rejects zero.
    fn new(every: u32, n_vps: usize) -> RttSubsample {
        RttSubsample {
            every,
            per_bin: n_vps.div_ceil(every as usize),
        }
    }

    /// Does `vp` feed Figure 4's RTT bins?
    #[inline]
    fn keeps(self, vp: VpId) -> bool {
        vp.0.is_multiple_of(self.every)
    }
}

/// A probe time resolved against a shard's binning, from
/// [`LetterShard::slot`]: the aggregate bin and, when the time falls
/// inside the raster's probe grid, the raster column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordSlot {
    bin: u32,
    raster_seq: Option<usize>,
}

impl LetterShard {
    /// The letter this shard records.
    pub fn letter(&self) -> Letter {
        self.data.letter
    }

    /// Record that a scheduled probe produced no measurement at all
    /// (the VP was disconnected or its result was discarded). Counts
    /// toward [`LetterData::coverage`]; beyond-horizon slots are ignored
    /// symmetrically with [`LetterShard::record`].
    pub fn note_missed(&mut self, at: SimTime) {
        if at < self.horizon {
            self.data.missed_probes += 1;
            self.outcomes.missed += 1;
        }
    }

    /// Where a probe at `at` records: its bin and its raster slot,
    /// computed once per tick since every probe of a tick shares `at`.
    /// `None` at or past the horizon, where observations are ignored.
    pub fn slot(&self, at: SimTime) -> Option<RecordSlot> {
        if at >= self.horizon {
            return None;
        }
        let probe_seq = (at.as_nanos() / self.probe_interval.as_nanos()) as usize;
        let n_probes = (self.horizon.as_nanos() / self.probe_interval.as_nanos()) as usize;
        Some(RecordSlot {
            bin: at.bin_index(self.data.success.bin_width()) as u32,
            raster_seq: (probe_seq < n_probes).then_some(probe_seq),
        })
    }

    /// Record one observation already resolved to a site index. A VP
    /// beyond the fleet is a [`PipelineError::VpOutOfRange`]; a site
    /// index beyond the letter's registered sites is an
    /// [`PipelineError::UnknownSite`] (reported as `#idx`).
    pub fn record(&mut self, vp: VpId, at: SimTime, obs: FastObs) -> Result<(), PipelineError> {
        match self.slot(at) {
            Some(slot) => self.record_in(&slot, vp, obs),
            None => Ok(()),
        }
    }

    /// Whether the pipeline reads the RTT of a site answer from `vp` at
    /// site index `site`: true when `vp` feeds Figure 4's RTT bins or
    /// `site` is watched (Figures 7, 12, 13). A site answer for which
    /// this is false may carry [`UNMEASURED_RTT`].
    pub fn keeps_rtt(&self, vp: VpId, site: u16) -> bool {
        self.rtt_subsample.keeps(vp) || self.data.watches.contains_key(&site)
    }

    /// [`Self::record`] at a slot from [`Self::slot`].
    #[inline]
    pub fn record_in(
        &mut self,
        slot: &RecordSlot,
        vp: VpId,
        obs: FastObs,
    ) -> Result<(), PipelineError> {
        let n_vps = self.state.len();
        if vp.0 as usize >= n_vps {
            return Err(PipelineError::VpOutOfRange { vp, n_vps });
        }
        let data = &mut self.data;
        if let FastObs::Site { site, .. } = obs {
            if site as usize >= data.site_codes.len() {
                return Err(PipelineError::UnknownSite {
                    letter: data.letter,
                    site: format!("#{site}"),
                });
            }
        }
        data.observed_probes += 1;
        match obs {
            FastObs::Timeout => self.outcomes.timeout += 1,
            FastObs::Error => self.outcomes.error += 1,
            FastObs::Site { .. } => self.outcomes.site += 1,
        }
        if let (Some(raster), Some(probe_seq)) = (&mut data.raster, slot.raster_seq) {
            // Registration capped a rastered letter's sites at
            // `MAX_SITES`, so the site code fits a cell.
            let code = match obs {
                FastObs::Timeout => raster_code::TIMEOUT,
                FastObs::Error => raster_code::ERROR,
                FastObs::Site { site, .. } => raster_code::SITE_BASE + site as u8,
            };
            raster.record(probe_seq, vp.0 as usize, code);
        }

        // Binning with site > error > timeout preference.
        let state = &mut self.state[vp.0 as usize];
        if slot.bin != state.cur_bin {
            let finished = *state;
            commit(data, vp, finished, self.rtt_subsample);
            if let BinBest::Site { site, .. } = finished.best {
                // The committed bin's site becomes the reference point
                // for flip detection in later bins.
                state.last_site = Some(site);
            }
            state.cur_bin = slot.bin;
            state.best = BinBest::Empty;
        }
        let cand = match obs {
            FastObs::Timeout => BinBest::Timeout,
            FastObs::Error => BinBest::Error,
            // The site index was validated above.
            FastObs::Site { site, server, rtt } => BinBest::Site { site, server, rtt },
        };
        if cand.rank() > state.best.rank() {
            state.best = cand;
        }
        Ok(())
    }

    /// Flush every VP's outstanding bin.
    fn finalize(&mut self) {
        for (vpi, st) in self.state.iter_mut().enumerate() {
            commit(&mut self.data, VpId(vpi as u32), *st, self.rtt_subsample);
            st.best = BinBest::Empty;
        }
    }
}

/// Fold one VP's finished bin into the letter's aggregates. The caller
/// updates the VP's `last_site` (it owns the mutable state).
fn commit(data: &mut LetterData, vp: VpId, st: VpLetterState, subsample: RttSubsample) {
    let bin = st.cur_bin as usize;
    match st.best {
        BinBest::Empty | BinBest::Timeout => {}
        BinBest::Error => data.errors.incr_bin(bin),
        BinBest::Site { site, server, rtt } => {
            data.success.incr_bin(bin);
            data.site_counts[site as usize].incr_bin(bin);
            // Only a probe `LetterShard::keeps_rtt` rejects may carry an
            // unmeasured RTT, and neither branch below reads its RTT.
            if subsample.keeps(vp) {
                debug_assert!(
                    rtt != UNMEASURED_RTT,
                    "VP {} reached RTT bin {bin} unmeasured",
                    vp.0
                );
                // Registration reserved `per_bin` samples in every bin;
                // a push past that would reallocate the bin on a probe
                // task's worker thread.
                debug_assert!(
                    data.rtt.bin_len(bin) < subsample.per_bin,
                    "RTT bin {bin} outgrew its {} reserved samples",
                    subsample.per_bin
                );
                data.rtt.push_bin(bin, rtt.as_nanos() as f64);
            }
            if let Some(prev) = st.last_site {
                if prev != site {
                    data.flips.incr_bin(bin);
                    data.flip_events.push(FlipEvent {
                        at_bin: st.cur_bin,
                        vp,
                        from_site: prev,
                        to_site: site,
                    });
                }
            }
            if let Some(watch) = data.watches.get_mut(&site) {
                debug_assert!(
                    rtt != UNMEASURED_RTT,
                    "VP {} reached watched site {site} unmeasured",
                    vp.0
                );
                let n_bins = data.success.len();
                let bw = data.success.bin_width();
                watch
                    .counts
                    .entry(server)
                    .or_insert_with(|| BinnedSeries::zeros(bw, n_bins))
                    .incr_bin(bin);
                watch
                    .rtts
                    .entry(server)
                    .or_insert_with(|| SampleBins::new(bw, n_bins))
                    .push_bin(bin, rtt.as_nanos() as f64);
                watch.site_rtt.push_bin(bin, rtt.as_nanos() as f64);
            }
        }
    }
}

/// The streaming pipeline: one [`LetterShard`] per registered letter,
/// in registration order.
#[derive(Debug)]
pub struct MeasurementPipeline {
    cfg: PipelineConfig,
    n_vps: usize,
    shards: Vec<LetterShard>,
}

impl MeasurementPipeline {
    pub fn new(cfg: PipelineConfig, n_vps: usize) -> MeasurementPipeline {
        assert!(n_vps > 0);
        assert!(!cfg.bin.is_zero());
        MeasurementPipeline {
            cfg,
            n_vps,
            shards: Vec::new(),
        }
    }

    pub fn config(&self) -> &PipelineConfig {
        &self.cfg
    }

    /// The fleet size the pipeline records for.
    pub fn n_vps(&self) -> usize {
        self.n_vps
    }

    /// Probe outcome tallies (clean/drop accounting), summed over the
    /// shards.
    pub fn outcome_stats(&self) -> ProbeOutcomeStats {
        self.shards
            .iter()
            .fold(ProbeOutcomeStats::default(), |acc, s| ProbeOutcomeStats {
                site: acc.site + s.outcomes.site,
                timeout: acc.timeout + s.outcomes.timeout,
                error: acc.error + s.outcomes.error,
                missed: acc.missed + s.outcomes.missed,
            })
    }

    /// Register a letter and its site codes before recording for it. A
    /// letter registered twice is a [`PipelineError::DuplicateLetter`];
    /// a rastered letter with more than [`raster_code::MAX_SITES`] sites
    /// is a [`PipelineError::TooManyRasterSites`], and a zero
    /// [`PipelineConfig::rtt_subsample`] a
    /// [`PipelineError::ZeroRttSubsample`].
    pub fn register_letter(
        &mut self,
        letter: Letter,
        site_codes: Vec<String>,
    ) -> Result<(), PipelineError> {
        if self.try_letter(letter).is_some() {
            return Err(PipelineError::DuplicateLetter(letter));
        }
        let rastered = self.cfg.raster_letters.contains(&letter);
        if rastered && site_codes.len() > raster_code::MAX_SITES {
            return Err(PipelineError::TooManyRasterSites {
                letter,
                sites: site_codes.len(),
            });
        }
        if self.cfg.rtt_subsample == 0 {
            return Err(PipelineError::ZeroRttSubsample);
        }
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
        let raster = rastered.then(|| Raster::new(self.cfg.n_probes(), self.n_vps));
        let rtt_subsample = RttSubsample::new(self.cfg.rtt_subsample, self.n_vps);
        let data = LetterData {
            letter,
            site_counts: site_codes
                .iter()
                .map(|_| BinnedSeries::zeros(bin, n_bins))
                .collect(),
            site_codes,
            success: BinnedSeries::zeros(bin, n_bins),
            errors: BinnedSeries::zeros(bin, n_bins),
            // Reserved here, on the engine thread, to the most a bin can
            // hold: grown by a probe task, every bin would live in that
            // worker thread's malloc arena for the rest of the run.
            rtt: SampleBins::with_bin_capacity(bin, n_bins, rtt_subsample.per_bin),
            flips: BinnedSeries::zeros(bin, n_bins),
            flip_events: Vec::new(),
            watches,
            raster,
            observed_probes: 0,
            missed_probes: 0,
        };
        self.shards.push(LetterShard {
            data,
            state: vec![VpLetterState::default(); self.n_vps],
            outcomes: ProbeOutcomeStats::default(),
            horizon: self.cfg.horizon,
            probe_interval: self.cfg.probe_interval,
            rtt_subsample,
        });
        Ok(())
    }

    /// The letter shards, in registration order.
    pub fn shards_mut(&mut self) -> &mut [LetterShard] {
        &mut self.shards
    }

    /// Record one cleaned observation: resolves the identity's site code
    /// to its index and hands off to the letter's shard, preserving the
    /// error order: unregistered letter, then VP range, then unknown
    /// site.
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
        let n_vps = self.n_vps;
        let shard = self
            .shards
            .iter_mut()
            .find(|s| s.data.letter == letter)
            .ok_or(PipelineError::UnregisteredLetter(letter))?;
        if vp.0 as usize >= n_vps {
            return Err(PipelineError::VpOutOfRange { vp, n_vps });
        }
        let fast = match obs {
            CleanObs::Timeout => FastObs::Timeout,
            CleanObs::Error => FastObs::Error,
            CleanObs::Site(id, rtt) => FastObs::Site {
                site: shard
                    .data
                    .site_idx(&id.site)
                    .ok_or_else(|| PipelineError::UnknownSite {
                        letter,
                        site: id.site.clone(),
                    })?,
                server: id.server,
                rtt: *rtt,
            },
        };
        shard.record(vp, at, fast)
    }

    /// Flush all outstanding bins. Call once after the last record.
    pub fn finalize(&mut self) {
        for shard in &mut self.shards {
            shard.finalize();
        }
    }

    /// Accumulated data for a letter, or `None` when it was never
    /// registered — the graceful-degradation accessor analyses use.
    pub fn try_letter(&self, letter: Letter) -> Option<&LetterData> {
        self.shards
            .iter()
            .map(|s| &s.data)
            .find(|d| d.letter == letter)
    }

    /// Accumulated data for a letter.
    ///
    /// # Panics
    /// On an unregistered letter — asking for one is a programmer
    /// error; use [`MeasurementPipeline::try_letter`] to degrade.
    pub fn letter(&self, letter: Letter) -> &LetterData {
        self.try_letter(letter)
            .unwrap_or_else(|| panic!("letter {letter} not registered"))
    }
}

/// Preference rank of a raster cell, mirroring the bin preference:
/// site > error > timeout > missing.
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
        p.register_letter(Letter::K, vec!["AMS".into(), "FRA".into()])
            .unwrap();
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
        // The last probe slot before the 1 h horizon (56–60 min).
        p.record(VpId(1), Letter::K, t(59), &CleanObs::Error)
            .unwrap();
        p.finalize();
        let d = p.letter(Letter::K);
        let raster = d.raster.as_ref().unwrap();
        let last = raster.row(1);
        assert_eq!((last.len(), last[14]), (15, raster_code::ERROR));
        let row = raster.row(0);
        let fra = raster_code::SITE_BASE + d.site_idx("FRA").unwrap() as u8;
        let ams = raster_code::SITE_BASE + d.site_idx("AMS").unwrap() as u8;
        assert_eq!(
            row.as_slice(),
            &[fra, raster_code::TIMEOUT, raster_code::MISSING, ams]
        );
    }

    #[test]
    fn raster_rows_pad_gaps_trim_tails_and_keep_the_better_code() {
        let mut r = Raster::new(6, 3);
        // VP 0: slots 0 and 3, with a gap between and none after.
        r.record(0, 0, raster_code::TIMEOUT);
        r.record(3, 0, raster_code::SITE_BASE + 1);
        let gap = raster_code::MISSING;
        assert_eq!(
            r.row(0),
            vec![raster_code::TIMEOUT, gap, gap, raster_code::SITE_BASE + 1]
        );
        // VP 1: two probes in slot 2 keep the better code either way
        // round; a worse one never overwrites it.
        r.record(2, 1, raster_code::ERROR);
        r.record(2, 1, raster_code::SITE_BASE);
        r.record(2, 1, raster_code::TIMEOUT);
        assert_eq!(r.row(1), vec![gap, gap, raster_code::SITE_BASE]);
        r.record(1, 1, raster_code::TIMEOUT);
        r.record(1, 1, raster_code::ERROR);
        assert_eq!(r.row(1)[1], raster_code::ERROR);
        // VP 2 never probed; a VP beyond the fleet has no row either.
        assert!(r.row(2).is_empty());
        assert!(r.row(3).is_empty());
        assert_eq!(r.n_vps(), 3);
        assert_eq!(r.slots(0).len(), 6);
        // A horizon shorter than one probe interval has no slots.
        assert!(Raster::new(0, 3).row(1).is_empty());
    }

    #[test]
    fn registration_errors_are_typed() {
        let mut p = pipeline();
        assert_eq!(
            p.register_letter(Letter::K, vec!["AMS".into()]),
            Err(PipelineError::DuplicateLetter(Letter::K))
        );
        // The raster's site limit binds only rastered letters.
        let many: Vec<String> = (0..=raster_code::MAX_SITES)
            .map(|i| format!("S{i}"))
            .collect();
        assert_eq!(p.register_letter(Letter::E, many.clone()), Ok(()));
        let mut cfg = cfg();
        cfg.raster_letters.push(Letter::E);
        let mut q = MeasurementPipeline::new(cfg.clone(), 4);
        assert_eq!(
            q.register_letter(Letter::E, many.clone()),
            Err(PipelineError::TooManyRasterSites {
                letter: Letter::E,
                sites: raster_code::MAX_SITES + 1
            })
        );
        assert_eq!(
            q.register_letter(Letter::E, many[..raster_code::MAX_SITES].to_vec()),
            Ok(())
        );
        // A zero RTT subsample would keep VP 0's RTTs alone.
        let mut zero = MeasurementPipeline::new(
            PipelineConfig {
                rtt_subsample: 0,
                ..cfg
            },
            4,
        );
        assert_eq!(
            zero.register_letter(Letter::K, vec!["AMS".into()]),
            Err(PipelineError::ZeroRttSubsample)
        );
        // An unrastered letter records site indices past the raster's
        // encoding.
        let e = p.shards_mut().iter_mut().find(|s| s.letter() == Letter::E);
        let obs = FastObs::Site {
            site: raster_code::MAX_SITES as u16,
            server: 1,
            rtt: SimDuration::from_millis(20),
        };
        e.unwrap().record(VpId(0), t(0), obs).unwrap();
        p.finalize();
        let d = p.letter(Letter::E);
        assert_eq!(d.site_counts[raster_code::MAX_SITES].values()[0], 1.0);
        assert!(d.raster.is_none());
    }

    #[test]
    fn keeps_rtt_names_the_subsampled_vps_and_the_watched_sites() {
        let mut cfg = cfg();
        cfg.rtt_subsample = 2;
        let mut p = MeasurementPipeline::new(cfg, 4);
        p.register_letter(Letter::K, vec!["AMS".into(), "FRA".into()])
            .unwrap();
        let shard = &mut p.shards_mut()[0];
        let (ams, fra) = (0, 1);
        assert!(shard.keeps_rtt(VpId(0), ams) && shard.keeps_rtt(VpId(2), ams));
        assert!(!shard.keeps_rtt(VpId(1), ams) && !shard.keeps_rtt(VpId(3), ams));
        assert!(shard.keeps_rtt(VpId(1), fra), "FRA is watched");
        // An unmeasured RTT from a VP whose RTT is not kept counts as a
        // site answer and reaches no RTT sample.
        let unmeasured = FastObs::Site {
            site: ams,
            server: 1,
            rtt: UNMEASURED_RTT,
        };
        shard.record(VpId(1), t(1), unmeasured).unwrap();
        p.finalize();
        let d = p.letter(Letter::K);
        assert_eq!(d.success.values()[0], 1.0);
        assert_eq!(d.site_counts[ams as usize].values()[0], 1.0);
        assert_eq!(d.rtt.count_at(t(0)), 0);
    }

    /// Record an unmeasured site answer from `vp` at `site` (0 = AMS,
    /// 1 = the watched FRA) under `rtt_subsample`, and finalize.
    #[cfg(debug_assertions)]
    fn commit_unmeasured(rtt_subsample: u32, vp: u32, site: u16) {
        let mut cfg = cfg();
        cfg.rtt_subsample = rtt_subsample;
        let mut p = MeasurementPipeline::new(cfg, 4);
        p.register_letter(Letter::K, vec!["AMS".into(), "FRA".into()])
            .unwrap();
        let obs = FastObs::Site {
            site,
            server: 1,
            rtt: UNMEASURED_RTT,
        };
        p.shards_mut()[0].record(VpId(vp), t(1), obs).unwrap();
        p.finalize();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "VP 2 reached RTT bin 0 unmeasured")]
    fn unmeasured_rtt_in_a_subsampled_bin_is_caught() {
        commit_unmeasured(2, 2, 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "VP 1 reached watched site 1 unmeasured")]
    fn unmeasured_rtt_at_a_watched_site_is_caught() {
        commit_unmeasured(2, 1, 1);
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
    fn shard_record_matches_record_and_preserves_error_order() {
        // Same observation stream through the string path, straight
        // into the shard, and through a precomputed slot produces
        // identical aggregates (record() resolves the site code and hands
        // off to the shard; the shard's record() is slot() + record_in()).
        let mut slow = pipeline();
        let mut fast = pipeline();
        let mut slotted = pipeline();
        let stream: [(u32, u64, CleanObs); 8] = [
            (0, 1, site_obs("AMS", 1, 30)),
            (1, 2, site_obs("FRA", 2, 20)),
            (2, 3, CleanObs::Timeout),
            (0, 11, CleanObs::Error),
            (1, 12, site_obs("AMS", 1, 25)),
            (1, 22, site_obs("FRA", 1, 25)), // flip
            (2, 22, site_obs("FRA", 1, 40)), // same slot, second VP
            (0, 61, site_obs("AMS", 1, 30)), // past the 1 h horizon
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
            fast.shards_mut()[0].record(VpId(*vp), t(*mins), f).unwrap();
            let shard = &mut slotted.shards_mut()[0];
            match shard.slot(t(*mins)) {
                Some(slot) => shard.record_in(&slot, VpId(*vp), f).unwrap(),
                None => assert!(
                    t(*mins) >= SimTime::from_hours(1),
                    "slot dropped {mins} min"
                ),
            }
        }
        slow.finalize();
        fast.finalize();
        slotted.finalize();
        assert_eq!(slow.letter(Letter::K), fast.letter(Letter::K));
        assert_eq!(slow.letter(Letter::K), slotted.letter(Letter::K));
        assert_eq!(slow.outcome_stats(), fast.outcome_stats());
        assert_eq!(slow.outcome_stats(), slotted.outcome_stats());
        assert_eq!(slotted.letter(Letter::K).observed_probes, 7);

        // The string path checks the letter, then the VP range, then
        // the site; the shard checks the VP range, then the site index,
        // which surfaces as `#idx`.
        let mut p = pipeline();
        assert_eq!(
            p.record(VpId(99), Letter::E, t(0), &site_obs("ZRH", 1, 20)),
            Err(PipelineError::UnregisteredLetter(Letter::E))
        );
        assert_eq!(
            p.record(VpId(99), Letter::K, t(0), &site_obs("ZRH", 1, 20)),
            Err(PipelineError::VpOutOfRange {
                vp: VpId(99),
                n_vps: 4
            })
        );
        let bad = FastObs::Site {
            site: 7,
            server: 1,
            rtt: SimDuration::from_millis(20),
        };
        let shard = &mut p.shards_mut()[0];
        assert_eq!(shard.letter(), Letter::K);
        assert_eq!(
            shard.record(VpId(99), t(0), bad),
            Err(PipelineError::VpOutOfRange {
                vp: VpId(99),
                n_vps: 4
            })
        );
        assert_eq!(
            shard.record(VpId(0), t(0), bad),
            Err(PipelineError::UnknownSite {
                letter: Letter::K,
                site: "#7".into()
            })
        );
        // record_in keeps that order at a precomputed slot.
        let slot = shard.slot(t(0)).expect("inside the horizon");
        assert_eq!(
            shard.record_in(&slot, VpId(99), bad),
            Err(PipelineError::VpOutOfRange {
                vp: VpId(99),
                n_vps: 4
            })
        );
        assert_eq!(
            shard.record_in(&slot, VpId(0), bad),
            Err(PipelineError::UnknownSite {
                letter: Letter::K,
                site: "#7".into()
            })
        );
        // Beyond-horizon observations are ignored, even invalid ones.
        assert_eq!(shard.slot(SimTime::from_hours(1)), None);
        assert_eq!(shard.record(VpId(0), SimTime::from_hours(2), bad), Ok(()));
    }

    #[test]
    fn missed_probes_reduce_coverage() {
        let mut p = pipeline();
        p.record(VpId(0), Letter::K, t(1), &site_obs("AMS", 1, 30))
            .unwrap();
        let shard = &mut p.shards_mut()[0];
        shard.note_missed(t(5));
        shard.note_missed(t(9));
        // Beyond-horizon slots ignored symmetrically with record().
        shard.note_missed(SimTime::from_hours(2));
        p.finalize();
        let cov = p.letter(Letter::K).coverage();
        assert!((cov.fraction() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(p.outcome_stats().missed, 2);
        // A letter with no missed probes stays complete.
        let mut q = pipeline();
        q.record(VpId(0), Letter::K, t(1), &site_obs("AMS", 1, 30))
            .unwrap();
        q.finalize();
        assert!(q.letter(Letter::K).coverage().is_complete());
    }
}
