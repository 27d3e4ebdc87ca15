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
//! * the median of subsampled RTTs per bin (Figure 4);
//! * per-site VP counts per bin (Figures 5, 6, 14);
//! * site flips per bin plus the individual flip events (Figures 8, 10);
//! * per-server counts and median RTTs for *watched* sites (Figures 7,
//!   12, 13);
//! * optional full per-probe site timelines ("raster") at probe
//!   granularity for Figures 10 and 11.
//!
//! RTT samples are kept only while their bin is open. A VP commits its
//! bin when it next records in a later bin, so a bin stays open for
//! about one probe interval after it ends, longer for a VP whose probes
//! went missing meanwhile. [`LetterShard::close_bins`] closes the bins no
//! VP can still commit to, reducing each to its median;
//! [`MeasurementPipeline::finalize`] closes the rest.

use crate::clean::{CleanObs, FastObs};
use crate::probe::{PROBE_INTERVAL, UNMEASURED_RTT};
use crate::vp::VpId;
use rootcast_dns::Letter;
use rootcast_netsim::{BinnedSeries, Coverage, OpenBins, SimDuration, SimTime};
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

/// Bin width of every aggregate (§2.4.1: ten-minute bins). Part of the
/// paper's fixed measurement design, so not a knob.
pub const BIN_WIDTH: SimDuration = SimDuration::from_mins(10);

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Analysis horizon; observations beyond it are dropped.
    pub horizon: SimTime,
    /// Keep RTT samples from one VP in `rtt_subsample` (memory bound;
    /// medians are insensitive to this). Must be positive.
    pub rtt_subsample: u32,
    /// Sites whose per-server behaviour is tracked (Figures 12/13).
    pub watched_sites: Vec<(Letter, String)>,
    /// Letters with full per-probe site timelines (Figures 10/11).
    pub raster_letters: Vec<Letter>,
}

impl PipelineConfig {
    /// The paper's parameters: 48 hours, raster for K-root, per-server
    /// watches on K-FRA, K-NRT and K-AMS.
    pub fn paper_default() -> PipelineConfig {
        PipelineConfig {
            horizon: SimTime::from_hours(48),
            rtt_subsample: 8,
            watched_sites: vec![
                (Letter::K, "FRA".to_string()),
                (Letter::K, "NRT".to_string()),
                (Letter::K, "AMS".to_string()),
            ],
            raster_letters: vec![Letter::K],
        }
    }

    fn n_bins(&self) -> usize {
        (self.horizon.as_nanos() / BIN_WIDTH.as_nanos()) as usize
    }
}

/// Probe slots on the raster grid up to `horizon`: whole
/// [`PROBE_INTERVAL`]s.
fn n_probes(horizon: SimTime) -> usize {
    (horizon.as_nanos() / PROBE_INTERVAL.as_nanos()) as usize
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
/// VP — because a probe lane writes a whole column in VP order; a row
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
    /// Median RTT per bin in nanoseconds, per server ordinal (NaN where
    /// no sample).
    pub rtts: BTreeMap<u16, BinnedSeries>,
    /// Site-level median RTT per bin in nanoseconds (Figure 7).
    pub site_rtt: BinnedSeries,
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
    /// Median of the subsampled RTTs per bin in nanoseconds (NaN where no
    /// sample) — Figure 4.
    pub rtt: BinnedSeries,
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
        self.rtt.map(|ns| ns / 1e6)
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
/// so shards record independently — the probe wheel takes them out of
/// the pipeline ([`MeasurementPipeline::take_shards`]) and gives each
/// letter a lane of its own that probes and records in one pass.
#[derive(Debug)]
pub struct LetterShard {
    data: LetterData,
    /// Streaming state per VP, indexed by `VpId`.
    state: Vec<VpLetterState>,
    outcomes: ProbeOutcomeStats,
    horizon: SimTime,
    rtt_subsample: RttSubsample,
    /// The samples of the open RTT bins.
    rtt_bins: RttBins,
    /// VPs whose probes went missing since they last recorded.
    lagging: Lagging,
}

/// Which VPs feed Figure 4's RTT bins.
#[derive(Debug, Clone, Copy)]
struct RttSubsample {
    /// Keep RTTs from VPs whose id is a multiple of this; positive, as
    /// registration rejects zero.
    every: u32,
}

impl RttSubsample {
    /// Does `vp` feed Figure 4's RTT bins?
    #[inline]
    fn keeps(self, vp: VpId) -> bool {
        vp.0.is_multiple_of(self.every)
    }
}

/// The samples of a shard's open RTT bins, one [`OpenBins`] per median
/// series of its [`LetterData`], and which bins have closed. A bin
/// closes in every series at once.
#[derive(Debug)]
struct RttBins {
    /// Bins in each series; samples past the last whole bin are dropped,
    /// as [`BinnedSeries::incr_bin`] drops counts there.
    n_bins: usize,
    /// For [`LetterData::rtt`].
    letter: OpenBins,
    /// One per watched site, as [`LetterData::watches`] lists them. A
    /// letter watches a few sites with a few servers each, so a linear
    /// search finds one faster than a map.
    watches: Vec<WatchBins>,
    /// Every bin below this is closed, except those in `held`.
    settled: usize,
    /// Bins below `settled` that a lagging VP may still commit to, so
    /// still open; ascending.
    held: Vec<usize>,
}

impl RttBins {
    fn new(n_bins: usize, watched: impl Iterator<Item = u16>) -> RttBins {
        RttBins {
            n_bins,
            letter: OpenBins::default(),
            watches: watched
                .map(|site| WatchBins {
                    site,
                    all: OpenBins::default(),
                    servers: Vec::new(),
                })
                .collect(),
            settled: 0,
            held: Vec::new(),
        }
    }

    fn is_closed(&self, bin: usize) -> bool {
        bin < self.settled && self.held.binary_search(&bin).is_err()
    }

    /// Whether a sample of bin `bin` is kept: false past the last whole
    /// bin. No sample may reach a closed bin.
    fn takes(&self, bin: usize) -> bool {
        debug_assert!(
            !self.is_closed(bin),
            "an RTT sample was committed to closed bin {bin}"
        );
        bin < self.n_bins
    }

    /// Add `ns` to Figure 4's bin `bin`.
    fn push_letter(&mut self, bin: usize, ns: f64) {
        if self.takes(bin) {
            self.letter.push(bin, ns);
        }
    }

    /// Add `ns` to bin `bin` of watched site `site` and of its server
    /// `server`.
    fn push_watch(&mut self, site: u16, server: u16, bin: usize, ns: f64) {
        if !self.takes(bin) {
            return;
        }
        let Some(watch) = self.watches.iter_mut().find(|w| w.site == site) else {
            return;
        };
        watch.all.push(bin, ns);
        match watch.servers.iter_mut().find(|(s, _)| *s == server) {
            Some((_, open)) => open.push(bin, ns),
            None => {
                let mut open = OpenBins::default();
                open.push(bin, ns);
                watch.servers.push((server, open));
            }
        }
    }

    /// Reduce bin `bin` of every series to its median in `data`. A
    /// series that took a sample has its medians in `data`: its watch
    /// was registered, and its server's entry made before the sample.
    fn close(&mut self, bin: usize, data: &mut LetterData) {
        self.letter.close(bin, &mut data.rtt);
        for open in &mut self.watches {
            let Some(watch) = data.watches.get_mut(&open.site) else {
                continue;
            };
            open.all.close(bin, &mut watch.site_rtt);
            for (server, open) in &mut open.servers {
                if let Some(medians) = watch.rtts.get_mut(server) {
                    open.close(bin, medians);
                }
            }
        }
    }

    /// Close every bin still open.
    fn close_all(&mut self, data: &mut LetterData) {
        let open: Vec<usize> = self
            .held
            .drain(..)
            .chain(self.settled..self.n_bins)
            .collect();
        for bin in open {
            self.close(bin, data);
        }
        self.settled = self.n_bins;
    }

    /// Every series' open bins, Figure 4's first.
    fn series(&self) -> impl Iterator<Item = &OpenBins> {
        std::iter::once(&self.letter).chain(
            self.watches
                .iter()
                .flat_map(|w| std::iter::once(&w.all).chain(w.servers.iter().map(|(_, o)| o))),
        )
    }
}

/// The open bins of one watched site: the site's, for
/// [`ServerWatch::site_rtt`], and each server's, for its
/// [`ServerWatch::rtts`] entry.
#[derive(Debug)]
struct WatchBins {
    site: u16,
    all: OpenBins,
    servers: Vec<(u16, OpenBins)>,
}

/// The VPs whose probes went missing ([`LetterShard::note_missed`]) since
/// they last recorded: each may still commit the bin it last recorded
/// in, however late.
#[derive(Debug, Default)]
struct Lagging {
    vps: Vec<u32>,
    /// Per VP id: one more than the bin of its last missed probe while
    /// it is in `vps`, else 0. Empty until the first miss.
    missed_in: Vec<u32>,
}

impl Lagging {
    /// `vp` (below `n_vps`) missed a probe in bin `bin`.
    fn note(&mut self, vp: usize, bin: u32, n_vps: usize) {
        if self.missed_in.is_empty() {
            self.missed_in = vec![0; n_vps];
        }
        let last = &mut self.missed_in[vp];
        if *last == 0 {
            self.vps.push(vp as u32);
        }
        *last = bin + 1;
    }

    /// Drop the VPs that have recorded in a later bin than their last
    /// missed probe; return the bins below `settled` that a remaining VP
    /// may still commit a site answer to, ascending.
    fn pending_bins(&mut self, state: &[VpLetterState], settled: usize) -> Vec<usize> {
        let missed_in = &mut self.missed_in;
        let mut bins = Vec::new();
        self.vps.retain(|&vp| {
            let st = &state[vp as usize];
            let last = &mut missed_in[vp as usize];
            if st.cur_bin >= *last {
                *last = 0;
                return false;
            }
            if matches!(st.best, BinBest::Site { .. }) && (st.cur_bin as usize) < settled {
                bins.push(st.cur_bin as usize);
            }
            true
        });
        bins.sort_unstable();
        bins.dedup();
        bins
    }
}

/// Whether a shard reads the RTT of a site answer, from
/// [`LetterShard::rtt_keep`]. The subsample and the watched sites are
/// fixed at registration, so this never goes stale.
#[derive(Debug, Clone)]
pub struct RttKeep {
    subsample: RttSubsample,
    /// Watched site indices, ascending.
    watched: Vec<u16>,
}

impl RttKeep {
    /// Whether the shard reads the RTT of a site answer from `vp` at
    /// site index `site`: true when `vp` feeds Figure 4's RTT bins or
    /// `site` is watched (Figures 7, 12, 13). A site answer for which
    /// this is false may carry [`UNMEASURED_RTT`].
    #[inline]
    pub fn keeps(&self, vp: VpId, site: u16) -> bool {
        self.subsample.keeps(vp) || self.watched.binary_search(&site).is_ok()
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

    /// Record that `vp`'s scheduled probe at `at` produced no
    /// measurement at all (the VP was disconnected or its result was
    /// discarded). Counts toward [`LetterData::coverage`], and keeps the
    /// bin `vp` last recorded in open until it records again (see
    /// [`Self::close_bins`]). Beyond-horizon slots are ignored
    /// symmetrically with [`LetterShard::record`]; a VP beyond the fleet
    /// is a [`PipelineError::VpOutOfRange`].
    pub fn note_missed(&mut self, vp: VpId, at: SimTime) -> Result<(), PipelineError> {
        let n_vps = self.state.len();
        if vp.0 as usize >= n_vps {
            return Err(PipelineError::VpOutOfRange { vp, n_vps });
        }
        if at < self.horizon {
            self.data.missed_probes += 1;
            self.outcomes.missed += 1;
            let bin = at.bin_index(BIN_WIDTH) as u32;
            self.lagging.note(vp.0 as usize, bin, n_vps);
        }
        Ok(())
    }

    /// Close the RTT bins no VP can still commit to, reducing each to
    /// the median of its samples, on the probing schedule: every VP of
    /// this letter probes once per `every`, and has recorded each of its
    /// probes up to `now` unless one was noted missed
    /// ([`Self::note_missed`]) since it last recorded. Such a VP last
    /// recorded after `now - every`, so every bin that ended by then
    /// holds its commit. A VP noted missed holds the bin it last recorded
    /// in open until it records in a later bin or the pipeline
    /// finalizes. Nothing records at or past the horizon, so nothing
    /// closes there either.
    pub fn close_bins(&mut self, now: SimTime, every: SimDuration) {
        if now >= self.horizon {
            return;
        }
        let quiet = now.saturating_since(SimTime::ZERO + every);
        let bins = &mut self.rtt_bins;
        let settled = ((quiet.as_nanos() / BIN_WIDTH.as_nanos()) as usize).min(bins.n_bins);
        if settled <= bins.settled {
            return;
        }
        let pending = self.lagging.pending_bins(&self.state, settled);
        let candidates = std::mem::take(&mut bins.held);
        for bin in candidates.into_iter().chain(bins.settled..settled) {
            if pending.binary_search(&bin).is_ok() {
                bins.held.push(bin);
            } else {
                bins.close(bin, &mut self.data);
            }
        }
        bins.settled = settled;
    }

    /// The open bins of each RTT median series, Figure 4's first: how
    /// many bins each held open at once, and how many sample buffers it
    /// allocated.
    pub fn rtt_series(&self) -> impl Iterator<Item = &OpenBins> {
        self.rtt_bins.series()
    }

    /// Where a probe at `at` records: its bin and its raster slot,
    /// computed once per tick since every probe of a tick shares `at`.
    /// `None` at or past the horizon, where observations are ignored.
    pub fn slot(&self, at: SimTime) -> Option<RecordSlot> {
        if at >= self.horizon {
            return None;
        }
        let probe_seq = (at.as_nanos() / PROBE_INTERVAL.as_nanos()) as usize;
        Some(RecordSlot {
            bin: at.bin_index(BIN_WIDTH) as u32,
            raster_seq: (probe_seq < n_probes(self.horizon)).then_some(probe_seq),
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

    /// Which site answers this shard reads the RTT of, as a value that
    /// stays valid while the shard records elsewhere.
    pub fn rtt_keep(&self) -> RttKeep {
        RttKeep {
            subsample: self.rtt_subsample,
            watched: self.data.watches.keys().copied().collect(),
        }
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
            commit(data, &mut self.rtt_bins, vp, finished, self.rtt_subsample);
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

    /// Flush every VP's outstanding bin and close every RTT bin.
    fn finalize(&mut self) {
        for (vpi, st) in self.state.iter_mut().enumerate() {
            let vp = VpId(vpi as u32);
            commit(
                &mut self.data,
                &mut self.rtt_bins,
                vp,
                *st,
                self.rtt_subsample,
            );
            st.best = BinBest::Empty;
        }
        self.rtt_bins.close_all(&mut self.data);
        self.lagging = Lagging::default();
    }
}

/// Fold one VP's finished bin into the letter's aggregates, its RTTs into
/// the open bins. The caller updates the VP's `last_site` (it owns the
/// mutable state).
fn commit(
    data: &mut LetterData,
    rtt_bins: &mut RttBins,
    vp: VpId,
    st: VpLetterState,
    subsample: RttSubsample,
) {
    let bin = st.cur_bin as usize;
    match st.best {
        BinBest::Empty | BinBest::Timeout => {}
        BinBest::Error => data.errors.incr_bin(bin),
        BinBest::Site { site, server, rtt } => {
            data.success.incr_bin(bin);
            data.site_counts[site as usize].incr_bin(bin);
            // Only a probe `RttKeep::keeps` rejects may carry an
            // unmeasured RTT, and neither branch below reads its RTT.
            if subsample.keeps(vp) {
                debug_assert!(
                    rtt != UNMEASURED_RTT,
                    "VP {} reached RTT bin {bin} unmeasured",
                    vp.0
                );
                rtt_bins.push_letter(bin, rtt.as_nanos() as f64);
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
                // A server's RTT medians are made with its counts, so both
                // maps hold every server seen, even one whose only
                // answers fell past the last whole bin.
                let n_bins = data.success.len();
                let rtts = &mut watch.rtts;
                watch
                    .counts
                    .entry(server)
                    .or_insert_with(|| {
                        rtts.insert(server, unmeasured(n_bins));
                        BinnedSeries::zeros(BIN_WIDTH, n_bins)
                    })
                    .incr_bin(bin);
                rtt_bins.push_watch(site, server, bin, rtt.as_nanos() as f64);
            }
        }
    }
}

/// A median series with no bin measured yet.
fn unmeasured(n_bins: usize) -> BinnedSeries {
    BinnedSeries::from_values(BIN_WIDTH, vec![f64::NAN; n_bins])
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
                                site_rtt: unmeasured(n_bins),
                            },
                        )
                    })
            })
            .collect();
        let raster = rastered.then(|| Raster::new(n_probes(self.cfg.horizon), self.n_vps));
        let data = LetterData {
            letter,
            site_counts: site_codes
                .iter()
                .map(|_| BinnedSeries::zeros(BIN_WIDTH, n_bins))
                .collect(),
            site_codes,
            success: BinnedSeries::zeros(BIN_WIDTH, n_bins),
            errors: BinnedSeries::zeros(BIN_WIDTH, n_bins),
            rtt: unmeasured(n_bins),
            flips: BinnedSeries::zeros(BIN_WIDTH, n_bins),
            flip_events: Vec::new(),
            watches,
            raster,
            observed_probes: 0,
            missed_probes: 0,
        };
        let rtt_bins = RttBins::new(n_bins, data.watches.keys().copied());
        self.shards.push(LetterShard {
            data,
            state: vec![VpLetterState::default(); self.n_vps],
            outcomes: ProbeOutcomeStats::default(),
            horizon: self.cfg.horizon,
            rtt_subsample: RttSubsample {
                every: self.cfg.rtt_subsample,
            },
            rtt_bins,
            lagging: Lagging::default(),
        });
        Ok(())
    }

    /// The letter shards, in registration order.
    pub fn shards(&self) -> &[LetterShard] {
        &self.shards
    }

    /// The letter shards, in registration order.
    pub fn shards_mut(&mut self) -> &mut [LetterShard] {
        &mut self.shards
    }

    /// Move the letter shards out, in registration order, so that they
    /// can record on other threads. Until [`Self::put_shards`] returns
    /// them, the pipeline has no letters.
    pub fn take_shards(&mut self) -> Vec<LetterShard> {
        std::mem::take(&mut self.shards)
    }

    /// Return the shards [`Self::take_shards`] moved out, in the same
    /// order.
    ///
    /// # Panics
    /// If the pipeline holds shards already.
    pub fn put_shards(&mut self, shards: Vec<LetterShard>) {
        assert!(
            self.shards.is_empty(),
            "put_shards over {} shards the pipeline still holds",
            self.shards.len()
        );
        self.shards = shards;
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
            horizon: SimTime::from_hours(1),
            rtt_subsample: 1,
            watched_sites: vec![(Letter::K, "FRA".into())],
            raster_letters: vec![Letter::K],
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
        // The site's median of 20 and 25 ms; each server's own.
        assert_eq!(watch.site_rtt.values()[0], 22.5e6);
        assert_eq!(watch.rtts[&1].values()[0], 20e6);
        assert_eq!(watch.rtts[&2].values()[0], 25e6);
        assert!(watch.site_rtt.values()[1].is_nan());
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
    fn taken_shards_record_elsewhere_and_come_back_in_order() {
        let mut p = MeasurementPipeline::new(cfg(), 4);
        p.register_letter(Letter::K, vec!["AMS".into()]).unwrap();
        p.register_letter(Letter::E, vec!["AMS".into()]).unwrap();
        let mut shards = p.take_shards();
        assert!(p.try_letter(Letter::K).is_none(), "the shards are out");
        let obs = FastObs::Site {
            site: 0,
            server: 1,
            rtt: SimDuration::from_millis(20),
        };
        shards[1].record(VpId(2), t(1), obs).unwrap();
        p.put_shards(shards);
        p.finalize();
        let letters: Vec<Letter> = p.shards().iter().map(LetterShard::letter).collect();
        assert_eq!(letters, [Letter::K, Letter::E]);
        assert_eq!(p.letter(Letter::E).observed_probes, 1);
        assert_eq!(p.letter(Letter::K).observed_probes, 0);
    }

    #[test]
    #[should_panic(expected = "still holds")]
    fn put_shards_over_held_shards_panics() {
        let mut p = MeasurementPipeline::new(cfg(), 4);
        p.register_letter(Letter::K, vec!["AMS".into()]).unwrap();
        p.put_shards(Vec::new());
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
        let keep = shard.rtt_keep();
        assert!(keep.keeps(VpId(0), ams) && keep.keeps(VpId(2), ams));
        assert!(!keep.keeps(VpId(1), ams) && !keep.keeps(VpId(3), ams));
        assert!(keep.keeps(VpId(1), fra), "FRA is watched");
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
        assert!(d.rtt.values()[0].is_nan());
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

    /// Per bin, the RTT samples a reference keeps alongside a shard.
    type RefBins = Vec<Vec<f64>>;

    /// Assert every bin of `got` holds the bits of the median of `want`'s
    /// samples (NaN for none).
    fn assert_medians(got: &BinnedSeries, want: &RefBins, what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (bin, (g, w)) in got.values().iter().zip(want).enumerate() {
            let w = rootcast_netsim::stats::median(w);
            assert_eq!(g.to_bits(), w.to_bits(), "{what} bin {bin}: {g} vs {w}");
        }
    }

    #[test]
    fn streamed_medians_match_the_median_of_every_sample() {
        // 92 min: nine whole bins, and a partial tenth whose samples are
        // dropped; bin 8 closes at finalize, as half its VPs' next
        // probes fall past the horizon. Every VP probes once per 4 min
        // on its own phase. VPs 0-9 go missing from minute 25 to 47, so
        // the bin they last recorded in (bin 2) commits from minute 48
        // on, long after bins 3 and 4 close.
        const N_VPS: u32 = 40;
        let horizon = SimTime::from_mins(92);
        let every = PROBE_INTERVAL;
        let mut cfg = cfg();
        cfg.horizon = horizon;
        cfg.rtt_subsample = 3;
        let mut p = MeasurementPipeline::new(cfg, N_VPS as usize);
        p.register_letter(Letter::K, vec!["AMS".into(), "FRA".into()])
            .unwrap();
        let n_bins = 9;
        let (ams, fra) = (0u16, 1u16);
        let mut letter_ref: RefBins = vec![Vec::new(); n_bins];
        let mut site_ref: RefBins = vec![Vec::new(); n_bins];
        let mut server_ref: BTreeMap<u16, RefBins> = BTreeMap::new();
        // A bin's first site answer: (site, server, RTT in ns).
        type Best = Option<(u16, u16, f64)>;
        // Per VP: the bin it records in and its best answer there.
        let mut pending: Vec<Option<(usize, Best)>> = vec![None; N_VPS as usize];
        let mut commit_ref = |vp: u32, bin: usize, best: Best| {
            let Some((site, server, ns)) = best else {
                return;
            };
            if bin >= n_bins {
                return;
            }
            if vp.is_multiple_of(3) {
                letter_ref[bin].push(ns);
            }
            if site == fra {
                site_ref[bin].push(ns);
                server_ref
                    .entry(server)
                    .or_insert_with(|| vec![Vec::new(); n_bins])[bin]
                    .push(ns);
            }
        };
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut draw = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let lagging = |vp: u32, m: u64| vp < 10 && (25..48).contains(&m);
        let mut seen_held = false;
        for m in 1..92u64 {
            let at = t(m);
            let shard = &mut p.shards_mut()[0];
            for vp in (0..N_VPS).filter(|vp| u64::from(vp % 4) == m % 4) {
                if lagging(vp, m) {
                    shard.note_missed(VpId(vp), at).unwrap();
                    continue;
                }
                let r = draw();
                let obs = match r % 8 {
                    0 => FastObs::Timeout,
                    1 => FastObs::Error,
                    _ => FastObs::Site {
                        site: if r % 8 < 5 { fra } else { ams },
                        server: 1 + (r >> 8) as u16 % 3,
                        // Some RTTs repeat, to exercise ties.
                        rtt: SimDuration::from_micros(10_000 + (r >> 16) % 5_000),
                    },
                };
                shard.record(VpId(vp), at, obs).unwrap();
                let bin = at.bin_index(BIN_WIDTH) as usize;
                let slot = &mut pending[vp as usize];
                if let Some((prev, best)) = *slot {
                    if prev != bin {
                        commit_ref(vp, prev, best);
                        *slot = None;
                    }
                }
                let (_, best) = slot.get_or_insert((bin, None));
                if let (None, FastObs::Site { site, server, rtt }) = (*best, obs) {
                    *best = Some((site, server, rtt.as_nanos() as f64));
                }
            }
            // As a lane does after each minute, once it has run a whole
            // interval of minutes.
            if m >= every.as_secs() / 60 {
                shard.close_bins(at, every);
            }
            let rtt = p.letter(Letter::K).rtt.values();
            if m == 50 {
                // Bins 3 and 4 closed; bin 2 waits for the lagging VPs.
                assert!(rtt[2].is_nan() && !rtt[3].is_nan(), "minute {m}: {rtt:?}");
                seen_held = true;
            }
            if m == 54 {
                assert!(!rtt[2].is_nan(), "bin 2 closed once the VPs came back");
            }
        }
        assert!(seen_held);
        let open: usize = p.shards()[0].rtt_series().map(OpenBins::open_bins).sum();
        assert!(open > 0, "the last bins close only at finalize");
        p.finalize();
        for (vp, slot) in pending.into_iter().enumerate() {
            if let Some((bin, best)) = slot {
                commit_ref(vp as u32, bin, best);
            }
        }
        let d = p.letter(Letter::K);
        assert_medians(&d.rtt, &letter_ref, "Figure 4");
        let watch = &d.watches[&fra];
        assert_medians(&watch.site_rtt, &site_ref, "FRA");
        assert_eq!(
            watch.rtts.keys().collect::<Vec<_>>(),
            server_ref.keys().collect::<Vec<_>>()
        );
        for (server, want) in &server_ref {
            assert_medians(&watch.rtts[server], want, &format!("FRA server {server}"));
        }
        // Not vacuous: most bins hold samples in every series.
        assert!(letter_ref.iter().chain(&site_ref).all(|b| !b.is_empty()));
        let open: usize = p.shards()[0].rtt_series().map(OpenBins::open_bins).sum();
        assert_eq!(open, 0, "finalize closes every bin");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "an RTT sample was committed to closed bin 0")]
    fn a_commit_to_a_closed_bin_is_caught() {
        let mut p = pipeline();
        let shard = &mut p.shards_mut()[0];
        let obs = FastObs::Site {
            site: 0,
            server: 1,
            rtt: SimDuration::from_millis(20),
        };
        shard.record(VpId(0), t(1), obs).unwrap();
        // Claims VP 0 recorded once every 4 min up to minute 20, which it
        // did not: its bin-0 answer commits only at its next record.
        shard.close_bins(t(20), PROBE_INTERVAL);
        shard.record(VpId(0), t(21), obs).unwrap();
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
        shard.note_missed(VpId(1), t(5)).unwrap();
        shard.note_missed(VpId(2), t(9)).unwrap();
        // Beyond-horizon slots ignored symmetrically with record().
        shard.note_missed(VpId(1), SimTime::from_hours(2)).unwrap();
        assert_eq!(
            shard.note_missed(VpId(9), t(5)),
            Err(PipelineError::VpOutOfRange {
                vp: VpId(9),
                n_vps: 4
            })
        );
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
