//! Data cleaning, reproducing §2.4.1 of the paper.
//!
//! Three filters, applied in order:
//!
//! 1. **Firmware** — VPs with firmware < 4570 are discarded wholesale
//!    (methodological consistency, not data quality).
//! 2. **Hijack detection** — a VP is flagged when its replies combine a
//!    CHAOS identity that does not match the letter's known pattern with
//!    an implausibly short RTT (< 7 ms), following Fan et al. The flag is
//!    per-VP: all of the VP's measurements are discarded.
//! 3. **Parse** — surviving replies are parsed into
//!    `(site, server, rtt)`; replies whose identity fails to parse
//!    without the short-RTT signature are kept as errors (the odd
//!    mangled reply should not silence a VP).

use crate::probe::{
    execute_probe_fused, IndexedView, ProbeFlags, RawMeasurement, RawOutcome, HIJACKED_REPLY_MICROS,
};
use crate::vp::{VantagePoint, VpFleet, VpId, MIN_FIRMWARE};
use rand::Rng;
use rootcast_dns::ServerIdentity;
use rootcast_netsim::SimDuration;
use std::collections::BTreeSet;

/// RTT below which an unparseable reply marks its VP as hijacked.
pub const HIJACK_RTT: SimDuration = SimDuration::from_millis(7);

/// A cleaned observation, ready for binning.
#[derive(Debug, Clone, PartialEq)]
pub enum CleanObs {
    /// Identified reply from a (site, server), with RTT.
    Site(ServerIdentity, SimDuration),
    /// A response arrived but carried an error (or unparseable identity
    /// at plausible RTT).
    Error,
    Timeout,
}

/// The indexed, `Copy` form of [`CleanObs`] used by the fused probe
/// path: the site is carried as the pipeline's per-letter site index
/// instead of a parsed [`ServerIdentity`], skipping the wire-format
/// string round trip entirely. Produced by [`execute_probe_fused`] and
/// consumed by [`LetterShard::record`](crate::pipeline::LetterShard::record).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FastObs {
    /// Identified reply: pipeline site index, 1-based server ordinal,
    /// measured RTT.
    Site {
        site: u16,
        server: u16,
        rtt: SimDuration,
    },
    /// A response arrived but carried an error.
    Error,
    Timeout,
}

/// Why a VP was excluded from the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExclusionReason {
    OldFirmware,
    Hijacked,
}

/// The cleaning verdict for a whole fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CleaningReport {
    pub excluded: Vec<(VpId, ExclusionReason)>,
    /// VPs kept, ascending.
    pub kept: Vec<VpId>,
}

impl CleaningReport {
    pub fn excluded_set(&self) -> BTreeSet<VpId> {
        self.excluded.iter().map(|&(id, _)| id).collect()
    }

    pub fn kept_count(&self) -> usize {
        self.kept.len()
    }
}

/// Identify VPs to exclude using a calibration sample of raw
/// measurements (one probe per VP per letter is plenty — hijacks are a
/// static property of the VP's network path). The string-path twin of
/// [`calibrate_fleet`], and its oracle: both hand per-VP hijack
/// verdicts to one report builder.
pub fn clean_fleet(fleet: &VpFleet, calibration: &[RawMeasurement]) -> CleaningReport {
    let mut hijacked = vec![false; fleet.len()];
    for m in calibration {
        if let RawOutcome::Reply { txt, rtt } = &m.outcome {
            let parses = ServerIdentity::parse_txt(m.letter, txt).is_some();
            if !parses && *rtt < HIJACK_RTT {
                if let Some(h) = hijacked.get_mut(m.vp as usize) {
                    *h = true;
                }
            }
        }
    }
    cleaning_report(fleet, &hijacked)
}

/// The hijacked VPs' string-path reply is unparseable at an RTT drawn
/// from [`HIJACKED_REPLY_MICROS`], always under [`HIJACK_RTT`]: every
/// such reply is the hijack signature [`clean_fleet`] looks for.
const _: () = assert!(HIJACKED_REPLY_MICROS.end * 1000 <= HIJACK_RTT.as_nanos());

/// The calibration pass on the fused path: one probe per (VP, letter),
/// VP-major, through [`execute_probe_fused`], where `view(vp, letter)`
/// is the letter's service as `vp` sees it. It draws `rng` exactly as
/// [`execute_probe`](crate::probe::execute_probe) would, and its report
/// equals [`clean_fleet`] over those probes on the string path:
/// [`FastObs::Error`] comes only from a hijacked VP, and that VP's
/// string-path reply always carries the hijack signature (pinned
/// above), while every other reply parses or times out.
pub fn calibrate_fleet<R: Rng>(
    fleet: &VpFleet,
    n_letters: usize,
    mut view: impl FnMut(&VantagePoint, usize) -> Option<IndexedView>,
    rng: &mut R,
) -> CleaningReport {
    let hijacked: Vec<bool> = fleet
        .iter()
        .map(|vp| {
            let flags = ProbeFlags::new(vp, false);
            let mut signature = false;
            for letter in 0..n_letters {
                // Every probe draws, whatever the verdict so far.
                signature |= execute_probe_fused(flags, view(vp, letter), rng) == FastObs::Error;
            }
            signature
        })
        .collect();
    cleaning_report(fleet, &hijacked)
}

/// Turn per-VP hijack verdicts (`hijacked[id]`) into the fleet's
/// report: old firmware first, then hijacks, the rest kept, each list
/// in fleet order.
fn cleaning_report(fleet: &VpFleet, hijacked: &[bool]) -> CleaningReport {
    assert_eq!(hijacked.len(), fleet.len(), "one verdict per VP");
    let mut excluded: Vec<(VpId, ExclusionReason)> = Vec::new();
    let mut kept = Vec::new();
    for (vp, &hijacked) in fleet.iter().zip(hijacked) {
        if vp.firmware < MIN_FIRMWARE {
            excluded.push((vp.id, ExclusionReason::OldFirmware));
        } else if hijacked {
            excluded.push((vp.id, ExclusionReason::Hijacked));
        } else {
            kept.push(vp.id);
        }
    }
    CleaningReport { excluded, kept }
}

/// Convert a raw outcome into a cleaned observation (for a VP that
/// survived [`clean_fleet`]).
pub fn clean_outcome(m: &RawMeasurement) -> CleanObs {
    match &m.outcome {
        RawOutcome::Reply { txt, rtt } => match ServerIdentity::parse_txt(m.letter, txt) {
            Some(id) => CleanObs::Site(id, *rtt),
            None => CleanObs::Error,
        },
        RawOutcome::Error => CleanObs::Error,
        RawOutcome::Timeout => CleanObs::Timeout,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vp::{FleetParams, VpFleet};
    use rootcast_dns::Letter;
    use rootcast_netsim::{SimRng, SimTime};
    use rootcast_topology::{gen, TopologyParams};

    fn fleet(seed: u64) -> VpFleet {
        let rng = SimRng::new(seed);
        let g = gen::generate(&TopologyParams::tiny(), &rng);
        VpFleet::generate(&g, &FleetParams::tiny(3000), &rng)
    }

    fn reply(vp: u32, letter: Letter, txt: &str, rtt_ms: f64) -> RawMeasurement {
        RawMeasurement {
            vp,
            letter,
            at: SimTime::ZERO,
            outcome: RawOutcome::Reply {
                txt: txt.to_string(),
                rtt: SimDuration::from_secs_f64(rtt_ms / 1000.0),
            },
        }
    }

    #[test]
    fn old_firmware_vps_excluded() {
        let f = fleet(1);
        let report = clean_fleet(&f, &[]);
        let old = f.iter().filter(|v| v.firmware < MIN_FIRMWARE).count();
        let by_fw = report
            .excluded
            .iter()
            .filter(|(_, r)| *r == ExclusionReason::OldFirmware)
            .count();
        assert_eq!(old, by_fw);
        assert_eq!(report.kept_count() + report.excluded.len(), f.len());
    }

    #[test]
    fn hijack_needs_both_signals() {
        let f = fleet(2);
        // Pick a kept (good-firmware, non-hijack-generated) VP id.
        let good = f.iter().find(|v| v.firmware >= MIN_FIRMWARE).unwrap().id;
        // Unparseable + fast -> hijacked.
        let cal = vec![reply(good.0, Letter::K, "cache0.local", 2.0)];
        let report = clean_fleet(&f, &cal);
        assert!(report
            .excluded
            .iter()
            .any(|&(id, r)| id == good && r == ExclusionReason::Hijacked));
        // Unparseable but slow -> kept (could be a mangled reply).
        let cal = vec![reply(good.0, Letter::K, "cache0.local", 50.0)];
        let report = clean_fleet(&f, &cal);
        assert!(!report.excluded.iter().any(|&(id, _)| id == good));
        // Parseable and fast -> kept (legitimately close to a site).
        let id_txt = ServerIdentity::new(Letter::K, "AMS", 1).format_txt();
        let cal = vec![reply(good.0, Letter::K, &id_txt, 2.0)];
        let report = clean_fleet(&f, &cal);
        assert!(!report.excluded.iter().any(|&(id, _)| id == good));
    }

    #[test]
    fn cleaning_keeps_nearly_all_vps() {
        // The paper: cleaning preserves "more than 9000 of the 9363".
        let f = fleet(3);
        let cal: Vec<RawMeasurement> = f
            .iter()
            .filter(|v| v.hijacked)
            .map(|v| reply(v.id.0, Letter::K, "cache.local", 2.0))
            .collect();
        let report = clean_fleet(&f, &cal);
        let kept_frac = report.kept_count() as f64 / f.len() as f64;
        assert!(kept_frac > 0.94, "kept {kept_frac}");
    }

    #[test]
    fn clean_outcome_parses_identities() {
        let id = ServerIdentity::new(Letter::E, "FRA", 2);
        let m = reply(1, Letter::E, &id.format_txt(), 20.0);
        match clean_outcome(&m) {
            CleanObs::Site(parsed, rtt) => {
                assert_eq!(parsed, id);
                assert_eq!(rtt, SimDuration::from_millis(20));
            }
            other => panic!("{other:?}"),
        }
        let bogus = reply(1, Letter::E, "nonsense", 20.0);
        assert_eq!(clean_outcome(&bogus), CleanObs::Error);
        let timeout = RawMeasurement {
            vp: 1,
            letter: Letter::E,
            at: SimTime::ZERO,
            outcome: RawOutcome::Timeout,
        };
        assert_eq!(clean_outcome(&timeout), CleanObs::Timeout);
    }
}
