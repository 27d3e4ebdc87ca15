//! Probe execution: one CHAOS query from one VP toward one letter.
//!
//! The measurement layer is decoupled from the anycast layer through the
//! view a probe is handed: the caller samples the current network state
//! (catchment, queue delay, drop probability) from the VP's vantage as a
//! [`TargetView`] (or an [`IndexedView`] on the fused path), and the
//! probe turns it into a [`RawMeasurement`] — including the *textual*
//! CHAOS identity exactly as the wire would carry it, so the cleaning
//! stage has to parse it back, the way the paper's pipeline parses real
//! TXT records.

use crate::vp::VantagePoint;
use rand::Rng;
use rootcast_dns::{Letter, ServerIdentity};
use rootcast_netsim::{SimDuration, SimTime};

/// The Atlas query timeout: replies slower than this count as lost.
pub const ATLAS_TIMEOUT: SimDuration = SimDuration::from_secs(5);

/// What a probe toward a service would experience from a given AS.
#[derive(Debug, Clone, PartialEq)]
pub struct TargetView {
    /// Airport code of the catchment site.
    pub site_code: String,
    /// 1-based answering server ordinal.
    pub server: u16,
    /// Round-trip time if answered.
    pub rtt: SimDuration,
    /// Probability the query or reply is dropped. Private: sanitized at
    /// construction so `gen_bool` can never see NaN or out-of-range
    /// values at probe time.
    drop_prob: f64,
}

impl TargetView {
    /// Build a view, sanitizing `drop_prob` once at construction:
    /// values are clamped to `[0, 1]`, and NaN — a broken loss
    /// estimate — fails *closed* to certain loss rather than feeding
    /// `gen_bool` a panic.
    pub fn new(
        site_code: impl Into<String>,
        server: u16,
        rtt: SimDuration,
        drop_prob: f64,
    ) -> TargetView {
        let drop_prob = if drop_prob.is_nan() {
            1.0
        } else {
            drop_prob.clamp(0.0, 1.0)
        };
        TargetView {
            site_code: site_code.into(),
            server,
            rtt,
            drop_prob,
        }
    }

    /// The sanitized drop probability, guaranteed finite in `[0, 1]`.
    pub fn drop_prob(&self) -> f64 {
        self.drop_prob
    }
}

/// [`TargetView`] pre-resolved to a pipeline site index: the `Copy`,
/// allocation-free view the fused probe path uses. Carries the same
/// physics (RTT, drop probability) minus the site's airport-code string.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexedView {
    /// The pipeline's per-letter site index of the catchment site.
    pub site: u16,
    /// 1-based answering server ordinal.
    pub server: u16,
    /// Round-trip time if answered.
    pub rtt: SimDuration,
    /// Sanitized at construction, like [`TargetView`]'s.
    drop_prob: f64,
}

impl IndexedView {
    /// Build a view, sanitizing `drop_prob` exactly like
    /// [`TargetView::new`]: clamped to `[0, 1]`, NaN fails closed to
    /// certain loss.
    pub fn new(site: u16, server: u16, rtt: SimDuration, drop_prob: f64) -> IndexedView {
        let drop_prob = if drop_prob.is_nan() {
            1.0
        } else {
            drop_prob.clamp(0.0, 1.0)
        };
        IndexedView {
            site,
            server,
            rtt,
            drop_prob,
        }
    }

    /// The sanitized drop probability, guaranteed finite in `[0, 1]`.
    pub fn drop_prob(&self) -> f64 {
        self.drop_prob
    }
}

/// Raw (pre-cleaning) outcome of one probe.
#[derive(Debug, Clone, PartialEq)]
pub enum RawOutcome {
    /// A TXT reply arrived: the identity string and the measured RTT.
    Reply { txt: String, rtt: SimDuration },
    /// A DNS error response (RCODE != 0) arrived.
    Error,
    /// Nothing within [`ATLAS_TIMEOUT`].
    Timeout,
}

/// One raw measurement record.
#[derive(Debug, Clone, PartialEq)]
pub struct RawMeasurement {
    pub vp: u32,
    pub letter: Letter,
    pub at: SimTime,
    pub outcome: RawOutcome,
}

/// Execute one probe toward `letter`. `view` is the service as seen
/// from the VP, or `None` when it is unreachable from there; `rng`
/// supplies the loss draw and measurement noise, everything else is
/// deterministic in the view.
pub fn execute_probe<R: Rng>(
    vp: &VantagePoint,
    letter: Letter,
    view: Option<TargetView>,
    at: SimTime,
    rng: &mut R,
) -> RawMeasurement {
    // Hijacked VPs never reach the real service: a local middlebox
    // answers with its own identity, fast (the <7 ms signature the
    // cleaning stage looks for).
    if vp.hijacked {
        return RawMeasurement {
            vp: vp.id.0,
            letter,
            at,
            outcome: RawOutcome::Reply {
                txt: format!("cache{}.local", vp.id.0 % 7),
                rtt: SimDuration::from_micros(rng.gen_range(600..4000)),
            },
        };
    }
    // Flaky VPs occasionally fail on their own (independent VP failure,
    // §2.4.1 "VPs fail independently").
    if vp.flaky && rng.gen_bool(0.02) {
        return RawMeasurement {
            vp: vp.id.0,
            letter,
            at,
            outcome: RawOutcome::Timeout,
        };
    }
    let Some(view) = view else {
        return RawMeasurement {
            vp: vp.id.0,
            letter,
            at,
            outcome: RawOutcome::Timeout,
        };
    };
    // Loss: the query or its reply dies in a saturated queue. The
    // probability was sanitized at TargetView construction.
    if view.drop_prob > 0.0 && rng.gen_bool(view.drop_prob) {
        return RawMeasurement {
            vp: vp.id.0,
            letter,
            at,
            outcome: RawOutcome::Timeout,
        };
    }
    // Measurement noise: ±5% jitter on the RTT.
    let jitter = 1.0 + (rng.gen_range(-50..=50) as f64) / 1000.0;
    let rtt = SimDuration::from_secs_f64(view.rtt.as_secs_f64() * jitter);
    if rtt >= ATLAS_TIMEOUT {
        return RawMeasurement {
            vp: vp.id.0,
            letter,
            at,
            outcome: RawOutcome::Timeout,
        };
    }
    let identity = ServerIdentity::new(letter, &view.site_code, view.server);
    RawMeasurement {
        vp: vp.id.0,
        letter,
        at,
        outcome: RawOutcome::Reply {
            txt: identity.format_txt(),
            rtt,
        },
    }
}

/// Execute one probe on the fused path: the target view arrives
/// pre-resolved to a pipeline site index and the outcome skips the
/// wire-format string round trip (`format_txt` → `parse_txt`) that
/// [`execute_probe`] + [`clean_outcome`](crate::clean::clean_outcome)
/// perform. Draws the identical RNG sequence as that legacy pair, so
/// from equal RNG states the two paths yield equal observations and
/// leave the RNG in equal states — the property the golden equivalence
/// tests pin.
pub fn execute_probe_fused<R: Rng>(
    vp: &VantagePoint,
    view: Option<IndexedView>,
    rng: &mut R,
) -> crate::clean::FastObs {
    use crate::clean::FastObs;
    if vp.hijacked {
        // The middlebox reply is unparseable at an implausibly fast RTT,
        // which cleans to an error. Hijacked VPs never survive
        // `clean_fleet`, so fused callers probing a cleaned fleet never
        // take this branch — the draw is kept for RNG parity.
        let _ = SimDuration::from_micros(rng.gen_range(600..4000));
        return FastObs::Error;
    }
    if vp.flaky && rng.gen_bool(0.02) {
        return FastObs::Timeout;
    }
    let Some(view) = view else {
        return FastObs::Timeout;
    };
    if view.drop_prob > 0.0 && rng.gen_bool(view.drop_prob) {
        return FastObs::Timeout;
    }
    let jitter = 1.0 + (rng.gen_range(-50..=50) as f64) / 1000.0;
    let rtt = SimDuration::from_secs_f64(view.rtt.as_secs_f64() * jitter);
    if rtt >= ATLAS_TIMEOUT {
        return FastObs::Timeout;
    }
    FastObs::Site {
        site: view.site,
        server: view.server,
        rtt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clean::{clean_outcome, CleanObs, FastObs};
    use crate::vp::VpId;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use rootcast_topology::AsId;

    fn vp(hijacked: bool) -> VantagePoint {
        VantagePoint {
            id: VpId(3),
            asn: AsId(0),
            firmware: 4700,
            hijacked,
            flaky: false,
        }
    }

    fn target(drop_prob: f64, rtt_ms: u64) -> Option<TargetView> {
        Some(TargetView::new(
            "AMS",
            2,
            SimDuration::from_millis(rtt_ms),
            drop_prob,
        ))
    }

    /// Probe K-root through `view` at `t = 0`.
    fn probe(vp: &VantagePoint, view: Option<TargetView>, rng: &mut ChaCha8Rng) -> RawOutcome {
        execute_probe(vp, Letter::K, view, SimTime::ZERO, rng).outcome
    }

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(1)
    }

    #[test]
    fn healthy_probe_returns_parseable_identity() {
        match probe(&vp(false), target(0.0, 30), &mut rng()) {
            RawOutcome::Reply { ref txt, rtt } => {
                let id = ServerIdentity::parse_txt(Letter::K, txt).expect("parses");
                assert_eq!(id.site, "AMS");
                assert_eq!(id.server, 2);
                let ms = rtt.as_millis_f64();
                assert!((28.0..32.0).contains(&ms), "rtt {ms}");
            }
            ref other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn unreachable_target_times_out() {
        assert_eq!(probe(&vp(false), None, &mut rng()), RawOutcome::Timeout);
    }

    #[test]
    fn certain_loss_times_out() {
        assert_eq!(
            probe(&vp(false), target(1.0, 30), &mut rng()),
            RawOutcome::Timeout
        );
    }

    #[test]
    fn loss_probability_respected_statistically() {
        let t = target(0.5, 30);
        let v = vp(false);
        let mut r = rng();
        let n = 4000;
        let timeouts = (0..n)
            .filter(|_| matches!(probe(&v, t.clone(), &mut r), RawOutcome::Timeout))
            .count();
        let frac = timeouts as f64 / n as f64;
        assert!((0.45..0.55).contains(&frac), "timeout fraction {frac}");
    }

    #[test]
    fn nan_drop_prob_fails_closed_without_panicking() {
        // A NaN loss estimate must never reach gen_bool (which panics on
        // NaN); construction sanitizes it to certain loss.
        assert_eq!(
            probe(&vp(false), target(f64::NAN, 30), &mut rng()),
            RawOutcome::Timeout
        );
    }

    #[test]
    fn out_of_range_drop_prob_clamps_at_construction() {
        let v = TargetView::new("AMS", 1, SimDuration::from_millis(30), 7.5);
        assert_eq!(v.drop_prob(), 1.0);
        let v = TargetView::new("AMS", 1, SimDuration::from_millis(30), -0.3);
        assert_eq!(v.drop_prob(), 0.0);
        assert!(matches!(
            probe(&vp(false), target(-0.3, 30), &mut rng()),
            RawOutcome::Reply { .. }
        ));
    }

    #[test]
    fn rtt_beyond_timeout_is_a_timeout() {
        assert_eq!(
            probe(&vp(false), target(0.0, 6000), &mut rng()),
            RawOutcome::Timeout
        );
    }

    #[test]
    fn fused_path_matches_legacy_path_and_rng_stream() {
        // Across VP states and target conditions, the fused probe must
        // clean to the same observation as execute_probe + clean_outcome
        // AND leave the RNG at the same position.
        type Case = (bool, bool, Option<(f64, u64)>); // (hijacked, flaky, view)
        let cases: Vec<Case> = vec![
            (false, false, Some((0.0, 30))),   // healthy reply
            (false, false, Some((0.5, 30))),   // coin-flip loss
            (false, false, Some((1.0, 30))),   // certain loss
            (false, false, Some((0.0, 6000))), // over-timeout RTT
            (false, false, Some((0.0, 4990))), // jitter decides timeout
            (false, false, None),              // unreachable
            (false, true, Some((0.3, 30))),    // flaky VP
            (true, false, Some((0.0, 30))),    // hijacked VP
            (true, true, None),                // hijacked trumps all
        ];
        for (ci, &(hijacked, flaky, ref cond)) in cases.iter().enumerate() {
            let v = VantagePoint {
                id: VpId(3),
                asn: AsId(0),
                firmware: 4700,
                hijacked,
                flaky,
            };
            let tv = cond
                .map(|(drop, ms)| TargetView::new("AMS", 2, SimDuration::from_millis(ms), drop));
            let iv =
                cond.map(|(drop, ms)| IndexedView::new(0, 2, SimDuration::from_millis(ms), drop));
            for seed in 0..200u64 {
                let mut legacy_rng = ChaCha8Rng::seed_from_u64(seed);
                let mut fused_rng = legacy_rng.clone();
                let legacy = clean_outcome(&execute_probe(
                    &v,
                    Letter::K,
                    tv.clone(),
                    SimTime::ZERO,
                    &mut legacy_rng,
                ));
                let fused = execute_probe_fused(&v, iv, &mut fused_rng);
                match (&legacy, fused) {
                    (CleanObs::Site(id, lr), FastObs::Site { site, server, rtt }) => {
                        assert_eq!(site, 0, "case {ci}");
                        assert_eq!(id.server, server, "case {ci}");
                        assert_eq!(*lr, rtt, "case {ci}");
                    }
                    (CleanObs::Error, FastObs::Error) | (CleanObs::Timeout, FastObs::Timeout) => {}
                    other => panic!("case {ci} seed {seed}: outcomes diverge: {other:?}"),
                }
                assert_eq!(
                    legacy_rng.gen::<u64>(),
                    fused_rng.gen::<u64>(),
                    "case {ci} seed {seed}: RNG streams diverged"
                );
            }
        }
    }

    #[test]
    fn hijacked_vp_gets_fast_bogus_reply() {
        match probe(&vp(true), target(0.0, 30), &mut rng()) {
            RawOutcome::Reply { ref txt, rtt } => {
                assert!(ServerIdentity::parse_txt(Letter::K, txt).is_none());
                assert!(rtt < SimDuration::from_millis(7));
            }
            ref other => panic!("unexpected outcome {other:?}"),
        }
    }
}
