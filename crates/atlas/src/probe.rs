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
use rootcast_netsim::stats::sanitize_probability;
use rootcast_netsim::{SimDuration, SimTime};

/// The Atlas query timeout: replies slower than this count as lost.
pub const ATLAS_TIMEOUT: SimDuration = SimDuration::from_secs(5);

/// How often each VP probes every letter but A (§2.4.1: every 4 min).
/// Part of the paper's fixed measurement design, so not a knob.
pub const PROBE_INTERVAL: SimDuration = SimDuration::from_mins(4);

/// How often each VP probed A-root at event time (§2.4.1: every 30 min).
pub const A_PROBE_INTERVAL: SimDuration = SimDuration::from_mins(30);

/// The RTT range, in microseconds, of a hijacking middlebox's reply:
/// always under [`HIJACK_RTT`](crate::clean::HIJACK_RTT), the cleaning
/// stage's threshold.
pub(crate) const HIJACKED_REPLY_MICROS: std::ops::Range<u64> = 600..4000;

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
        TargetView {
            site_code: site_code.into(),
            server,
            rtt,
            drop_prob: sanitize_probability(drop_prob),
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
    #[inline]
    pub fn new(site: u16, server: u16, rtt: SimDuration, drop_prob: f64) -> IndexedView {
        IndexedView {
            site,
            server,
            rtt,
            drop_prob: sanitize_probability(drop_prob),
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
                rtt: SimDuration::from_micros(rng.gen_range(HIJACKED_REPLY_MICROS)),
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

/// Marks a [`FastObs::Site`](crate::clean::FastObs::Site) RTT that was
/// never measured: the fused probe skips the jitter arithmetic for a
/// probe whose RTT the pipeline discards ([`ProbeFlags::keep_rtt`]
/// unset). No measured RTT takes this value, since measured RTTs stay
/// under [`ATLAS_TIMEOUT`].
pub const UNMEASURED_RTT: SimDuration = SimDuration::from_nanos(u64::MAX);

/// The largest path RTT that no jitter can lift to [`ATLAS_TIMEOUT`]:
/// the widest jitter is +5%, and 4.5 s × 1.05 = 4.725 s < 5 s. At or
/// below it, a probe whose RTT is not kept is classified without the
/// jitter arithmetic.
pub const UNJITTERED_SITE_BOUND: SimDuration = SimDuration::from_millis(4500);
const _: () = assert!(UNJITTERED_SITE_BOUND.as_nanos() / 1000 * 1050 < ATLAS_TIMEOUT.as_nanos());

/// What the fused probe reads of its VP, plus whether the pipeline keeps
/// the probe's RTT, packed into one byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeFlags(u8);

impl ProbeFlags {
    const HIJACKED: u8 = 1;
    const FLAKY: u8 = 2;
    const KEEP_RTT: u8 = 4;

    /// `vp`'s hijacked and flaky bits, and `keep_rtt`: whether the
    /// pipeline reads this probe's RTT
    /// ([`RttKeep::keeps`](crate::pipeline::RttKeep::keeps)).
    #[inline]
    pub fn new(vp: &VantagePoint, keep_rtt: bool) -> ProbeFlags {
        let bit = |set: bool, mask: u8| if set { mask } else { 0 };
        ProbeFlags(
            bit(vp.hijacked, Self::HIJACKED)
                | bit(vp.flaky, Self::FLAKY)
                | bit(keep_rtt, Self::KEEP_RTT),
        )
    }

    pub fn hijacked(self) -> bool {
        self.0 & Self::HIJACKED != 0
    }

    pub fn flaky(self) -> bool {
        self.0 & Self::FLAKY != 0
    }

    pub fn keep_rtt(self) -> bool {
        self.0 & Self::KEEP_RTT != 0
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
///
/// Without [`ProbeFlags::keep_rtt`], a reply whose view RTT is at most
/// [`UNJITTERED_SITE_BOUND`] still draws its jitter but carries
/// [`UNMEASURED_RTT`] instead of the jittered RTT: it is a site answer
/// whatever the jitter, so the outcome class and the RNG position are
/// those of the kept probe.
///
/// Always inlined: it is the probe lanes' inner loop, and an outlined
/// call there costs the canonical run several percent
/// (`scripts/kernel_inlined.sh` checks the release build).
#[inline(always)]
pub fn execute_probe_fused<R: Rng>(
    flags: ProbeFlags,
    view: Option<IndexedView>,
    rng: &mut R,
) -> crate::clean::FastObs {
    use crate::clean::FastObs;
    if flags.hijacked() {
        // The middlebox reply is unparseable at an implausibly fast RTT,
        // which cleans to an error, and is the only way this kernel
        // returns one: the calibration pass reads it as the hijack
        // signature. Hijacked VPs never survive cleaning, so the probe
        // lanes never take this branch — the draw is kept for RNG parity.
        let _ = SimDuration::from_micros(rng.gen_range(HIJACKED_REPLY_MICROS));
        return FastObs::Error;
    }
    if flags.flaky() && rng.gen_bool(0.02) {
        return FastObs::Timeout;
    }
    let Some(view) = view else {
        return FastObs::Timeout;
    };
    if view.drop_prob > 0.0 && rng.gen_bool(view.drop_prob) {
        return FastObs::Timeout;
    }
    let jitter_permille: i32 = rng.gen_range(-50..=50);
    if !flags.keep_rtt() && view.rtt <= UNJITTERED_SITE_BOUND {
        return FastObs::Site {
            site: view.site,
            server: view.server,
            rtt: UNMEASURED_RTT,
        };
    }
    let jitter = 1.0 + f64::from(jitter_permille) / 1000.0;
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
                let fused = execute_probe_fused(ProbeFlags::new(&v, true), iv, &mut fused_rng);
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

    /// Replays a fixed word sequence, then an endless tail of `u64::MAX`
    /// (a coin that never lands), counting the words drawn. Every draw
    /// a probe makes (`gen_bool`, `gen_range`) takes one `next_u64`.
    #[derive(Clone)]
    struct Script {
        words: Vec<u64>,
        drawn: usize,
    }

    impl rand::RngCore for Script {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }

        fn next_u64(&mut self) -> u64 {
            let w = self.words.get(self.drawn).copied().unwrap_or(u64::MAX);
            self.drawn += 1;
            w
        }
    }

    /// The word whose `gen_range(-50..=50)` draw is `jitter`: Lemire's
    /// widening multiply by 101 keeps its high word, and the low word
    /// stays above the rejection threshold (2^64 mod 101 < 101).
    fn jitter_word(jitter: i32) -> u64 {
        let k = u128::from((jitter + 50) as u32);
        ((k << 64) / 101 + 101) as u64
    }

    #[test]
    fn unkept_rtt_keeps_outcome_class_and_rng_position() {
        use std::collections::BTreeSet;
        let ms = SimDuration::from_millis;
        let ns = SimDuration::from_nanos;
        let (bound, timeout) = (UNJITTERED_SITE_BOUND.as_nanos(), ATLAS_TIMEOUT.as_nanos());
        let rtts = [
            ms(30),
            ns(bound - 1),
            UNJITTERED_SITE_BOUND,
            ns(bound + 1),
            ms(4800), // the jitter decides between reply and timeout
            ns(timeout - 1),
            ATLAS_TIMEOUT,
            ns(timeout + 1),
        ];
        let mut views: Vec<Option<(f64, SimDuration)>> = vec![None];
        for drop in [0.0, 0.5, 1.0] {
            views.extend(rtts.iter().map(|&rtt| Some((drop, rtt))));
        }
        // A coin word of 0 always lands, `u64::MAX` never does; the
        // jitter word follows zero, one or two coins, so it is the
        // jitter draw on every path that reaches one.
        let prefixes: [&[u64]; 7] = [
            &[],
            &[0],
            &[u64::MAX],
            &[0, 0],
            &[0, u64::MAX],
            &[u64::MAX, 0],
            &[u64::MAX, u64::MAX],
        ];
        let (mut skipped, mut measured) = (BTreeSet::new(), BTreeSet::new());
        for (hijacked, flaky) in [(false, false), (false, true), (true, false), (true, true)] {
            let v = VantagePoint {
                id: VpId(3),
                asn: AsId(0),
                firmware: 4700,
                hijacked,
                flaky,
            };
            for view in &views {
                let tv = view.map(|(drop, rtt)| TargetView::new("AMS", 2, rtt, drop));
                let iv = view.map(|(drop, rtt)| IndexedView::new(0, 2, rtt, drop));
                for jitter in -50..=50 {
                    for prefix in prefixes {
                        let mut words = prefix.to_vec();
                        words.push(jitter_word(jitter));
                        let script = Script { words, drawn: 0 };
                        let (mut kept_rng, mut unkept_rng, mut legacy_rng) =
                            (script.clone(), script.clone(), script);
                        let kept =
                            execute_probe_fused(ProbeFlags::new(&v, true), iv, &mut kept_rng);
                        let unkept =
                            execute_probe_fused(ProbeFlags::new(&v, false), iv, &mut unkept_rng);
                        let legacy = clean_outcome(&execute_probe(
                            &v,
                            Letter::K,
                            tv.clone(),
                            SimTime::ZERO,
                            &mut legacy_rng,
                        ));
                        let case = format!("{v:?} {view:?} jitter {jitter} prefix {prefix:?}");
                        assert_eq!(kept_rng.drawn, unkept_rng.drawn, "{case}: RNG position");
                        assert_eq!(kept_rng.drawn, legacy_rng.drawn, "{case}: RNG position");
                        match (kept, unkept, &legacy) {
                            (
                                FastObs::Site { site, server, rtt },
                                FastObs::Site {
                                    site: s2,
                                    server: v2,
                                    rtt: unkept_rtt,
                                },
                                CleanObs::Site(id, legacy_rtt),
                            ) => {
                                assert_eq!((site, server), (s2, v2), "{case}");
                                assert_eq!((id.server, rtt), (server, *legacy_rtt), "{case}");
                                // The last word drawn was the jitter.
                                let word = kept_rng.words.get(kept_rng.drawn - 1);
                                let word = u128::from(*word.unwrap_or(&u64::MAX));
                                let drawn = ((word * 101) >> 64) as i32 - 50;
                                let base = view.map_or(0.0, |(_, r)| r.as_secs_f64());
                                let jittered = 1.0 + f64::from(drawn) / 1000.0;
                                assert_eq!(rtt, SimDuration::from_secs_f64(base * jittered));
                                if unkept_rtt == UNMEASURED_RTT {
                                    skipped.insert(drawn);
                                } else {
                                    assert_eq!(unkept_rtt, rtt, "{case}");
                                    measured.insert(drawn);
                                }
                            }
                            (FastObs::Timeout, FastObs::Timeout, CleanObs::Timeout)
                            | (FastObs::Error, FastObs::Error, CleanObs::Error) => {}
                            other => panic!("{case}: outcome classes diverge: {other:?}"),
                        }
                    }
                }
            }
        }
        // Both the skip and the measured branch saw every jitter value.
        assert_eq!(skipped, (-50..=50).collect::<BTreeSet<_>>());
        assert_eq!(measured, skipped);
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
