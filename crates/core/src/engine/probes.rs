//! The Atlas probing wheel.
//!
//! Each (VP, letter) pair probes on its own phase of the letter's
//! probing interval (4 min; 30 min for A-root, §2.4.1). The wheel is
//! precomputed per minute slot and letter — the full scenario would
//! otherwise evaluate ~350 M phase checks — and each tick runs one rayon
//! task per letter that probes and records into that letter's pipeline
//! shard in the same pass. Everything a probe reads is resolved once, at
//! the rate it changes: each VP's [`ProbeRoute`] (catchment site,
//! designated server, path RTT) together with the VP's [`ProbeFlags`]
//! (hijacked, flaky, and whether the pipeline keeps the probe's RTT,
//! which depends on the catchment site) once per catchment epoch, and the
//! service's site snapshots ([`SiteProbe`]: queue delay, hot server,
//! survivor, drop probability) and the shard's record slot (bin and
//! raster column) once per (letter, tick). Every (letter, minute) pair
//! draws from its own named RNG stream, each letter records in VP order
//! and shards share nothing, so outputs are bit-identical at any thread
//! count.

use crate::engine::faults::ProbeAction;
use crate::engine::metrics::keys;
use crate::engine::{SimWorld, Subsystem};
use rayon::prelude::*;
use rootcast_anycast::{AnycastService, ProbeRoute, SiteProbe};
use rootcast_atlas::{
    execute_probe_fused, IndexedView, LetterShard, ProbeFlags, VpFleet, VpId, A_PROBE_INTERVAL,
    PROBE_INTERVAL,
};
use rootcast_dns::Letter;
use rootcast_netsim::{SimDuration, SimTime};

/// The probe intervals in whole minutes, one wheel slot per minute.
const INTERVAL_MINUTES: u64 = PROBE_INTERVAL.as_secs() / 60;
const A_INTERVAL_MINUTES: u64 = A_PROBE_INTERVAL.as_secs() / 60;

/// Minutes in one turn of the wheel: a multiple of both probe intervals,
/// so every slot's due list repeats each turn.
const WHEEL_PERIOD_MINUTES: u64 = 60;
const _: () = assert!(
    PROBE_INTERVAL.as_secs() == INTERVAL_MINUTES * 60
        && A_PROBE_INTERVAL.as_secs() == A_INTERVAL_MINUTES * 60
        && WHEEL_PERIOD_MINUTES.is_multiple_of(INTERVAL_MINUTES)
        && WHEEL_PERIOD_MINUTES.is_multiple_of(A_INTERVAL_MINUTES)
);

/// The probing subsystem: per minute slot and letter index, the VPs due
/// to probe, cycling every hour.
///
/// Probes resolve the service's catchment view straight to the
/// pipeline's site *index* (via a per-letter map precomputed at
/// construction) and record without the wire-format string round trip.
/// The public `execute_probe` → `clean_outcome` → `record` path draws the
/// identical RNG sequence and yields a bit-identical pipeline; the
/// wheel's unit tests replay it as the oracle.
pub struct ProbeWheel {
    /// `[slot][letter index]` → due VP ids, ascending.
    wheel: Vec<Vec<Vec<u32>>>,
    /// Per letter index: what its task resolves and reuses across ticks.
    letters: Vec<LetterProbes>,
}

/// One letter's probe state, owned by the wheel so its buffers are
/// reused across ticks.
struct LetterProbes {
    /// The `probes-{letter}` RNG stream key.
    stream_key: String,
    /// Service site index → pipeline site index.
    site_map: Vec<u16>,
    /// The service's site snapshots, refilled every tick.
    snaps: Vec<SiteProbe>,
    /// Catchment epoch `routes` was resolved at (0 = never).
    epoch: u64,
    /// Per VP id: its route toward the letter at `epoch`.
    routes: Vec<RouteEntry>,
}

/// Everything one probe reads of its VP, in 16 bytes: a [`ProbeRoute`]
/// with the pipeline site index folded in, and the VP's [`ProbeFlags`];
/// `site == UNREACHABLE` when the service has no route from the VP.
#[derive(Debug, Clone, Copy)]
struct RouteEntry {
    path_rtt_ns: u64,
    /// Service site index.
    site: u16,
    /// Pipeline site index of `site`.
    pipe_site: u16,
    server: u16,
    flags: ProbeFlags,
}

const UNREACHABLE: u16 = u16::MAX;
const _: () = assert!(std::mem::size_of::<RouteEntry>() <= 16);

impl RouteEntry {
    /// The probe's view through this tick's site snapshots.
    #[inline]
    fn view(self, snaps: &[SiteProbe]) -> Option<IndexedView> {
        if self.site == UNREACHABLE {
            return None;
        }
        let site = usize::from(self.site);
        let route = ProbeRoute {
            site,
            server: self.server,
            path_rtt: SimDuration::from_nanos(self.path_rtt_ns),
        };
        let pv = route.view(&snaps[site]);
        Some(IndexedView::new(
            self.pipe_site,
            pv.server,
            pv.rtt,
            pv.drop_prob,
        ))
    }
}

impl LetterProbes {
    /// Re-resolve every VP's route, and whether `shard` keeps the RTT
    /// of its probes, when the service's catchment epoch has moved since
    /// the last build; a no-op otherwise. The site is fixed for the
    /// epoch, so the keep bit is too.
    fn refresh_routes(&mut self, svc: &AnycastService, fleet: &VpFleet, shard: &LetterShard) {
        if self.epoch == svc.catchment_epoch() {
            return;
        }
        let site_map = &self.site_map;
        self.routes.clear();
        self.routes.extend(fleet.iter().map(
            |vp| match svc.probe_route(vp.asn, vp.client_hash()) {
                Some(r) => {
                    let pipe_site = site_map[r.site];
                    RouteEntry {
                        path_rtt_ns: r.path_rtt.as_nanos(),
                        // `ProbeWheel::new` checked the site count fits.
                        site: r.site as u16,
                        pipe_site,
                        server: r.server,
                        flags: ProbeFlags::new(vp, shard.keeps_rtt(vp.id, pipe_site)),
                    }
                }
                None => RouteEntry {
                    path_rtt_ns: 0,
                    site: UNREACHABLE,
                    pipe_site: 0,
                    server: 0,
                    flags: ProbeFlags::new(vp, false),
                },
            },
        ));
        self.epoch = svc.catchment_epoch();
    }
}

impl ProbeWheel {
    /// Precompute the wheel for the world's cleaned fleet. VPs excluded
    /// by the cleaning stage never probe.
    pub fn new(world: &SimWorld) -> ProbeWheel {
        let excluded = world.cleaning.excluded_set();
        let mut wheel = vec![vec![Vec::new(); world.letters.len()]; WHEEL_PERIOD_MINUTES as usize];
        for vp in world.fleet.iter() {
            if excluded.contains(&vp.id) {
                continue;
            }
            for (i, &letter) in world.letters.iter().enumerate() {
                let interval = if letter == Letter::A {
                    A_INTERVAL_MINUTES
                } else {
                    INTERVAL_MINUTES
                };
                let phase = (u64::from(vp.id.0)
                    .wrapping_mul(0x9E37_79B9)
                    .wrapping_add(letter as u64 * 7))
                    % interval;
                for slot in (phase..WHEEL_PERIOD_MINUTES).step_by(interval as usize) {
                    wheel[slot as usize][i].push(vp.id.0);
                }
            }
        }
        let letters = world
            .letters
            .iter()
            .enumerate()
            .map(|(i, &letter)| {
                // Pipeline site indices in service-site order, resolved
                // once so the fused path never touches an airport-code
                // string.
                let data = world.pipeline.letter(letter);
                let sites = world.services[i].sites();
                assert!(
                    sites.len() < usize::from(UNREACHABLE),
                    "{letter} has {} sites; a route entry indexes fewer",
                    sites.len()
                );
                let site_map = sites
                    .iter()
                    .map(|s| {
                        data.site_idx(&s.spec.code)
                            .expect("pipeline registered every service site")
                    })
                    .collect();
                LetterProbes {
                    stream_key: format!("probes-{letter}"),
                    site_map,
                    snaps: Vec::new(),
                    epoch: 0,
                    // Reserved here, on the engine thread: filled in a
                    // tick's worker thread, it would live in that
                    // thread's malloc arena for the rest of the run.
                    routes: Vec::with_capacity(world.fleet.len()),
                }
            })
            .collect();
        ProbeWheel { wheel, letters }
    }

    /// The VPs due to probe letter index `letter` in minute `minute`.
    pub fn due(&self, minute: u64, letter: usize) -> &[u32] {
        &self.wheel[(minute % WHEEL_PERIOD_MINUTES) as usize][letter]
    }
}

impl Subsystem for ProbeWheel {
    fn name(&self) -> &'static str {
        "probes"
    }

    fn initial_wakeups(&mut self) -> Vec<SimTime> {
        vec![SimTime::ZERO + SimDuration::from_mins(1)]
    }

    /// One parallel pass over the letter shards: each task refreshes its
    /// letter's routes if the catchment epoch moved, snapshots its sites
    /// and resolves the shard's record slot once, then executes its due
    /// probes in VP order and records each into its shard.
    fn tick(&mut self, world: &mut SimWorld, t: SimTime) -> Vec<SimTime> {
        let minute = t.as_secs() / 60;
        let (services, fleet, rngf, faults) = (
            &world.services,
            &world.fleet,
            world.rng_factory,
            &world.faults,
        );
        let ProbeWheel { wheel, letters } = self;
        let due_now = &wheel[(minute % WHEEL_PERIOD_MINUTES) as usize];
        let mut tasks: Vec<(usize, (&mut LetterShard, &mut LetterProbes))> = world
            .pipeline
            .shards_mut()
            .iter_mut()
            .zip(letters)
            .enumerate()
            .collect();
        let probed: Vec<u64> = tasks
            .par_iter_mut()
            .map(|(i, (shard, lp))| {
                let i = *i;
                let letter = shard.letter();
                let mut rng = rngf.indexed_stream(&lp.stream_key, minute);
                let svc = &services[i];
                lp.refresh_routes(svc, fleet, shard);
                svc.site_probes_into(&mut lp.snaps);
                let slot = shard.slot(t);
                let probe_faults = faults.has_probe_faults();
                let due = &due_now[i];
                for &vp_id in due {
                    // A dropped-out VP never probes (no RNG draw); a
                    // firmware-downgraded VP probes (same draws as a
                    // healthy run) but its measurement is unusable.
                    let action = if probe_faults {
                        faults.probe_action(vp_id, letter)
                    } else {
                        ProbeAction::Normal
                    };
                    if action == ProbeAction::Skip {
                        shard.note_missed(t);
                        continue;
                    }
                    let route = lp.routes[vp_id as usize];
                    let obs = execute_probe_fused(route.flags, route.view(&lp.snaps), &mut rng);
                    if action == ProbeAction::Discard {
                        shard.note_missed(t);
                    } else if let Some(slot) = &slot {
                        if let Err(err) = shard.record_in(slot, VpId(vp_id), obs) {
                            // The wheel only probes kept VPs at registered
                            // sites, so this is a programmer error, not
                            // data to skip.
                            debug_assert!(false, "pipeline rejected wheel observation: {err}");
                            let _ = err;
                        }
                    }
                }
                due.len() as u64
            })
            .collect();
        world
            .metrics
            .inc(keys::PROBES_FUSED, probed.iter().sum::<u64>());
        vec![t + SimDuration::from_mins(1)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScenarioConfig;
    use crate::engine::instrument::NoopInstrumentation;
    use crate::engine::world::target_view;
    use rootcast_atlas::{clean_outcome, execute_probe};
    use rootcast_netsim::SimRng;
    use std::sync::Arc;

    #[test]
    fn wheel_covers_every_pair_once_per_interval() {
        let mut cfg = ScenarioConfig::small();
        cfg.horizon = SimTime::from_mins(10);
        cfg.pipeline.horizon = cfg.horizon;
        let rngf = SimRng::new(cfg.seed);
        let mut obs = NoopInstrumentation;
        let world = SimWorld::build(&cfg, &rngf, &mut obs).expect("world builds");
        let wheel = ProbeWheel::new(&world);
        let kept = world.cleaning.kept_count();
        let n_letters = world.letters.len();
        // Across one full period every kept VP hits every letter at the
        // letter's own frequency: 60/4 for the 12 non-A letters, 60/30
        // for A.
        let total: usize = (0..60)
            .flat_map(|m| (0..n_letters).map(move |i| (m, i)))
            .map(|(m, i)| wheel.due(m, i).len())
            .sum();
        assert_eq!(total, kept * (12 * 15 + 2));
        // A single interval of 4 minutes contains each (VP, non-A
        // letter) pair exactly once, and every due list is in VP order.
        let a_idx = world
            .letters
            .iter()
            .position(|&l| l == Letter::A)
            .expect("A present");
        let mut non_a = 0;
        for m in 0..4 {
            for i in (0..n_letters).filter(|&i| i != a_idx) {
                let due = wheel.due(m, i);
                assert!(due.windows(2).all(|w| w[0] < w[1]), "slot {m} letter {i}");
                non_a += due.len();
            }
        }
        assert_eq!(non_a, kept * 12);
    }

    /// Oracle: tick the wheel on one world for minutes 1..=8 and replay
    /// its due lists through the public string path (`execute_probe` →
    /// `clean_outcome` → `record`, whose `probe_view` resolves every
    /// probe afresh) on a second world, one RNG stream per (letter,
    /// minute) as the wheel draws. `between(minute, world)` runs on both
    /// worlds before that minute's tick. Asserts every letter's
    /// `LetterData` and the outcome tallies match, and that the wheel's
    /// routes are current after every tick.
    fn assert_wheel_matches_string_path(between: impl Fn(u64, &mut SimWorld)) {
        let mut cfg = ScenarioConfig::small();
        cfg.horizon = SimTime::from_mins(10);
        cfg.pipeline.horizon = cfg.horizon;
        assert!(cfg.faults.is_empty(), "the replay assumes no faults");
        let rngf = SimRng::new(cfg.seed);
        let (mut fused_obs, mut replay_obs) = (NoopInstrumentation, NoopInstrumentation);
        let mut fused = SimWorld::build(&cfg, &rngf, &mut fused_obs).expect("world builds");
        let mut replay = SimWorld::build(&cfg, &rngf, &mut replay_obs).expect("world builds");
        let mut wheel = ProbeWheel::new(&fused);
        for m in 1..=8u64 {
            let t = SimTime::from_mins(m);
            between(m, &mut fused);
            between(m, &mut replay);
            wheel.tick(&mut fused, t);
            for (lp, svc) in wheel.letters.iter().zip(&fused.services) {
                assert_eq!(lp.epoch, svc.catchment_epoch(), "stale routes at {m} min");
            }
            for (i, &letter) in replay.letters.iter().enumerate() {
                let mut rng = rngf.indexed_stream(&format!("probes-{letter}"), m);
                for &vp_id in wheel.due(m, i) {
                    let vp = replay.fleet.vp(VpId(vp_id));
                    let view = target_view(&replay.services[i], vp);
                    let raw = execute_probe(vp, letter, view, t, &mut rng);
                    replay
                        .pipeline
                        .record(vp.id, letter, t, &clean_outcome(&raw))
                        .expect("letter registered");
                }
            }
        }
        fused.pipeline.finalize();
        replay.pipeline.finalize();
        for &l in &fused.letters {
            assert!(
                fused.pipeline.letter(l) == replay.pipeline.letter(l),
                "letter {l}: the fused wheel diverged from the string path"
            );
        }
        assert_eq!(
            fused.pipeline.outcome_stats(),
            replay.pipeline.outcome_stats()
        );
    }

    #[test]
    fn fused_and_reference_wheels_are_bit_identical() {
        assert_wheel_matches_string_path(|_, _| {});
    }

    #[test]
    fn wheel_rebuilds_routes_when_a_withdrawal_moves_catchments() {
        // Withdrawing K-LHR mid-run bumps K's catchment epoch between
        // ticks: the wheel must re-resolve its cached routes, or the VPs
        // that moved would keep probing LHR.
        assert_wheel_matches_string_path(|m, world| {
            if m != 5 {
                return;
            }
            let k = world
                .letters
                .iter()
                .position(|&l| l == Letter::K)
                .expect("K present");
            let graph = Arc::clone(&world.graph);
            let svc = &mut world.services[k];
            let lhr = svc.site_by_code("LHR").expect("K has LHR");
            let in_lhr = |svc: &AnycastService| {
                world
                    .fleet
                    .iter()
                    .filter(|vp| svc.catchment_site(vp.asn) == Some(lhr))
                    .count()
            };
            assert!(in_lhr(svc) > 0, "no VP in K-LHR's catchment");
            assert!(svc.set_announced(lhr, false, &graph));
            assert_eq!(in_lhr(svc), 0);
        });
    }

    #[test]
    fn probe_results_identical_across_thread_counts() {
        let mut cfg = ScenarioConfig::small();
        cfg.horizon = SimTime::from_mins(10);
        cfg.pipeline.horizon = cfg.horizon;
        let rngf = SimRng::new(cfg.seed);

        let run_minutes = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            pool.install(|| {
                let mut obs = NoopInstrumentation;
                let mut world = SimWorld::build(&cfg, &rngf, &mut obs).expect("world builds");
                let mut wheel = ProbeWheel::new(&world);
                for m in 1..=8u64 {
                    wheel.tick(&mut world, SimTime::from_mins(m));
                }
                world.pipeline.finalize();
                world
                    .letters
                    .iter()
                    .map(|&l| world.pipeline.letter(l).clone())
                    .collect::<Vec<_>>()
            })
        };
        // Back to back in one process, so the later counts run on
        // workers parked by the earlier ones.
        let single = run_minutes(1);
        for threads in 2..=4 {
            assert!(single == run_minutes(threads), "{threads} threads diverged");
        }
    }

    #[test]
    fn probe_tasks_never_grow_the_reserved_rtt_bins() {
        use crate::engine::faults::{FaultKind, FaultPlan};
        let mut cfg = ScenarioConfig::small();
        cfg.faults = FaultPlan::none()
            .with(
                SimTime::from_mins(15),
                SimDuration::from_mins(30),
                FaultKind::SiteCrash {
                    letter: Letter::K,
                    site: "AMS".into(),
                },
            )
            .with(
                SimTime::from_mins(10),
                SimDuration::from_mins(50),
                FaultKind::ProbeDropout {
                    fraction: 0.3,
                    letters: vec![Letter::E, Letter::F],
                },
            )
            .with(
                SimTime::from_mins(30),
                SimDuration::from_mins(40),
                FaultKind::FirmwareDowngrade { fraction: 0.2 },
            );
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .expect("pool");
        let out = pool.install(|| crate::sim::run(&cfg)).expect("faulted run");
        let reserved = out
            .pipeline
            .n_vps()
            .div_ceil(cfg.pipeline.rtt_subsample as usize);
        let mut fullest = 0;
        for &letter in &out.letters {
            let rtt = &out.pipeline.letter(letter).rtt;
            for bin in 0..rtt.n_bins() {
                assert_eq!(
                    rtt.bin_capacity(bin),
                    reserved,
                    "{letter} RTT bin {bin} was reallocated"
                );
                fullest = fullest.max(rtt.bin_len(bin));
            }
        }
        // Not vacuous: some bin came close to its reservation.
        assert!(
            2 * fullest > reserved,
            "fullest bin {fullest} of {reserved}"
        );
    }
}
