//! The Atlas probing wheel.
//!
//! Each (VP, letter) pair probes on its own phase of the letter's
//! probing interval (4 min; 30 min for A-root, §2.4.1). The wheel is
//! precomputed per minute slot and letter — the full scenario would
//! otherwise evaluate ~350 M phase checks — and each tick runs one rayon
//! task per letter that probes and records into that letter's pipeline
//! shard in the same pass. State shared by every probe of a tick is
//! resolved once per (letter, tick): the service's site snapshots
//! ([`SiteProbe`]: queue delay, hot server, survivor, drop probability)
//! and the shard's record slot (bin and raster column). Every (letter,
//! minute) pair draws from its own named RNG stream, each letter records
//! in VP order and shards share nothing, so outputs are bit-identical at
//! any thread count.

use crate::engine::faults::ProbeAction;
use crate::engine::metrics::keys;
use crate::engine::{SimWorld, Subsystem};
use rayon::prelude::*;
use rootcast_anycast::SiteProbe;
use rootcast_atlas::{execute_probe_fused, IndexedView, LetterShard, VpId};
use rootcast_dns::Letter;
use rootcast_netsim::{SimDuration, SimTime};

/// The probing subsystem: per minute slot and letter index, the VPs due
/// to probe, cycling every lcm(intervals) minutes.
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
    wheel_period: usize,
    /// Per letter index: service site index → pipeline site index.
    site_map: Vec<Vec<u16>>,
    /// Per letter index: the `probes-{letter}` RNG stream key.
    stream_keys: Vec<String>,
    /// Per letter index: the service's site snapshots, refilled every
    /// tick (owned here so the buffers are reused).
    site_probes: Vec<Vec<SiteProbe>>,
}

impl ProbeWheel {
    /// Precompute the wheel for the world's cleaned fleet. VPs excluded
    /// by the cleaning stage never probe.
    pub fn new(world: &SimWorld) -> ProbeWheel {
        let cfg = world.cfg;
        assert_eq!(
            cfg.probe_interval.as_secs() % 60,
            0,
            "probe interval must be whole minutes"
        );
        assert_eq!(cfg.a_probe_interval.as_secs() % 60, 0);
        let interval_minutes = cfg.probe_interval.as_secs() / 60;
        let a_interval_minutes = cfg.a_probe_interval.as_secs() / 60;
        let wheel_period = lcm(interval_minutes.max(1), a_interval_minutes.max(1)) as usize;
        let excluded = world.cleaning.excluded_set();
        let mut wheel = vec![vec![Vec::new(); world.letters.len()]; wheel_period];
        for vp in world.fleet.iter() {
            if excluded.contains(&vp.id) {
                continue;
            }
            for (i, &letter) in world.letters.iter().enumerate() {
                let interval = if letter == Letter::A {
                    a_interval_minutes
                } else {
                    interval_minutes
                };
                let phase = (u64::from(vp.id.0)
                    .wrapping_mul(0x9E37_79B9)
                    .wrapping_add(letter as u64 * 7))
                    % interval;
                let mut slot = phase as usize;
                while slot < wheel_period {
                    wheel[slot][i].push(vp.id.0);
                    slot += interval as usize;
                }
            }
        }
        // Pipeline site indices in service-site order, resolved once so
        // the fused path never touches an airport-code string.
        let site_map = world
            .letters
            .iter()
            .enumerate()
            .map(|(i, &letter)| {
                let data = world.pipeline.letter(letter);
                world.services[i]
                    .sites()
                    .iter()
                    .map(|s| {
                        data.site_idx(&s.spec.code)
                            .expect("pipeline registered every service site")
                    })
                    .collect()
            })
            .collect();
        let stream_keys = world
            .letters
            .iter()
            .map(|letter| format!("probes-{letter}"))
            .collect();
        ProbeWheel {
            wheel,
            wheel_period,
            site_map,
            stream_keys,
            site_probes: vec![Vec::new(); world.letters.len()],
        }
    }

    /// Number of minute slots before the wheel repeats.
    pub fn period(&self) -> usize {
        self.wheel_period
    }

    /// The VPs due to probe letter index `letter` in minute `minute`.
    pub fn due(&self, minute: u64, letter: usize) -> &[u32] {
        &self.wheel[(minute as usize) % self.wheel_period][letter]
    }
}

impl Subsystem for ProbeWheel {
    fn name(&self) -> &'static str {
        "probes"
    }

    fn initial_wakeups(&mut self) -> Vec<SimTime> {
        vec![SimTime::ZERO + SimDuration::from_mins(1)]
    }

    /// One parallel pass over the letter shards: each task snapshots its
    /// letter's sites and resolves the shard's record slot once, then
    /// executes its due probes in VP order and records each into its
    /// shard.
    fn tick(&mut self, world: &mut SimWorld, t: SimTime) -> Vec<SimTime> {
        let minute = t.as_secs() / 60;
        let (services, fleet, rngf, faults) = (
            &world.services,
            &world.fleet,
            world.rng_factory,
            &world.faults,
        );
        let ProbeWheel {
            wheel,
            wheel_period,
            site_map,
            stream_keys,
            site_probes,
        } = self;
        let due_now = &wheel[(minute as usize) % *wheel_period];
        let mut tasks: Vec<(usize, (&mut LetterShard, &mut Vec<SiteProbe>))> = world
            .pipeline
            .shards_mut()
            .iter_mut()
            .zip(site_probes)
            .enumerate()
            .collect();
        let probed: Vec<u64> = tasks
            .par_iter_mut()
            .map(|(i, (shard, snaps))| {
                let i = *i;
                let letter = shard.letter();
                let mut rng = rngf.indexed_stream(&stream_keys[i], minute);
                let (svc, sites) = (&services[i], &site_map[i]);
                svc.site_probes_into(snaps);
                let slot = shard.slot(t);
                let due = &due_now[i];
                for &vp_id in due {
                    // A dropped-out VP never probes (no RNG draw); a
                    // firmware-downgraded VP probes (same draws as a
                    // healthy run) but its measurement is unusable.
                    let action = faults.probe_action(vp_id, letter);
                    if action == ProbeAction::Skip {
                        shard.note_missed(t);
                        continue;
                    }
                    let vp = fleet.vp(VpId(vp_id));
                    let view = svc
                        .probe_view_in(snaps, vp.asn, vp.client_hash())
                        .map(|pv| {
                            IndexedView::new(sites[pv.site], pv.server, pv.rtt, pv.drop_prob)
                        });
                    let obs = execute_probe_fused(vp, view, &mut rng);
                    if action == ProbeAction::Discard {
                        shard.note_missed(t);
                    } else if let Some(slot) = &slot {
                        if let Err(err) = shard.record_in(slot, vp.id, obs) {
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

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn lcm(a: u64, b: u64) -> u64 {
    a / gcd(a, b) * b
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScenarioConfig;
    use crate::engine::instrument::NoopInstrumentation;
    use crate::engine::world::target_view;
    use rootcast_atlas::{clean_outcome, execute_probe};
    use rootcast_netsim::SimRng;

    #[test]
    fn lcm_gcd_basics() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(lcm(4, 30), 60);
        assert_eq!(lcm(1, 7), 7);
    }

    #[test]
    fn wheel_covers_every_pair_once_per_interval() {
        let mut cfg = ScenarioConfig::small();
        cfg.horizon = SimTime::from_mins(10);
        cfg.pipeline.horizon = cfg.horizon;
        let rngf = SimRng::new(cfg.seed);
        let mut obs = NoopInstrumentation;
        let world = SimWorld::build(&cfg, &rngf, &mut obs).expect("world builds");
        let wheel = ProbeWheel::new(&world);
        // lcm(4, 30) minutes.
        assert_eq!(wheel.period(), 60);
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

    #[test]
    fn fused_and_reference_wheels_are_bit_identical() {
        // Oracle: replay the wheel's due lists through the public string
        // path (`execute_probe` → `clean_outcome` → `record`) on a second
        // world, one RNG stream per (letter, minute) as the wheel draws.
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
            wheel.tick(&mut fused, t);
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
        assert!(run_minutes(1) == run_minutes(4));
    }
}
