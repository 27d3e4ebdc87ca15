//! The Atlas probing wheel.
//!
//! Each (VP, letter) pair probes on its own phase of the letter's
//! probing interval (4 min; 30 min for A-root, §2.4.1). The wheel is
//! precomputed per minute slot — the full scenario would otherwise
//! evaluate ~350 M phase checks — and each tick fans out per letter on
//! rayon. Every (letter, minute) pair draws from its own named RNG
//! stream and results are merged in letter order, so outputs are
//! bit-identical at any thread count.

use crate::engine::faults::ProbeAction;
use crate::engine::metrics::keys;
use crate::engine::{SimWorld, Subsystem};
use rayon::prelude::*;
use rootcast_atlas::{execute_probe_fused, FastObs, IndexedView, VpId};
use rootcast_dns::Letter;
use rootcast_netsim::{SimDuration, SimTime};

/// The probing subsystem: a wheel of (VP index, letter index) pairs per
/// minute slot, cycling every lcm(intervals) minutes.
///
/// Probes resolve the service's catchment view straight to the
/// pipeline's site *index* (via a per-letter map precomputed at
/// construction) and record without the wire-format string round trip.
/// The public `execute_probe` → `clean_outcome` → `record` path draws the
/// identical RNG sequence and yields a bit-identical pipeline; the
/// wheel's unit tests replay it as the oracle.
pub struct ProbeWheel {
    wheel: Vec<Vec<(u32, usize)>>,
    wheel_period: usize,
    /// Per letter index: service site index → pipeline site index.
    site_map: Vec<Vec<u16>>,
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
        let mut wheel: Vec<Vec<(u32, usize)>> = vec![Vec::new(); wheel_period];
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
                    wheel[slot].push((vp.id.0, i));
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
        ProbeWheel {
            wheel,
            wheel_period,
            site_map,
        }
    }

    /// Number of minute slots before the wheel repeats.
    pub fn period(&self) -> usize {
        self.wheel_period
    }

    /// The (VP, letter index) pairs due in minute `m`.
    pub fn due(&self, minute: u64) -> &[(u32, usize)] {
        &self.wheel[(minute as usize) % self.wheel_period]
    }
}

impl Subsystem for ProbeWheel {
    fn name(&self) -> &'static str {
        "probes"
    }

    fn initial_wakeups(&mut self) -> Vec<SimTime> {
        vec![SimTime::ZERO + SimDuration::from_mins(1)]
    }

    /// Executes the slot's probes in parallel inside an `execute` span,
    /// then merges them into the pipeline serially inside `record`.
    fn tick(&mut self, world: &mut SimWorld, t: SimTime) -> Vec<SimTime> {
        world.obs.enter("execute");
        let minute = t.as_secs() / 60;
        // Partition this slot's work per letter, preserving VP order.
        let mut per_letter: Vec<Vec<u32>> = vec![Vec::new(); world.letters.len()];
        for &(vp_id, i) in self.due(minute) {
            per_letter[i].push(vp_id);
        }
        let (services, fleet, letters, rngf, faults) = (
            &world.services,
            &world.fleet,
            &world.letters,
            world.rng_factory,
            &world.faults,
        );
        // `None` observations are missed probes: a dropped-out VP never
        // probes (no RNG draw), a firmware-downgraded VP probes (same
        // draws as a healthy run) but its measurement is unusable.
        let site_map = &self.site_map;
        let results: Vec<Vec<(VpId, Option<FastObs>)>> = (0..letters.len())
            .into_par_iter()
            .map(|i| {
                let letter = letters[i];
                let mut rng = rngf.indexed_stream(&format!("probes-{letter}"), minute);
                let svc = &services[i];
                let sites = &site_map[i];
                per_letter[i]
                    .iter()
                    .map(|&vp_id| match faults.probe_action(vp_id, letter) {
                        ProbeAction::Skip => (VpId(vp_id), None),
                        action => {
                            let vp = fleet.vp(VpId(vp_id));
                            let view = svc.probe_view(vp.asn, vp.client_hash()).map(|pv| {
                                IndexedView::new(sites[pv.site], pv.server, pv.rtt, pv.drop_prob)
                            });
                            let obs = execute_probe_fused(vp, view, &mut rng);
                            (vp.id, (action == ProbeAction::Normal).then_some(obs))
                        }
                    })
                    .collect()
            })
            .collect();
        world.obs.exit("execute");
        world.obs.enter("record");
        for (i, letter_obs) in results.into_iter().enumerate() {
            let letter = world.letters[i];
            world
                .metrics
                .inc(keys::PROBES_FUSED, letter_obs.len() as u64);
            for (vp, obs) in letter_obs {
                let recorded = match obs {
                    Some(obs) => world.pipeline.record_fast(vp, letter, t, obs),
                    None => world.pipeline.note_missed(letter, t),
                };
                if let Err(err) = recorded {
                    // The wheel only probes letters the world registered,
                    // so this is a programmer error, not data to skip.
                    debug_assert!(false, "pipeline rejected wheel observation: {err}");
                    let _ = err;
                }
            }
        }
        world.obs.exit("record");
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
    use crate::engine::world::ServiceTarget;
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
        // Across one full period every kept VP hits every letter at the
        // letter's own frequency: 60/4 for the 12 non-A letters, 60/30
        // for A.
        let total: usize = (0..60).map(|m| wheel.due(m).len()).sum();
        assert_eq!(total, kept * (12 * 15 + 2));
        // A single interval of 4 minutes contains each (VP, non-A
        // letter) pair exactly once.
        let a_idx = world
            .letters
            .iter()
            .position(|&l| l == Letter::A)
            .expect("A present");
        let mut non_a = 0;
        for m in 0..4 {
            non_a += wheel.due(m).iter().filter(|&&(_, i)| i != a_idx).count();
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
                let target = ServiceTarget {
                    svc: &replay.services[i],
                };
                for &(vp_id, _) in wheel.due(m).iter().filter(|&&(_, li)| li == i) {
                    let vp = replay.fleet.vp(VpId(vp_id));
                    let raw = execute_probe(vp, &target, t, &mut rng);
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
            let (a, b) = (fused.pipeline.letter(l), replay.pipeline.letter(l));
            assert_eq!(a.success.values(), b.success.values(), "letter {l}");
            assert_eq!(a.errors.values(), b.errors.values(), "letter {l}");
            assert_eq!(a.raster, b.raster, "letter {l}");
            assert_eq!(a.observed_probes, b.observed_probes, "letter {l}");
            assert_eq!(a.missed_probes, b.missed_probes, "letter {l}");
            for (sa, sb) in a.site_counts.iter().zip(&b.site_counts) {
                assert_eq!(sa.values(), sb.values(), "letter {l}");
            }
        }
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
                    .map(|&l| world.pipeline.letter(l).success.values().to_vec())
                    .collect::<Vec<_>>()
            })
        };
        assert_eq!(run_minutes(1), run_minutes(4));
    }
}
