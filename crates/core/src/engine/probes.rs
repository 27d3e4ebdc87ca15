//! The Atlas probing wheel, run as one probe lane per letter.
//!
//! Each (VP, letter) pair probes on its own phase of the letter's
//! probing interval (4 min; 30 min for A-root, §2.4.1). Per letter, the
//! wheel keeps the kept VPs in one list grouped by phase, so a minute's
//! due VPs are one ascending slice.
//!
//! Probes feed nothing back into the simulation, so a letter's minutes
//! may run behind the engine clock. At each tick the engine thread
//! *captures* what the letter's probes read at `t` and queues a
//! (letter, minute) item on the letter's lane:
//!
//! * the service's site snapshots ([`SiteProbe`]: queue delay, hot
//!   server, survivor, drop probability);
//! * the route table of the current catchment epoch, shared until the
//!   epoch moves: per VP its [`ProbeRoute`] (catchment site, designated
//!   server, path RTT) with the pipeline site index folded in, and its
//!   [`ProbeFlags`] (hijacked, flaky, and whether the pipeline keeps the
//!   probe's RTT, which depends on the catchment site);
//! * while probe faults are active, the letter's [`ProbeAction`] table,
//!   shared until the fault state's probe set changes.
//!
//! A lane owns its letter's pipeline shard behind a lock, next to the
//! queue of its items; whoever holds the lock runs the queue's front
//! items, so a lane runs its items strictly in minute order. Each item
//! draws from the `probes-{letter}` RNG stream indexed by its minute and
//! records in VP order. As a lane records in minute order, its shard
//! closes each RTT bin once time moves past it ([`LetterShard::slot`]).
//! Lanes drain on `current_num_threads() - 1` helper threads, which take
//! any lane no other thread holds and park when none has an item, and on
//! the engine thread, which after each tick runs
//! items until at most `QUEUE_BOUND_MINUTES` of them per lane are pending
//! (none without helpers, so one thread runs each tick's items before the
//! next). [`Subsystem::finish`] drains every lane, joins the helpers and
//! hands the shards back to the pipeline. What a lane computes depends
//! only on its items, never on which thread runs them or when, so
//! outputs are bit-identical at any thread count.

use crate::engine::faults::{FaultState, ProbeAction};
use crate::engine::metrics::keys;
use crate::engine::{SimWorld, Subsystem};
use rootcast_anycast::{AnycastService, ProbeRoute, SiteProbe};
use rootcast_atlas::{
    execute_probe_fused, IndexedView, LetterShard, ProbeFlags, RttKeep, VantagePoint, VpFleet,
    VpId, A_PROBE_INTERVAL, PROBE_INTERVAL,
};
use rootcast_dns::Letter;
use rootcast_netsim::{SimDuration, SimRng, SimTime};
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, TryLockError};
use std::thread::{self, JoinHandle};

/// The probe intervals in whole minutes, one phase per minute.
const INTERVAL_MINUTES: u64 = PROBE_INTERVAL.as_secs() / 60;
const A_INTERVAL_MINUTES: u64 = A_PROBE_INTERVAL.as_secs() / 60;
const _: () = assert!(
    PROBE_INTERVAL.as_secs() == INTERVAL_MINUTES * 60
        && A_PROBE_INTERVAL.as_secs() == A_INTERVAL_MINUTES * 60
);

/// Minutes of items, per lane on average, that may wait in the queues;
/// beyond that the engine thread runs items itself, which bounds the
/// captured state in flight.
const QUEUE_BOUND_MINUTES: usize = 2;

/// The probing subsystem: per letter, the VPs due each minute and the
/// lane that probes them.
///
/// Probes resolve the service's catchment view straight to the
/// pipeline's site *index* (via a per-letter map precomputed at
/// construction) and record without the wire-format string round trip.
/// The public `execute_probe` → `clean_outcome` → `record` path draws the
/// identical RNG sequence and yields a bit-identical pipeline; the
/// wheel's unit tests replay it as the oracle.
pub struct ProbeWheel {
    /// Per letter index: its due VPs; shared with its lane.
    due: Vec<Arc<DueList>>,
    /// Per letter index: what the engine thread captures for its lane.
    captures: Vec<Capture>,
    /// [`FaultState::probe_generation`] the action tables were built at.
    fault_generation: u64,
    /// The lanes, from the first tick, which takes the pipeline's shards,
    /// until `finish` returns them.
    lanes: Option<Lanes>,
}

/// One letter's kept VPs grouped by probing phase: the ids of phase `p`
/// are `ids[starts[p]..starts[p + 1]]`, ascending.
struct DueList {
    ids: Vec<u32>,
    starts: Vec<usize>,
}

impl DueList {
    /// `kept` must be ascending.
    fn new(kept: &[VpId], letter: Letter) -> DueList {
        let interval = if letter == Letter::A {
            A_INTERVAL_MINUTES
        } else {
            INTERVAL_MINUTES
        };
        let phase = |vp: VpId| {
            (u64::from(vp.0)
                .wrapping_mul(0x9E37_79B9)
                .wrapping_add(letter as u64 * 7)
                % interval) as usize
        };
        let mut starts = vec![0; interval as usize + 1];
        for &vp in kept {
            starts[phase(vp) + 1] += 1;
        }
        for p in 1..starts.len() {
            starts[p] += starts[p - 1];
        }
        // A counting sort: stable, so each phase stays ascending.
        let mut next = starts.clone();
        let mut ids = vec![0; kept.len()];
        for &vp in kept {
            let p = phase(vp);
            ids[next[p]] = vp.0;
            next[p] += 1;
        }
        DueList { ids, starts }
    }

    /// The probing interval in minutes: each VP is due once per interval.
    fn interval(&self) -> u64 {
        self.starts.len() as u64 - 1
    }

    /// The VPs due in `minute`, ascending.
    fn at(&self, minute: u64) -> &[u32] {
        let p = (minute % self.interval()) as usize;
        &self.ids[self.starts[p]..self.starts[p + 1]]
    }
}

/// What the engine thread resolves for one letter's probes, each part at
/// the rate it changes.
struct Capture {
    letter: Letter,
    /// Service site index → pipeline site index.
    site_map: Vec<u16>,
    /// Which site answers the letter's shard reads the RTT of.
    keep: RttKeep,
    /// Catchment epoch `routes` was resolved at (0 = never).
    epoch: u64,
    /// Per VP id: its route toward the letter at `epoch`.
    routes: Arc<[RouteEntry]>,
    /// Per VP id: what the active probe faults do to its probes of the
    /// letter; `None` when they leave every probe of it alone.
    actions: Option<Arc<[ProbeAction]>>,
    /// The buffer the next item's site snapshots are written to: one its
    /// lane handed back, so buffers are reused at any thread count.
    snaps: Vec<SiteProbe>,
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

impl Capture {
    /// Re-resolve every VP's route, and whether the shard keeps the RTT
    /// of its probes, when the service's catchment epoch has moved since
    /// the last build; a no-op otherwise. The site is fixed for the
    /// epoch, so the keep bit is too. The table is rewritten in place
    /// unless a queued item still reads it.
    fn refresh_routes(&mut self, svc: &AnycastService, fleet: &VpFleet) {
        let epoch = svc.catchment_epoch();
        if self.epoch == epoch {
            return;
        }
        let Capture {
            site_map,
            keep,
            routes,
            ..
        } = self;
        let entry = |vp: &VantagePoint| match svc.probe_route(vp.asn, vp.client_hash()) {
            Some(r) => {
                let pipe_site = site_map[r.site];
                RouteEntry {
                    path_rtt_ns: r.path_rtt.as_nanos(),
                    // `ProbeWheel::new` checked the site count fits.
                    site: r.site as u16,
                    pipe_site,
                    server: r.server,
                    flags: ProbeFlags::new(vp, keep.keeps(vp.id, pipe_site)),
                }
            }
            None => RouteEntry {
                path_rtt_ns: 0,
                site: UNREACHABLE,
                pipe_site: 0,
                server: 0,
                flags: ProbeFlags::new(vp, false),
            },
        };
        match Arc::get_mut(routes) {
            Some(slots) if slots.len() == fleet.len() => {
                for (slot, vp) in slots.iter_mut().zip(fleet.iter()) {
                    *slot = entry(vp);
                }
            }
            _ => *routes = fleet.iter().map(entry).collect(),
        }
        self.epoch = epoch;
    }
}

/// One (letter, minute) of probing, as the engine thread captured it at
/// the minute's tick.
struct Item {
    minute: u64,
    t: SimTime,
    snaps: Vec<SiteProbe>,
    routes: Arc<[RouteEntry]>,
    actions: Option<Arc<[ProbeAction]>>,
}

/// One letter's probe lane: its pipeline shard and what its items share.
struct Lane {
    shard: LetterShard,
    due: Arc<DueList>,
    rng: SimRng,
    /// The `probes-{letter}` RNG stream key.
    stream_key: String,
    /// The last minute this lane ran.
    last_minute: Option<u64>,
}

impl Lane {
    /// Execute the item's due probes in VP order, drawing from the
    /// (letter, minute) stream, and record each into the shard.
    fn run(&mut self, item: &Item) {
        debug_assert!(
            self.last_minute.is_none_or(|last| last < item.minute),
            "{} lane ran minute {} after minute {:?}",
            self.shard.letter(),
            item.minute,
            self.last_minute
        );
        self.last_minute = Some(item.minute);
        let mut rng = self.rng.indexed_stream(&self.stream_key, item.minute);
        let slot = self.shard.slot(item.t);
        for &vp_id in self.due.at(item.minute) {
            let vp = VpId(vp_id);
            // A dropped-out VP never probes (no RNG draw); a
            // firmware-downgraded VP probes (same draws as a healthy run)
            // but its measurement is unusable.
            let action = item
                .actions
                .as_ref()
                .map_or(ProbeAction::Normal, |table| table[vp_id as usize]);
            let recorded = if action == ProbeAction::Skip {
                self.shard.note_missed(vp, item.t)
            } else {
                let route = item.routes[vp_id as usize];
                let obs = execute_probe_fused(route.flags, route.view(&item.snaps), &mut rng);
                if action == ProbeAction::Discard {
                    self.shard.note_missed(vp, item.t)
                } else if let Some(slot) = &slot {
                    self.shard.record_in(slot, vp, obs)
                } else {
                    Ok(())
                }
            };
            if let Err(err) = recorded {
                // The wheel only probes kept VPs at registered sites, so
                // this is a programmer error, not data to skip.
                debug_assert!(false, "pipeline rejected wheel observation: {err}");
                let _ = err;
            }
        }
    }
}

/// Lock `m`, ignoring poison: a lane's panic is caught before its lock
/// is released, and a failed lane is never run again.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The lanes and the helper threads that drain them.
struct Lanes {
    shared: Arc<Shared>,
    helpers: Helpers,
    /// Items that may be pending when a tick returns.
    bound: usize,
}

/// What the engine thread and the helpers share.
struct Shared {
    /// Per letter index.
    slots: Vec<Slot>,
    /// Items queued or running, not yet finished.
    pending: AtomicUsize,
    /// Helpers leave, and no lane starts another item, once this is set.
    stop: AtomicBool,
    /// The message of the first panic caught in a lane.
    failure: Mutex<Option<String>>,
    /// Passes `settle` made over the lanes.
    #[cfg(test)]
    settle_passes: AtomicUsize,
}

/// One letter's lane. Whoever holds `lane` runs the front items of
/// `queue`, so one thread at a time runs a lane, oldest item first.
struct Slot {
    queue: Mutex<Queue>,
    lane: Mutex<Lane>,
}

struct Queue {
    items: VecDeque<Item>,
    /// Snapshot buffers of run items, for the engine thread to refill.
    spare: Vec<Vec<SiteProbe>>,
}

impl Shared {
    /// Run `lane`'s queued items, oldest first, while more than `keep`
    /// items are pending. A lane another thread holds is skipped, or
    /// with `wait` waited for. A panic is recorded and stops the lanes.
    /// Whether this call ran an item.
    fn drain(&self, lane: usize, wait: bool, keep: usize) -> bool {
        let slot = &self.slots[lane];
        let mut held = match slot.lane.try_lock() {
            Ok(held) => held,
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
            Err(TryLockError::WouldBlock) if wait => lock(&slot.lane),
            Err(TryLockError::WouldBlock) => return false,
        };
        let mut ran = false;
        let run = panic::catch_unwind(AssertUnwindSafe(|| {
            let mut queue = lock(&slot.queue);
            while !self.stop.load(Ordering::SeqCst) && self.pending.load(Ordering::SeqCst) > keep {
                let Some(item) = queue.items.pop_front() else {
                    break;
                };
                drop(queue);
                held.run(&item);
                ran = true;
                let Item { snaps, .. } = item;
                self.pending.fetch_sub(1, Ordering::SeqCst);
                queue = lock(&slot.queue);
                queue.spare.push(snaps);
            }
        }));
        if let Err(payload) = run {
            lock(&self.failure).get_or_insert_with(|| panic_message(&*payload));
            self.stop.store(true, Ordering::SeqCst);
        }
        ran
    }

    /// On the engine thread: run items until at most `bound` are
    /// pending, first on every lane no other thread holds, then waiting
    /// for a held one. Panics if a lane has panicked.
    fn settle(&self, bound: usize) {
        while self.pending.load(Ordering::SeqCst) > bound && !self.stop.load(Ordering::SeqCst) {
            #[cfg(test)]
            self.settle_passes.fetch_add(1, Ordering::SeqCst);
            let mut ran = false;
            for lane in 0..self.slots.len() {
                ran |= self.drain(lane, false, bound);
            }
            if !ran {
                if let Some(lane) = self.busy_lane() {
                    self.drain(lane, true, bound);
                }
            }
        }
        if let Some(msg) = &*lock(&self.failure) {
            panic!("a probe lane panicked: {msg}");
        }
    }

    /// A lane to wait for when no lane is free to run: one with queued
    /// items, else one another thread holds, which is running an item
    /// that is pending until it finishes. `None` only when such an item
    /// finished meanwhile.
    fn busy_lane(&self) -> Option<usize> {
        let lanes = 0..self.slots.len();
        lanes
            .clone()
            .find(|&l| !lock(&self.slots[l].queue).items.is_empty())
            .or_else(|| {
                lanes.into_iter().find(|&l| {
                    matches!(self.slots[l].lane.try_lock(), Err(TryLockError::WouldBlock))
                })
            })
    }
}

/// A helper's life: from its own lane on, run every lane no other thread
/// holds; park when none had an item; leave once stopped.
fn helper(shared: &Shared, first: usize) {
    let n = shared.slots.len();
    while !shared.stop.load(Ordering::SeqCst) {
        let mut ran = false;
        for k in 0..n {
            ran |= shared.drain((first + k) % n, false, 0);
        }
        if !ran {
            thread::park();
        }
    }
}

/// The message a panic payload carries.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// The helper threads. Dropping them stops and joins them, so a wheel
/// dropped mid-run, even by a panic, leaves no thread behind.
struct Helpers {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl Helpers {
    fn unpark(&self) {
        for handle in &self.handles {
            handle.thread().unpark();
        }
    }

    /// Stop every helper once it has finished its item, and join it; the
    /// payload of a helper that panicked outside a lane, if any.
    fn join(&mut self) -> thread::Result<()> {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.unpark();
        self.handles
            .drain(..)
            .map(JoinHandle::join)
            .fold(Ok(()), Result::and)
    }
}

impl Drop for Helpers {
    fn drop(&mut self) {
        let _ = self.join();
    }
}

impl Lanes {
    /// One lane per shard, in letter order, drained by `threads - 1`
    /// helpers (at most one per lane beyond the engine thread's).
    fn start(
        shards: Vec<LetterShard>,
        due: &[Arc<DueList>],
        rng: &SimRng,
        threads: usize,
    ) -> Lanes {
        let n = shards.len();
        let slots = shards
            .into_iter()
            .zip(due)
            .map(|(shard, due)| Slot {
                queue: Mutex::new(Queue {
                    items: VecDeque::new(),
                    spare: Vec::new(),
                }),
                lane: Mutex::new(Lane {
                    stream_key: format!("probes-{}", shard.letter()),
                    shard,
                    due: Arc::clone(due),
                    rng: rng.clone(),
                    last_minute: None,
                }),
            })
            .collect();
        let shared = Arc::new(Shared {
            slots,
            pending: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            failure: Mutex::new(None),
            #[cfg(test)]
            settle_passes: AtomicUsize::new(0),
        });
        // A helper that cannot be started leaves its share to the others
        // and to the engine thread.
        let handles: Vec<_> = (0..threads.saturating_sub(1).min(n.saturating_sub(1)))
            .filter_map(|k| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("probe-lane-{k}"))
                    .spawn(move || helper(&shared, k))
                    .ok()
            })
            .collect();
        Lanes {
            bound: if handles.is_empty() {
                0
            } else {
                QUEUE_BOUND_MINUTES * n
            },
            helpers: Helpers {
                shared: Arc::clone(&shared),
                handles,
            },
            shared,
        }
    }

    /// Queue `item` on `lane`; a spare snapshot buffer for the lane's
    /// next item, empty when none has come back yet.
    fn push(&self, lane: usize, item: Item) -> Vec<SiteProbe> {
        // Counted first, so a helper that runs the item at once never
        // takes the count below zero.
        self.shared.pending.fetch_add(1, Ordering::SeqCst);
        let mut queue = lock(&self.shared.slots[lane].queue);
        queue.items.push_back(item);
        queue.spare.pop().unwrap_or_default()
    }

    /// Wake the helpers for the tick's pushed items, and run items on the
    /// engine thread until at most `bound` are pending.
    fn submit(&self) {
        self.helpers.unpark();
        self.shared.settle(self.bound);
    }

    /// Run every queued item, join the helpers and return the shards in
    /// letter order.
    fn finish(mut self) -> Vec<LetterShard> {
        self.shared.settle(0);
        if let Err(payload) = self.helpers.join() {
            panic::resume_unwind(payload);
        }
        drop(self.helpers);
        let shared = Arc::try_unwrap(self.shared)
            .unwrap_or_else(|_| unreachable!("every helper has been joined"));
        shared
            .slots
            .into_iter()
            .map(|slot| {
                slot.lane
                    .into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .shard
            })
            .collect()
    }
}

impl ProbeWheel {
    /// Precompute the due lists for the world's cleaned fleet and each
    /// letter's site map. VPs excluded by the cleaning stage never probe.
    pub fn new(world: &SimWorld) -> ProbeWheel {
        let shards = world.pipeline.shards();
        let (due, captures) = world
            .letters
            .iter()
            .enumerate()
            .map(|(i, &letter)| {
                let shard = &shards[i];
                assert_eq!(shard.letter(), letter, "shards follow the letter order");
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
                let capture = Capture {
                    letter,
                    site_map,
                    keep: shard.rtt_keep(),
                    epoch: 0,
                    routes: Arc::new([]),
                    actions: None,
                    snaps: Vec::new(),
                };
                (
                    Arc::new(DueList::new(&world.cleaning.kept, letter)),
                    capture,
                )
            })
            .unzip();
        ProbeWheel {
            due,
            captures,
            fault_generation: 0,
            lanes: None,
        }
    }

    /// The VPs due to probe letter index `letter` in minute `minute`,
    /// ascending.
    pub fn due(&self, minute: u64, letter: usize) -> &[u32] {
        self.due[letter].at(minute)
    }

    /// Rebuild the letters' action tables when the fault state's probe
    /// set has changed since the last build.
    fn refresh_actions(&mut self, faults: &FaultState, n_vps: usize) {
        if faults.probe_generation() == self.fault_generation {
            return;
        }
        self.fault_generation = faults.probe_generation();
        for cap in &mut self.captures {
            let table: Arc<[ProbeAction]> = (0..n_vps as u32)
                .map(|vp| faults.probe_action(vp, cap.letter))
                .collect();
            cap.actions = table
                .iter()
                .any(|&a| a != ProbeAction::Normal)
                .then_some(table);
        }
    }
}

impl Subsystem for ProbeWheel {
    fn name(&self) -> &'static str {
        "probes"
    }

    fn initial_wakeups(&mut self) -> Vec<SimTime> {
        vec![SimTime::ZERO + SimDuration::from_mins(1)]
    }

    /// Capture what each letter's probes read at `t` and hand the
    /// (letter, minute) items to the lanes. The first tick takes the
    /// pipeline's shards and starts the lanes.
    fn tick(&mut self, world: &mut SimWorld, t: SimTime) -> Vec<SimTime> {
        let minute = t.as_secs() / 60;
        self.refresh_actions(&world.faults, world.fleet.len());
        let lanes = self.lanes.get_or_insert_with(|| {
            Lanes::start(
                world.pipeline.take_shards(),
                &self.due,
                world.rng_factory,
                rayon::current_num_threads(),
            )
        });
        let mut probed = 0;
        for (i, cap) in self.captures.iter_mut().enumerate() {
            let svc = &world.services[i];
            cap.refresh_routes(svc, &world.fleet);
            let mut snaps = std::mem::take(&mut cap.snaps);
            svc.site_probes_into(&mut snaps);
            probed += self.due[i].at(minute).len() as u64;
            cap.snaps = lanes.push(
                i,
                Item {
                    minute,
                    t,
                    snaps,
                    routes: Arc::clone(&cap.routes),
                    actions: cap.actions.clone(),
                },
            );
        }
        lanes.submit();
        world.metrics.inc(keys::PROBES_FUSED, probed);
        vec![t + SimDuration::from_mins(1)]
    }

    /// Drain every lane, join the helpers and return the shards to the
    /// pipeline.
    fn finish(&mut self, world: &mut SimWorld) {
        if let Some(lanes) = self.lanes.take() {
            world.pipeline.put_shards(lanes.finish());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScenarioConfig;
    use crate::engine::faults::{FaultInjector, FaultKind, FaultPlan};
    use crate::engine::instrument::NoopInstrumentation;
    use crate::engine::world::target_view;
    use crate::engine::{drive, Subsystem};
    use rootcast_atlas::{clean_outcome, execute_probe};
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::sync::mpsc;
    use std::time::Duration;

    /// `small()` cut to `minutes`.
    fn short_small(minutes: u64) -> ScenarioConfig {
        let mut cfg = ScenarioConfig::small();
        cfg.horizon = SimTime::from_mins(minutes);
        cfg.pipeline.horizon = cfg.horizon;
        cfg
    }

    /// Run `f` with `threads` rayon threads.
    fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool")
            .install(f)
    }

    #[test]
    fn wheel_covers_every_pair_once_per_interval() {
        let cfg = short_small(10);
        let rngf = SimRng::new(cfg.seed);
        let mut obs = NoopInstrumentation;
        let world = SimWorld::build(&cfg, &rngf, &mut obs).expect("world builds");
        let wheel = ProbeWheel::new(&world);
        let kept = world.cleaning.kept_count();
        let n_letters = world.letters.len();
        // Across one hour every kept VP hits every letter at the
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
        // Each minute's list is exactly the kept VPs whose phase it is.
        for (i, &letter) in world.letters.iter().enumerate() {
            let interval = if letter == Letter::A { 30 } else { 4 };
            for m in 0..60u64 {
                let want: Vec<u32> = world
                    .cleaning
                    .kept
                    .iter()
                    .map(|vp| vp.0)
                    .filter(|&id| {
                        (u64::from(id)
                            .wrapping_mul(0x9E37_79B9)
                            .wrapping_add(letter as u64 * 7))
                            % interval
                            == m % interval
                    })
                    .collect();
                assert_eq!(wheel.due(m, i), want.as_slice(), "{letter} minute {m}");
            }
        }
    }

    /// Calls its function every minute, before the probes tick.
    struct Hook(fn(u64, &mut SimWorld));

    impl Subsystem for Hook {
        fn name(&self) -> &'static str {
            "hook"
        }
        fn initial_wakeups(&mut self) -> Vec<SimTime> {
            vec![SimTime::from_mins(1)]
        }
        fn tick(&mut self, world: &mut SimWorld, t: SimTime) -> Vec<SimTime> {
            (self.0)(t.as_secs() / 60, world);
            vec![t + SimDuration::from_mins(1)]
        }
    }

    /// The oracle: the wheel's due lists replayed through the public
    /// string path (`execute_probe` → `clean_outcome` → `record`, whose
    /// `probe_view` resolves every probe afresh), one RNG stream per
    /// (letter, minute) as the lanes draw, with the fault state's probe
    /// actions applied per probe.
    struct StringPath {
        due: ProbeWheel,
    }

    impl Subsystem for StringPath {
        fn name(&self) -> &'static str {
            "probes"
        }
        fn initial_wakeups(&mut self) -> Vec<SimTime> {
            vec![SimTime::from_mins(1)]
        }
        fn tick(&mut self, world: &mut SimWorld, t: SimTime) -> Vec<SimTime> {
            let m = t.as_secs() / 60;
            for i in 0..world.letters.len() {
                let letter = world.letters[i];
                let mut rng = world
                    .rng_factory
                    .indexed_stream(&format!("probes-{letter}"), m);
                for &vp_id in self.due.due(m, i) {
                    let action = world.faults.probe_action(vp_id, letter);
                    if action == ProbeAction::Skip {
                        world.pipeline.shards_mut()[i]
                            .note_missed(VpId(vp_id), t)
                            .expect("a fleet VP");
                        continue;
                    }
                    let vp = world.fleet.vp(VpId(vp_id));
                    let view = target_view(&world.services[i], vp);
                    let raw = execute_probe(vp, letter, view, t, &mut rng);
                    if action == ProbeAction::Discard {
                        world.pipeline.shards_mut()[i]
                            .note_missed(vp.id, t)
                            .expect("a fleet VP");
                    } else {
                        world
                            .pipeline
                            .record(vp.id, letter, t, &clean_outcome(&raw))
                            .expect("letter registered");
                    }
                }
            }
            vec![t + SimDuration::from_mins(1)]
        }
    }

    /// The wheel under test, checked after every tick: its routes are
    /// current, its action tables answer as `probe_action` does and are
    /// rebuilt only when the probe fault set moves, and no more items are
    /// pending than the queue bound allows. With `hold` set to
    /// `(minute, lanes)` and helpers running, a holder thread locks each
    /// of those lanes from that minute's tick until `finish`, so they
    /// run nothing and lag the engine clock.
    struct Checked {
        wheel: ProbeWheel,
        hold: Option<(u64, Vec<usize>)>,
        /// Per held lane: its index, the holder's release and the holder.
        holders: Vec<(usize, mpsc::Sender<()>, std::thread::JoinHandle<()>)>,
        /// The probe fault generations the ticks saw, in order.
        generations: Rc<RefCell<Vec<u64>>>,
    }

    /// Lock `lane` on a thread of its own until `release` is sent; returns
    /// once the lane is held.
    fn hold_lane(
        shared: &Arc<Shared>,
        lane: usize,
    ) -> (mpsc::Sender<()>, std::thread::JoinHandle<()>) {
        let (release, released) = mpsc::channel();
        let (held, is_held) = mpsc::channel();
        let shared = Arc::clone(shared);
        let holder = std::thread::spawn(move || {
            let _lane = lock(&shared.slots[lane].lane);
            held.send(()).expect("the test waits for the hold");
            let _ = released.recv();
        });
        is_held.recv().expect("the holder locks the lane");
        (release, holder)
    }

    impl Subsystem for Checked {
        fn name(&self) -> &'static str {
            "probes"
        }
        fn initial_wakeups(&mut self) -> Vec<SimTime> {
            self.wheel.initial_wakeups()
        }
        fn tick(&mut self, world: &mut SimWorld, t: SimTime) -> Vec<SimTime> {
            let before: Vec<Option<Arc<[ProbeAction]>>> = self
                .wheel
                .captures
                .iter()
                .map(|c| c.actions.clone())
                .collect();
            let wakeups = self.wheel.tick(world, t);
            let m = t.as_secs() / 60;
            let lanes = self.wheel.lanes.as_ref().expect("a tick starts the lanes");
            let bound = if lanes.helpers.handles.is_empty() {
                0
            } else {
                QUEUE_BOUND_MINUTES * lanes.shared.slots.len()
            };
            let pending = lanes.shared.pending.load(Ordering::SeqCst);
            assert!(pending <= bound, "{pending} items pending at {m} min");
            if let Some((from, held)) = &self.hold {
                if *from == m && !lanes.helpers.handles.is_empty() {
                    for &lane in held {
                        let (release, holder) = hold_lane(&lanes.shared, lane);
                        self.holders.push((lane, release, holder));
                    }
                }
            }
            // Faults tick after the probes, so the state now is the one
            // the tick captured.
            let generation = world.faults.probe_generation();
            let moved = {
                let mut seen = self.generations.borrow_mut();
                let moved = seen.last() != Some(&generation);
                if moved {
                    seen.push(generation);
                }
                moved
            };
            for ((cap, svc), old) in self.wheel.captures.iter().zip(&world.services).zip(before) {
                assert_eq!(cap.epoch, svc.catchment_epoch(), "stale routes at {m} min");
                let want: Vec<ProbeAction> = (0..world.fleet.len() as u32)
                    .map(|vp| world.faults.probe_action(vp, cap.letter))
                    .collect();
                match &cap.actions {
                    Some(table) => {
                        assert_eq!(&table[..], &want[..], "{} at {m} min", cap.letter)
                    }
                    None => assert!(
                        want.iter().all(|&a| a == ProbeAction::Normal),
                        "{} has no action table at {m} min",
                        cap.letter
                    ),
                }
                if !moved {
                    let kept = match (&old, &cap.actions) {
                        (None, None) => true,
                        (Some(old), Some(new)) => Arc::ptr_eq(old, new),
                        _ => false,
                    };
                    assert!(kept, "{} rebuilt its table at {m} min", cap.letter);
                }
            }
            wakeups
        }
        fn finish(&mut self, world: &mut SimWorld) {
            if let Some(lanes) = &self.wheel.lanes {
                for (lane, release, holder) in self.holders.drain(..) {
                    let lag = lock(&lanes.shared.slots[lane].queue).items.len();
                    assert!(lag >= 5, "lane {lane} lags only {lag} minutes");
                    release.send(()).expect("the holder waits");
                    holder.join().expect("the holder releases the lane");
                }
            }
            self.wheel.finish(world);
        }
    }

    /// Drive the wheel over one world and the string path over another,
    /// each with `between` ticking before the probes and `cfg`'s faults
    /// after them, the wheel on `threads` threads with `hold` as in
    /// [`Checked`]. Asserts every letter's `LetterData` and the outcome
    /// tallies match; returns the probe fault generations seen.
    fn assert_wheel_matches_string_path(
        cfg: &ScenarioConfig,
        threads: usize,
        hold: Option<(u64, Vec<Letter>)>,
        between: fn(u64, &mut SimWorld),
    ) -> Vec<u64> {
        let rngf = SimRng::new(cfg.seed);
        let (mut fused_obs, mut replay_obs) = (NoopInstrumentation, NoopInstrumentation);
        let mut fused = SimWorld::build(cfg, &rngf, &mut fused_obs).expect("world builds");
        let mut replay = SimWorld::build(cfg, &rngf, &mut replay_obs).expect("world builds");
        let hold = hold.map(|(from, letters)| {
            let idx = letters
                .iter()
                .map(|l| fused.letters.iter().position(|x| x == l).expect("letter"))
                .collect();
            (from, idx)
        });
        let generations = Rc::new(RefCell::new(Vec::new()));
        let mut fused_subs: Vec<Box<dyn Subsystem>> = vec![
            Box::new(Hook(between)),
            Box::new(Checked {
                wheel: ProbeWheel::new(&fused),
                hold,
                holders: Vec::new(),
                generations: Rc::clone(&generations),
            }),
            Box::new(FaultInjector::new(
                rngf.stream("faults"),
                cfg.faults.clone(),
            )),
        ];
        let mut replay_subs: Vec<Box<dyn Subsystem>> = vec![
            Box::new(Hook(between)),
            Box::new(StringPath {
                due: ProbeWheel::new(&replay),
            }),
            Box::new(FaultInjector::new(
                rngf.stream("faults"),
                cfg.faults.clone(),
            )),
        ];
        with_threads(threads, || drive(&mut fused, &mut fused_subs, cfg.horizon));
        drive(&mut replay, &mut replay_subs, cfg.horizon);
        fused.pipeline.finalize();
        replay.pipeline.finalize();
        for &l in &fused.letters {
            assert!(
                fused.pipeline.letter(l) == replay.pipeline.letter(l),
                "letter {l}: the wheel diverged from the string path at {threads} threads"
            );
        }
        assert_eq!(
            fused.pipeline.outcome_stats(),
            replay.pipeline.outcome_stats()
        );
        generations.take()
    }

    #[test]
    fn fused_and_reference_wheels_are_bit_identical() {
        for threads in [1, 3] {
            assert_wheel_matches_string_path(&short_small(10), threads, None, |_, _| {});
        }
    }

    #[test]
    fn wheel_rebuilds_routes_when_a_withdrawal_moves_catchments() {
        // Withdrawing K-LHR mid-run bumps K's catchment epoch between
        // ticks: the wheel must re-resolve its cached routes, or the VPs
        // that moved would keep probing LHR.
        assert_wheel_matches_string_path(&short_small(10), 2, None, |m, world| {
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

    /// `short_small(minutes)` with a probe dropout wave and a firmware
    /// downgrade overlapping, and a site crash inside both windows.
    fn faulted(minutes: u64) -> ScenarioConfig {
        let mut cfg = short_small(minutes);
        cfg.faults = FaultPlan::none()
            .with(
                SimTime::from_mins(3),
                SimDuration::from_mins(10),
                FaultKind::ProbeDropout {
                    fraction: 0.3,
                    letters: vec![Letter::E, Letter::K],
                },
            )
            .with(
                SimTime::from_mins(5),
                SimDuration::from_mins(9),
                FaultKind::FirmwareDowngrade { fraction: 0.2 },
            )
            .with(
                SimTime::from_mins(7),
                SimDuration::from_mins(4),
                FaultKind::SiteCrash {
                    letter: Letter::K,
                    site: "AMS".into(),
                },
            );
        cfg
    }

    #[test]
    fn faulted_lanes_match_the_string_path_and_rebuild_tables_per_transition() {
        let cfg = faulted(20);
        for threads in [1, 3] {
            let generations = assert_wheel_matches_string_path(&cfg, threads, None, |_, _| {});
            // No probe fault, dropout, dropout plus downgrade, downgrade
            // alone, none: every transition reached a tick.
            assert_eq!(generations, vec![0, 1, 2, 3, 4], "{threads} threads");
        }
    }

    #[test]
    fn lagging_lanes_match_the_string_path() {
        // K (the raster and the watches) and E (in the dropout wave) run
        // nothing for the last eight minutes, so `finish` drains eight
        // queued minutes on each.
        for threads in [2, 3] {
            assert_wheel_matches_string_path(
                &faulted(20),
                threads,
                Some((12, vec![Letter::K, Letter::E])),
                |_, _| {},
            );
        }
    }

    #[test]
    fn probe_results_identical_across_thread_counts() {
        let cfg = faulted(12);
        let rngf = SimRng::new(cfg.seed);
        let run_minutes = |threads: usize| {
            with_threads(threads, || {
                let mut obs = NoopInstrumentation;
                let mut world = SimWorld::build(&cfg, &rngf, &mut obs).expect("world builds");
                let mut subs: Vec<Box<dyn Subsystem>> = vec![
                    Box::new(ProbeWheel::new(&world)),
                    Box::new(FaultInjector::new(
                        rngf.stream("faults"),
                        cfg.faults.clone(),
                    )),
                ];
                drive(&mut world, &mut subs, cfg.horizon);
                world.pipeline.finalize();
                let letters: Vec<_> = world
                    .letters
                    .iter()
                    .map(|&l| world.pipeline.letter(l).clone())
                    .collect();
                (letters, world.pipeline.outcome_stats())
            })
        };
        // Back to back in one process, so the later counts start their
        // helpers while earlier ones may still be exiting.
        let single = run_minutes(1);
        for threads in 2..=4 {
            assert!(single == run_minutes(threads), "{threads} threads diverged");
        }
    }

    #[test]
    fn a_panicking_lane_panics_drive_instead_of_hanging() {
        for threads in [1, 2, 3] {
            let (done, outcome) = mpsc::channel();
            std::thread::spawn(move || {
                let cfg = short_small(6);
                let rngf = SimRng::new(cfg.seed);
                let mut obs = NoopInstrumentation;
                let mut world = SimWorld::build(&cfg, &rngf, &mut obs).expect("world builds");
                let mut wheel = ProbeWheel::new(&world);
                // An empty route table marked current: K's first item
                // indexes past it, inside whichever thread runs the lane.
                let k = world
                    .letters
                    .iter()
                    .position(|&l| l == Letter::K)
                    .expect("K present");
                wheel.captures[k].routes = Arc::new([]);
                wheel.captures[k].epoch = world.services[k].catchment_epoch();
                let mut subs: Vec<Box<dyn Subsystem>> = vec![Box::new(wheel)];
                let result = panic::catch_unwind(AssertUnwindSafe(|| {
                    with_threads(threads, || drive(&mut world, &mut subs, cfg.horizon))
                }));
                let _ = done.send(result.err().map(|payload| panic_message(&*payload)));
            });
            let msg = outcome
                .recv_timeout(Duration::from_secs(120))
                .expect("drive hung after a lane panicked")
                .unwrap_or_else(|| panic!("{threads} threads: drive returned normally"));
            assert!(
                msg.starts_with("a probe lane panicked: "),
                "{threads} threads: drive panicked with {msg:?}"
            );
        }
    }

    #[test]
    fn settle_waits_on_a_lane_running_its_last_pending_item() {
        let cfg = short_small(10);
        let rngf = SimRng::new(cfg.seed);
        let mut obs = NoopInstrumentation;
        let mut world = SimWorld::build(&cfg, &rngf, &mut obs).expect("world builds");
        let wheel = ProbeWheel::new(&world);
        let lanes = Lanes::start(world.pipeline.take_shards(), &wheel.due, &rngf, 1);
        let shared = Arc::clone(&lanes.shared);
        // As a helper running lane 3's only pending item: every queue is
        // empty, and the item is pending until it finishes.
        shared.pending.fetch_add(1, Ordering::SeqCst);
        let (release, holder) = hold_lane(&shared, 3);
        let (done, settled) = mpsc::channel();
        let settler = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                shared.settle(0);
                done.send(()).expect("the test waits for settle");
            })
        };
        assert!(
            settled.recv_timeout(Duration::from_millis(200)).is_err(),
            "settle returned with an item pending"
        );
        let passes = shared.settle_passes.load(Ordering::SeqCst);
        assert!(
            passes <= 2,
            "settle rescanned {passes} times while it waited"
        );
        shared.pending.fetch_sub(1, Ordering::SeqCst);
        release.send(()).expect("the holder waits");
        settled
            .recv_timeout(Duration::from_secs(60))
            .expect("settle returns once the lane is released");
        holder.join().expect("the holder releases the lane");
        settler.join().expect("the settler finishes");
        assert_eq!(shared.pending.load(Ordering::SeqCst), 0);
        drop(shared);
        assert_eq!(lanes.finish().len(), world.letters.len());
    }

    #[test]
    fn dropping_a_wheel_mid_run_joins_its_helpers() {
        let cfg = short_small(10);
        let rngf = SimRng::new(cfg.seed);
        let mut obs = NoopInstrumentation;
        let mut world = SimWorld::build(&cfg, &rngf, &mut obs).expect("world builds");
        let mut wheel = ProbeWheel::new(&world);
        with_threads(3, || {
            for m in 1..=5 {
                wheel.tick(&mut world, SimTime::from_mins(m));
            }
        });
        let lanes = wheel
            .lanes
            .as_ref()
            .expect("the first tick starts the lanes");
        assert_eq!(lanes.helpers.handles.len(), 2);
        // Every helper holds the shared state until it exits.
        let shared = Arc::downgrade(&lanes.shared);
        drop(wheel);
        assert!(
            shared.upgrade().is_none(),
            "a helper outlived the dropped wheel"
        );
    }
}
