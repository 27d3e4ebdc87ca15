//! An anycast service: one IP prefix, many sites, one routing state.
//!
//! Each root letter (and each non-root anycast deployment like `.nl`) is
//! an [`AnycastService`]: a set of [`SiteState`]s, the BGP origins they
//! announce, and the current [`Rib`] mapping every AS to its catchment
//! site. The service advances in fluid steps (offered load → queue state
//! → policy decisions → possible route changes) and answers point-in-time
//! probe queries for the measurement layer.

use crate::facility::FacilityTable;
use crate::policy::StressPolicy;
use crate::site::{SiteIdx, SiteProbe, SiteSpec, SiteState};
use rootcast_bgp::{compute_rib_scoped_into, Origin, Rib, RibScratch};
use rootcast_dns::Letter;
use rootcast_netsim::{SimDuration, SimTime};
use rootcast_topology::{AsGraph, AsId};
use std::sync::Arc;

/// Base server processing time added to every successful reply.
const SERVER_PROCESSING: SimDuration = SimDuration::from_micros(500);

/// Route states a service keeps at most (one RIB is about 40 KB at
/// 1,592 ASes). Pulse waves and withdraw/re-announce churn cycle a
/// letter through a handful of announced-site sets, so a small memo
/// turns nearly every recompute into a lookup.
pub const RIB_MEMO_CAP: usize = 16;
const _: () = assert!(RIB_MEMO_CAP >= 2, "eviction keeps the live state");

/// One memoized route state: an announced-site set and the routing
/// table it produces.
#[derive(Debug, Clone)]
struct RouteState {
    /// `announced[site]`, the memo key.
    announced: Vec<bool>,
    rib: Rib,
    /// Catchment epoch at the state's last use; the least recent is
    /// evicted.
    last_used: u64,
}

/// What a probe toward this service would experience right now.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeView {
    /// Index of the site whose catchment contains the prober.
    pub site: SiteIdx,
    /// 1-based ordinal of the server that would answer.
    pub server: u16,
    /// Round-trip time if the query is answered.
    pub rtt: SimDuration,
    /// Probability the query (or its response) is dropped, sanitized to
    /// `[0, 1]`.
    pub drop_prob: f64,
}

/// The part of a [`ProbeView`] that changes only with routing: a probe
/// route from one AS and client hash, from
/// [`AnycastService::probe_route`]. Valid while the service's
/// [`catchment_epoch`](AnycastService::catchment_epoch) is the one it was
/// resolved at; [`ProbeRoute::view`] adds the per-tick site state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeRoute {
    /// Index of the site whose catchment contains the prober.
    pub site: SiteIdx,
    /// The hash-designated server: 1-based, over all the site's servers.
    pub server: u16,
    /// Round-trip network delay: `(route latency + access delay) * 2`.
    pub path_rtt: SimDuration,
}

impl ProbeRoute {
    /// The probe's view through `snap`, this route's site as of now: the
    /// survivor (if any) answers instead of the designated server, and
    /// the RTT adds the queue delay, the hot server's extra delay and
    /// the server processing time to the path RTT.
    #[inline]
    pub fn view(&self, snap: &SiteProbe) -> ProbeView {
        let server = snap.survivor.unwrap_or(self.server);
        ProbeView {
            site: self.site,
            server,
            rtt: self.path_rtt
                + snap.queue_delay
                + snap.server_extra_delay(server)
                + SERVER_PROCESSING,
            drop_prob: snap.drop_prob,
        }
    }
}

/// One anycast deployment.
#[derive(Debug, Clone)]
pub struct AnycastService {
    /// Human-readable name (`"K-root"`, `".nl anycast"`), shared with
    /// every event the run logs for the service.
    pub name: Arc<str>,
    /// The root letter, if this service is one.
    pub letter: Option<Letter>,
    sites: Vec<SiteState>,
    origins: Vec<Origin>,
    /// Route-state memo, at most [`RIB_MEMO_CAP`] states; `states[cur]`
    /// is the live table. A recompute whose announced-site set is
    /// already here only switches `cur`; a miss computes into a new
    /// slot or into the least recently used one (never the live one).
    states: Vec<RouteState>,
    cur: usize,
    /// Did the most recent recompute find its state in the memo?
    last_hit: bool,
    /// Per-AS last-mile delay (indexed by `AsId.0`), snapshotted from the
    /// topology at construction; added to probe RTTs.
    access: Vec<SimDuration>,
    /// Catchment epoch: bumped by every RIB recompute, never by anything
    /// else. A [`CatchmentIndex`] built at epoch E stays valid until the
    /// service reports a different epoch.
    epoch: u64,
    /// Per-AS flag: did this AS's chosen route change in the most recent
    /// recompute? Valid whenever `epoch > 1`.
    changed: Vec<bool>,
    /// Reusable announcement buffer for recomputes: the lookup key.
    active: Vec<bool>,
    rib_scratch: RibScratch,
}

/// Cached per-site weight sums for one `(service RIB, weight vector)`
/// pair, turning [`AnycastService::offered_per_site`]'s O(n_AS) walk into
/// an O(n_sites) fill. Owned by the caller (one index per weight vector),
/// refreshed via [`AnycastService::refresh_catchment_index`], which is a
/// no-op while both the catchment epoch and the weight version are
/// unchanged.
///
/// Caching is a pure reformulation: the cached fill and the uncached
/// [`AnycastService::offered_per_site`] share the same two-pass
/// arithmetic, so results are bit-identical by construction.
#[derive(Debug, Clone, Default)]
pub struct CatchmentIndex {
    /// Epoch this index was built at (0 = never built).
    epoch: u64,
    /// Version of the weight vector this index was built from (0 = never
    /// built; caller-managed versions start at 1).
    weights_version: u64,
    /// Sum over all weights (routed or not), the normalization term.
    wsum: f64,
    /// Per-site sum of weights of the ASes in that site's catchment.
    site_wsum: Vec<f64>,
}

impl CatchmentIndex {
    /// Fill `out` with the offered load per site for a total rate, using
    /// the cached sums: `out[s] = total_qps * site_wsum[s] / wsum`, or
    /// all zeros when the rate or the weight mass is non-positive.
    pub fn offered_per_site_into(&self, total_qps: f64, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.site_wsum.len(), 0.0);
        if total_qps <= 0.0 || self.wsum <= 0.0 {
            return;
        }
        for (o, &sw) in out.iter_mut().zip(&self.site_wsum) {
            *o = total_qps * sw / self.wsum;
        }
    }
}

/// Outcome of a policy step: which sites changed announcement state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoutingChanges {
    pub withdrew: Vec<SiteIdx>,
    pub reannounced: Vec<SiteIdx>,
}

impl RoutingChanges {
    pub fn is_empty(&self) -> bool {
        self.withdrew.is_empty() && self.reannounced.is_empty()
    }

    /// Total number of routing transitions (withdrawals plus
    /// re-announcements).
    pub fn len(&self) -> usize {
        self.withdrew.len() + self.reannounced.len()
    }
}

impl AnycastService {
    /// Build a service and compute its initial routing.
    pub fn new(
        name: &str,
        letter: Option<Letter>,
        graph: &AsGraph,
        site_specs: Vec<SiteSpec>,
    ) -> AnycastService {
        assert!(!site_specs.is_empty(), "a service needs at least one site");
        let origins: Vec<Origin> = site_specs
            .iter()
            .map(|s| Origin {
                host: s.host_as,
                scope: s.scope,
                prepend: s.prepend,
            })
            .collect();
        let sites: Vec<SiteState> = site_specs.into_iter().map(SiteState::new).collect();
        let active: Vec<bool> = sites.iter().map(|s| s.announced).collect();
        let mut rib = Rib::unreachable(graph.len());
        let mut rib_scratch = RibScratch::default();
        compute_rib_scoped_into(graph, &origins, &active, &mut rib, &mut rib_scratch);
        let access = (0..graph.len() as u32)
            .map(|i| graph.access_delay(rootcast_topology::AsId(i)))
            .collect();
        AnycastService {
            name: name.into(),
            letter,
            sites,
            origins,
            states: vec![RouteState {
                announced: active.clone(),
                rib,
                last_used: 1,
            }],
            cur: 0,
            last_hit: false,
            access,
            epoch: 1,
            changed: vec![false; graph.len()],
            active,
            rib_scratch,
        }
    }

    pub fn sites(&self) -> &[SiteState] {
        &self.sites
    }

    pub fn site(&self, idx: SiteIdx) -> &SiteState {
        &self.sites[idx]
    }

    /// Find a site by airport code (first match).
    pub fn site_by_code(&self, code: &str) -> Option<SiteIdx> {
        let code = code.to_ascii_uppercase();
        self.sites.iter().position(|s| s.spec.code == code)
    }

    pub fn rib(&self) -> &Rib {
        &self.states[self.cur].rib
    }

    /// The catchment epoch: changes exactly when the RIB does. Consumers
    /// caching anything derived from catchments key their cache on this.
    pub fn catchment_epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether the most recent recompute was served from the route-state
    /// memo (its announced-site set was already there) rather than
    /// computed. False before any recompute.
    pub fn last_recompute_hit(&self) -> bool {
        self.last_hit
    }

    /// Number of route states the memo holds, the live one included.
    pub fn memo_len(&self) -> usize {
        self.states.len()
    }

    /// Per-AS flags from the most recent recompute: `changed_ases()[asn]`
    /// is set iff that AS's chosen route differs from the previous epoch.
    /// Before any recompute (epoch 1) all flags are false.
    pub fn changed_ases(&self) -> &[bool] {
        &self.changed
    }

    /// The site whose catchment contains `asn`, if the service is
    /// reachable from there.
    pub fn catchment_site(&self, asn: AsId) -> Option<SiteIdx> {
        self.rib().origin_of(asn).map(|o| o.0 as usize)
    }

    /// Distribute a total offered load over sites according to the
    /// current catchments and per-AS weights. `weights[asn]` is the share
    /// of the total load sourced in that AS (need not be normalized;
    /// ASes without a route contribute nothing — their queries die in
    /// the network).
    ///
    /// Contract: `weights` must have exactly one entry per AS in the
    /// graph the service was built over (`weights.len() == n_ases`);
    /// debug builds assert this, release builds would misattribute load
    /// or panic mid-iteration on a short vector. Returns all zeros when
    /// `total_qps <= 0` or the weight mass is non-positive.
    ///
    /// This is the uncached entry point: it rebuilds a throwaway
    /// [`CatchmentIndex`] and runs the same fill as the cached path, so
    /// the two are bit-identical by construction. Hot loops should hold a
    /// `CatchmentIndex` and use [`Self::refresh_catchment_index`] +
    /// [`CatchmentIndex::offered_per_site_into`] instead.
    pub fn offered_per_site(&self, weights: &[f64], total_qps: f64) -> Vec<f64> {
        let mut idx = CatchmentIndex::default();
        self.refresh_catchment_index(&mut idx, weights, 1);
        let mut out = Vec::new();
        idx.offered_per_site_into(total_qps, &mut out);
        out
    }

    /// Bring `idx` up to date with the current RIB and weight vector.
    /// No-op while both the catchment epoch and `weights_version` match
    /// what the index was built from; otherwise the per-site weight sums
    /// are rebuilt in one O(n_AS) pass. `weights_version` is a
    /// caller-managed counter identifying the weight vector's content
    /// (bump it whenever the vector is rewritten; must be ≥ 1).
    ///
    /// Returns `true` when the index was rebuilt, `false` on a cache
    /// hit — callers feed this into cache-effectiveness metrics.
    pub fn refresh_catchment_index(
        &self,
        idx: &mut CatchmentIndex,
        weights: &[f64],
        weights_version: u64,
    ) -> bool {
        debug_assert!(weights_version > 0, "weight versions start at 1");
        if idx.epoch == self.epoch && idx.weights_version == weights_version {
            return false;
        }
        debug_assert_eq!(
            weights.len(),
            self.access.len(),
            "{}: weight vector has {} entries but the graph has {} ASes",
            self.name,
            weights.len(),
            self.access.len()
        );
        idx.wsum = weights.iter().sum();
        idx.site_wsum.clear();
        idx.site_wsum.resize(self.sites.len(), 0.0);
        for (asn, route) in self.rib().iter() {
            let w = weights[asn.0 as usize];
            if w > 0.0 {
                idx.site_wsum[route.origin.0 as usize] += w;
            }
        }
        idx.epoch = self.epoch;
        idx.weights_version = weights_version;
        true
    }

    /// Scratch-buffer reuse stats of this service's RIB recomputes:
    /// `(reuses, allocs)` from the underlying
    /// [`RibScratch`].
    pub fn scratch_stats(&self) -> (u64, u64) {
        self.rib_scratch.reuse_stats()
    }

    /// Phase 1 of a fluid step: account the offered load into facility
    /// links (shared risk) before any queue advances.
    pub fn stage_facility_load(&self, offered: &[f64], facilities: &mut FacilityTable) {
        assert_eq!(offered.len(), self.sites.len());
        for (site, &qps) in self.sites.iter().zip(offered) {
            if let Some(fid) = site.spec.facility {
                facilities.add_load(fid, qps);
            }
        }
    }

    /// Phase 2: advance each site's ingress queue to `now` under the
    /// offered load, after facility losses thin the arriving stream.
    pub fn advance_queues(&mut self, now: SimTime, offered: &[f64], facilities: &FacilityTable) {
        assert_eq!(offered.len(), self.sites.len());
        for (site, &qps) in self.sites.iter_mut().zip(offered) {
            let facility_loss = site
                .spec
                .facility
                .map(|f| facilities.loss(f))
                .unwrap_or(0.0);
            let arriving = qps * (1.0 - facility_loss);
            site.facility_loss = facility_loss;
            site.offered_qps = qps;
            site.last_loss = site.queue.advance(now, arriving);
        }
    }

    /// Phase 3: run stress policies; possibly withdraw or re-announce
    /// sites. Returns the set of changes (empty = routing untouched).
    /// When changes occur the RIB is recomputed immediately.
    pub fn apply_policies(&mut self, now: SimTime, graph: &AsGraph) -> RoutingChanges {
        let mut changes = RoutingChanges::default();
        for (idx, site) in self.sites.iter_mut().enumerate() {
            // Scheduled re-announcement first.
            if let Some(at) = site.reannounce_at {
                if site.announced {
                    // Defensive: a site cannot be both announced and
                    // awaiting re-announcement.
                    site.reannounce_at = None;
                } else if now >= at {
                    site.announced = true;
                    site.reannounce_at = None;
                    site.queue.reset(now);
                    site.tracker = Default::default();
                    changes.reannounced.push(idx);
                }
            }
            if !site.announced {
                continue;
            }
            let StressPolicy::Withdraw {
                overload_ratio,
                sustain,
                retry_after,
                after_episodes,
            } = site.spec.stress_policy
            else {
                // Absorb: update the tracker anyway (drives per-server
                // failover behaviour) but never withdraw.
                let ratio_for_lb = 1.0;
                site.tracker
                    .update(now, site.stress_signal(), ratio_for_lb, SimDuration::ZERO);
                continue;
            };
            let tripped = site
                .tracker
                .update(now, site.stress_signal(), overload_ratio, sustain);
            if tripped && site.tracker.episodes >= after_episodes {
                site.announced = false;
                site.reannounce_at = retry_after.map(|d| now + d);
                site.queue.reset(now);
                changes.withdrew.push(idx);
            }
        }
        if !changes.is_empty() {
            self.recompute_rib(graph);
        }
        changes
    }

    /// Apply a [`SiteTuning`](crate::SiteTuning) to one site, rebuilding its ingress queue
    /// from the new spec so the result is state-identical to a service
    /// freshly built with the tuned spec. Only valid on a pristine
    /// (never-advanced) service: the queue is replaced, so any
    /// accumulated backlog would be silently dropped. The substrate
    /// sharing path calls this right after cloning the baseline
    /// services, before the first fluid step.
    ///
    /// The tuning deliberately cannot touch routing-relevant fields
    /// (host AS, scope, prepend, server count, announcement): the RIB
    /// and the `t = 0` calibration probes stay valid by construction.
    pub fn retune_site(&mut self, idx: SiteIdx, tuning: &crate::site::SiteTuning) {
        let site = &mut self.sites[idx];
        debug_assert!(
            site.offered_qps == 0.0 && site.announced && site.reannounce_at.is_none(),
            "{}: retune_site on a non-pristine site {}",
            self.name,
            site.spec.code
        );
        if let Some(cap) = tuning.capacity_qps {
            site.spec.capacity_qps = cap;
        }
        if let Some(buf) = tuning.buffer_queries {
            site.spec.buffer_queries = buf;
        }
        if let Some(p) = tuning.stress_policy {
            site.spec.stress_policy = p;
        }
        site.queue =
            rootcast_netsim::FluidQueue::new(site.spec.capacity_qps, site.spec.buffer_queries);
    }

    /// Force a site's announcement state (operator action); recomputes
    /// routing if it changed.
    pub fn set_announced(&mut self, idx: SiteIdx, announced: bool, graph: &AsGraph) -> bool {
        if self.sites[idx].announced == announced {
            return false;
        }
        self.sites[idx].announced = announced;
        self.sites[idx].reannounce_at = None;
        self.recompute_rib(graph);
        true
    }

    /// Bump the epoch and switch to the route state of the current
    /// announced-site set: look it up in the memo, compute it on a miss,
    /// then diff it against the outgoing table. The table is a
    /// pure function of (graph, origins, announced set), so a hit
    /// yields the table a recompute would; debug builds recompute every
    /// hit and compare.
    fn recompute_rib(&mut self, graph: &AsGraph) {
        self.active.clear();
        self.active.extend(self.sites.iter().map(|s| s.announced));
        self.epoch += 1;
        let prev = self.cur;
        let hit = self.states.iter().position(|s| s.announced == self.active);
        let next = match hit {
            Some(i) => {
                #[cfg(debug_assertions)]
                assert!(
                    self.states[i].rib
                        == rootcast_bgp::compute_rib_scoped(graph, &self.origins, &self.active),
                    "{}: memoized route state for {:?} differs from a fresh recompute",
                    self.name,
                    self.active
                );
                i
            }
            None => {
                let i = if self.states.len() < RIB_MEMO_CAP {
                    self.states.push(RouteState {
                        announced: Vec::new(),
                        rib: Rib::unreachable(0),
                        last_used: 0,
                    });
                    self.states.len() - 1
                } else {
                    // Evict the least recently used state other than the
                    // live one (the cap is at least 2).
                    let mut lru = usize::from(prev == 0);
                    for (i, s) in self.states.iter().enumerate() {
                        if i != prev && s.last_used < self.states[lru].last_used {
                            lru = i;
                        }
                    }
                    lru
                };
                let slot = &mut self.states[i];
                slot.announced.clone_from(&self.active);
                compute_rib_scoped_into(
                    graph,
                    &self.origins,
                    &self.active,
                    &mut slot.rib,
                    &mut self.rib_scratch,
                );
                i
            }
        };
        self.states[next].last_used = self.epoch;
        self.states[next]
            .rib
            .diff_into(&self.states[prev].rib, &mut self.changed);
        self.cur = next;
        self.last_hit = hit.is_some();
    }

    /// What a probe from `asn` (client hash `client_hash`) would see
    /// right now, or `None` if the service is unreachable from there:
    /// [`Self::probe_route`] viewed through the catchment site's
    /// snapshot. A caller resolving many probes keeps the routes for an
    /// epoch and the snapshots for a tick ([`Self::site_probes_into`]).
    pub fn probe_view(&self, asn: AsId, client_hash: u64) -> Option<ProbeView> {
        let route = self.probe_route(asn, client_hash)?;
        Some(route.view(&self.sites[route.site].probe_snapshot()))
    }

    /// The routing half of a probe from `asn` (client hash
    /// `client_hash`), or `None` if the service is unreachable from
    /// there. Valid for the current [`Self::catchment_epoch`].
    pub fn probe_route(&self, asn: AsId, client_hash: u64) -> Option<ProbeRoute> {
        let route = self.rib().route(asn)?;
        let site = route.origin.0 as usize;
        Some(ProbeRoute {
            site,
            server: self.sites[site].spec.server_for(client_hash),
            path_rtt: (route.latency + self.access[asn.0 as usize]) * 2,
        })
    }

    /// Every site's [`SiteProbe`] snapshot, in site order, into a
    /// caller-owned buffer. Valid until the next fluid step or routing
    /// change.
    pub fn site_probes_into(&self, out: &mut Vec<SiteProbe>) {
        out.clear();
        out.extend(self.sites.iter().map(SiteState::probe_snapshot));
    }

    /// Aggregate served rate (qps) per site under the last-advanced load:
    /// offered × (1 − facility loss) × (1 − queue loss). Feeds RSSAC
    /// query counters.
    pub fn served_per_site(&self) -> Vec<f64> {
        let mut out = Vec::new();
        self.served_per_site_into(&mut out);
        out
    }

    /// [`Self::served_per_site`] into a caller-owned buffer.
    pub fn served_per_site_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.sites.iter().map(|s| s.served_qps()));
    }

    /// Total served rate across all sites (same summation order as
    /// summing [`Self::served_per_site`]), without allocating.
    pub fn served_total(&self) -> f64 {
        self.sites.iter().map(|s| s.served_qps()).sum()
    }

    /// Indices of currently announced sites.
    pub fn announced_sites(&self) -> Vec<SiteIdx> {
        self.sites
            .iter()
            .enumerate()
            .filter(|(_, s)| s.announced)
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::LoadBalancerMode;
    use rootcast_netsim::SimRng;
    use rootcast_topology::{gen, Tier, TopologyParams};

    fn build() -> (AsGraph, AnycastService, Vec<AsId>) {
        let g = gen::generate(&TopologyParams::tiny(), &SimRng::new(5));
        let stubs = g.by_tier(Tier::Stub);
        let specs = vec![
            SiteSpec::global("AMS", stubs[0], 1000.0),
            SiteSpec::global("IAD", stubs[1], 1000.0).with_policy(StressPolicy::withdraw_default()),
        ];
        let svc = AnycastService::new("test", Some(Letter::K), &g, specs);
        (g, svc, stubs)
    }

    #[test]
    fn initial_rib_covers_graph() {
        let (g, svc, _) = build();
        assert_eq!(svc.rib().reachable_count(), g.len());
        assert_eq!(svc.announced_sites(), vec![0, 1]);
    }

    #[test]
    fn offered_load_splits_by_catchment() {
        let (g, svc, _) = build();
        let weights = vec![1.0; g.len()];
        let per_site = svc.offered_per_site(&weights, 1000.0);
        let total: f64 = per_site.iter().sum();
        assert!((total - 1000.0).abs() < 1e-6, "total={total}");
        assert!(per_site.iter().all(|&q| q > 0.0), "{per_site:?}");
    }

    #[test]
    fn catchment_index_matches_uncached_and_tracks_epoch() {
        let (g, mut svc, _) = build();
        let weights: Vec<f64> = (0..g.len()).map(|i| (i % 7) as f64 * 0.25).collect();
        let mut idx = CatchmentIndex::default();
        let mut cached = Vec::new();

        svc.refresh_catchment_index(&mut idx, &weights, 1);
        idx.offered_per_site_into(1234.5, &mut cached);
        assert_eq!(cached, svc.offered_per_site(&weights, 1234.5));

        // A routing change bumps the epoch and records exactly the ASes
        // whose routes moved.
        let before = svc.rib().clone();
        let epoch0 = svc.catchment_epoch();
        assert!(svc.set_announced(1, false, &g));
        assert_eq!(svc.catchment_epoch(), epoch0 + 1);
        let changed = svc.changed_ases();
        assert_eq!(changed.len(), g.len());
        let mut n_changed = 0;
        for (i, &did_change) in changed.iter().enumerate() {
            let asn = AsId(i as u32);
            assert_eq!(did_change, before.route(asn) != svc.rib().route(asn));
            n_changed += did_change as usize;
        }
        assert!(n_changed > 0, "withdrawal changed no routes");

        // The stale index refreshes to the new catchments and stays
        // bit-identical to the uncached path.
        svc.refresh_catchment_index(&mut idx, &weights, 1);
        idx.offered_per_site_into(1234.5, &mut cached);
        assert_eq!(cached, svc.offered_per_site(&weights, 1234.5));
        assert_eq!(cached[1], 0.0, "withdrawn site still offered load");

        // Zero total and zero weight mass both yield all-zero fills.
        idx.offered_per_site_into(0.0, &mut cached);
        assert!(cached.iter().all(|&q| q == 0.0));
        assert_eq!(
            svc.offered_per_site(&vec![0.0; g.len()], 1234.5),
            vec![0.0; 2]
        );
    }

    #[test]
    fn withdraw_policy_fires_and_shifts_catchment() {
        let (g, mut svc, _) = build();
        let weights = vec![1.0; g.len()];
        let facilities = FacilityTable::new();
        // Overload site 1 (IAD, withdraw policy) way past 2x capacity.
        let mut offered = svc.offered_per_site(&weights, 50_000.0);
        // Make sure site 1 sees heavy load regardless of catchment split.
        offered[1] = offered[1].max(10_000.0);
        let mut t = SimTime::ZERO;
        let step = SimDuration::from_mins(1);
        let mut withdrew = false;
        for _ in 0..10 {
            t += step;
            svc.advance_queues(t, &offered, &facilities);
            let ch = svc.apply_policies(t, &g);
            if ch.withdrew.contains(&1) {
                withdrew = true;
                break;
            }
        }
        assert!(withdrew, "withdraw policy never fired");
        assert_eq!(svc.announced_sites(), vec![0]);
        // All catchments now at site 0.
        assert_eq!(svc.rib().catchment_sizes(2), vec![g.len(), 0],);
        // Re-announce happens ~30 min later.
        let again = SimTime::ZERO + SimDuration::from_mins(45);
        svc.advance_queues(again, &[0.0; 2], &facilities);
        let ch = svc.apply_policies(again, &g);
        assert_eq!(ch.reannounced, vec![1]);
        let _ = facilities;
    }

    #[test]
    fn absorb_policy_never_withdraws() {
        let (g, mut svc, _) = build();
        let facilities = FacilityTable::new();
        let offered = vec![100_000.0, 0.0];
        let mut t = SimTime::ZERO;
        for _ in 0..20 {
            t += SimDuration::from_mins(1);
            svc.advance_queues(t, &offered, &facilities);
            let ch = svc.apply_policies(t, &g);
            assert!(ch.withdrew.is_empty());
        }
        assert_eq!(svc.announced_sites(), vec![0, 1]);
        // But the absorbing site is lossy and slow.
        assert!(
            svc.site(0).last_loss > 0.9,
            "loss={}",
            svc.site(0).last_loss
        );
        assert!(svc.site(0).queue_delay() > SimDuration::from_millis(500));
    }

    #[test]
    fn probe_view_reflects_overload() {
        let (g, mut svc, stubs) = build();
        let facilities = FacilityTable::new();
        // Find an AS in site 0's catchment.
        let victim = *stubs
            .iter()
            .find(|&&s| svc.catchment_site(s) == Some(0))
            .expect("someone in site 0");
        let healthy = svc.probe_view(victim, 42).unwrap();
        assert_eq!(healthy.site, 0);
        assert_eq!(healthy.drop_prob, 0.0);
        // Saturate site 0 for a while.
        let offered = vec![50_000.0, 0.0];
        let mut t = SimTime::ZERO;
        for _ in 0..5 {
            t += SimDuration::from_mins(1);
            svc.advance_queues(t, &offered, &facilities);
        }
        let stressed = svc.probe_view(victim, 42).unwrap();
        assert!(stressed.rtt > healthy.rtt + SimDuration::from_millis(100));
        assert!(stressed.drop_prob > 0.9);
        let _ = g;
    }

    /// The per-probe formula the site snapshot replaced, kept as the
    /// oracle: every term read straight from the live site state.
    fn per_probe_view(svc: &AnycastService, asn: AsId, client_hash: u64) -> Option<ProbeView> {
        use rootcast_netsim::stats::mix64;
        let route = svc.rib().route(asn)?;
        let site_idx = route.origin.0 as usize;
        let site = &svc.sites[site_idx];
        let n = u64::from(site.spec.n_servers);
        let host = u64::from(site.spec.host_as.0);
        let server = site
            .survivor()
            .unwrap_or_else(|| (mix64(client_hash ^ host << 17) % n) as u16 + 1);
        let hot = (mix64(host) % n) as u16 + 1;
        let extra = if site.spec.lb_mode == LoadBalancerMode::SharedLink
            && site.utilization() > 1.0
            && server == hot
        {
            SimDuration::from_nanos(site.queue_delay().as_nanos() / 2)
        } else {
            SimDuration::ZERO
        };
        Some(ProbeView {
            site: site_idx,
            server,
            rtt: (route.latency + svc.access[asn.0 as usize]) * 2
                + site.queue_delay()
                + extra
                + SERVER_PROCESSING,
            drop_prob: site.probe_drop_probability(),
        })
    }

    #[test]
    fn snapshot_views_match_the_per_probe_formula() {
        use crate::facility::FacilityTable;
        use crate::site::FacilityId;
        let g = gen::generate(&TopologyParams::tiny(), &SimRng::new(5));
        let stubs = g.by_tier(Tier::Stub);
        let fac = FacilityId(0);
        let specs = vec![
            SiteSpec::global("AMS", stubs[0], 1000.0).with_facility(fac),
            SiteSpec::global("IAD", stubs[1], 1000.0)
                .with_lb_mode(LoadBalancerMode::FailoverConcentrate)
                .with_facility(fac),
            SiteSpec::global("NRT", stubs[2], 1000.0),
        ];
        let mut svc = AnycastService::new("test", Some(Letter::K), &g, specs);
        let mut facilities = FacilityTable::new();
        facilities.register(fac, 20_000.0, 0.0);
        let mut snaps = Vec::new();
        let hashes: Vec<u64> = (0..63u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .chain([u64::MAX])
            .collect();
        // Both entry points — the one-off `probe_view` and a route
        // viewed through the tick's snapshots — against the formula.
        let check = |svc: &AnycastService, snaps: &mut Vec<SiteProbe>| {
            svc.site_probes_into(snaps);
            for asn in (0..g.len() as u32).map(AsId) {
                for &h in &hashes {
                    let expected = per_probe_view(svc, asn, h);
                    assert_eq!(svc.probe_view(asn, h), expected, "{asn:?} hash {h}");
                    let routed = svc.probe_route(asn, h).map(|r| r.view(&snaps[r.site]));
                    assert_eq!(routed, expected, "{asn:?} hash {h}");
                }
            }
        };
        // Healthy: no hot server, no survivor, no loss.
        check(&svc, &mut snaps);
        assert!(snaps
            .iter()
            .all(|s| s.hot.is_none() && s.survivor.is_none()));
        // Overload both facility-sharing sites: AMS (SharedLink) gets a
        // hot server, IAD (FailoverConcentrate) a survivor, and the
        // shared facility link drops part of the stream.
        let offered = vec![40_000.0, 40_000.0, 10.0];
        let mut t = SimTime::ZERO;
        for _ in 0..5 {
            t += SimDuration::from_mins(1);
            svc.stage_facility_load(&offered, &mut facilities);
            facilities.advance(t);
            svc.advance_queues(t, &offered, &facilities);
            svc.apply_policies(t, &g);
        }
        check(&svc, &mut snaps);
        assert!(
            svc.site(0).facility_loss > 0.0,
            "facility link not congested"
        );
        assert!(
            snaps[0].hot.is_some(),
            "SharedLink overload has no hot server"
        );
        assert!(
            snaps[1].survivor.is_some(),
            "FailoverConcentrate has no survivor"
        );
        assert!(snaps[0].drop_prob > 0.0 && snaps[2].drop_prob == 0.0);

        // A withdrawal moves NRT's catchment: routes resolved at the old
        // epoch go stale, and fresh ones match the formula again.
        let routes = |svc: &AnycastService| -> Vec<Option<ProbeRoute>> {
            (0..g.len() as u32)
                .map(|i| svc.probe_route(AsId(i), 42))
                .collect()
        };
        let (stale, epoch) = (routes(&svc), svc.catchment_epoch());
        assert!(svc.set_announced(2, false, &g));
        assert_ne!(svc.catchment_epoch(), epoch);
        let fresh = routes(&svc);
        assert!(stale.iter().any(|r| r.is_some_and(|r| r.site == 2)));
        assert!(fresh.iter().all(|r| r.is_none_or(|r| r.site != 2)));
        check(&svc, &mut snaps);
    }

    #[test]
    fn set_announced_recomputes() {
        let (g, mut svc, _) = build();
        assert!(svc.set_announced(0, false, &g));
        assert!(!svc.set_announced(0, false, &g), "no-op returns false");
        assert_eq!(svc.rib().catchment_sizes(2)[0], 0);
        assert!(svc.set_announced(0, true, &g));
        assert!(svc.rib().catchment_sizes(2)[0] > 0);
    }

    #[test]
    fn served_rate_accounts_losses() {
        let (g, mut svc, _) = build();
        let facilities = FacilityTable::new();
        let offered = vec![2_000.0, 100.0];
        svc.advance_queues(SimTime::from_mins(30), &offered, &facilities);
        let served = svc.served_per_site();
        // Site 0 at 2x capacity serves ~1000 once its buffer fills;
        // site 1 serves everything.
        assert!(served[0] < 1900.0, "served={served:?}");
        assert!((served[1] - 100.0).abs() < 1e-9);
        let _ = g;
    }

    #[test]
    fn failover_mode_concentrates_probe_servers() {
        let g = gen::generate(&TopologyParams::tiny(), &SimRng::new(6));
        let stubs = g.by_tier(Tier::Stub);
        let spec = SiteSpec::global("FRA", stubs[0], 1000.0)
            .with_lb_mode(LoadBalancerMode::FailoverConcentrate);
        let mut svc = AnycastService::new("k", Some(Letter::K), &g, vec![spec]);
        let facilities = FacilityTable::new();
        // Healthy: different client hashes see different servers.
        let servers: std::collections::BTreeSet<u16> = (0..64)
            .map(|h| svc.probe_view(stubs[1], h).unwrap().server)
            .collect();
        assert!(
            servers.len() > 1,
            "expected server diversity, got {servers:?}"
        );
        // Overloaded: exactly one server answers everyone.
        let mut t = SimTime::ZERO;
        for _ in 0..5 {
            t += SimDuration::from_mins(1);
            svc.advance_queues(t, &[5_000.0], &facilities);
            svc.apply_policies(t, &g);
        }
        let servers: std::collections::BTreeSet<u16> = (0..64)
            .map(|h| svc.probe_view(stubs[1], h).unwrap().server)
            .collect();
        assert_eq!(servers.len(), 1, "survivor only, got {servers:?}");
    }
}
