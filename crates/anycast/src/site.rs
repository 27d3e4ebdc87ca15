//! Anycast sites and the servers inside them (Figure 1's `s_*`/`r_*`).

use crate::policy::{LoadBalancerMode, OverloadTracker, StressPolicy};
use rootcast_bgp::Scope;
use rootcast_netsim::stats::mix64;
use rootcast_netsim::{FluidQueue, SimDuration, SimTime};
use rootcast_topology::AsId;

/// Index of a site within its service.
pub type SiteIdx = usize;

/// Identifier of a shared facility (data center); sites sharing one also
/// share its ingress link (the collateral-damage coupling of §3.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FacilityId(pub u32);

/// Static description of one anycast site.
#[derive(Debug, Clone)]
pub struct SiteSpec {
    /// Airport code, uppercase (`AMS`).
    pub code: String,
    /// The AS hosting the site (its BGP announcement point).
    pub host_as: AsId,
    /// Global or local (NO_EXPORT-confined) announcement.
    pub scope: Scope,
    /// AS-path prepending at announcement (backup sites).
    pub prepend: u16,
    /// Number of servers behind the load balancer.
    pub n_servers: u16,
    /// Aggregate serving capacity, queries/second.
    pub capacity_qps: f64,
    /// Ingress buffer depth in queries (bufferbloat: large buffers turn
    /// overload into seconds of delay instead of immediate loss).
    pub buffer_queries: f64,
    pub stress_policy: StressPolicy,
    pub lb_mode: LoadBalancerMode,
    /// Facility this site lives in, if shared with other services.
    pub facility: Option<FacilityId>,
}

/// Non-routing tuning knobs for one deployed site: serving capacity,
/// ingress buffer depth, and the stress policy. These are exactly the
/// fields a scenario may override *after* the expensive substrate
/// (topology + RIB + probe calibration) is built: none of them feeds
/// the RIB (which depends only on host AS / scope / prepend /
/// announcement) or a calibration probe at `t = 0` (empty queues, no
/// overload episodes). Routing-relevant fields are deliberately not
/// here — changing them would invalidate a shared substrate.
#[derive(Debug, Clone, Default)]
pub struct SiteTuning {
    /// Replace the aggregate serving capacity, q/s.
    pub capacity_qps: Option<f64>,
    /// Replace the ingress buffer depth, queries.
    pub buffer_queries: Option<f64>,
    /// Replace the stress policy.
    pub stress_policy: Option<StressPolicy>,
}

impl SiteTuning {
    /// No-op tuning (all fields `None`).
    pub fn none() -> SiteTuning {
        SiteTuning::default()
    }

    pub fn with_capacity(mut self, qps: f64) -> SiteTuning {
        self.capacity_qps = Some(qps);
        self
    }

    pub fn with_buffer(mut self, queries: f64) -> SiteTuning {
        self.buffer_queries = Some(queries);
        self
    }

    pub fn with_policy(mut self, p: StressPolicy) -> SiteTuning {
        self.stress_policy = Some(p);
        self
    }

    pub fn is_none(&self) -> bool {
        self.capacity_qps.is_none() && self.buffer_queries.is_none() && self.stress_policy.is_none()
    }
}

impl SiteSpec {
    /// A plain global site with sensible defaults: 3 servers, 2-minute
    /// buffer at capacity (heavy bufferbloat), absorb policy.
    pub fn global(code: &str, host_as: AsId, capacity_qps: f64) -> SiteSpec {
        SiteSpec {
            code: code.to_ascii_uppercase(),
            host_as,
            scope: Scope::Global,
            prepend: 0,
            n_servers: 3,
            capacity_qps,
            buffer_queries: capacity_qps * 1.5,
            stress_policy: StressPolicy::Absorb,
            lb_mode: LoadBalancerMode::SharedLink,
            facility: None,
        }
    }

    /// Builder-style adjustments.
    pub fn with_policy(mut self, p: StressPolicy) -> SiteSpec {
        self.stress_policy = p;
        self
    }

    pub fn with_scope(mut self, s: Scope) -> SiteSpec {
        self.scope = s;
        self
    }

    pub fn with_servers(mut self, n: u16) -> SiteSpec {
        assert!(n >= 1);
        self.n_servers = n;
        self
    }

    pub fn with_lb_mode(mut self, m: LoadBalancerMode) -> SiteSpec {
        self.lb_mode = m;
        self
    }

    pub fn with_prepend(mut self, p: u16) -> SiteSpec {
        self.prepend = p;
        self
    }

    pub fn with_facility(mut self, f: FacilityId) -> SiteSpec {
        self.facility = Some(f);
        self
    }

    pub fn with_buffer(mut self, queries: f64) -> SiteSpec {
        self.buffer_queries = queries;
        self
    }
}

/// Dynamic state of one site during a run.
#[derive(Debug, Clone)]
pub struct SiteState {
    pub spec: SiteSpec,
    /// Ingress fluid queue (loss + delay under overload).
    pub queue: FluidQueue,
    /// Whether the site's route is currently announced.
    pub announced: bool,
    /// When to re-announce after a withdrawal, if scheduled.
    pub reannounce_at: Option<SimTime>,
    /// Overload state machine.
    pub tracker: OverloadTracker,
    /// Offered load (qps) as of the last fluid step; cached for probes.
    pub offered_qps: f64,
    /// Loss fraction experienced in the last fluid step.
    pub last_loss: f64,
    /// Extra drop fraction inherited from a congested facility link.
    pub facility_loss: f64,
}

impl SiteState {
    pub fn new(spec: SiteSpec) -> SiteState {
        let queue = FluidQueue::new(spec.capacity_qps, spec.buffer_queries);
        SiteState {
            spec,
            queue,
            announced: true,
            reannounce_at: None,
            tracker: OverloadTracker::default(),
            offered_qps: 0.0,
            last_loss: 0.0,
            facility_loss: 0.0,
        }
    }

    /// Instantaneous utilization under the cached offered load.
    pub fn utilization(&self) -> f64 {
        self.queue.utilization(self.offered_qps)
    }

    /// Stress signal driving policy and load-balancer state: the site's
    /// own utilization, or — when the shared facility link upstream is
    /// dropping — the implied demand/throughput ratio of that link.
    /// A site behind a congested shared ingress is operationally
    /// overloaded even if its own servers are idle (§3.6).
    pub fn stress_signal(&self) -> f64 {
        let u = self.utilization();
        if self.facility_loss > 0.0 {
            u.max(1.0 / (1.0 - self.facility_loss).max(1e-6))
        } else {
            u
        }
    }

    /// Combined probability that a *probe query* arriving now is dropped:
    /// facility-link loss plus ingress-queue loss (independent stages).
    pub fn probe_drop_probability(&self) -> f64 {
        let q = self.queue.drop_probability(self.offered_qps);
        1.0 - (1.0 - self.facility_loss) * (1.0 - q)
    }

    /// Queueing delay added to an accepted query right now.
    pub fn queue_delay(&self) -> SimDuration {
        self.queue.queue_delay()
    }

    /// Served rate (qps) under the last-advanced load: offered ×
    /// (1 − facility loss) × (1 − queue loss).
    pub fn served_qps(&self) -> f64 {
        self.offered_qps * (1.0 - self.facility_loss) * (1.0 - self.last_loss)
    }

    /// The one server still answering, when the LB mode concentrates
    /// load: in `FailoverConcentrate` mode during an overload episode
    /// only one 1-based server ordinal answers, chosen deterministically
    /// per (site, episode). `None` when every server answers.
    pub fn survivor(&self) -> Option<u16> {
        let n = self.spec.n_servers;
        if self.spec.lb_mode == LoadBalancerMode::FailoverConcentrate
            && self.tracker.overloaded
            && n > 1
        {
            let pick = (mix64(
                u64::from(self.tracker.episodes)
                    .wrapping_mul(0x9e37)
                    .wrapping_add(u64::from(self.spec.host_as.0)),
            ) % u64::from(n)) as u16;
            Some(pick + 1)
        } else {
            None
        }
    }

    /// Deterministically map a client hash to the server that answers
    /// it: the survivor if there is one, else a hash over all servers.
    pub fn server_for(&self, client_hash: u64) -> u16 {
        self.survivor().unwrap_or_else(|| {
            (mix64(client_hash ^ u64::from(self.spec.host_as.0) << 17)
                % u64::from(self.spec.n_servers)) as u16
                + 1
        })
    }

    /// Per-server latency skew under load: in `SharedLink` mode, one
    /// hash-designated server is more loaded than its siblings (K-NRT-S2
    /// in Figure 13) and adds half the queue delay again.
    pub fn server_extra_delay(&self, server: u16) -> SimDuration {
        if self.spec.lb_mode == LoadBalancerMode::SharedLink && self.utilization() > 1.0 {
            let hot =
                (mix64(u64::from(self.spec.host_as.0)) % u64::from(self.spec.n_servers)) as u16 + 1;
            if server == hot {
                return SimDuration::from_nanos(self.queue.queue_delay().as_nanos() / 2);
            }
        }
        SimDuration::ZERO
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SiteSpec {
        SiteSpec::global("AMS", AsId(7), 1000.0)
    }

    #[test]
    fn builder_sets_fields() {
        let s = spec()
            .with_servers(5)
            .with_prepend(3)
            .with_scope(Scope::Local)
            .with_facility(FacilityId(2))
            .with_buffer(10.0)
            .with_lb_mode(LoadBalancerMode::FailoverConcentrate)
            .with_policy(StressPolicy::withdraw_sticky());
        assert_eq!(s.n_servers, 5);
        assert_eq!(s.prepend, 3);
        assert_eq!(s.scope, Scope::Local);
        assert_eq!(s.facility, Some(FacilityId(2)));
        assert_eq!(s.buffer_queries, 10.0);
        assert_eq!(s.code, "AMS");
    }

    #[test]
    fn all_servers_respond_when_healthy() {
        let st = SiteState::new(spec());
        assert_eq!(st.survivor(), None);
        let answering: std::collections::BTreeSet<u16> =
            (0..64u64).map(|h| st.server_for(h)).collect();
        assert_eq!(answering.into_iter().collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn failover_concentrates_to_one_survivor_per_episode() {
        let mut st = SiteState::new(spec().with_lb_mode(LoadBalancerMode::FailoverConcentrate));
        st.tracker.overloaded = true;
        st.tracker.episodes = 1;
        let first = st.survivor().expect("one survivor while overloaded");
        assert!((1..=3).contains(&first));
        // A different episode may pick a different survivor but always
        // exactly one, deterministically.
        st.tracker.episodes = 2;
        let second = st.survivor().expect("one survivor while overloaded");
        assert!((1..=3).contains(&second));
        assert_eq!(st.survivor(), Some(second));
        // The episode over, every server answers again.
        st.tracker.overloaded = false;
        assert_eq!(st.survivor(), None);
    }

    #[test]
    fn server_for_targets_responding_server() {
        let mut st = SiteState::new(spec().with_lb_mode(LoadBalancerMode::FailoverConcentrate));
        st.tracker.overloaded = true;
        st.tracker.episodes = 3;
        let survivor = st.survivor().expect("one survivor while overloaded");
        for h in 0..50u64 {
            assert_eq!(st.server_for(h), survivor);
        }
    }

    #[test]
    fn probe_drop_combines_facility_and_queue() {
        let mut st = SiteState::new(spec().with_buffer(0.0));
        st.offered_qps = 2000.0; // 2x capacity, zero buffer -> 50% queue drop
        st.facility_loss = 0.5;
        let p = st.probe_drop_probability();
        assert!((p - 0.75).abs() < 1e-9, "p={p}");
    }

    #[test]
    fn shared_link_has_a_hot_server_only_under_load() {
        let mut st = SiteState::new(spec());
        st.offered_qps = 500.0;
        for s in 1..=3 {
            assert_eq!(st.server_extra_delay(s), SimDuration::ZERO);
        }
        st.offered_qps = 5000.0;
        st.queue.advance(SimTime::from_secs(10), 5000.0);
        let extras: Vec<SimDuration> = (1..=3).map(|s| st.server_extra_delay(s)).collect();
        let hot = extras.iter().filter(|d| !d.is_zero()).count();
        assert_eq!(hot, 1, "exactly one hot server, got {extras:?}");
    }
}
