//! The engine's metric catalog: every counter, gauge, and histogram a
//! run maintains, as static handles into a
//! [`MetricsRegistry`].
//!
//! The registry itself (flat `Vec` storage, O(1) handle access) lives in
//! `rootcast-netsim`; this module owns the *names* — one `const` handle
//! per metric, declared in the same order as the name tables, so a
//! subsystem increments `keys::FLUID_WINDOWS` without a hash lookup and
//! the snapshot still exports `"fluid.windows"`. A unit test pins the
//! handle/name correspondence.
//!
//! Updating a metric never influences simulation state: the registry is
//! write-only from the subsystems' perspective and only read when the
//! run snapshots it into [`SimOutput`](crate::sim::SimOutput).

use crate::render::TextTable;
use rootcast_netsim::{
    CounterId, GaugeId, HistogramId, HistogramSpec, MetricsRegistry, MetricsSnapshot,
};

/// Static metric handles, grouped by owning subsystem.
pub mod keys {
    use super::{CounterId, GaugeId, HistogramId};

    // Fluid subsystem.
    pub const FLUID_WINDOWS: CounterId = CounterId(0);
    pub const CATCHMENT_INDEX_HITS: CounterId = CounterId(1);
    pub const CATCHMENT_INDEX_REBUILDS: CounterId = CounterId(2);
    pub const SITE_SATURATION_ONSETS: CounterId = CounterId(3);
    pub const SITE_SATURATION_CLEARS: CounterId = CounterId(4);
    pub const POLICY_TRANSITIONS: CounterId = CounterId(5);
    // BGP engine (counted at the engine's observe_routes choke point).
    pub const BGP_ROUTE_RECOMPUTES: CounterId = CounterId(6);
    pub const BGP_CHANGED_ASES: CounterId = CounterId(7);
    pub const BGP_COLLECTOR_UPDATES: CounterId = CounterId(8);
    pub const BGP_SCRATCH_REUSES: CounterId = CounterId(9);
    pub const BGP_SCRATCH_ALLOCS: CounterId = CounterId(10);
    // RSSAC accounting.
    pub const RSSAC_WINDOWS_OBSERVED: CounterId = CounterId(11);
    pub const RSSAC_WINDOWS_GAPPED: CounterId = CounterId(12);
    pub const RRL_ACTIVATIONS: CounterId = CounterId(13);
    // Atlas probing.
    pub const PROBES_FUSED: CounterId = CounterId(14);
    pub const PROBES_SITE: CounterId = CounterId(15);
    pub const PROBES_TIMEOUT: CounterId = CounterId(16);
    pub const PROBES_ERROR: CounterId = CounterId(17);
    pub const PROBES_MISSED: CounterId = CounterId(18);
    // Resolver refresh / maintenance / faults.
    pub const RESOLVER_REFRESHES: CounterId = CounterId(19);
    pub const MAINTENANCE_WITHDRAWALS: CounterId = CounterId(20);
    pub const MAINTENANCE_REANNOUNCEMENTS: CounterId = CounterId(21);
    pub const FAULT_INJECTIONS: CounterId = CounterId(22);
    pub const FAULT_RECOVERIES: CounterId = CounterId(23);
    // Trace bookkeeping.
    pub const TRACE_EVENTS_DROPPED: CounterId = CounterId(24);
    // Route-state memo (counted at observe_routes, like the BGP block).
    pub const BGP_RIB_MEMO_HITS: CounterId = CounterId(25);
    pub const BGP_RIB_MEMO_MISSES: CounterId = CounterId(26);

    pub const SITES_SATURATED: GaugeId = GaugeId(0);
    pub const PEAK_OFFERED_QPS: GaugeId = GaugeId(1);
    pub const WORST_SERVED_RATIO: GaugeId = GaugeId(2);
    pub const VPS_KEPT: GaugeId = GaugeId(3);
    pub const VPS_DROPPED: GaugeId = GaugeId(4);

    pub const SERVED_RATIO: HistogramId = HistogramId(0);
    pub const QUEUE_DELAY_MS: HistogramId = HistogramId(1);
    pub const CHANGED_AS_POPCOUNT: HistogramId = HistogramId(2);
}

/// Counter names, indexed by `CounterId.0`.
pub const COUNTER_NAMES: &[&str] = &[
    "fluid.windows",
    "fluid.catchment_index.hits",
    "fluid.catchment_index.rebuilds",
    "fluid.site_saturation.onsets",
    "fluid.site_saturation.clears",
    "fluid.policy_transitions",
    "bgp.route_recomputes",
    "bgp.changed_ases",
    "bgp.collector_updates",
    "bgp.scratch.reuses",
    "bgp.scratch.allocs",
    "rssac.windows.observed",
    "rssac.windows.gapped",
    "rssac.rrl_activations",
    "probes.fused",
    "probes.outcome.site",
    "probes.outcome.timeout",
    "probes.outcome.error",
    "probes.outcome.missed",
    "resolvers.refreshes",
    "maintenance.withdrawals",
    "maintenance.reannouncements",
    "faults.injections",
    "faults.recoveries",
    "trace.events_dropped",
    "bgp.rib_memo.hits",
    "bgp.rib_memo.misses",
];

/// Gauge names, indexed by `GaugeId.0`.
pub const GAUGE_NAMES: &[&str] = &[
    "fluid.sites_saturated",
    "fluid.peak_offered_qps",
    "fluid.worst_served_ratio",
    "atlas.vps_kept",
    "atlas.vps_dropped",
];

/// Histogram specs, indexed by `HistogramId.0`.
pub const HISTOGRAM_SPECS: &[HistogramSpec] = &[
    HistogramSpec {
        name: "fluid.served_ratio",
        bounds: &[0.5, 0.9, 0.99, 0.999, 1.0],
    },
    HistogramSpec {
        name: "fluid.queue_delay_ms",
        bounds: &[1.0, 10.0, 100.0, 1_000.0, 5_000.0],
    },
    HistogramSpec {
        name: "bgp.changed_as_popcount",
        bounds: &[0.0, 1.0, 10.0, 100.0, 1_000.0],
    },
];

/// Build the engine's registry with the full catalog registered.
pub fn engine_registry() -> MetricsRegistry {
    MetricsRegistry::new(COUNTER_NAMES, GAUGE_NAMES, HISTOGRAM_SPECS)
}

/// Render a snapshot as text tables: non-zero counters, set gauges, and
/// histogram bucket rows. Counters that never fired are skipped so the
/// table shows what the run actually exercised.
pub fn render_metrics(snap: &MetricsSnapshot) -> Vec<TextTable> {
    let mut counters = TextTable::new("Engine counters", &["counter", "count"]);
    for (name, v) in &snap.counters {
        if *v > 0 {
            counters.row(vec![name.clone(), v.to_string()]);
        }
    }
    let mut gauges = TextTable::new("Engine gauges", &["gauge", "value"]);
    for (name, v) in &snap.gauges {
        gauges.row(vec![name.clone(), crate::render::num(*v, 3)]);
    }
    let mut hists = TextTable::new(
        "Engine histograms",
        &["histogram", "bucket", "count", "mean"],
    );
    for h in &snap.histograms {
        let mean = h.mean().map(|m| crate::render::num(m, 3));
        for (b, &count) in h.counts.iter().enumerate() {
            let label = match h.bounds.get(b) {
                Some(bound) => format!("<= {bound}"),
                None => "overflow".to_string(),
            };
            hists.row(vec![
                h.name.clone(),
                label,
                count.to_string(),
                if b == 0 {
                    mean.clone().unwrap_or_else(|| "–".into())
                } else {
                    String::new()
                },
            ]);
        }
    }
    vec![counters, gauges, hists]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_agree_with_name_tables() {
        // Every const handle indexes the name it claims; the catalog
        // and the name tables cannot drift apart silently.
        assert_eq!(COUNTER_NAMES[keys::FLUID_WINDOWS.0], "fluid.windows");
        assert_eq!(
            COUNTER_NAMES[keys::CATCHMENT_INDEX_HITS.0],
            "fluid.catchment_index.hits"
        );
        assert_eq!(
            COUNTER_NAMES[keys::BGP_ROUTE_RECOMPUTES.0],
            "bgp.route_recomputes"
        );
        assert_eq!(
            COUNTER_NAMES[keys::TRACE_EVENTS_DROPPED.0],
            "trace.events_dropped"
        );
        assert_eq!(
            COUNTER_NAMES[keys::BGP_RIB_MEMO_MISSES.0],
            "bgp.rib_memo.misses"
        );
        assert_eq!(COUNTER_NAMES.len(), keys::BGP_RIB_MEMO_MISSES.0 + 1);
        assert_eq!(GAUGE_NAMES[keys::VPS_DROPPED.0], "atlas.vps_dropped");
        assert_eq!(GAUGE_NAMES.len(), keys::VPS_DROPPED.0 + 1);
        assert_eq!(
            HISTOGRAM_SPECS[keys::CHANGED_AS_POPCOUNT.0].name,
            "bgp.changed_as_popcount"
        );
        assert_eq!(HISTOGRAM_SPECS.len(), keys::CHANGED_AS_POPCOUNT.0 + 1);
        // No duplicate names anywhere.
        let mut all: Vec<&str> = COUNTER_NAMES
            .iter()
            .chain(GAUGE_NAMES.iter())
            .copied()
            .chain(HISTOGRAM_SPECS.iter().map(|s| s.name))
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "duplicate metric name in catalog");
    }

    #[test]
    fn registry_round_trips_through_snapshot() {
        let mut reg = engine_registry();
        reg.inc(keys::FLUID_WINDOWS, 3);
        reg.set_gauge(keys::VPS_KEPT, 420.0);
        reg.observe(keys::SERVED_RATIO, 0.97);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("fluid.windows"), Some(3));
        assert_eq!(snap.gauge("atlas.vps_kept"), Some(420.0));
        let h = snap.histogram("fluid.served_ratio").expect("histogram");
        assert_eq!(h.total(), 1);
        // Untouched gauges stay out of the export.
        assert_eq!(snap.gauge("fluid.peak_offered_qps"), None);
        let tables = render_metrics(&snap);
        assert_eq!(tables.len(), 3);
        assert!(tables[0].to_string().contains("fluid.windows"));
        // Zero counters are skipped.
        assert!(!tables[0].to_string().contains("rssac.rrl_activations"));
    }
}
