//! Cross-crate integration below the scenario layer: topology → BGP →
//! anycast → atlas, wired by hand. These tests exercise the public APIs
//! the way a downstream user building a *different* study would.

use rand::SeedableRng;
use rootcast_anycast::{AnycastService, FacilityTable, SiteSpec, StressPolicy};
use rootcast_atlas::{
    clean_fleet, clean_outcome, execute_probe, CleanObs, FleetParams, MeasurementPipeline,
    PipelineConfig, RawMeasurement, TargetView, VantagePoint, VpFleet, VpId,
};
use rootcast_attack::{Botnet, BotnetParams};
use rootcast_bgp::RouteCollector;
use rootcast_dns::{Letter, RootZone, ServerIdentity};
use rootcast_netsim::{SimDuration, SimRng, SimTime};
use rootcast_topology::{gen, Tier, TopologyParams};

fn topology() -> rootcast_topology::AsGraph {
    gen::generate(
        &TopologyParams {
            n_tier1: 4,
            n_tier2: 20,
            n_stub: 200,
            ..TopologyParams::default()
        },
        &SimRng::new(99),
    )
}

/// Probe `svc` from `vp` through the public string path, handing the
/// probe the service's current view from the VP's AS.
fn probe<R: rand::Rng>(
    vp: &VantagePoint,
    svc: &AnycastService,
    at: SimTime,
    rng: &mut R,
) -> RawMeasurement {
    let view = svc.probe_view(vp.asn, vp.client_hash()).map(|pv| {
        TargetView::new(
            svc.site(pv.site).spec.code.clone(),
            pv.server,
            pv.rtt,
            pv.drop_prob,
        )
    });
    execute_probe(vp, svc.letter.expect("letter set"), view, at, rng)
}

#[test]
fn manual_wiring_topology_to_pipeline() {
    let graph = topology();
    let rng = SimRng::new(99);
    // A two-site service.
    let host = |code: &str| rootcast::deployment::host_in_city(&graph, code, 5);
    let svc = AnycastService::new(
        "test",
        Some(Letter::K),
        &graph,
        vec![
            SiteSpec::global("AMS", host("AMS"), 100_000.0),
            SiteSpec::global("NRT", host("NRT"), 100_000.0),
        ],
    );
    // A fleet probing it through the real probe/clean path.
    let fleet = VpFleet::generate(&graph, &FleetParams::tiny(150), &rng);
    let mut cal = Vec::new();
    let mut prng = rng.stream("probe-test");
    for vp in fleet.iter() {
        cal.push(probe(vp, &svc, SimTime::ZERO, &mut prng));
    }
    let report = clean_fleet(&fleet, &cal);
    assert!(report.kept_count() > 100);

    // Pipe everything through the measurement pipeline.
    let cfg = PipelineConfig {
        bin: SimDuration::from_mins(10),
        horizon: SimTime::from_hours(1),
        rtt_subsample: 1,
        watched_sites: vec![],
        raster_letters: vec![],
        probe_interval: SimDuration::from_mins(4),
    };
    let mut pipe = MeasurementPipeline::new(cfg, fleet.len());
    pipe.register_letter(
        Letter::K,
        svc.sites().iter().map(|s| s.spec.code.clone()).collect(),
    );
    let excluded = report.excluded_set();
    let mut t = SimTime::ZERO;
    for _ in 0..12 {
        for vp in fleet.iter() {
            if excluded.contains(&vp.id) {
                continue;
            }
            let m = probe(vp, &svc, t, &mut prng);
            pipe.record(vp.id, Letter::K, t, &clean_outcome(&m))
                .expect("K is registered");
        }
        t += SimDuration::from_mins(5);
    }
    pipe.finalize();
    let data = pipe.letter(Letter::K);
    let answered: f64 = data.success.values().iter().sum();
    assert!(answered > 0.0, "nothing measured");
    // Both sites observed.
    assert!(data.site_counts.iter().all(|s| s.max() > 0.0));
}

#[test]
fn withdrawal_is_visible_to_collectors_and_probes() {
    let graph = topology();
    let host = |code: &str| rootcast::deployment::host_in_city(&graph, code, 6);
    let mut svc = AnycastService::new(
        "test",
        Some(Letter::E),
        &graph,
        vec![
            SiteSpec::global("FRA", host("FRA"), 50_000.0)
                .with_policy(StressPolicy::withdraw_default()),
            SiteSpec::global("IAD", host("IAD"), 500_000.0),
        ],
    );
    let peers = graph.by_tier(Tier::Stub)[..40].to_vec();
    let mut collector = RouteCollector::new(peers);
    collector.prime(svc.rib());

    // Aim a botnet entirely at FRA's catchment by overloading globally.
    let botnet = Botnet::generate(&graph, BotnetParams::default(), &SimRng::new(3));
    let facilities = FacilityTable::new();
    let mut t = SimTime::ZERO;
    let mut withdrew = false;
    for _ in 0..15 {
        t += SimDuration::from_mins(1);
        let offered = svc.offered_per_site(botnet.weights(), 1_000_000.0);
        svc.advance_queues(t, &offered, &facilities);
        let changes = svc.apply_policies(t, &graph);
        if !changes.withdrew.is_empty() {
            withdrew = true;
            let changed = collector.observe(t, svc.rib());
            assert!(changed > 0, "collector blind to withdrawal");
            break;
        }
    }
    assert!(withdrew, "FRA never withdrew under 1 Mq/s");
    // After withdrawal every AS lands on IAD.
    let sizes = svc.rib().catchment_sizes(2);
    assert_eq!(sizes[0], 0);
    assert_eq!(sizes[1], graph.len());
}

#[test]
fn chaos_identity_survives_the_full_wire_path() {
    // Format → answer → encode → decode → parse, for every letter.
    let zone_q = rootcast_dns::Message::query(
        7,
        rootcast_dns::Name::parse("hostname.bind").unwrap(),
        rootcast_dns::RrType::Txt,
        rootcast_dns::RrClass::Chaos,
    );
    for letter in Letter::ALL {
        let id = ServerIdentity::new(letter, "AMS", 3);
        let resp = RootZone::answer_chaos(&zone_q, &id);
        let wire = resp.encode();
        let decoded = rootcast_dns::Message::decode(&wire).expect("decodes");
        let parsed = rootcast_dns::parse_chaos_response(letter, &decoded).expect("parses");
        assert_eq!(parsed, id);
    }
}

#[test]
fn pipeline_and_probe_agree_on_sites() {
    // The code a probe reports must be a site the service owns.
    let graph = topology();
    let host = |code: &str| rootcast::deployment::host_in_city(&graph, code, 7);
    let svc = AnycastService::new(
        "x",
        Some(Letter::C),
        &graph,
        vec![
            SiteSpec::global("LHR", host("LHR"), 100_000.0),
            SiteSpec::global("GRU", host("GRU"), 100_000.0),
        ],
    );
    let fleet = VpFleet::generate(&graph, &FleetParams::tiny(80), &SimRng::new(4));
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
    for vp in fleet.iter().filter(|v| !v.hijacked) {
        let m = probe(vp, &svc, SimTime::ZERO, &mut rng);
        if let CleanObs::Site(id, _) = clean_outcome(&m) {
            assert!(
                svc.sites().iter().any(|s| s.spec.code == id.site),
                "probe reported unknown site {}",
                id.site
            );
            assert_eq!(id.letter, Letter::C);
        }
    }
}

#[test]
fn vpid_indexing_is_consistent() {
    let graph = topology();
    let fleet = VpFleet::generate(&graph, &FleetParams::tiny(50), &SimRng::new(5));
    for (i, vp) in fleet.iter().enumerate() {
        assert_eq!(vp.id, VpId(i as u32));
        assert_eq!(fleet.vp(vp.id).asn, vp.asn);
    }
}
