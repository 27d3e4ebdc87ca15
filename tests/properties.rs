//! Property-based tests across the workspace (proptest).
//!
//! These target the invariants the whole reproduction rests on: wire
//! codec round-trips, BGP routing sanity on random topologies, fluid
//! queue conservation, binning consistency, and the policy model's
//! optimality bound.

use proptest::prelude::*;
use proptest::strategy::Strategy as _;
use rootcast::policy_model::{paper_deployment, Strategy};
use rootcast_bgp::{compute_rib_scoped, Origin, Scope};
use rootcast_dns::{Letter, Message, Name, Rcode, Rdata, Record, RrClass, RrType, ServerIdentity};
use rootcast_netsim::{BinnedSeries, FluidQueue, SimDuration, SimRng, SimTime};
use rootcast_topology::{gen, Tier, TopologyParams};

// ---------------------------------------------------------------- names

/// Strategy for a valid DNS label.
fn label() -> impl proptest::strategy::Strategy<Value = String> {
    proptest::string::string_regex("[a-z0-9]{1,20}").expect("valid regex")
}

/// Strategy for a valid domain name of 1..5 labels.
fn name() -> impl proptest::strategy::Strategy<Value = String> {
    proptest::collection::vec(label(), 1..5).prop_map(|ls| ls.join("."))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn name_roundtrips_through_wire(n in name()) {
        let parsed = Name::parse(&n).expect("valid name");
        let mut buf = bytes::BytesMut::new();
        parsed.encode(&mut buf);
        let (decoded, next) = Name::decode(&buf, 0).expect("decodes");
        prop_assert_eq!(&decoded, &parsed);
        prop_assert_eq!(next, buf.len());
        prop_assert_eq!(decoded.wire_len(), buf.len());
    }

    #[test]
    fn name_decode_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        // Must return Ok or Err, never panic or loop forever.
        let _ = Name::decode(&bytes, 0);
    }

    #[test]
    fn message_decode_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Message::decode(&bytes);
    }

    #[test]
    fn query_roundtrips(qname in name(), id in any::<u16>()) {
        let q = Message::query(id, Name::parse(&qname).unwrap(), RrType::A, RrClass::In);
        let decoded = Message::decode(&q.encode()).expect("round-trip");
        prop_assert_eq!(decoded, q);
    }

    #[test]
    fn response_with_records_roundtrips(
        qname in name(),
        addr in any::<[u8; 4]>(),
        ttl in 0u32..1_000_000,
    ) {
        let q = Message::query(1, Name::parse(&qname).unwrap(), RrType::A, RrClass::In);
        let mut r = q.response_to(Rcode::NoError);
        r.answers.push(Record {
            name: q.questions[0].qname.clone(),
            rtype: RrType::A,
            class: RrClass::In,
            ttl,
            rdata: Rdata::A(addr),
        });
        let decoded = Message::decode(&r.encode()).expect("round-trip");
        prop_assert_eq!(decoded, r);
    }

    // ------------------------------------------------------------ chaos

    #[test]
    fn chaos_identity_roundtrips(
        letter_idx in 0usize..13,
        site in proptest::string::string_regex("[A-Z]{3}").expect("regex"),
        server in 1u16..100,
    ) {
        let letter = Letter::ALL[letter_idx];
        let id = ServerIdentity::new(letter, &site, server);
        let txt = id.format_txt();
        let parsed = ServerIdentity::parse_txt(letter, &txt);
        prop_assert_eq!(parsed, Some(id));
    }

    #[test]
    fn chaos_parse_never_panics(letter_idx in 0usize..13, txt in ".{0,60}") {
        let _ = ServerIdentity::parse_txt(Letter::ALL[letter_idx], &txt);
    }

    // ------------------------------------------------------------- bgp

    #[test]
    fn routing_covers_everyone_with_a_global_origin(
        seed in 0u64..50,
        host_pick in any::<u64>(),
    ) {
        let graph = gen::generate(&TopologyParams::tiny(), &SimRng::new(seed));
        let stubs = graph.by_tier(Tier::Stub);
        let host = stubs[(host_pick % stubs.len() as u64) as usize];
        let origins = [Origin { host, scope: Scope::Global, prepend: 0 }];
        let rib = compute_rib_scoped(&graph, &origins, &[true]);
        // A single global origin on a connected valley-free topology
        // reaches every AS.
        prop_assert_eq!(rib.reachable_count(), graph.len());
        // Latency zero only at the host itself.
        for (asn, route) in rib.iter() {
            if asn == host {
                prop_assert_eq!(route.latency, SimDuration::ZERO);
            } else {
                prop_assert!(route.latency > SimDuration::ZERO);
            }
        }
    }

    #[test]
    fn anycast_catchments_partition_the_graph(
        seed in 0u64..30,
        pick_a in any::<u64>(),
        pick_b in any::<u64>(),
    ) {
        let graph = gen::generate(&TopologyParams::tiny(), &SimRng::new(seed));
        let stubs = graph.by_tier(Tier::Stub);
        let a = stubs[(pick_a % stubs.len() as u64) as usize];
        let b = stubs[(pick_b % stubs.len() as u64) as usize];
        prop_assume!(a != b);
        let origins = [
            Origin { host: a, scope: Scope::Global, prepend: 0 },
            Origin { host: b, scope: Scope::Global, prepend: 0 },
        ];
        let rib = compute_rib_scoped(&graph, &origins, &[true, true]);
        let sizes = rib.catchment_sizes(2);
        prop_assert_eq!(sizes.iter().sum::<usize>(), graph.len());
        // Each host is in its own catchment.
        prop_assert_eq!(rib.origin_of(a).map(|o| o.0), Some(0));
        prop_assert_eq!(rib.origin_of(b).map(|o| o.0), Some(1));
    }

    #[test]
    fn withdrawing_one_of_two_sites_moves_everyone(
        seed in 0u64..30,
        pick_a in any::<u64>(),
        pick_b in any::<u64>(),
    ) {
        let graph = gen::generate(&TopologyParams::tiny(), &SimRng::new(seed));
        let stubs = graph.by_tier(Tier::Stub);
        let a = stubs[(pick_a % stubs.len() as u64) as usize];
        let b = stubs[(pick_b % stubs.len() as u64) as usize];
        prop_assume!(a != b);
        let origins = [
            Origin { host: a, scope: Scope::Global, prepend: 0 },
            Origin { host: b, scope: Scope::Global, prepend: 0 },
        ];
        let rib = compute_rib_scoped(&graph, &origins, &[true, false]);
        prop_assert_eq!(rib.catchment_sizes(2), vec![graph.len(), 0]);
    }

    // ----------------------------------------------------------- fluid

    #[test]
    fn fluid_queue_conserves_traffic(
        capacity in 10.0f64..10_000.0,
        buffer in 0.0f64..10_000.0,
        offered in 0.0f64..50_000.0,
        secs in 1u64..10_000,
    ) {
        let mut q = FluidQueue::new(capacity, buffer);
        let loss = q.advance(SimTime::from_secs(secs), offered);
        prop_assert!((0.0..=1.0).contains(&loss), "loss {loss}");
        // Accepted traffic = offered*(1-loss); backlog + served must
        // account for it: backlog <= buffer, and served <= capacity*dt.
        let dt = secs as f64;
        let accepted = offered * dt * (1.0 - loss);
        let served_bound = capacity * dt;
        prop_assert!(q.backlog() <= buffer + 1e-6);
        prop_assert!(
            accepted <= served_bound + q.backlog() + 1e-6,
            "accepted {accepted} > served {served_bound} + backlog {}",
            q.backlog()
        );
    }

    // ---------------------------------------------------------- series

    #[test]
    fn binned_series_increments_are_conserved(
        times in proptest::collection::vec(0u64..3600, 0..100),
    ) {
        let mut s = BinnedSeries::zeros(SimDuration::from_mins(10), 6);
        for &t in &times {
            s.incr_at(SimTime::from_secs(t));
        }
        let total: f64 = s.values().iter().sum();
        prop_assert_eq!(total as usize, times.len());
    }

    #[test]
    fn from_secs_f64_rounds_like_f64_round(
        bits in any::<u64>(),
        ns in 0.0f64..1e12,
        half in 0u64..(1 << 52),
    ) {
        let reference = |s: f64| if s.is_finite() { (s * 1e9).round() as u64 } else { 0 };
        // Any positive bit pattern (subnormals, beyond 2^64 ns, +inf and
        // NaN payloads), sub-millisecond to 1000 s durations, and values
        // near a half nanosecond.
        for s in [f64::from_bits(bits >> 1), ns / 1e9, (half as f64 + 0.5) / 1e9] {
            // Paired with the input's bits so a failure names it.
            prop_assert_eq!(
                (s.to_bits(), SimDuration::from_secs_f64(s).as_nanos()),
                (s.to_bits(), reference(s))
            );
        }
    }

    // ---------------------------------------------------- policy model

    #[test]
    fn no_strategy_beats_exhaustive_best(a0 in 0.0f64..15.0, a1 in 0.0f64..15.0) {
        let d = paper_deployment(1.0, a0, a1);
        let best = d.best_possible();
        for s in Strategy::ALL {
            prop_assert!(
                s.apply(&d).happiness() <= best,
                "{} beat the exhaustive optimum at a0={a0} a1={a1}",
                s.name()
            );
        }
    }

    #[test]
    fn happiness_monotone_in_attack(a in 0.0f64..15.0) {
        // More attack never increases absorb-happiness.
        let h1 = paper_deployment(1.0, a, a).happiness();
        let h2 = paper_deployment(1.0, a + 1.0, a + 1.0).happiness();
        prop_assert!(h2 <= h1, "H rose from {h1} to {h2} as attack grew");
    }
}
