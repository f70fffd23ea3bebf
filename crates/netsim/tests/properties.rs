//! Property-based tests for the network simulator.

use std::net::Ipv4Addr;

use proptest::prelude::*;

use lookaside_netsim::{
    Capture, CaptureFilter, Direction, DnsHandler, FaultPlane, LatencyModel, LinkFaults, Network,
    Packet, TrafficStats,
};
use lookaside_wire::{Message, MessageBuilder, Name, Rcode, RrType};

fn arbitrary_packet() -> impl Strategy<Value = Packet> {
    (
        any::<u64>(),
        any::<u32>(),
        any::<bool>(),
        proptest::string::string_regex("[a-z]{1,8}(\\.[a-z]{1,8}){0,3}").expect("regex"),
        0u16..=200,
        0u8..=5,
        0u16..20,
        12usize..2000,
    )
        .prop_map(|(time_ns, dst, is_query, name, qtype, rcode, answers, size)| Packet {
            time_ns,
            dst: Ipv4Addr::from(dst),
            direction: if is_query { Direction::Query } else { Direction::Response },
            qname: Name::parse(&name).expect("generated name is valid"),
            qtype: RrType::from_code(qtype),
            rcode: Rcode::from_code(rcode),
            answers,
            size,
        })
}

proptest! {
    #[test]
    fn capture_text_round_trips(packets in proptest::collection::vec(arbitrary_packet(), 0..50)) {
        let mut cap = Capture::new(CaptureFilter::All);
        for p in &packets {
            cap.record(p.clone());
        }
        let text = cap.to_text();
        let back = Capture::parse_text(&text).unwrap();
        prop_assert_eq!(back.packets(), cap.packets());
    }

    #[test]
    fn latency_is_deterministic_and_bounded(
        seed in any::<u64>(),
        dst in any::<u32>(),
        seq in any::<u64>(),
        min in 1u64..100,
        span in 1u64..100,
        jitter in 0u64..20,
    ) {
        let model = LatencyModel::new(seed)
            .with_base_range(min, min + span)
            .with_jitter(jitter);
        let addr = Ipv4Addr::from(dst);
        let a = model.rtt_ns(addr, seq);
        let b = model.rtt_ns(addr, seq);
        prop_assert_eq!(a, b, "same (dst, seq) must give the same rtt");
        let lower = min * 1_000_000;
        let upper = (min + span + jitter) * 1_000_000;
        prop_assert!(a >= lower && a < upper, "rtt {} outside [{}, {})", a, lower, upper);
    }

    #[test]
    fn stats_overhead_is_componentwise_consistent(
        records in proptest::collection::vec((0u16..100, 0u8..4, 10usize..200, 10usize..200, 1u64..1_000_000), 1..40),
        split in any::<prop::sample::Index>(),
    ) {
        let mut base = TrafficStats::new();
        let mut total = TrafficStats::new();
        let cut = split.index(records.len());
        for (i, (qtype, rcode, qb, rb, rtt)) in records.iter().enumerate() {
            let qtype = RrType::from_code(*qtype);
            let rcode = Rcode::from_code(*rcode);
            total.record(qtype, rcode, *qb, *rb, *rtt);
            if i < cut {
                base.record(qtype, rcode, *qb, *rb, *rtt);
            }
        }
        let overhead = total.overhead_versus(&base);
        prop_assert_eq!(overhead.total_queries() + base.total_queries(), total.total_queries());
        prop_assert_eq!(overhead.total_bytes() + base.total_bytes(), total.total_bytes());
        prop_assert_eq!(overhead.total_time_ns() + base.total_time_ns(), total.total_time_ns());
    }

    #[test]
    fn fault_replay_is_byte_identical(
        seed in any::<u64>(),
        loss in 0u16..500,
        dup in 0u16..300,
        jitter_ms in 0u64..10,
    ) {
        let faults = LinkFaults::quiet()
            .with_loss_milli(loss)
            .with_duplicate_milli(dup)
            .with_jitter_ms(jitter_ms);
        let dst = Ipv4Addr::new(203, 0, 113, 7);
        // Same seed ⇒ identical fault schedule…
        let mut plane = FaultPlane::new(seed);
        plane.set_link(dst, faults);
        let replay = plane.clone();
        for seq in 0..200 {
            prop_assert_eq!(plane.plan(dst, seq), replay.plan(dst, seq));
        }
        // …and a byte-identical capture when the whole exchange sequence
        // (losses, timeouts, duplicates, delays) is replayed end to end.
        let run = || {
            let mut net = Network::new(seed);
            net.set_capture_filter(CaptureFilter::All);
            net.register(dst, "echo", Box::new(Echo));
            let mut plane = FaultPlane::new(seed ^ 0xfa);
            plane.set_link(dst, faults);
            net.set_fault_plane(plane);
            for i in 0..40u16 {
                let qname = Name::parse(&format!("q{i}.example.com.")).expect("valid name");
                let _ = net.exchange(dst, &Message::dnssec_query(i, qname, RrType::A));
            }
            (net.capture_text(), net.stats().clone(), net.now_ns())
        };
        let (text_a, stats_a, clock_a) = run();
        let (text_b, stats_b, clock_b) = run();
        prop_assert_eq!(text_a, text_b, "capture text must replay byte-identically");
        prop_assert_eq!(stats_a, stats_b);
        prop_assert_eq!(clock_a, clock_b);
    }
}

struct Echo;

impl DnsHandler for Echo {
    fn handle(&mut self, query: &Message, _now_ns: u64) -> Message {
        MessageBuilder::respond_to(query).rcode(Rcode::NoError).build()
    }
}
