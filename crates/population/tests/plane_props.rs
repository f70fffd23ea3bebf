//! Property tests for the stub-client plane.
//!
//! The plane's contract is purity: every per-client attribute — and
//! therefore every query event — is a function of `(params, client)`
//! alone. The farm driver leans on that: any range of clients replays
//! the same way on any worker, so no executor schedule can perturb it.

use std::collections::BTreeSet;

use proptest::prelude::*;

use lookaside_population::{PlaneParams, QueryEvent, StubPlane};

fn params(clients: usize, seed: u64, support: usize) -> PlaneParams {
    PlaneParams { clients, seed, domain_support: support, ..PlaneParams::default() }
}

proptest! {
    /// The per-client Zipf sampler (favourite pools and fresh draws alike)
    /// is deterministic for a fixed seed: two independently built planes
    /// agree on every draw and every event stream.
    #[test]
    fn zipf_sampler_is_deterministic_for_fixed_seed(
        seed in 0u64..10_000,
        support in 50usize..2_000,
        client in 0u64..5_000,
    ) {
        let a = StubPlane::new(params(5_000, seed, support));
        let b = StubPlane::new(params(5_000, seed, support));
        for slot in 0..6 {
            prop_assert_eq!(a.favourite(client, slot), b.favourite(client, slot));
        }
        for i in 0..12 {
            let rank = a.query_rank(client, i);
            prop_assert_eq!(rank, b.query_rank(client, i));
            prop_assert!((1..=support).contains(&rank));
        }
        prop_assert_eq!(a.events(client), b.events(client));
    }

    /// `events` is the stub cache applied to the raw query stream: the
    /// first query of each `(rank, stub-TTL bucket)` is kept, in query
    /// order, and every later one is served locally. The reference filters
    /// the raw stream through a `BTreeSet`. Every kept event also falls
    /// before the plane's horizon.
    #[test]
    fn events_keep_the_first_query_of_each_stub_ttl_bucket(
        seed in 0u64..10_000,
        support in 20usize..500,
        stub_ttl_secs in 1u32..900,
        client in 0u64..5_000,
    ) {
        let plane = StubPlane::new(PlaneParams { stub_ttl_secs, ..params(5_000, seed, support) });
        let mut seen = BTreeSet::new();
        let mut expected = Vec::new();
        if plane.is_active(client) {
            let (start, pace) = (plane.session_start(client), plane.pace_secs(client));
            for i in 0..plane.query_count(client) {
                let time_secs = start + i * pace;
                let rank = plane.query_rank(client, i) as u32;
                if seen.insert((rank, time_secs / stub_ttl_secs)) {
                    expected.push(QueryEvent { time_secs, rank });
                }
            }
        }
        let events = plane.events(client);
        prop_assert!(events.iter().all(|e| e.time_secs < plane.horizon_secs()));
        prop_assert_eq!(events, expected);
    }

    /// Different seeds really do reshuffle the plane (no degenerate
    /// constant sampler): over a window of clients, at least one event
    /// stream differs.
    #[test]
    fn seeds_differentiate_planes(seed in 0u64..10_000) {
        let a = StubPlane::new(params(2_000, seed, 500));
        let b = StubPlane::new(params(2_000, seed ^ 0xdead_beef, 500));
        let differs = (0..200u64).any(|c| a.events(c) != b.events(c));
        prop_assert!(differs);
    }
}
