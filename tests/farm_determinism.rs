//! Determinism properties of the resolver farm.
//!
//! The farm's contract has two halves. The *engine* half — worker count
//! never shows up in the bytes — it shares with every other sweep in the
//! workspace. The *reduction* half is stronger and farm-specific: because
//! leak accounting is a set union plus a min-merge over dense
//! `(cache, bucket, rank)` keys, the client-cohort **partition itself**
//! is invisible — 1 cohort and k cohorts reduce to identical reports.
//! That is the invariant that lets the farm shard clients into
//! contiguous id ranges instead of replaying the whole plane in one
//! thread.

use lookaside::farm::{Farm, FarmConfig, FarmTopology};
use lookaside_engine::Executor;
use proptest::prelude::*;

fn config(clients: usize, cohorts: usize, seed: u64) -> FarmConfig {
    let mut config = FarmConfig::quick(clients);
    config.cohorts = cohorts;
    config.seed = seed;
    config.plane.seed = seed ^ 0x9d;
    config
}

proptest! {
    /// Worker count is invisible: the same farm reduced on a serial
    /// executor and on a multi-worker pool yields identical reports for
    /// every topology.
    #[test]
    fn farm_output_is_invariant_under_worker_count(
        seed in 0u64..1_000,
        jobs in 2usize..6,
    ) {
        let farm = Farm::new(config(1_500, 8, seed));
        let serial = farm.sweep(&Executor::serial());
        let parallel = farm.sweep(&Executor::new(jobs));
        prop_assert_eq!(serial, parallel);
    }

    /// The cohort partition is invisible: 1 cohort (no sharding at all)
    /// and k cohorts produce identical reports, because the reduction is
    /// associative and commutative over clients.
    #[test]
    fn farm_output_is_invariant_under_cohort_count(
        seed in 0u64..1_000,
        cohorts in 2usize..12,
    ) {
        let whole = Farm::new(config(1_500, 1, seed)).sweep(&Executor::serial());
        let sharded = Farm::new(config(1_500, cohorts, seed)).sweep(&Executor::new(3));
        prop_assert_eq!(whole, sharded);
    }

    /// Per-resolver fragmentation never beats shared-cache aggregation:
    /// every span-bucket key the shared cache leaks is leaked by at least
    /// one per-resolver cache too, for any seed.
    #[test]
    fn aggregation_dominates_for_every_seed(seed in 0u64..1_000) {
        let farm = Farm::new(config(1_200, 4, seed));
        let exec = Executor::serial();
        let shared = farm.run(FarmTopology::SharedCache, 8, &exec);
        let per = farm.run(FarmTopology::PerResolver, 8, &exec);
        prop_assert!(shared.case2 <= per.case2);
        prop_assert!(shared.upstream_misses <= per.upstream_misses);
        prop_assert_eq!(shared.stub_queries, per.stub_queries);
    }
}
