//! Shard plans: deterministic decomposition of a workload.
//!
//! A [`ShardPlan`] turns one experiment's workload — sweep points, chaos
//! grid cells, client cohorts, DITL trace windows — into numbered
//! [`Shard`]s. The decomposition is a pure function of the inputs: shard
//! `k` always receives the same slice of work and the same derived seed,
//! so the executor may run shards on any number of threads in any order
//! and reduction by shard id reproduces the single-threaded result
//! bit for bit.

use crate::seed::splitmix64;

/// One unit of schedulable work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shard<I> {
    /// Position in the plan (0-based); also the reduction order.
    pub id: usize,
    /// The shard's private RNG seed, `splitmix64(root_seed, id)`.
    pub seed: u64,
    /// The slice of workload this shard owns.
    pub input: I,
}

/// Factory for deterministic shard decompositions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    root_seed: u64,
}

impl ShardPlan {
    /// A plan deriving every shard seed from `root_seed`.
    pub fn new(root_seed: u64) -> Self {
        ShardPlan { root_seed }
    }

    /// The root seed shard seeds derive from.
    pub fn root_seed(self) -> u64 {
        self.root_seed
    }

    /// One shard per item, in iteration order — the natural plan for
    /// sweeps whose points are independent cells (dataset sizes, chaos
    /// grid cells, vantage points, trace windows).
    pub fn over<I>(self, items: impl IntoIterator<Item = I>) -> Vec<Shard<I>> {
        items
            .into_iter()
            .enumerate()
            .map(|(id, input)| Shard { id, seed: splitmix64(self.root_seed, id as u64), input })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn over_numbers_and_seeds_in_order() {
        let shards = ShardPlan::new(9).over(["a", "b", "c"]);
        assert_eq!(shards.len(), 3);
        for (i, s) in shards.iter().enumerate() {
            assert_eq!(s.id, i);
            assert_eq!(s.seed, splitmix64(9, i as u64));
        }
        assert_eq!(shards[2].input, "c");
    }

    #[test]
    fn plans_are_deterministic() {
        let a = ShardPlan::new(77).over(1..1000usize);
        let b = ShardPlan::new(77).over(1..1000usize);
        assert_eq!(a, b);
        assert_ne!(a, ShardPlan::new(78).over(1..1000usize), "seeds follow the root");
    }
}
