//! The parallel executor: the worker-pool size. The sweep over it lives
//! in `sweep.rs`.

use std::num::NonZeroUsize;
use std::thread;

/// Runs shard plans across a worker pool.
///
/// Determinism contract: [`Executor::sweep`] folds results in shard-id
/// order, each produced by a pure function of its shard — so the output
/// is identical for every `jobs` value, including 1. Thread scheduling
/// can only change *when* a shard runs, never what it computes or where
/// its result lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    jobs: usize,
}

impl Executor {
    /// An executor with exactly `jobs` workers (minimum 1).
    pub fn new(jobs: usize) -> Self {
        Executor { jobs: jobs.max(1) }
    }

    /// A single-worker executor — the reference for byte-identity checks.
    pub fn serial() -> Self {
        Executor::new(1)
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }
}

impl Default for Executor {
    /// An executor as wide as the machine
    /// ([`std::thread::available_parallelism`]).
    fn default() -> Self {
        Executor::new(thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Shard, ShardPlan};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Collects every shard's result in shard order.
    fn collect<T: Send>(
        exec: Executor,
        shards: &[Shard<usize>],
        task: impl Fn(&Shard<usize>) -> T + Sync,
    ) -> Vec<T> {
        exec.sweep(shards, task, Vec::new(), |mut acc, value| {
            acc.push(value);
            acc
        })
    }

    #[test]
    fn results_keep_submission_order_at_any_job_count() {
        let shards = ShardPlan::new(3).over(0..64usize);
        let serial = collect(Executor::serial(), &shards, |s| s.seed ^ s.input as u64);
        for jobs in [2, 3, 8] {
            let parallel = collect(Executor::new(jobs), &shards, |s| s.seed ^ s.input as u64);
            assert_eq!(parallel, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn every_shard_runs_exactly_once() {
        let shards = ShardPlan::new(0).over(0..100usize);
        let ran = AtomicUsize::new(0);
        let out = collect(Executor::new(4), &shards, |s| {
            ran.fetch_add(1, Ordering::Relaxed);
            s.input
        });
        assert_eq!(ran.load(Ordering::Relaxed), 100);
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    /// The fold reaches shards in id order, so of two panicking shards the
    /// lower one's payload propagates, whichever finished first.
    #[test]
    fn the_lowest_panicking_shard_propagates_at_any_job_count() {
        let shards = ShardPlan::new(1).over(0..10usize);
        for jobs in [1, 2, 4] {
            let out = catch_unwind(AssertUnwindSafe(|| {
                collect(Executor::new(jobs), &shards, |s| {
                    assert!(s.input != 3 && s.input != 7, "cell {} exploded", s.input);
                    s.input * 2
                })
            }));
            let payload = out.expect_err("a shard panic reaches the caller");
            let message = payload.downcast_ref::<String>().map_or("", String::as_str);
            assert_eq!(message, "cell 3 exploded", "jobs={jobs}");
        }
    }

    #[test]
    fn empty_plan_is_fine() {
        let shards: Vec<Shard<u8>> = Vec::new();
        let out = Executor::new(8).sweep(&shards, |s| s.input, 41u32, |acc, v| acc + u32::from(v));
        assert_eq!(out, 41);
    }

    #[test]
    fn worker_count_floor_is_one() {
        assert!(Executor::default().jobs() >= 1);
        assert_eq!(Executor::new(0).jobs(), 1);
    }
}
