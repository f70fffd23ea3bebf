//! The parallel executor: the worker-pool size plus per-shard panic
//! isolation. The supervised sweep over it lives in `supervisor.rs`.

use std::env;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread;

use crate::plan::Shard;

/// Environment variable overriding the default worker count.
pub const JOBS_ENV: &str = "LOOKASIDE_JOBS";

pub(crate) fn env_flag(name: &str) -> bool {
    // lint:allow(determinism::env-read) -- only LOOKASIDE_ALLOW_PARTIAL is read here: it decides whether a degraded sweep aborts or returns its partial fold, and the coverage table always names the missing shards
    matches!(env::var(name).ok().as_deref().map(str::trim), Some("1" | "true" | "on"))
}

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

    /// Worker count from `LOOKASIDE_JOBS` when set to a positive integer,
    /// else [`std::thread::available_parallelism`].
    pub fn from_env() -> Self {
        // lint:allow(determinism::env-read) -- LOOKASIDE_JOBS selects the worker count only; the reduction is ordered by shard id, so jobs never reaches results
        let from_var = env::var(JOBS_ENV).ok().and_then(|v| v.trim().parse::<usize>().ok());
        match from_var {
            Some(n) if n >= 1 => Executor::new(n),
            _ => Executor::new(thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)),
        }
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }
}

impl Default for Executor {
    fn default() -> Self {
        Executor::from_env()
    }
}

/// Runs one shard attempt with panic isolation: a panicking task becomes
/// `Err` with the panic message instead of unwinding through the pool, so
/// one bad cell never poisons a sweep — the supervisor retries it or
/// lists it in the coverage.
pub(crate) fn run_one<I, T, F>(task: &F, shard: &Shard<I>) -> Result<T, String>
where
    F: Fn(&Shard<I>) -> T,
{
    catch_unwind(AssertUnwindSafe(|| task(shard))).map_err(|payload| panic_message(&*payload))
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ShardPlan;
    use crate::supervisor::{Supervisor, SweepOutcome};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Collects every completed shard's result in shard order.
    fn collect<T: Send>(
        exec: Executor,
        shards: &[Shard<usize>],
        task: impl Fn(&Shard<usize>) -> T + Sync,
    ) -> SweepOutcome<Vec<T>> {
        exec.sweep(
            shards,
            task,
            Vec::new(),
            |mut acc, _id, value| {
                acc.push(value);
                acc
            },
            &Supervisor::new(),
        )
    }

    #[test]
    fn results_keep_submission_order_at_any_job_count() {
        let shards = ShardPlan::new(3).over(0..64usize);
        let serial = collect(Executor::serial(), &shards, |s| s.seed ^ s.input as u64).value;
        for jobs in [2, 3, 8] {
            let parallel = collect(Executor::new(jobs), &shards, |s| s.seed ^ s.input as u64);
            assert_eq!(parallel.value, serial, "jobs={jobs}");
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
        assert_eq!(out.value, (0..100).collect::<Vec<_>>());
        assert_eq!(out.coverage.completed, 100);
    }

    #[test]
    fn panicking_shard_reports_error_without_poisoning_the_run() {
        let shards = ShardPlan::new(1).over(0..10usize);
        for jobs in [1, 4] {
            let out = collect(Executor::new(jobs), &shards, |s| {
                assert!(s.input != 3, "cell {} exploded", s.input);
                s.input * 2
            });
            let want: Vec<usize> = (0..10).filter(|&i| i != 3).map(|i| i * 2).collect();
            assert_eq!(out.value, want, "jobs={jobs}");
            let [failure] = out.coverage.failed.as_slice() else {
                panic!("jobs={jobs}: exactly shard 3 must fail: {}", out.coverage.table());
            };
            assert_eq!(failure.shard_id, 3);
            assert_eq!(failure.attempts, Supervisor::new().retry.max_attempts);
            assert!(failure.message.contains("cell 3 exploded"), "{}", failure.message);
        }
    }

    #[test]
    fn empty_plan_is_fine() {
        let shards: Vec<Shard<u8>> = Vec::new();
        let out = Executor::new(8).sweep(
            &shards,
            |s| s.input,
            41u32,
            |acc, _id, v| acc + u32::from(v),
            &Supervisor::new(),
        );
        assert_eq!(out.value, 41);
        assert!(out.coverage.is_complete());
        assert_eq!(out.coverage.total, 0);
    }

    #[test]
    fn from_env_floor_is_one_worker() {
        assert!(Executor::from_env().jobs() >= 1);
        assert_eq!(Executor::new(0).jobs(), 1);
    }
}
