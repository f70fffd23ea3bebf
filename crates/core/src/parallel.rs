//! Sharded parallel execution of experiments.
//!
//! This module is the glue between the generic `lookaside-engine`
//! executor and the study's experiments. The paper's own methodology is
//! embarrassingly parallel: independent measurement runs each build their
//! own environment, and their results are combined offline. Every sweep
//! here has that shape:
//!
//! * the experiment turns its workload into a
//!   [`ShardPlan`](lookaside_engine::ShardPlan) — one shard per dataset
//!   size, grid cell, vantage point, scenario, trace window, or client
//!   cohort;
//! * each shard builds a **private replica** of whatever it simulates
//!   (the simulator's `Rc`-based oracle is not thread-shareable, and
//!   per-run replicas are the honest model anyway) and returns a small
//!   result — a table row, a tally, a window's minute triples;
//! * [`Executor::sweep`] runs the plan under the session [`Supervisor`]
//!   and folds the results in ascending shard id, and [`accept`] enforces
//!   the coverage contract on the outcome.
//!
//! [`collect`] and [`fold`] are the two shapes experiments need: a row
//! per shard in plan order, or one accumulator folded in plan order.
//! Worker threads only decide *when* a shard runs, never what it
//! produces or where its result lands, so `--jobs 1` and `--jobs N` are
//! byte-identical (the engine determinism suite pins this down).
//!
//! # Two cohort models
//!
//! The workspace shards along two different axes, and the distinction is
//! load-bearing:
//!
//! * **Rank sweeps keep each run whole.** Adjacent ranks share registry
//!   NSEC spans, so one run replays its contiguous ranked list on one
//!   resolver — that span-cache locality is what the Fig. 8/9
//!   calibration anchors depend on. Sweeps shard across *runs* (sizes,
//!   remedies, cells), never across the ranks inside one.
//! * **Client planes shard by hashed client cohort** (used by
//!   [`crate::farm`]). Clients are independent; their cohort is a pure
//!   function of `(seed, client)` (see
//!   `lookaside_population::StubPlane::cohort_of`), and the farm's
//!   reduction is a set union plus a min-merge — associative and
//!   commutative — so *any* partition of clients reduces to the same
//!   bytes. Here hashing is correct **and** required: it keeps cohort
//!   sizes balanced no matter how client ids are distributed.
//!
//! Both models end at the same place: output is a pure function of the
//! configuration, never of the worker pool.

use lookaside_engine::{Executor, Shard, Supervisor, SweepOutcome};
use lookaside_resolver::SecurityStatus;

use crate::experiments::StatusTally;

/// The executor experiments route through: honours `LOOKASIDE_JOBS`,
/// defaulting to the machine's available parallelism.
pub fn executor() -> Executor {
    Executor::from_env()
}

/// The supervisor experiments route through: honours
/// `LOOKASIDE_RETRIES`, `LOOKASIDE_WATCHDOG_MS` and `LOOKASIDE_FAULTS`,
/// defaulting to three attempts per shard with the watchdog disarmed and
/// no injected faults — a configuration under which every clean run
/// completes every shard on its first attempt.
pub fn supervisor() -> Supervisor {
    Supervisor::from_env()
}

/// Unwraps a supervised sweep, enforcing the no-silent-caps contract.
///
/// Complete sweeps pass straight through (with `--allow-partial` the
/// coverage summary is still printed, so a "clean" resumed run shows its
/// resumed-shard count). Degraded sweeps — shards that exhausted their
/// retry budget — print the full per-shard coverage table to **stderr**
/// (stdout stays byte-diffable) and then abort, unless the session opted
/// into partial results via `repro --allow-partial` /
/// `LOOKASIDE_ALLOW_PARTIAL`, in which case the partial accumulator is
/// returned and the caller's tables simply omit the failed shards.
pub fn accept<A>(outcome: SweepOutcome<A>) -> A {
    let allow_partial = lookaside_engine::allow_partial_requested();
    if !outcome.coverage.is_complete() {
        lookaside_engine::diag::note(&outcome.coverage.table());
        assert!(
            allow_partial,
            "sweep degraded: {} (rerun with --allow-partial to accept partial coverage)",
            outcome.coverage.summary()
        );
    } else if allow_partial {
        lookaside_engine::diag::note(&outcome.coverage.summary());
    }
    outcome.value
}

/// Runs every shard through `task` on `exec` under the session
/// [`supervisor`] and returns the results in shard order, through
/// [`accept`] — a degraded sweep aborts with its coverage table unless
/// `--allow-partial` is set, in which case failed shards are missing
/// from the list.
pub fn collect<I, T, F>(exec: &Executor, shards: &[Shard<I>], task: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&Shard<I>) -> T + Sync,
{
    let rows = Vec::with_capacity(shards.len());
    fold(exec, shards, task, rows, |mut rows, row| {
        rows.push(row);
        rows
    })
}

/// Runs every shard through `task` on `exec` under the session
/// [`supervisor`] and folds the results into `init` in ascending shard
/// id as they complete, through [`accept`]. Only the accumulator and the
/// out-of-order completions waiting for their turn are live at a time.
pub fn fold<I, T, A, F, G>(exec: &Executor, shards: &[Shard<I>], task: F, init: A, mut fold: G) -> A
where
    I: Sync,
    T: Send,
    F: Fn(&Shard<I>) -> T + Sync,
    G: FnMut(A, T) -> A,
{
    let sup = supervisor();
    accept(exec.sweep(shards, task, init, |acc, _id, value| fold(acc, value), &sup))
}

/// Records one resolution's validation status into a tally.
pub(crate) fn tally(
    statuses: &mut StatusTally,
    result: &Result<lookaside_resolver::Resolution, lookaside_resolver::ResolveError>,
) {
    match result {
        Ok(res) => match res.status {
            SecurityStatus::Secure => {
                statuses.secure += 1;
                if res.secured_via_dlv {
                    statuses.secure_via_dlv += 1;
                }
            }
            SecurityStatus::Insecure => statuses.insecure += 1,
            SecurityStatus::Bogus => statuses.bogus += 1,
            SecurityStatus::Indeterminate => statuses.indeterminate += 1,
        },
        Err(_) => statuses.errors += 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lookaside_engine::ShardPlan;

    #[test]
    fn collect_keeps_shard_order_at_any_job_count() {
        let shards = ShardPlan::new(5).over(0..40u64);
        let serial = collect(&Executor::serial(), &shards, |s| s.seed ^ s.input);
        let want: Vec<u64> = shards.iter().map(|s| s.seed ^ s.input).collect();
        assert_eq!(serial, want);
        for jobs in [2, 4] {
            assert_eq!(collect(&Executor::new(jobs), &shards, |s| s.seed ^ s.input), want);
        }
    }

    #[test]
    fn fold_sees_results_in_shard_order() {
        let shards = ShardPlan::new(0).over(0..64usize);
        for jobs in [1, 2, 8] {
            let order = fold(
                &Executor::new(jobs),
                &shards,
                |s| s.input,
                Vec::new(),
                |mut acc, v| {
                    acc.push(v);
                    acc
                },
            );
            assert_eq!(order, (0..64).collect::<Vec<_>>(), "jobs={jobs}");
        }
    }
}
