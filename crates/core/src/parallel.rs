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
//! * [`Executor::sweep`] runs every shard once and folds the results in
//!   ascending shard id; a shard whose task panics re-raises that panic
//!   in the caller.
//!
//! [`collect`] is the shape most experiments need, a row per shard in
//! plan order; a sweep that folds one accumulator calls
//! [`Executor::sweep`] directly. Worker threads only decide *when* a
//! shard runs, never what it produces or where its result lands, so
//! `--jobs 1` and `--jobs N` are byte-identical (the engine determinism
//! suite pins this down).
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
//! * **Client planes shard by client cohort** (used by [`crate::farm`]).
//!   Clients are independent, and the farm's reduction is a set union
//!   plus a min-merge — associative and commutative — so *any* partition
//!   of clients reduces to the same bytes. Cohort `k` of `n` is the
//!   contiguous id range `k·clients/n .. (k+1)·clients/n`: every client
//!   attribute is hash-derived, so contiguous ranges already carry equal
//!   expected load, and a shard visits only its own clients.
//!
//! Both models end at the same place: output is a pure function of the
//! configuration, never of the worker pool.

use lookaside_engine::{Executor, Shard};
use lookaside_resolver::SecurityStatus;

use crate::experiments::StatusTally;

/// Runs every shard through `task` on `exec` and returns the results in
/// shard order. A shard whose task panics re-raises its panic here.
pub fn collect<I, T, F>(exec: &Executor, shards: &[Shard<I>], task: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&Shard<I>) -> T + Sync,
{
    exec.sweep(shards, task, Vec::with_capacity(shards.len()), |mut rows, row| {
        rows.push(row);
        rows
    })
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
}
