//! The sweep's dispatcher under a misbehaving shard or fold: a panic in
//! either must unwind the sweep rather than strand its workers, a shard
//! panic must stop the dispatch, and a slow fold must hold the workers
//! back rather than let finished shards pile up.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

use lookaside_engine::{Executor, ShardPlan};

/// Runs `sweep` on a thread of its own and returns what it came back
/// with: its value, or its panic message. `None` means it had not
/// returned after 10 s.
fn outcome_within_10s<R: Send + 'static>(
    sweep: impl FnOnce() -> R + Send + 'static,
) -> Option<Result<R, String>> {
    let (tx, rx) = mpsc::channel();
    let sweeper = thread::spawn(move || {
        let outcome = catch_unwind(AssertUnwindSafe(sweep))
            .map_err(|payload| payload.downcast_ref::<String>().cloned().unwrap_or_default());
        tx.send(outcome).expect("the test waits for the outcome");
    });
    // A hung sweep keeps its thread; the test fails without joining it.
    let outcome = rx.recv_timeout(Duration::from_secs(10)).ok()?;
    sweeper.join().expect("the sweeping thread caught the panic");
    Some(outcome)
}

#[test]
fn a_panicking_fold_propagates_instead_of_hanging() {
    for jobs in [1, 4] {
        let outcome = outcome_within_10s(move || {
            let shards = ShardPlan::new(0).over(0..64usize);
            Executor::new(jobs).sweep(
                &shards,
                |s| s.input,
                0,
                |acc, v| {
                    assert!(v != 5, "fold exploded at shard {v}");
                    acc + v
                },
            )
        })
        .unwrap_or_else(|| panic!("jobs={jobs}: the sweep hung after its fold panicked"));
        let message = outcome.expect_err("the fold's panic reaches the caller");
        assert!(message.contains("fold exploded at shard 5"), "jobs={jobs}: {message}");
    }
}

#[test]
fn a_panicking_shard_stops_dispatch_and_propagates() {
    for jobs in [1, 2, 4] {
        let started = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&started);
        let outcome = outcome_within_10s(move || {
            let shards = ShardPlan::new(0).over(0..256usize);
            Executor::new(jobs).sweep(
                &shards,
                |s| {
                    counter.fetch_add(1, Ordering::SeqCst);
                    assert!(s.input != 9, "shard {} exploded", s.input);
                    s.input
                },
                0,
                |acc, v| acc + v,
            )
        })
        .unwrap_or_else(|| panic!("jobs={jobs}: the sweep hung after a shard panicked"));
        let message = outcome.expect_err("the shard's panic reaches the caller");
        assert_eq!(message, "shard 9 exploded", "jobs={jobs}");
        // The fold reaches shard 9 with at most 2 × jobs shards handed out
        // past it, and nothing is handed out after its panic lands.
        let started = started.load(Ordering::SeqCst);
        assert!(started <= 10 + 2 * jobs, "jobs={jobs}: {started} shards started");
    }
}

#[test]
fn a_slow_fold_holds_the_workers_back() {
    let shards = ShardPlan::new(0).over(0..96usize);
    for jobs in [1, 2, 4] {
        let started = AtomicUsize::new(0);
        let mut folded = 0usize;
        let mut ahead = 0usize;
        let out = Executor::new(jobs).sweep(
            &shards,
            |s| {
                started.fetch_add(1, Ordering::SeqCst);
                s.input
            },
            0,
            |acc, v| {
                thread::sleep(Duration::from_millis(1));
                // Shards started and not yet folded, this one included.
                ahead = ahead.max(started.load(Ordering::SeqCst) - folded);
                folded += 1;
                acc + v
            },
        );
        assert_eq!(out, (0..96).sum::<usize>(), "jobs={jobs}");
        assert!(ahead <= 4 * jobs + 1, "jobs={jobs}: {ahead} shards ran ahead of the fold");
    }
}
