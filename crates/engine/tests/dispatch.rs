//! The sweep's dispatcher under a misbehaving fold: a fold that panics
//! must unwind the sweep rather than strand its workers, and a slow fold
//! must hold the workers back rather than let finished shards pile up.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use lookaside_engine::{Executor, ShardPlan};

/// Runs a 64-shard sweep whose fold panics at shard 5 on a thread of its
/// own, and returns what the sweep came back with: its value, or the
/// fold's panic message. `None` means it had not returned after 10 s.
fn sweep_with_panicking_fold(jobs: usize) -> Option<Result<usize, String>> {
    let (tx, rx) = mpsc::channel();
    let sweeper = thread::spawn(move || {
        let shards = ShardPlan::new(0).over(0..64usize);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            Executor::new(jobs).sweep(
                &shards,
                |s| s.input,
                0,
                |acc, id, v| {
                    assert!(id != 5, "fold exploded at shard {id}");
                    acc + v
                },
            )
        }));
        let outcome = outcome
            .map(|o| o.value)
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
        let outcome = sweep_with_panicking_fold(jobs)
            .unwrap_or_else(|| panic!("jobs={jobs}: the sweep hung after its fold panicked"));
        let message = outcome.expect_err("the fold's panic reaches the caller");
        assert!(message.contains("fold exploded at shard 5"), "jobs={jobs}: {message}");
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
            |acc, _id, v| {
                thread::sleep(Duration::from_millis(1));
                // Shards started and not yet folded, this one included.
                ahead = ahead.max(started.load(Ordering::SeqCst) - folded);
                folded += 1;
                acc + v
            },
        );
        assert_eq!(out.value, (0..96).sum::<usize>(), "jobs={jobs}");
        assert!(ahead <= 4 * jobs + 1, "jobs={jobs}: {ahead} shards ran ahead of the fold");
    }
}
