//! The sweep: every shard of a plan run exactly once, folded in ascending
//! shard id (DESIGN.md §14).
//!
//! [`Executor::sweep`] is the engine's one way to run a shard plan, at
//! every `jobs` value: the calling thread hands shard indices to the
//! workers through a job channel, never more than two per worker ahead of
//! the fold, and the workers send each result back over a bounded result
//! channel. The caller folds the results in shard-id order, holding the
//! ones that finish early until the fold reaches them.
//!
//! A shard's result is a pure function of the shard, so a shard whose
//! task panics is a program bug that any rerun would repeat: the sweep
//! stops handing out shards and re-raises that shard's panic.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Mutex, PoisonError};
use std::thread;

use crate::executor::Executor;
use crate::plan::Shard;

impl Executor {
    /// Runs every shard once and folds the results into `init` in
    /// ascending shard-id order.
    ///
    /// # Panics
    ///
    /// When a shard's task panics, the sweep hands out no further shards,
    /// waits for the workers to stop, and re-raises that shard's own
    /// payload. The fold reaches shards in id order, so of several
    /// panicking shards the lowest id's panic propagates at every `jobs`
    /// value. A panic in `fold` propagates the same way.
    pub fn sweep<I, T, A, F, G>(&self, shards: &[Shard<I>], task: F, init: A, mut fold: G) -> A
    where
        I: Sync,
        T: Send,
        F: Fn(&Shard<I>) -> T + Sync,
        G: FnMut(A, T) -> A,
    {
        let workers = self.jobs().min(shards.len());
        // At most this many shards are handed out and not yet folded.
        // Without the bound the workers run ahead of a slow fold (the
        // farm's set-union fold is one), and the results waiting for it
        // raise peak memory.
        let window = 2 * workers;
        let (jobs, queue) = mpsc::sync_channel::<usize>(window);
        let queue = Mutex::new(queue);

        thread::scope(|scope| {
            // Owned by this closure, like the result receiver, so a panic
            // here drops both while unwinding: idle workers see the job
            // channel close, busy ones fail to send, and the scope joins
            // them before it re-raises the panic.
            let jobs = jobs;
            // Bounded like the job channel: neither ever holds more than
            // the window, so no send blocks.
            let (tx, results) = mpsc::sync_channel(window);
            for _ in 0..workers {
                let (tx, task, queue) = (tx.clone(), &task, &queue);
                scope.spawn(move || loop {
                    // Nothing panics while the lock is held, and it is
                    // released before the shard runs.
                    let Ok(i) = queue.lock().unwrap_or_else(PoisonError::into_inner).recv() else {
                        break;
                    };
                    let Some(shard) = shards.get(i) else { break };
                    // Caught only to carry the panic to the caller: a
                    // worker that died would leave the fold waiting for a
                    // result that never comes.
                    let result = catch_unwind(AssertUnwindSafe(|| task(shard)));
                    if tx.send((i, result)).is_err() {
                        break;
                    }
                });
            }
            drop(tx);

            let mut sent = 0;
            let mut landed = BTreeMap::new();
            let mut acc = init;
            for next in 0..shards.len() {
                while sent < shards.len().min(next + window) && jobs.send(sent).is_ok() {
                    sent += 1;
                }
                // Results arrive in completion order; the fold takes them
                // in shard order.
                let result = loop {
                    if let Some(result) = landed.remove(&next) {
                        break result;
                    }
                    #[expect(
                        clippy::expect_used,
                        reason = "workers stop only once the job channel closes or the fold is gone, so an early stop is an engine bug and must not fold a partial value"
                    )]
                    let (i, result) = results.recv().expect("a sweep worker stopped early");
                    landed.insert(i, result);
                };
                match result {
                    Ok(value) => acc = fold(acc, value),
                    Err(payload) => resume_unwind(payload),
                }
            }
            acc
        })
    }
}
