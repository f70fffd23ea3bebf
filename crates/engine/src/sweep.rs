//! The sweep: every shard of a plan run exactly once, folded in ascending
//! shard id, with explicit coverage accounting (DESIGN.md §14).
//!
//! [`Executor::sweep`] is the engine's one way to run a shard plan, at
//! every `jobs` value: the calling thread hands shard indices to the
//! workers through a job channel, never more than two per worker ahead of
//! the fold, and the workers send each result back over a bounded result
//! channel. The caller journals and folds the results in shard-id order,
//! holding the ones that finish early until the fold reaches them.
//!
//! A shard's result is a pure function of the shard, so a shard whose
//! task panics would panic again on any rerun: it runs once, and its
//! panic message lands in the sweep's [`Coverage`] instead of aborting
//! the other shards.

use std::collections::BTreeMap;
use std::sync::{mpsc, Mutex, PoisonError};
use std::thread;

use crate::checkpoint::{Checkpoint, JournalCodec, JournalError};
use crate::executor::{run_one, Executor};
use crate::plan::Shard;

/// One shard whose task panicked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardFailure {
    /// Shard id within the plan.
    pub shard_id: usize,
    /// The panic message.
    pub message: String,
}

/// Per-shard accounting of how a sweep ended.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Coverage {
    /// Shards in the plan.
    pub total: usize,
    /// Shards that produced a result, including resumed ones.
    pub completed: usize,
    /// Completed shards satisfied from a resumed checkpoint journal.
    pub resumed: usize,
    /// Shards whose task panicked, ascending by shard id.
    pub failed: Vec<ShardFailure>,
}

impl Coverage {
    /// Whether every shard completed.
    pub fn is_complete(&self) -> bool {
        self.failed.is_empty() && self.completed == self.total
    }

    /// One-line deterministic summary, e.g.
    /// `coverage 17/20 shards (2 resumed, 3 failed)`.
    pub fn summary(&self) -> String {
        let mut s = format!("coverage {}/{} shards", self.completed, self.total);
        let mut notes = Vec::new();
        if self.resumed > 0 {
            notes.push(format!("{} resumed", self.resumed));
        }
        if !self.failed.is_empty() {
            notes.push(format!("{} failed", self.failed.len()));
        }
        if !notes.is_empty() {
            s.push_str(&format!(" ({})", notes.join(", ")));
        }
        s
    }

    /// Multi-line deterministic coverage table: the summary line plus one
    /// line per failed shard.
    pub fn table(&self) -> String {
        let mut out = self.summary();
        for f in &self.failed {
            out.push_str(&format!("\n  shard {}: panicked: {}", f.shard_id, f.message));
        }
        out
    }
}

/// A sweep's folded value plus its coverage accounting.
///
/// Callers must consult `coverage` before treating `value` as complete:
/// a degraded sweep folds only the shards that completed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepOutcome<A> {
    /// The fold over every completed shard, ascending shard id.
    pub value: A,
    /// What completed, what was resumed, what failed.
    pub coverage: Coverage,
}

impl Executor {
    /// Runs every shard once and folds completed results in ascending
    /// shard-id order, passing the shard id alongside each value so
    /// degraded folds can account for holes.
    ///
    /// Never panics on shard failure: a shard whose task panics is
    /// skipped by the fold and listed in the coverage. A panic in `fold`
    /// itself propagates to the caller once the workers have stopped.
    pub fn sweep<I, T, A, F, G>(
        &self,
        shards: &[Shard<I>],
        task: F,
        init: A,
        fold: G,
    ) -> SweepOutcome<A>
    where
        I: Sync,
        T: Send,
        F: Fn(&Shard<I>) -> T + Sync,
        G: FnMut(A, usize, T) -> A,
    {
        let (outcome, _journal_err) = run(self, shards, task, init, fold, BTreeMap::new(), None);
        outcome
    }

    /// [`sweep`](Executor::sweep) with a checkpoint journal: shard
    /// results already in the journal are folded without re-running, and
    /// shards completed by this run are appended to it as the fold front
    /// advances.
    ///
    /// # Errors
    ///
    /// Returns the first [`JournalError`] hit while appending; the
    /// journal's durable prefix remains valid for a later resume.
    pub fn sweep_checkpointed<I, T, A, F, G>(
        &self,
        shards: &[Shard<I>],
        task: F,
        init: A,
        fold: G,
        ckpt: &mut Checkpoint<T>,
    ) -> Result<SweepOutcome<A>, JournalError>
    where
        I: Sync,
        T: Send + JournalCodec,
        F: Fn(&Shard<I>) -> T + Sync,
        G: FnMut(A, usize, T) -> A,
    {
        let resumed = ckpt.take_resumed();
        let mut journal = |slot: usize, value: &T| ckpt.record(slot, value);
        let (outcome, journal_err) =
            run(self, shards, task, init, fold, resumed, Some(&mut journal));
        journal_err.map_or(Ok(outcome), Err)
    }
}

type Journal<'a, T> = &'a mut dyn FnMut(usize, &T) -> Result<(), JournalError>;

fn run<I, T, A, F, G>(
    exec: &Executor,
    shards: &[Shard<I>],
    task: F,
    init: A,
    mut fold: G,
    mut resumed: BTreeMap<usize, T>,
    mut journal: Option<Journal<'_, T>>,
) -> (SweepOutcome<A>, Option<JournalError>)
where
    I: Sync,
    T: Send,
    F: Fn(&Shard<I>) -> T + Sync,
    G: FnMut(A, usize, T) -> A,
{
    let open: Vec<&Shard<I>> = shards
        .iter()
        .enumerate()
        .filter(|(slot, _)| !resumed.contains_key(slot))
        .map(|(_, shard)| shard)
        .collect();
    let workers = exec.jobs().min(open.len());
    // At most this many open shards are handed out and not yet folded.
    // Without the bound the workers run ahead of a slow fold (the farm's
    // set-union fold is one), and the results waiting for it raise peak
    // memory.
    let window = 2 * workers;
    let (jobs, queue) = mpsc::sync_channel::<usize>(window);
    let queue = Mutex::new(queue);
    let mut coverage = Coverage { total: shards.len(), ..Coverage::default() };
    let mut journal_err = None;

    let value = thread::scope(|scope| {
        // Owned by this closure, like the result receiver, so a panicking
        // fold drops both while unwinding: idle workers see the job channel
        // close, busy ones fail to send, and the scope can join them.
        let jobs = jobs;
        // Bounded like the job channel: neither ever holds more than the
        // window, so no send blocks.
        let (tx, results) = mpsc::sync_channel(window);
        for _ in 0..workers {
            let (tx, task, open, queue) = (tx.clone(), &task, &open, &queue);
            scope.spawn(move || loop {
                // Nothing panics while the lock is held, and it is released
                // before the shard runs.
                let Ok(i) = queue.lock().unwrap_or_else(PoisonError::into_inner).recv() else {
                    break;
                };
                let Some(shard) = open.get(i) else { break };
                if tx.send((i, run_one(task, shard))).is_err() {
                    break;
                }
            });
        }
        drop(tx);

        let (mut sent, mut ran) = (0, 0);
        let mut landed = BTreeMap::new();
        let mut acc = init;
        for (slot, shard) in shards.iter().enumerate() {
            let value = if let Some(value) = resumed.remove(&slot) {
                coverage.resumed += 1;
                value
            } else {
                while sent < open.len().min(ran + window) && jobs.send(sent).is_ok() {
                    sent += 1;
                }
                // Results arrive in completion order; the fold takes them
                // in shard order. A worker that stopped early would be an
                // engine bug: the coverage then comes up short.
                while !landed.contains_key(&ran) {
                    let Ok((i, result)) = results.recv() else { break };
                    landed.insert(i, result);
                }
                let Some(result) = landed.remove(&ran) else { break };
                ran += 1;
                match result {
                    Ok(value) => {
                        if let (Some(journal), None) = (journal.as_mut(), &journal_err) {
                            journal_err = journal(slot, &value).err();
                        }
                        value
                    }
                    Err(message) => {
                        coverage.failed.push(ShardFailure { shard_id: shard.id, message });
                        continue;
                    }
                }
            };
            coverage.completed += 1;
            acc = fold(acc, slot, value);
        }
        acc
    });
    (SweepOutcome { value, coverage }, journal_err)
}

#[cfg(test)]
mod tests {
    #![expect(clippy::disallowed_methods, reason = "the tests remove their journal files")]

    use super::*;
    use crate::checkpoint::run_fingerprint;
    use crate::plan::ShardPlan;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn clean_sum(shards: &[Shard<usize>]) -> u64 {
        shards.iter().fold(0u64, |acc, s| acc.wrapping_add(s.seed ^ s.input as u64))
    }

    #[test]
    fn coverage_table_is_explicit_about_failures() {
        let mut cov = Coverage { total: 4, completed: 3, ..Coverage::default() };
        cov.failed.push(ShardFailure { shard_id: 2, message: "boom".to_string() });
        let table = cov.table();
        assert!(table.contains("coverage 3/4 shards (1 failed)"), "{table}");
        assert!(table.contains("shard 2: panicked: boom"), "{table}");
        assert!(!cov.is_complete());
    }

    #[test]
    fn degraded_sweep_folds_surviving_shard_ids_in_order() {
        let shards = ShardPlan::new(1).over(0..10usize);
        for jobs in [1, 4] {
            let out = Executor::new(jobs).sweep(
                &shards,
                |s| {
                    assert!(s.input % 3 != 1, "shard {} fails", s.input);
                    s.input * 2
                },
                Vec::new(),
                |mut acc, id, value| {
                    acc.push((id, value));
                    acc
                },
            );
            let failed: Vec<usize> = out.coverage.failed.iter().map(|f| f.shard_id).collect();
            assert_eq!(failed, [1, 4, 7], "jobs={jobs}");
            let want: Vec<(usize, usize)> =
                (0..10).filter(|i| i % 3 != 1).map(|i| (i, i * 2)).collect();
            assert_eq!(out.value, want, "jobs={jobs}");
            assert_eq!(out.coverage.completed, 7, "jobs={jobs}");
        }
    }

    #[test]
    fn checkpointed_run_resumes_without_rerunning_journaled_shards() {
        let mut path = std::env::temp_dir();
        path.push(format!("lookaside-sweep-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let run_id = run_fingerprint(&[0xf16, 12, 20]);
        let shards = ShardPlan::new(12).over(0..20usize);
        let task = |s: &Shard<usize>| s.seed ^ s.input as u64;

        // First run: journal everything, remember the clean fold.
        let mut ck: Checkpoint<u64> = Checkpoint::fresh(&path, run_id).expect("fresh");
        let first = Executor::new(2)
            .sweep_checkpointed(
                &shards,
                task,
                Vec::new(),
                |mut acc: Vec<u64>, _slot, v| {
                    acc.push(v);
                    acc
                },
                &mut ck,
            )
            .expect("checkpointed run");
        assert!(first.coverage.is_complete());
        drop(ck);

        // Second run resumes: every shard must come from the journal and
        // the fold must be byte-identical; re-running any shard panics.
        let reran = AtomicUsize::new(0);
        let mut ck: Checkpoint<u64> = Checkpoint::resume(&path, run_id).expect("resume");
        let second = Executor::new(4)
            .sweep_checkpointed(
                &shards,
                |s: &Shard<usize>| {
                    reran.fetch_add(1, Ordering::Relaxed);
                    s.seed ^ s.input as u64
                },
                Vec::new(),
                |mut acc: Vec<u64>, _slot, v| {
                    acc.push(v);
                    acc
                },
                &mut ck,
            )
            .expect("resumed run");
        assert_eq!(reran.load(Ordering::Relaxed), 0, "journaled shards must not re-run");
        assert_eq!(second.value, first.value);
        assert_eq!(second.coverage.resumed, 20);
        assert!(second.coverage.is_complete());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn partially_journaled_run_resumes_the_remainder_only() {
        let mut path = std::env::temp_dir();
        path.push(format!("lookaside-sweep-partial-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let run_id = run_fingerprint(&[0xf17, 5, 16]);
        let shards = ShardPlan::new(5).over(0..16usize);

        // Journal only the first 6 shards, as a killed run would have.
        {
            let mut ck: Checkpoint<u64> = Checkpoint::fresh(&path, run_id).expect("fresh");
            for s in shards.iter().take(6) {
                ck.record(s.id, &(s.seed ^ s.input as u64)).expect("record");
            }
        }
        let reran = AtomicUsize::new(0);
        let mut ck: Checkpoint<u64> = Checkpoint::resume(&path, run_id).expect("resume");
        let out = Executor::new(3)
            .sweep_checkpointed(
                &shards,
                |s: &Shard<usize>| {
                    reran.fetch_add(1, Ordering::Relaxed);
                    s.seed ^ s.input as u64
                },
                0u64,
                |acc, _slot, v| acc.wrapping_add(v),
                &mut ck,
            )
            .expect("resumed run");
        assert_eq!(reran.load(Ordering::Relaxed), 10, "only the tail re-runs");
        assert_eq!(out.value, clean_sum(&shards));
        assert_eq!(out.coverage.resumed, 6);
        assert!(out.coverage.is_complete());
        let _ = std::fs::remove_file(&path);
    }
}
