//! The supervision layer: bounded retries, seeded fault injection, and
//! graceful degradation over [`Executor`] sweeps (DESIGN.md §14).
//!
//! [`Executor::sweep`] is the engine's one way to run a shard plan: a
//! worker pool whose results fold into one accumulator in ascending
//! shard id, under a supervising dispatcher:
//!
//! * failed shards are requeued under a bounded, seeded [`RetryPolicy`]
//!   with a per-shard attempt budget;
//! * shards that exhaust their budget degrade into explicit [`Coverage`]
//!   accounting instead of aborting the sweep — no silent caps;
//! * a seeded [`EngineFaultPlan`] injects worker panics so every path
//!   above is testable without real crashes.
//!
//! Determinism contract: the folded value and the coverage are pure
//! functions of (shards, task, retry budget, fault plan). Thread
//! scheduling decides only *when* an attempt runs, never what any shard
//! computes nor the order the fold observes results.

// lint:allow-file(panic::slice-index) -- every per-shard vector below is constructed with exactly shards.len() elements and indexed only by slot ids yielded by enumerate()/channel echoes of those ids; bounds are structural, and a miss would be an engine bug worth a loud panic

use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc;
use std::thread;

use crate::checkpoint::{Checkpoint, JournalCodec, JournalError};
use crate::executor::{run_one, Executor};
use crate::plan::Shard;
use crate::queue::BoundedQueue;
use crate::seed::splitmix64;

/// Bounded, seeded retry budget for failed shards.
///
/// The seed only spreads requeued shards across the backlog (front or
/// back, drawn per `(shard, attempt)`) so retry storms do not redispatch
/// in lockstep; it can never reach a shard's computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per shard, including the first (minimum 1).
    pub max_attempts: u32,
    /// Seed for the requeue-position draw.
    pub seed: u64,
}

impl RetryPolicy {
    /// One attempt per shard — failures are terminal immediately.
    pub const NONE: RetryPolicy = RetryPolicy { max_attempts: 1, seed: 0 };

    /// `max_attempts` total attempts per shard (floored at 1).
    pub fn new(max_attempts: u32) -> Self {
        RetryPolicy { max_attempts: max_attempts.max(1), seed: 0x5e7_21e5 }
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::new(3)
    }
}

/// A fault injected into one `(shard, attempt)` execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineFault {
    /// Run the task normally.
    None,
    /// Fail the attempt as if the worker panicked inside the task.
    Panic,
}

/// Seeded worker panic injection — the engine's chaos plane, mirroring
/// the resolver's link-fault plane from PR 1.
///
/// Faults are a pure function of `(seed, shard_id, attempt)`, so a
/// faulty run is exactly reproducible and the failure set in a coverage
/// table is byte-identical across `--jobs` values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineFaultPlan {
    /// Root seed of the fault stream.
    pub seed: u64,
    /// Per-mille probability that an attempt dies as a worker panic.
    pub panic_per_mille: u16,
    /// Attempts at index `>= faulty_attempts` always run clean, so tests
    /// can guarantee a bounded retry budget wins.
    pub faulty_attempts: u32,
}

impl EngineFaultPlan {
    /// No injected faults — the production setting.
    pub const NONE: EngineFaultPlan =
        EngineFaultPlan { seed: 0, panic_per_mille: 0, faulty_attempts: 0 };

    /// Whether the plan can ever inject anything.
    pub fn is_none(&self) -> bool {
        self.panic_per_mille == 0
    }

    /// Draws the fault for one `(shard_id, attempt)` execution.
    pub fn draw(&self, shard_id: usize, attempt: u32) -> EngineFault {
        if self.is_none() || attempt >= self.faulty_attempts {
            return EngineFault::None;
        }
        let roll =
            (splitmix64(splitmix64(self.seed, u64::from(attempt)), shard_id as u64) % 1000) as u16;
        if roll < self.panic_per_mille {
            EngineFault::Panic
        } else {
            EngineFault::None
        }
    }
}

/// Configuration of one supervised sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Supervisor {
    /// Per-shard retry budget.
    pub retry: RetryPolicy,
    /// Injected faults; [`EngineFaultPlan::NONE`] in production.
    pub faults: EngineFaultPlan,
}

impl Supervisor {
    /// Three attempts per shard, no injected faults — the production
    /// setting, under which every clean run completes every shard on its
    /// first attempt.
    pub fn new() -> Self {
        Supervisor { retry: RetryPolicy::default(), faults: EngineFaultPlan::NONE }
    }
}

impl Default for Supervisor {
    fn default() -> Self {
        Supervisor::new()
    }
}

/// One shard that exhausted its retry budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardFailure {
    /// Shard id within the plan.
    pub shard_id: usize,
    /// Attempts consumed (the full retry budget).
    pub attempts: u32,
    /// The last budgeted attempt's failure message.
    pub message: String,
}

/// Per-shard accounting of how a supervised sweep ended.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Coverage {
    /// Shards in the plan.
    pub total: usize,
    /// Shards that produced a result, including resumed ones.
    pub completed: usize,
    /// Completed shards satisfied from a resumed checkpoint journal.
    pub resumed: usize,
    /// Shards that completed only after at least one failed attempt.
    pub retried: usize,
    /// Shards that exhausted their budget, ascending by shard id.
    pub failed: Vec<ShardFailure>,
}

impl Coverage {
    /// Whether every shard completed.
    pub fn is_complete(&self) -> bool {
        self.failed.is_empty() && self.completed == self.total
    }

    /// One-line deterministic summary, e.g.
    /// `coverage 17/20 shards (2 resumed, 1 retried, 3 failed)`.
    pub fn summary(&self) -> String {
        let mut s = format!("coverage {}/{} shards", self.completed, self.total);
        let mut notes = Vec::new();
        if self.resumed > 0 {
            notes.push(format!("{} resumed", self.resumed));
        }
        if self.retried > 0 {
            notes.push(format!("{} retried", self.retried));
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
    /// line per failed shard. Everything in it is a pure function of the
    /// sweep configuration and fault plan.
    pub fn table(&self) -> String {
        let mut out = self.summary();
        for f in &self.failed {
            out.push_str(&format!(
                "\n  shard {}: failed after {} attempts: {}",
                f.shard_id, f.attempts, f.message
            ));
        }
        out
    }
}

/// A supervised sweep's folded value plus its coverage accounting.
///
/// Callers must consult `coverage` before treating `value` as complete:
/// a degraded sweep folds only the shards that completed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepOutcome<A> {
    /// The fold over every completed shard, ascending shard id.
    pub value: A,
    /// What completed, what was resumed, what was retried, what failed.
    pub coverage: Coverage,
}

impl Executor {
    /// Runs every shard under supervision and folds completed results in
    /// ascending shard-id order, passing the shard id alongside each
    /// value so degraded folds can account for holes.
    ///
    /// With one worker (or one shard) everything runs inline; otherwise a
    /// scoped pool drains a bounded queue while the calling thread folds,
    /// buffering out-of-order completions until every lower shard id has
    /// been folded or has failed. Never panics on shard failure: shards
    /// that exhaust their retry budget are skipped by the fold and listed
    /// in the coverage.
    // lint:entry(hot-path)
    pub fn sweep<I, T, A, F, G>(
        &self,
        shards: &[Shard<I>],
        task: F,
        init: A,
        fold: G,
        sup: &Supervisor,
    ) -> SweepOutcome<A>
    where
        I: Sync,
        T: Send,
        F: Fn(&Shard<I>) -> T + Sync,
        G: FnMut(A, usize, T) -> A,
    {
        let (outcome, _journal_err) =
            supervise(self, shards, task, init, fold, sup, BTreeMap::new(), None);
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
        sup: &Supervisor,
        ckpt: &mut Checkpoint<T>,
    ) -> Result<SweepOutcome<A>, JournalError>
    where
        I: Sync,
        T: Send + JournalCodec,
        F: Fn(&Shard<I>) -> T + Sync,
        G: FnMut(A, usize, T) -> A,
    {
        let resumed = ckpt.take_resumed();
        let (outcome, journal_err) = {
            let mut sink = |shard_id: usize, value: &T| ckpt.record(shard_id, value);
            supervise(self, shards, task, init, fold, sup, resumed, Some(&mut sink))
        };
        match journal_err {
            Some(err) => Err(err),
            None => Ok(outcome),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    Open,
    Done,
    Failed,
}

type SinkRef<'a, T> = Option<&'a mut (dyn FnMut(usize, &T) -> Result<(), JournalError> + 'a)>;

fn run_injected<I, T, F>(
    task: &F,
    shard: &Shard<I>,
    attempt: u32,
    faults: &EngineFaultPlan,
) -> Result<T, String>
where
    F: Fn(&Shard<I>) -> T,
{
    match faults.draw(shard.id, attempt) {
        EngineFault::Panic => Err(format!("injected worker panic (attempt {attempt})")),
        EngineFault::None => run_one(task, shard),
    }
}

/// Advances the fold front over resolved slots: `Done` slots are
/// journaled (unless resumed) and folded, `Failed` slots are skipped.
#[allow(clippy::too_many_arguments)]
fn advance_fold<T, A, G>(
    next: &mut usize,
    states: &[SlotState],
    pending: &mut BTreeMap<usize, T>,
    acc: &mut Option<A>,
    fold: &mut G,
    resumed_flags: &[bool],
    sink: &mut SinkRef<'_, T>,
    journal_err: &mut Option<JournalError>,
) where
    G: FnMut(A, usize, T) -> A,
{
    while let Some(state) = states.get(*next) {
        match state {
            SlotState::Open => break,
            SlotState::Failed => *next += 1,
            SlotState::Done => {
                let Some(value) = pending.remove(next) else { break };
                let was_resumed = resumed_flags.get(*next).copied().unwrap_or(false);
                if !was_resumed && journal_err.is_none() {
                    if let Some(s) = sink.as_mut() {
                        if let Err(e) = s(*next, &value) {
                            *journal_err = Some(e);
                        }
                    }
                }
                if let Some(current) = acc.take() {
                    *acc = Some(fold(current, *next, value));
                }
                *next += 1;
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn supervise<I, T, A, F, G>(
    exec: &Executor,
    shards: &[Shard<I>],
    task: F,
    init: A,
    mut fold: G,
    sup: &Supervisor,
    resumed: BTreeMap<usize, T>,
    mut sink: SinkRef<'_, T>,
) -> (SweepOutcome<A>, Option<JournalError>)
where
    I: Sync,
    T: Send,
    F: Fn(&Shard<I>) -> T + Sync,
    G: FnMut(A, usize, T) -> A,
{
    let n = shards.len();
    let mut cov = Coverage { total: n, ..Coverage::default() };
    let mut acc: Option<A> = Some(init);
    let mut journal_err: Option<JournalError> = None;

    let mut states = vec![SlotState::Open; n];
    let mut resumed_flags = vec![false; n];
    let mut pending: BTreeMap<usize, T> = BTreeMap::new();
    for (id, value) in resumed {
        // Out-of-range ids can only come from a journal of a larger run;
        // the run fingerprint should prevent that, but never trust them.
        if id < n {
            states[id] = SlotState::Done;
            resumed_flags[id] = true;
            cov.resumed += 1;
            cov.completed += 1;
            pending.insert(id, value);
        }
    }
    let mut next_fold = 0usize;
    advance_fold(
        &mut next_fold,
        &states,
        &mut pending,
        &mut acc,
        &mut fold,
        &resumed_flags,
        &mut sink,
        &mut journal_err,
    );

    let workers = exec.jobs().min(n);
    if workers <= 1 {
        // Serial supervision: retries and fault injection inline.
        for (slot, shard) in shards.iter().enumerate() {
            if states[slot] != SlotState::Open {
                continue;
            }
            let mut attempt = 0u32;
            loop {
                let result = run_injected(&task, shard, attempt, &sup.faults);
                attempt += 1;
                match result {
                    Ok(value) => {
                        states[slot] = SlotState::Done;
                        cov.completed += 1;
                        if attempt > 1 {
                            cov.retried += 1;
                        }
                        pending.insert(slot, value);
                        break;
                    }
                    Err(err) => {
                        if attempt >= sup.retry.max_attempts {
                            states[slot] = SlotState::Failed;
                            cov.failed.push(ShardFailure {
                                shard_id: shard.id,
                                attempts: attempt,
                                message: err,
                            });
                            break;
                        }
                    }
                }
            }
            advance_fold(
                &mut next_fold,
                &states,
                &mut pending,
                &mut acc,
                &mut fold,
                &resumed_flags,
                &mut sink,
                &mut journal_err,
            );
        }
    } else {
        supervise_parallel(
            exec,
            shards,
            &task,
            sup,
            &mut states,
            &resumed_flags,
            &mut pending,
            &mut next_fold,
            &mut acc,
            &mut fold,
            &mut cov,
            &mut sink,
            &mut journal_err,
        );
    }

    cov.failed.sort_by_key(|f| f.shard_id);
    #[expect(
        clippy::expect_used,
        reason = "the accumulator is only taken while folding and always put back; a hole here is an engine bug worth failing loudly"
    )]
    let value = acc.expect("accumulator survives the fold");
    let outcome = SweepOutcome { value, coverage: cov };
    (outcome, journal_err)
}

#[allow(clippy::too_many_arguments)]
fn supervise_parallel<I, T, A, F, G>(
    exec: &Executor,
    shards: &[Shard<I>],
    task: &F,
    sup: &Supervisor,
    states: &mut [SlotState],
    resumed_flags: &[bool],
    pending: &mut BTreeMap<usize, T>,
    next_fold: &mut usize,
    acc: &mut Option<A>,
    fold: &mut G,
    cov: &mut Coverage,
    sink: &mut SinkRef<'_, T>,
    journal_err: &mut Option<JournalError>,
) where
    I: Sync,
    T: Send,
    F: Fn(&Shard<I>) -> T + Sync,
    G: FnMut(A, usize, T) -> A,
{
    let n = shards.len();
    let workers = exec.jobs().min(n);
    let capacity = workers * 2;
    let queue: BoundedQueue<(usize, u32)> = BoundedQueue::new(capacity);
    let (tx, rx) = mpsc::channel::<(usize, u32, Result<T, String>)>();

    thread::scope(|scope| {
        let queue = &queue;
        let faults = &sup.faults;
        for _ in 0..workers {
            let tx = tx.clone();
            scope.spawn(move || {
                while let Some((slot, attempt)) = queue.pop() {
                    let Some(shard) = shards.get(slot) else { continue };
                    let result = run_injected(task, shard, attempt, faults);
                    if tx.send((slot, attempt, result)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);

        // Open slots, each with the attempt it is due; a failed attempt
        // with budget left requeues its slot with the next one.
        let mut backlog: VecDeque<(usize, u32)> = states
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == SlotState::Open)
            .map(|(i, _)| (i, 0))
            .collect();
        let mut unresolved = backlog.len();
        let mut outstanding = 0usize;

        while unresolved > 0 {
            // Dispatch from the backlog while there is room in flight;
            // outstanding < capacity guarantees push never blocks.
            while outstanding < capacity {
                let Some(job) = backlog.pop_front() else { break };
                if !queue.push(job) {
                    break;
                }
                outstanding += 1;
            }
            let Ok((slot, attempt, result)) = rx.recv() else { break };
            outstanding -= 1;
            match result {
                Ok(value) => {
                    states[slot] = SlotState::Done;
                    cov.completed += 1;
                    if attempt > 0 {
                        cov.retried += 1;
                    }
                    pending.insert(slot, value);
                }
                Err(_) if attempt + 1 < sup.retry.max_attempts => {
                    // Seeded requeue position: spread retries so they do
                    // not redispatch in lockstep.
                    let retry = (slot, attempt + 1);
                    if splitmix64(sup.retry.seed ^ u64::from(attempt), slot as u64) & 1 == 0 {
                        backlog.push_back(retry);
                    } else {
                        backlog.push_front(retry);
                    }
                    continue;
                }
                Err(message) => {
                    states[slot] = SlotState::Failed;
                    cov.failed.push(ShardFailure {
                        shard_id: shards.get(slot).map_or(slot, |s| s.id),
                        attempts: attempt + 1,
                        message,
                    });
                }
            }
            unresolved -= 1;
            advance_fold(next_fold, states, pending, acc, fold, resumed_flags, sink, journal_err);
        }
        queue.close();
        // Every dispatched attempt has reported back, so the queue is
        // empty: the workers see it closed and exit, and the scope joins.
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ShardPlan;

    fn clean_sum(shards: &[Shard<usize>]) -> u64 {
        shards.iter().fold(0u64, |acc, s| acc.wrapping_add(s.seed ^ s.input as u64))
    }

    fn sum_supervised(jobs: usize, shards: &[Shard<usize>], sup: &Supervisor) -> SweepOutcome<u64> {
        Executor::new(jobs).sweep(
            shards,
            |s| s.seed ^ s.input as u64,
            0u64,
            |acc, _slot, v| acc.wrapping_add(v),
            sup,
        )
    }

    #[test]
    fn clean_supervised_run_matches_plain_fold_at_any_job_count() {
        let shards = ShardPlan::new(7).over(0..97usize);
        let want = clean_sum(&shards);
        for jobs in [1, 2, 8] {
            let out = sum_supervised(jobs, &shards, &Supervisor::new());
            assert_eq!(out.value, want, "jobs={jobs}");
            assert!(out.coverage.is_complete());
            assert_eq!(out.coverage.completed, 97);
            assert_eq!(out.coverage.retried, 0);
        }
    }

    #[test]
    fn injected_panics_are_retried_to_byte_identical_results() {
        let shards = ShardPlan::new(3).over(0..64usize);
        let want = clean_sum(&shards);
        // Every first attempt panics; the retry (attempt 1) runs clean.
        let sup = Supervisor {
            retry: RetryPolicy::new(2),
            faults: EngineFaultPlan { seed: 5, panic_per_mille: 1000, faulty_attempts: 1 },
        };
        for jobs in [1, 3, 8] {
            let out = sum_supervised(jobs, &shards, &sup);
            assert_eq!(out.value, want, "jobs={jobs}");
            assert!(out.coverage.is_complete(), "jobs={jobs}: {}", out.coverage.table());
            assert_eq!(out.coverage.retried, 64, "jobs={jobs}");
        }
    }

    #[test]
    fn exhausted_budgets_degrade_with_deterministic_coverage() {
        let shards = ShardPlan::new(1).over(0..40usize);
        // ~30% of (shard, attempt) draws panic forever: some shards burn
        // the whole budget, and exactly which ones is seed-determined.
        let sup = Supervisor {
            retry: RetryPolicy::new(2),
            faults: EngineFaultPlan { seed: 42, panic_per_mille: 300, faulty_attempts: u32::MAX },
        };
        let serial = sum_supervised(1, &shards, &sup);
        assert!(!serial.coverage.is_complete(), "seed 42 must fail some shard");
        for f in &serial.coverage.failed {
            assert_eq!(f.attempts, 2);
            assert!(f.message.contains("injected worker panic"), "{}", f.message);
        }
        for jobs in [2, 4, 8] {
            let par = sum_supervised(jobs, &shards, &sup);
            assert_eq!(par.value, serial.value, "jobs={jobs}");
            assert_eq!(par.coverage.failed, serial.coverage.failed, "jobs={jobs}");
            assert_eq!(par.coverage.completed, serial.coverage.completed, "jobs={jobs}");
            assert_eq!(par.coverage.retried, serial.coverage.retried, "jobs={jobs}");
        }
        // The degraded fold must equal summing exactly the non-failed shards.
        let failed: std::collections::BTreeSet<usize> =
            serial.coverage.failed.iter().map(|f| f.shard_id).collect();
        let expect: u64 = shards
            .iter()
            .filter(|s| !failed.contains(&s.id))
            .fold(0u64, |acc, s| acc.wrapping_add(s.seed ^ s.input as u64));
        assert_eq!(serial.value, expect);
    }

    #[test]
    fn coverage_table_is_explicit_about_failures() {
        let mut cov = Coverage { total: 4, completed: 3, ..Coverage::default() };
        cov.failed.push(ShardFailure { shard_id: 2, attempts: 3, message: "boom".to_string() });
        let table = cov.table();
        assert!(table.contains("coverage 3/4 shards"), "{table}");
        assert!(table.contains("shard 2: failed after 3 attempts: boom"), "{table}");
        assert!(!cov.is_complete());
    }

    #[test]
    fn fault_plan_draws_are_pure_and_capped() {
        let plan = EngineFaultPlan { seed: 17, panic_per_mille: 500, faulty_attempts: 2 };
        for shard in 0..32usize {
            for attempt in 0..4u32 {
                assert_eq!(plan.draw(shard, attempt), plan.draw(shard, attempt));
            }
            assert_eq!(plan.draw(shard, 2), EngineFault::None, "cap must win");
        }
        assert!(EngineFaultPlan::NONE.is_none());
    }

    #[test]
    fn degraded_sweep_folds_surviving_shard_ids_in_order() {
        let shards = ShardPlan::new(1).over(0..10usize);
        let sup = Supervisor {
            retry: RetryPolicy::NONE,
            faults: EngineFaultPlan { seed: 42, panic_per_mille: 300, faulty_attempts: u32::MAX },
        };
        let out = Executor::new(4).sweep(
            &shards,
            |s| s.input * 2,
            Vec::new(),
            |mut acc, id, value| {
                acc.push((id, value));
                acc
            },
            &sup,
        );
        let failed: std::collections::BTreeSet<usize> =
            out.coverage.failed.iter().map(|f| f.shard_id).collect();
        assert!(!failed.is_empty(), "seed 42 must fail a shard at one attempt");
        let want: Vec<(usize, usize)> =
            (0..10).filter(|i| !failed.contains(i)).map(|i| (i, i * 2)).collect();
        assert_eq!(out.value, want);
    }

    #[test]
    fn checkpointed_run_resumes_without_rerunning_journaled_shards() {
        use crate::checkpoint::{run_fingerprint, Checkpoint};
        use std::sync::atomic::{AtomicUsize, Ordering};

        let mut path = std::env::temp_dir();
        path.push(format!("lookaside-sup-ckpt-{}", std::process::id()));
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
                &Supervisor::new(),
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
                &Supervisor::new(),
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
        use crate::checkpoint::{run_fingerprint, Checkpoint};
        use std::sync::atomic::{AtomicUsize, Ordering};

        let mut path = std::env::temp_dir();
        path.push(format!("lookaside-sup-partial-{}", std::process::id()));
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
                &Supervisor::new(),
                &mut ck,
            )
            .expect("resumed run");
        assert_eq!(reran.load(Ordering::Relaxed), 10, "only the tail re-runs");
        assert_eq!(out.value, clean_sum(&shards));
        assert_eq!(out.coverage.resumed, 6);
        assert!(out.coverage.is_complete());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn new_supervisor_has_safe_defaults() {
        let sup = Supervisor::new();
        assert_eq!(sup.retry.max_attempts, 3);
        assert!(sup.faults.is_none());
    }
}
