//! Integration tests for sweeps that meet failures: checkpoint/resume
//! through the public `fig12_checkpointed` path, journal corruption
//! fixtures, and property tests that panicking shards and resumed
//! journals never change the other shards' results.

#![expect(clippy::disallowed_methods, reason = "the tests write and corrupt journal files")]

use std::fs;
use std::path::PathBuf;

use lookaside::engine::{run_fingerprint, Checkpoint, Executor, Shard, ShardPlan};
use lookaside::experiments::{fig12, fig12_checkpointed, Fig12Data};
use proptest::prelude::*;

/// Fig. 12 at 1/500000 sampling: seconds-fast, several window shards.
const SCALE: u64 = 500_000;

fn temp_journal(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("lookaside-supervised-{}-{tag}.ckpt", std::process::id()));
    let _ = fs::remove_file(&p);
    p
}

/// Byte-identity for Fig. 12 data (floats compared by bit pattern).
fn assert_fig12_identical(a: &Fig12Data, b: &Fig12Data) {
    assert_eq!(a.per_minute, b.per_minute);
    assert_eq!(a.cumulative_queries, b.cumulative_queries);
    assert_eq!(a.cumulative_baseline_bytes, b.cumulative_baseline_bytes);
    assert_eq!(a.cumulative_overhead_bytes, b.cumulative_overhead_bytes);
    assert_eq!(a.overhead_mbps.to_bits(), b.overhead_mbps.to_bits());
}

#[test]
fn checkpointed_fig12_matches_plain_and_resumes_byte_identical() {
    let exec = Executor::new(2);
    let plain = fig12(&exec, 7, SCALE);
    // The window fold is worker-count invariant.
    assert_fig12_identical(&fig12(&Executor::serial(), 7, SCALE), &plain);
    let path = temp_journal("full");
    let first = fig12_checkpointed(&exec, 7, SCALE, &path).unwrap();
    assert_fig12_identical(&first, &plain);
    // Resuming a completed journal satisfies every shard from disk and
    // must still reproduce the figure byte for byte.
    let resumed = fig12_checkpointed(&exec, 7, SCALE, &path).unwrap();
    assert_fig12_identical(&resumed, &plain);
    let _ = fs::remove_file(&path);
}

#[test]
fn torn_journal_tail_resumes_byte_identical() {
    let exec = Executor::serial();
    let plain = fig12(&exec, 11, SCALE);
    let path = temp_journal("torn");
    fig12_checkpointed(&exec, 11, SCALE, &path).unwrap();
    let bytes = fs::read(&path).unwrap();
    assert!(bytes.len() > 32, "journal too small to tear meaningfully");
    // A SIGKILL mid-append leaves a partial trailing record; the resume
    // must drop it silently and re-run only the missing shards.
    fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
    let resumed = fig12_checkpointed(&exec, 11, SCALE, &path).unwrap();
    assert_fig12_identical(&resumed, &plain);
    let _ = fs::remove_file(&path);
}

#[test]
fn corrupt_mid_journal_record_resumes_byte_identical() {
    let exec = Executor::serial();
    let plain = fig12(&exec, 13, SCALE);
    let path = temp_journal("corrupt");
    fig12_checkpointed(&exec, 13, SCALE, &path).unwrap();
    let mut bytes = fs::read(&path).unwrap();
    // Flip one byte halfway through: that record's CRC fails, the journal
    // is truncated to the last valid record before it, and the suffix is
    // recomputed — never folded from corrupt bytes.
    let at = bytes.len() / 2;
    bytes[at] ^= 0xff;
    fs::write(&path, &bytes).unwrap();
    let resumed = fig12_checkpointed(&exec, 13, SCALE, &path).unwrap();
    assert_fig12_identical(&resumed, &plain);
    let _ = fs::remove_file(&path);
}

fn shard_value(s: &Shard<u64>) -> u64 {
    // A seed- and input-dependent value: any scheduling or resume bug that
    // swaps, drops, or duplicates a shard changes the fold.
    s.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ s.input.wrapping_mul(0x100_0000_01b3)
}

fn fold_pairs(mut acc: Vec<(usize, u64)>, id: usize, v: u64) -> Vec<(usize, u64)> {
    acc.push((id, v));
    acc
}

proptest! {
    /// Shards whose task panics are listed in the coverage, in shard
    /// order, and leave every other shard's result in the fold exactly as
    /// a clean serial sweep has it, at every job count.
    #[test]
    fn panicking_shards_leave_the_other_shards_fold_intact_at_any_job_count(
        seed in 0u64..1_000,
        failing in proptest::collection::btree_set(0usize..24, 0..6),
        jobs in 1usize..5,
    ) {
        let shards = ShardPlan::new(seed).over(0..24u64);
        let clean = Executor::serial().sweep(&shards, shard_value, Vec::new(), fold_pairs);
        let degraded = Executor::new(jobs).sweep(
            &shards,
            |s| {
                assert!(!failing.contains(&s.id), "shard {} fails", s.id);
                shard_value(s)
            },
            Vec::new(),
            fold_pairs,
        );
        let survivors: Vec<(usize, u64)> =
            clean.value.into_iter().filter(|(id, _)| !failing.contains(id)).collect();
        prop_assert_eq!(degraded.value, survivors);
        let failed: Vec<usize> = degraded.coverage.failed.iter().map(|f| f.shard_id).collect();
        prop_assert_eq!(failed, failing.iter().copied().collect::<Vec<_>>());
        prop_assert_eq!(degraded.coverage.completed, 24 - failing.len());
    }

    /// Cutting the journal at an arbitrary byte past the header and
    /// resuming reproduces the complete fold: the valid prefix is folded
    /// from disk, the rest is recomputed.
    #[test]
    fn journal_cut_anywhere_resumes_to_identical_fold(
        seed in 0u64..200,
        cut_percent in 0u64..100,
    ) {
        let shards = ShardPlan::new(seed).over(0..8u64);
        let run_id = run_fingerprint(&[0x7e57, seed, shards.len() as u64]);
        let path = temp_journal(&format!("cut-{seed}-{cut_percent}"));
        let mut ckpt = Checkpoint::fresh(&path, run_id).unwrap();
        let full = Executor::serial()
            .sweep_checkpointed(
                &shards, shard_value, Vec::new(), fold_pairs, &mut ckpt)
            .unwrap();
        drop(ckpt);
        let bytes = fs::read(&path).unwrap();
        // Keep the 18-byte header plus an arbitrary fraction of records.
        let keep = 18 + (bytes.len() - 18) * cut_percent as usize / 100;
        fs::write(&path, &bytes[..keep]).unwrap();
        let mut ckpt: Checkpoint<u64> = Checkpoint::resume(&path, run_id).unwrap();
        let resumed_shards = ckpt.take_resumed();
        prop_assert!(resumed_shards.len() <= shards.len());
        // take_resumed consumed the journal's prefix; rebuild the handle
        // so the checkpointed run folds it.
        drop(ckpt);
        let mut ckpt = Checkpoint::resume(&path, run_id).unwrap();
        let again = Executor::serial()
            .sweep_checkpointed(
                &shards, shard_value, Vec::new(), fold_pairs, &mut ckpt)
            .unwrap();
        prop_assert_eq!(&again.value, &full.value);
        prop_assert_eq!(again.coverage.resumed, resumed_shards.len());
        prop_assert!(again.coverage.is_complete());
        drop(ckpt);
        let _ = fs::remove_file(&path);
    }
}
