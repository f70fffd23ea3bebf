//! Deterministic sharded parallel experiment engine.
//!
//! Every experiment in the reproduction is embarrassingly parallel by the
//! paper's own methodology: independent measurement boxes run their slice
//! of the workload, pcaps are merged offline. This crate supplies the
//! machinery to do exactly that on a thread pool **without giving up
//! bit-for-bit determinism**:
//!
//! * [`ShardPlan`] / [`Shard`] — pure-function decomposition of a
//!   workload (sweep points, grid cells, client cohorts, trace windows),
//!   each shard deriving its private RNG seed as
//!   [`splitmix64`]`(root_seed, shard_id)`,
//! * [`Executor`] — a scoped `std::thread` pool with a `--jobs N` knob
//!   (default [`std::thread::available_parallelism`]) and per-shard panic
//!   isolation,
//! * [`Executor::sweep`] — the one way to run a plan: every shard runs
//!   exactly once, results fold into one accumulator in shard-id order,
//!   and a shard whose task panics is listed in the returned
//!   [`SweepOutcome`]'s [`Coverage`] instead of aborting the run.
//!   [`Executor::sweep_checkpointed`] is the same sweep journalling each
//!   completed shard to a [`Checkpoint`].
//!
//! The engine is workload-agnostic on purpose: it knows nothing about
//! DNS, captures, or simulated internets. Higher layers (the `lookaside`
//! core crate) hand it closures whose *workers own private simulated
//! Internet replicas*, and the fold sees their outputs in shard-id
//! order — which is what makes `jobs=1` and `jobs=N` byte-identical.
//!
//! # Example
//!
//! ```
//! use lookaside_engine::{Executor, ShardPlan};
//!
//! let shards = ShardPlan::new(42).over(1..101usize);
//! let sum = |exec: Executor| exec.sweep(&shards, |shard| shard.input, 0, |acc, _id, v| acc + v);
//! let wide = sum(Executor::new(4));
//! assert!(wide.coverage.is_complete());
//! assert_eq!(wide.value, (1..101).sum::<usize>());
//! // Identical fold regardless of worker count:
//! assert_eq!(wide, sum(Executor::serial()));
//! ```

// Typed errors, not panics: clippy holds live code to that, indexing
// included, and every waiver is an `#[expect]` with a reason.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable,
        clippy::indexing_slicing,
        clippy::string_slice,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]
#![warn(missing_docs)]

mod checkpoint;
pub mod diag;
mod executor;
mod plan;
mod seed;
mod sweep;

pub use checkpoint::{
    crc32, run_fingerprint, Checkpoint, JournalCodec, JournalError, JOURNAL_MAGIC, JOURNAL_VERSION,
};
pub use executor::Executor;
pub use plan::{Shard, ShardPlan};
pub use seed::splitmix64;
pub use sweep::{Coverage, ShardFailure, SweepOutcome};
