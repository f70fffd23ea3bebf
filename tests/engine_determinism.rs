//! Determinism suite for the sharded parallel experiment engine.
//!
//! The engine's contract is that worker threads decide *when* a shard
//! runs, never *what* it produces: for a fixed seed, every worker count
//! must yield byte-identical report text. These properties drive sweeps
//! through the public API the `repro` binary uses, so `--jobs 1` vs
//! `--jobs N` byte-identity is asserted against the same rendering the
//! user sees.

use std::collections::BTreeMap;
use std::num::NonZeroU64;
use std::sync::Mutex;
use std::sync::OnceLock;

use proptest::prelude::*;

use lookaside::byzantine::{byzantine_sweep, ByzantineConfig};
use lookaside::chaos::{chaos_outage, ChaosConfig};
use lookaside::engine::Executor;
use lookaside::experiments::{deployment_sweep, fig12, fig8_9, vantage_sweep, Fig12Data};
use lookaside::report::fig8_9_table;

/// Memoised serial references so each proptest case pays for one parallel
/// run, not a parallel *and* a serial one.
fn cached<K, V, F>(cache: &'static OnceLock<Mutex<BTreeMap<K, V>>>, key: K, compute: F) -> V
where
    K: Ord + Clone,
    V: Clone,
    F: FnOnce() -> V,
{
    let map = cache.get_or_init(|| Mutex::new(BTreeMap::new()));
    if let Some(v) = map.lock().unwrap().get(&key) {
        return v.clone();
    }
    let v = compute();
    map.lock().unwrap().insert(key, v.clone());
    v
}

static FIG9_REFS: OnceLock<Mutex<BTreeMap<usize, String>>> = OnceLock::new();

proptest! {
    /// The `repro fig9` table text is byte-identical for every worker
    /// count, at every sweep width (each size is one shard).
    #[test]
    fn fig9_text_is_worker_count_invariant(
        widths in 1usize..5,
        jobs in 1usize..9,
    ) {
        let sizes: Vec<usize> = (1..=widths).map(|i| 20 * i).collect();
        let reference = cached(&FIG9_REFS, widths, || {
            fig8_9_table(&fig8_9(&Executor::serial(), &sizes, 11))
        });
        let parallel = fig8_9_table(&fig8_9(&Executor::new(jobs), &sizes, 11));
        prop_assert_eq!(parallel, reference);
    }
}

/// The chaos grid (outage × timer-profile cells) reduces to the same
/// point list, in the same profile-major order, for every worker count.
#[test]
fn chaos_grid_is_worker_count_invariant() {
    let config = ChaosConfig::quick(10);
    let reference = format!("{:?}", chaos_outage(&Executor::serial(), &config));
    for jobs in [2, 4] {
        let parallel = format!("{:?}", chaos_outage(&Executor::new(jobs), &config));
        assert_eq!(parallel, reference, "jobs={jobs}");
    }
}

/// The Byzantine sweep (adversary × hardening-profile cells) reduces to
/// the same point list, in the same profile-major order, for every
/// worker count.
#[test]
fn byzantine_sweep_is_worker_count_invariant() {
    let config = ByzantineConfig::quick(6);
    let reference = format!("{:?}", byzantine_sweep(&Executor::serial(), &config));
    for jobs in [2, 4] {
        let parallel = format!("{:?}", byzantine_sweep(&Executor::new(jobs), &config));
        assert_eq!(parallel, reference, "jobs={jobs}");
    }
}

/// The §7.1 vantage sweep (one shard per vantage point) returns the same
/// rows, in vantage order, for every worker count.
#[test]
fn vantage_sweep_is_worker_count_invariant() {
    let reference = format!("{:?}", vantage_sweep(&Executor::serial(), 40, 43));
    for jobs in [2, 4] {
        let parallel = format!("{:?}", vantage_sweep(&Executor::new(jobs), 40, 43));
        assert_eq!(parallel, reference, "jobs={jobs}");
    }
}

/// The §7.1 deployment sweep (one shard per deposit density) returns the
/// same points, in density order, for every worker count.
#[test]
fn deployment_sweep_is_worker_count_invariant() {
    let densities = [0, 300, 1000];
    let reference = format!("{:?}", deployment_sweep(&Executor::serial(), 100, &densities, 39));
    for jobs in [2, 4] {
        let parallel = format!("{:?}", deployment_sweep(&Executor::new(jobs), 100, &densities, 39));
        assert_eq!(parallel, reference, "jobs={jobs}");
    }
}

/// Every field of a Fig. 12 result, the float by its bit pattern. The
/// destructuring names each field, so a new one fails to compile here
/// until the comparison covers it.
fn fig12_bits(data: Fig12Data) -> (Vec<u64>, Vec<u64>, Vec<u64>, Vec<u64>, u64) {
    let Fig12Data {
        per_minute,
        cumulative_queries,
        cumulative_baseline_bytes,
        cumulative_overhead_bytes,
        overhead_mbps,
    } = data;
    (
        per_minute,
        cumulative_queries,
        cumulative_baseline_bytes,
        cumulative_overhead_bytes,
        overhead_mbps.to_bits(),
    )
}

/// Fig. 12 (one shard per 60-minute trace window) folds to the same
/// cumulative series for every worker count.
#[test]
fn fig12_is_worker_count_invariant() {
    let scale = NonZeroU64::new(500_000).unwrap();
    for seed in [7, 11, 13] {
        let reference = fig12_bits(fig12(&Executor::serial(), seed, scale));
        for jobs in [2, 4] {
            let parallel = fig12_bits(fig12(&Executor::new(jobs), seed, scale));
            assert_eq!(parallel, reference, "seed={seed} jobs={jobs}");
        }
    }
}
