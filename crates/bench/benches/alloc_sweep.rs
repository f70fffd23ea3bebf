//! Allocation profile of the resolution hot path.
//!
//! A counting global allocator wraps [`System`] and tallies every
//! allocation made while a fig8_9-style sweep runs on the serial executor.
//! The workload is fully deterministic, so the counts are too — which is
//! what lets `ci.sh` gate on them: a regression in allocations/query is a
//! real representation change, not measurement noise.
//!
//! Output: human-readable `bench alloc_sweep/...` lines on stdout, which
//! `ci.sh` keeps under `target/ci/` (`BENCH_pr3.json` at the repository
//! root records the first run). `PRE_REFACTOR_*` pins the same workload's
//! cost on the pre-compact-`Name` representation (commit `aa9665d`),
//! measured with this same harness.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use criterion::black_box;
use lookaside::engine::Executor;
use lookaside::experiments::fig8_9;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Same sweep shape as the `parallel_sweep` bench: four population sizes,
/// one cold-cache run each.
const SWEEP_SIZES: [usize; 4] = [50, 100, 150, 200];
const SEED: u64 = 11;

/// Allocations/query and bytes/query of the same workload on the
/// pre-refactor representation (`Name` = `Vec<Label>`, deep-cloned
/// rrsets/caches), measured with this harness at commit `aa9665d`.
const PRE_REFACTOR_ALLOCS_PER_QUERY: u64 = 2665;
const PRE_REFACTOR_BYTES_PER_QUERY: u64 = 88_451;

fn main() {
    // One warm-up run keeps one-time setup (environment probing, first
    // touch of lazily sized tables) out of the measured window.
    black_box(fig8_9(&Executor::serial(), &SWEEP_SIZES, SEED));

    let queries: u64 = SWEEP_SIZES.iter().map(|&n| n as u64).sum();
    let a0 = ALLOCS.load(Ordering::Relaxed);
    let b0 = BYTES.load(Ordering::Relaxed);
    black_box(fig8_9(&Executor::serial(), &SWEEP_SIZES, SEED));
    let allocs = ALLOCS.load(Ordering::Relaxed) - a0;
    let bytes = BYTES.load(Ordering::Relaxed) - b0;

    let allocs_per_query = allocs / queries;
    let bytes_per_query = bytes / queries;
    println!(
        "bench alloc_sweep/fig8_9: {allocs} allocations, {bytes} bytes over {queries} queries"
    );
    println!(
        "bench alloc_sweep/fig8_9: {allocs_per_query} allocs/query, {bytes_per_query} bytes/query"
    );
    if PRE_REFACTOR_ALLOCS_PER_QUERY > 0 {
        let ratio = PRE_REFACTOR_ALLOCS_PER_QUERY as f64 / allocs_per_query as f64;
        println!(
            "bench alloc_sweep/fig8_9: {ratio:.2}x fewer allocations/query than pre-refactor \
             ({PRE_REFACTOR_ALLOCS_PER_QUERY} -> {allocs_per_query}; \
             {PRE_REFACTOR_BYTES_PER_QUERY} -> {bytes_per_query} bytes/query)"
        );
    }
}
