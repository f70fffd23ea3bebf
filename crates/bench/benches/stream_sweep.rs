//! Throughput and allocation profile of the streaming (capture-less) path.
//!
//! Two measurements, both deterministic (seeded workloads, serial
//! steady-state loop), so `ci.sh` can gate on them:
//!
//! * **steady-state allocations/query** — a streaming run environment
//!   (capture-less network, `LeakSink` observer) is built and warmed
//!   once, then the same ranked names are re-resolved for several rounds
//!   through one reused `Resolution` with the counting allocator
//!   watching. This is the per-query cost the arena/flat-zone/timer-ring
//!   and `resolve_into` scratch work targets; the gate is the
//!   <`ALLOC_CEILING`> ceiling, far under the ~619 allocs/query of a
//!   cold resolution (BENCH_pr3.json) and down from the 3 allocs/query
//!   the `resolve`-by-value path cost before the scratch pool.
//! * **Fig. 12 streamed throughput** — the full trace replay through
//!   [`fig12`] on a 4-worker pool, reporting sampled cache-model
//!   queries per second. The full-scale figure is 92.7M queries; the
//!   measured rate is what makes `repro fig12 --full` a minutes-scale
//!   run.
//!
//! Output: human-readable `bench stream_sweep/...` lines on stdout, which
//! `ci.sh` keeps under `target/ci/` (`BENCH_pr8.json` at the repository
//! root records the first run).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::num::NonZeroU64;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use criterion::black_box;
use lookaside::engine::Executor;
use lookaside::experiments::fig12;
use lookaside::internet::{Internet, InternetParams};
use lookaside::netsim::CaptureFilter;
use lookaside::wire::ext::RemedyMode;
use lookaside::wire::RrType;
use lookaside::workload::PopulationParams;
use lookaside::LeakSink;
use lookaside_resolver::{BindConfig, ResolverConfig};

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

const SEED: u64 = 11;
/// Ranked names resolved cold during warm-up, then re-resolved hot.
const WARM_DOMAINS: usize = 200;
/// Warm re-resolution rounds in the measured window.
const STEADY_ROUNDS: u64 = 5;
/// The steady-state allocations/query gate (`ci.sh` enforces it too).
/// `resolve_into` + the resolver's RRset scratch pool put the warm path at
/// 0 allocs/query (a few dozen residual allocations per thousand queries
/// from occasional NS re-fetches); 2 leaves headroom without letting a
/// per-query regression back in.
const ALLOC_CEILING: u64 = 2;
/// Fig. 12 sampling divisor for the throughput measurement: ~0.9M of the
/// 92.7M modeled queries actually run through the cache model.
const FIG12_SCALE: NonZeroU64 = NonZeroU64::new(100).unwrap();

fn main() {
    // --- steady state: warm-cache resolution through the streaming path.
    let population = PopulationParams { size: 1000, ..PopulationParams::default() };
    let mut params = InternetParams::for_top(WARM_DOMAINS, population, RemedyMode::None);
    params.seed = SEED;
    params.capture = CaptureFilter::None;
    let mut internet = Internet::build(params);
    let sink =
        Rc::new(RefCell::new(LeakSink::new(CaptureFilter::DlvOnly, internet.dlv_apex.clone())));
    internet.net.set_observer(Box::new(Rc::clone(&sink)));
    let mut resolver =
        internet.resolver(ResolverConfig::Bind(BindConfig::correct()), SEED ^ 0x5a17);
    let names = internet.population.top(WARM_DOMAINS);
    // One reused Resolution: `resolve_into` overwrites it per query, so
    // its answers vector amortises to the workload's high-water capacity.
    let mut resolution = lookaside_resolver::Resolution::placeholder();
    for name in &names {
        black_box(resolver.resolve_into(&mut internet.net, name, RrType::A, &mut resolution).ok());
    }

    let steady_queries = WARM_DOMAINS as u64 * STEADY_ROUNDS;
    let a0 = ALLOCS.load(Ordering::Relaxed);
    let b0 = BYTES.load(Ordering::Relaxed);
    for _ in 0..STEADY_ROUNDS {
        for name in &names {
            black_box(
                resolver.resolve_into(&mut internet.net, name, RrType::A, &mut resolution).ok(),
            );
        }
    }
    let steady_allocs = ALLOCS.load(Ordering::Relaxed) - a0;
    let steady_bytes = BYTES.load(Ordering::Relaxed) - b0;
    let allocs_per_query = steady_allocs / steady_queries;
    let bytes_per_query = steady_bytes / steady_queries;
    println!(
        "bench stream_sweep/steady_state: {steady_allocs} allocations, {steady_bytes} bytes \
         over {steady_queries} warm queries"
    );
    println!(
        "bench stream_sweep/steady_state: {allocs_per_query} allocs/query, \
         {bytes_per_query} bytes/query (ceiling {ALLOC_CEILING})"
    );
    drop(resolver);
    drop(internet);

    // --- throughput: the streamed Fig. 12 replay on four workers.
    let exec = Executor::new(4);
    black_box(fig12(&exec, SEED, FIG12_SCALE)); // warm-up
    let started = Instant::now();
    let data = black_box(fig12(&exec, SEED, FIG12_SCALE));
    let seconds = started.elapsed().as_secs_f64();
    let modeled_queries = *data.cumulative_queries.last().unwrap_or(&0);
    let sampled_queries = modeled_queries / FIG12_SCALE;
    let sampled_qps = sampled_queries as f64 / seconds;
    let modeled_qps = modeled_queries as f64 / seconds;
    println!(
        "bench stream_sweep/fig12: {modeled_queries} modeled queries \
         ({sampled_queries} sampled at 1/{FIG12_SCALE}) in {seconds:.2}s on 4 workers"
    );
    println!(
        "bench stream_sweep/fig12: {sampled_qps:.0} sampled queries/sec \
         ({modeled_qps:.0} modeled queries/sec)"
    );
}
