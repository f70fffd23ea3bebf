//! Serial-vs-parallel cost of the sharded experiment engine.
//!
//! Benches the Fig. 8/9 sweep and the §7.3.2 chaos grid on an explicit
//! serial executor and on worker pools of 2, 4, and 8 — the speedup table
//! in EXPERIMENTS.md is transcribed from this bench's output. On a
//! single-core host the parallel rows measure pure engine overhead
//! (queueing, thread scheduling) rather than speedup; outputs stay
//! byte-identical either way, which the determinism suite enforces.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use lookaside::chaos::{chaos_outage, ChaosConfig};
use lookaside::engine::Executor;
use lookaside::experiments::fig8_9;

const SWEEP_SIZES: [usize; 4] = [50, 100, 150, 200];

fn chaos_grid() -> ChaosConfig {
    ChaosConfig::quick(12)
}

fn bench_fig8_9(c: &mut Criterion) {
    c.bench_function("parallel/fig8_9_serial", |b| {
        b.iter(|| black_box(fig8_9(&Executor::serial(), &SWEEP_SIZES, 11)))
    });
    for jobs in [2, 4, 8] {
        c.bench_function(&format!("parallel/fig8_9_jobs{jobs}"), |b| {
            b.iter(|| black_box(fig8_9(&Executor::new(jobs), &SWEEP_SIZES, 11)))
        });
    }
}

fn bench_chaos_grid(c: &mut Criterion) {
    let config = chaos_grid();
    c.bench_function("parallel/chaos_grid_serial", |b| {
        b.iter(|| black_box(chaos_outage(&Executor::serial(), &config)))
    });
    for jobs in [2, 4, 8] {
        c.bench_function(&format!("parallel/chaos_grid_jobs{jobs}"), |b| {
            b.iter(|| black_box(chaos_outage(&Executor::new(jobs), &config)))
        });
    }
}

criterion_group!(benches, bench_fig8_9, bench_chaos_grid);
criterion_main!(benches);
