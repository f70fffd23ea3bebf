//! Cost of the §7.3.2 chaos harness: one degraded-registry cell, timeouts
//! and retransmissions included — bounds how large an outage sweep can go.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use lookaside::chaos::{chaos_outage, ChaosConfig, Outage, TimerProfile};
use lookaside::engine::Executor;

fn cell(outage: Outage, profile: TimerProfile) -> ChaosConfig {
    ChaosConfig {
        queries: 10,
        warmup: 4,
        seed: 0xbe9c,
        outages: vec![outage],
        profiles: vec![profile],
    }
}

fn bench_chaos(c: &mut Criterion) {
    // One cell is one shard, which runs inline at any worker count.
    let exec = Executor::serial();
    c.bench_function("chaos/healthy_retry_cell", |b| {
        b.iter(|| black_box(chaos_outage(&exec, &cell(Outage::Loss(0), TimerProfile::Retry))))
    });

    c.bench_function("chaos/loss25_retry_cell", |b| {
        b.iter(|| black_box(chaos_outage(&exec, &cell(Outage::Loss(250), TimerProfile::Retry))))
    });

    c.bench_function("chaos/blackhole_sfcache_cell", |b| {
        b.iter(|| {
            black_box(chaos_outage(
                &exec,
                &cell(Outage::Blackhole, TimerProfile::RetryServfailCache),
            ))
        })
    });
}

criterion_group!(benches, bench_chaos);
criterion_main!(benches);
