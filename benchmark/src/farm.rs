//! `farm-sweep`: the stub-client plane in front of a resolver farm, swept
//! over its four cache topologies on the engine. It never touches the DNS
//! stack.

use std::time::{Duration, Instant};

use lookaside::engine::Executor;
use lookaside::farm::{Farm, FarmConfig, FarmTopology, TopologyReport};

use crate::digest::Digest;
use crate::report::{ratio, report_fastest, Outcome};
use crate::{Args, Scale};

/// The farm of `seed`: `template`'s shape with every seed taken from
/// `seed`.
fn config(template: &FarmConfig, seed: u64) -> FarmConfig {
    let mut config = template.clone();
    config.seed = seed;
    config.plane.seed = seed;
    config.population.seed = seed;
    config
}

/// Digest of a sweep's rows.
fn digest(rows: &[TopologyReport]) -> String {
    let mut d = Digest::new();
    for r in rows {
        d.add("topology", r.topology.label())
            .add("resolvers", r.resolvers)
            .add("active_clients", r.active_clients)
            .add("stub_queries", r.stub_queries)
            .add("upstream_misses", r.upstream_misses)
            .add("dlv_queries", r.dlv_queries)
            .add("case1", r.case1)
            .add("case2", r.case2)
            .add("linkable_case2", r.linkable_case2)
            .add("leaked_clients", r.leaked_clients)
            .add("max_client_case2", r.max_client_case2)
            .add("content_exposed", r.content_exposed);
    }
    d.hex()
}

/// Why a sweep's rows contradict the topologies' definitions, if they do:
/// every topology sees the same stub queries; a shared cache never leaks
/// more than per-resolver caches; ODoH leaks what per-resolver caches leak
/// but unlinkably; Resolver-Less DNS sends nothing to the registry and
/// exposes every query to content servers.
fn problem(rows: &[TopologyReport]) -> Option<String> {
    let row = |t: FarmTopology| rows.iter().find(|r| r.topology == t);
    let (Some(per), Some(shared), Some(odoh), Some(less)) = (
        row(FarmTopology::PerResolver),
        row(FarmTopology::SharedCache),
        row(FarmTopology::Odoh),
        row(FarmTopology::ResolverLess),
    ) else {
        return Some(format!("sweep returned {} rows, not one per topology", rows.len()));
    };
    let ok = rows.iter().all(|r| r.stub_queries == per.stub_queries)
        && per.stub_queries > 0
        && shared.case2 <= per.case2
        && odoh.dlv_queries == per.dlv_queries
        && odoh.linkable_case2 == 0
        && less.dlv_queries == 0
        && less.content_exposed == less.stub_queries;
    (!ok).then(|| format!("sweep rows contradict the topology model: {rows:?}"))
}

/// Runs the sweep until the time is up, after one untimed set-up and
/// sweep. Each unit builds the farm afresh (the set-up) and runs the four
/// topologies one by one on `args.jobs` workers; traced, it runs each again
/// on one worker, giving the engine's parallel efficiency. Every unit must
/// produce the same rows.
///
/// Every unit runs each topology on the same inputs, so a topology's time
/// is its fastest over the units, and a sweep's time is the sum of those
/// (see [`report_fastest`]).
pub fn farm_sweep(args: &Args, scale: &Scale, outcome: &mut Outcome) {
    let config = config(&scale.farm, args.seed);
    let resolvers = config.resolvers;
    let mut setups_s = Vec::new();
    let wide = Executor::new(args.jobs);
    let serial = Executor::new(1);
    // One untimed set-up and sweep first, so the process's first
    // allocations and thread start-up are not charged to timed ones.
    let mut farm = Farm::new(config.clone());
    let rows = farm.sweep(&wide);
    outcome.check(problem(&rows));
    outcome.check_digest("digest", digest(&rows));
    let mut wide_s = vec![f64::INFINITY; FarmTopology::ALL.len()];
    let mut serial_s = wide_s.clone();
    let started = Instant::now();
    loop {
        drop(farm);
        let start = Instant::now();
        farm = Farm::new(config.clone());
        setups_s.push(start.elapsed().as_secs_f64());
        let mut rows = Vec::new();
        for (i, &topology) in FarmTopology::ALL.iter().enumerate() {
            let start = Instant::now();
            rows.push(farm.run(topology, resolvers, &wide));
            wide_s[i] = wide_s[i].min(start.elapsed().as_secs_f64());
            if args.trace {
                let start = Instant::now();
                let serial_row = farm.run(topology, resolvers, &serial);
                serial_s[i] = serial_s[i].min(start.elapsed().as_secs_f64());
                let differs = serial_row != rows[i];
                outcome.check(differs.then(|| {
                    format!("{}: 1 worker disagrees with {}", topology.label(), args.jobs)
                }));
            }
        }
        outcome.check(problem(&rows));
        outcome.check_digest("digest", digest(&rows));
        if started.elapsed() >= Duration::from_secs_f64(args.seconds) {
            break;
        }
    }
    let sweep_s: f64 = wide_s.iter().sum();
    if args.trace {
        for (topology, time) in FarmTopology::ALL.iter().zip(&wide_s) {
            outcome.set(format!("farm.{}_s", topology.label()), *time);
        }
        let busy: f64 = serial_s.iter().sum();
        outcome.set("engine.busy_s", busy);
        outcome.set("engine.parallel_efficiency", ratio(busy, args.jobs as f64 * sweep_s));
    } else {
        report_fastest(outcome, &setups_s, &mut [(sweep_s * 1e9) as u64]);
    }
}
