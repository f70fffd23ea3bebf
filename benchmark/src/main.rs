//! Wall-clock benchmark of the look-aside simulator: one workload per
//! process. `run.py` builds this binary and `repro`, runs it, and adds the
//! process's peak memory; see README.md.
//!
//! ```text
//! lookaside-benchmark --workload W [--seed N] [--seconds S] [--trace 0|1]
//!                     [--repro PATH] [--golden DIR] [--out DIR] [--bless]
//! ```
//!
//! Standard output is two JSON lines: the run's details (provenance and
//! digests), then its result (`correct`, `attempted`, `failed`,
//! `metrics`). The exit code is 1 when any checked output was wrong and 2
//! when the run was refused.

#![forbid(unsafe_code)]

mod digest;
mod dns;
mod farm;
mod kernels;
mod report;
mod repro;
mod stats;
mod timer;
mod trace;

use std::env;
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::process::ExitCode;
use std::thread;

use lookaside::farm::FarmConfig;

use crate::digest::Records;
use crate::report::Outcome;

const USAGE: &str = "usage: lookaside-benchmark --workload cold-sweep|warm-zipf|farm-sweep|repro-quick \
                     [--seed N] [--seconds S] [--trace 0|1] [--repro PATH] [--golden DIR] [--out DIR] [--bless]";

/// The workloads; see README.md for why each was chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every query misses every cache.
    ColdSweep,
    /// Zipf-drawn stub queries against warm caches.
    WarmZipf,
    /// The resolver-farm topology sweep on the engine.
    FarmSweep,
    /// The quick `repro` experiments as processes.
    ReproQuick,
}

impl Workload {
    const ALL: [Workload; 4] =
        [Workload::ColdSweep, Workload::WarmZipf, Workload::FarmSweep, Workload::ReproQuick];

    fn name(self) -> &'static str {
        match self {
            Workload::ColdSweep => "cold-sweep",
            Workload::WarmZipf => "warm-zipf",
            Workload::FarmSweep => "farm-sweep",
            Workload::ReproQuick => "repro-quick",
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Seed every input is made from.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Record per-layer spans instead of end-to-end metrics.
    pub trace: bool,
    /// Worker threads for the engine: the machine's parallelism.
    pub jobs: usize,
    /// The `repro` binary.
    pub repro: PathBuf,
    /// Directory of recorded digests and golden outputs.
    pub golden: PathBuf,
    /// Where a traced run writes its raw spans, if anywhere.
    pub trace_file: Option<PathBuf>,
    /// Record outputs instead of checking them against the records.
    pub bless: bool,
}

/// Workload sizes.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Names per cold-sweep repetition.
    pub cold_top: usize,
    /// Names warm-zipf draws from.
    pub warm_top: usize,
    /// Stub queries per warm-zipf repetition.
    pub warm_queries: usize,
    /// The farm, before seeding.
    pub farm: FarmConfig,
}

impl Scale {
    /// The benchmark's sizes. 300,000 warm-zipf queries 20 ms apart span
    /// 6,000 s of simulated time, over one 3,600 s TTL.
    fn full() -> Scale {
        let mut farm = FarmConfig::paper_scale();
        farm.plane.clients = 100_000;
        Scale { cold_top: 5_000, warm_top: 10_000, warm_queries: 300_000, farm }
    }
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let jobs = thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let mut args = Args {
        workload: Workload::ColdSweep,
        seed: 1,
        seconds: 20.0,
        trace: false,
        jobs,
        repro: PathBuf::from("target/release/repro"),
        golden: PathBuf::from("benchmark/golden"),
        trace_file: None,
        bless: false,
    };
    let mut workload = None;
    let mut out = PathBuf::from("target/benchmark");
    while let Some(flag) = argv.next() {
        if flag == "--bless" {
            args.bless = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(0.0..=3600.0).contains(&args.seconds) {
                    return Err(format!("--seconds {value}: out of range"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            "--repro" => args.repro = PathBuf::from(value),
            "--golden" => args.golden = PathBuf::from(value),
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    args.trace_file = Some(out.join(format!("trace-{}.jsonl", args.workload.name())));
    Ok(args)
}

/// Runs the workload `args` names.
fn run(args: &Args, scale: &Scale, outcome: &mut Outcome) {
    match args.workload {
        Workload::ColdSweep => {
            let world = dns::cold_sweep(args, scale, outcome);
            if let (true, Some(mut world)) = (args.trace, world) {
                kernels::time_kernels(&mut world, outcome);
            }
        }
        Workload::WarmZipf => dns::warm_zipf(args, scale, outcome),
        Workload::FarmSweep => farm::farm_sweep(args, scale, outcome),
        Workload::ReproQuick => repro::repro_quick(args, outcome),
    }
}

/// Compares the run's digest with the one recorded for its workload and
/// seed, or records it with `--bless`. Unrecorded seeds are not compared.
fn check_recorded(args: &Args, outcome: &mut Outcome) {
    let Some(got) = outcome.details.get("digest").cloned() else { return };
    let path = args.golden.join("digests.txt");
    let name = args.workload.name();
    let mut records = match Records::load(&path) {
        Ok(records) => records,
        Err(e) => return outcome.check(Some(e.to_string())),
    };
    if args.bless {
        records.set(name, args.seed, got);
        if let Err(e) = records.save(&path) {
            outcome.check(Some(format!("{}: {e}", path.display())));
        }
    } else if let Some(want) = records.get(name, args.seed) {
        let differs = want != got;
        outcome.check(
            differs.then(|| {
                format!("digest {got} differs from {want} recorded for seed {}", args.seed)
            }),
        );
    }
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("lookaside-benchmark: refusing to time a debug build; build with --release");
        return ExitCode::from(2);
    }
    let stray: Vec<String> = env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("LOOKASIDE_"))
        .collect();
    if !stray.is_empty() {
        eprintln!("lookaside-benchmark: refusing to run with {} set; unset it", stray.join(", "));
        return ExitCode::from(2);
    }
    let args = match parse_args(env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("lookaside-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let (true, Some(dir)) = (args.trace, args.trace_file.as_ref().and_then(|f| f.parent())) {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("lookaside-benchmark: creating {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    }

    let mut outcome = Outcome::default();
    run(&args, &Scale::full(), &mut outcome);
    check_recorded(&args, &mut outcome);
    outcome.details.insert("workload", args.workload.name().to_string());
    outcome.details.insert("seed", args.seed.to_string());
    outcome.details.insert("trace", args.trace.to_string());
    outcome.details.insert("nproc", args.jobs.to_string());
    for problem in &outcome.problems {
        eprintln!("lookaside-benchmark: incorrect: {problem}");
    }
    println!("{}", outcome.details_json());
    println!("{}", outcome.result_json(args.trace));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale { cold_top: 200, warm_top: 200, warm_queries: 2_000, farm: FarmConfig::quick(2_000) }
    }

    /// Settings for the shortest run of `workload`, writing no files.
    fn args(workload: Workload, seed: u64, trace: bool) -> Args {
        Args {
            workload,
            seed,
            seconds: 0.0,
            trace,
            jobs: 2,
            repro: PathBuf::new(),
            golden: PathBuf::new(),
            trace_file: None,
            bless: false,
        }
    }

    /// The shortest run of `workload` at tiny scale, which must be correct.
    fn outcome(workload: Workload, seed: u64, trace: bool) -> Outcome {
        let args = args(workload, seed, trace);
        let mut outcome = Outcome::default();
        match workload {
            Workload::ColdSweep => drop(dns::cold_sweep(&args, &tiny(), &mut outcome)),
            Workload::WarmZipf => dns::warm_zipf(&args, &tiny(), &mut outcome),
            Workload::FarmSweep => farm::farm_sweep(&args, &tiny(), &mut outcome),
            Workload::ReproQuick => unreachable!("repro-quick runs the built repro binary"),
        }
        assert!(outcome.correct(), "{workload:?}: {:?}", outcome.problems);
        assert!(outcome.attempted > 0);
        outcome
    }

    fn digest(outcome: &Outcome) -> &str {
        outcome.details.get("digest").expect("seeded workloads digest their outcome")
    }

    #[test]
    fn seeded_digests_are_deterministic_and_follow_the_seed() {
        for workload in [Workload::ColdSweep, Workload::WarmZipf, Workload::FarmSweep] {
            let first = outcome(workload, 3, false);
            assert_eq!(digest(&first), digest(&outcome(workload, 3, false)), "{workload:?}");
            assert_ne!(digest(&first), digest(&outcome(workload, 4, false)), "{workload:?}");
            assert!(first.metrics["ops_per_s"] > 0.0);
            assert!(first.metrics["latency_p99_us"] >= first.metrics["latency_p50_us"]);
        }
    }

    #[test]
    fn traced_resolver_runs_keep_the_digest_and_account_for_the_loop() {
        let cold = outcome(Workload::ColdSweep, 5, true);
        assert!(cold.metrics["server.sld.exchanges"] > 0.0);
        assert!(cold.metrics["netsim.exchanges_per_resolution"] > 0.0);
        for workload in [Workload::ColdSweep, Workload::WarmZipf] {
            let traced = outcome(workload, 5, true);
            assert_eq!(digest(&traced), digest(&outcome(workload, 5, false)), "{workload:?}");
            let m = &traced.metrics;
            assert!(m["bench.unattributed_ns"] >= 0.0, "{workload:?}: {m:?}");
            assert!(m["resolver.self_ns"] >= 0.0, "{workload:?}: {m:?}");
            assert!((0.0..=1.0).contains(&m["server.busy_share"]), "{workload:?}: {m:?}");
            let sum = m["resolver.self_ns"] + m["server.busy_ns"] + m["bench.unattributed_ns"];
            assert!(
                (sum - m["bench.loop_ns"]).abs() <= 1e-6 * m["bench.loop_ns"],
                "{workload:?}: {m:?}"
            );
        }
    }

    #[test]
    fn kernels_are_timed_on_inputs_that_check_out() {
        let args = args(Workload::ColdSweep, 7, true);
        let mut outcome = Outcome::default();
        run(&args, &tiny(), &mut outcome);
        assert!(outcome.correct(), "{:?}", outcome.problems);
        for (kernel, _) in kernels::KERNELS {
            assert!(outcome.metrics[kernel] > 0.0, "{kernel}");
        }
    }

    #[test]
    fn traced_farm_runs_agree_across_worker_counts() {
        let traced = outcome(Workload::FarmSweep, 6, true);
        assert_eq!(digest(&traced), digest(&outcome(Workload::FarmSweep, 6, false)));
        let m = &traced.metrics;
        assert!(m["engine.busy_s"] > 0.0);
        assert!(m["engine.parallel_efficiency"] > 0.0, "{m:?}");
        for topology in lookaside::farm::FarmTopology::ALL {
            assert!(m[&format!("farm.{}_s", topology.label())] > 0.0);
        }
    }

    #[test]
    fn arguments_parse_and_malformed_ones_are_refused() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let args = parse("--workload warm-zipf --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(args.workload, Workload::WarmZipf);
        assert_eq!((args.seed, args.seconds, args.trace), (7, 10.0, true));
        assert!(args.trace_file.unwrap().ends_with("trace-warm-zipf.jsonl"));
        assert!(parse("--seed 7").is_err());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload cold-sweep --trace 2").is_err());
        assert!(parse("--workload cold-sweep --seconds -1").is_err());
        assert!(parse("--workload cold-sweep --seed").is_err());
        assert!(parse("--workload cold-sweep --frobnicate 1").is_err());
    }
}
