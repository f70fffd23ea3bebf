//! `repro-quick`: every quick-mode `repro` experiment except `farm`, each
//! as its own process, its stdout compared byte for byte with the golden
//! copy in `golden/repro/`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use crate::report::{ratio, report_fastest, Outcome};
use crate::Args;

/// The experiments, in `repro`'s own order. Their seeds are fixed by the
/// paper, so `--seed` does not apply. `table4`, `table5` and `fig9` are
/// left out: at one to three seconds each, a run would hold too few of
/// them to time them steadily, and they run the resolver sweep that
/// `cold-sweep` times name by name.
pub const EXPERIMENTS: [&str; 19] = [
    "table1",
    "table2",
    "table3",
    "order",
    "utility",
    "fig11",
    "fig12",
    "nsec3",
    "qmin",
    "vantage",
    "deployment",
    "tlds",
    "trace",
    "survey",
    "dict",
    "attacks",
    "chaos",
    "byzantine",
    "lifecycle",
];

/// The experiment whose runs time process start-up: a static table.
const STARTUP_PROBE: usize = 0;

fn golden_path(args: &Args, experiment: &str) -> PathBuf {
    args.golden.join("repro").join(format!("{experiment}.txt"))
}

/// Runs `repro <experiment> --jobs <jobs>`, which inherits this process's
/// environment: `main` refuses to start with any `LOOKASIDE_*` variable
/// set, so none reaches `repro`. Returns its wall time and output.
fn run(repro: &Path, experiment: &str, jobs: usize) -> std::io::Result<(Duration, Output)> {
    let start = Instant::now();
    let output = Command::new(repro)
        .args([experiment, "--jobs", &jobs.to_string()])
        .stdin(Stdio::null())
        .output()?;
    Ok((start.elapsed(), output))
}

/// Runs one experiment and checks its output against `golden`. Returns
/// the wall time, or `None` when `repro` could not be started.
fn attempt(
    args: &Args,
    experiment: &str,
    jobs: usize,
    golden: &[u8],
    outcome: &mut Outcome,
) -> Option<Duration> {
    match run(&args.repro, experiment, jobs) {
        Ok((time, output)) => {
            let problem = if !output.status.success() {
                let stderr = String::from_utf8_lossy(&output.stderr);
                Some(format!("repro {experiment} exited with {}: {}", output.status, stderr.trim()))
            } else if output.stdout != golden {
                Some(format!("repro {experiment}: stdout differs from its golden file"))
            } else {
                None
            };
            outcome.check(problem);
            Some(time)
        }
        Err(e) => {
            outcome.check(Some(format!("starting {}: {e}", args.repro.display())));
            None
        }
    }
}

/// Rewrites every golden file from one run of each experiment.
fn bless(args: &Args) -> Result<(), String> {
    fs::create_dir_all(args.golden.join("repro")).map_err(|e| e.to_string())?;
    for experiment in EXPERIMENTS {
        let (_, output) = run(&args.repro, experiment, args.jobs).map_err(|e| e.to_string())?;
        if !output.status.success() {
            return Err(format!("repro {experiment} exited with {}", output.status));
        }
        let path = golden_path(args, experiment);
        fs::write(&path, &output.stdout).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

/// Runs whole cycles over [`EXPERIMENTS`] at `args.jobs` until the time is
/// up, each experiment after a start-up probe. Every run of an experiment
/// does the same work, so its time is its fastest run (see
/// [`report_fastest`]); the operations are the experiments, so `ops_per_s`
/// is their number over their summed time and the latency percentiles are
/// over experiments. Traced, each experiment also runs on one worker,
/// giving per-experiment wall time and the engine's speed-up.
pub fn repro_quick(args: &Args, outcome: &mut Outcome) {
    if args.bless {
        if let Err(e) = bless(args) {
            outcome.check(Some(format!("blessing golden files: {e}")));
            return;
        }
    }
    let mut goldens = Vec::new();
    for experiment in EXPERIMENTS {
        let path = golden_path(args, experiment);
        match fs::read(&path) {
            Ok(bytes) => goldens.push(bytes),
            Err(e) => {
                outcome.check(Some(format!("{}: {e}", path.display())));
                return;
            }
        }
    }

    let mut setups_s = Vec::new();
    let mut wide = vec![f64::INFINITY; EXPERIMENTS.len()];
    let mut serial = wide.clone();
    let (probe, probe_golden) = (EXPERIMENTS[STARTUP_PROBE], &goldens[STARTUP_PROBE]);
    let started = Instant::now();
    loop {
        for (i, (experiment, golden)) in EXPERIMENTS.iter().zip(&goldens).enumerate() {
            let Some(time) = attempt(args, probe, args.jobs, probe_golden, outcome) else { return };
            setups_s.push(time.as_secs_f64());
            let Some(time) = attempt(args, experiment, args.jobs, golden, outcome) else { return };
            wide[i] = wide[i].min(time.as_secs_f64());
            if args.trace {
                let Some(time) = attempt(args, experiment, 1, golden, outcome) else { return };
                serial[i] = serial[i].min(time.as_secs_f64());
            }
        }
        if started.elapsed() >= Duration::from_secs_f64(args.seconds) {
            break;
        }
    }
    if args.trace {
        for (experiment, time) in EXPERIMENTS.iter().zip(&wide) {
            outcome.set(format!("repro.{experiment}_s"), *time);
        }
        outcome.set("engine.speedup", ratio(serial.iter().sum(), wide.iter().sum()));
    } else {
        let mut ns: Vec<u64> = wide.iter().map(|t| (t * 1e9) as u64).collect();
        report_fastest(outcome, &setups_s, &mut ns);
    }
}
