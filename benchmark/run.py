#!/usr/bin/env python3
"""Wall-clock benchmark of the look-aside simulator; see README.md.

Builds `repro` and the benchmark binary from source, then, from the root
of the checkout:

  python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1
      One run of one workload. The last line of stdout is its result:
      {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
  python3 benchmark/run.py [--seed N] [--seconds S] [--trace 0|1]
      Every workload once, as `metric workload value unit` lines.
  python3 benchmark/run.py --repeat K [--workload W] [--seed N] [--seconds S]
      K runs per workload on seeds N..N+K-1, with each metric's median,
      interquartile range, and whether IQR/median is within its bound.
  python3 benchmark/run.py --bless
      Rewrites the golden repro outputs and the recorded digests.

Exits 1 when any run's outputs were wrong, and 2 when nothing could run.
Every run also leaves <target>/benchmark/<workload>.json with its
provenance, where <target> is $CARGO_TARGET_DIR or `target`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["cold-sweep", "warm-zipf", "farm-sweep", "repro-quick"]
SEEDED = ["cold-sweep", "warm-zipf", "farm-sweep"]
BLESS_SEEDS = range(16)
GOLDEN = os.path.join("benchmark", "golden")


def build():
    """Builds `repro` in the repository's workspace and the benchmark in
    its own; returns the two executables."""
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--manifest-path", "Cargo.toml", "--bin", "repro"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", os.path.join("benchmark", "Cargo.toml")],
    ):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("benchmark: build failed: " + " ".join(cmd), file=sys.stderr)
            sys.exit(2)
    release = os.path.join(os.environ["CARGO_TARGET_DIR"], "release")
    return os.path.join(release, "repro"), os.path.join(release, "lookaside-benchmark")


def git_rev():
    if not os.path.isdir(".git"):
        return None
    r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else None


def run_one(exes, workload, seed, seconds, trace, bless=False):
    """Runs one workload in its own process. Returns its result with
    `peak_rss_mb` added to an untraced run's metrics, or None when the
    run produced no result."""
    repro, binary = exes
    out_dir = os.path.join(os.environ["CARGO_TARGET_DIR"], "benchmark")
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--repro", repro, "--golden", GOLDEN, "--out", out_dir]
    if bless:
        cmd.append("--bless")
    # One malloc arena: with a per-thread arena each, peak memory of the
    # multi-threaded workloads varies by a quarter with thread scheduling.
    env = dict(os.environ, MALLOC_ARENA_MAX="1")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        stdout = proc.stdout.read()
        # wait4 reports the peak resident set of the process and of every
        # child it waited for (the repro experiments).
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    lines = stdout.splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2:
        print(f"benchmark: {workload} exited with {proc.returncode} and no result", file=sys.stderr)
        return None
    details = json.loads(lines[-2])["details"]
    result = json.loads(lines[-1])
    if not trace:
        result["metrics"]["peak_rss_mb"] = {"value": usage.ru_maxrss / 1024, "unit": "MB"}
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{workload}.json"), "w") as f:
        json.dump({"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
                   "git_rev": git_rev(), "details": details, "result": result}, f, indent=2)
        f.write("\n")
    return result


def spread(values):
    """Median and interquartile range, as the acceptance check takes them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q3 - q1


def repeat(exes, spec, workloads, seed, seconds, trace, k):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in workloads:
        runs = []
        for i in range(k):
            result = run_one(exes, workload, seed + i, seconds, trace)
            if result is None or not result["correct"]:
                ok = False
            if result is not None:
                runs.append(result)
        if len(runs) < 2:
            continue
        print(f"{workload}: {len(runs)} runs, seeds {seed}..{seed + k - 1}")
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            med, iqr = spread(values)
            rel = iqr / med if med else 0.0
            verdict = ""
            if name in bounds:
                verdict = f"bound {bounds[name]:.2f} " + ("ok" if rel <= bounds[name] else "WIDE")
            print(f"  {name:40} median {med:.6g} {first['unit']:6} IQR {iqr:.4g} ({rel:.2%}) {verdict}")
            print("    runs: " + " ".join(f"{v:.6g}" for v in values))
    return ok


def main():
    parser = argparse.ArgumentParser(description="Wall-clock benchmark of the look-aside simulator.")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, metavar="K")
    parser.add_argument("--bless", action="store_true")
    args = parser.parse_args()

    os.chdir(ROOT)
    # Both builds share one target directory, the workspace's by default.
    if not os.environ.get("CARGO_TARGET_DIR"):
        os.environ["CARGO_TARGET_DIR"] = "target"
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    exes = build()
    trace = args.trace == 1

    if args.bless:
        runs = [("repro-quick", args.seed)] + [(w, s) for w in SEEDED for s in BLESS_SEEDS]
        results = [run_one(exes, w, s, 0, False, bless=True) for w, s in runs]
        return 0 if all(r is not None and r["correct"] for r in results) else 1

    if args.repeat:
        workloads = [args.workload] if args.workload else WORKLOADS
        return 0 if repeat(exes, spec, workloads, args.seed, seconds, trace, args.repeat) else 1

    if args.workload:
        result = run_one(exes, args.workload, args.seed, seconds, trace)
        if result is None:
            return 2
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    ok = True
    for workload in WORKLOADS:
        result = run_one(exes, workload, args.seed, seconds, trace)
        if result is None:
            ok = False
            continue
        ok = ok and result["correct"]
        for name, metric in result["metrics"].items():
            print(f"{name} {workload} {metric['value']} {metric['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
