#!/usr/bin/env bash
# Full CI gate: build, tests, lints, formatting, resolver throughput
# floors, the published quick outputs, and the parallel-engine
# determinism check. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release
mkdir -p target/ci

# Tier-1 tests. The engine's contract — the worker count changes
# wall-clock time only, never results — is carried by the identity tests
# that run every sweep on one worker and on several, explicit executors
# in hand (tests/engine_determinism.rs, tests/lifecycle_sweep.rs,
# tests/farm_determinism.rs). The suite
# also includes the wire-layer proptests (compact-Name codec round-trips,
# canonical-order reference model) and the tee test (tests/tee.rs), which
# feeds one run into both the network's capture and a LeakSink and
# requires classify(capture) == sink.report.
cargo test -q

# Clippy checks the source-level invariants (DESIGN.md §10), on every
# target (libraries, binaries, tests and examples):
# - every library crate's `lib.rs` denies unwrap, expect, the panic-family
#   macros, indexing, `str` slicing and reasonless `#[allow]`s in live code;
# - the root `clippy.toml` bans hash-ordered collections, wall-clock and
#   environment reads, ambient entropy, host byte order, and file, socket
#   and stdio access outside bench.
# A waiver is an `#[expect(..., reason = ...)]`, which fails this run once
# it is stale. `redundant_clone` is denied on top of the default set: the
# shared-buffer memory model (DESIGN.md §8) makes clones cheap, but the
# hot path is supposed to not need them at all. Zero unsafe code needs no
# step of its own: the root manifest's `[workspace.lints]` makes rustc
# forbid it in every build above. crates/core/tests/policy.rs (in the test
# run above) pins the deny lines, the manifests and each clippy.toml entry,
# and crates/bench/tests/alloc_free.rs holds the allocation counts of a
# cold sweep and of warm re-resolution exactly, and the per-packet hot
# path to zero allocations per call.
cargo clippy --workspace --all-targets -- -D warnings -D clippy::redundant_clone
cargo fmt --check

# Throughput gate: one short benchmark/run.py run of each resolver
# workload. run.py exits non-zero when a run's outputs are wrong (an
# answer or a digest mismatch), and each run must reach an ops/s floor
# set 5-8x under the recorded medians of 25-s runs on a 2-vCPU VM
# (cold-sweep 27.7k, warm-zipf 806k), so only order-of-magnitude
# regressions trip it, not machine noise. run.py writes only under
# target/.
for gate in cold-sweep:5000 warm-zipf:100000; do
    workload=${gate%:*}
    floor=${gate#*:}
    if ! python3 benchmark/run.py --workload "${workload}" --seed 1 --seconds 5 \
        > "target/ci/${workload}.json"; then
        echo "ci: FAIL — benchmark/run.py --workload ${workload} failed" >&2
        exit 1
    fi
    ops=$(tail -n 1 "target/ci/${workload}.json" \
        | python3 -c 'import json, sys; print(round(json.load(sys.stdin)["metrics"]["ops_per_s"]["value"]))')
    echo "ci: ${workload} ${ops} ops/s (floor ${floor})"
    if [ "${ops}" -lt "${floor}" ]; then
        echo "ci: FAIL — ${workload} ran ${ops} ops/s, under the ${floor} floor" >&2
        exit 1
    fi
done

# Byte-identity gate: `repro fig9`, which has no golden, must print the
# same bytes at --jobs 1 and --jobs 4.
./target/release/repro fig9 --jobs 1 > target/ci/fig9.jobs1.txt
./target/release/repro fig9 --jobs 4 > target/ci/fig9.jobs4.txt
if ! diff -u target/ci/fig9.jobs1.txt target/ci/fig9.jobs4.txt; then
    echo "ci: FAIL — repro fig9 output diverges between --jobs 1 and --jobs 4" >&2
    exit 1
fi

# Golden gate: every section with a published quick output in
# benchmark/golden/repro/ must print exactly those bytes, at --jobs 1 and
# at --jobs 4. The files are only read here; benchmark/run.py checks its
# runs against the same files.
for golden in benchmark/golden/repro/*.txt; do
    exp=$(basename "${golden}" .txt)
    for jobs in 1 4; do
        ./target/release/repro "${exp}" --jobs "${jobs}" > "target/ci/${exp}.jobs${jobs}.txt"
        if ! diff -u "${golden}" "target/ci/${exp}.jobs${jobs}.txt"; then
            echo "ci: FAIL — repro ${exp} --jobs ${jobs} differs from ${golden}" >&2
            exit 1
        fi
    done
done

# The resolver farm has no golden, so it gets the same diff as fig9, at
# quick scale and at full scale (whose DITL replay samples 1 in 500
# queries, not 1 in 2 000): one million stub clients, sharded into
# contiguous cohorts, against every cache topology. The reduction is a
# set union plus a min-merge, so worker count (and cohort count — the
# farm proptests pin that one) must never show up in the bytes.
for scale in "" --full; do
    out="target/ci/farm${scale/--/.}"
    ./target/release/repro farm ${scale} --jobs 1 > "${out}.jobs1.txt"
    ./target/release/repro farm ${scale} --jobs 4 > "${out}.jobs4.txt"
    if ! diff -u "${out}.jobs1.txt" "${out}.jobs4.txt"; then
        echo "ci: FAIL — repro farm ${scale} output diverges between --jobs 1 and --jobs 4" >&2
        exit 1
    fi
done

# Corruption robustness gate: 10k fixed-seed mutated packets through the
# wire decoder — typed WireError or success, never a panic. Its static
# half is the clippy run above, which holds every library crate to typed
# errors; wire's index waivers lean on this gate.
cargo test -q -p lookaside-wire --release --test properties corruption_fuzz_fixed_seed_10k

echo "ci: all green"
