#!/usr/bin/env bash
# Full CI gate: build, tests, lints, formatting, the published quick
# outputs, and the parallel-engine determinism check. Run from the repo
# root.
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

# Clippy checks the source-level invariants (DESIGN.md §10), on lib and
# bin targets:
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
# and crates/bench/tests/alloc_free.rs holds the streaming hot path to zero
# allocations per call.
cargo clippy --workspace -- -D warnings -D clippy::redundant_clone
cargo fmt --check

# Allocation-regression gate: the alloc_sweep bench counts every heap
# allocation of a deterministic fig8_9 run, so allocations/query is an
# exact number, not a timing. Fail if it creeps >10% above the recorded
# baseline (PR-3 set 619, see BENCH_pr3.json; PR-9's `resolve_into` +
# RRset scratch pool lowered it to 453). The render arena's suffix buffer,
# which keeps its capacity across renders, lowered it to 381 (190,754
# allocations over 500 queries).
ALLOC_BASELINE=381
cargo bench --bench alloc_sweep | tee target/ci/alloc_sweep.txt
ALLOCS_PER_QUERY=$(awk '/allocs\/query/ { print $3; exit }' target/ci/alloc_sweep.txt)
if [ -z "${ALLOCS_PER_QUERY}" ]; then
    echo "ci: FAIL — alloc_sweep did not report allocs/query" >&2
    exit 1
fi
if awk -v got="${ALLOCS_PER_QUERY}" -v base="${ALLOC_BASELINE}" \
    'BEGIN { exit !(got > base * 1.10) }'; then
    echo "ci: FAIL — ${ALLOCS_PER_QUERY} allocs/query exceeds baseline ${ALLOC_BASELINE} by >10%" >&2
    exit 1
fi

# Streaming-regression gate: the stream_sweep bench measures the
# steady-state allocations/query of the capture-less observer path (hard
# ceiling, see BENCH_pr8.json) and the streamed Fig. 12 replay rate
# (floor set ~10x under the recorded 4-worker figure, so it only trips
# on order-of-magnitude regressions, not machine noise). The warm query
# path is allocation-free since `resolve_into` + the resolver's RRset
# scratch pool (PR 9); the ceiling of 2 leaves headroom for residual
# cold-path traffic without letting a per-query allocation back in.
STREAM_ALLOC_CEILING=2
STREAM_QPS_FLOOR=150000
cargo bench --bench stream_sweep | tee target/ci/stream_sweep.txt
STREAM_ALLOCS=$(awk '/steady_state:.*allocs\/query/ { print $3; exit }' target/ci/stream_sweep.txt)
STREAM_QPS=$(awk '/sampled queries\/sec/ { print $3; exit }' target/ci/stream_sweep.txt)
if [ -z "${STREAM_ALLOCS}" ] || [ -z "${STREAM_QPS}" ]; then
    echo "ci: FAIL — stream_sweep did not report allocs/query and queries/sec" >&2
    exit 1
fi
if [ "${STREAM_ALLOCS}" -ge "${STREAM_ALLOC_CEILING}" ]; then
    echo "ci: FAIL — ${STREAM_ALLOCS} steady-state allocs/query breaches the <${STREAM_ALLOC_CEILING} ceiling" >&2
    exit 1
fi
if [ "${STREAM_QPS}" -lt "${STREAM_QPS_FLOOR}" ]; then
    echo "ci: FAIL — ${STREAM_QPS} sampled queries/sec is under the ${STREAM_QPS_FLOOR} floor" >&2
    exit 1
fi

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

# The resolver farm has no golden, so it gets the same diff as fig9: one
# million hashed-cohort stub clients against every cache topology. The
# reduction is a set union plus a min-merge, so worker count (and cohort
# count — the farm proptests pin that one) must never show up in the
# bytes.
./target/release/repro farm --jobs 1 > target/ci/farm.jobs1.txt
./target/release/repro farm --jobs 4 > target/ci/farm.jobs4.txt
if ! diff -u target/ci/farm.jobs1.txt target/ci/farm.jobs4.txt; then
    echo "ci: FAIL — repro farm output diverges between --jobs 1 and --jobs 4" >&2
    exit 1
fi

# Corruption robustness gate: 10k fixed-seed mutated packets through the
# wire decoder — typed WireError or success, never a panic. Its static
# half is the clippy run above, which holds every library crate to typed
# errors; wire's index waivers lean on this gate.
cargo test -q -p lookaside-wire --release --test properties corruption_fuzz_fixed_seed_10k

echo "ci: all green"
