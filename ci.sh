#!/usr/bin/env bash
# Full CI gate: build, tests, lints, formatting, and the parallel-engine
# determinism check. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release
mkdir -p target/ci

# Tier-1 tests must pass at both worker-pool extremes: the engine's
# contract is that LOOKASIDE_JOBS changes wall-clock time only, never
# results. The suite includes the wire-layer proptests (compact-Name
# codec round-trips, canonical-order reference model) and the tee test
# (tests/tee.rs), which feeds one run into both the network's capture
# and a LeakSink and requires classify(capture) == sink.report.
LOOKASIDE_JOBS=1 cargo test -q
LOOKASIDE_JOBS=4 cargo test -q

# `redundant_clone` is denied on top of the default set: the PR-3 memory
# model makes clones cheap but the hot path is supposed to not need them
# at all.
cargo clippy --workspace -- -D warnings -D clippy::redundant_clone
cargo fmt --check

# Allocation-regression gate: the alloc_sweep bench counts every heap
# allocation of a deterministic fig8_9 run, so allocations/query is an
# exact number, not a timing. Fail if it creeps >10% above the recorded
# baseline (PR-3 set 619, see BENCH_pr3.json; PR-9's `resolve_into` +
# RRset scratch pool lowered it to 453 on the since-deleted batch path).
# Re-recorded on the one remaining execution path: 453 (226,901
# allocations over 500 queries).
ALLOC_BASELINE=453
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

# Byte-identity gate: `repro fig9` must print the same bytes at --jobs 1
# and --jobs 4.
./target/release/repro fig9 --jobs 1 > target/ci/fig9.jobs1.txt
./target/release/repro fig9 --jobs 4 > target/ci/fig9.jobs4.txt
if ! diff -u target/ci/fig9.jobs1.txt target/ci/fig9.jobs4.txt; then
    echo "ci: FAIL — repro fig9 output diverges between --jobs 1 and --jobs 4" >&2
    exit 1
fi

# Supervised checkpoint/resume gate: SIGKILL a mid-flight full-scale
# fig12 run that is journalling to --checkpoint, resume it from the same
# journal, and demand the resumed output byte-match an uninterrupted
# run. The kill lands wherever the machine happens to be — mid-journal
# (the interesting case), before the first record, or after the run
# finished (an all-from-journal replay); every outcome must survive the
# same hard byte-diff.
CKPT=target/ci/fig12.ckpt
rm -f "${CKPT}"
./target/release/repro fig12 --full --jobs 4 > target/ci/fig12.full.clean.txt
./target/release/repro fig12 --full --jobs 4 --checkpoint "${CKPT}" \
    > target/ci/fig12.full.killed.txt 2>/dev/null &
REPRO_PID=$!
sleep 15
kill -9 "${REPRO_PID}" 2>/dev/null || echo "ci: note — fig12 finished before the kill"
wait "${REPRO_PID}" 2>/dev/null || true
echo "ci: journal after SIGKILL: $(wc -c < "${CKPT}" 2>/dev/null || echo 0) bytes"
./target/release/repro fig12 --full --jobs 4 --resume "${CKPT}" \
    > target/ci/fig12.full.resumed.txt
if ! diff -u target/ci/fig12.full.clean.txt target/ci/fig12.full.resumed.txt; then
    echo "ci: FAIL — resumed fig12 --full diverges from the uninterrupted run" >&2
    exit 1
fi

# Deterministic variant of the same gate, independent of machine speed:
# the resumed run above left a complete journal; shear it to 60% (tearing
# whatever record straddles the cut) and resume again. The torn record
# must be dropped, the journalled prefix folded from disk, the sheared
# suffix recomputed — and the bytes must still match.
FULL_BYTES=$(wc -c < "${CKPT}")
KEEP=$((FULL_BYTES * 60 / 100))
head -c "${KEEP}" "${CKPT}" > "${CKPT}.sheared" && mv "${CKPT}.sheared" "${CKPT}"
./target/release/repro fig12 --full --jobs 4 --resume "${CKPT}" \
    > target/ci/fig12.full.sheared.txt
if ! diff -u target/ci/fig12.full.clean.txt target/ci/fig12.full.sheared.txt; then
    echo "ci: FAIL — fig12 resumed from a sheared journal diverges from the clean run" >&2
    exit 1
fi
rm -f "${CKPT}"

# Same contract for the Byzantine sweep: seeded faults (bit-flips,
# truncation, forged payloads) must not perturb worker-count
# determinism.
./target/release/repro byzantine --jobs 1 > target/ci/byzantine.jobs1.txt
./target/release/repro byzantine --jobs 4 > target/ci/byzantine.jobs4.txt
if ! diff -u target/ci/byzantine.jobs1.txt target/ci/byzantine.jobs4.txt; then
    echo "ci: FAIL — repro byzantine output diverges between --jobs 1 and --jobs 4" >&2
    exit 1
fi

# And for the key-lifecycle sweep: simulated-time rollovers, expiry
# storms, and RFC 5011 tracking shard scenario-per-worker, so the event
# tables must be byte-identical at every worker count.
./target/release/repro lifecycle --jobs 1 > target/ci/lifecycle.jobs1.txt
./target/release/repro lifecycle --jobs 4 > target/ci/lifecycle.jobs4.txt
if ! diff -u target/ci/lifecycle.jobs1.txt target/ci/lifecycle.jobs4.txt; then
    echo "ci: FAIL — repro lifecycle output diverges between --jobs 1 and --jobs 4" >&2
    exit 1
fi

# And for the resolver farm: one million hashed-cohort stub clients
# against every cache topology. The reduction is a set union plus a
# min-merge, so worker count (and cohort count — the farm proptests pin
# that one) must never show up in the bytes.
./target/release/repro farm --jobs 1 > target/ci/farm.jobs1.txt
./target/release/repro farm --jobs 4 > target/ci/farm.jobs4.txt
if ! diff -u target/ci/farm.jobs1.txt target/ci/farm.jobs4.txt; then
    echo "ci: FAIL — repro farm output diverges between --jobs 1 and --jobs 4" >&2
    exit 1
fi

# Corruption robustness gate: 10k fixed-seed mutated packets through the
# wire decoder — typed WireError or success, never a panic. Backed by a
# panic/unwrap lint wall on the wire crate, extended in PR-5 to the
# engine and resolver hot paths (typed errors replaced the old expects).
cargo test -q -p lookaside-wire --release --test properties corruption_fuzz_fixed_seed_10k
cargo clippy -p lookaside-wire -- -D warnings -D clippy::panic -D clippy::unwrap_used
cargo clippy -p lookaside-engine -- -D warnings -D clippy::panic -D clippy::unwrap_used
cargo clippy -p lookaside-resolver -- -D warnings -D clippy::panic -D clippy::unwrap_used

# Static-invariant gate: the workspace lint (crates/lint) walks every .rs
# file, runs the lexical rules (hash-ordered collections, wall-clock
# reads, ambient entropy, env reads outside the sanctioned seed path,
# panics on hot paths, unsafe code), then builds the workspace call graph
# and runs the three semantic dataflow passes: panic-reachability from
# tagged hot-path entries, determinism taint into tagged sinks, and the
# std::{fs,io,net} purity wall. Zero unsuppressed findings and zero stale
# allows required; the byte-stable JSON report and the call-graph DOT are
# archived with the other CI artifacts. The run is also held to a
# wall-time budget so the semantic passes can't quietly turn into the
# slowest stage of CI.
LINT_BUDGET_SECS=30
LINT_START=$(date +%s)
./target/release/lookaside-lint \
    --json target/ci/lint_report.json --dot target/ci/call_graph.dot
LINT_ELAPSED=$(( $(date +%s) - LINT_START ))
if [ "${LINT_ELAPSED}" -gt "${LINT_BUDGET_SECS}" ]; then
    echo "ci: FAIL — lint took ${LINT_ELAPSED}s (budget ${LINT_BUDGET_SECS}s)" >&2
    exit 1
fi

# Canaries: prove each gate actually bites. Drop a known-bad fixture into
# a scanned crate, expect the lint to fail *on the expected rule*, then
# remove it. One canary per semantic pass (the panic one places its
# unwrap two calls below the tagged entry, so only a transitive pass can
# see it) plus the original lexical one. The trap guarantees cleanup even
# if an expectation itself fails.
CANARIES="crates/core/src/__lint_canary.rs \
    crates/workload/src/__lint_canary_panic.rs \
    crates/wire/src/__lint_canary_taint.rs \
    crates/netsim/src/__lint_canary_purity.rs"
# shellcheck disable=SC2064
trap "rm -f ${CANARIES}" EXIT
lint_canary() {
    fixture="crates/lint/tests/fixtures/$1"
    dest=$2
    rule=$3
    cp "${fixture}" "${dest}"
    out=""
    if out=$(./target/release/lookaside-lint --no-json --no-dot 2>&1); then
        echo "ci: FAIL — canary $1 not detected; the ${rule} gate is toothless" >&2
        exit 1
    fi
    if ! printf '%s' "${out}" | grep -q "${rule}"; then
        echo "ci: FAIL — canary $1 tripped, but not via ${rule}:" >&2
        printf '%s\n' "${out}" >&2
        exit 1
    fi
    rm -f "${dest}"
}
lint_canary bad_hashmap.rs crates/core/src/__lint_canary.rs determinism::hash-collection
lint_canary sem_panic_bad.rs crates/workload/src/__lint_canary_panic.rs semantic::panic-reachable
lint_canary sem_taint_bad.rs crates/wire/src/__lint_canary_taint.rs semantic::taint-flow
lint_canary sem_purity_bad.rs crates/netsim/src/__lint_canary_purity.rs semantic::purity-wall
trap - EXIT

echo "ci: all green"
