#!/usr/bin/env bash
# Full local gate: release build; the whole workspace suite four times —
# default, DP_TRACE, DP_PROV=annot, DP_STORE=disk — one pass per
# process-wide switch that turns on the instrumentation handle or selects
# a provenance backend or a store; the /metrics scrape smoke test; the
# diagbench package's own tests; one fault-injection sweep; grep gates
# against the deleted second instrumentation system, against a second
# UPDATETREE path in crates/core and against a tuple-keyed map in the
# graph recorder; and lint-clean clippy. There is one engine: it is
# checked against the reference evaluator inside the suite
# (reference_differential.rs), not by re-running the suite under another
# evaluation path. There is one instrumentation handle:
# trace_differential.rs compares it disabled, aggregate-only and full
# within one process.
# Run from the repository root before sending a change out. The last
# thing printed is the wall time of each step.
set -euo pipefail
cd "$(dirname "$0")/.."

# step <name> <command...>: runs the command and notes its wall time for
# the table at the end.
step_names=()
step_secs=()
step() {
    local name="$1" t0=$SECONDS
    shift
    "$@"
    step_names+=("$name")
    step_secs+=($((SECONDS - t0)))
}

# A grep gate: fails when the pattern occurs under the given paths.
absent() {
    local why="$1" pattern="$2"
    shift 2
    if grep -rnE "$pattern" "$@"; then
        echo "check.sh: $why (see above)" >&2
        return 1
    fi
}

step "build" cargo build --release
# Every test pass runs --release so the legs share the artifacts of the
# build above: the DP_* variables only steer runtime defaults, never
# cargo's fingerprints, so nothing is rebuilt between legs (a debug pass
# here used to pay a full second compilation of the workspace).
step "suite" cargo test --release --workspace -q
# The instrumentation handle fully recording as the process-wide default:
# every engine the suite builds records spans, counters, levels, size
# histograms and sketches, and the differential suites (which compare
# provenance streams byte-for-byte) double as the proof that
# instrumentation never perturbs evaluation.
step "suite DP_TRACE=1" env DP_TRACE=1 cargo test --release --workspace -q
# Scrape smoke test: serve /metrics from a live tracer while a replay
# loop mutates its aggregate, validate every scraped exposition, shut down
# over HTTP.
step "metrics-smoke" cargo run --release -p dp-bench --bin repro -- metrics-smoke
# The compact annotation provenance backend as the replay-wide default:
# every diagnosis reconstructs its proof trees from episode annotations
# instead of reading the materialized graph (suites that inspect graph
# internals pin ProvBackend::Graph explicitly).
step "suite DP_PROV=annot" env DP_PROV=annot cargo test --release --workspace -q
# Every replay routed through the durable layer stack (DP_STORE=disk
# seals each schedule into on-disk layer files and merges them back); the
# differential suites prove the disk path is byte-identical to the
# in-memory path. The stores live in per-process tempdirs (dp-store-*)
# that are removed on drop; sweep any leftovers from crashed runs
# afterwards.
step "suite DP_STORE=disk" env DP_STORE=disk cargo test --release --workspace -q
rm -rf "${TMPDIR:-/tmp}"/dp-store-* 2>/dev/null || true
# diagbench is its own workspace (benchmark/), so the passes above never
# compile it: build it and run its smoke tests against the crates as they
# are now, so an engine API change that breaks the benchmark is caught
# here instead of by the pipeline.
step "benchmark tests" cargo test --release --offline --manifest-path benchmark/Cargo.toml
# Fault-injection sweep: 32 generated scenarios through the dp-sim
# invariant battery (digest determinism against the reference evaluator,
# graph well-formedness, verdict invariance, restart transparency,
# duplicate invisibility, durable recovery). Failing seeds are
# ddmin-shrunk into tests/corpus/ automatically.
step "sim sweep" cargo run --release -p dp-bench --bin repro -- sim --seeds 32
# The separate metrics registry folded into dp-trace's aggregate in PR 14;
# a second instrumentation system must not grow back beside it. (The
# names are spelled in halves so this script passes its own gate.)
step "gate: one instrumentation system" absent \
    "a deleted instrumentation name reappeared" \
    "dp_""metrics|DP_""METRICS|set_""metrics|Engine""Meters|Recorder""Meters" \
    crates src tests examples scripts
# DiffProv has one UPDATETREE path: Replayed::roll_forward, which decides
# by itself between rolling the held replay forward and replaying the
# patched log from scratch. A direct call of the from-scratch entry from
# crates/core would be a second path beside it. (Spelled in halves so this
# script passes its own gate.)
step "gate: one UPDATETREE path" absent \
    "crates/core calls the from-scratch replay directly" \
    "replay""_with" crates/core
# The graph recorder finds an episode by the clock the stream names it by
# (ProvEvent's `since`), never by the tuple's value: a map keyed by
# TupleRef in graph.rs would be the by-value search PR 17 removed, paid
# per provenance event.
step "gate: no tuple-keyed map in the recorder" absent \
    "crates/provenance/src/graph.rs keys a map by TupleRef" \
    "(Map|Set)<[[:space:]]*\(?[[:space:]]*&?(dp_types::)?TupleRef" \
    crates/provenance/src/graph.rs
step "clippy" cargo clippy --workspace --all-targets -- -D warnings

echo
echo "check.sh: all green; wall time per step"
total=0
for i in "${!step_names[@]}"; do
    printf '  %-42s %5d s\n' "${step_names[$i]}" "${step_secs[$i]}"
    total=$((total + step_secs[i]))
done
printf '  %-42s %5d s\n' "total" "$total"
