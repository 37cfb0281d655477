#!/usr/bin/env bash
# Full local gate: release build; the whole workspace suite, once — no
# environment variable selects anything, so there is no second
# configuration to cover — every test target of it run to the end
# (`--no-fail-fast`: a failing target fails the step after the rest have
# run, instead of hiding them); the diagbench package's own tests; one
# fault-injection sweep; a check that UPDATETREE rolls the campus and
# re-issues only what the change reaches; grep gates against the deleted second
# instrumentation system, against the deleted scrape surface (server,
# exposition, sketches — the workspace opens no socket and spawns no
# thread), against the deleted store and tracer routings and on-disk
# checkpoints, against a layer that is more than one run of the log (a
# per-node split, per-record sequence numbers, due ranges, a merge of the
# stack), against the deleted in-memory checkpoint (a second way to
# reach an engine state), against the deleted second provenance backend,
# against a second UPDATETREE path in crates/core or a second roll entry,
# against the roll's deleted memo copies of what the program answers and
# the replay's deleted cut parameter,
# against a tuple-keyed map in the graph recorder, against the recorder's
# deleted path for a stream that starts mid-run, and against the
# searches the engine stopped
# repeating (B-tree environment, second body walk, per-flush profile map),
# against a second copy of a logged base tuple, against name-keyed
# bindings or whole-tuple table keys in the engine, against a second
# representation of a join plan beside the compiled steps, against the tracer's
# deleted event stream (its renderings, determinism classes, span and
# trace ids, instants), against a name that is more than one interned word
# (an `Arc<str>` or a pointer test in `Sym`, a pointer pass in the
# environment or the parser), against a second encoding of a logged event
# beside the layer file's record (a size model, a zero-filled log),
# against an engine that names a live tuple by anything but its row id
# (an `Arc`-keyed row, bucket, trie entry or dependents list), against
# the deleted negative-provenance module, against a second tuple interner
# beside the engine's head ids (the deleted global `TupleStore`), against
# the recorder finding an episode by bisecting its clocks; and lint-clean
# clippy.
# The sweep holds five invariants: digest
# determinism, graph well-formedness, baseline deliveries, duplicate
# invisibility, durable recovery — and it must diagnose every divergent
# seed.
# What used to be a pass of its own is one in-process differential inside
# the suite: the engine against the reference evaluator
# (reference_differential.rs), the instrumentation handle disabled and
# enabled (trace_differential.rs), the log recovered from
# a store directory against the log in memory (store_recovery.rs).
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
# The suite runs --release so it shares the artifacts of the build above
# (a debug pass here used to pay a full second compilation of the
# workspace).
step "suite" cargo test --release --workspace --no-fail-fast -q
# The stores the suites spill into live in per-process tempdirs
# (dp-store-*) that are removed on drop; sweep any leftovers from crashed
# runs.
rm -rf "${TMPDIR:-/tmp}"/dp-store-* 2>/dev/null || true
# diagbench is its own workspace (benchmark/), so the passes above never
# compile it: build it and run its smoke tests against the crates as they
# are now, so an engine API change that breaks the benchmark is caught
# here instead of by the pipeline.
step "benchmark tests" cargo test --release --offline --manifest-path benchmark/Cargo.toml
# Fault-injection sweep: 200 generated scenarios through the dp-sim
# invariant battery's five invariants (digest determinism against the
# reference evaluator, graph well-formedness, baseline deliveries,
# duplicate invisibility, durable recovery — the store sealed in sessions
# split at the scenario's node restarts) — the suite's sim_battery.rs
# covers seeds 0..32, and it took the wider sweep to catch seed 144 in
# PR 16. Failing seeds are ddmin-shrunk into tests/corpus/ automatically.
# Every divergent seed must reach DiffProv — a misdelivered packet queried
# at its bad delivery, a packet the faulty run never delivers at the last
# hop where it was seen — so the summary line's `diagnosed` may not fall
# below its `divergent`.
sweep_diagnoses_every_divergence() {
    local out divergent diagnosed
    out="$(cargo run --release -q -p dp-bench --bin repro -- sim --seeds 200)"
    echo "$out"
    divergent="$(awk '$2 == "seeds:" && $4 == "divergent," { print $3 }' <<<"$out")"
    diagnosed="$(awk '$2 == "seeds:" && $6 == "diagnosed," { print $5 }' <<<"$out")"
    if [[ -z "$divergent" || -z "$diagnosed" || "$diagnosed" -lt "$divergent" ]]; then
        echo "check.sh: the sweep diagnosed ${diagnosed:-?} of ${divergent:-?} divergent seeds" >&2
        return 1
    fi
}
step "sim sweep" sweep_diagnoses_every_divergence
# UPDATETREE re-issues only what the change reaches: on the default
# campus DiffProv's own call must roll (not replay from scratch), the
# events it re-issues must be fewer than the suffix from the fork on, and
# the suffix's distinct located tuples no more than its events plus the
# tuples Δ brings (a tuple is keyed once, however many events log it).
# All are read off `repro trace campus`: its verdict line and its tail.
rolls_what_the_change_reaches() {
    local tail roll fork affected tuples changes
    tail="$(cargo run --release -q -p dp-bench --bin repro -- trace campus)"
    read_counter() { awk -v name="$1" '$1 == name { print $2 }' <<<"$tail"; }
    roll="$(read_counter 'replay.rolled{path=roll}')"
    fork="$(read_counter replay.fork_events)"
    affected="$(read_counter replay.affected_events)"
    tuples="$(read_counter replay.suffix_tuples)"
    changes="$(awk '$1 == "verdict:" { print $2 }' <<<"$tail")"
    echo "repro trace campus: roll ${roll:-0}, ${affected:-?} affected of ${fork:-?} fork events," \
        "${tuples:-?} suffix tuples, |Δ| ${changes:-?}"
    if [[ "$roll" != 1 || -z "$affected" || -z "$fork" || "$affected" -ge "$fork" ]]; then
        echo "check.sh: the campus did not roll only what the change reaches" >&2
        return 1
    fi
    if [[ -z "$tuples" || -z "$changes" || "$tuples" -gt $((fork + changes)) ]]; then
        echo "check.sh: the campus suffix keyed more tuples than its events and Δ hold" >&2
        return 1
    fi
}
step "campus rolls what the change reaches" rolls_what_the_change_reaches
# The separate metrics registry folded into dp-trace's aggregate in PR 14;
# a second instrumentation system must not grow back beside it. (The
# names are spelled in halves so this script passes its own gate.)
step "gate: one instrumentation system" absent \
    "a deleted instrumentation name reappeared" \
    "dp_""metrics|DP_""METRICS|set_""metrics|Engine""Meters|Recorder""Meters" \
    crates src tests examples scripts
# The aggregate is read in-process — `repro trace`, Stats JSON,
# Report::metrics — and nothing renders it for a scraper: the /metrics
# server, the Prometheus exposition and its validator, the HyperLogLog
# sketches and their hashes went in PR 21 with every socket and spawned
# thread of the workspace. (Spelled in halves so this script passes its
# own gate.)
step "gate: no scrape surface" absent \
    "a name of the deleted scrape surface reappeared" \
    "Metrics""Server|render_""prometheus|validate_""exposition|exposition_""name|Hll""Cell|merge_""sketch|sketch_""estimate|tuple_""fnv64|flow_""fnv64|serve-""metrics|metrics-""smoke|Tcp""Listener|thread::""spawn" \
    crates src tests examples scripts
# The store has one recovery path (open the layers, replay them) and one
# stream identity; no environment variable or Execution field routes
# replays through it, none attaches a tracer, the seal threshold is a
# constant, and no on-disk checkpoint format exists. None of them may grow
# back. (Spelled in halves so this script passes its own gate.)
step "gate: one store, one recovery path" absent \
    "a deleted store or tracer routing reappeared" \
    "DP_""STORE|Store""Mode|store_""mode|DP_LAYER_""EVENTS|DP_""TRACE|dp""ck|checkpoint_""every" \
    crates src tests examples scripts
# A layer is one seal's run of the log, and the stack is read back by
# concatenating its layers in `first_seq` order: no per-node split, no
# per-record sequence number, no due range per layer, no heap merging the
# stack. (Spelled in halves so this script passes its own gate.)
step "gate: a layer is one run of the log" absent \
    "a per-node layer or a merge of the stack reappeared" \
    "Binary""Heap|Seq""Event|min_""due|max_""due|by_""node" \
    crates/replay/src/layers
# An engine state is reached by scheduling a log on a fresh engine and
# running it, or by rolling such a replay forward — never by restoring an
# image: the in-memory checkpoint (engine snapshot and restore, the
# checkpoint store, resumed replay, log aging, the resumable digest sink)
# went in PR 23, and a restart is a reopened store. (Spelled in halves so
# this script passes its own gate.)
step "gate: one way to reach an engine state" absent \
    "a name of the deleted in-memory checkpoint reappeared" \
    "Engine""Snapshot|fn snap""shot|Engine::res""tore|Checkpoint""Store|build_""checkpoints|replay_from_""checkpoint|fn age_""out|retain_""after|fn re""index|HashSink::res""ume" \
    crates src tests examples scripts
# There is one provenance backend — the graph recorder, trees extracted
# from it — and the stream carries nothing only the annotation store read;
# no environment variable selects a backend or scales a test. (Spelled in
# halves so this script passes its own gate.)
step "gate: one provenance backend" absent \
    "a name of the deleted annotation backend reappeared" \
    "DP_""PROV|DP_SIM_""SEEDS|Annot""Recorder|Annotation""Store|reconstruct_""tree|Backend""Recorder|default_from_""env|fired_""at" \
    crates src tests examples scripts
# DiffProv has one UPDATETREE path: Replayed::roll_forward. It rolls the
# held replay forward selectively — Δ applied at the clock, then only the
# suffix events Δ reaches withdrawn and re-issued, the whole suffix being
# the case where Δ reaches everything — and decides by itself, by one
# fixed rule, when to replay the patched log from scratch instead: the
# trust rule (what the roll keeps could have read what it changed, or a
# re-issued event joined an independent one logged after it). A direct
# call of the from-scratch entry from crates/core would be a second path
# beside it. (Spelled in halves so this script passes its own gate.)
step "gate: one UPDATETREE path" absent \
    "crates/core calls the from-scratch replay directly" \
    "replay""_with" crates/core
# Every caller, tests included, reaches the roll through that one entry:
# the test-only entry that skipped the cost rule went once no diagnosis
# needed it to reach the roll. (Spelled in halves so this script passes
# its own gate.)
step "gate: one roll entry" absent \
    "the roll's test-only entry reappeared" \
    "roll_forward_""withdrawing|always_""withdraw" \
    crates src tests examples scripts
# The roll asks the program what a rule reads (Program::reads_state,
# Program::reads_table) instead of keeping memo copies of the answers, and
# a replay runs its whole log: a cut is a log that holds only the events
# due by then, not a parameter of the replay. (Spelled in halves so this
# script passes its own gate.)
step "gate: the roll asks the program" absent \
    "a deleted memo of the roll or the replay's cut reappeared" \
    "Reader""Cache|Read""Tables|replay_""until" \
    crates
# The graph recorder finds an episode by the clock the stream names it by
# (ProvEvent's `since`), never by the tuple's value: a map keyed by
# TupleRef in graph.rs would be the by-value search PR 17 removed, paid
# per provenance event.
step "gate: no tuple-keyed map in the recorder" absent \
    "crates/provenance/src/graph.rs keys a map by TupleRef" \
    "(Map|Set)<[[:space:]]*\(?[[:space:]]*&?(dp_types::)?TupleRef" \
    crates/provenance/src/graph.rs
# A recording starts at an empty engine — a replay from the log's start,
# possibly rolled forward on the same engine and recorder — so every row
# is opened by the APPEAR right after its cause, and a row's id is its
# rank in APPEAR order. A stream that breaks that panics; the path that
# patched one up (boundary episodes at time 0, a B-tree for out-of-order
# keys) must not grow back. (Spelled in halves so this script passes its
# own gate.)
step "gate: a recording starts at an empty engine" absent \
    "the recorder's deleted mid-run path reappeared" \
    "boundary_""episode|stra""ys" \
    crates/provenance
# The engine finds each thing once: a derivation re-checks its body
# and registers its head in one pass over the body's rows, and join
# counters are arrays indexed by rule. The B-tree environment, the second walk over the
# body and the per-flush profile map must not grow back. (Spelled in halves
# so this script passes its own gate.)
step "gate: the engine finds once" absent \
    "a search the engine stopped repeating reappeared" \
    "type Env = BTree""Map|fn add_""dependent|struct Fire""Stats" \
    crates
# The engine binds by slot (PR 25): a rule is compiled to slots when the
# program is built and fires into one reused frame, so nothing on the
# firing path looks a variable up by name, and a table compares its rows by
# their arguments, not by a tuple whose first field is the table's own name.
# Name-keyed bindings (`Env`, `Rule::run_assigns`, `Expr::eval` over an
# environment) belong to the oracle and DiffProv's reasoning; in the engine
# they would be the second path this change deleted. (Spelled in halves so
# this script passes its own gate.)
step "gate: the engine binds by slot" absent \
    "the engine binds by name or keys a table by whole tuples again" \
    "\\bE""nv\\b|run_""assigns|\\.eval\\(&""env|BTreeMap<Arc<Tu""ple>, Slot>" \
    crates/ndlog/src/engine.rs crates/ndlog/src/engine
# One plan representation: a rule is planned where it is compiled, straight
# into the slot steps the engine runs, so no named plan (trigger plans,
# join steps, prefix probes and their address sources) is built beside
# them and translated. (Spelled in halves so this script passes its own
# gate.)
step "gate: one plan representation" absent \
    "a named join plan reappeared beside the compiled steps" \
    "Join""Plan|Join""Step|Plan""Set|Ip""Source|Prefix""Probe" \
    crates/ndlog
# A base tuple is held once: the log keeps it behind an `Arc`, and
# scheduling, patching and the layer reader hand that handle on instead of
# copying the tuple out of it. The engine keeps the handle as scheduled,
# with no interner lookup — no head can equal a base tuple, so the interner
# holds derived heads alone and has no entry that files a given `Arc`.
# (Spelled in halves so this script passes its own gate.)
held_once() {
    absent "the log holds its tuples by value again" \
        "pub tuple: Tu""ple" crates/replay/src/log.rs &&
        absent "a logged tuple is deep-copied out of its handle" \
            "\(\*[a-z_.]*tuple\)\.clo""ne\(\)|\.tuple\.as_ref\(\)\.clo""ne\(\)" \
            crates/replay/src crates/ndlog/src/engine.rs &&
        absent "the interner files base tuples again" \
            "fn ado""pt\\b|\\.ado""pt\\(" crates
}
step "gate: a base tuple is held once" held_once
# The tracer is its aggregate: a handle is disabled or updates the one
# aggregate, and nothing records an event stream beside it — no
# recording mode, no event type, no skeleton, JSONL or Chrome rendering, no
# determinism class (with one engine every series but span wall time is a
# function of program and log), no span or trace ids, no instants. (Spelled
# in halves so this script passes its own gate.)
step "gate: the tracer is its aggregate" absent \
    "a name of the deleted trace event stream reappeared" \
    "Tracer::fu""ll|Trace""Event|to_js""onl|to_chr""ome|fn skel""eton|Class::Skel""eton|Class::Eff""ort|Span""Id|Trace""Id|\\.inst""ant\\(" \
    crates src tests examples scripts
# A name is one interned word: `Sym` points at the one copy of its
# text the process keeps, so equality is the pointer and exact. A
# reference-counted string beside it, an allocation test on it, or a
# pointer pass in front of a content search in the environment or the
# parser would be the second representation this change deleted.
one_word() {
    absent "Sym is not one interned word" \
        "Arc<str>|fn ptr_eq" crates/types/src/sym.rs &&
        absent "a pointer pass on names reappeared" \
            "\\.ptr_eq\\(" crates/ndlog/src/expr.rs crates/ndlog/src/parser.rs
}
step "gate: a name is one interned word" one_word
# A logged event has one encoding, the layer file's record: the log-cost
# experiments (Figures 5 and 6, Sections 6.4 and 6.5) measure the bytes
# the store writes, and no size model or zero-filled log stands beside
# it. (Spelled in halves so this script passes its own gate.)
step "gate: a logged event has one encoding" absent \
    "a second encoding of a logged event reappeared" \
    "Storage""Model|value_""bytes|event_""bytes" \
    crates src
# The engine names a row by id: a live tuple is one row of its table, and
# index buckets, trie entries, derivation bodies and dependents hold
# `(node, table, row)` ids, not the tuple's `Arc`. An `Arc`-keyed row type,
# bucket, trie or dependents list would be the layout this replaced.
step "gate: the engine names a row by id" absent \
    "the engine keys a bucket, trie or dependents list by the tuple again" \
    "dependents: Vec<TupleRef>|PrefixTrie<Row>|BTreeSet<Row>|struct Row\(Arc" \
    crates/ndlog/src/engine.rs crates/ndlog/src/engine
# A missing event is diagnosed as the paper's §6.7 does it: the packet
# queried at the last hop where it was seen, by positive provenance. The
# Y!-style negative-provenance module, a third rule evaluator beside the
# engine and the reference oracle that no diagnosis called, must not grow
# back. (Spelled in halves so this script passes its own gate.)
step "gate: negative provenance stays deleted" absent \
    "negative provenance reappeared" \
    "why_""not|why""not|Why""Not" \
    crates src tests examples
# A derived head is looked up by value once, where it is delivered: the
# engine's head interner gives it an id and its table finds the row by
# that id. The global interner that heads went through at firing time,
# before their table searched for them again by value, must not grow
# back. (Spelled in halves so this script passes its own gate.)
step "gate: a head is found once" absent \
    "the deleted global tuple interner reappeared" \
    "Tuple""Store" \
    crates
# The recorder finds an episode by its clock in one probe of its start
# map, not by bisecting the clocks it has seen. (Spelled in halves so this
# script passes its own gate.)
step "gate: the recorder bisects no clocks" absent \
    "crates/provenance/src/graph.rs bisects its clocks again" \
    "binary""_search" \
    crates/provenance/src/graph.rs
step "clippy" cargo clippy --workspace --all-targets -- -D warnings

echo
echo "check.sh: all green; wall time per step"
total=0
for i in "${!step_names[@]}"; do
    printf '  %-44s %5d s\n' "${step_names[$i]}" "${step_secs[$i]}"
    total=$((total + step_secs[i]))
done
printf '  %-44s %5d s\n' "total" "$total"
