#!/usr/bin/env bash
# Full local gate: release build; the whole workspace suite, once — no
# environment variable selects anything, so there is no second
# configuration to cover — every test target of it run to the end
# (`--no-fail-fast`: a failing target fails the step after the rest have
# run, instead of hiding them); the diagbench package's own tests; one
# fault-injection sweep; grep gates against the deleted second
# instrumentation system, against the deleted scrape surface (server,
# exposition, sketches — the workspace opens no socket and spawns no
# thread), against the deleted store and tracer routings and on-disk
# checkpoints, against a layer that is more than one run of the log (a
# per-node split, per-record sequence numbers, due ranges, a merge of the
# stack), against the deleted in-memory checkpoint (a second way to
# reach an engine state), against the deleted second provenance backend,
# against a second UPDATETREE path in crates/core, against the deleted
# roll-forward's names,
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
# the recorder finding an episode by bisecting its clocks, against a switch
# that selects a whole-log diagnosis; a check that the campus diagnosis
# replays a slice smaller than its log, closed in at most four rounds; a
# check that its MAKEAPPEAR key lookups hold no more rows than the entries
# they replace; and lint-clean clippy.
# The sweep holds six invariants: digest
# determinism, graph well-formedness, baseline deliveries, duplicate
# invisibility, durable recovery, the slice judge — and it must diagnose
# every divergent seed, each over its slices as over its whole logs.
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
# below its `divergent`. Every diagnosis is judged too: over the slices of
# its logs it must equal the diagnosis over the whole logs (the battery's
# sixth invariant), so the `sliced:` count must equal `diagnosed`.
sweep_diagnoses_every_divergence() {
    local out divergent diagnosed sliced
    out="$(cargo run --release -q -p dp-bench --bin repro -- sim --seeds 200)"
    echo "$out"
    divergent="$(awk '$2 == "seeds:" && $4 == "divergent," { print $3 }' <<<"$out")"
    diagnosed="$(awk '$2 == "seeds:" && $6 == "diagnosed," { print $5 }' <<<"$out")"
    sliced="$(awk '$1 == "sliced:" { print $2 }' <<<"$out")"
    if [[ -z "$divergent" || -z "$diagnosed" || "$diagnosed" -lt "$divergent" ]]; then
        echo "check.sh: the sweep diagnosed ${diagnosed:-?} of ${divergent:-?} divergent seeds" >&2
        return 1
    fi
    if [[ -z "$sliced" || "$sliced" != "$diagnosed" ]]; then
        echo "check.sh: ${sliced:-?} of ${diagnosed} diagnoses equal over slices and whole logs" >&2
        return 1
    fi
}
step "sim sweep" sweep_diagnoses_every_divergence
# A diagnosis replays the slice of the log its trees depend on: on the
# default campus the slice must hold at most a twentieth of the log (the
# guard keeps only the flow entries covering the two packets), and closing it
# over the run (each round a recorded replay that finds where the two
# packets went, the closed round's recording kept) may take at most four
# rounds. Read off the summary's `slice:` line of `repro trace campus`.
replays_its_slice() {
    local tail sliced logged rounds
    tail="$(cargo run --release -q -p dp-bench --bin repro -- trace campus)"
    sliced="$(awk '$1 == "slice:" { print $2 }' <<<"$tail")"
    logged="$(awk '$1 == "slice:" { print $4 }' <<<"$tail")"
    rounds="$(awk '$1 == "slice:" { print $9 }' <<<"$tail")"
    echo "repro trace campus: a slice of ${sliced:-?} of ${logged:-?} logged events," \
        "closed in ${rounds:-?} rounds"
    if [[ -z "$sliced" || -z "$logged" || $((sliced * 20)) -gt "$logged" ]]; then
        echo "check.sh: the campus diagnosis replayed more than a twentieth of its log" >&2
        return 1
    fi
    if [[ -z "$rounds" || "$rounds" -gt 4 ]]; then
        echo "check.sh: the campus slice took more than four closure rounds" >&2
        return 1
    fi
}
step "campus replays its slice" replays_its_slice
# MAKEAPPEAR finds the entry a change replaces by its key: each lookup
# holds the rows of its (node, table) that share the key — on the campus
# the one `cfgEntry` it replaces — not the controller's whole table. Read
# off the `diffprov.replaced_tuples` size histogram (lookups, rows held)
# in the tail of `repro trace campus`.
finds_the_replaced_entry_by_key() {
    local tail lookups held
    tail="$(cargo run --release -q -p dp-bench --bin repro -- trace campus)"
    lookups="$(awk '$1 == "diffprov.replaced_tuples" { print $2 }' <<<"$tail")"
    held="$(awk '$1 == "diffprov.replaced_tuples" { print $3 }' <<<"$tail")"
    echo "repro trace campus: ${lookups:-?} key lookups held ${held:-?} rows"
    if [[ -z "$lookups" || -z "$held" || "$lookups" -lt 1 || "$held" -gt "$lookups" ]]; then
        echo "check.sh: a key lookup held more rows than the entry it replaces" >&2
        return 1
    fi
}
step "campus finds the replaced entry by its key" finds_the_replaced_entry_by_key
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
# running it — never by restoring an image: the in-memory checkpoint
# (engine snapshot and restore, the checkpoint store, resumed replay, log
# aging, the resumable digest sink) went in PR 23, and a restart is a
# reopened store. (Spelled in halves so this script passes its own gate.)
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
# DiffProv has one UPDATETREE path: Replayed::update_tree, one more replay
# of the held slice (or log) patched by the change set, the slice widened
# first when the change reaches past it. A direct call of the whole-log
# patched replay from crates/core would be a second path beside it.
# (Spelled in halves so this script passes its own gate.)
step "gate: one UPDATETREE path" absent \
    "crates/core calls the from-scratch replay directly" \
    "replay""_with" crates/core
# The selective roll-forward (its entry, its refusals, its keyed suffix
# and its path counter) was deleted once a replay of the patched slice
# cost as much: it must not grow back beside update_tree. (Spelled in
# halves so this script passes its own gate.)
step "gate: the roll stays deleted" absent \
    "a name of the deleted roll-forward reappeared" \
    "roll_""forward|Refu""sal|Suf""fix::new|path=""roll" \
    crates src tests examples scripts
# The graph recorder finds an episode by the clock the stream names it by
# (ProvEvent's `since`), never by the tuple's value: a map keyed by
# TupleRef in graph.rs would be the by-value search PR 17 removed, paid
# per provenance event.
step "gate: no tuple-keyed map in the recorder" absent \
    "crates/provenance/src/graph.rs keys a map by TupleRef" \
    "(Map|Set)<[[:space:]]*\(?[[:space:]]*&?(dp_types::)?TupleRef" \
    crates/provenance/src/graph.rs
# A recording starts at an empty engine — a replay from the log's start —
# so every row is opened by the APPEAR right after its cause, and a row's
# id is its rank in APPEAR order. A stream that breaks that panics; the
# path that patched one up (boundary episodes at time 0, a B-tree for
# out-of-order keys) must not grow back. (Spelled in halves so this script
# passes its own gate.)
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
# A diagnosis replays slices, on one path: `DiffProv::diagnose` reaches
# its replays through `Execution::replay_slice` (a program whose slice
# plan refused a key slices to its whole log), and the whole-log
# diagnosis runs only inside the judge, as its oracle. No option, field or
# environment variable selects a whole-log diagnosis, and the diagnosis
# itself never calls the whole-log replay. (Spelled in halves so this
# script passes its own gate.)
one_diagnosis_path() {
    absent "a switch selecting a whole-log diagnosis appeared"         "DP_""SLICE|(slice|whole_log|full_log|unsliced)[a-z_]*: bool|fn diagnose_(who""le|fu""ll|unsl""iced)"         crates src tests examples &&
        absent "the diagnosis replays a whole log directly"             "\.re""play\(\)" crates/core/src/align.rs
}
step "gate: a diagnosis replays its slice" one_diagnosis_path
step "clippy" cargo clippy --workspace --all-targets -- -D warnings

echo
echo "check.sh: all green; wall time per step"
total=0
for i in "${!step_names[@]}"; do
    printf '  %-44s %5d s\n' "${step_names[$i]}" "${step_secs[$i]}"
    total=$((total + step_secs[i]))
done
printf '  %-44s %5d s\n' "total" "$total"
