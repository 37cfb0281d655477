//! What recording costs the allocator, as exact counts.
//!
//! The graph recorder keeps its vertices in columns over one child arena
//! and one row per episode, keyed by the clock the stream names the
//! episode by. Recording therefore allocates only when one of those few
//! vectors (or the index) grows, and a graph of any size is freed by a
//! fixed, small number of deallocations — the tuples belong to the
//! engine's interner. Both are pinned here as counts taken by a counting
//! global allocator, which repeat exactly from run to run: the campus
//! replay into the recorder may allocate at most 0.05 times per provenance
//! event more than the same replay into a null sink (it was 1.84 with a
//! `Vec` of children per vertex and a B-tree entry per tuple), and
//! dropping the graph out of a live engine at most 64 times.
//!
//! # The engine's own budget
//!
//! The second test pins what the evaluator itself costs on the same
//! campus, into a null sink, in three counts (ROADMAP item 2, step 1: a
//! budget before a design). Each is asserted at the value measured when it
//! was last moved, plus 2 %, and the classes behind it are these, by their
//! arithmetic on this campus (2 246 base events in the log, 5 741 engine
//! events, 11 482 provenance events, 5 170 distinct tuples interned,
//! 3 495 derivations out of 3 507 join matches found by 1 910 rule
//! firings, 1 725 flushes of which 1 510 fire a join):
//!
//! * **Scheduling the log: 2.0 per base event** (4 502) — the `Vec<Value>`
//!   the logged tuple is cloned into and the `Arc<Tuple>` the interner
//!   wraps it in; the run's and the interner's doublings are the rest.
//! * **Running it: 54 257**, 9.5 per engine event. Per join match
//!   (3 507): the cloned `Env`, the body vector of the match, the head's
//!   `Vec<Value>`, the `Vec<TupleRef>` of the scheduled action — and, for
//!   a head not interned before, its `Arc<Tuple>`.
//!   Per derivation (3 495): `stamped` (the event's `Vec<BodyRef>`), and
//!   per tuple derived for the first time its `derivations` vector; per
//!   body tuple used for the first time its dependents vector. Per rule
//!   firing (1 910): the trigger's `Env`, the partial-match and trail
//!   vectors, the matches vector, an index-probe key. Per tuple stored
//!   (5 170): an index key and bucket per registered index, and, amortised,
//!   B-tree nodes of the table, its buckets and its tries. What the
//!   parent paid on top: a per-flush join-profile map (one node per firing
//!   flush), a `Sym` per `best_match!` evaluation, and an `Env` that was
//!   a B-tree (60 918 in all, 5.306 per provenance event, against 58 759
//!   and 5.117 now).
//! * **Dropping the quiescent engine: 29 046 blocks** — everything above
//!   that outlives the run: 2 per interned tuple, the body vector and,
//!   amortised, the `derivations` vector per derivation, the dependents
//!   vectors, the index keys and buckets, the B-tree and trie nodes.
//!
//! Item 2's target is ≤ 2 allocations per tuple on this pin; a change
//! that removes a class lowers the constants below in the same commit.
//!
//! This file is its own test binary, and the counters are per thread and
//! switched on by each test for its own thread only, so the two tests
//! count nothing of each other and nothing else is counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use dp_ndlog::{Engine, HashSink, NullSink, ProvenanceSink};
use dp_provenance::GraphRecorder;
use dp_sdn::{campus, CampusConfig};

thread_local! {
    /// `(counting, allocations, deallocations)` of this thread.
    static COUNTS: Cell<(bool, u64, u64)> = const { Cell::new((false, 0, 0)) };
}

struct Counting;

impl Counting {
    fn note(alloc: bool) {
        // `try_with`: the allocator outlives the thread-local.
        let _ = COUNTS.try_with(|c| {
            let (on, a, d) = c.get();
            if on {
                c.set((on, a + u64::from(alloc), d + u64::from(!alloc)));
            }
        });
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a `Cell` in const-initialized
// thread-local storage with no destructor, so noting a call neither
// allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(true);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::note(false);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growing vector: counted as the allocation it may turn into.
        Self::note(true);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f`, returning its result and the `(allocations, deallocations)`
/// this thread made meanwhile.
fn counted<T>(f: impl FnOnce() -> T) -> (T, (u64, u64)) {
    COUNTS.with(|c| c.set((true, 0, 0)));
    let out = f();
    let (_, allocs, deallocs) = COUNTS.with(|c| c.replace((false, 0, 0)));
    (out, (allocs, deallocs))
}

/// The 2 000-entry campus both budgets are taken on.
fn pinned_campus() -> dp_sdn::Campus {
    let c = campus(&CampusConfig {
        bulk_entries_per_router: 7,
        background_packets: 200,
        ..CampusConfig::default()
    });
    assert!((1_900..2_100).contains(&c.entry_count), "{} entries", c.entry_count);
    c
}

#[test]
fn recording_allocates_per_growth_not_per_event() {
    let c = pinned_campus();
    let exec = &c.scenario.bad_exec;
    /// Replays `exec` into `sink`; the engine and the allocations it took.
    fn replay<S: ProvenanceSink>(exec: &dp_replay::Execution, sink: S) -> (Engine<S>, u64) {
        let (engine, (allocs, _)) = counted(|| {
            let mut engine = Engine::new(Arc::clone(&exec.program), sink);
            exec.log.schedule_into(&mut engine, None).unwrap();
            engine.run().unwrap();
            engine
        });
        (engine, allocs)
    }
    let events = replay(exec, HashSink::default()).0.into_sink().count;
    let (null, null_allocs) = replay(exec, NullSink);
    drop(null);
    let (mut recorded, recorded_allocs) = replay(exec, GraphRecorder::new());

    let recorder_allocs = recorded_allocs - null_allocs;
    let per_event = recorder_allocs as f64 / events as f64;
    // The engine stays alive: its interner and tables hold every tuple,
    // so only the graph's own memory goes.
    let graph = std::mem::take(&mut recorded.sink_mut().graph);
    let (vertices, bytes) = (graph.len(), graph.bytes());
    let ((), (_, graph_frees)) = counted(|| drop(graph));
    println!(
        "alloc budget: {events} provenance events, {vertices} vertices, {bytes} graph bytes; \
         replay allocations {null_allocs} into a null sink, {recorded_allocs} recorded: \
         the recorder's {recorder_allocs} are {per_event:.4} per event; \
         dropping the graph frees {graph_frees} blocks"
    );
    assert!(events > 10_000, "{events} events");
    assert!(per_event <= 0.05, "{recorder_allocs} recorder allocations over {events} events");
    assert!(graph_frees <= 64, "dropping the graph took {graph_frees} deallocations");
    drop(recorded);
}

/// Replay allocations per provenance event, into a null sink: 58 759 over
/// 11 482 events = 5.117 when last moved (PR 22; 5.306 before), + 2 %.
const ENGINE_ALLOCS_PER_EVENT: f64 = 5.22;
/// Allocations to schedule the log, per base event: 4 502 over 2 246 =
/// 2.004 when last moved, + 2 %.
const SCHEDULE_ALLOCS_PER_BASE_EVENT: f64 = 2.045;
/// Blocks freed by dropping the quiescent engine: 29 046 when last moved,
/// + 2 %.
const ENGINE_DROP_FREES: u64 = 29_627;

#[test]
fn the_engine_allocates_within_its_budget() {
    let c = pinned_campus();
    let exec = &c.scenario.bad_exec;
    let events = {
        let mut engine = Engine::new(Arc::clone(&exec.program), HashSink::default());
        exec.log.schedule_into(&mut engine, None).unwrap();
        engine.run().unwrap();
        engine.into_sink().count
    };
    let (mut engine, (scheduling, _)) = counted(|| {
        let mut engine = Engine::new(Arc::clone(&exec.program), NullSink);
        exec.log.schedule_into(&mut engine, None).unwrap();
        engine
    });
    let ((), (running, _)) = counted(|| {
        engine.run().unwrap();
    });
    let stats = engine.stats();
    let firings: u64 = engine.join_profile().values().map(|p| p.attempts).sum();
    let ((), (_, drop_frees)) = counted(|| drop(engine));

    let base_events = exec.log.len() as u64;
    let per_event = (scheduling + running) as f64 / events as f64;
    let per_base_event = scheduling as f64 / base_events as f64;
    println!(
        "engine alloc budget: {base_events} base events, {} engine events, {events} provenance \
         events, {} tuples interned, {} derivations of {} matches by {firings} rule firings, {} \
         flushes; \
         {scheduling} allocations to schedule ({per_base_event:.3} per base event), {running} to \
         run: {per_event:.3} per provenance event; dropping the engine frees {drop_frees} blocks",
        stats.events,
        stats.peak_interned,
        stats.derivations,
        stats.join_matches,
        stats.batches,
    );
    assert!(events > 10_000, "{events} events");
    assert!(
        per_event <= ENGINE_ALLOCS_PER_EVENT,
        "{} replay allocations over {events} provenance events: {per_event:.3} each",
        scheduling + running
    );
    assert!(
        per_base_event <= SCHEDULE_ALLOCS_PER_BASE_EVENT,
        "{scheduling} allocations to schedule {base_events} base events: {per_base_event:.3} each"
    );
    assert!(drop_frees <= ENGINE_DROP_FREES, "dropping the engine took {drop_frees} frees");
}
