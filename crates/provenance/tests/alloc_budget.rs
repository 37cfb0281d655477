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
//! This file is its own test binary with a single test, and the counters
//! are switched on by that test's thread only, so nothing else is counted.

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

#[test]
fn recording_allocates_per_growth_not_per_event() {
    let c = campus(&CampusConfig {
        bulk_entries_per_router: 7,
        background_packets: 200,
        ..CampusConfig::default()
    });
    assert!((1_900..2_100).contains(&c.entry_count), "{} entries", c.entry_count);
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
