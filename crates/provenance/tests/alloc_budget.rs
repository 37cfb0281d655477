//! What recording costs the allocator, as exact counts.
//!
//! The graph recorder keeps its vertices in columns over one child arena
//! and one row per episode, keyed by the clock the stream names the
//! episode by. Recording therefore allocates only when one of those few
//! vectors (or the start map's page table) grows or a page of clocks is
//! made, and a graph of any size is freed by a fixed, small number of
//! deallocations — the tuples belong to the engine's head interner and to
//! the log. Both are pinned here as counts taken by a counting global
//! allocator, which repeat exactly from run to run: the campus replay
//! into the recorder may allocate at most 0.05 times per provenance event
//! more than the same replay into a null sink (it was 1.84 with a `Vec` of
//! children per vertex and a B-tree entry per tuple), and
//! dropping the graph out of a live engine at most 64 times. What the
//! graph holds, at allocated capacity, is pinned beside them: 1 343 824
//! bytes for 17 223 vertices, + 2 % (1 507 408 while the start index was
//! the sorted array of APPEAR clocks and each row kept its end beside its
//! DISAPPEAR vertex, 1 573 008 while a name was an `Arc<str>` of 16 bytes,
//! 1 704 080 while the index kept a row id beside each APPEAR clock and
//! each row its own start).
//!
//! # The engine's own budget
//!
//! The second test pins what the evaluator itself costs on the same
//! campus, into a null sink (ROADMAP item 2: a budget before a design,
//! then classes removed one at a time). Three counts of allocator calls
//! are asserted at the value measured when each was last moved, plus 2 %,
//! and beside them what the quiescent engine **holds** per live tuple —
//! bytes and blocks allocated since the engine was created and not freed
//! by quiescence, item 2's yardstick. The classes behind them, by their
//! arithmetic on this campus (2 246 base events in the log, 5 741 engine
//! events, 11 482 provenance events, 2 938 distinct heads interned,
//! 5 741 live, 3 495 derivations out of 3 507 join matches found by 1 910
//! rule firings, 1 725 flushes of which 1 510 fire a join):
//!
//! * **Scheduling the log: 0.006 per base event** (13) — the doublings of
//!   the queue's run, nothing per tuple: a logged tuple lives behind an
//!   `Arc` the engine holds as it is, without an interner lookup. (0.011
//!   while the interner filed every base tuple and grew with them; 2.004
//!   while each base event cost a deep copy of the tuple's `Vec<Value>`
//!   and a fresh `Arc<Tuple>`.)
//! * **Running it: 19 103**, 3.3 per engine event — the head interner's
//!   doublings among them, now that heads alone fill it. Per join match
//!   (3 507): the head's `Vec<Value>` (carried to delivery as it was
//!   built) and the scheduled action's body, a `Vec` of row ids — and,
//!   for a head delivered and not interned before, its `Arc<Tuple>`. Per
//!   derivation (3 495): `stamped` (the event's `Vec<BodyRef>`). Per tuple
//!   stored: a bucket — and its owned key — per registered index only
//!   when the bucket is new (the key of a tuple joining a bucket is built
//!   in the table's scratch buffer), and, amortised, B-tree nodes of a
//!   base table's row map, the doublings of a derived table's head-id
//!   slots, of its row slab, its pools and its tries' two arenas: a
//!   derivation record, its body and a dependent are entries of per-table
//!   vectors, not blocks of their own (19 403 while a derived table's rows
//!   were a B-tree by content; 32 944 while each derived tuple had a
//!   `derivations` vector, each body tuple a dependents vector, each
//!   bucket a `BTreeSet` leaf and each trie node a block; 2.870 → 1.691 →
//!   1.665 per provenance event).
//!   Nothing per rule firing or per flush: a rule is compiled to slots
//!   when the program is built, and a firing binds into the engine's
//!   reused scratch — frame, trail, partial match, probe keys, the flat
//!   buffer of matched rows, the live-rule list, the builtin arguments
//!   (51 883 before PR 25: per match a cloned `Env` and a body vector, per
//!   firing the trigger's `Env`, the partial-match, trail, matches and key
//!   vectors, per flush the live-rule list, per builtin call its argument
//!   vector; 4.521 → 2.870 per provenance event).
//! * **Dropping the quiescent engine: 7 243 blocks** — everything above
//!   that outlives the run, minus the base tuples, which the log still
//!   holds: 2 per derived tuple (5 876: the interner's `Arc` and argument
//!   vector), the base tables' row-map B-tree nodes, one slot vector per
//!   derived table, the index buckets and their keys, and a few vectors
//!   per table a tuple reached and per node (7 747 while a derived table's
//!   rows were a B-tree by content, a node a block; 24 639 while
//!   derivations, bodies and dependents were blocks of their own rather
//!   than entries of per-table pools, and a trie node a block rather than
//!   an arena entry; 29 046 while base tuples were copied in, 2 per base
//!   tuple more).
//! * **Held at quiescence: 439.7 bytes in 1.26 blocks per live tuple** —
//!   the same blocks weighed. The head interner is sized by the heads
//!   alone — per head, a 16-byte `(hash, Arc)` record and about 5.6 bytes
//!   of id slots — and a derived row's key is its head id in 4-byte slots
//!   rather than a B-tree entry holding the tuple's `Arc`; a queued
//!   derivation carries its head in the words its `Arc` and its rule's
//!   name took, so the queue keeps the capacity it had; a name in a
//!   field, a located tuple or a key is one word (440.2 bytes in 1.35
//!   blocks with the interner a set of `Arc`s and each table a B-tree by
//!   content; 539.2 bytes in 4.29 blocks before the pools; 625.3 bytes
//!   while a name was a 16-byte `Arc<str>`; 631.7 bytes while the interner
//!   filed base tuples too; 853.3 bytes in 5.06 blocks while base tuples
//!   were copied into the engine).
//!   The provenance-event buffer is not among the large ones: it is handed
//!   to the sink every 4 096 events, so it stays under 1 MB however large
//!   the same-`due` batch.
//!
//! The third test pins held bytes and blocks and drop frees on a campus
//! shaped like diagbench's `campus_traffic` — few entries, packets
//! crossing several hops — where most live tuples are a packet's head at
//! one hop: 324.9 bytes in 1.174 blocks per live tuple and 16 705 frees
//! (332.4 bytes, 1.286 blocks and 18 309 frees while a derived table's
//! rows were a B-tree by content; 4.007 blocks and 57 045 frees before
//! the pools).
//!
//! Item 2's target is ≤ 2 allocations per tuple on this pin; a change
//! that removes a class lowers the constants below in the same commit.
//!
//! This file is its own test binary, and the counters are per thread and
//! switched on by each test for its own thread only, so the tests
//! count nothing of each other and nothing else is counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use dp_ndlog::{Engine, HashSink, NullSink, ProvenanceSink};
use dp_provenance::GraphRecorder;
use dp_sdn::{campus, CampusConfig};

/// What one thread asked of the allocator while counting was on.
#[derive(Clone, Copy)]
struct Counts {
    on: bool,
    /// Calls that may have produced a block (`alloc` and `realloc`).
    allocs: u64,
    /// Calls to `dealloc`.
    frees: u64,
    /// Blocks and bytes allocated and not freed since: signed, so what is
    /// freed of an earlier window's blocks reads as negative.
    held_blocks: i64,
    held_bytes: i64,
}

impl Counts {
    /// Nothing counted, counting off.
    const OFF: Counts = Counts { on: false, allocs: 0, frees: 0, held_blocks: 0, held_bytes: 0 };
}

thread_local! {
    static COUNTS: Cell<Counts> = const { Cell::new(Counts::OFF) };
}

struct Counting;

impl Counting {
    fn note(f: impl FnOnce(&mut Counts)) {
        // `try_with`: the allocator outlives the thread-local.
        let _ = COUNTS.try_with(|c| {
            let mut counts = c.get();
            if counts.on {
                f(&mut counts);
                c.set(counts);
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
        Self::note(|c| {
            c.allocs += 1;
            c.held_blocks += 1;
            c.held_bytes += layout.size() as i64;
        });
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::note(|c| {
            c.frees += 1;
            c.held_blocks -= 1;
            c.held_bytes -= layout.size() as i64;
        });
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growing vector: counted as the allocation it may turn into;
        // it stays one block, at its new size.
        Self::note(|c| {
            c.allocs += 1;
            c.held_bytes += new_size as i64 - layout.size() as i64;
        });
        // SAFETY: the caller's contract, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f`, returning its result and what this thread asked of the
/// allocator meanwhile.
fn counted<T>(f: impl FnOnce() -> T) -> (T, Counts) {
    COUNTS.with(|c| c.set(Counts { on: true, ..Counts::OFF }));
    let out = f();
    (out, COUNTS.with(|c| c.replace(Counts::OFF)))
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
        let (engine, counts) = counted(|| {
            let mut engine = Engine::new(Arc::clone(&exec.program), sink);
            exec.log.schedule_into(&mut engine).unwrap();
            engine.run().unwrap();
            engine
        });
        (engine, counts.allocs)
    }
    let events = replay(exec, HashSink::default()).0.into_sink().count;
    let (null, null_allocs) = replay(exec, NullSink);
    drop(null);
    let (mut recorded, recorded_allocs) = replay(exec, GraphRecorder::new());

    let recorder_allocs = recorded_allocs - null_allocs;
    let per_event = recorder_allocs as f64 / events as f64;
    // The engine stays alive: its tables hold every tuple, so only the
    // graph's own memory goes.
    let graph = std::mem::take(&mut recorded.sink_mut().graph);
    let (vertices, bytes) = (graph.len(), graph.bytes());
    let graph_frees = counted(|| drop(graph)).1.frees;
    println!(
        "alloc budget: {events} provenance events, {vertices} vertices, {bytes} graph bytes; \
         replay allocations {null_allocs} into a null sink, {recorded_allocs} recorded: \
         the recorder's {recorder_allocs} are {per_event:.4} per event; \
         dropping the graph frees {graph_frees} blocks"
    );
    assert!(events > 10_000, "{events} events");
    assert!(per_event <= 0.05, "{recorder_allocs} recorder allocations over {events} events");
    assert!(graph_frees <= 64, "dropping the graph took {graph_frees} deallocations");
    assert!(bytes <= GRAPH_BYTES, "the graph holds {bytes} bytes");
    drop(recorded);
}

/// The graph's heap bytes on this campus when last moved (1 343 824;
/// 1 507 408 before), + 2 %.
const GRAPH_BYTES: usize = 1_370_700;

/// Replay allocations per provenance event, into a null sink: 19 116 over
/// 11 482 events = 1.665 when last moved (1.691 with the B-tree row maps,
/// 2.870 before the pools, 4.521 before that), + 2 %.
const ENGINE_ALLOCS_PER_EVENT: f64 = 1.70;
/// Allocations to schedule the log, per base event: 13 over 2 246 = 0.006
/// when last moved (0.011 before, 2.004 before that) — nothing per tuple,
/// so the bound leaves room for a doubling or two, not for a class.
const SCHEDULE_ALLOCS_PER_BASE_EVENT: f64 = 0.007;
/// Blocks freed by dropping the quiescent engine: 7 243 when last moved
/// (7 747 with the B-tree row maps, 24 639 before the pools, 29 046
/// before that), + 2 %.
const ENGINE_DROP_FREES: u64 = 7_388;
/// Bytes the quiescent engine holds per live tuple: 2 524 064 over 5 741
/// = 439.7 when last moved (440.2 with the B-tree row maps, 539.2 before
/// the pools, 625.3, 631.7 and 853.3 before that), + 2 %.
const ENGINE_HELD_BYTES_PER_TUPLE: f64 = 448.5;
/// Blocks the quiescent engine holds per live tuple: 7 243 over 5 741 =
/// 1.262 when last moved (1.349 with the B-tree row maps, 4.292 before
/// the pools, 5.059 before that), + 2 %.
const ENGINE_HELD_BLOCKS_PER_TUPLE: f64 = 1.29;

/// On the traffic-shaped campus, bytes the quiescent engine holds per
/// live tuple: 4 624 640 over 14 235 = 324.9 when last moved (332.4 with
/// the B-tree row maps), + 2 %.
const TRAFFIC_HELD_BYTES_PER_TUPLE: f64 = 331.4;
/// On the traffic-shaped campus, blocks the quiescent engine holds per
/// live tuple: 16 705 over 14 235 = 1.174 when last moved (1.286 with the
/// B-tree row maps, 4.007 before the pools), + 2 %.
const TRAFFIC_HELD_BLOCKS_PER_TUPLE: f64 = 1.20;
/// On the traffic-shaped campus, blocks freed by dropping the quiescent
/// engine: 16 705 when last moved (18 309 with the B-tree row maps,
/// 57 045 before the pools), + 2 %.
const TRAFFIC_DROP_FREES: u64 = 17_039;

/// What the engine cost the allocator on one campus: scheduling its bad
/// log, running it to quiescence into a null sink, and dropping it.
struct EngineCounts {
    base_events: u64,
    events: u64,
    live: usize,
    scheduling: Counts,
    running: Counts,
    drop_frees: u64,
}

impl EngineCounts {
    fn per_event(&self) -> f64 {
        (self.scheduling.allocs + self.running.allocs) as f64 / self.events as f64
    }

    fn per_base_event(&self) -> f64 {
        self.scheduling.allocs as f64 / self.base_events as f64
    }

    fn held_bytes(&self) -> i64 {
        self.scheduling.held_bytes + self.running.held_bytes
    }

    fn held_blocks(&self) -> i64 {
        self.scheduling.held_blocks + self.running.held_blocks
    }

    fn bytes_per_tuple(&self) -> f64 {
        self.held_bytes() as f64 / self.live as f64
    }

    fn blocks_per_tuple(&self) -> f64 {
        self.held_blocks() as f64 / self.live as f64
    }
}

/// Replays `c`'s bad log into a null sink under the counting allocator,
/// printing what it cost under `label`.
fn measure_engine(label: &str, c: &dp_sdn::Campus) -> EngineCounts {
    let exec = &c.scenario.bad_exec;
    let events = {
        let mut engine = Engine::new(Arc::clone(&exec.program), HashSink::default());
        exec.log.schedule_into(&mut engine).unwrap();
        engine.run().unwrap();
        engine.into_sink().count
    };
    let (mut engine, scheduling) = counted(|| {
        let mut engine = Engine::new(Arc::clone(&exec.program), NullSink);
        exec.log.schedule_into(&mut engine).unwrap();
        engine
    });
    let ((), running) = counted(|| {
        engine.run().unwrap();
    });
    let stats = engine.stats();
    let firings: u64 = engine.join_profile().values().map(|p| p.attempts).sum();
    let live: usize = engine.nodes().map(|(_, state)| state.len()).sum();
    let drop_frees = counted(|| drop(engine)).1.frees;
    let counts = EngineCounts {
        base_events: exec.log.len() as u64,
        events,
        live,
        scheduling,
        running,
        drop_frees,
    };
    println!(
        "{label}: {} base events, {} engine events, {events} provenance \
         events, {} heads interned, {live} live, {} derivations of {} matches by {firings} rule \
         firings, {} flushes; \
         {} allocations to schedule ({:.3} per base event), {} to \
         run: {:.3} per provenance event; the quiescent engine holds {} bytes \
         in {} blocks: {:.1} bytes and {:.3} blocks per \
         live tuple; dropping it frees {drop_frees} blocks",
        counts.base_events,
        stats.events,
        stats.peak_interned,
        stats.derivations,
        stats.join_matches,
        stats.batches,
        scheduling.allocs,
        counts.per_base_event(),
        running.allocs,
        counts.per_event(),
        counts.held_bytes(),
        counts.held_blocks(),
        counts.bytes_per_tuple(),
        counts.blocks_per_tuple(),
    );
    assert!(events > 10_000, "{events} events");
    counts
}

#[test]
fn the_engine_allocates_within_its_budget() {
    let c = measure_engine("engine alloc budget", &pinned_campus());
    assert!(
        c.per_event() <= ENGINE_ALLOCS_PER_EVENT,
        "{} replay allocations over {} provenance events: {:.3} each",
        c.scheduling.allocs + c.running.allocs,
        c.events,
        c.per_event()
    );
    assert!(
        c.per_base_event() <= SCHEDULE_ALLOCS_PER_BASE_EVENT,
        "{} allocations to schedule {} base events: {:.3} each",
        c.scheduling.allocs,
        c.base_events,
        c.per_base_event()
    );
    assert!(c.drop_frees <= ENGINE_DROP_FREES, "dropping the engine took {} frees", c.drop_frees);
    assert!(
        c.bytes_per_tuple() <= ENGINE_HELD_BYTES_PER_TUPLE,
        "{} bytes held for {} live tuples: {:.1} each",
        c.held_bytes(),
        c.live,
        c.bytes_per_tuple()
    );
    assert!(
        c.blocks_per_tuple() <= ENGINE_HELD_BLOCKS_PER_TUPLE,
        "{} blocks held for {} live tuples: {:.3} each",
        c.held_blocks(),
        c.live,
        c.blocks_per_tuple()
    );
}

/// The same budget on a campus shaped like diagbench's `campus_traffic`:
/// few flow entries and many packets, each forwarded across several hops,
/// so most live tuples are a packet's head at one hop — the interner's
/// head and the row that holds it at each node — rather than a table load.
#[test]
fn the_engine_holds_a_packets_hops_within_its_budget() {
    let campus = campus(&CampusConfig {
        bulk_entries_per_router: 1,
        background_packets: 1_500,
        ..CampusConfig::default()
    });
    let c = measure_engine("engine alloc budget, traffic-shaped", &campus);
    assert!(
        c.bytes_per_tuple() <= TRAFFIC_HELD_BYTES_PER_TUPLE,
        "{} bytes held for {} live tuples: {:.1} each",
        c.held_bytes(),
        c.live,
        c.bytes_per_tuple()
    );
    assert!(
        c.blocks_per_tuple() <= TRAFFIC_HELD_BLOCKS_PER_TUPLE,
        "{} blocks held for {} live tuples: {:.3} each",
        c.held_blocks(),
        c.live,
        c.blocks_per_tuple()
    );
    assert!(c.drop_frees <= TRAFFIC_DROP_FREES, "dropping the engine took {} frees", c.drop_frees);
}
