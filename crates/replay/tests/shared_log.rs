//! A log's events exist once per process, pinned as allocator counts.
//!
//! An [`EventLog`] is one `Arc` over its events, so cloning an execution
//! to attach a tracer, or to hand the good and bad runs one log, is a
//! reference count, and a store hands out the log it holds: a log backed
//! by the store's layers, which opening the store checks without building
//! a tuple and sealing keeps as the bytes it wrote, and which loading
//! copies nothing of. All of it is counted by a counting global allocator
//! on the test-scale campus (bulk 40, seed 7: 10 066 events, 32 bytes
//! each, so a copy of its events is ≈322 KB, and its tuples take more).
//!
//! This file is its own test binary, and the counters are per thread and
//! switched on by each test for its own thread only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dp_replay::{DurableStore, Execution};
use dp_sdn::stanford::{campus, CampusConfig};

thread_local! {
    /// Bytes this thread asked the allocator for while counting was on
    /// (`None`: off).
    static ALLOCATED: Cell<Option<u64>> = const { Cell::new(None) };
}

struct Counting;

impl Counting {
    fn note(bytes: usize) {
        // `try_with`: the allocator outlives the thread-local.
        let _ = ALLOCATED.try_with(|c| c.set(c.get().map(|n| n + bytes as u64)));
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a `Cell` in const-initialized
// thread-local storage with no destructor, so noting a call neither
// allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growing block counts what it grew by.
        Self::note(new_size.saturating_sub(layout.size()));
        // SAFETY: the caller's contract, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f`, returning its result and the bytes this thread allocated
/// meanwhile.
fn allocated<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCATED.with(|c| c.set(Some(0)));
    let out = f();
    (out, ALLOCATED.with(|c| c.replace(None)).unwrap_or(0))
}

/// The test-scale campus's bad execution.
fn campus_exec() -> Execution {
    let exec = campus(&CampusConfig {
        seed: 7,
        bulk_entries_per_router: 40,
        ..CampusConfig::default()
    })
    .scenario
    .bad_exec;
    assert_eq!(exec.log.len(), 10_066);
    exec
}

#[test]
fn cloning_an_execution_allocates_nothing() {
    let exec = campus_exec();
    let (clone, bytes) = allocated(|| exec.clone());
    assert_eq!(bytes, 0, "cloning the execution allocated {bytes} bytes");
    assert!(clone.log.same(&exec.log));
}

#[test]
fn loading_an_opened_store_copies_no_events() {
    let exec = campus_exec();
    let mut store = DurableStore::temp().unwrap();
    exec.spill_into(&mut store).unwrap();
    let (_, open) = allocated(|| DurableStore::open(store.dir()).unwrap());
    let (log, loaded) = allocated(|| DurableStore::open(store.dir()).unwrap().load_log());
    assert!(
        loaded <= open + 1024,
        "open and load_log allocated {loaded} bytes, open alone {open}"
    );
    assert!(
        log.events() == exec.log.events(),
        "the loaded log is the sealed one"
    );
}


/// Bytes a layer keeps beside its file per record: where the record
/// starts (4) and, every 64th record, its due (8).
fn kept_per_records(records: u64) -> u64 {
    4 * records + records.div_ceil(64) * 8
}

#[test]
fn spilling_keeps_the_bytes_it_wrote_and_copies_no_event() {
    let exec = campus_exec();
    let mut store = DurableStore::temp().unwrap();
    let (_, spilled) = allocated(|| exec.spill_into(&mut store).unwrap());
    // The layer files' bytes, kept; the encoder's record buffer, at most
    // twice the records it holds (it grows by doubling); where each record
    // starts; and the dictionaries, paths and file handles of three seals.
    let (bytes, records) = (store.layer_bytes(), store.event_count());
    let bound = 3 * bytes + kept_per_records(records) + 32 * 1024;
    assert!(
        spilled <= bound,
        "spilling {records} events into {bytes} layer bytes allocated {spilled} bytes, \
         more than the {bound} the layers and the encoder take"
    );
    assert!(
        store.load_log().events() == exec.log.events(),
        "the store's log is the spilled one"
    );
}

#[test]
fn opening_a_store_builds_no_tuple() {
    let exec = campus_exec();
    let mut store = DurableStore::temp().unwrap();
    exec.spill_into(&mut store).unwrap();
    let (opened, open) = allocated(|| DurableStore::open(store.dir()).unwrap());
    // The files' bytes, where each record starts, the dictionaries and
    // the directory listing: a tuple per record would take ≈1.7 MB more.
    let (bytes, records) = (opened.layer_bytes(), opened.event_count());
    let bound = bytes + kept_per_records(records) + 16 * 1024;
    assert!(
        open <= bound,
        "opening {records} events in {bytes} layer bytes allocated {open} bytes, \
         more than the {bound} the checked files take"
    );
}
