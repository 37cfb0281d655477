//! A log's events exist once per process, pinned as allocator counts.
//!
//! An [`EventLog`] is one `Arc` over its events, so cloning an execution
//! to attach a tracer, or to hand the good and bad runs one log, is a
//! reference count, and a store hands out the log it holds: opening a
//! store decodes its layers into that log, and loading it afterwards
//! copies nothing. Both are counted by a counting global allocator on the
//! test-scale campus (bulk 40, seed 7: 10 066 events, 32 bytes each, so a
//! copy of its events is ≈322 KB).
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
