//! `dp_types::WordHasher` on the tuples it is for.
//!
//! The head interner and the join indexes hash a table name and a few
//! machine words per key with a seedless multiply-rotate hasher instead of
//! SipHash. It has to be deterministic (`dp-types` checks that a tuple
//! hashes alike everywhere) and it has to spread real tuples: flow entries
//! whose prefixes end in zero bytes, packets that differ in one small
//! integer, string fields that share long heads. The 2 000-entry campus
//! supplies all of them.

use std::collections::BTreeSet;
use std::hash::BuildHasher;
use std::sync::Arc;

use dp_ndlog::{Engine, NullSink};
use dp_sdn::{campus, CampusConfig};
use dp_types::{Tuple, WordBuildHasher};

/// Every distinct tuple live at the end of the 2 000-entry campus's bad
/// execution.
fn campus_tuples() -> BTreeSet<Tuple> {
    let c = campus(&CampusConfig {
        bulk_entries_per_router: 7,
        background_packets: 200,
        ..CampusConfig::default()
    });
    let exec = &c.scenario.bad_exec;
    let mut engine = Engine::new(Arc::clone(&exec.program), NullSink);
    exec.log.schedule_into(&mut engine).unwrap();
    engine.run().unwrap();
    engine
        .nodes()
        .flat_map(|(_, state)| state.all().map(|(t, _)| t.clone()))
        .collect()
}

#[test]
fn campus_tuples_hash_apart() {
    let tuples = campus_tuples();
    assert!(tuples.len() > 4_000, "{} distinct tuples", tuples.len());
    let hasher = WordBuildHasher::default();
    let hashes: Vec<u64> = tuples.iter().map(|t| hasher.hash_one(t)).collect();

    let distinct: BTreeSet<u64> = hashes.iter().copied().collect();
    assert_eq!(distinct.len(), tuples.len(), "two campus tuples share a 64-bit hash");

    // A table takes its bucket from the low bits and its in-group tag
    // from the top seven: both must be as spread as random values' are.
    let n = tuples.len() as f64;
    let low: BTreeSet<u64> = hashes.iter().map(|h| h & 0xffff).collect();
    let random = 65_536.0 * (1.0 - (-n / 65_536.0).exp());
    assert!(
        low.len() as f64 >= 0.97 * random,
        "{} distinct low-16-bit values over {} tuples (random hashing gives {random:.0})",
        low.len(),
        tuples.len()
    );
    let tags: BTreeSet<u64> = hashes.iter().map(|h| h >> 57).collect();
    assert_eq!(tags.len(), 128, "the top seven bits take every value");
}
