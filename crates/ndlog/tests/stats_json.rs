//! Golden tests pinning the JSON shape of [`Stats`], [`RuleJoinProfile`],
//! and [`join_profile_json`] — the payloads `repro -- stats` emits. The
//! serializers are hand-rolled (the workspace is serde-free), so these
//! strings are the compatibility contract for downstream tooling.

use std::collections::BTreeMap;

use dp_ndlog::{join_profile_json, RuleJoinProfile, Stats};
use dp_types::Sym;

#[test]
fn stats_json_golden() {
    let s = Stats {
        events: 1,
        base_inserts: 2,
        base_deletes: 3,
        derivations: 4,
        underivations: 5,
        join_probes: 6,
        join_scans: 7,
        trie_probes: 8,
        trie_scans: 9,
        join_candidates: 10,
        join_matches: 11,
        peak_tuples: 12,
        batches: 13,
        batched_deltas: 14,
        peak_interned: 15,
        ..Stats::default()
    };
    assert_eq!(
        s.to_json(),
        "{\"events\":1,\"base_inserts\":2,\"base_deletes\":3,\"derivations\":4,\
         \"underivations\":5,\"join_probes\":6,\"join_scans\":7,\"trie_probes\":8,\
         \"trie_scans\":9,\"join_candidates\":10,\"join_matches\":11,\"peak_tuples\":12,\
         \"batches\":13,\"batched_deltas\":14,\"peak_interned\":15}"
    );
    assert_eq!(
        Stats::default().to_json(),
        "{\"events\":0,\"base_inserts\":0,\"base_deletes\":0,\"derivations\":0,\
         \"underivations\":0,\"join_probes\":0,\"join_scans\":0,\"trie_probes\":0,\
         \"trie_scans\":0,\"join_candidates\":0,\"join_matches\":0,\"peak_tuples\":0,\
         \"batches\":0,\"batched_deltas\":0,\"peak_interned\":0}"
    );
}

#[test]
fn rule_join_profile_json_golden() {
    let p = RuleJoinProfile {
        attempts: 1,
        probes: 2,
        scans: 3,
        trie_probes: 4,
        trie_scans: 5,
        candidates: 6,
        matches: 7,
    };
    assert_eq!(
        p.to_json(),
        "{\"attempts\":1,\"probes\":2,\"scans\":3,\"trie_probes\":4,\
         \"trie_scans\":5,\"candidates\":6,\"matches\":7}"
    );
}

#[test]
fn join_profile_map_json_golden() {
    let mut profile: BTreeMap<Sym, RuleJoinProfile> = BTreeMap::new();
    profile.insert(
        Sym::from("fwd"),
        RuleJoinProfile {
            attempts: 2,
            candidates: 9,
            matches: 4,
            ..Default::default()
        },
    );
    profile.insert(
        Sym::from("acl"),
        RuleJoinProfile {
            attempts: 1,
            ..Default::default()
        },
    );
    // BTreeMap order: "acl" before "fwd"; rule names are JSON-escaped keys.
    assert_eq!(
        join_profile_json(&profile),
        "{\"acl\":{\"attempts\":1,\"probes\":0,\"scans\":0,\"trie_probes\":0,\
         \"trie_scans\":0,\"candidates\":0,\"matches\":0},\
         \"fwd\":{\"attempts\":2,\"probes\":0,\"scans\":0,\"trie_probes\":0,\
         \"trie_scans\":0,\"candidates\":9,\"matches\":4}}"
    );
    assert_eq!(join_profile_json(&BTreeMap::new()), "{}");
}
