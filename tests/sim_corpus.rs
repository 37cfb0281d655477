//! Replays the checked-in simulation corpus (`tests/corpus/*.case`).
//!
//! Every case regenerates its scenario from the pinned seed and
//! injection mask and runs the full dp-sim invariant battery on it.
//! Pinned cases keep each injection kind exercised on ordinary
//! `cargo test`; auto-shrunk repro cases keep fixed bugs fixed.

use std::collections::BTreeSet;
use std::path::Path;

use diffprov::sim::{generate_masked, load_corpus};

fn corpus_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

#[test]
fn corpus_cases_pass_the_battery() {
    let corpus = load_corpus(&corpus_dir()).expect("corpus loads");
    assert!(!corpus.is_empty(), "checked-in corpus is missing");
    for (path, case) in &corpus {
        let report = case.replay().expect("the case regenerates");
        assert!(
            report.passed(),
            "{}: seed {} violated:\n{}",
            path.display(),
            case.seed,
            report
                .violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

#[test]
fn corpus_covers_every_injection_kind() {
    let corpus = load_corpus(&corpus_dir()).expect("corpus loads");
    let mut kinds = BTreeSet::new();
    let mut divergent = 0usize;
    for (_, case) in &corpus {
        let sc = generate_masked(case.seed, case.keep.as_deref()).expect("the case regenerates");
        kinds.extend(sc.applied_kinds());
        divergent += usize::from(case.replay().expect("the case regenerates").divergent);
    }
    for kind in [
        "rule-withdraw",
        "rule-restore",
        "delayed-install",
        "reorder-installs",
        "dup-packet",
        "node-restart",
        "race-install",
    ] {
        assert!(kinds.contains(kind), "no corpus case applies {kind}");
    }
    assert!(divergent > 0, "no corpus case produces a divergent run");
}
