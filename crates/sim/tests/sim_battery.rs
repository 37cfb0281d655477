//! The default-on battery run: a pinned block of seeds swept through the
//! full invariant battery, plus structural tests of the generator and
//! the shrinking machinery. `repro -- sim --seeds N` is the form that
//! scales (`scripts/check.sh` sweeps 200).

use dp_sim::{check_scenario, generate, generate_masked, run_seeds, Injection};

/// How many seeds the pinned block covers.
const SEEDS: u64 = 32;

/// The pinned seed block passes the whole battery, and the sweep is not
/// vacuous: every injection kind occurs, packets diverge, every divergent
/// packet is diagnosed, and DiffProv actually aligns some of them.
#[test]
fn pinned_seed_block_passes_the_battery() {
    let summary = run_seeds(0, SEEDS, None, |_, _| {}).unwrap();
    assert!(
        summary.passed(),
        "battery violations:\n{}",
        summary
            .violations
            .iter()
            .map(|(seed, v)| format!("seed {seed}: {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
    for kind in [
        "rule-withdraw",
        "rule-restore",
        "delayed-install",
        "reorder-installs",
        "dup-packet",
        "node-restart",
        "race-install",
    ] {
        assert!(
            summary.kind_counts.get(kind).copied().unwrap_or(0) > 0,
            "kind {kind} never applied across {} seeds: {:?}",
            summary.seeds,
            summary.kind_counts
        );
    }
    // Several injection kinds (reorders, duplicates, restarts) are benign
    // by construction, so not every scenario diverges — but at least a
    // quarter must, or the generator has gone tame.
    assert!(
        summary.divergent * 4 >= summary.seeds as usize,
        "only {} of {} scenarios diverged — the generator is too tame",
        summary.divergent,
        summary.seeds
    );
    // Every divergent packet reaches DiffProv: a misdelivery at its bad
    // delivery, a packet the faulty run never delivers at its last hop.
    assert_eq!(
        summary.diagnosed, summary.divergent,
        "a divergent packet never reached DiffProv"
    );
    assert!(
        summary.diagnosis_succeeded > 0,
        "DiffProv never aligned a generated divergence"
    );
}

/// One seed, generated twice, is identical down to the event logs — the
/// reproducibility contract corpus files depend on.
#[test]
fn same_seed_regenerates_the_same_scenario() {
    for seed in [0u64, 7, 19] {
        let a = generate(seed).unwrap();
        let b = generate(seed).unwrap();
        assert_eq!(a.injections, b.injections, "seed {seed}");
        assert_eq!(a.applied, b.applied, "seed {seed}");
        assert_eq!(a.packets, b.packets, "seed {seed}");
        assert_eq!(a.good.log.events(), b.good.log.events(), "seed {seed}");
        assert_eq!(a.bad.log.events(), b.bad.log.events(), "seed {seed}");
    }
}

/// Masking injections away never perturbs the topology, the workload, or
/// the drawn schedule — only which injections are lowered. This is the
/// property that makes ddmin shrinking sound.
#[test]
fn masked_generation_keeps_topology_and_workload_fixed() {
    for seed in 0u64..16 {
        let full = generate(seed).unwrap();
        let empty = generate_masked(seed, Some(&[])).unwrap();
        assert_eq!(full.injections, empty.injections, "seed {seed}");
        assert_eq!(full.packets, empty.packets, "seed {seed}");
        assert!(empty.applied.is_empty(), "seed {seed}");
        // With nothing applied, good and bad logs coincide.
        assert_eq!(
            empty.good.log.events(),
            empty.bad.log.events(),
            "seed {seed}"
        );
        // And the masked good log equals the full good log minus the
        // race-winner churn (the only good-side injection effect).
        let race_applied = full
            .applied
            .iter()
            .any(|&i| matches!(full.injections[i], Injection::RaceInstall { .. }));
        if !race_applied {
            assert_eq!(
                full.good.log.events(),
                empty.good.log.events(),
                "seed {seed}"
            );
        }
    }
}

/// An injection-free scenario is benign end to end: no divergence, no
/// violations.
#[test]
fn empty_schedule_is_benign() {
    for seed in [3u64, 11] {
        let sc = generate_masked(seed, Some(&[])).unwrap();
        let report = check_scenario(&sc);
        assert!(report.passed(), "seed {seed}: {:?}", report.violations);
        assert!(!report.divergent, "seed {seed} diverged with no faults");
    }
}

/// The sweep driver aggregates per-seed reports consistently.
#[test]
fn run_seeds_aggregates_counters() {
    let mut seen = Vec::new();
    let summary = run_seeds(0, 4, None, |seed, report| {
        seen.push((seed, report.divergent));
    })
    .unwrap();
    assert_eq!(seen.len(), 4);
    assert_eq!(summary.seeds, 4);
    assert_eq!(
        summary.divergent,
        seen.iter().filter(|(_, d)| *d).count()
    );
    let applied: usize = (0..4).map(|s| generate(s).unwrap().applied.len()).sum();
    assert_eq!(summary.kind_counts.values().sum::<usize>(), applied);
}
