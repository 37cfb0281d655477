//! Property tests for the HyperLogLog sketch: accuracy bounds, merge
//! laws, and pinned vectors.
//!
//! The theoretical standard error of a 1024-register HLL is
//! `1.04 / sqrt(1024)` ≈ 3.25%; below ~2.5·m the estimator switches to
//! linear counting, which is far tighter. The accuracy tests assert a
//! conservative multiple of those bounds per seeded draw, plus a tighter
//! bound on the mean absolute error across seeds — a sketch that drifted
//! (bad alpha, wrong rho, biased hash use) fails these long before a
//! human would notice a wrong gauge.

use dp_trace::hll::{self, HllCell};
use dp_trace::{HLL_PRECISION, HLL_REGISTERS};
use dp_types::DetRng;

/// Sketches `n` distinct items drawn from a seeded stream. Items are
/// `u64`s spread by SplitMix64, so collisions among draws are
/// negligible (~n²/2⁶⁴) and `n` is the true cardinality.
fn sketch_of(seed: u64, n: u64) -> HllCell {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut cell = HllCell::new();
    for _ in 0..n {
        cell.observe_u64(rng.next_u64());
    }
    cell
}

fn rel_error(estimate: f64, truth: u64) -> f64 {
    (estimate - truth as f64).abs() / truth as f64
}

/// Relative-error bound check at one cardinality across several seeds.
fn assert_accuracy(n: u64, seeds: &[u64], per_seed_bound: f64, mean_bound: f64) {
    let mut total = 0.0;
    for &seed in seeds {
        let err = rel_error(sketch_of(seed, n).estimate(), n);
        assert!(
            err <= per_seed_bound,
            "seed {seed}: estimate off by {:.2}% at n={n} (bound {:.2}%)",
            err * 100.0,
            per_seed_bound * 100.0
        );
        total += err;
    }
    let mean = total / seeds.len() as f64;
    assert!(
        mean <= mean_bound,
        "mean error {:.2}% at n={n} exceeds {:.2}%",
        mean * 100.0,
        mean_bound * 100.0
    );
}

#[test]
fn accuracy_at_1e2() {
    // n = 100 « 2.5·m = 2560: the linear-counting regime, which is
    // nearly exact — only a handful of register collisions occur.
    assert_accuracy(100, &[1, 2, 3, 4, 5, 6, 7, 8], 0.05, 0.03);
}

#[test]
fn accuracy_at_1e4() {
    // Past the linear-counting handoff: the raw HLL estimator with its
    // ~3.25% standard error. 10% per seed is three standard errors.
    assert_accuracy(10_000, &[1, 2, 3, 4, 5, 6, 7, 8], 0.10, 0.04);
}

#[test]
fn accuracy_at_1e6() {
    // Deep in the asymptotic regime; same error model.
    assert_accuracy(1_000_000, &[1, 2, 3, 4], 0.10, 0.05);
}

#[test]
fn merge_is_associative() {
    let a = sketch_of(11, 5_000).registers();
    let b = sketch_of(22, 5_000).registers();
    let c = sketch_of(33, 5_000).registers();
    let ab_c = hll::merged(&hll::merged(&a, &b), &c);
    let a_bc = hll::merged(&a, &hll::merged(&b, &c));
    assert_eq!(ab_c, a_bc);
    // Commutativity and idempotence ride along for free with max-merge.
    assert_eq!(hll::merged(&a, &b), hll::merged(&b, &a));
    assert_eq!(hll::merged(&a, &a), a);
}

#[test]
fn merge_equals_union() {
    // sketch(A) ∪ sketch(B) must equal sketch(A ∪ B) register-for-
    // register: both sides see the same per-item (index, rho) pairs and
    // max over them.
    let mut rng = DetRng::seed_from_u64(77);
    let items_a: Vec<u64> = (0..4_000).map(|_| rng.next_u64()).collect();
    let items_b: Vec<u64> = (0..4_000).map(|_| rng.next_u64()).collect();

    let mut sa = HllCell::new();
    for &v in &items_a {
        sa.observe_u64(v);
    }
    let mut sb = HllCell::new();
    // Half of B's stream overlaps A, so the union is smaller than the sum.
    for &v in items_b.iter().chain(items_a.iter().take(2_000)) {
        sb.observe_u64(v);
    }

    let mut union = HllCell::new();
    for &v in items_a.iter().chain(items_b.iter()) {
        union.observe_u64(v);
    }

    let merged = hll::merged(&sa.registers(), &sb.registers());
    assert_eq!(merged, union.registers());

    // And the merged estimate tracks the true union cardinality (8000),
    // not the 10000 observations fed in total.
    let est = hll::estimate(&merged);
    assert!(
        rel_error(est, 8_000) < 0.10,
        "union estimate {est} far from 8000"
    );
}

/// Pinned vectors: the sketch is part of the observable surface (it is
/// exposed on `/metrics` and merged across runs), so its exact
/// behavior for a known input stream is pinned — a change to the hash,
/// the precision, or the rho computation must show up here, not as a
/// silent accuracy drift.
#[test]
fn pinned_vectors() {
    assert_eq!(HLL_PRECISION, 10);
    assert_eq!(HLL_REGISTERS, 1024);

    // Single known item: exactly one register set, at a pinned position.
    let mut one = HllCell::new();
    one.observe_u64(0);
    let regs = one.registers();
    let set: Vec<(usize, u8)> = regs
        .iter()
        .enumerate()
        .filter(|(_, &r)| r != 0)
        .map(|(i, &r)| (i, r))
        .collect();
    assert_eq!(set, vec![(675, 4)], "fnv64(0u64 le bytes) placement moved");

    // A seeded thousand-item stream: pin the register checksum and the
    // rounded estimate.
    let s = sketch_of(42, 1_000);
    let regs = s.registers();
    let checksum = dp_types::codec::fnv64(&regs);
    assert_eq!(checksum, 0xc3dc_e6d5_431b_dcfd, "register contents moved");
    assert_eq!(s.estimate().round() as u64, 955, "estimate moved");
}
