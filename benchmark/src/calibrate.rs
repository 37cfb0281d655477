//! The machine-speed index.
//!
//! The sandbox shares its two CPUs and its memory system with other
//! tenants, and their load comes and goes in periods of tens of seconds
//! to minutes: the same binary on the same inputs reads 3.0 s in one run
//! and 4.4 s in the next. No statistic over the repetitions of one run
//! removes a slowdown that lasts the whole run. What does remove most of
//! it is to measure the machine's speed right beside each repetition,
//! with a fixed kernel that shares no code with the program, and to
//! report time at reference speed: wall time divided by the index.
//! On this sandbox that cut the spread of run medians from 20-29 % to
//! 2-9 % (see the README, "Noise").

use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats::median;

/// The kernel's time on a quiet moment of the 2-CPU sandbox this
/// benchmark was written on. It only fixes the unit — "seconds at
/// reference speed" — and cancels out of every comparison made on one
/// machine.
pub const KERNEL_REFERENCE_S: f64 = 0.09;

/// Kernel runs per calibration point.
const KERNELS_PER_POINT: usize = 3;

/// One kernel run, in seconds: ordered-map inserts with a small heap
/// allocation each, then range look-ups, then the drop — the allocator
/// and pointer-chasing mix the engine and the recorder live on, so what
/// slows them slows the kernel. Inputs come from a fixed LCG.
fn kernel() -> f64 {
    const N: usize = 150_000;
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    let mut next = || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x
    };
    let mut map: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for _ in 0..N {
        let v = next();
        map.entry(v >> 20).or_default().push(v);
    }
    let mut found = 0u64;
    for _ in 0..N {
        if let Some((_, values)) = map.range(next() >> 20..).next() {
            found += values.len() as u64;
        }
    }
    std::hint::black_box(found);
    drop(map);
    t.elapsed().as_secs_f64()
}

/// One calibration point: `KERNELS_PER_POINT` kernel times. A smoke run
/// tests the harness, not the machine: it skips the kernel and reads
/// reference speed.
pub fn point(smoke: bool) -> Vec<f64> {
    if smoke {
        return vec![KERNEL_REFERENCE_S];
    }
    (0..KERNELS_PER_POINT).map(|_| kernel()).collect()
}

/// The speed index over the calibration points on both sides of a
/// measurement: the median kernel time over the reference. 1 on a quiet
/// reference machine, above 1 when the machine is slowed.
pub fn index(before: &[f64], after: &[f64]) -> f64 {
    median(&[before, after].concat()) / KERNEL_REFERENCE_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_takes_measurable_time_and_repeats_its_work() {
        assert_eq!(point(true), [KERNEL_REFERENCE_S]);
        let point = point(false);
        assert_eq!(point.len(), KERNELS_PER_POINT);
        assert!(point.iter().all(|&s| s.is_finite() && s > 0.0), "{point:?}");
    }

    #[test]
    fn the_index_is_the_median_kernel_time_over_the_reference() {
        let r = KERNEL_REFERENCE_S;
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        assert!(close(index(&[r, r, r], &[r, r, r]), 1.0));
        // One burst on one side does not move a median of six.
        assert!(close(index(&[r, 5.0 * r, r], &[r, r, r]), 1.0));
        // A slow period on both sides does.
        assert!(close(index(&[1.5 * r; 3], &[1.5 * r; 3]), 1.5));
        // Time at reference speed: 4.5 s of wall at index 1.5 is 3 s.
        assert!(close(4.5 / index(&[1.5 * r; 3], &[1.5 * r; 3]), 3.0));
    }
}
