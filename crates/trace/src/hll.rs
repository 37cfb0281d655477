//! HyperLogLog distinct-count sketches.
//!
//! A replay pushes hundreds of thousands of tuples through the engine;
//! counting how many of them are *distinct* exactly would mean keeping a
//! set as large as the data. HyperLogLog (Flajolet et al., 2007) answers
//! the same question in [`HLL_REGISTERS`] bytes with a known accuracy: the
//! standard error of the estimate is `1.04 / sqrt(m)` — about **3.25%**
//! at the `m = 1024` registers used here — independent of the true
//! cardinality. The property tests (`tests/hll_properties.rs`) pin that
//! bound at 1e2, 1e4, and 1e6 distinct items.
//!
//! # How it works
//!
//! Each item is hashed to 64 uniform bits (FNV-1a over canonical bytes —
//! the same [`dp_types::codec::fnv64`] the store checksums use, so no
//! new hash primitive enters the stack). The top [`HLL_PRECISION`] bits
//! pick one of `m` registers; the register keeps the maximum over items of
//! `rho` = (position of the first set bit in the remaining 54 bits). A
//! register value of `k` is evidence of roughly `2^k` distinct items
//! having landed there; the harmonic mean across registers — with the
//! standard small-range linear-counting correction — gives the estimate.
//!
//! # Merging
//!
//! A sketch is plain memory: whoever observes owns it (the engine keeps
//! its flow sketch beside its counters and hands the registers to the
//! tracer at quiescence). The register state is independent of
//! observation order — max is commutative and associative — and for the
//! same reason merging two sketches (element-wise register max) is
//! *exactly* the sketch of the union of their item sets: `sketch(A) ∪
//! sketch(B) = sketch(A ∪ B)`, associatively. The property suite pins
//! both laws.

use dp_types::codec::fnv64;

/// Number of index bits: registers = `2^HLL_PRECISION`.
pub const HLL_PRECISION: u32 = 10;

/// Number of registers per sketch (1024 → ~3.25% standard error).
pub const HLL_REGISTERS: usize = 1 << HLL_PRECISION;

/// A HyperLogLog sketch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HllCell {
    registers: Vec<u8>,
}

impl Default for HllCell {
    fn default() -> Self {
        Self::new()
    }
}

impl HllCell {
    /// An empty sketch.
    pub fn new() -> Self {
        HllCell {
            registers: vec![0; HLL_REGISTERS],
        }
    }

    /// Observes an item by its (uniform) 64-bit hash.
    pub fn observe_hash(&mut self, h: u64) {
        let idx = (h >> (64 - HLL_PRECISION)) as usize;
        let rest = h << HLL_PRECISION;
        // rho: 1-based position of the first set bit among the remaining
        // 64 - P bits; an all-zero remainder saturates at its maximum.
        let rho = (rest.leading_zeros() + 1).min(64 - HLL_PRECISION + 1) as u8;
        self.registers[idx] = self.registers[idx].max(rho);
    }

    /// Observes a byte-string item.
    pub fn observe_bytes(&mut self, bytes: &[u8]) {
        self.observe_hash(fnv64(bytes));
    }

    /// Observes a `u64` item (hashed over its little-endian bytes).
    pub fn observe_u64(&mut self, v: u64) {
        self.observe_hash(fnv64(&v.to_le_bytes()));
    }

    /// A copy of the raw registers.
    pub fn registers(&self) -> Vec<u8> {
        self.registers.clone()
    }

    /// Folds another sketch in (element-wise max = set union).
    pub fn merge(&mut self, other: &HllCell) {
        for (mine, theirs) in self.registers.iter_mut().zip(&other.registers) {
            *mine = (*mine).max(*theirs);
        }
    }

    /// The current cardinality estimate.
    pub fn estimate(&self) -> f64 {
        estimate(&self.registers)
    }
}

/// The HyperLogLog estimator over a register array: bias-corrected
/// harmonic mean, with the linear-counting fallback in the small range
/// (raw estimate ≤ 2.5·m with empty registers remaining), where linear
/// counting is the more accurate estimator.
pub fn estimate(registers: &[u8]) -> f64 {
    let m = registers.len() as f64;
    if m == 0.0 {
        return 0.0;
    }
    let alpha = match registers.len() {
        16 => 0.673,
        32 => 0.697,
        64 => 0.709,
        _ => 0.7213 / (1.0 + 1.079 / m),
    };
    let sum: f64 = registers.iter().map(|&r| 2f64.powi(-i32::from(r))).sum();
    let raw = alpha * m * m / sum;
    let zeros = registers.iter().filter(|&&r| r == 0).count();
    if raw <= 2.5 * m && zeros > 0 {
        m * (m / zeros as f64).ln()
    } else {
        raw
    }
}

/// Merges two register arrays into a fresh one (element-wise max).
pub fn merged(a: &[u8], b: &[u8]) -> Vec<u8> {
    a.iter().zip(b).map(|(&x, &y)| x.max(y)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sketch_estimates_zero() {
        let s = HllCell::new();
        assert_eq!(s.estimate(), 0.0);
    }

    #[test]
    fn duplicates_do_not_inflate() {
        let mut s = HllCell::new();
        for _ in 0..10_000 {
            s.observe_u64(42);
        }
        let est = s.estimate();
        assert!((0.5..=2.0).contains(&est), "single item estimated {est}");
    }

    #[test]
    fn observe_is_idempotent_on_registers() {
        let mut a = HllCell::new();
        let mut b = HllCell::new();
        for v in 0..100u64 {
            a.observe_u64(v);
            b.observe_u64(v);
            b.observe_u64(v);
        }
        assert_eq!(a.registers(), b.registers());
    }
}
