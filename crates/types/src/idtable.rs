//! An open-addressed table of `u32` ids, probed by a 64-bit hash.
//!
//! By default the table keeps ids alone — four bytes a slot — and the
//! caller keeps each id's key where it keeps the thing the id names, and
//! confirms a candidate by reading it there: a lookup reads a slot and
//! then the caller's own record, which it was about to read anyway, and
//! growing the table re-files ids by hashes the caller hands back from its
//! records (a stored hash, an integer key) without re-reading any content.
//! Where confirming would cost a read the caller does not otherwise make,
//! a slot keeps an exact key beside its id instead (`IdTable<u64>`), and a
//! probe reads slots alone.
//!
//! The slot of a hash is its Fibonacci product's high bits, and a
//! collision walks to the next slot (linear probing). Ids are only ever
//! added, so a walk that meets an empty slot has seen every id filed under
//! its hash. The table doubles before it is three quarters full: between
//! 1.3 and 2.7 slots an id, with no per-id block.
//!
//! Nothing here depends on an address, a seed or the order ids were added
//! in beyond the hashes themselves, and no caller iterates the slots: a
//! table answers "which id" and never "in what order".

/// "No id" in a slot.
const EMPTY: u32 = u32::MAX;

/// The fewest slots a table holds once it holds anything.
const MIN_SLOTS: usize = 8;

/// An open-addressed set of `u32` ids filed under 64-bit hashes (see the
/// module docs). Ids must be below `u32::MAX`.
///
/// A slot may keep a key `K` beside its id — `()`, the default, keeps
/// none — and a walk passes the caller's test only ids whose slot holds
/// the key it asked for: with an exact key (a clock, say) the test is
/// `|_| true` and a probe reads nothing but slots.
#[derive(Clone, Debug, Default)]
pub struct IdTable<K = ()> {
    /// A power-of-two many slots, each a key and an id, or [`EMPTY`];
    /// none until the first id is filed.
    slots: Vec<(K, u32)>,
    /// Ids filed.
    len: usize,
}

/// Where [`IdTable::entry`] ended its walk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Probe {
    /// The id the caller's test accepted.
    Found(u32),
    /// No filed id passed the test: the slot to [`IdTable::fill`] with a
    /// new one.
    Vacant(usize),
}

impl<K: Copy + PartialEq + Default> IdTable<K> {
    /// An empty table; it allocates when the first id is filed.
    pub fn new() -> Self {
        IdTable {
            slots: Vec::new(),
            len: 0,
        }
    }

    /// Heap bytes the slots take.
    pub fn bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<(K, u32)>()
    }

    /// The slot `hash` starts its walk at: the high bits of its Fibonacci
    /// product, so keys that differ only in low bits (consecutive clocks,
    /// consecutive ids) spread over the whole table.
    fn home(&self, hash: u64) -> usize {
        let bits = self.slots.len().trailing_zeros();
        (hash.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - bits)) as usize
    }

    /// The id filed under `hash` and `key` that `is` accepts, if any. `is`
    /// sees only ids filed under `key` whose hashes share `hash`'s walk,
    /// and must accept at most one.
    pub fn find(&self, hash: u64, key: K, mut is: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut at = self.home(hash);
        loop {
            match self.slots[at] {
                (_, EMPTY) => return None,
                (k, id) if k == key && is(id) => return Some(id),
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// [`IdTable::find`], and where a new id would go when nothing is
    /// found. It first makes room for one more id, re-filing every id
    /// under `hash_of(key, id)` if the table has to grow, so the slot it
    /// returns stays valid for one [`IdTable::fill`].
    pub fn entry(
        &mut self,
        hash: u64,
        key: K,
        mut is: impl FnMut(u32) -> bool,
        hash_of: impl Fn(K, u32) -> u64,
    ) -> Probe {
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow(hash_of);
        }
        let mask = self.slots.len() - 1;
        let mut at = self.home(hash);
        loop {
            match self.slots[at] {
                (_, EMPTY) => return Probe::Vacant(at),
                (k, id) if k == key && is(id) => return Probe::Found(id),
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// Files `id` under `key` in the slot a [`Probe::Vacant`] named.
    pub fn fill(&mut self, slot: usize, key: K, id: u32) {
        debug_assert!(id != EMPTY && self.slots[slot].1 == EMPTY);
        self.slots[slot] = (key, id);
        self.len += 1;
    }

    /// Doubles the slots (or makes the first ones) and re-files every id.
    fn grow(&mut self, hash_of: impl Fn(K, u32) -> u64) {
        let size = (self.slots.len() * 2).max(MIN_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![(K::default(), EMPTY); size]);
        let mask = size - 1;
        for (key, id) in old.into_iter().filter(|&(_, id)| id != EMPTY) {
            let mut at = self.home(hash_of(key, id));
            while self.slots[at].1 != EMPTY {
                at = (at + 1) & mask;
            }
            self.slots[at] = (key, id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Keys as a caller keeps them: by id, beside the table, each with the
    /// hash it is filed under.
    struct Keyed {
        table: IdTable,
        keys: Vec<(u64, u64)>,
    }

    impl Keyed {
        fn new() -> Self {
            Keyed {
                table: IdTable::new(),
                keys: Vec::new(),
            }
        }

        /// The id of `key`, filed under `hash`, added if new.
        fn intern(&mut self, hash: u64, key: u64) -> u32 {
            let keys = &self.keys;
            let is = |id: u32| keys[id as usize].1 == key;
            match self.table.entry(hash, (), is, |(), id| keys[id as usize].0) {
                Probe::Found(id) => id,
                Probe::Vacant(slot) => {
                    let id = self.keys.len() as u32;
                    self.keys.push((hash, key));
                    self.table.fill(slot, (), id);
                    id
                }
            }
        }

        fn find(&self, hash: u64, key: u64) -> Option<u32> {
            self.table
                .find(hash, (), |id| self.keys[id as usize].1 == key)
        }
    }

    #[test]
    fn ids_are_found_by_their_keys_through_every_growth() {
        let mut k = Keyed::new();
        assert_eq!(k.find(5, 5), None);
        for key in (0..5_000u64).map(|i| i * 7 + 3) {
            assert_eq!(k.intern(key, key), (key / 7) as u32);
        }
        assert_eq!(k.keys.len(), 5_000);
        for key in (0..5_000u64).map(|i| i * 7 + 3) {
            assert_eq!(k.find(key, key), Some((key / 7) as u32));
            assert_eq!(
                k.intern(key, key),
                (key / 7) as u32,
                "found, not added again"
            );
            assert_eq!(k.find(key + 1, key + 1), None);
        }
        assert_eq!(k.keys.len(), 5_000);
        // Doubling before three quarters: 8 192 slots for 5 000 ids.
        assert_eq!(k.table.bytes(), 8_192 * 4);
    }

    /// Keys that share one hash walk past each other to distinct slots,
    /// and each is found by the caller's test, before and after growth.
    #[test]
    fn keys_sharing_a_hash_stay_apart() {
        let mut k = Keyed::new();
        let ids: Vec<u32> = (0..40).map(|key| k.intern(42, key)).collect();
        assert_eq!(ids, (0..40).collect::<Vec<u32>>());
        for key in 0..40 {
            assert_eq!(k.find(42, key), Some(key as u32));
        }
        assert_eq!(k.find(42, 40), None);
        assert_eq!(k.find(43, 0), None);
    }

    /// Sparse integer keys — the shape of a recording's clocks around a
    /// fence far in the future — kept in their slots: a probe is exact,
    /// growing re-reads nothing, and the table costs the keys' count, not
    /// their range.
    #[test]
    fn sparse_keys_in_their_slots_cost_their_count() {
        let mut table: IdTable<u64> = IdTable::new();
        let keys = [1u64, 1 << 40, (1 << 40) + 5, u64::MAX];
        for (id, &key) in keys.iter().enumerate() {
            let Probe::Vacant(slot) = table.entry(key, key, |_| true, |key, _| key) else {
                panic!("{key} filed twice");
            };
            table.fill(slot, key, id as u32);
        }
        for (id, &key) in keys.iter().enumerate() {
            assert_eq!(table.find(key, key, |_| true), Some(id as u32));
        }
        assert_eq!(table.find(2, 2, |_| true), None);
        assert_eq!(table.bytes(), MIN_SLOTS * 16);
    }
}
