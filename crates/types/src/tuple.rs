//! Tuples, node identities, the tuple interner and the hasher behind it.
//!
//! # The word hasher
//!
//! The interner and the engine's join indexes are the two hash tables on
//! the evaluator's hot path: every derived or emitted tuple is hashed
//! once to be interned, and every index probe hashes its key.
//! Their keys are a table name and a few machine-word fields, which
//! SipHash — `std`'s keyed, DoS-resistant default — digests a byte at a
//! time behind a per-process random seed. [`WordHasher`] folds one word
//! per step (rotate, xor, multiply) and carries two obligations:
//!
//! * **Deterministic.** No seed, no address, no process state goes in:
//!   two stores, two runs and two machines hash one tuple to one value,
//!   so nothing about a table's layout can differ between a run and its
//!   replay.
//! * **Never iterated for order.** It is not collision-resistant against
//!   an adversary and its tables' iteration order means nothing. A map
//!   built on it is probed by key (`get`, `insert`, `remove`) or folded
//!   order-insensitively (`len`); whatever must come out in a
//!   defined order is kept in a `BTreeMap`/`BTreeSet` beside it.

use std::collections::HashSet;
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::sync::Arc;

use crate::sym::Sym;
use crate::value::Value;

/// Identity of a node in the distributed system under diagnosis.
///
/// In the SDN scenarios these are switches and the controller (`S1`, `S2`,
/// `ctl`); in MapReduce they are workers and the job driver.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub Sym);

impl NodeId {
    /// Creates a node id from a name.
    pub fn new(name: impl AsRef<str>) -> Self {
        NodeId(Sym::new(name))
    }

    /// The node's name.
    pub fn as_str(&self) -> &str {
        self.0.as_str()
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

impl From<&str> for NodeId {
    fn from(s: &str) -> Self {
        NodeId::new(s)
    }
}

/// A row of a named table — the unit of state in the NDlog system model.
///
/// A tuple such as `flowEntry(5, 8, 1.2.3.4)` is represented as
/// `Tuple { table: "flowEntry", args: [Int(5), Int(8), Ip(1.2.3.4)] }`.
/// Tuples are location-free; the engine pairs them with a [`NodeId`] when
/// storing them, mirroring the paper's `@X` location specifier.
///
/// Hot paths pass tuples around as `Arc<Tuple>` (see [`TupleStore`]); a
/// plain `Tuple` is the mutable construction form.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tuple {
    /// The table this tuple belongs to.
    pub table: Sym,
    /// The field values, in schema order.
    pub args: Vec<Value>,
}

impl Tuple {
    /// Creates a tuple from a table name and field values.
    pub fn new(table: impl Into<Sym>, args: Vec<Value>) -> Self {
        Tuple {
            table: table.into(),
            args,
        }
    }

    /// The number of fields.
    pub fn arity(&self) -> usize {
        self.args.len()
    }

    /// Borrow a field by index, if present.
    pub fn get(&self, idx: usize) -> Option<&Value> {
        self.args.get(idx)
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.table)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{a}")?;
        }
        f.write_str(")")
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

// `Arc` is `#[fundamental]`, so these impls are legal here even though
// `Arc` itself is foreign. They let call sites compare and construct
// shared tuples without sprinkling explicit `Arc::new`/deref everywhere.
impl From<&Tuple> for Arc<Tuple> {
    fn from(t: &Tuple) -> Self {
        Arc::new(t.clone())
    }
}

impl PartialEq<Tuple> for Arc<Tuple> {
    fn eq(&self, other: &Tuple) -> bool {
        **self == *other
    }
}

impl PartialEq<Arc<Tuple>> for Tuple {
    fn eq(&self, other: &Arc<Tuple>) -> bool {
        *self == **other
    }
}

/// A seedless multiply-rotate hasher over machine words (see the module
/// docs for what it may and may not be used for).
///
/// Each word is folded as `h = (rotl(h, 5) ^ word) * K` with an odd `K`,
/// so two inputs differing in one word never collide; byte strings are
/// folded eight bytes at a time. `finish` rotates the well-mixed high
/// bits down to where a power-of-two table takes its bucket index from.
#[derive(Clone, Copy, Debug, Default)]
pub struct WordHasher {
    hash: u64,
}

/// [`WordHasher`] as a map's `BuildHasher`: stateless, so every map built
/// with it hashes alike.
pub type WordBuildHasher = BuildHasherDefault<WordHasher>;

impl WordHasher {
    const K: u64 = 0x517c_c1b7_2722_0a95;

    #[inline]
    fn word(&mut self, w: u64) {
        self.hash = (self.hash.rotate_left(5) ^ w).wrapping_mul(Self::K);
    }
}

impl Hasher for WordHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Eight bytes a word, the last one zero-padded.
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.word(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.word(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.word(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.word(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.word(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// An interner for derived tuples.
///
/// A rule head or a native's emission is built as a fresh `Tuple`;
/// interning makes each distinct one a single heap allocation shared by
/// reference count, so a packet's head forwarded across hops and a head
/// re-derived in a later episode are one copy in every table, derivation
/// record and provenance event that names them. Base tuples never come
/// here: they already live behind the log's `Arc`, which the engine holds
/// as it is, and no head can equal one (heads belong to `Derived` tables,
/// base operations to the others), so a lookup could only ever miss.
///
/// The set is hashed by [`WordHasher`] and only ever probed or counted —
/// never iterated for order.
#[derive(Clone, Debug, Default)]
pub struct TupleStore {
    set: HashSet<Arc<Tuple>, WordBuildHasher>,
}

impl TupleStore {
    /// An empty store.
    pub fn new() -> Self {
        TupleStore::default()
    }

    /// Returns the shared handle for `tuple`, allocating it on first sight.
    pub fn intern(&mut self, tuple: Tuple) -> Arc<Tuple> {
        if let Some(existing) = self.set.get(&tuple) {
            return Arc::clone(existing);
        }
        let arc = Arc::new(tuple);
        self.set.insert(Arc::clone(&arc));
        arc
    }

    /// The hash this store files `tuple` under. A function of the tuple
    /// alone: every store, in every process, returns the same value.
    pub fn hash_of(&self, tuple: &Tuple) -> u64 {
        self.set.hasher().hash_one(tuple)
    }

    /// Number of distinct tuples interned.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }
}

/// A tuple located at a node: the paper's `τ @ n`.
///
/// The tuple payload is shared (`Arc`) and the node is a [`Sym`], so
/// cloning a `TupleRef` is one reference-count bump rather than a deep
/// copy of the argument vector.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TupleRef {
    /// Where the tuple lives.
    pub node: NodeId,
    /// The tuple itself.
    pub tuple: Arc<Tuple>,
}

impl TupleRef {
    /// Pairs a tuple with its location. Accepts an owned `Tuple`, an
    /// `Arc<Tuple>`, or `&Tuple`.
    pub fn new(node: impl Into<NodeId>, tuple: impl Into<Arc<Tuple>>) -> Self {
        TupleRef {
            node: node.into(),
            tuple: tuple.into(),
        }
    }
}

impl fmt::Display for TupleRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.tuple, self.node)
    }
}

impl fmt::Debug for TupleRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Builds a [`Tuple`] tersely: `tuple!("flowEntry", 5, 8)`.
#[macro_export]
macro_rules! tuple {
    ($table:expr $(, $arg:expr)* $(,)?) => {
        $crate::Tuple::new($table, vec![$($crate::Value::from($arg)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefix::ip;

    #[test]
    fn display_matches_paper_notation() {
        let t = Tuple::new(
            "flowEntry",
            vec![Value::Int(5), Value::Int(8), Value::Ip(ip("1.2.3.4"))],
        );
        assert_eq!(t.to_string(), "flowEntry(5,8,1.2.3.4)");
        let r = TupleRef::new("S2", t);
        assert_eq!(r.to_string(), "flowEntry(5,8,1.2.3.4)@S2");
    }

    #[test]
    fn tuple_macro_converts_values() {
        let t = tuple!("cfg", 4, "reducers", true);
        assert_eq!(t.arity(), 3);
        assert_eq!(t.args[0], Value::Int(4));
        assert_eq!(t.args[1], Value::str("reducers"));
        assert_eq!(t.args[2], Value::Bool(true));
    }

    #[test]
    fn ordering_is_total_and_deterministic() {
        let a = tuple!("a", 1);
        let b = tuple!("a", 2);
        let c = tuple!("b", 0);
        let mut v = vec![c.clone(), b.clone(), a.clone()];
        v.sort();
        assert_eq!(v, vec![a, b, c]);
    }

    #[test]
    fn store_interns_to_one_allocation() {
        let mut store = TupleStore::new();
        let a = store.intern(tuple!("t", 1));
        let b = store.intern(tuple!("t", 1));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(store.len(), 1);
        let c = store.intern(tuple!("t", 2));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn two_stores_hash_one_tuple_equally() {
        // The property `RandomState` lacks: each `HashSet::new()` draws its
        // own keys, so two default-hashed stores disagree.
        let (a, mut b) = (TupleStore::new(), TupleStore::new());
        b.intern(tuple!("warm", 1));
        for t in [
            tuple!("t", 1),
            tuple!("flowEntry", 5, 8, Value::Ip(ip("1.2.3.4"))),
            tuple!("cfg", "reducers", true),
            tuple!("empty"),
        ] {
            assert_eq!(a.hash_of(&t), b.hash_of(&t), "{t}");
            let again = WordBuildHasher::default().hash_one(&t);
            assert_eq!(a.hash_of(&t), again, "{t}");
            // A resident tuple is filed under it.
            let interned = b.intern(t.clone());
            assert_eq!(b.hash_of(&interned), again, "{t}");
        }
        // Field order, arity and table all reach the hash.
        let h = |t: Tuple| a.hash_of(&t);
        assert_ne!(h(tuple!("t", 1, 2)), h(tuple!("t", 2, 1)));
        assert_ne!(h(tuple!("t", 1)), h(tuple!("t", 1, 0)));
        assert_ne!(h(tuple!("t", 1)), h(tuple!("u", 1)));
        assert_ne!(h(tuple!("t", Value::Int(1))), h(tuple!("t", Value::Time(1))));
    }

    #[test]
    fn word_hasher_folds_bytes_eight_at_a_time() {
        let hash = |bytes: &[u8]| {
            let mut h = WordHasher::default();
            h.write(bytes);
            h.finish()
        };
        // A tail shorter than a word still counts, and where it sits
        // matters.
        assert_ne!(hash(b"flowEntry"), hash(b"flowEntr"));
        assert_ne!(hash(b"12345678a"), hash(b"a12345678"));
        assert_eq!(hash(b"packetIn"), hash(b"packetIn"));
        // One word in, one word folded: `write_u64` and eight bytes agree.
        let mut h = WordHasher::default();
        h.write_u64(u64::from_le_bytes(*b"packetIn"));
        assert_eq!(h.finish(), hash(b"packetIn"));
    }

    #[test]
    fn arc_tuple_comparisons_smooth() {
        let t = tuple!("t", 1);
        let a: Arc<Tuple> = (&t).into();
        assert!(a == t);
        assert!(t == a);
    }
}
