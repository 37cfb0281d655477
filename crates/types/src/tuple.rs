//! Tuples, node identities and the hasher behind the engine's tables.
//!
//! # The word hasher
//!
//! The engine's head interner and its join indexes are the two hash tables
//! on the evaluator's hot path: every derived or emitted tuple is hashed
//! once, when it is delivered, and every index probe hashes its key.
//! Their keys are a table name and a few machine-word fields, which
//! SipHash — `std`'s keyed, DoS-resistant default — digests a byte at a
//! time behind a per-process random seed. [`WordHasher`] folds one word
//! per step (rotate, xor, multiply) and carries two obligations:
//!
//! * **Deterministic.** No seed, no address, no process state goes in:
//!   two tables, two runs and two machines hash one tuple to one value,
//!   so nothing about a table's layout can differ between a run and its
//!   replay.
//! * **Never iterated for order.** It is not collision-resistant against
//!   an adversary and its tables' iteration order means nothing. A map
//!   built on it is probed by key (`get`, `insert`, `remove`) or folded
//!   order-insensitively (`len`); whatever must come out in a
//!   defined order is kept in a `BTreeMap`/`BTreeSet` beside it.

use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
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
/// Hot paths pass tuples around as `Arc<Tuple>` — a logged event's own, or
/// the engine's one per distinct derived head; a plain `Tuple` is the
/// mutable construction form.
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
    use std::hash::{BuildHasher, Hash};

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
    fn one_tuple_hashes_alike_everywhere() {
        // The property `RandomState` lacks: each `HashMap::new()` draws its
        // own keys, so two default-hashed maps disagree.
        let h = |t: &Tuple| WordBuildHasher::default().hash_one(t);
        for t in [
            tuple!("t", 1),
            tuple!("flowEntry", 5, 8, Value::Ip(ip("1.2.3.4"))),
            tuple!("cfg", "reducers", true),
            tuple!("empty"),
        ] {
            let mut hasher = WordHasher::default();
            t.hash(&mut hasher);
            assert_eq!(h(&t), hasher.finish(), "{t}");
            assert_eq!(h(&t), h(&t.clone()), "{t}");
        }
        // Field order, arity and table all reach the hash.
        assert_ne!(h(&tuple!("t", 1, 2)), h(&tuple!("t", 2, 1)));
        assert_ne!(h(&tuple!("t", 1)), h(&tuple!("t", 1, 0)));
        assert_ne!(h(&tuple!("t", 1)), h(&tuple!("u", 1)));
        assert_ne!(
            h(&tuple!("t", Value::Int(1))),
            h(&tuple!("t", Value::Time(1)))
        );
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
