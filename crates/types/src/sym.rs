//! Names, interned once per process.
//!
//! Every table name, rule name, node name and string-typed tuple field is
//! a [`Sym`]: one word pointing at the one copy of its text that the
//! process keeps. Copying, comparing and hashing a name therefore touches
//! no reference count and takes no lock; only making a name from text
//! ([`Sym::new`] and the `From` impls) looks it up in the global interner,
//! under a mutex, and files it there the first time.
//!
//! # Determinism
//!
//! The interner's addresses depend on the order names are first made, so
//! nothing may read them but equality. Equality is the pointer, which is
//! exact: each content has exactly one symbol. Order and hash are by
//! content, exactly as for `str` — every B-tree order, every
//! [`crate::WordHasher`] table, every digest, codec byte and rendering is
//! the one a `String` would give, in any run and any thread schedule.
//!
//! # Memory
//!
//! A name is never freed: the interner holds each distinct name until
//! the process exits, at its length plus a 16-byte handle and a 16-byte
//! map slot. Memory grows with the number of *distinct* names only, not
//! with how many tuples carry them: a 200-seed simulation sweep leaves 71
//! names, and building and diagnosing the campus network 94, whatever its
//! table sizes.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Mutex, PoisonError};

use crate::tuple::WordBuildHasher;

/// Every name made so far, by content, to its one handle. Seedless, as
/// the tuple interner is: a `const` map cannot draw `RandomState`'s keys,
/// and the names come from the programs, logs and stores the process was
/// handed, the same trust as the tuples [`crate::WordHasher`] hashes.
static INTERNER: Mutex<HashMap<&'static str, &'static &'static str, WordBuildHasher>> =
    Mutex::new(HashMap::with_hasher(WordBuildHasher::new()));

/// An immutable name, one word wide and `Copy` (see the module docs).
///
/// `Sym` is used for table names, rule names, node names, and string-typed
/// tuple fields. Two symbols are equal exactly when they are the same
/// pointer; they order and hash by their text.
#[derive(Clone, Copy)]
pub struct Sym(&'static &'static str);

impl Sym {
    /// Creates a symbol from anything string-like.
    pub fn new(s: impl AsRef<str>) -> Self {
        Sym::intern(s.as_ref())
    }

    /// The one symbol of `s`'s text, filed on first sight. `s` becomes
    /// the kept copy only then.
    fn intern<S: AsRef<str> + Into<Box<str>>>(s: S) -> Self {
        // The lock is held over one lookup and one insert, neither of
        // which leaves the map half-written if it unwinds, so a poisoned
        // lock still guards a whole map.
        let mut table = INTERNER.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(&word) = table.get(s.as_ref()) {
            return Sym(word);
        }
        let text: &'static str = Box::leak(s.into());
        let word: &'static &'static str = Box::leak(Box::new(text));
        table.insert(*word, word);
        Sym(word)
    }

    /// Returns the underlying string slice.
    pub fn as_str(&self) -> &'static str {
        self.0
    }
}

impl PartialEq for Sym {
    fn eq(&self, other: &Sym) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for Sym {}

impl PartialOrd for Sym {
    fn partial_cmp(&self, other: &Sym) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Sym {
    fn cmp(&self, other: &Sym) -> Ordering {
        if self == other {
            return Ordering::Equal;
        }
        self.0.cmp(other.0)
    }
}

impl Hash for Sym {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state)
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.0)
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Self {
        Sym::intern(s)
    }
}

impl From<String> for Sym {
    fn from(s: String) -> Self {
        Sym::intern(s)
    }
}

impl Borrow<str> for Sym {
    fn borrow(&self) -> &str {
        self.0
    }
}

impl AsRef<str> for Sym {
    fn as_ref(&self) -> &str {
        self.0
    }
}

impl PartialEq<str> for Sym {
    fn eq(&self, other: &str) -> bool {
        *self.0 == other
    }
}

impl PartialEq<&str> for Sym {
    fn eq(&self, other: &&str) -> bool {
        *self.0 == *other
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::RandomState;
    use std::collections::BTreeSet;
    use std::hash::BuildHasher;

    #[test]
    fn equal_content_is_one_symbol() {
        let a = Sym::new("flowEntry");
        let b = Sym::from(String::from("flowEntry"));
        // Text read out of a byte buffer, as a layer's dictionary is.
        let bytes = b"flowEntry".to_vec();
        let c = Sym::new(std::str::from_utf8(&bytes).unwrap());
        for s in [b, c] {
            assert_eq!(a, s);
            assert_eq!(a.as_str().as_ptr(), s.as_str().as_ptr());
        }
        assert_eq!(a, "flowEntry");
        assert_ne!(a, Sym::new("flowEntr"));
    }

    #[test]
    fn ordering_is_by_content_not_interning_order() {
        let (zz, aa) = (Sym::new("zz"), Sym::new("aa"));
        assert!(aa < zz);
        let mut set = BTreeSet::new();
        set.insert(Sym::new("b"));
        set.insert(zz);
        set.insert(Sym::new("a"));
        set.insert(aa);
        let names: Vec<_> = set.iter().map(Sym::as_str).collect();
        assert_eq!(names, ["a", "aa", "b", "zz"]);
    }

    #[test]
    fn hash_is_the_strings() {
        for name in ["", "S2", "packetIn", "a name longer than one word"] {
            let s = Sym::new(name);
            assert_eq!(
                WordBuildHasher::new().hash_one(s),
                WordBuildHasher::new().hash_one(name)
            );
            let random = RandomState::new();
            assert_eq!(random.hash_one(s), random.hash_one(name));
        }
    }

    #[test]
    fn threads_intern_one_symbol_per_name() {
        let names: Vec<String> = (0..64).map(|i| format!("threaded{i}")).collect();
        let per_thread: Vec<Vec<Sym>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|t| {
                    let names = &names;
                    // Each thread makes the names in its own order.
                    scope.spawn(move || {
                        let mut syms: Vec<Sym> = names
                            .iter()
                            .cycle()
                            .skip(t * 16)
                            .take(64)
                            .map(Sym::new)
                            .collect();
                        syms.sort();
                        syms
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("no panic"))
                .collect()
        });
        for syms in &per_thread[1..] {
            assert!(syms
                .iter()
                .zip(&per_thread[0])
                .all(|(a, b)| a == b && a.as_str().as_ptr() == b.as_str().as_ptr()));
        }
    }

    #[test]
    fn a_name_is_one_word() {
        use std::mem::size_of;
        assert_eq!(size_of::<Sym>(), 8);
        assert_eq!(size_of::<crate::Value>(), 16);
        assert_eq!(size_of::<crate::TupleRef>(), 16);
    }

    #[test]
    fn borrow_allows_str_lookup() {
        let mut set = BTreeSet::new();
        set.insert(Sym::new("packetIn"));
        assert!(set.contains("packetIn"));
        assert!(!set.contains("packetOut"));
    }

    #[test]
    fn display_and_debug() {
        let s = Sym::new("S2");
        assert_eq!(s.to_string(), "S2");
        assert_eq!(format!("{s:?}"), "\"S2\"");
    }
}
