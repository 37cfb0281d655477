//! Cheap, cloneable names.

use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

/// An immutable, cheaply cloneable name.
///
/// `Sym` is used for table names, rule names, node names, and string-typed
/// tuple fields. It wraps an `Arc<str>`, so cloning is a reference-count
/// bump. Comparison and hashing are by string content, which keeps every
/// ordering in the workspace deterministic across runs (no global interner
/// whose ids could depend on initialization order).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(Arc<str>);

impl Sym {
    /// Creates a symbol from anything string-like.
    pub fn new(s: impl AsRef<str>) -> Self {
        Sym(Arc::from(s.as_ref()))
    }

    /// Returns the underlying string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// True when both symbols share one allocation — a one-word test that,
    /// when it holds, spares the content compare (equal content does not
    /// imply it: two `Sym::new("x")` are equal and distinct).
    pub fn ptr_eq(&self, other: &Sym) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", &*self.0)
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Self {
        Sym::new(s)
    }
}

impl From<String> for Sym {
    fn from(s: String) -> Self {
        Sym(Arc::from(s))
    }
}

impl Borrow<str> for Sym {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for Sym {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl PartialEq<str> for Sym {
    fn eq(&self, other: &str) -> bool {
        &*self.0 == other
    }
}

impl PartialEq<&str> for Sym {
    fn eq(&self, other: &&str) -> bool {
        &*self.0 == *other
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn equality_is_by_content() {
        let a = Sym::new("flowEntry");
        let b = Sym::new(String::from("flowEntry"));
        assert_eq!(a, b);
        assert_eq!(a, "flowEntry");
    }

    #[test]
    fn ptr_eq_is_by_allocation() {
        let a = Sym::new("flowEntry");
        let b = Sym::new("flowEntry");
        assert!(a.ptr_eq(&a.clone()));
        assert!(!a.ptr_eq(&b));
        assert_eq!(a, b);
    }

    #[test]
    fn ordering_is_by_string() {
        let mut set = BTreeSet::new();
        set.insert(Sym::new("b"));
        set.insert(Sym::new("a"));
        set.insert(Sym::new("c"));
        let names: Vec<_> = set.iter().map(Sym::as_str).collect();
        assert_eq!(names, ["a", "b", "c"]);
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
