//! A path-compressed binary trie over IPv4 prefixes.
//!
//! This is the access-path structure behind the NDlog engine's
//! `prefix_contains(Match, Addr)` constraint: instead of scanning every
//! tuple of a table and testing containment per row, the engine keeps one
//! [`PrefixTrie`] per `(node, table, prefix column)` and walks it
//! root-to-leaf for the bound address. Only the O(32) stored prefixes that
//! *contain* the address lie on that path, so a longest-prefix-match
//! workload (the paper's SDN flow tables) probes in time proportional to
//! the address width, not the table size.
//!
//! Design constraints inherited from the engine:
//!
//! * **Determinism.** The values under one prefix are kept in ascending
//!   order, and [`PrefixTrie::matches`] yields buckets shortest-prefix-
//!   first, so iteration order is a pure function of the contents.
//! * **Incremental maintenance.** Flow entries are mutable base tuples:
//!   [`PrefixTrie::insert`] and [`PrefixTrie::remove`] keep the trie
//!   path-compressed in both directions (splitting on insert, pruning and
//!   merging on remove), so a delete followed by a re-insert restores the
//!   identical structure.
//! * **A few blocks, whatever the size.** Nodes and values live in two
//!   arenas, linked by `u32` indices: a node's children are node indices,
//!   its bucket is a sorted list threaded through the value arena, and
//!   what a removal frees goes on a free list the next insertion takes
//!   from, last freed first. A trie of any size is two vectors, so
//!   dropping it frees two blocks, and a probe allocates nothing.
//!
//! The trie is generic over the stored value so `dp-types` stays
//! engine-agnostic; the engine instantiates it with its `u32` row ids.

use crate::prefix::Prefix;

/// The null index: no node, no value.
const NIL: u32 = u32::MAX;

/// A trie holds at most 33 nodes along any root-to-leaf path: one per
/// prefix length.
const MAX_DEPTH: usize = 33;

/// Bit `i` (0 = most significant) of `addr`, as a child index.
fn bit_at(addr: u32, i: u8) -> usize {
    debug_assert!(i < 32);
    ((addr >> (31 - i)) & 1) as usize
}

#[derive(Clone, Debug)]
struct Node {
    prefix: Prefix,
    /// The first and the last value of this prefix's bucket, in
    /// ascending order (`NIL` when the bucket is empty). On the free list:
    /// unused.
    first: u32,
    last: u32,
    /// How many values the bucket holds.
    count: u32,
    /// Child node per branch bit (`NIL` when absent). On the free list,
    /// `children[0]` is the next free node.
    children: [u32; 2],
}

#[derive(Clone, Debug)]
struct Entry<T> {
    value: T,
    /// The next value of the bucket, or, on the free list, the next free
    /// entry.
    next: u32,
}

/// Where a node index is kept: the root, or a child of a node.
#[derive(Clone, Copy)]
enum Link {
    Root,
    Child(u32, usize),
}

/// An incrementally-maintained, path-compressed binary trie mapping IPv4
/// prefixes to ordered sets of values.
///
/// Invariants (checked in debug builds by the property tests):
///
/// * every child's prefix is strictly covered by its parent's prefix;
/// * siblings diverge on the bit just past the parent's length;
/// * a node with no values has two children (single-child value-less nodes
///   are merged away on removal, so the depth stays O(32) regardless of
///   churn).
///
/// Two tries are equal when they hold the same prefixes, values and
/// shape, wherever in their arenas those sit.
#[derive(Clone, Debug)]
pub struct PrefixTrie<T> {
    nodes: Vec<Node>,
    entries: Vec<Entry<T>>,
    root: u32,
    free_nodes: u32,
    free_entries: u32,
    len: usize,
}

impl<T> Default for PrefixTrie<T> {
    fn default() -> Self {
        PrefixTrie {
            nodes: Vec::new(),
            entries: Vec::new(),
            root: NIL,
            free_nodes: NIL,
            free_entries: NIL,
            len: 0,
        }
    }
}

impl<T: Ord + Copy> PartialEq for PrefixTrie<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.shape() == other.shape()
    }
}

impl<T: Ord + Copy> Eq for PrefixTrie<T> {}

impl<T: Ord + Copy> PrefixTrie<T> {
    /// An empty trie.
    pub fn new() -> Self {
        Self::default()
    }

    /// The number of stored `(prefix, value)` entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        *self = Self::default();
    }

    fn get(&self, link: Link) -> u32 {
        match link {
            Link::Root => self.root,
            Link::Child(n, bit) => self.nodes[n as usize].children[bit],
        }
    }

    fn set(&mut self, link: Link, node: u32) {
        match link {
            Link::Root => self.root = node,
            Link::Child(n, bit) => self.nodes[n as usize].children[bit] = node,
        }
    }

    /// A fresh value-less, childless node for `prefix`, from the free list
    /// when it has one.
    fn new_node(&mut self, prefix: Prefix) -> u32 {
        let node = Node {
            prefix,
            first: NIL,
            last: NIL,
            count: 0,
            children: [NIL, NIL],
        };
        if self.free_nodes == NIL {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        } else {
            let at = self.free_nodes;
            self.free_nodes = self.nodes[at as usize].children[0];
            self.nodes[at as usize] = node;
            at
        }
    }

    fn free_node(&mut self, at: u32) {
        let node = &mut self.nodes[at as usize];
        node.children = [self.free_nodes, NIL];
        node.first = NIL;
        node.last = NIL;
        node.count = 0;
        self.free_nodes = at;
    }

    /// Adds `value` to `node`'s bucket at its place in ascending order;
    /// `false` when the bucket already holds it. A value above the
    /// bucket's last — the usual case when values are handed out in
    /// ascending order — is appended without a walk.
    fn add_value(&mut self, node: u32, value: T) -> bool {
        let last = self.nodes[node as usize].last;
        let (mut prev, mut cur) = if last != NIL && self.entries[last as usize].value < value {
            (last, NIL)
        } else {
            (NIL, self.nodes[node as usize].first)
        };
        while cur != NIL && self.entries[cur as usize].value < value {
            prev = cur;
            cur = self.entries[cur as usize].next;
        }
        if cur != NIL && self.entries[cur as usize].value == value {
            return false;
        }
        let entry = Entry { value, next: cur };
        let at = if self.free_entries == NIL {
            self.entries.push(entry);
            (self.entries.len() - 1) as u32
        } else {
            let at = self.free_entries;
            self.free_entries = self.entries[at as usize].next;
            self.entries[at as usize] = entry;
            at
        };
        if prev == NIL {
            self.nodes[node as usize].first = at;
        } else {
            self.entries[prev as usize].next = at;
        }
        let node = &mut self.nodes[node as usize];
        if cur == NIL {
            node.last = at;
        }
        node.count += 1;
        true
    }

    /// Takes `value` out of `node`'s bucket; `false` when it is not there.
    fn remove_value(&mut self, node: u32, value: &T) -> bool {
        let (mut prev, mut cur) = (NIL, self.nodes[node as usize].first);
        while cur != NIL && self.entries[cur as usize].value < *value {
            prev = cur;
            cur = self.entries[cur as usize].next;
        }
        if cur == NIL || self.entries[cur as usize].value != *value {
            return false;
        }
        let next = self.entries[cur as usize].next;
        if prev == NIL {
            self.nodes[node as usize].first = next;
        } else {
            self.entries[prev as usize].next = next;
        }
        if next == NIL {
            self.nodes[node as usize].last = prev;
        }
        self.entries[cur as usize].next = self.free_entries;
        self.free_entries = cur;
        self.nodes[node as usize].count -= 1;
        true
    }

    /// Inserts `value` under `prefix`. Returns `false` when the identical
    /// `(prefix, value)` entry was already present.
    pub fn insert(&mut self, prefix: Prefix, value: T) -> bool {
        let mut link = Link::Root;
        let bucket = loop {
            let at = self.get(link);
            if at == NIL {
                let leaf = self.new_node(prefix);
                self.set(link, leaf);
                break leaf;
            }
            let here = self.nodes[at as usize].prefix;
            if here == prefix {
                break at;
            }
            if here.covers(&prefix) {
                // Descend: the new prefix is strictly longer, so the branch
                // bit just past this node's length is in range.
                link = Link::Child(at, bit_at(prefix.addr(), here.len()));
                continue;
            }
            let leaf = self.new_node(prefix);
            if prefix.covers(&here) {
                // The new prefix sits above this node: splice it in between.
                self.nodes[leaf as usize].children[bit_at(here.addr(), prefix.len())] = at;
                self.set(link, leaf);
            } else {
                // Diverging prefixes: split at their longest common prefix.
                // Neither covers the other, so the common length is
                // strictly shorter than both and the two branch bits
                // necessarily differ.
                let fork = prefix.common(&here);
                let branch = self.new_node(fork);
                let children = &mut self.nodes[branch as usize].children;
                children[bit_at(here.addr(), fork.len())] = at;
                children[bit_at(prefix.addr(), fork.len())] = leaf;
                self.set(link, branch);
            }
            break leaf;
        };
        let added = self.add_value(bucket, value);
        if added {
            self.len += 1;
        }
        added
    }

    /// Removes the `(prefix, value)` entry. Returns `false` when it was not
    /// present. Path compression is restored bottom-up: emptied leaves are
    /// pruned and value-less single-child nodes merged away.
    pub fn remove(&mut self, prefix: Prefix, value: &T) -> bool {
        let mut path = [Link::Root; MAX_DEPTH];
        let mut depth = 0;
        let mut link = Link::Root;
        let found = loop {
            let at = self.get(link);
            if at == NIL {
                return false;
            }
            path[depth] = link;
            depth += 1;
            let here = self.nodes[at as usize].prefix;
            if here == prefix {
                break at;
            }
            if !here.covers(&prefix) {
                return false;
            }
            link = Link::Child(at, bit_at(prefix.addr(), here.len()));
        };
        if !self.remove_value(found, value) {
            return false;
        }
        self.len -= 1;
        for &link in path[..depth].iter().rev() {
            self.compress(link);
        }
        true
    }

    /// Restores path compression at `link` after a removal below it.
    fn compress(&mut self, link: Link) {
        let at = self.get(link);
        if at == NIL || self.nodes[at as usize].count > 0 {
            return;
        }
        match self.nodes[at as usize].children {
            // An emptied leaf is pruned outright.
            [NIL, NIL] => {
                self.set(link, NIL);
                self.free_node(at);
            }
            // A value-less node with one child is merged away, restoring
            // the compressed path.
            [only, NIL] | [NIL, only] => {
                self.set(link, only);
                self.free_node(at);
            }
            // A two-child fork stays, values or not.
            _ => {}
        }
    }

    /// All values stored under prefixes that contain `ip`, walking the trie
    /// root-to-leaf: buckets come shortest-prefix-first and each bucket in
    /// ascending value order, so the sequence is deterministic.
    pub fn matches(&self, ip: u32) -> Matches<'_, T> {
        Matches {
            trie: self,
            ip,
            node: self.root,
            entry: NIL,
        }
    }

    /// The number of values [`PrefixTrie::matches`] would yield for `ip`,
    /// without materializing them — an O(32) walk summing bucket sizes.
    /// Callers holding several candidate tries (e.g. one per constrained
    /// column of a join) can use this to probe the most selective one.
    pub fn count_matches(&self, ip: u32) -> usize {
        let mut n = 0;
        let mut cur = self.root;
        while cur != NIL {
            let node = &self.nodes[cur as usize];
            if !node.prefix.contains(ip) {
                break;
            }
            n += node.count as usize;
            if node.prefix.len() == 32 {
                break;
            }
            cur = node.children[bit_at(ip, node.prefix.len())];
        }
        n
    }

    /// Every `(prefix, value)` entry in depth-first (prefix-ordered) order.
    /// For diagnostics and tests; probes should use [`PrefixTrie::matches`].
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, &T)> {
        let mut out = Vec::with_capacity(self.len);
        let mut stack: Vec<u32> = Vec::new();
        if self.root != NIL {
            stack.push(self.root);
        }
        while let Some(at) = stack.pop() {
            let node = &self.nodes[at as usize];
            let mut e = node.first;
            while e != NIL {
                out.push((node.prefix, &self.entries[e as usize].value));
                e = self.entries[e as usize].next;
            }
            // Push right first so the left (0-bit) subtree pops first.
            stack.extend(node.children.iter().rev().filter(|&&c| c != NIL));
        }
        out.into_iter()
    }

    /// The trie's content and shape, preorder: each node's prefix and
    /// values, then which children it has.
    fn shape(&self) -> Vec<(Prefix, Vec<T>, [bool; 2])> {
        let mut out = Vec::new();
        let mut stack: Vec<u32> = Vec::new();
        if self.root != NIL {
            stack.push(self.root);
        }
        while let Some(at) = stack.pop() {
            let node = &self.nodes[at as usize];
            let mut values = Vec::new();
            let mut e = node.first;
            while e != NIL {
                values.push(self.entries[e as usize].value);
                e = self.entries[e as usize].next;
            }
            let [l, r] = node.children;
            out.push((node.prefix, values, [l != NIL, r != NIL]));
            stack.extend(node.children.iter().rev().filter(|&&c| c != NIL));
        }
        out
    }
}

/// The values [`PrefixTrie::matches`] yields, found as the walk goes: no
/// buffer, no allocation.
pub struct Matches<'a, T> {
    trie: &'a PrefixTrie<T>,
    ip: u32,
    /// The next node on the path, not yet checked against the address.
    node: u32,
    /// The next value of the current node's bucket.
    entry: u32,
}

impl<'a, T> Iterator for Matches<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        loop {
            if self.entry != NIL {
                let entry = &self.trie.entries[self.entry as usize];
                self.entry = entry.next;
                return Some(&entry.value);
            }
            if self.node == NIL {
                return None;
            }
            let node = &self.trie.nodes[self.node as usize];
            if !node.prefix.contains(self.ip) {
                self.node = NIL;
                return None;
            }
            self.entry = node.first;
            self.node = if node.prefix.len() == 32 {
                NIL
            } else {
                node.children[bit_at(self.ip, node.prefix.len())]
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefix::{cidr, ip};

    #[test]
    fn empty_trie_matches_nothing() {
        let t: PrefixTrie<u32> = PrefixTrie::new();
        assert!(t.is_empty());
        assert_eq!(t.matches(ip("1.2.3.4")).count(), 0);
    }

    #[test]
    fn matches_walk_root_to_leaf() {
        let mut t = PrefixTrie::new();
        t.insert(Prefix::any(), "any");
        t.insert(cidr("4.3.0.0/16"), "wide");
        t.insert(cidr("4.3.2.0/24"), "narrow");
        t.insert(cidr("4.3.2.9/32"), "host");
        t.insert(cidr("9.9.0.0/16"), "other");
        let hits: Vec<&&str> = t.matches(ip("4.3.2.9")).collect();
        assert_eq!(hits, vec![&"any", &"wide", &"narrow", &"host"]);
        let hits: Vec<&&str> = t.matches(ip("4.3.3.1")).collect();
        assert_eq!(hits, vec![&"any", &"wide"]);
    }

    #[test]
    fn duplicate_prefix_shares_a_bucket_in_value_order() {
        let mut t = PrefixTrie::new();
        assert!(t.insert(cidr("10.0.0.0/8"), 2));
        assert!(t.insert(cidr("10.0.0.0/8"), 1));
        assert!(!t.insert(cidr("10.0.0.0/8"), 1));
        assert_eq!(t.len(), 2);
        let hits: Vec<&i32> = t.matches(ip("10.1.2.3")).collect();
        assert_eq!(hits, vec![&1, &2]);
    }

    #[test]
    fn remove_restores_path_compression() {
        let mut t = PrefixTrie::new();
        t.insert(cidr("4.3.2.0/24"), 1);
        t.insert(cidr("4.3.3.0/24"), 2);
        // Insertion forked at 4.3.2.0/23; removing one side must merge the
        // value-less fork away again.
        let before = t.clone();
        t.insert(cidr("4.3.9.0/24"), 3);
        assert!(t.remove(cidr("4.3.9.0/24"), &3));
        assert_eq!(t, before);
        assert!(!t.remove(cidr("4.3.9.0/24"), &3));
    }

    #[test]
    fn reinsert_after_remove_is_structurally_identical() {
        let mut t = PrefixTrie::new();
        for (i, p) in ["0.0.0.0/0", "128.0.0.0/1", "192.0.0.0/2", "192.128.0.0/9"]
            .iter()
            .enumerate()
        {
            t.insert(cidr(p), i);
        }
        let before = t.clone();
        assert!(t.remove(cidr("192.0.0.0/2"), &2));
        assert!(t.insert(cidr("192.0.0.0/2"), 2));
        assert_eq!(t, before);
    }

    #[test]
    fn churn_reuses_freed_slots() {
        let mut t = PrefixTrie::new();
        let prefixes = ["10.0.0.0/8", "10.1.0.0/16", "10.2.0.0/16", "10.1.2.0/24"];
        for (i, p) in prefixes.iter().enumerate() {
            t.insert(cidr(p), i);
        }
        let (nodes, entries) = (t.nodes.len(), t.entries.len());
        for _ in 0..10 {
            for (i, p) in prefixes.iter().enumerate().rev() {
                assert!(t.remove(cidr(p), &i));
            }
            assert!(t.is_empty() && t.root == NIL);
            for (i, p) in prefixes.iter().enumerate() {
                assert!(t.insert(cidr(p), i));
            }
        }
        assert_eq!((t.nodes.len(), t.entries.len()), (nodes, entries));
        let hits: Vec<usize> = t.matches(ip("10.1.2.3")).copied().collect();
        assert_eq!(hits, vec![0, 1, 3]);
    }

    #[test]
    fn slash_zero_and_slash_32_edges() {
        let mut t = PrefixTrie::new();
        t.insert(Prefix::any(), "all");
        t.insert(cidr("255.255.255.255/32"), "top");
        t.insert(cidr("0.0.0.0/32"), "bottom");
        assert_eq!(
            t.matches(u32::MAX).collect::<Vec<_>>(),
            vec![&"all", &"top"]
        );
        assert_eq!(t.matches(0).collect::<Vec<_>>(), vec![&"all", &"bottom"]);
        assert_eq!(t.matches(ip("7.7.7.7")).collect::<Vec<_>>(), vec![&"all"]);
    }

    #[test]
    fn iter_enumerates_everything() {
        let mut t = PrefixTrie::new();
        let entries = [
            (cidr("4.3.2.0/24"), 1),
            (cidr("4.3.2.0/24"), 2),
            (cidr("8.0.0.0/5"), 3),
            (Prefix::any(), 4),
        ];
        for (p, v) in entries {
            t.insert(p, v);
        }
        let mut seen: Vec<(Prefix, i32)> = t.iter().map(|(p, v)| (p, *v)).collect();
        seen.sort();
        let mut want = entries.to_vec();
        want.sort();
        assert_eq!(seen, want);
    }
}
