//! What part of a log a provenance query depends on: the slice plan a
//! program gets when it is built.
//!
//! A diagnosis compares the provenance of two tuples, and each tree
//! depends on a small part of the log ("Provenance Traces", Cheney, Acar
//! and Ahmed: the part of a trace an output depends on). The plan says,
//! per table, which base events a slice keeps; `dp-replay` applies it and
//! closes it over the run.
//!
//! # The key group
//!
//! A *key* is an argument column of one base table that every rule
//! reading a table of its group carries unchanged into the head, where it
//! is a column of the next group table: SDN's `Pid` through `pktIn →
//! pktAt → pktOut → deliver`. A group tuple's key is therefore the key of
//! the one base tuple its derivation chain starts at, and a slice keeps a
//! group table's base events only for the queried keys. The key is
//! refused — and the program slices to its whole log — when
//!
//! * a body joins two atoms of the group (`join`): a tuple would have two
//!   keys;
//! * an aggregate or a stateful builtin reads the group (`read`): what it
//!   reads of other keys is not in the slice;
//! * a group table feeds a table outside it, or a group table is derived
//!   without a group atom (`escape`): the key does not follow the
//!   derivation;
//! * the program has a native rule (`native`): what it reads and emits is
//!   not declared;
//!
//! or when no base column is carried at all (`no-key`). Of the accepted
//! keys the plan takes the one with the largest group, the first table and
//! column in name order on a tie.
//!
//! # Owners
//!
//! Every other table gets a *share*. A table joined with a group atom is
//! read at the rule's location, so its tuples at node `N` must be there
//! whenever a group tuple is: it is **owned** by its location. Ownership
//! flows back through the rules that derive an owned table: the column
//! (or location) the head is owned by must be a body variable, and each
//! body atom is owned by the column that carries that variable — a column
//! or the location, unchanged. `cfgEntry(@C, Rid, Sw, …)` is owned by
//! `Sw`, because `install` sends it to `flowEntry(@Sw, …)`; `hello(@S, …)`
//! is owned by its location, because `up` makes it `switchUp(@C, S)` and
//! `install` joins that on `Sw`. (A rule "lands at N" read off the first
//! hop would give `hello` to the controller, and a kept switch would miss
//! its `switchUp`.) A slice keeps an owned table's base events for the
//! owners in its set.
//!
//! A table whose owner cannot be followed — a body atom that does not
//! carry the owner variable, two rules that disagree, a table read by a
//! rule that does not pass its owner on, a table outside every group
//! rule's cone — is kept **whole**, and so is everything it is derived
//! from. A stateful builtin reads tables at the rule's location: they are
//! owned by their location if the rule is, and kept whole otherwise.
//!
//! Under these shares a derivation's body tuples all share its head's
//! owner (or key), or are kept whole, so a slice holds every derivation of
//! every tuple it holds and no derivation the whole run lacks: closed over
//! its owners, it is the whole run restricted to what it keeps.

use std::collections::BTreeMap;
use std::sync::Arc;

use dp_types::{NodeId, Schema, SchemaRegistry, Sym, TableKind, Tuple, Value};

use crate::ast::{Constraint, Pattern, Rule};
use crate::expr::Expr;
use crate::program::StatefulBuiltin;

/// Where a table's owner is read from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Place {
    /// The tuple's location.
    Loc,
    /// Argument column `i`.
    Arg(usize),
}

/// Which of a table's base events a slice keeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Share {
    /// A key-group table; the key is argument column `.0`.
    Key(usize),
    /// Owned: kept for the owners in the slice's set.
    Owner(Place),
    /// Kept whole.
    Whole,
}

/// What a located tuple needs for a slice to hold it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Needs {
    /// Its key queried (and its node among the owners, to run there).
    Key(Value),
    /// This owner in the set.
    Owner(Sym),
    /// Nothing: every slice holds it.
    Nothing,
}

/// A program's slice plan: a share per table, or why the key was refused
/// (every table then [`Share::Whole`]).
#[derive(Clone, Debug)]
pub struct SlicePlan {
    shares: Vec<(Sym, Share)>,
    refused: Option<&'static str>,
}

impl SlicePlan {
    /// Why the program slices to its whole log, if it does: `native`,
    /// `no-key`, `join`, `read` or `escape` (module docs).
    pub fn refused(&self) -> Option<&'static str> {
        self.refused
    }

    /// The share of `table` ([`Share::Whole`] for a table the program does
    /// not declare).
    pub fn share(&self, table: &Sym) -> Share {
        // A handful of tables, compared by interned name: a scan is a few
        // pointer compares, where a search would compare text.
        self.shares.iter().find(|(t, _)| t == table).map_or(Share::Whole, |&(_, s)| s)
    }

    /// The key-group tables, in name order (none when refused).
    pub fn key_tables(&self) -> impl Iterator<Item = Sym> + '_ {
        self.shares
            .iter()
            .filter(|(_, s)| matches!(s, Share::Key(_)))
            .map(|&(t, _)| t)
    }

    /// What `tuple` at `node` needs for a slice to hold it. An owner
    /// column that does not hold a name is no node's, and the tuple is
    /// held by every slice.
    pub fn needs(&self, node: &NodeId, tuple: &Tuple) -> Needs {
        match self.share(&tuple.table) {
            Share::Key(col) => match tuple.args.get(col) {
                Some(v) => Needs::Key(v.clone()),
                None => Needs::Nothing,
            },
            Share::Owner(Place::Loc) => Needs::Owner(node.0),
            Share::Owner(Place::Arg(i)) => match tuple.args.get(i) {
                Some(Value::Str(s)) => Needs::Owner(*s),
                _ => Needs::Nothing,
            },
            Share::Whole => Needs::Nothing,
        }
    }

    /// The plan of a program: its schemas, rules, whether it has natives
    /// and its builtins by name.
    pub(crate) fn of(
        schemas: &SchemaRegistry,
        rules: &[Rule],
        has_natives: bool,
        builtins: &BTreeMap<Sym, Arc<dyn StatefulBuiltin>>,
    ) -> SlicePlan {
        let tables: Vec<&Schema> = schemas.iter().collect();
        let whole = |refused| SlicePlan {
            shares: tables.iter().map(|s| (s.name, Share::Whole)).collect(),
            refused: Some(refused),
        };
        if has_natives {
            return whole("native");
        }
        let a = Analysis::new(tables.iter().map(|s| s.name).collect(), rules, builtins);
        // The accepted key with the largest group; a program with none is
        // named by the first refusal of a column some rule carries.
        let mut best: Option<Vec<Option<usize>>> = None;
        let mut refused = None;
        for (t, schema) in tables.iter().enumerate() {
            if schema.kind == TableKind::Derived {
                continue;
            }
            for col in 0..schema.arity() {
                match a.group(t, col) {
                    Ok(group) => {
                        let size = |g: &[Option<usize>]| g.iter().flatten().count();
                        if best.as_deref().is_none_or(|b| size(&group) > size(b)) {
                            best = Some(group);
                        }
                    }
                    Err("no-key") => {}
                    Err(why) => {
                        refused.get_or_insert(why);
                    }
                }
            }
        }
        let Some(group) = best else {
            return whole(refused.unwrap_or("no-key"));
        };
        SlicePlan {
            shares: a.tables.iter().copied().zip(a.shares(&group)).collect(),
            refused: None,
        }
    }
}

/// The program as the analysis reads it: tables by index (name order),
/// and each rule with the indices of the tables it names.
struct Analysis<'a> {
    tables: Vec<Sym>,
    rules: Vec<Indexed<'a>>,
}

/// A rule with its head's table index, each body atom's, and the tables
/// its stateful builtin calls may read.
struct Indexed<'a> {
    rule: &'a Rule,
    head: usize,
    body: Vec<usize>,
    reads: Vec<usize>,
}

/// A table's share while the owner analysis runs: `None` until something
/// needs it.
type Partial = Option<Share>;

impl<'a> Analysis<'a> {
    fn new(
        tables: Vec<Sym>,
        rules: &'a [Rule],
        builtins: &BTreeMap<Sym, Arc<dyn StatefulBuiltin>>,
    ) -> Self {
        // Every table a built program's rules name is declared.
        let index = |table: &Sym| tables.binary_search(table).unwrap_or(usize::MAX);
        let rules = rules
            .iter()
            .map(|rule| {
                let called = rule.constraints.iter().filter_map(|c| match c {
                    Constraint::Builtin { name, .. } => builtins.get(name),
                    Constraint::Expr(_) => None,
                });
                let called: Vec<_> = called.collect();
                Indexed {
                    rule,
                    head: index(&rule.head.table),
                    body: rule.body.iter().map(|a| index(&a.table)).collect(),
                    reads: (0..tables.len())
                        .filter(|&t| called.iter().any(|b| b.reads_table(&tables[t])))
                        .collect(),
                }
            })
            .collect();
        Analysis { tables, rules }
    }

    /// The group keyed on argument `col` of base table `base`: the key
    /// column of each group table, or the refusal.
    fn group(&self, base: usize, col: usize) -> Result<Vec<Option<usize>>, &'static str> {
        let mut key = vec![None; self.tables.len()];
        key[base] = Some(col);
        let mut work = vec![base];
        while let Some(t) = work.pop() {
            for r in &self.rules {
                let rule = r.rule;
                let atoms = rule.body.iter().zip(&r.body).filter(|&(_, &bt)| bt == t);
                for (atom, _) in atoms {
                    if rule.agg.is_some() {
                        return Err("read");
                    }
                    let carried = match atom.args.get(key[t].unwrap_or(usize::MAX)) {
                        Some(Pattern::Var(v)) if !assigned(rule, v) => Some(*v),
                        _ => None,
                    };
                    let at = carried.and_then(|v| {
                        rule.head.args.iter().position(|e| matches!(e, Expr::Var(h) if *h == v))
                    });
                    let head = r.head;
                    match (at, key[head]) {
                        // The column is not carried out of its own table.
                        (None, _) if t == base => return Err("no-key"),
                        (None, _) => return Err("escape"),
                        (Some(at), Some(k)) if at != k => return Err("escape"),
                        (Some(at), None) => {
                            key[head] = Some(at);
                            work.push(head);
                        }
                        (Some(_), Some(_)) => {}
                    }
                }
            }
        }
        if key.iter().flatten().count() < 2 {
            return Err("no-key");
        }
        for r in &self.rules {
            let members = r.body.iter().filter(|&&t| key[t].is_some());
            match (members.count(), key[r.head].is_some()) {
                (n, _) if n > 1 => return Err("join"),
                (0, true) => return Err("escape"),
                _ => {}
            }
            if r.reads.iter().any(|&t| key[t].is_some()) {
                return Err("read");
            }
        }
        Ok(key)
    }

    /// Every table's share under the key group `key`: the fixpoint of the
    /// owner rules in the module docs. Shares only move up, from unset to
    /// owned to whole, so it terminates.
    fn shares(&self, key: &[Option<usize>]) -> Vec<Share> {
        let mut shares: Vec<Partial> =
            key.iter().map(|k| k.map(Share::Key)).collect();
        let settle = |shares: &mut Vec<Partial>| {
            while self.pass(shares) {}
        };
        settle(&mut shares);
        // A table no group rule's cone reaches is kept whole, and so is
        // what it is derived from.
        for s in shares.iter_mut().filter(|s| s.is_none()) {
            *s = Some(Share::Whole);
        }
        settle(&mut shares);
        shares.into_iter().map(|s| s.unwrap_or(Share::Whole)).collect()
    }

    /// One pass over the rules; true if a share moved.
    fn pass(&self, shares: &mut [Partial]) -> bool {
        let mut moved = false;
        let mut need = |shares: &mut [Partial], t: usize, want: Share| {
            let next = match (shares[t], want) {
                (Some(Share::Key(_)), _) => return,
                (None, want) => want,
                (Some(have), want) if have == want => return,
                _ => Share::Whole,
            };
            if shares[t] != Some(next) {
                shares[t] = Some(next);
                moved = true;
            }
        };
        for r in &self.rules {
            let rule = r.rule;
            let Some(head) = shares[r.head] else {
                continue;
            };
            let loc = rule.body.first().map(|a| a.loc);
            // The variable this rule's firings are owned by: the location
            // for a group head, the head's owner column for an owned one.
            let owner = match head {
                Share::Key(_) => loc,
                Share::Owner(p) => {
                    let e = match p {
                        Place::Loc => Some(&rule.head.loc),
                        Place::Arg(i) => rule.head.args.get(i),
                    };
                    match e {
                        Some(Expr::Var(v)) if !assigned(rule, v) => Some(*v),
                        _ => None,
                    }
                }
                Share::Whole => None,
            };
            for (atom, &t) in rule.body.iter().zip(&r.body) {
                let place = owner.and_then(|v| {
                    if atom.loc == v {
                        return Some(Place::Loc);
                    }
                    let at = atom.args.iter().position(|p| matches!(p, Pattern::Var(a) if *a == v));
                    at.map(Place::Arg)
                });
                need(shares, t, place.map_or(Share::Whole, Share::Owner));
            }
            let reads = if owner.is_some() && owner == loc {
                Share::Owner(Place::Loc)
            } else {
                Share::Whole
            };
            for &t in &r.reads {
                need(shares, t, reads);
            }
        }
        moved
    }
}

/// True if `var` is the target of one of `rule`'s assignments: it is then
/// computed, not carried.
fn assigned(rule: &Rule, var: &Sym) -> bool {
    rule.assigns.iter().any(|a| a.var == *var)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_rules;
    use dp_types::FieldType::{Int, Str};

    fn plan(decls: &[(&str, TableKind, usize)], rules: &str) -> SlicePlan {
        let mut reg = SchemaRegistry::new();
        for &(name, kind, arity) in decls {
            let names = ["a", "b", "c"];
            let cols = (0..arity).map(|i| (names[i], if i == 0 { Int } else { Str }));
            reg.declare(Schema::new(name, kind, cols));
        }
        let rules = parse_rules(rules).unwrap();
        SlicePlan::of(&reg, &rules, false, &BTreeMap::new())
    }

    use TableKind::{Derived, ImmutableBase, MutableBase};

    #[test]
    fn a_carried_column_keys_its_group_and_owners_follow_the_cone() {
        let p = plan(
            &[
                ("pkt", ImmutableBase, 2),
                ("at", Derived, 2),
                ("cfg", MutableBase, 2),
                ("hi", ImmutableBase, 2),
                ("up", Derived, 1),
                ("fe", Derived, 1),
            ],
            "u up(@C, S) :- hi(@S, X, C).\n\
             i fe(@Sw, R) :- cfg(@C, R, Sw), up(@C, Sw).\n\
             m at(@N, P, D) :- pkt(@S, P, D), fe(@S, N).\n\
             h at(@N, P, D) :- at(@S, P, D), fe(@S, N).",
        );
        assert_eq!(p.refused(), None);
        assert_eq!(p.share(&Sym::new("pkt")), Share::Key(0));
        assert_eq!(p.share(&Sym::new("at")), Share::Key(0));
        assert_eq!(p.share(&Sym::new("fe")), Share::Owner(Place::Loc));
        assert_eq!(p.share(&Sym::new("cfg")), Share::Owner(Place::Arg(1)));
        assert_eq!(p.share(&Sym::new("up")), Share::Owner(Place::Arg(0)));
        // `hi`'s location, not the controller it lands at.
        assert_eq!(p.share(&Sym::new("hi")), Share::Owner(Place::Loc));
    }

    #[test]
    fn refusals_are_named() {
        let decls =
            [("f", ImmutableBase, 1), ("p", ImmutableBase, 1), ("q", Derived, 1), ("r", Derived, 1)];
        let join = plan(&decls, "a q(@N, X) :- p(@N, X).\nb r(@N, X) :- q(@N, X), p(@N, X).");
        assert_eq!(join.refused(), Some("join"));
        let escape = plan(&decls, "a q(@N, X) :- p(@N, X).\nb r(@N, Y) :- q(@N, X), Y := X + 1.");
        assert_eq!(escape.refused(), Some("escape"));
        let none = plan(&decls, "a q(@N, Y) :- p(@N, X), Y := X + 1.");
        assert_eq!(none.refused(), Some("no-key"));
        let read = plan(&decls, "a q(@N, agg_count(X)) :- f(@N, G), p(@N, X).");
        assert_eq!(read.refused(), Some("read"));
        assert_eq!(read.share(&Sym::new("p")), Share::Whole);
    }

    #[test]
    fn an_owner_that_cannot_be_followed_keeps_the_table_whole() {
        let p = plan(
            &[
                ("pkt", ImmutableBase, 1),
                ("out", Derived, 1),
                ("cfg", MutableBase, 2),
                ("link", ImmutableBase, 1),
                ("fe", Derived, 1),
            ],
            // `fe` is derived from every `cfg` on the node: its owner
            // (the location) is not a column of `cfg`.
            "i fe(@N, K) :- cfg(@C, K, W), link(@C, N).\n\
             f out(@S, P) :- pkt(@S, P), fe(@S, K).",
        );
        assert_eq!(p.refused(), None, "{p:?}");
        assert_eq!(p.share(&Sym::new("fe")), Share::Owner(Place::Loc));
        assert_eq!(p.share(&Sym::new("cfg")), Share::Whole);
    }
}
