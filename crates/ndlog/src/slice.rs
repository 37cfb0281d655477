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
//!
//! # Guards
//!
//! An owned table can have a *guard*: columns whose prefix a tuple must
//! make contain an address of a held group tuple for a slice to keep it.
//! Column `c` of table `T` is guarded when every rule reading `T`
//!
//! * joins it beside a group atom and checks `prefix_contains(M, V)`, with
//!   `M` the variable at `c` and `V` bound by the group atom at a column
//!   declared `ip` — SDN's `fwd` checks `SM ∋ Src` and `DM ∋ Dst` of
//!   `flowEntry` against `pktAt`'s header — or
//! * carries `M` unchanged into a guarded column of its head: `install`
//!   copies `cfgEntry`'s `SM` and `DM` into `flowEntry`'s,
//!
//! and no aggregate reads `T`; the column must be declared `prefix` or `ip`
//! (the check's promotion rule then never fails). The columns are the
//! largest set these rules leave, so a rule reading `T` that neither
//! checks nor carries a column unguards it.
//!
//! A tuple whose guarded prefix contains no address of any group tuple
//! joins no group atom through a checking rule, and whatever a carrying
//! rule derives from it has the same prefix in a guarded column, so none
//! of it is in the provenance of a group tuple: a slice may leave it out.
//! What the rules cannot show is how a stateful builtin reads; the engine
//! records that at run time, on every view it hands to one
//! ([`crate::Engine::guard_reads`]): a read through
//! [`crate::NodeView::prefix_candidates`] probing every guarded column
//! sees only the rows containing its addresses (the slice widens by them),
//! and any other read of a guarded table gives the guards up.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use dp_types::{FieldType, NodeId, Schema, SchemaRegistry, Sym, TableKind, Tuple, Value};

use crate::ast::{BodyAtom, Constraint, Pattern, Rule};
use crate::expr::{Expr, Func};
use crate::program::StatefulBuiltin;

/// Where a table's owner is read from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Place {
    /// The tuple's location.
    Loc,
    /// Argument column `i`.
    Arg(usize),
}

/// A tuple as a slice plan reads it: its table and its fields by column.
/// A [`Tuple`] is one; so is a logged record read where it lies, without
/// building the tuple.
pub trait Fields {
    /// The tuple's table.
    fn table(&self) -> Sym;
    /// How many fields it has.
    fn arity(&self) -> usize;
    /// Field `col`, or `None` past the arity.
    fn field(&self, col: usize) -> Option<Value>;
}

impl Fields for Tuple {
    #[inline]
    fn table(&self) -> Sym {
        self.table
    }

    #[inline]
    fn arity(&self) -> usize {
        self.args.len()
    }

    #[inline]
    fn field(&self, col: usize) -> Option<Value> {
        self.args.get(col).cloned()
    }
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

impl Share {
    /// What `tuple` at `node`, a tuple of a table with this share, needs
    /// for a slice to hold it ([`SlicePlan::needs`]).
    pub fn needs(self, node: &NodeId, tuple: &impl Fields) -> Needs {
        match self {
            Share::Key(col) => match tuple.field(col) {
                Some(v) => Needs::Key(v),
                None => Needs::Nothing,
            },
            Share::Owner(Place::Loc) => Needs::Owner(node.0),
            Share::Owner(Place::Arg(i)) => match tuple.field(i) {
                Some(Value::Str(s)) => Needs::Owner(s),
                _ => Needs::Nothing,
            },
            Share::Whole => Needs::Nothing,
        }
    }
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
    /// The guarded columns of each table that has any (module docs).
    guards: Vec<(Sym, Vec<usize>)>,
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

    /// The guarded columns of `table`, ascending; empty for a table
    /// without a guard (module docs).
    pub fn guard(&self, table: &Sym) -> &[usize] {
        self.guards.iter().find(|(t, _)| t == table).map_or(&[], |(_, g)| g)
    }

    /// True if some table has a guard.
    pub fn has_guards(&self) -> bool {
        !self.guards.is_empty()
    }

    /// True if `tuple` passes its table's guard against `addrs`: each
    /// guarded column's prefix contains one of the addresses. A tuple of a
    /// table without a guard always passes.
    pub fn covers(&self, tuple: &impl Fields, addrs: &BTreeSet<u32>) -> bool {
        self.guard(&tuple.table()).iter().all(|&c| match tuple.field(c).map(|v| v.as_prefix()) {
            Some(Ok(p)) => addrs.range(p.addr()..=p.last()).next().is_some(),
            _ => true,
        })
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
    pub fn needs(&self, node: &NodeId, tuple: &impl Fields) -> Needs {
        self.share(&tuple.table()).needs(node, tuple)
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
            guards: Vec::new(),
            refused: Some(refused),
        };
        if has_natives {
            return whole("native");
        }
        let a = Analysis::new(&tables, rules, builtins);
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
        let shares = a.shares(&group);
        let guards = a.guards(&shares);
        let named = |(t, g): (usize, Vec<usize>)| (!g.is_empty()).then(|| (a.tables[t], g));
        SlicePlan {
            guards: guards.into_iter().enumerate().filter_map(named).collect(),
            shares: a.tables.iter().copied().zip(shares).collect(),
            refused: None,
        }
    }
}

/// The program as the analysis reads it: tables by index (name order),
/// and each rule with the indices of the tables it names.
struct Analysis<'a> {
    tables: Vec<Sym>,
    schemas: &'a [&'a Schema],
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
        schemas: &'a [&'a Schema],
        rules: &'a [Rule],
        builtins: &BTreeMap<Sym, Arc<dyn StatefulBuiltin>>,
    ) -> Self {
        let tables: Vec<Sym> = schemas.iter().map(|s| s.name).collect();
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
        Analysis {
            tables,
            schemas,
            rules,
        }
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

    /// Every table's guarded columns under `shares` (module docs): from
    /// each owned table's `prefix` and `ip` columns, what every reading
    /// rule checks against its group atom or carries into a guarded head
    /// column. Columns only leave, so it terminates.
    fn guards(&self, shares: &[Share]) -> Vec<Vec<usize>> {
        let mut guards: Vec<Vec<usize>> = shares
            .iter()
            .zip(self.schemas)
            .map(|(share, schema)| match share {
                Share::Owner(_) => (0..schema.arity())
                    .filter(|&c| {
                        let ty = schema.fields[c].ty;
                        matches!(ty, FieldType::Prefix | FieldType::Ip)
                    })
                    .collect(),
                Share::Key(_) | Share::Whole => Vec::new(),
            })
            .collect();
        loop {
            let mut moved = false;
            for r in &self.rules {
                let rule = r.rule;
                let group = rule
                    .body
                    .iter()
                    .zip(&r.body)
                    .find(|&(_, &t)| matches!(shares[t], Share::Key(_)));
                for (atom, &t) in rule.body.iter().zip(&r.body) {
                    let keep = |c: &usize| {
                        let Some(Pattern::Var(m)) = atom.args.get(*c) else {
                            return false;
                        };
                        if rule.agg.is_some() || assigned(rule, m) {
                            return false;
                        }
                        match group {
                            Some((g, &gt)) => self.checks(rule, m, g, gt),
                            None => rule.head.args.iter().enumerate().any(|(h, e)| {
                                matches!(e, Expr::Var(v) if v == m) && guards[r.head].contains(&h)
                            }),
                        }
                    };
                    let kept: Vec<usize> = guards[t].iter().copied().filter(keep).collect();
                    if kept.len() < guards[t].len() {
                        guards[t] = kept;
                        moved = true;
                    }
                }
            }
            if !moved {
                return guards;
            }
        }
    }

    /// True if `rule` checks `prefix_contains(m, V)` with `V` bound by the
    /// group atom `group` (of table `gt`) at a column declared `ip`.
    fn checks(&self, rule: &Rule, m: &Sym, group: &BodyAtom, gt: usize) -> bool {
        let bound = |v: &Sym| {
            !assigned(rule, v)
                && group.args.iter().zip(&self.schemas[gt].fields).any(|(p, f)| {
                    matches!(p, Pattern::Var(a) if a == v) && f.ty == FieldType::Ip
                })
        };
        rule.constraints.iter().any(|c| match c {
            Constraint::Expr(Expr::Call(Func::PrefixContains, args)) => matches!(
                args.as_slice(),
                [Expr::Var(p), Expr::Var(v)] if p == m && bound(v)
            ),
            _ => false,
        })
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

    /// SDN's shape: `fe` is checked against the packet's address beside
    /// the group atom and `cfg` carries its prefixes into `fe`; a prefix
    /// that some rule reading the table neither checks nor carries into a
    /// guarded column (`N`) loses its guard.
    #[test]
    fn checked_and_carried_prefixes_are_guarded() {
        use dp_types::FieldType::{Int, Ip, Prefix};
        let mut reg = SchemaRegistry::new();
        reg.declare(Schema::new("pkt", ImmutableBase, [("p", Int), ("d", Ip)]));
        reg.declare(Schema::new("at", Derived, [("p", Int), ("d", Ip)]));
        reg.declare(Schema::new("cfg", MutableBase, [("m", Prefix), ("n", Prefix)]));
        reg.declare(Schema::new("fe", Derived, [("m", Prefix), ("n", Prefix)]));
        let rules = parse_rules(
            "i fe(@S, M, N) :- cfg(@S, M, N).\n\
             f at(@S, P, D) :- pkt(@S, P, D), fe(@S, M, N), prefix_contains(M, D).\n\
             g at(@S, P, D) :- pkt(@S, P, D), cfg(@S, M, N), prefix_contains(N, D).",
        )
        .unwrap();
        let p = SlicePlan::of(&reg, &rules, false, &BTreeMap::new());
        assert_eq!(p.refused(), None, "{p:?}");
        // `f` checks `fe`'s `M` alone; `cfg`'s `M` is carried into it but
        // unchecked by `g`, and its `N` is checked by `g` but carried into
        // `fe`'s unguarded `N`.
        assert_eq!(p.guard(&Sym::new("fe")), [0]);
        assert!(p.guard(&Sym::new("cfg")).is_empty() && p.guard(&Sym::new("pkt")).is_empty());
        let entry = |m: &str| {
            let m = Value::Prefix(dp_types::prefix::cidr(m));
            Tuple::new("fe", vec![m.clone(), m])
        };
        let addrs = BTreeSet::from([dp_types::prefix::ip("10.0.0.5")]);
        assert!(p.covers(&entry("10.0.0.0/24"), &addrs));
        assert!(!p.covers(&entry("10.0.1.0/24"), &addrs));
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
