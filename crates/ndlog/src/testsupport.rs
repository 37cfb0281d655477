//! Shared scaffolding for the seeded differential suites.
//!
//! Every differential suite in `crates/ndlog/tests/` follows one recipe:
//! generate a random program and a random event schedule from a
//! [`DetRng`](dp_types::DetRng) seed, run them through the engine and
//! through the reference evaluator ([`crate::reference`]) — or through
//! the engine twice, with some observer on and off — and require the
//! runs to agree on everything observable. This module is that recipe,
//! extracted once: the [`Outcome`] run harness for both evaluators and
//! the program/schedule generators (int-flavored, prefix-flavored, and
//! multi-node).
//!
//! The generators' RNG consumption order is part of the test contract,
//! because every pinned seed in the differential suites reproduces its
//! case only as long as the stream of draws is unchanged. Extend by
//! *appending* draws (or by forking a child stream with
//! [`DetRng::fork`](dp_types::DetRng::fork)), never by reordering
//! existing ones.
//!
//! Compiled only with the `testing` feature, which the crate's own
//! integration tests enable through the self-referential dev-dependency.

use std::collections::BTreeMap;
use std::sync::Arc;

use dp_types::{NodeId, Sym, Tuple};

use crate::engine::{Engine, NodeView, Stats, TupleState};
use crate::program::Program;
pub use crate::reference::ScheduledOp;
use crate::sink::{ProvEvent, ProvenanceSink, VecSink};

/// The final tables of a run, flattened for comparison: every live tuple
/// with its full bookkeeping (base flag, derivation records, appearance
/// time).
pub type Tables = Vec<(NodeId, Tuple, TupleState)>;

/// Flattens the nodes of an engine or of the oracle's final tables into
/// [`Tables`].
pub fn tables<'a>(nodes: impl Iterator<Item = (&'a NodeId, NodeView<'a>)>) -> Tables {
    let mut out = Tables::new();
    for (node, view) in nodes {
        out.extend(view.all().map(|(t, s)| (*node, t.clone(), s)));
    }
    out
}

/// Feeds `ops` into an engine's schedule.
pub fn schedule_all<S: ProvenanceSink>(eng: &mut Engine<S>, ops: &[ScheduledOp]) {
    for op in ops {
        eng.schedule(op).unwrap();
    }
}

/// Everything observable about one engine run.
pub struct Outcome {
    /// The raw provenance event stream, byte-for-byte comparable.
    pub events: Vec<ProvEvent>,
    /// Per-rule firing counts.
    pub firings: BTreeMap<Sym, u64>,
    /// Raw stat counters.
    pub stats: Stats,
    /// The final tables.
    pub tables: Tables,
}

/// Runs a schedule through the engine and collects the [`Outcome`].
pub fn run_schedule(program: &Arc<Program>, ops: &[ScheduledOp]) -> Outcome {
    let mut eng = Engine::new(Arc::clone(program), VecSink::default());
    schedule_all(&mut eng, ops);
    eng.run().unwrap();
    let firings = eng.rule_firings();
    let stats = eng.stats();
    let tables = tables(eng.nodes());
    Outcome {
        events: eng.into_sink().events,
        firings,
        stats,
        tables,
    }
}

/// Runs a schedule through the reference evaluator: its provenance stream
/// and final tables.
pub fn run_reference(program: &Program, ops: &[ScheduledOp]) -> (Vec<ProvEvent>, Tables) {
    let mut sink = VecSink::default();
    let nodes = crate::reference::evaluate(program, ops, &mut sink).unwrap();
    (sink.events, tables(nodes.nodes()))
}

/// Runs one case through the engine and holds it to the oracle
/// ([`assert_matches_reference`]).
pub fn run_checked(program: &Arc<Program>, ops: &[ScheduledOp], case: &str) -> Outcome {
    let got = run_schedule(program, ops);
    assert_matches_reference(program, ops, &got, case);
    got
}

/// Asserts that an engine run reproduced the oracle: the same provenance
/// stream, the same final tables, and semantic counters (`Stats` and
/// per-rule firings) that count exactly what the oracle's stream holds.
pub fn assert_matches_reference(program: &Program, ops: &[ScheduledOp], got: &Outcome, case: &str) {
    let (events, tables) = run_reference(program, ops);
    assert_eq!(got.events, events, "provenance stream diverges from the oracle ({case})");
    assert_eq!(got.tables, tables, "final tables diverge from the oracle ({case})");
    let mut firings: BTreeMap<Sym, u64> = BTreeMap::new();
    let mut counts = [0u64; 4];
    let (mut live, mut peak) = (0u64, 0u64);
    for e in &events {
        match e {
            ProvEvent::InsertBase { .. } => counts[0] += 1,
            ProvEvent::DeleteBase { .. } => counts[1] += 1,
            ProvEvent::Derive { rule, .. } => {
                counts[2] += 1;
                *firings.entry(*rule).or_default() += 1;
            }
            ProvEvent::Underive { .. } => counts[3] += 1,
            ProvEvent::Appear { .. } => {
                live += 1;
                peak = peak.max(live);
            }
            ProvEvent::Disappear { .. } => live -= 1,
        }
    }
    assert_eq!(got.firings, firings, "per-rule firings ({case})");
    let s = got.stats;
    assert_eq!(
        [s.base_inserts, s.base_deletes, s.derivations, s.underivations],
        counts,
        "semantic counters ({case})"
    );
    assert_eq!(s.peak_tuples, peak, "peak live tuples ({case})");
}

/// The int-flavored generator of the reference differential and the
/// extracted-tree suites: tiny two-column integer base tables, rules with
/// shared join variables, assignments, and comparison constraints, and derived-on-
/// derived chaining through `d` into `e`.
pub mod intgen {
    use std::sync::Arc;

    use dp_types::{tuple, DetRng, FieldType, NodeId, Schema, SchemaRegistry, TableKind};

    use super::ScheduledOp;
    use crate::program::Program;

    /// The mutable base tables.
    pub const BASE_TABLES: [&str; 3] = ["a", "b", "c"];
    /// The variable pool — tiny, so cross-atom sharing (real join keys)
    /// is common.
    pub const VARS: [&str; 3] = ["X", "Y", "Z"];

    /// Base tables `a`/`b`/`c` (int × int) plus derived `d` and `e`.
    pub fn registry() -> SchemaRegistry {
        let mut reg = SchemaRegistry::new();
        for t in BASE_TABLES {
            reg.declare(Schema::new(
                t,
                TableKind::MutableBase,
                [("x", FieldType::Int), ("y", FieldType::Int)],
            ));
        }
        reg.declare(Schema::new("d", TableKind::Derived, [("v", FieldType::Int)]));
        reg.declare(Schema::new("e", TableKind::Derived, [("v", FieldType::Int)]));
        reg
    }

    /// One random argument pattern: mostly variables from the tiny pool,
    /// sometimes a small constant, sometimes a wildcard.
    fn arb_pattern(rng: &mut DetRng, bound: &mut Vec<&'static str>) -> String {
        match rng.gen_range_usize(0, 10) {
            0..=6 => {
                let v = VARS[rng.gen_range_usize(0, VARS.len())];
                if !bound.contains(&v) {
                    bound.push(v);
                }
                v.to_string()
            }
            7 | 8 => rng.gen_range_i64(-2, 3).to_string(),
            _ => "_".to_string(),
        }
    }

    /// A random rule body over the base tables (plus, optionally, `d`
    /// when generating the `e` rule — a derived-on-derived join), with
    /// assignments (a head through `W`, a division, a re-bound body
    /// variable) and a comparison constraint, each sometimes.
    fn arb_rule(rng: &mut DetRng, name: &str, head_table: &str, allow_d: bool) -> String {
        let n_atoms = rng.gen_range_usize(1, 4);
        let mut bound: Vec<&'static str> = Vec::new();
        let mut atoms: Vec<String> = Vec::new();
        for i in 0..n_atoms {
            if allow_d && i == 0 {
                // The derived-table atom joins on a shared variable.
                let v = VARS[rng.gen_range_usize(0, VARS.len())];
                if !bound.contains(&v) {
                    bound.push(v);
                }
                atoms.push(format!("d(@N, {v})"));
                continue;
            }
            let t = BASE_TABLES[rng.gen_range_usize(0, BASE_TABLES.len())];
            let p1 = arb_pattern(rng, &mut bound);
            let p2 = arb_pattern(rng, &mut bound);
            atoms.push(format!("{t}(@N, {p1}, {p2})"));
        }
        if bound.is_empty() {
            // Degenerate all-constant/wildcard body: force one variable so
            // the head has something to project.
            atoms[0] = "a(@N, X, _)".to_string();
            bound.push("X");
        }
        let head_var = bound[rng.gen_range_usize(0, bound.len())];
        let mut tail = String::new();
        // Sometimes route the head through an assignment, and sometimes
        // add a comparison constraint between two bound variables — both
        // evaluate during the join, so both evaluators must treat
        // them identically.
        let head = if rng.gen_bool(0.3) {
            tail.push_str(&format!(", W := {head_var} + 1"));
            "W"
        } else {
            head_var
        };
        if bound.len() >= 2 && rng.gen_bool(0.3) {
            tail.push_str(&format!(", {} <= {}", bound[0], bound[1]));
        }
        // Two assignments the evaluators bind differently — one that
        // divides by a body variable (zero is in the value domain, and an
        // arithmetic failure drops only its match) and one that re-binds a
        // body variable — drawn from a forked stream, so every draw above
        // is what it was.
        let mut extra = rng.fork(name);
        if extra.gen_bool(0.3) {
            let v = bound[extra.gen_range_usize(0, bound.len())];
            tail.push_str(&format!(", Q := 12 / {v}"));
        }
        if extra.gen_bool(0.3) {
            let v = bound[extra.gen_range_usize(0, bound.len())];
            tail.push_str(&format!(", {v} := {v} - 1"));
        }
        format!("{name} {head_table}(@N, {head}) :- {}{tail}.", atoms.join(", "))
    }

    /// A random program: one or two rules deriving `d`, and (usually) a
    /// rule deriving `e` from `d` — so index maintenance on derived
    /// tables is exercised too. `None` when the builder rejects the text
    /// (e.g. an unbound head variable); callers skip and redraw.
    pub fn arb_program(rng: &mut DetRng) -> Option<Arc<Program>> {
        let mut text = String::new();
        for i in 0..rng.gen_range_usize(1, 3) {
            text.push_str(&arb_rule(rng, &format!("rd{i}"), "d", false));
            text.push('\n');
        }
        if rng.gen_bool(0.7) {
            text.push_str(&arb_rule(rng, "re", "e", true));
            text.push('\n');
        }
        Program::builder(registry())
            .rules_text(&text)
            .ok()?
            .build()
            .ok()
    }

    /// `(is_delete, base table index, x, y, due, second node)`.
    pub type Op = (bool, usize, i64, i64, u64, bool);

    /// The sparse schedule: values from a tiny domain so joins
    /// actually match and deletes often hit previously inserted tuples,
    /// with dues spread over a wide domain.
    pub fn join_ops(rng: &mut DetRng) -> Vec<Op> {
        (0..rng.gen_range_usize(1, 25))
            .map(|_| {
                (
                    rng.gen_bool(0.25),
                    rng.gen_range_usize(0, BASE_TABLES.len()),
                    rng.gen_range_i64(-2, 3),
                    rng.gen_range_i64(-2, 3),
                    rng.gen_range_u64(0, 50),
                    rng.gen_bool(0.2),
                )
            })
            .collect()
    }

    /// The dense schedule: dues from a *tiny* domain so most
    /// events share a timestamp with others (deep delta batches), deletes
    /// routinely land in the same timestamp as inserts, and some ops
    /// expand to a delete+insert *replacement* pair at one timestamp —
    /// the cases where batch flushing, flush-on-delete, and the `as_of`
    /// visibility horizon all matter.
    pub fn batch_ops(rng: &mut DetRng) -> Vec<Op> {
        let mut ops = Vec::new();
        for _ in 0..rng.gen_range_usize(1, 25) {
            let t = rng.gen_range_usize(0, BASE_TABLES.len());
            let due = rng.gen_range_u64(0, 8);
            let second = rng.gen_bool(0.2);
            let x = rng.gen_range_i64(-2, 3);
            let y = rng.gen_range_i64(-2, 3);
            if rng.gen_bool(0.15) {
                // Replacement: delete one tuple and insert another, same
                // tick.
                ops.push((true, t, x, y, due, second));
                ops.push((false, t, rng.gen_range_i64(-2, 3), y, due, second));
            } else {
                ops.push((rng.gen_bool(0.25), t, x, y, due, second));
            }
        }
        ops
    }

    /// Lowers int ops to [`ScheduledOp`]s: the `second` flag routes the
    /// event to node `m` instead of `n`.
    pub fn schedule(ops: &[Op]) -> Vec<ScheduledOp> {
        ops.iter()
            .map(|&(is_delete, t, x, y, due, second)| ScheduledOp {
                due,
                node: NodeId::new(if second { "m" } else { "n" }),
                tuple: tuple!(BASE_TABLES[t], x, y).into(),
                delete: is_delete,
            })
            .collect()
    }
}

/// The prefix-flavored generator shared by the reference and trace
/// differentials and the extracted-tree suite: route tables with prefix columns,
/// packet tables with IP columns, and rules carrying `prefix_contains` constraints —
/// every shape the planner turns into a trie probe, a constant probe, a
/// hash-index join, or (with `with_agg`) an aggregation fence.
pub mod prefixgen {
    use std::sync::Arc;

    use dp_types::{
        prefix::ip, tuple, DetRng, FieldType, NodeId, Prefix, Schema, SchemaRegistry, TableKind,
        Tuple, Value,
    };

    use super::ScheduledOp;
    use crate::program::Program;

    /// Route tables `rt`/`rt2` (prefix × int), packet table `pk`
    /// (ip × ip), derived `out`/`out2`, and — when `with_agg` — the
    /// aggregation head `outc`.
    pub fn registry(with_agg: bool) -> SchemaRegistry {
        let mut reg = SchemaRegistry::new();
        for t in ["rt", "rt2"] {
            reg.declare(Schema::new(
                t,
                TableKind::MutableBase,
                [("m", FieldType::Prefix), ("v", FieldType::Int)],
            ));
        }
        reg.declare(Schema::new(
            "pk",
            TableKind::MutableBase,
            [("s", FieldType::Ip), ("d", FieldType::Ip)],
        ));
        reg.declare(Schema::new("out", TableKind::Derived, [("v", FieldType::Int)]));
        reg.declare(Schema::new(
            "out2",
            TableKind::Derived,
            [("a", FieldType::Int), ("b", FieldType::Int)],
        ));
        if with_agg {
            reg.declare(Schema::new(
                "outc",
                TableKind::Derived,
                [("c", FieldType::Int)],
            ));
        }
        reg
    }

    /// Random address drawn from a 16-address pool, so packets routinely
    /// hit (and routinely miss) the generated route entries.
    pub fn arb_addr_str(rng: &mut DetRng) -> String {
        format!(
            "10.0.{}.{}",
            rng.gen_range_u64(0, 4),
            rng.gen_range_u64(0, 4)
        )
    }

    /// The same pool as a raw address.
    pub fn arb_addr(rng: &mut DetRng) -> u32 {
        ip(&arb_addr_str(rng))
    }

    /// Random route prefix over the same pool. Lengths cluster at the
    /// byte boundaries that make containment chains (`/0` covers
    /// everything, `/32` exactly one packet, `/24` a column of the pool),
    /// plus arbitrary odd lengths so path compression forks mid-byte.
    pub fn arb_route_prefix(rng: &mut DetRng) -> Prefix {
        let len = match rng.gen_range_usize(0, 8) {
            0 => 0,
            1 => 8,
            2 | 3 => 24,
            4 | 5 => 32,
            _ => rng.gen_range_usize(0, 33) as u8,
        };
        Prefix::new(arb_addr(rng), len).unwrap()
    }

    /// One random rule. Every shape the planner distinguishes:
    ///
    /// 0. packet triggers, route scanned — the trie-probe shape (the
    ///    campus `fwd` rule); when the *route* triggers instead, the same
    ///    rule's other plan post-filters the constraint;
    /// 1. route listed first — same two plans, opposite trigger bias;
    /// 2. constraint against a literal address — a literal trie address;
    /// 3. two route tables, two constraints — two tries on one rule;
    /// 4. two route tables equality-joined on the value column — the
    ///    hash index must win over the trie on the second atom;
    /// 5. (only with `with_agg`) a fence-triggered aggregation —
    ///    aggregations re-read whole tables under the delta's horizon,
    ///    the easiest place for a frozen-state violation to hide.
    fn arb_rule(rng: &mut DetRng, i: usize, with_agg: bool) -> String {
        let pv = if rng.gen_bool(0.5) { "S" } else { "D" };
        let filter = if rng.gen_bool(0.25) { ", V <= 1" } else { "" };
        let shapes = if with_agg { 6 } else { 5 };
        match rng.gen_range_usize(0, shapes) {
            0 => format!(
                "r{i} out(@N, V) :- pk(@N, S, D), rt(@N, M, V), prefix_contains(M, {pv}){filter}."
            ),
            1 => format!(
                "r{i} out(@N, V) :- rt(@N, M, V), pk(@N, S, D), prefix_contains(M, {pv}){filter}."
            ),
            2 => format!(
                "r{i} out(@N, V) :- rt(@N, M, V), prefix_contains(M, {}){filter}.",
                arb_addr_str(rng)
            ),
            3 => format!(
                "r{i} out2(@N, V, W) :- pk(@N, S, D), rt(@N, M, V), rt2(@N, M2, W), \
                 prefix_contains(M, S), prefix_contains(M2, D)."
            ),
            4 => format!(
                "r{i} out2(@N, V, V) :- pk(@N, S, D), rt(@N, M, V), rt2(@N, M2, V), \
                 prefix_contains(M, {pv}), prefix_contains(M2, D)."
            ),
            _ => format!("r{i} outc(@N, agg_count(V)) :- pk(@N, S, D), rt(@N, M, V)."),
        }
    }

    /// A random program of 1–3 rules. `None` when the builder rejects
    /// the text; callers skip and redraw.
    pub fn arb_program(rng: &mut DetRng, with_agg: bool) -> Option<Arc<Program>> {
        let mut text = String::new();
        for i in 0..rng.gen_range_usize(1, 4) {
            text.push_str(&arb_rule(rng, i, with_agg));
            text.push('\n');
        }
        Program::builder(registry(with_agg))
            .rules_text(&text)
            .ok()?
            .build()
            .ok()
    }

    /// [`registry`] plus the forwarding heads: `fw` (ip × int), which
    /// carries a packet's source, and `rd` (prefix × int), a route copied
    /// off `rt`.
    pub fn forwarding_registry() -> SchemaRegistry {
        let mut reg = registry(false);
        reg.declare(Schema::new(
            "fw",
            TableKind::Derived,
            [("s", FieldType::Ip), ("v", FieldType::Int)],
        ));
        reg.declare(Schema::new(
            "rd",
            TableKind::Derived,
            [("m", FieldType::Prefix), ("v", FieldType::Int)],
        ));
        reg
    }

    /// One random forwarding rule: a packet keyed by its source meets
    /// route entries through `prefix_contains` checks — the shapes that
    /// give a slice plan's routes a guard — or a rule that takes a guard
    /// away again:
    ///
    /// 0. one route checked against the source or destination;
    /// 1. two routes, each checked against one address;
    /// 2. `rt` copied into `rd` (carried), `rd` checked;
    /// 3. a route read without a packet, against a literal address — it
    ///    neither checks against a packet nor carries the prefix.
    fn arb_forwarding_rule(rng: &mut DetRng, i: usize) -> String {
        let pv = if rng.gen_bool(0.5) { "S" } else { "D" };
        match rng.gen_range_usize(0, 5) {
            0 | 1 => format!(
                "f{i} fw(@N, S, V) :- pk(@N, S, D), rt(@N, M, V), prefix_contains(M, {pv})."
            ),
            2 => format!(
                "f{i} fw(@N, S, W) :- pk(@N, S, D), rt(@N, M, V), rt2(@N, M2, W), \
                 prefix_contains(M, S), prefix_contains(M2, D)."
            ),
            3 => format!(
                "c{i} rd(@N, M, V) :- rt(@N, M, V).\n\
                 f{i} fw(@N, S, V) :- pk(@N, S, D), rd(@N, M, V), prefix_contains(M, {pv})."
            ),
            _ => format!(
                "r{i} out(@N, V) :- rt(@N, M, V), prefix_contains(M, {}).",
                arb_addr_str(rng)
            ),
        }
    }

    /// A random program of 1–3 [`arb_forwarding_rule`]s over
    /// [`forwarding_registry`], run on [`arb_ops`]' schedules. `None` when
    /// the builder rejects the text.
    pub fn arb_forwarding_program(rng: &mut DetRng) -> Option<Arc<Program>> {
        let mut text = String::new();
        for i in 0..rng.gen_range_usize(1, 4) {
            text.push_str(&arb_forwarding_rule(rng, i));
            text.push('\n');
        }
        Program::builder(forwarding_registry()).rules_text(&text).ok()?.build().ok()
    }

    /// `(is_delete, due, tuple)`.
    pub type Op = (bool, u64, Tuple);

    /// Random route-entry and packet churn with dues from a tiny domain,
    /// so deletes land in the same tick as inserts and delta batches go
    /// deep. Some ops expand to a delete+insert *replacement* of one
    /// route entry at a single timestamp. The op count and due domain are
    /// the knobs the suites differ on (reference: 4–30 ops over 6 ticks;
    /// trace: 8–40 ops over 4 ticks).
    pub fn arb_ops(rng: &mut DetRng, min_ops: usize, max_ops: usize, max_due: u64) -> Vec<Op> {
        let mut ops = Vec::new();
        for _ in 0..rng.gen_range_usize(min_ops, max_ops) {
            let due = rng.gen_range_u64(0, max_due);
            let route = |rng: &mut DetRng| {
                let t = if rng.gen_bool(0.7) { "rt" } else { "rt2" };
                tuple!(t, arb_route_prefix(rng), rng.gen_range_i64(0, 3))
            };
            if rng.gen_bool(0.4) {
                ops.push((
                    rng.gen_bool(0.2),
                    due,
                    tuple!("pk", Value::Ip(arb_addr(rng)), Value::Ip(arb_addr(rng))),
                ));
            } else if rng.gen_bool(0.2) {
                // Replacement: swap one route entry for another, same tick.
                let old = route(rng);
                let new = route(rng);
                ops.push((true, due, old));
                ops.push((false, due, new));
            } else {
                ops.push((rng.gen_bool(0.25), due, route(rng)));
            }
        }
        ops
    }

    /// Lowers prefix ops onto the single node `n`, so every packet meets
    /// every route entry.
    pub fn single_node_schedule(ops: &[Op]) -> Vec<ScheduledOp> {
        ops.iter()
            .map(|(is_delete, due, tup)| ScheduledOp {
                due: *due,
                node: NodeId::new("n"),
                tuple: tup.clone().into(),
                delete: *is_delete,
            })
            .collect()
    }

    /// Lowers prefix ops alternating between nodes `n` and `n2` (every
    /// third op), so group runs inside a batch actually break — the
    /// trace suite's shape.
    pub fn alternating_schedule(ops: &[Op]) -> Vec<ScheduledOp> {
        ops.iter()
            .enumerate()
            .map(|(i, (is_delete, due, tup))| ScheduledOp {
                due: *due,
                node: NodeId::new(if i % 3 == 0 { "n2" } else { "n" }),
                tuple: tup.clone().into(),
                delete: *is_delete,
            })
            .collect()
    }
}

/// The multi-node generator: a six-node roster with random neighbour
/// links, local rules plus a guaranteed cross-node forward and an optional
/// second hop.
pub mod nodegen {
    use std::sync::Arc;

    use dp_types::{tuple, DetRng, FieldType, NodeId, Schema, SchemaRegistry, TableKind};

    use super::ScheduledOp;
    use crate::program::Program;

    /// The node roster.
    pub const NODES: [&str; 6] = ["n0", "n1", "n2", "n3", "n4", "n5"];
    const VARS: [&str; 2] = ["X", "Y"];

    /// Base tables `ln` (int × int), `nbr` (str), `fence` (int) and the
    /// derived tables `d`, `msg`, `hop`, `tot`.
    pub fn registry() -> SchemaRegistry {
        let mut reg = SchemaRegistry::new();
        reg.declare(Schema::new(
            "ln",
            TableKind::MutableBase,
            [("x", FieldType::Int), ("y", FieldType::Int)],
        ));
        reg.declare(Schema::new(
            "nbr",
            TableKind::MutableBase,
            [("next", FieldType::Str)],
        ));
        reg.declare(Schema::new(
            "fence",
            TableKind::MutableBase,
            [("g", FieldType::Int)],
        ));
        reg.declare(Schema::new("d", TableKind::Derived, [("v", FieldType::Int)]));
        reg.declare(Schema::new("msg", TableKind::Derived, [("v", FieldType::Int)]));
        reg.declare(Schema::new("hop", TableKind::Derived, [("v", FieldType::Int)]));
        reg.declare(Schema::new("tot", TableKind::Derived, [("c", FieldType::Int)]));
        reg
    }

    fn arb_pattern(rng: &mut DetRng, bound: &mut Vec<&'static str>) -> String {
        match rng.gen_range_usize(0, 10) {
            0..=6 => {
                let v = VARS[rng.gen_range_usize(0, VARS.len())];
                if !bound.contains(&v) {
                    bound.push(v);
                }
                v.to_string()
            }
            7 | 8 => rng.gen_range_i64(-2, 3).to_string(),
            _ => "_".to_string(),
        }
    }

    /// Local rule shapes: single-atom projections, self-joins, arithmetic
    /// heads, and aggregation fences. Cross-node traffic is added
    /// separately so every generated program sends messages between
    /// nodes.
    fn arb_rule(rng: &mut DetRng, i: usize) -> String {
        match rng.gen_range_usize(0, 5) {
            0 | 1 => {
                let mut bound = Vec::new();
                let p1 = arb_pattern(rng, &mut bound);
                let p2 = arb_pattern(rng, &mut bound);
                if bound.is_empty() {
                    return format!("r{i} d(@N, X) :- ln(@N, X, _).");
                }
                let head = bound[rng.gen_range_usize(0, bound.len())];
                format!("r{i} d(@N, {head}) :- ln(@N, {p1}, {p2}).")
            }
            2 => format!("r{i} d(@N, X) :- ln(@N, X, Y), ln(@N, Y, _)."),
            3 => format!("r{i} d(@N, W) :- ln(@N, X, Y), W := X + Y."),
            _ => {
                let agg = ["agg_sum", "agg_count", "agg_max"][rng.gen_range_usize(0, 3)];
                format!("r{i} tot(@N, {agg}(X)) :- fence(@N, G), ln(@N, X, Y).")
            }
        }
    }

    /// A random program of local rules plus the guaranteed cross-node
    /// forward `fwd msg(@M, X) :- ln(@N, X, _), nbr(@N, M).` — and, half
    /// the time, a second hop so a message received from another node
    /// re-fires and emits again within the same batch cascade.
    pub fn arb_program(rng: &mut DetRng) -> Option<Arc<Program>> {
        let mut text = String::new();
        for i in 0..rng.gen_range_usize(1, 3) {
            text.push_str(&arb_rule(rng, i));
            text.push('\n');
        }
        text.push_str("fwd msg(@M, X) :- ln(@N, X, _), nbr(@N, M).\n");
        if rng.gen_bool(0.5) {
            text.push_str("hp hop(@M, V) :- msg(@N, V), nbr(@N, M).\n");
        }
        Program::builder(registry())
            .rules_text(&text)
            .ok()?
            .build()
            .ok()
    }

    /// `(is_delete, node index, x, y, due)`.
    pub type Op = (bool, usize, i64, i64, u64);

    /// Random `ln` churn over the roster. Dues come from a tiny domain so
    /// most events share a timestamp (deep batches spanning several
    /// nodes), and deletes land in the same tick as inserts.
    pub fn arb_ops(rng: &mut DetRng) -> Vec<Op> {
        let mut ops = Vec::new();
        for _ in 0..rng.gen_range_usize(4, 30) {
            let n = rng.gen_range_usize(0, NODES.len());
            let due = rng.gen_range_u64(1, 7);
            let x = rng.gen_range_i64(-2, 3);
            let y = rng.gen_range_i64(-2, 3);
            if rng.gen_bool(0.15) {
                // Replacement: delete one tuple and insert another, same
                // tick.
                ops.push((true, n, x, y, due));
                ops.push((false, n, rng.gen_range_i64(-2, 3), y, due));
            } else {
                ops.push((rng.gen_bool(0.25), n, x, y, due));
            }
        }
        ops
    }

    /// The topology schedule at tick 0: every node exists (one seed fact)
    /// and points at 1–2 random neighbours, so `@M` heads always name
    /// declared nodes; half the nodes drop an aggregation fence mid-run.
    /// Built once per case from the topology seed so both evaluators see
    /// the identical schedule.
    pub fn topology_schedule(rng_topo: &mut DetRng) -> Vec<ScheduledOp> {
        let mut sched = Vec::new();
        for (i, name) in NODES.iter().enumerate() {
            let node = NodeId::new(*name);
            sched.push(ScheduledOp::insert(
                0,
                node,
                tuple!("ln", i as i64, 0i64),
            ));
            for _ in 0..rng_topo.gen_range_usize(1, 3) {
                let next = NODES[rng_topo.gen_range_usize(0, NODES.len())];
                sched.push(ScheduledOp::insert(0, node, tuple!("nbr", next)));
            }
            if rng_topo.gen_bool(0.5) {
                sched.push(ScheduledOp::insert(
                    rng_topo.gen_range_u64(3, 7),
                    node,
                    tuple!("fence", 1i64),
                ));
            }
        }
        sched
    }

    /// Lowers churn ops onto the roster, appended after the topology.
    pub fn schedule(ops: &[Op]) -> Vec<ScheduledOp> {
        ops.iter()
            .map(|&(is_delete, n, x, y, due)| ScheduledOp {
                due,
                node: NodeId::new(NODES[n]),
                tuple: tuple!("ln", x, y).into(),
                delete: is_delete,
            })
            .collect()
    }
}
