//! Shared scaffolding for the seeded differential suites and `dp-sim`.
//!
//! Every differential suite in `crates/ndlog/tests/` — and the `dp-sim`
//! fault-injection harness built on top of them — follows one recipe:
//! generate a random program and a random event schedule from a
//! [`DetRng`](dp_types::DetRng) seed, run them under several engine
//! configurations, and require the runs to agree on everything
//! observable. This module is that recipe, extracted once: the
//! [`EngineConfig`] knob matrix, the [`ScheduledOp`]/[`Outcome`] run
//! harness, the program/schedule generators (int-flavored, prefix-
//! flavored, and multi-node), and the stat-stripping helpers that
//! define which counters are *effort* (allowed to differ between
//! configurations) rather than *semantics* (compared verbatim).
//!
//! The generators are moved here **verbatim** from the suites that
//! introduced them: their RNG consumption order is part of the test
//! contract, because every pinned seed in the differential suites and in
//! the `dp-sim` corpus reproduces its case only as long as the stream of
//! draws is unchanged. Extend by *appending* draws (or by forking a
//! child stream with [`DetRng::fork`](dp_types::DetRng::fork)), never by
//! reordering existing ones.
//!
//! Compiled only with the `testing` feature: the crate's own integration
//! tests enable it through the self-referential dev-dependency, and
//! `dp-sim` enables it as a regular dependency.

use std::collections::BTreeMap;
use std::sync::Arc;

use dp_trace::Tracer;
use dp_types::{NodeId, Sym, Tuple};

use crate::engine::{Engine, Stats};
use crate::program::Program;
use crate::sink::{ProvEvent, ProvenanceSink, VecSink};

/// One engine configuration of the differential matrix.
///
/// `None` knobs are left untouched, so the engine still honors the
/// `DP_UNBATCHED` / `DP_NO_TRIE` environment legs of `scripts/check.sh`;
/// `Some` pins the knob regardless of the environment.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Display label used in assertion messages.
    pub label: &'static str,
    /// Pin the naive nested-loop join reference path.
    pub naive_join: Option<bool>,
    /// Pin the tuple-at-a-time firing discipline.
    pub unbatched: Option<bool>,
    /// Pin the ordered-scan access path (trie disabled).
    pub no_trie: Option<bool>,
}

impl EngineConfig {
    /// A configuration that inherits every knob from the environment.
    pub const fn inherit(label: &'static str) -> Self {
        EngineConfig {
            label,
            naive_join: None,
            unbatched: None,
            no_trie: None,
        }
    }

    /// The canonical four-configuration matrix: the batched default, the
    /// tuple-at-a-time firing path, the trie-disabled batched path, and
    /// the naive nested-loop unbatched path. Every configuration must be
    /// observably identical.
    pub const fn matrix() -> [EngineConfig; 4] {
        const fn cfg(
            label: &'static str,
            naive: bool,
            unbatched: bool,
            no_trie: bool,
        ) -> EngineConfig {
            EngineConfig {
                label,
                naive_join: Some(naive),
                unbatched: Some(unbatched),
                no_trie: Some(no_trie),
            }
        }
        [
            cfg("batched", false, false, false),
            cfg("unbatched", false, true, false),
            cfg("no-trie", false, false, true),
            cfg("naive-unbatched", true, true, false),
        ]
    }

    /// Applies the pinned knobs to an engine, leaving `None` knobs at
    /// whatever the engine inherited from the environment.
    pub fn apply<S: ProvenanceSink>(&self, eng: &mut Engine<S>) {
        if let Some(naive) = self.naive_join {
            eng.set_naive_join(naive);
        }
        if let Some(unbatched) = self.unbatched {
            eng.set_unbatched(unbatched);
        }
        if let Some(no_trie) = self.no_trie {
            eng.set_no_trie(no_trie);
        }
    }
}

/// One scheduled base-table event: the unit every generator lowers to and
/// the unit the shrinker in `dp-sim` removes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduledOp {
    /// Delivery timestamp.
    pub due: u64,
    /// Destination node.
    pub node: NodeId,
    /// The base tuple inserted or deleted.
    pub tuple: Tuple,
    /// `true` for a deletion, `false` for an insertion.
    pub delete: bool,
}

impl ScheduledOp {
    /// An insertion.
    pub fn insert(due: u64, node: impl Into<NodeId>, tuple: Tuple) -> Self {
        ScheduledOp {
            due,
            node: node.into(),
            tuple,
            delete: false,
        }
    }

    /// A deletion.
    pub fn delete(due: u64, node: impl Into<NodeId>, tuple: Tuple) -> Self {
        ScheduledOp {
            due,
            node: node.into(),
            tuple,
            delete: true,
        }
    }
}

/// Everything observable about one engine run. Two configurations agree
/// when their outcomes agree (modulo the documented effort counters —
/// see the `strip_*` helpers).
pub struct Outcome {
    /// The raw provenance event stream, byte-for-byte comparable.
    pub events: Vec<ProvEvent>,
    /// The rendered deterministic trace skeleton, when the run was traced.
    pub skeleton: Option<String>,
    /// Per-rule firing counts.
    pub firings: BTreeMap<Sym, u64>,
    /// Raw stat counters (strip effort counters before comparing across
    /// configurations that legitimately differ in effort).
    pub stats: Stats,
    /// The final fixpoint: every live tuple with its support count.
    pub fixpoint: Vec<(NodeId, Tuple, usize)>,
}

/// Runs a schedule under one configuration and collects the [`Outcome`].
pub fn run_schedule(program: &Arc<Program>, ops: &[ScheduledOp], cfg: &EngineConfig) -> Outcome {
    run_impl(program, ops, cfg, false)
}

/// Like [`run_schedule`], but with a fully recording tracer attached;
/// `Outcome::skeleton` carries the rendered deterministic skeleton.
pub fn run_schedule_traced(
    program: &Arc<Program>,
    ops: &[ScheduledOp],
    cfg: &EngineConfig,
) -> Outcome {
    run_impl(program, ops, cfg, true)
}

fn run_impl(
    program: &Arc<Program>,
    ops: &[ScheduledOp],
    cfg: &EngineConfig,
    traced: bool,
) -> Outcome {
    let mut eng = Engine::new(Arc::clone(program), VecSink::default());
    cfg.apply(&mut eng);
    let tracer = traced.then(Tracer::full);
    if let Some(t) = &tracer {
        eng.set_tracer(t.clone());
    }
    for op in ops {
        if op.delete {
            eng.schedule_delete(op.due, op.node.clone(), op.tuple.clone())
                .unwrap();
        } else {
            eng.schedule_insert(op.due, op.node.clone(), op.tuple.clone())
                .unwrap();
        }
    }
    eng.run().unwrap();
    let firings = eng.rule_firings().clone();
    let stats = eng.stats();
    let fixpoint = eng
        .nodes()
        .flat_map(|(node, st)| {
            st.all()
                .map(|(t, s)| (node.clone(), t.clone(), s.support()))
                .collect::<Vec<_>>()
        })
        .collect();
    Outcome {
        events: eng.into_sink().events,
        skeleton: tracer.map(|t| t.finish().skeleton()),
        firings,
        stats,
        fixpoint,
    }
}

/// Zeroes the counters that legitimately differ between the batched and
/// tuple-at-a-time disciplines: the batch bookkeeping itself, plus the
/// join effort counters (the batched flush prunes whole delta groups
/// whose join cannot complete, so it runs fewer probe/scan steps — but a
/// pruned join can never have produced a match, so `join_matches` and
/// every semantic counter must still agree exactly).
pub fn strip_batch_counters(stats: Stats) -> Stats {
    Stats {
        batches: 0,
        batched_deltas: 0,
        join_probes: 0,
        join_scans: 0,
        join_candidates: 0,
        ..stats
    }
}

/// Zeroes every effort counter that shifts between access paths *and*
/// firing disciplines: a trie probe replaces a scan, the batched
/// discipline prunes delta groups, and `join_matches` shifts because a
/// route entry whose prefix does not contain the probed address still
/// *pattern*-matches the atom under a scan (the constraint rejects it
/// afterwards) whereas the trie never surfaces it. None of that may
/// change what the rules fire.
pub fn strip_effort_counters(stats: Stats) -> Stats {
    Stats {
        batches: 0,
        batched_deltas: 0,
        join_probes: 0,
        join_scans: 0,
        join_candidates: 0,
        join_matches: 0,
        trie_probes: 0,
        trie_scans: 0,
        ..stats
    }
}

/// The int-flavored generator shared by the join and batch differential
/// suites: tiny two-column integer base tables, rules with shared join
/// variables, assignments, and comparison constraints, and derived-on-
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
    /// when generating the `e` rule — a derived-on-derived join).
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
        // evaluate during the join, so every configuration must treat
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

    /// The join suite's schedule: values from a tiny domain so joins
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

    /// The batch suite's schedule: dues from a *tiny* domain so most
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
                tuple: tuple!(BASE_TABLES[t], x, y),
                delete: is_delete,
            })
            .collect()
    }
}

/// The prefix-flavored generator shared by the trie, trace, and metrics
/// differential suites: route tables with prefix columns, packet tables
/// with IP columns, and rules carrying `prefix_contains` constraints —
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
    /// 2. constraint against a literal address — `IpSource::Const`;
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

    /// `(is_delete, due, tuple)`.
    pub type Op = (bool, u64, Tuple);

    /// Random route-entry and packet churn with dues from a tiny domain,
    /// so deletes land in the same tick as inserts and delta batches go
    /// deep. Some ops expand to a delete+insert *replacement* of one
    /// route entry at a single timestamp. The op count and due domain are
    /// the knobs the suites differ on (trie: 4–30 ops over 6 ticks;
    /// trace/metrics: 8–40 ops over 4 ticks).
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

    /// Lowers prefix ops onto the single node `n` (the trie suite's
    /// shape: one node, so the trie is the only variable).
    pub fn single_node_schedule(ops: &[Op]) -> Vec<ScheduledOp> {
        ops.iter()
            .map(|(is_delete, due, tup)| ScheduledOp {
                due: *due,
                node: NodeId::new("n"),
                tuple: tup.clone(),
                delete: *is_delete,
            })
            .collect()
    }

    /// Lowers prefix ops alternating between nodes `n` and `n2` (every
    /// third op), so group runs inside a batch actually break — the
    /// trace and metrics suites' shape.
    pub fn alternating_schedule(ops: &[Op]) -> Vec<ScheduledOp> {
        ops.iter()
            .enumerate()
            .map(|(i, (is_delete, due, tup))| ScheduledOp {
                due: *due,
                node: NodeId::new(if i % 3 == 0 { "n2" } else { "n" }),
                tuple: tup.clone(),
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
    /// Built once per case from the topology seed so all configurations
    /// see the identical schedule.
    pub fn topology_schedule(rng_topo: &mut DetRng) -> Vec<ScheduledOp> {
        let mut sched = Vec::new();
        for (i, name) in NODES.iter().enumerate() {
            let node = NodeId::new(*name);
            sched.push(ScheduledOp::insert(
                0,
                node.clone(),
                tuple!("ln", i as i64, 0i64),
            ));
            for _ in 0..rng_topo.gen_range_usize(1, 3) {
                let next = NODES[rng_topo.gen_range_usize(0, NODES.len())];
                sched.push(ScheduledOp::insert(0, node.clone(), tuple!("nbr", next)));
            }
            if rng_topo.gen_bool(0.5) {
                sched.push(ScheduledOp::insert(
                    rng_topo.gen_range_u64(3, 7),
                    node.clone(),
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
                tuple: tuple!("ln", x, y),
                delete: is_delete,
            })
            .collect()
    }
}
