//! Differential test of the engine against its oracle.
//!
//! The engine (`dp_ndlog::Engine`) is batched, hash-indexed and
//! trie-probed; the oracle (`dp_ndlog::reference::evaluate`) is a serial,
//! tuple-at-a-time, nested-loop evaluator that shares no firing, join,
//! cascade or queue code with it. Random small programs and random
//! insert/delete schedules are run through both, and the engine must
//! reproduce *everything* the oracle produces: the provenance event
//! stream (byte-for-byte, including derivation order, body order, trigger
//! indexes, and timestamps) and the final tables (every live tuple with
//! its base flag, derivation records and appearance time). The engine's
//! semantic counters and per-rule firings must count exactly what the
//! oracle's stream holds. The full repro scenario corpus (4 SDN +
//! 4 MapReduce + the campus network) goes through both too.
//!
//! This is the safety net for every engine optimization at once: an
//! ordering leak or stale entry in a hash index, a trie probe that misses
//! a covering prefix, a join that sees a same-batch tuple behind its
//! visibility horizon, a reordered push or a mis-sequenced sink flush all
//! show up as a stream divergence here. Each generator aims at one of
//! them — sparse int schedules at the join planner, dense same-tick
//! schedules at batching and flush-on-delete, prefix programs at the trie,
//! multi-node programs at cross-node delivery and aggregation fences,
//! fan-out programs at the push order of a flush (several rules, an
//! aggregate and a native on one trigger table, same-`due` bursts whose
//! heads collide on one `due`).
//! Programs come from the shared generators in `dp_ndlog::testsupport`
//! (offline build — no property-testing framework), so every case is
//! reproducible from the seeds below.

use std::collections::BTreeMap;
use std::sync::Arc;

use dp_ndlog::testsupport::{intgen, nodegen, prefixgen, run_checked, run_schedule, ScheduledOp};
use dp_ndlog::{
    parse_rules, Emitter, Engine, NativeRule, NodeView, Program, ProvEvent, VecSink,
};
use dp_types::{
    tuple, DetRng, FieldType, NodeId, Schema, SchemaRegistry, Sym, TableKind, Tuple, TupleRef,
};

/// Sparse schedules (dues over a wide domain): the join planner's cases.
#[test]
fn engine_matches_oracle_on_sparse_int_schedules() {
    let mut rng = DetRng::seed_from_u64(0xD1FF_C0DE);
    let mut cases = 0usize;
    while cases < 96 {
        let Some(program) = intgen::arb_program(&mut rng) else {
            continue; // Rejected by the builder (e.g. unbound head var).
        };
        let ops = intgen::schedule(&intgen::join_ops(&mut rng));
        cases += 1;
        run_checked(&program, &ops, &format!("case {cases}"));
    }
}

/// Dense schedules — many events sharing one timestamp, deletes landing
/// in the same tick as inserts, same-tick replacements — the cases where
/// batch flushing, flush-on-delete, and the `as_of` visibility horizon
/// all matter.
#[test]
fn engine_matches_oracle_on_dense_int_schedules() {
    let mut rng = DetRng::seed_from_u64(0xBA7C_4ED0);
    let mut cases = 0usize;
    let mut total_batched_deltas = 0u64;
    while cases < 96 {
        let Some(program) = intgen::arb_program(&mut rng) else {
            continue;
        };
        let ops = intgen::schedule(&intgen::batch_ops(&mut rng));
        cases += 1;
        let got = run_checked(&program, &ops, &format!("case {cases}"));
        total_batched_deltas += got.stats.batched_deltas;
    }
    // The schedule generator must actually exercise batching, or the suite
    // proves nothing.
    assert!(
        total_batched_deltas > 500,
        "suite barely batched: {total_batched_deltas} deltas"
    );
}

/// Same-tick inserts form one batch.
#[test]
fn batched_mode_reports_batches() {
    let program: Arc<Program> = Program::builder(intgen::registry())
        .rules_text("rd0 d(@N, X) :- a(@N, X, _).")
        .unwrap()
        .build()
        .unwrap();
    let ops: Vec<ScheduledOp> = (0..8)
        .map(|i| ScheduledOp::insert(3, "n", tuple!("a", i as i64, 0i64)))
        .collect();
    let got = run_schedule(&program, &ops);
    assert!(got.stats.batches > 0);
    assert!(got.stats.batched_deltas >= 8);
}

/// A dense program where the one rule joins three atoms on one shared key
/// from a tiny domain — many candidate tuples share each index bucket —
/// under 16 random churn schedules.
fn dense_three_way_join(seed: u64, p_delete: f64, values: i64, ticks: u64) {
    let mut reg = SchemaRegistry::new();
    for t in ["p", "q", "r"] {
        reg.declare(Schema::new(
            t,
            TableKind::MutableBase,
            [("k", FieldType::Int), ("v", FieldType::Int)],
        ));
    }
    reg.declare(Schema::new(
        "out",
        TableKind::Derived,
        [
            ("a", FieldType::Int),
            ("b", FieldType::Int),
            ("c", FieldType::Int),
        ],
    ));
    let program: Arc<Program> = Program::builder(reg)
        .rules_text("j out(@N, A, B, C) :- p(@N, K, A), q(@N, K, B), r(@N, K, C).")
        .unwrap()
        .build()
        .unwrap();

    let mut rng = DetRng::seed_from_u64(seed);
    for case in 0..16 {
        let n_ops = rng.gen_range_usize(10, 60);
        let ops: Vec<ScheduledOp> = (0..n_ops)
            .map(|_| {
                let delete = rng.gen_bool(p_delete);
                let table = ["p", "q", "r"][rng.gen_range_usize(0, 3)];
                let k = rng.gen_range_i64(0, 3); // few keys => deep buckets
                let v = rng.gen_range_i64(0, values);
                let due = rng.gen_range_u64(0, ticks);
                ScheduledOp {
                    due,
                    node: "n".into(),
                    tuple: tuple!(table, k, v).into(),
                    delete,
                }
            })
            .collect();
        run_checked(&program, &ops, &format!("case {case}"));
    }
}

/// The worst case for ordering bugs in the indexed join.
#[test]
fn engine_matches_oracle_on_dense_shared_key_joins() {
    dense_three_way_join(0x0DE5_E001, 0.2, 10, 30);
}

/// Few ticks => deep batches: inserts, deletes, and replacements of
/// overlapping tuples all at a handful of timestamps — the worst case for
/// flush-on-delete and visibility horizons.
#[test]
fn engine_matches_oracle_on_dense_same_timestamp_churn() {
    dense_three_way_join(0x0DE5_BA7C, 0.3, 6, 4);
}

/// Programs whose rules carry `prefix_contains` constraints — the shape
/// the planner turns into a trie probe.
#[test]
fn engine_matches_oracle_on_random_prefix_programs() {
    let mut rng = DetRng::seed_from_u64(0x7A1E_D1FF);
    let mut cases = 0usize;
    let mut total_trie_probes = 0u64;
    while cases < 96 {
        let Some(program) = prefixgen::arb_program(&mut rng, false) else {
            continue;
        };
        let ops = prefixgen::single_node_schedule(&prefixgen::arb_ops(&mut rng, 4, 30, 6));
        cases += 1;
        let got = run_checked(&program, &ops, &format!("case {cases}"));
        assert_eq!(
            got.stats.trie_scans, 0,
            "trie fell back to a scan (case {cases})"
        );
        total_trie_probes += got.stats.trie_probes;
    }
    // The generator must actually exercise the trie path, or the suite
    // proves nothing.
    assert!(
        total_trie_probes > 200,
        "suite barely probed the trie: {total_trie_probes}"
    );
}

/// Multi-node programs: cross-node forwards with link delays, a second
/// hop re-firing inside the same cascade, aggregation fences.
#[test]
fn engine_matches_oracle_on_random_multi_node_programs() {
    let mut rng = DetRng::seed_from_u64(0x0DE5_54AD);
    let mut cases = 0usize;
    while cases < 48 {
        let Some(program) = nodegen::arb_program(&mut rng) else {
            continue;
        };
        let mut ops = nodegen::topology_schedule(&mut rng);
        ops.extend(nodegen::schedule(&nodegen::arb_ops(&mut rng)));
        cases += 1;
        run_checked(&program, &ops, &format!("case {cases}"));
    }
}

/// The fan-out family: one trigger table `e` fires two cross-node rules
/// with random link delays, a local aggregate and a native with its own
/// delay, in bursts of 3–6 same-`due` tuples on one or two nodes. Within
/// a burst the deltas' clocks are consecutive, so heads scheduled by
/// different deltas through different delays land on one `due`, where
/// only the flush's push order separates them; deletions at later ticks
/// cascade through all four kinds of head.
mod fanout {
    use super::*;

    /// Reports `g(X)` at the trigger's node, `delay` ticks late.
    struct Echo {
        delay: u64,
    }
    impl NativeRule for Echo {
        fn name(&self) -> Sym {
            Sym::new("nat")
        }
        fn triggers(&self) -> Vec<Sym> {
            vec![Sym::new("e")]
        }
        fn fire(
            &self,
            view: &NodeView<'_>,
            trigger: &Tuple,
            out: &mut Emitter,
        ) -> dp_types::Result<()> {
            out.emit_delayed(
                *view.node,
                Tuple::new("g", vec![trigger.args[0].clone()]),
                vec![TupleRef::new(*view.node, trigger.clone())],
                self.delay,
            );
            Ok(())
        }
    }

    fn registry() -> SchemaRegistry {
        let mut reg = SchemaRegistry::new();
        reg.declare(Schema::new("e", TableKind::MutableBase, [("x", FieldType::Int)]));
        reg.declare(Schema::new("obs", TableKind::MutableBase, [("c", FieldType::Int)]));
        reg.declare(Schema::new("peer", TableKind::MutableBase, [("next", FieldType::Str)]));
        for head in ["d", "f", "g", "h"] {
            reg.declare(Schema::new(head, TableKind::Derived, [("x", FieldType::Int)]));
        }
        reg.declare(Schema::new(
            "tot",
            TableKind::Derived,
            [("x", FieldType::Int), ("v", FieldType::Int)],
        ));
        reg
    }

    pub fn arb_program(rng: &mut DetRng) -> Arc<Program> {
        let agg = ["agg_sum", "agg_count", "agg_max"][rng.gen_range_usize(0, 3)];
        let mut rules = parse_rules(&format!(
            "far d(@M, X) :- e(@N, X), peer(@N, M).\n\
             near f(@M, X) :- e(@N, X), peer(@N, M).\n\
             cnt tot(@N, X, {agg}(C)) :- e(@N, X), obs(@N, C).\n\
             hop h(@N, X) :- d(@N, X)."
        ))
        .unwrap();
        rules[0].link_delay = rng.gen_range_u64(1, 4);
        rules[1].link_delay = rng.gen_range_u64(1, 4);
        Program::builder(registry())
            .rules(rules)
            .native(Arc::new(Echo {
                delay: rng.gen_range_u64(0, 4),
            }))
            .build()
            .unwrap()
    }

    pub fn arb_schedule(rng: &mut DetRng) -> Vec<ScheduledOp> {
        const NODES: [&str; 3] = ["n0", "n1", "n2"];
        let mut ops = Vec::new();
        for (i, node) in NODES.iter().enumerate() {
            for _ in 0..rng.gen_range_usize(1, 3) {
                let next = NODES[(i + rng.gen_range_usize(1, NODES.len())) % NODES.len()];
                ops.push(ScheduledOp::insert(0, *node, tuple!("peer", next)));
            }
            for _ in 0..rng.gen_range_usize(0, 3) {
                ops.push(ScheduledOp::insert(0, *node, tuple!("obs", rng.gen_range_i64(1, 6))));
            }
        }
        let mut live: Vec<(usize, i64)> = Vec::new();
        for burst in 0..rng.gen_range_usize(1, 4) {
            let due = 5 + 20 * burst as u64;
            // One or two nodes per burst; with two, the deltas alternate
            // so the flush sees several short (node, table) groups.
            let a = rng.gen_range_usize(0, NODES.len());
            let b = if rng.gen_bool(0.5) { a } else { rng.gen_range_usize(0, NODES.len()) };
            for k in 0..rng.gen_range_usize(3, 7) {
                let n = if k % 2 == 0 { a } else { b };
                let x = rng.gen_range_i64(0, 8);
                ops.push(ScheduledOp::insert(due, NODES[n], tuple!("e", x)));
                live.push((n, x));
            }
            // Deletions between bursts: each cascades through d, f, g,
            // tot (and h behind d).
            for _ in 0..rng.gen_range_usize(0, 3) {
                let (n, x) = live[rng.gen_range_usize(0, live.len())];
                ops.push(ScheduledOp::delete(due + 12, NODES[n], tuple!("e", x)));
            }
        }
        ops
    }
}

/// Fan-out programs: the flush's push order where heads of different
/// deltas collide on one `due`.
#[test]
fn engine_matches_oracle_on_fan_out_bursts() {
    let mut rng = DetRng::seed_from_u64(0xFA40_0B57);
    let mut interleaved = 0usize;
    for case in 1..=96 {
        let program = fanout::arb_program(&mut rng);
        let ops = fanout::arb_schedule(&mut rng);
        let got = run_checked(&program, &ops, &format!("case {case}"));
        // A head delivered after one that was fired later (the firing
        // clock is the trigger's appearance): the heads of different
        // deltas really do interleave in the queue.
        let fired: Vec<u64> = got
            .events
            .iter()
            .filter_map(|e| match e {
                ProvEvent::Derive { body, trigger, .. } => Some(body[*trigger].since),
                _ => None,
            })
            .collect();
        interleaved += fired.windows(2).filter(|w| w[1] < w[0]).count();
    }
    // The generator must actually interleave deltas, or the suite proves
    // nothing about push order.
    assert!(interleaved > 200, "suite barely interleaved deltas: {interleaved}");
}

/// All 9 repro scenarios (4 SDN, 4 MapReduce, campus), both the good and
/// the bad trace of each: stateful builtins, native rules and the campus
/// tables through both evaluators.
#[test]
fn engine_matches_oracle_on_all_repro_scenarios() {
    let mut scenarios = dp_sdn::all_sdn_scenarios();
    scenarios.extend(dp_mapreduce::all_mr_scenarios());
    scenarios.push(dp_sdn::campus(&dp_sdn::CampusConfig::default()).scenario);
    assert_eq!(scenarios.len(), 9, "repro corpus changed size");
    for s in &scenarios {
        for (label, exec) in [("good", &s.good_exec), ("bad", &s.bad_exec)] {
            let got = run_checked(
                &exec.program,
                &exec.log.to_schedule(),
                &format!("scenario {} ({label} trace)", s.name),
            );
            assert!(
                !got.events.is_empty(),
                "scenario {} ({label}): empty stream",
                s.name
            );
        }
    }
}

/// The campus workload's `fwd` rule is the trie's raison d'être — its
/// replay must actually go through the trie, not merely agree with the
/// oracle.
#[test]
fn campus_replay_exercises_the_trie() {
    let sc = dp_sdn::campus(&dp_sdn::CampusConfig::default()).scenario;
    let mut eng = Engine::new(Arc::clone(&sc.bad_exec.program), VecSink::default());
    sc.bad_exec.log.schedule_into(&mut eng).unwrap();
    eng.run().unwrap();
    let stats = eng.stats();
    assert!(
        stats.trie_probes > 0,
        "campus fwd rule never probed the trie"
    );
    assert_eq!(stats.trie_scans, 0, "campus replay fell back to scans");
}

/// Randomized withdraw-and-re-issue churn over a program with a hash
/// index (`link` joined on its key), a trie column (`route`'s prefix,
/// probed by `prefix_contains`), a two-body rule and a rule on a derived
/// table: a fixed pool of tuples is deleted and re-inserted in a seeded
/// random order, at a handful of dues, so tuples leave and come back —
/// the same ones, in new episodes — many times, in the same tick as their
/// partners. Each pass must reproduce the oracle.
#[test]
fn engine_matches_oracle_on_random_reinsert_churn() {
    use dp_types::{prefix::ip, Prefix, Value};

    let mut reg = SchemaRegistry::new();
    reg.declare(Schema::new(
        "route",
        TableKind::MutableBase,
        [("r", FieldType::Int), ("m", FieldType::Prefix)],
    ));
    reg.declare(Schema::new(
        "pkt",
        TableKind::MutableBase,
        [("k", FieldType::Int), ("a", FieldType::Ip)],
    ));
    reg.declare(Schema::new(
        "link",
        TableKind::MutableBase,
        [("k", FieldType::Int), ("v", FieldType::Int)],
    ));
    reg.declare(Schema::new(
        "hit",
        TableKind::Derived,
        [("a", FieldType::Ip), ("r", FieldType::Int)],
    ));
    reg.declare(Schema::new(
        "out",
        TableKind::Derived,
        [("k", FieldType::Int), ("v", FieldType::Int)],
    ));
    reg.declare(Schema::new("seen", TableKind::Derived, [("r", FieldType::Int)]));
    let program: Arc<Program> = Program::builder(reg)
        .rules_text(
            "fwd hit(@N, A, R) :- pkt(@N, K, A), route(@N, R, M), prefix_contains(M, A).\n\
             j out(@N, K, V) :- pkt(@N, K, A), link(@N, K, V).\n\
             s seen(@N, R) :- hit(@N, A, R).",
        )
        .unwrap()
        .build()
        .unwrap();
    let prefix = |s: &str, len: u8| Value::Prefix(Prefix::new(ip(s), len).unwrap());
    let mut pool: Vec<Tuple> = Vec::new();
    for (r, (addr, len)) in [("10.0.0.0", 8), ("10.1.0.0", 16), ("10.1.2.0", 24), ("0.0.0.0", 0)]
        .into_iter()
        .enumerate()
    {
        pool.push(Tuple::new("route", vec![Value::Int(r as i64), prefix(addr, len)]));
    }
    for (k, addr) in ["10.1.2.3", "10.1.9.9", "10.7.7.7", "192.168.0.1"].into_iter().enumerate() {
        pool.push(Tuple::new("pkt", vec![Value::Int(k as i64 % 2), Value::Ip(ip(addr))]));
    }
    for (k, v) in [(0, 1), (0, 2), (1, 3)] {
        pool.push(tuple!("link", k, v));
    }

    let mut rng = DetRng::seed_from_u64(0xC4_0BB1);
    let mut withdrawn_and_back = 0;
    for case in 0..32 {
        let mut present = vec![false; pool.len()];
        let mut ops = Vec::new();
        let mut due = 0;
        for _ in 0..rng.gen_range_usize(30, 90) {
            due += rng.gen_range_u64(0, 3);
            let i = rng.gen_range_usize(0, pool.len());
            // Now and then a duplicate insert or a delete of an absent
            // tuple: both must be no-ops in both evaluators.
            let delete = if rng.gen_bool(0.1) { !present[i] } else { present[i] };
            withdrawn_and_back += usize::from(!delete && !present[i] && due > 0);
            present[i] = !delete;
            let tuple = Arc::new(pool[i].clone());
            ops.push(ScheduledOp { due, node: "n".into(), tuple, delete });
        }
        run_checked(&program, &ops, &format!("reinsert churn case {case}"));
    }
    assert!(withdrawn_and_back > 300, "only {withdrawn_and_back} re-insertions");
}

/// Heads the engine keys by head id: a derived table's rows are filed
/// under the id the head interner gave the tuple on delivery, not under
/// its content. Three shapes that only the oracle's content-keyed tables
/// get right by construction: one head content at several nodes and in
/// several episodes, a derived table read in tuple order after its rows
/// were created out of it, and a native naming a derived tuple in its
/// reported body.
mod heads {
    use super::*;
    use std::collections::BTreeSet;

    pub const NODES: [&str; 4] = ["n0", "n1", "n2", "n3"];

    /// Reads `d` at its node in the view's order and reports the first
    /// tuple as `first`, its body naming that derived tuple, and — a tick
    /// or two late — `g(Y)` for the trigger `trig(Y)`, its body naming
    /// `d(Y)` whether or not it is there: the delivery finds it by content
    /// or drops the derivation.
    struct Reader {
        delay: u64,
    }
    impl NativeRule for Reader {
        fn name(&self) -> Sym {
            Sym::new("reader")
        }
        fn triggers(&self) -> Vec<Sym> {
            vec![Sym::new("trig")]
        }
        fn fire(
            &self,
            view: &NodeView<'_>,
            trigger: &Tuple,
            out: &mut Emitter,
        ) -> dp_types::Result<()> {
            let here = *view.node;
            let at = |t: Tuple| TupleRef::new(here, t);
            if let Some(first) = view.table(&Sym::new("d")).next() {
                out.emit(
                    here,
                    Tuple::new("first", vec![first.args[0].clone()]),
                    vec![at(trigger.clone()), at(first.clone())],
                );
            }
            let named = Tuple::new("d", vec![trigger.args[0].clone()]);
            out.emit_delayed(
                here,
                Tuple::new("g", vec![trigger.args[0].clone()]),
                vec![at(trigger.clone()), at(named)],
                self.delay,
            );
            Ok(())
        }
    }

    pub fn program(rng: &mut DetRng) -> Arc<Program> {
        let mut reg = SchemaRegistry::new();
        for base in ["e", "trig"] {
            reg.declare(Schema::new(base, TableKind::MutableBase, [("x", FieldType::Int)]));
        }
        reg.declare(Schema::new("peer", TableKind::MutableBase, [("next", FieldType::Str)]));
        for head in ["h", "d", "first", "g"] {
            reg.declare(Schema::new(head, TableKind::Derived, [("x", FieldType::Int)]));
        }
        reg.declare(Schema::new(
            "pair",
            TableKind::Derived,
            [("x", FieldType::Int), ("y", FieldType::Int)],
        ));
        let mut rules = parse_rules(
            "loc h(@N, X) :- e(@N, X).\n\
             fw h(@M, X) :- e(@N, X), peer(@N, M).\n\
             mk d(@N, X) :- e(@N, X).\n\
             sc pair(@N, X, Y) :- trig(@N, Y), d(@N, X).",
        )
        .unwrap();
        rules[1].link_delay = rng.gen_range_u64(1, 3);
        Program::builder(reg)
            .rules(rules)
            .native(Arc::new(Reader {
                delay: rng.gen_range_u64(0, 3),
            }))
            .build()
            .unwrap()
    }

    /// Peers, then rounds of `e` inserted at random nodes in random order
    /// of value, deleted and re-inserted, with `trig`s between them.
    pub fn schedule(rng: &mut DetRng) -> Vec<ScheduledOp> {
        let mut ops = Vec::new();
        for (i, node) in NODES.iter().enumerate() {
            for _ in 0..rng.gen_range_usize(1, 3) {
                let next = NODES[(i + rng.gen_range_usize(1, NODES.len())) % NODES.len()];
                ops.push(ScheduledOp::insert(0, *node, tuple!("peer", next)));
            }
        }
        let mut live: BTreeSet<(usize, i64)> = BTreeSet::new();
        let mut due = 2;
        for _ in 0..rng.gen_range_usize(3, 6) {
            for _ in 0..rng.gen_range_usize(2, 7) {
                let (n, x) = (rng.gen_range_usize(0, NODES.len()), rng.gen_range_i64(0, 6));
                if live.insert((n, x)) {
                    ops.push(ScheduledOp::insert(due, NODES[n], tuple!("e", x)));
                }
                due += rng.gen_range_u64(0, 2);
            }
            for _ in 0..rng.gen_range_usize(1, 4) {
                // Mostly a value some node holds `e` of, so `d` is there.
                let (n, x) = match live.iter().nth(rng.gen_range_usize(0, live.len().max(1))) {
                    Some(&held) if rng.gen_bool(0.7) => held,
                    _ => (rng.gen_range_usize(0, NODES.len()), rng.gen_range_i64(0, 6)),
                };
                ops.push(ScheduledOp::insert(due, NODES[n], tuple!("trig", x)));
                due += rng.gen_range_u64(0, 3);
            }
            due += 5;
            let gone: Vec<(usize, i64)> =
                live.iter().copied().filter(|_| rng.gen_bool(0.6)).collect();
            for (n, x) in gone {
                live.remove(&(n, x));
                ops.push(ScheduledOp::delete(due, NODES[n], tuple!("e", x)));
                due += rng.gen_range_u64(0, 2);
            }
            due += 5;
        }
        ops
    }

    /// Located tuples of `table` as the stream opens them, in order.
    pub fn appears<'a>(
        events: &'a [ProvEvent],
        table: &'a str,
    ) -> impl Iterator<Item = (NodeId, &'a Tuple)> {
        events.iter().filter_map(move |e| match e {
            ProvEvent::Appear { node, tuple, .. } if tuple.table.as_str() == table => {
                Some((*node, &**tuple))
            }
            _ => None,
        })
    }

    /// How many `h` contents opened at three or more nodes, and how many
    /// located `h` tuples opened more than once.
    pub fn spread(events: &[ProvEvent]) -> (usize, usize) {
        let mut nodes: BTreeMap<&Tuple, BTreeSet<NodeId>> = BTreeMap::new();
        let mut episodes: BTreeMap<(NodeId, &Tuple), usize> = BTreeMap::new();
        for (node, tuple) in appears(events, "h") {
            nodes.entry(tuple).or_default().insert(node);
            *episodes.entry((node, tuple)).or_default() += 1;
        }
        (
            nodes.values().filter(|at| at.len() >= 3).count(),
            episodes.values().filter(|&&n| n >= 2).count(),
        )
    }
}

/// One head content derived at three or more nodes — locally and
/// forwarded — that dies and is derived again in a later episode: one
/// head id, one row per node, each row brought back by the id.
#[test]
fn engine_matches_oracle_on_a_head_at_many_nodes_and_episodes() {
    let mut rng = DetRng::seed_from_u64(0x04EA_D1D5);
    let (mut spread, mut again) = (0, 0);
    for case in 0..48 {
        let program = heads::program(&mut rng);
        let ops = heads::schedule(&mut rng);
        let got = run_checked(&program, &ops, &format!("head ids case {case}"));
        let (wide, reborn) = heads::spread(&got.events);
        spread += wide;
        again += reborn;
    }
    assert!(spread > 50, "only {spread} heads reached three nodes");
    assert!(again > 50, "only {again} located heads were derived again");
}

/// A rule scanning a derived table whose rows were created out of
/// argument order, and a native reading that table's first tuple: the
/// join's matches and the view come out in tuple order all the same.
#[test]
fn engine_matches_oracle_on_scans_of_a_derived_table_built_out_of_order() {
    let mut rng = DetRng::seed_from_u64(0x5CA7_0D0E);
    let mut out_of_order = 0;
    for case in 0..48 {
        let program = heads::program(&mut rng);
        let ops = heads::schedule(&mut rng);
        let got = run_checked(&program, &ops, &format!("derived scan case {case}"));
        assert!(got.stats.join_scans > 0, "case {case}: `sc` never scanned `d`");
        let mut last: BTreeMap<NodeId, &Tuple> = BTreeMap::new();
        for (node, tuple) in heads::appears(&got.events, "d") {
            out_of_order += usize::from(last.get(&node).is_some_and(|&prev| tuple < prev));
            last.insert(node, tuple);
        }
    }
    assert!(out_of_order > 60, "only {out_of_order} `d` rows opened below the last one");
}

/// A native's reported body names derived tuples — one it read, one it
/// only expects — and its delivery finds them by content through the head
/// interner, or drops the derivation when the tuple is not there.
#[test]
fn engine_matches_oracle_on_a_native_naming_derived_tuples() {
    let mut rng = DetRng::seed_from_u64(0x00A7_17E5);
    let (mut named, mut dropped) = (0, 0);
    for case in 0..48 {
        let program = heads::program(&mut rng);
        let ops = heads::schedule(&mut rng);
        let got = run_checked(&program, &ops, &format!("named body case {case}"));
        let derived = |table: &str| {
            got.events
                .iter()
                .filter(|e| matches!(e, ProvEvent::Derive { tuple, .. } if tuple.table.as_str() == table))
                .count()
        };
        let triggers = ops.iter().filter(|op| op.tuple.table.as_str() == "trig").count();
        named += derived("g");
        dropped += triggers - derived("g").min(triggers);
    }
    assert!(named > 50, "only {named} `g` derivations found their named `d`");
    assert!(dropped > 100, "only {dropped} `g` derivations were dropped");
}
