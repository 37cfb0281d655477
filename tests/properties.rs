//! Randomized property tests on the core data structures and invariants,
//! spanning crates.
//!
//! The workspace builds offline, so these use the in-repo [`DetRng`]
//! generator with fixed seeds instead of a property-testing framework:
//! each test is an exhaustive seeded sweep, fully reproducible.

use diffprov::core::{DiffProv, Formula, QueryEvent};
use diffprov::ndlog::{
    reference, BinOp, Engine, Env, Expr, NodeView, NullSink, Program, TupleState, VecSink,
};
use diffprov::netcore::{compile, to_cfg_entries, Action, Policy, Pred};
use diffprov::replay::Execution;
use diffprov::sdn::{deliver_at, pkt_in, sdn_program, Topology};
use diffprov::types::prefix::{cidr, ip, Prefix};
use diffprov::types::{
    tuple, DetRng, FieldType, NodeId, Schema, SchemaRegistry, Sym, TableKind, Tuple, Value,
};
use std::sync::Arc;

fn arb_prefix(rng: &mut DetRng) -> Prefix {
    let addr = rng.next_u32();
    let len = rng.gen_range_usize(0, 33) as u8;
    Prefix::new(addr, len).unwrap()
}

/// Widening always yields a prefix that contains both the original base
/// address and the target, and never narrows.
#[test]
fn widen_contains_both() {
    let mut rng = DetRng::seed_from_u64(0xD1FF_0001);
    for _ in 0..2000 {
        let p = arb_prefix(&mut rng);
        let ip = rng.next_u32();
        let w = p.widen_to_contain(ip);
        assert!(w.contains(ip), "{w} !contains {ip}");
        assert!(w.contains(p.addr()));
        assert!(w.len() <= p.len());
        assert!(w.covers(&p));
    }
}

/// Widening is minimal: one more bit of length would exclude the target
/// (when the prefix had to change at all).
#[test]
fn widen_is_minimal() {
    let mut rng = DetRng::seed_from_u64(0xD1FF_0002);
    for _ in 0..2000 {
        let p = arb_prefix(&mut rng);
        let ip = rng.next_u32();
        let w = p.widen_to_contain(ip);
        if w != p && w.len() < 32 {
            let narrower = Prefix::new(w.addr(), w.len() + 1).unwrap();
            assert!(!(narrower.contains(ip) && narrower.contains(p.addr())));
        }
    }
}

/// Narrowing excludes the target, keeps the base, and never widens.
#[test]
fn narrow_excludes_target() {
    let mut rng = DetRng::seed_from_u64(0xD1FF_0003);
    for _ in 0..2000 {
        let p = arb_prefix(&mut rng);
        let ip = rng.next_u32();
        if let Some(n) = p.narrow_to_exclude(ip) {
            assert!(!n.contains(ip));
            assert!(n.contains(p.addr()));
            assert!(n.len() > p.len());
            assert!(p.covers(&n));
        }
    }
}

/// Prefix parse/display round-trips.
#[test]
fn prefix_display_roundtrips() {
    let mut rng = DetRng::seed_from_u64(0xD1FF_0004);
    for _ in 0..2000 {
        let p = arb_prefix(&mut rng);
        let s = p.to_string();
        let q: Prefix = s.parse().unwrap();
        assert_eq!(p, q);
    }
}

/// Affine expressions invert exactly: solving `a*x + b == y` for the value
/// produced by any x recovers x.
#[test]
fn affine_inversion_roundtrips() {
    let mut rng = DetRng::seed_from_u64(0xD1FF_0005);
    for _ in 0..500 {
        let a = rng.gen_range_i64(1, 1000);
        let b = rng.gen_range_i64(-1000, 1000);
        let x = rng.gen_range_i64(-10_000, 10_000);
        let expr = Expr::bin(
            BinOp::Add,
            Expr::bin(BinOp::Mul, Expr::val(a), Expr::var("x")),
            Expr::val(b),
        );
        let mut env = Env::new();
        env.insert(Sym::new("x"), Value::Int(x));
        let y = expr.eval(&env).unwrap();
        let solved = expr.invert(&y, &Env::new()).unwrap();
        assert_eq!(solved, vec![(Sym::new("x"), Value::Int(x))]);
    }
}

/// XOR inversion round-trips.
#[test]
fn xor_inversion_roundtrips() {
    let mut rng = DetRng::seed_from_u64(0xD1FF_0006);
    for _ in 0..500 {
        let k = rng.next_u64() as i64;
        let x = rng.next_u64() as i64;
        let expr = Expr::bin(BinOp::BitXor, Expr::var("x"), Expr::val(k));
        let mut env = Env::new();
        env.insert(Sym::new("x"), Value::Int(x));
        let y = expr.eval(&env).unwrap();
        let solved = expr.invert(&y, &Env::new()).unwrap();
        assert_eq!(solved, vec![(Sym::new("x"), Value::Int(x))]);
    }
}

/// Taint formulae: applying a formula built from the good seed to the good
/// seed reproduces the good value (the identity the alignment relies on).
#[test]
fn formula_identity_on_good_seed() {
    let mut rng = DetRng::seed_from_u64(0xD1FF_0007);
    for _ in 0..500 {
        let n = rng.gen_range_usize(1, 6);
        let vals: Vec<i64> = (0..n).map(|_| rng.gen_range_i64(-1000, 1000)).collect();
        let seed = diffprov::types::Tuple::new(
            "s",
            vals.iter().map(|&v| Value::Int(v)).collect::<Vec<_>>(),
        );
        for (i, &v) in vals.iter().enumerate() {
            let f = Formula::seed_field(i);
            assert_eq!(f.apply(&seed).unwrap(), Value::Int(v));
        }
    }
}

fn chain_program() -> Arc<Program> {
    let mut reg = SchemaRegistry::new();
    reg.declare(Schema::new("e", TableKind::ImmutableBase, [("x", FieldType::Int)]));
    reg.declare(Schema::new("k", TableKind::MutableBase, [("v", FieldType::Int)]));
    reg.declare(Schema::new("d", TableKind::Derived, [("y", FieldType::Int)]));
    Program::builder(reg)
        .rules_text("r d(@N, Y) :- e(@N, X), k(@N, V), Y := X * V.")
        .unwrap()
        .build()
        .unwrap()
}

/// Engine determinism under arbitrary insertion batches: two runs over the
/// same inputs produce identical derivation counts and identical final
/// state.
#[test]
fn engine_is_deterministic() {
    let mut rng = DetRng::seed_from_u64(0xD1FF_0008);
    for _ in 0..32 {
        let inputs: Vec<(u64, i64)> = (0..rng.gen_range_usize(1, 40))
            .map(|_| (rng.gen_range_u64(0, 100), rng.gen_range_i64(-50, 50)))
            .collect();
        let ks: Vec<i64> = (0..rng.gen_range_usize(1, 4))
            .map(|_| rng.gen_range_i64(-5, 5))
            .collect();
        let run = || {
            let mut eng = Engine::new(chain_program(), NullSink);
            let n = NodeId::new("n");
            for (i, &kv) in ks.iter().enumerate() {
                eng.schedule_insert(i as u64, n, tuple!("k", kv)).unwrap();
            }
            for &(due, x) in &inputs {
                eng.schedule_insert(100 + due, n, tuple!("e", x)).unwrap();
            }
            eng.run().unwrap();
            let stats = eng.stats();
            let derived: Vec<_> = eng
                .nodes()
                .flat_map(|(_, st)| {
                    st.table(&Sym::new("d")).cloned().collect::<Vec<_>>()
                })
                .collect();
            (stats.derivations, derived)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }
}

/// Support counting: deleting every mutable k-tuple removes every derived
/// tuple (no leaks, no dangling support).
#[test]
fn deletion_drains_derived_state() {
    let mut rng = DetRng::seed_from_u64(0xD1FF_0009);
    for _ in 0..32 {
        let inputs: Vec<i64> = (0..rng.gen_range_usize(1, 20))
            .map(|_| rng.gen_range_i64(-50, 50))
            .collect();
        let ks: Vec<i64> = (0..rng.gen_range_usize(1, 4))
            .map(|_| rng.gen_range_i64(-5, 5))
            .collect();
        let mut eng = Engine::new(chain_program(), NullSink);
        let n = NodeId::new("n");
        for &kv in &ks {
            eng.schedule_insert(0, n, tuple!("k", kv)).unwrap();
        }
        for (i, &x) in inputs.iter().enumerate() {
            eng.schedule_insert(100 + i as u64, n, tuple!("e", x)).unwrap();
        }
        eng.run().unwrap();
        for &kv in &ks {
            eng.schedule_delete(10_000, n, tuple!("k", kv)).unwrap();
        }
        eng.run().unwrap();
        let remaining = eng
            .nodes()
            .flat_map(|(_, st)| st.table(&Sym::new("d")).collect::<Vec<_>>())
            .count();
        assert_eq!(remaining, 0);
    }
}

/// DiffProv's diagnosis stands on an execution the engine's batching
/// cannot have bent: the policy-debugging scenario diagnoses to the one
/// expected fix, and on that same execution the batched engine's
/// provenance stream and final tables are exactly the tuple-at-a-time
/// reference evaluator's.
#[test]
fn diffprov_report_is_invariant_under_batching() {
    // The SDN1 policy network with the /24-instead-of-/23 predicate bug
    // (same build as tests/policy_debugging.rs).
    let exec = {
        let mut topo = Topology::new("ctl");
        topo.switches(&["S1", "S2", "S6"]);
        topo.link("S1", "S2");
        topo.link("S2", "S6");
        let p_web1 = topo.host("S6", "web1");
        let p_dpi = topo.host("S6", "dpi");
        let p_web2 = topo.host("S2", "web2");
        let s1 = Policy::Filter(Pred::Any, Action::Forward(topo.port_towards("S1", "S2")));
        let s2 = Policy::if_else(
            Pred::SrcIn(cidr("4.3.2.0/24")),
            Policy::Filter(Pred::Any, Action::Forward(topo.port_towards("S2", "S6"))),
            Policy::Filter(Pred::Any, Action::Forward(p_web2)),
        );
        let s6 = Policy::Union(vec![
            Policy::Filter(Pred::Any, Action::Forward(p_web1)),
            Policy::Filter(Pred::Any, Action::Forward(p_dpi)),
        ]);
        let program = sdn_program("ctl").expect("program builds");
        let mut exec = Execution::new(program);
        topo.emit(&mut exec.log, 10);
        let ctl = NodeId::new("ctl");
        for (sw, rid, policy) in [("S1", 100, &s1), ("S2", 200, &s2), ("S6", 600, &s6)] {
            for t in to_cfg_entries(sw, rid, &compile(policy).expect("compiles")) {
                exec.log.insert(10, ctl, t);
            }
        }
        let dst = ip("10.0.0.80");
        exec.log.insert(1_000, "S1", pkt_in(1, ip("4.3.2.1"), dst, 6, 512));
        exec.log.insert(2_000, "S1", pkt_in(2, ip("4.3.3.1"), dst, 6, 512));
        exec
    };
    let dst = ip("10.0.0.80");
    let good = QueryEvent::new(deliver_at("web1", 1, ip("4.3.2.1"), dst, 6, 512), u64::MAX);
    let bad = QueryEvent::new(deliver_at("web2", 2, ip("4.3.3.1"), dst, 6, 512), u64::MAX);
    let report = DiffProv::default().diagnose(&exec, &good, &exec, &bad).unwrap();
    assert!(report.succeeded(), "{report}");
    assert!(report.verified);
    assert_eq!(report.delta.len(), 1, "{report}");
    let fix = report.delta[0].after.as_ref().unwrap();
    assert_eq!(fix.args[3], Value::Prefix(cidr("4.3.2.0/23")));

    fn flatten<'a>(
        nodes: impl Iterator<Item = (&'a NodeId, NodeView<'a>)>,
    ) -> Vec<(NodeId, Tuple, TupleState)> {
        let mut out = Vec::new();
        for (n, view) in nodes {
            out.extend(view.all().map(|(t, s)| (*n, t.clone(), s)));
        }
        out
    }
    let mut engine = Engine::new(exec.program.clone(), VecSink::default());
    exec.log.schedule_into(&mut engine).unwrap();
    engine.run().unwrap();
    let mut oracle_stream = VecSink::default();
    let oracle_nodes =
        reference::evaluate(&exec.program, &exec.log.to_schedule(), &mut oracle_stream).unwrap();
    assert_eq!(
        flatten(engine.nodes()),
        flatten(oracle_nodes.nodes()),
        "final tables must not depend on batching"
    );
    assert_eq!(
        engine.into_sink().events,
        oracle_stream.events,
        "the stream must not depend on batching"
    );
}
