//! The index a log keeps for its program, held to the whole log.
//!
//! A cut read off the index must hold exactly the events a filter of the
//! whole log by the slice plan keeps, and MAKEAPPEAR's lookup by key must
//! fold exactly what the whole patched log holds for the key — over
//! seeded logs of the SDN program with logged deletes, and random change
//! sets that rewrite a key, keep it, drop a tuple, inject one or repeat a
//! `before`. The filter, the patch and the fold are written here, by
//! brute force, and nowhere else. Then the index's life: an append drops it, a clone
//! shares it until it appends, a log loaded from a store is indexed
//! afresh, and each program reads its own plan's index.

use std::collections::BTreeSet;
use std::sync::Arc;

use diffprov_core::{same_run, DiffProv};
use dp_ndlog::testsupport::prefixgen;
use dp_ndlog::{Needs, Program, TupleChange};
use dp_replay::testsupport::cut_log;
use dp_replay::{apply_changes, BaseOp, EventLog, Execution};
use dp_sdn::stanford::{campus, CampusConfig};
use dp_sdn::{cfg_entry, pkt_in, sdn_program};
use dp_trace::Tracer;
use dp_types::{DetRng, NodeId, Prefix, Sym, Tuple, TupleRef, Value};

const SWITCHES: [&str; 4] = ["s1", "s2", "s3", "s4"];

fn pick<'a, T>(rng: &mut DetRng, from: &'a [T]) -> &'a T {
    &from[rng.gen_range_usize(0, from.len())]
}

/// An address in one of four /16s, so that routes and packets meet.
fn addr(rng: &mut DetRng) -> u32 {
    (10 << 24) | (rng.gen_range_u32(0, 4) << 16) | rng.gen_range_u32(0, 1 << 16)
}

fn route(rng: &mut DetRng) -> Prefix {
    let len = *pick(rng, &[0u8, 8, 16, 16, 24, 24, 24, 32]);
    Prefix::new(addr(rng), len).unwrap()
}

/// A `cfgEntry` at the controller, its rule id from a small domain so that
/// keys repeat.
fn entry(rng: &mut DetRng) -> Tuple {
    let sw = *pick(rng, &SWITCHES);
    let prio = rng.gen_range_i64(0, 3);
    cfg_entry(
        rng.gen_range_i64(0, 12),
        sw,
        prio,
        route(rng),
        route(rng),
        rng.gen_range_i64(1, 4),
    )
}

/// A seeded log of the SDN program: packets at the switches, `cfgEntry`s at
/// the controller with deletes and re-inserts, links and hellos.
fn log(rng: &mut DetRng) -> EventLog {
    let mut log = EventLog::new();
    let mut live: Vec<Tuple> = Vec::new();
    for _ in 0..rng.gen_range_usize(20, 80) {
        let due = rng.gen_range_u64(0, 40);
        match rng.gen_range_usize(0, 10) {
            0..=2 => {
                let (src, dst) = (addr(rng), addr(rng));
                let pid = rng.gen_range_i64(0, 8);
                log.insert(due, *pick(rng, &SWITCHES), pkt_in(pid, src, dst, 6, 64));
            }
            3..=6 => {
                let e = entry(rng);
                log.insert(due, "ctl", e.clone());
                live.push(e);
            }
            7 if !live.is_empty() => {
                let e = pick(rng, &live).clone();
                log.delete(due, "ctl", e);
            }
            8 => {
                let next = Value::str(*pick(rng, &SWITCHES));
                let link = Tuple::new("link", vec![Value::Int(rng.gen_range_i64(1, 4)), next]);
                log.insert(due, *pick(rng, &SWITCHES), link);
            }
            _ => {
                let hello = Tuple::new("hello", vec![Value::Int(0), Value::str("ctl")]);
                log.insert(due, *pick(rng, &SWITCHES), hello);
            }
        }
    }
    log
}

/// A random change set over `log`: rewrites of logged tuples that change
/// the key or keep it, drops, injections, a `before` never logged and a
/// `before` repeated.
fn delta(rng: &mut DetRng, log: &EventLog) -> Vec<TupleChange> {
    let logged: Vec<(NodeId, Tuple)> = log
        .events()
        .iter()
        .map(|e| (e.node, Tuple::clone(&e.tuple)))
        .collect();
    let mut delta = Vec::new();
    for _ in 0..rng.gen_range_usize(1, 5) {
        let (node, before) = pick(rng, &logged).clone();
        let change = match rng.gen_range_usize(0, 6) {
            1 if before.table == Sym::new("cfgEntry") => {
                let mut after = before.clone();
                after.args[5] = Value::Int(rng.gen_range_i64(1, 4));
                (node, Some(before), Some(after))
            }
            0 | 1 => {
                let mut after = before.clone();
                after.args[0] = Value::Int(rng.gen_range_i64(0, 12));
                (node, Some(before), Some(after))
            }
            2 => (node, Some(before), None),
            3 => (NodeId::new("ctl"), None, Some(entry(rng))),
            4 => (NodeId::new("ctl"), Some(entry(rng)), Some(entry(rng))),
            _ => match delta.last() {
                Some(TupleChange { node, before, .. }) => (*node, before.clone(), Some(entry(rng))),
                None => (node, Some(before), None),
            },
        };
        delta.push(TupleChange {
            node: change.0,
            before: change.1,
            after: change.2,
        });
    }
    delta
}

fn execution(program: &Arc<Program>, log: EventLog) -> Execution {
    let mut exec = Execution::new(Arc::clone(program));
    exec.log = log;
    exec
}

/// The events of the whole log a cut holds, by the plan, with the nodes
/// and addresses the queried keys' events bring, and how many owned events
/// at its owners the guard left out.
fn brute_cut(
    exec: &Execution,
    keys: &BTreeSet<Value>,
    mut owners: BTreeSet<Sym>,
    mut addrs: BTreeSet<u32>,
    guarded: bool,
) -> (Vec<(NodeId, Tuple, BaseOp)>, usize) {
    let plan = exec.program.slice_plan();
    let events = exec.log.events();
    for e in events.iter() {
        if matches!(plan.needs(&e.node, &*e.tuple), Needs::Key(k) if keys.contains(&k)) {
            owners.insert(e.node.0);
            addrs.extend(e.tuple.args.iter().filter_map(|v| v.as_ip().ok()));
        }
    }
    let (mut held, mut dropped) = (Vec::new(), 0);
    for e in events.iter() {
        let holds = match plan.needs(&e.node, &*e.tuple) {
            Needs::Key(k) => keys.contains(&k),
            Needs::Owner(o) if owners.contains(&o) => {
                let covers = !guarded || plan.covers(&*e.tuple, &addrs);
                dropped += usize::from(!covers);
                covers
            }
            Needs::Owner(_) => false,
            Needs::Nothing => true,
        };
        if holds {
            held.push((e.node, Tuple::clone(&e.tuple), e.op));
        }
    }
    (held, dropped)
}

/// The whole log patched by `delta`: each event of a change's `before`
/// rewritten by the first such change, or dropped when it has no `after`;
/// the `after` of each change no event matched inserted at `at`, behind
/// the events due by then.
fn brute_patch(log: &EventLog, delta: &[TupleChange], at: u64) -> Vec<(NodeId, Tuple, BaseOp)> {
    let mut matched = vec![false; delta.len()];
    let mut out = Vec::new();
    for e in log.events().iter() {
        let change = delta
            .iter()
            .position(|c| c.node == e.node && c.before.as_ref() == Some(&*e.tuple));
        match change {
            Some(i) => {
                matched[i] = true;
                out.extend(delta[i].after.clone().map(|t| (e.due, e.node, t, e.op)));
            }
            None => out.push((e.due, e.node, Tuple::clone(&e.tuple), e.op)),
        }
    }
    let behind = out.iter().take_while(|e| e.0 <= at).count();
    let injected = (delta.iter().zip(matched))
        .filter(|(_, matched)| !matched)
        .filter_map(|(c, _)| Some((at, c.node, c.after.clone()?, BaseOp::Insert)));
    out.splice(behind..behind, injected.collect::<Vec<_>>());
    out.into_iter()
        .map(|(_, node, t, op)| (node, t, op))
        .collect()
}

/// The tuples of `like`'s table live at `node` once the whole patched log
/// has run, whose key columns hold `like`'s.
fn brute_fold(
    exec: &Execution,
    delta: &[TupleChange],
    at: u64,
    node: &NodeId,
    like: &Tuple,
) -> Vec<Tuple> {
    let key = exec
        .program
        .schemas
        .get(&like.table)
        .and_then(|s| s.key.clone())
        .unwrap_or_default();
    let mut live = BTreeSet::new();
    for (n, t, op) in brute_patch(&exec.log, delta, at) {
        if n == *node && t.table == like.table && key.iter().all(|&c| t.get(c) == like.get(c)) {
            match op {
                BaseOp::Insert => live.insert(t),
                BaseOp::Delete => live.remove(&t),
            };
        }
    }
    live.into_iter().collect()
}

#[test]
fn a_cut_read_off_the_index_is_the_whole_logs_filter() {
    let program = sdn_program("ctl").unwrap();
    assert!(
        program.slice_plan().has_guards(),
        "the SDN plan guards cfgEntry"
    );
    let mut dropped_some = 0;
    for seed in 0..60 {
        let mut rng = DetRng::seed_from_u64(seed);
        let exec = execution(&program, log(&mut rng));
        for _ in 0..8 {
            let keys: BTreeSet<Value> = (0..rng.gen_range_usize(0, 3))
                .map(|_| Value::Int(rng.gen_range_i64(0, 8)))
                .collect();
            let owners: BTreeSet<Sym> = SWITCHES
                .iter()
                .filter(|_| rng.gen_bool(0.4))
                .map(Sym::new)
                .collect();
            let addrs: BTreeSet<u32> = (0..rng.gen_range_usize(0, 4))
                .map(|_| addr(&mut rng))
                .collect();
            let guarded = rng.gen_bool(0.8);
            let (cut, dropped) =
                cut_log(&exec, keys.clone(), owners.clone(), addrs.clone(), guarded);
            let got: Vec<_> = cut
                .events()
                .iter()
                .map(|e| (e.node, Tuple::clone(&e.tuple), e.op))
                .collect();
            let want = brute_cut(&exec, &keys, owners, addrs, guarded);
            assert_eq!((got, dropped), want, "seed {seed}");
            dropped_some += usize::from(dropped > 0);
        }
    }
    assert!(
        dropped_some > 50,
        "only {dropped_some} cuts left an entry out"
    );
}

#[test]
fn a_lookup_by_key_folds_what_the_whole_patched_log_holds() {
    let program = sdn_program("ctl").unwrap();
    let (mut rewrote_a_key, mut injected) = (0, 0);
    for seed in 0..60 {
        let mut rng = DetRng::seed_from_u64(seed);
        let exec = execution(&program, log(&mut rng));
        let delta = delta(&mut rng, &exec.log);
        let at = rng.gen_range_u64(0, 45);
        let mut whole = exec.replay().unwrap();
        whole.update_tree(&exec, &delta, at).unwrap();
        let root = exec.log.events()[0].clone();
        let mut sliced = exec
            .replay_slice([(&root.node, &*root.tuple)], u64::MAX)
            .unwrap();
        sliced.update_tree(&exec, &delta, at).unwrap();
        let mut likes: Vec<(NodeId, Tuple)> = exec
            .log
            .events()
            .iter()
            .map(|e| (e.node, Tuple::clone(&e.tuple)))
            .collect();
        for c in &delta {
            likes.extend(c.before.iter().chain(&c.after).map(|t| (c.node, t.clone())));
        }
        likes.push((NodeId::new("ctl"), entry(&mut rng)));
        for (node, like) in &likes {
            let want = brute_fold(&exec, &delta, at, node, like);
            for r in [&whole, &sliced] {
                let got: Vec<Tuple> = r
                    .base_tuples_by_key(&exec, node, like)
                    .iter()
                    .map(|t| Tuple::clone(t))
                    .collect();
                assert_eq!(got, want, "seed {seed}: {like} at {node}");
            }
            assert_eq!(
                sliced.exists_in(&exec, node, like),
                want.contains(like),
                "seed {seed}: {like}"
            );
        }
        let patched = apply_changes(&exec.log, &delta, at);
        let events = |log: &EventLog| -> Vec<(NodeId, Tuple, BaseOp)> {
            log.events()
                .iter()
                .map(|e| (e.node, Tuple::clone(&e.tuple), e.op))
                .collect()
        };
        assert_eq!(
            events(&patched),
            brute_patch(&exec.log, &delta, at),
            "seed {seed}"
        );
        injected += usize::from(patched.len() > exec.log.len());
        rewrote_a_key += usize::from(delta.iter().any(|c| match (&c.before, &c.after) {
            (Some(b), Some(a)) => b.table == a.table && b.args.first() != a.args.first(),
            _ => false,
        }));
    }
    assert!(
        rewrote_a_key > 10 && injected > 10,
        "{rewrote_a_key} key rewrites, {injected} injections"
    );
}

/// A campus small enough to diagnose in milliseconds, with a tracer on
/// both executions.
fn small_campus(tracer: &Tracer) -> dp_sdn::Scenario {
    let mut s = campus(&CampusConfig {
        bulk_entries_per_router: 2,
        background_packets: 20,
        ..CampusConfig::default()
    })
    .scenario;
    s.good_exec.tracer = tracer.clone();
    s.bad_exec.tracer = tracer.clone();
    s
}

/// Indexes built so far.
fn builds(tracer: &Tracer) -> u64 {
    tracer.aggregate().span_count("replay.slice_index")
}

#[test]
fn an_append_after_a_diagnosis_is_sliced_on_the_next() {
    let tracer = Tracer::aggregate_only();
    let mut s = small_campus(&tracer);
    assert!(s.diagnose().unwrap().verified);
    assert_eq!(builds(&tracer), 1, "one index for both runs");
    // The good packet again, under a new id, after the rest of the log.
    let good = &s.good_event.tref;
    let pid = good.tuple.args[0].clone();
    let events = s.bad_exec.log.events();
    let sent = events
        .iter()
        .find(|e| e.tuple.table == Sym::new("pktIn") && e.tuple.args[0] == pid);
    let (node, mut again) = sent.map(|e| (e.node, Tuple::clone(&e.tuple))).unwrap();
    drop(events);
    again.args[0] = Value::Int(999_999);
    let exec = &mut s.bad_exec;
    exec.log.insert(exec.log.horizon() + 1, node, again);
    let mut delivered = Tuple::clone(&good.tuple);
    delivered.args[0] = Value::Int(999_999);
    let root = TupleRef::new(good.node, delivered);
    let sliced = exec
        .replay_slice([(&root.node, &*root.tuple)], u64::MAX)
        .unwrap();
    let whole = exec.replay().unwrap();
    let tree = |r: &dp_replay::Replayed| r.query(&root).map(|t| t.render_ranked());
    assert!(tree(&whole).is_some(), "the appended packet is delivered");
    assert_eq!(
        tree(&sliced),
        tree(&whole),
        "the slice holds the appended packet"
    );
    assert_eq!(builds(&tracer), 2, "indexed again, once");
}

#[test]
fn a_clone_that_appends_leaves_its_source_and_its_index() {
    let tracer = Tracer::aggregate_only();
    let s = small_campus(&tracer);
    assert!(s.diagnose().unwrap().verified);
    let before: Vec<_> = s.bad_exec.log.events().to_vec();
    let mut clone = s.bad_exec.clone();
    assert!(clone.log.same(&s.bad_exec.log) && same_run(&clone, &s.bad_exec));
    clone.log.insert(1, "s9", pkt_in(123_456, 1, 2, 6, 64));
    assert!(!clone.log.same(&s.bad_exec.log) && !same_run(&clone, &s.bad_exec));
    assert!(*s.bad_exec.log.events() == before[..], "the source's events are unchanged");
    assert_eq!(clone.log.len(), before.len() + 1);
    assert!(s.diagnose().unwrap().verified);
    assert_eq!(builds(&tracer), 1, "the source's index is intact");
    let report = DiffProv::default().diagnose(&clone, &s.good_event, &clone, &s.bad_event);
    assert!(report.unwrap().verified);
    assert_eq!(builds(&tracer), 2, "the clone's own index");
}

#[test]
fn a_log_loaded_from_a_store_is_indexed_afresh() {
    let tracer = Tracer::aggregate_only();
    let s = small_campus(&tracer);
    assert!(s.diagnose().unwrap().verified);
    let (store, _) = s.bad_exec.spill_temp(64).unwrap();
    let mut exec = Execution::new(Arc::clone(&s.bad_exec.program));
    exec.tracer = tracer.clone();
    exec.log = dp_replay::DurableStore::open(store.dir())
        .unwrap()
        .load_log();
    assert!(!exec.log.same(&s.bad_exec.log) && same_run(&exec, &s.bad_exec));
    let report = DiffProv::default().diagnose(&exec, &s.good_event, &exec, &s.bad_event);
    assert!(report.unwrap().verified);
    assert_eq!(builds(&tracer), 2, "the loaded log's own index");
}

/// Two forwarding programs over one log, each slicing for a packet's
/// route lookups: each reads its own plan's index (the second's is built
/// for it and not kept), and each slice answers as its whole log.
#[test]
fn a_second_program_over_a_log_reads_its_own_plans_index() {
    let mut checked = 0;
    for seed in 0..40 {
        let mut rng = DetRng::seed_from_u64(seed);
        let (Some(a), Some(b)) = (
            prefixgen::arb_forwarding_program(&mut rng),
            prefixgen::arb_forwarding_program(&mut rng),
        ) else {
            continue;
        };
        let ops = prefixgen::arb_ops(&mut rng, 8, 30, 6);
        let mut log = EventLog::new();
        for op in prefixgen::alternating_schedule(&ops) {
            match op.delete {
                true => log.delete(op.due, op.node, op.tuple),
                false => log.insert(op.due, op.node, op.tuple),
            }
        }
        let tracer = Tracer::aggregate_only();
        let builds = || builds(&tracer);
        let mut first = execution(&a, log.clone());
        first.tracer = tracer.clone();
        let mut second = execution(&b, log);
        second.tracer = tracer.clone();
        assert!(first.log.same(&second.log));
        // The program the log's index was built for, once one sliced.
        let mut kept_for = None;
        for (i, exec) in [(0, &first), (1, &second), (0, &first), (1, &second)] {
            let whole = exec.replay().unwrap();
            let sliced_any = exec.program.slice_plan().refused().is_none();
            for v in whole.graph().vertices().take(20) {
                let root = TupleRef::new(*v.node, Arc::clone(v.tuple));
                let before = builds();
                let sliced = exec
                    .replay_slice([(&root.node, &*root.tuple)], u64::MAX)
                    .unwrap();
                let tree = |r: &dp_replay::Replayed| r.query(&root).map(|t| t.render_ranked());
                assert_eq!(
                    tree(&sliced),
                    tree(&whole),
                    "seed {seed}, program {i}: {root}"
                );
                let fresh = sliced_any && kept_for.is_none();
                let want = match sliced_any {
                    false => 0,
                    true if *kept_for.get_or_insert(i) == i => u64::from(fresh),
                    true => 1,
                };
                assert_eq!(
                    builds() - before,
                    want,
                    "seed {seed}, program {i}: indexes built"
                );
            }
            checked += usize::from(sliced_any && kept_for != Some(i));
        }
    }
    assert!(checked > 10, "only {checked} slices read an index not kept");
}
