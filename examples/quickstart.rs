//! Quickstart: diagnose a misconfiguration in a tiny declarative system.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! We model a one-rule system (`out(X+K) :- in(X), cfg(K)`), run it twice —
//! once with the right configuration and once with a fat-fingered one —
//! and ask DiffProv why the outputs differ. The answer is the single
//! configuration tuple that changed, not a wall of provenance.

use std::sync::Arc;

use diffprov::core::{DiffProv, QueryEvent};
use diffprov::ndlog::Program;
use diffprov::replay::Execution;
use diffprov::types::{tuple, FieldType, NodeId, Schema, SchemaRegistry, TableKind, TupleRef};

fn main() {
    // 1. Declare the tables. The mutability classification is what tells
    //    DiffProv which tuples a fix may touch: configuration is mutable,
    //    external inputs are not.
    let mut schemas = SchemaRegistry::new();
    schemas.declare(Schema::new(
        "in",
        TableKind::ImmutableBase,
        [("x", FieldType::Int)],
    ));
    schemas.declare(Schema::new(
        "cfg",
        TableKind::MutableBase,
        [("k", FieldType::Int)],
    ));
    schemas.declare(Schema::new(
        "out",
        TableKind::Derived,
        [("y", FieldType::Int)],
    ));

    // 2. The system's algorithm, as an NDlog rule.
    let program = Program::builder(schemas)
        .rules_text("r out(@N, Y) :- in(@N, X), cfg(@N, K), Y := X + K.")
        .expect("rule parses")
        .build()
        .expect("program validates");

    // 3. The good run: cfg=10, input 1, output 11.
    let mut good = Execution::new(Arc::clone(&program));
    good.log.insert(0, "n1", tuple!("cfg", 10));
    good.log.insert(5, "n1", tuple!("in", 1));

    // 4. The bad run: someone changed cfg to 20; input 2 now yields 22
    //    where the operator expected 12.
    let mut bad = Execution::new(Arc::clone(&program));
    bad.log.insert(0, "n1", tuple!("cfg", 20));
    bad.log.insert(5, "n1", tuple!("in", 2));

    // 5. Diagnose: why is out(22) different from the reference out(11)?
    let n = NodeId::new("n1");
    let report = DiffProv::default()
        .diagnose(
            &good,
            &QueryEvent::new(TupleRef::new(n, tuple!("out", 11)), u64::MAX),
            &bad,
            &QueryEvent::new(TupleRef::new(n, tuple!("out", 22)), u64::MAX),
        )
        .expect("diagnosis runs");

    println!("good tree: {} vertexes", report.good_tree_size);
    println!("bad tree:  {} vertexes", report.bad_tree_size);
    println!("{report}");
    assert!(report.succeeded() && report.delta.len() == 1);
    println!(
        "DiffProv pinpointed the root cause in {} change: {}",
        report.delta.len(),
        report.delta[0]
    );
}
