//! The MapReduce (WordCount) system model.
//!
//! The paper evaluates each MapReduce scenario twice: **-D**, a declarative
//! re-implementation in NDlog rules, and **-I**, the instrumented
//! imperative job (Hadoop with ~200 lines of provenance hooks). Both live
//! here over the same schemas:
//!
//! * the declarative pipeline is [`MR_DECLARATIVE_RULES`] — map, shuffle,
//!   and reduce all as datalog (reduce uses the engine's `agg_sum`
//!   aggregate, NDlog's `a<...>`);
//! * the imperative pipeline replaces map and shuffle with
//!   [`MapperNative`] and [`PartitionNative`] — ordinary Rust functions
//!   that *report* their dependencies per emitted key-value pair, exactly
//!   the paper's report-mode instrumentation.
//!
//! Job-wide state (the 235-entry configuration, the mapper code version,
//! the declarative mapper parameter) lives at the driver node and is
//! distributed to workers by derivation, so a misconfiguration is a single
//! mutable base tuple — which is what DiffProv then finds.

use std::sync::Arc;

use dp_ndlog::expr::hash_value;
use dp_ndlog::{Emitter, NativeRule, NodeView, Program};
use dp_types::{
    fnv64, FieldType, NodeId, Result, Schema, SchemaRegistry, Sym, Tuple, TupleRef, Value,
};

/// Checksum of the correct mapper implementation ("bytecode signature").
pub const GOOD_MAPPER: u64 = 0x600d_600d_600d_600d;
/// Checksum of the buggy mapper that drops the first word of each line.
pub const BAD_MAPPER: u64 = 0xbad0_bad0_bad0_bad0;

/// The declarative (NDlog) map and shuffle rules.
pub const MR_DECLARATIVE_RULES: &str = r#"
% Distribute job-wide state from the driver to the workers.
dcfg   cfgAt(@W, K, V)  :- mrConfig(@D, K, V), worker(@D, W).
dparam paramAt(@W, P)   :- mapperParam(@D, P), worker(@D, W).

% Map: one output pair per word, subject to the mapper parameter (the
% declarative equivalent of the MR2 code change: MinP=1 drops first words).
dmap   mapOut(@M, W, 1, F, L, P) :- wordIn(@M, F, L, P, W),
           paramAt(@M, MinP), P >= MinP.

% Shuffle: hash-partition by word across the reducer pool.
dpart  partIn(@R, W, C, F, L, P) :- mapOut(@M, W, C, F, L, P),
           cfgAt(@M, "mapreduce.job.reduces", NR),
           RI := hmod(W, NR), R := node_at("r", RI).

% Reduce: NDlog aggregation — when the driver's fence arrives, sum each
% word's counts from the pairs present at the reducer.
dred   wordCount(@R, W, agg_sum(C)) :- reduceStart(@R, G),
           partIn(@R, W, C, F, L, P).
"#;

/// Rules shared by the imperative pipeline (state distribution only; map
/// and shuffle are native).
pub const MR_IMPERATIVE_RULES: &str = r#"
dcfg   cfgAt(@W, K, V)  :- mrConfig(@D, K, V), worker(@D, W).
dcode  codeAt(@W, V)    :- mapperCode(@D, V), worker(@D, W).
"#;

/// Schemas shared by both pipelines.
pub fn mr_schemas() -> SchemaRegistry {
    use dp_types::TableKind::*;
    let mut reg = SchemaRegistry::new();
    // Driver-side state.
    reg.declare(
        Schema::new(
            "mrConfig",
            MutableBase,
            [("key", FieldType::Str), ("val", FieldType::Int)],
        )
        .with_key([0]),
    );
    reg.declare(Schema::new("mapperParam", MutableBase, [("minPos", FieldType::Int)]));
    reg.declare(Schema::new("mapperCode", MutableBase, [("ver", FieldType::Sum)]));
    reg.declare(Schema::new("worker", ImmutableBase, [("name", FieldType::Str)]));
    // Inputs.
    reg.declare(Schema::new(
        "inputFile",
        ImmutableBase,
        [("name", FieldType::Str), ("sum", FieldType::Sum), ("bytes", FieldType::Int)],
    ));
    reg.declare(Schema::new(
        "wordIn",
        ImmutableBase,
        [
            ("file", FieldType::Str),
            ("line", FieldType::Int),
            ("pos", FieldType::Int),
            ("word", FieldType::Str),
        ],
    ));
    reg.declare(Schema::new(
        "lineIn",
        ImmutableBase,
        [("file", FieldType::Str), ("line", FieldType::Int), ("text", FieldType::Str)],
    ));
    // Phase fences (driver-issued stimuli).
    reg.declare(Schema::new("combineStart", ImmutableBase, [("gen", FieldType::Int)]));
    reg.declare(Schema::new("reduceStart", ImmutableBase, [("gen", FieldType::Int)]));
    reg.declare(Schema::new("commitStart", ImmutableBase, [("gen", FieldType::Int)]));
    // Distributed state and pipeline products.
    reg.declare(
        Schema::new(
            "cfgAt",
            Derived,
            [("key", FieldType::Str), ("val", FieldType::Int)],
        ),
    );
    reg.declare(Schema::new("paramAt", Derived, [("minPos", FieldType::Int)]));
    reg.declare(Schema::new("codeAt", Derived, [("ver", FieldType::Sum)]));
    reg.declare(Schema::new(
        "mapOut",
        Derived,
        [
            ("word", FieldType::Str),
            ("count", FieldType::Int),
            ("file", FieldType::Str),
            ("line", FieldType::Int),
            ("pos", FieldType::Int),
        ],
    ));
    reg.declare(Schema::new(
        "partIn",
        Derived,
        [
            ("word", FieldType::Str),
            ("count", FieldType::Int),
            ("file", FieldType::Str),
            ("line", FieldType::Int),
            ("pos", FieldType::Int),
        ],
    ));
    reg.declare(Schema::new(
        "wordCount",
        Derived,
        [("word", FieldType::Str), ("count", FieldType::Int)],
    ));
    reg.declare(Schema::new("outputFile", Derived, [("sum", FieldType::Sum)]));
    reg
}

/// The declarative WordCount program (MR*-D). Map, shuffle, and reduce are
/// all NDlog rules (reduce via the `agg_sum` aggregate); only the output
/// checksum remains native (hashing is genuinely imperative).
pub fn mr_declarative_program() -> Result<Arc<Program>> {
    Program::builder(mr_schemas())
        .rules_text(MR_DECLARATIVE_RULES)?
        .native(Arc::new(OutputNative))
        .build()
}

/// The imperative WordCount program (MR*-I): native map/shuffle with
/// report-mode provenance.
pub fn mr_imperative_program() -> Result<Arc<Program>> {
    Program::builder(mr_schemas())
        .rules_text(MR_IMPERATIVE_RULES)?
        .native(Arc::new(MapperNative))
        .native(Arc::new(PartitionNative))
        .native(Arc::new(ReduceNative))
        .native(Arc::new(OutputNative))
        .build()
}

/// The imperative pipeline with a map-side **combiner**: per-mapper
/// pre-aggregation replaces the per-pair shuffle. Counts are identical;
/// the shuffle ships one `partIn` per `(mapper, word)` instead of one per
/// occurrence, and map-side provenance granularity coarsens accordingly
/// (each shuffled pair reports *all* its contributing occurrences).
pub fn mr_combiner_program() -> Result<Arc<Program>> {
    Program::builder(mr_schemas())
        .rules_text(MR_IMPERATIVE_RULES)?
        .native(Arc::new(MapperNative))
        .native(Arc::new(CombinerNative))
        .native(Arc::new(ReduceNative))
        .native(Arc::new(OutputNative))
        .build()
}

fn sym(s: &str) -> Sym {
    Sym::new(s)
}

/// The imperative mapper: splits each input line into words and emits one
/// `(word, 1)` pair per word. The implementation is selected by the job's
/// registered mapper-code checksum — [`BAD_MAPPER`] reproduces the MR2 bug
/// (the first word of each line is dropped). Every emission reports its
/// dependencies: the input line and the code version.
pub struct MapperNative;

impl NativeRule for MapperNative {
    fn name(&self) -> Sym {
        sym("imap")
    }

    fn triggers(&self) -> Vec<Sym> {
        vec![sym("lineIn")]
    }

    fn fire(&self, view: &NodeView<'_>, trigger: &Tuple, out: &mut Emitter) -> Result<()> {
        let Some(code) = view.table(&sym("codeAt")).next() else {
            return Ok(()); // no code deployed yet
        };
        let version = code.args[0].as_sum()?;
        let file = trigger.args[0].clone();
        let line = trigger.args[1].clone();
        let text = trigger.args[2].as_str()?.as_str().to_string();
        let body = vec![
            TupleRef::new(*view.node, trigger.clone()),
            TupleRef::new(*view.node, code.clone()),
        ];
        for (pos, word) in text.split_whitespace().enumerate() {
            if version == BAD_MAPPER && pos == 0 {
                continue; // the bug: first word of each line is dropped
            }
            out.emit(
                *view.node,
                Tuple::new(
                    "mapOut",
                    vec![
                        Value::str(word),
                        Value::Int(1),
                        file.clone(),
                        line.clone(),
                        Value::Int(pos as i64),
                    ],
                ),
                body.clone(),
            );
        }
        Ok(())
    }
}

/// The imperative shuffle: routes each map output pair to reducer
/// `hash(word) % numReducers`, reporting the configuration entry it read.
pub struct PartitionNative;

impl PartitionNative {
    fn reducers(view: &NodeView<'_>) -> Result<Option<(Tuple, i64)>> {
        for t in view.table(&sym("cfgAt")) {
            if t.args[0] == Value::str("mapreduce.job.reduces") {
                let n = t.args[1].as_int()?;
                return Ok(Some((t.clone(), n)));
            }
        }
        Ok(None)
    }
}

impl NativeRule for PartitionNative {
    fn name(&self) -> Sym {
        sym("ipart")
    }

    fn triggers(&self) -> Vec<Sym> {
        vec![sym("mapOut")]
    }

    fn fire(&self, view: &NodeView<'_>, trigger: &Tuple, out: &mut Emitter) -> Result<()> {
        let Some((cfg, n)) = Self::reducers(view)? else {
            return Ok(());
        };
        if n <= 0 {
            return Ok(());
        }
        let word = &trigger.args[0];
        let idx = (hash_value(word) % (n as u64)) as i64;
        let reducer = NodeId::new(format!("r{idx}"));
        out.emit_delayed(
            reducer,
            Tuple::new("partIn", trigger.args.clone()),
            vec![
                TupleRef::new(*view.node, trigger.clone()),
                TupleRef::new(*view.node, cfg),
            ],
            1,
        );
        Ok(())
    }
}

/// The map-side combiner: on the driver's `combineStart` fence, aggregate
/// this mapper's `mapOut` pairs per word and ship one pre-summed pair to
/// the word's reducer. Reported dependencies: the fence, the shuffle
/// configuration, and every contributing map output.
pub struct CombinerNative;

impl NativeRule for CombinerNative {
    fn name(&self) -> Sym {
        sym("combine")
    }

    fn triggers(&self) -> Vec<Sym> {
        vec![sym("combineStart")]
    }

    fn fire(&self, view: &NodeView<'_>, trigger: &Tuple, out: &mut Emitter) -> Result<()> {
        use std::collections::BTreeMap;
        let Some((cfg, n)) = PartitionNative::reducers(view)? else {
            return Ok(());
        };
        if n <= 0 {
            return Ok(());
        }
        let mut groups: BTreeMap<Sym, (i64, Vec<TupleRef>)> = BTreeMap::new();
        for t in view.table(&sym("mapOut")) {
            let word = *t.args[0].as_str()?;
            let count = t.args[1].as_int()?;
            let entry = groups.entry(word).or_insert_with(|| {
                (
                    0,
                    vec![
                        TupleRef::new(*view.node, trigger.clone()),
                        TupleRef::new(*view.node, cfg.clone()),
                    ],
                )
            });
            entry.0 += count;
            entry.1.push(TupleRef::new(*view.node, t.clone()));
        }
        for (word, (total, body)) in groups {
            let idx = (hash_value(&Value::Str(word)) % (n as u64)) as i64;
            let reducer = NodeId::new(format!("r{idx}"));
            out.emit_delayed(
                reducer,
                Tuple::new(
                    "partIn",
                    vec![
                        Value::Str(word),
                        Value::Int(total),
                        // Pre-aggregated: the origin is the whole mapper,
                        // not a single occurrence. Stamping the mapper
                        // name also keeps pairs from different mappers
                        // distinct tuples.
                        Value::str(view.node.as_str()),
                        Value::Int(-1),
                        Value::Int(-1),
                    ],
                ),
                body,
                1,
            );
        }
        Ok(())
    }
}

/// The reduce aggregation (NDlog's `a<sum>` equivalent): when the driver's
/// `reduceStart` fence arrives at a reducer, sum the counts of each word
/// from the `partIn` tuples present and emit one `wordCount` per word. The
/// reported dependencies are the fence plus every contributing pair.
pub struct ReduceNative;

impl NativeRule for ReduceNative {
    fn name(&self) -> Sym {
        sym("reduce")
    }

    fn triggers(&self) -> Vec<Sym> {
        vec![sym("reduceStart")]
    }

    fn fire(&self, view: &NodeView<'_>, trigger: &Tuple, out: &mut Emitter) -> Result<()> {
        use std::collections::BTreeMap;
        let mut groups: BTreeMap<Sym, (i64, Vec<TupleRef>)> = BTreeMap::new();
        for t in view.table(&sym("partIn")) {
            let word = *t.args[0].as_str()?;
            let count = t.args[1].as_int()?;
            let entry = groups.entry(word).or_insert_with(|| {
                (0, vec![TupleRef::new(*view.node, trigger.clone())])
            });
            entry.0 += count;
            entry.1.push(TupleRef::new(*view.node, t.clone()));
        }
        for (word, (total, body)) in groups {
            out.emit(
                *view.node,
                Tuple::new("wordCount", vec![Value::Str(word), Value::Int(total)]),
                body,
            );
        }
        Ok(())
    }
}

/// Output commit: checksums the reducer's sorted `(word, count)` pairs into
/// an `outputFile` tuple — the per-reducer output file identity the user
/// compares across runs.
pub struct OutputNative;

impl NativeRule for OutputNative {
    fn name(&self) -> Sym {
        sym("commit")
    }

    fn triggers(&self) -> Vec<Sym> {
        vec![sym("commitStart")]
    }

    fn fire(&self, view: &NodeView<'_>, trigger: &Tuple, out: &mut Emitter) -> Result<()> {
        let mut body = vec![TupleRef::new(*view.node, trigger.clone())];
        let mut content = String::new();
        for t in view.table(&sym("wordCount")) {
            content.push_str(&format!("{}\t{}\n", t.args[0], t.args[1]));
            body.push(TupleRef::new(*view.node, t.clone()));
        }
        if body.len() == 1 {
            return Ok(()); // reducer produced nothing: no output file
        }
        out.emit(
            *view.node,
            Tuple::new("outputFile", vec![Value::Sum(fnv64(content.as_bytes()))]),
            body,
        );
        Ok(())
    }
}
