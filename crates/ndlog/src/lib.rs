//! # dp-ndlog — a deterministic Network Datalog engine
//!
//! This crate is the workspace's stand-in for RapidNet, the declarative
//! networking engine on which the DiffProv prototype was built (Section 5
//! of the paper). It provides:
//!
//! * an NDlog rule [`ast`] and a text [`parser`];
//! * an [`expr`] language with **inversion** support, which DiffProv's
//!   taint/formula machinery (Sections 4.3–4.5) relies on;
//! * a deterministic, discrete-event, distributed [`engine`] with trigger
//!   semantics, support counting, and cascading deletions, firing rules
//!   that [`ProgramBuilder::build`] compiled to slots and planned into
//!   indexed and trie-probed join steps in one pass;
//! * the [`reference`] evaluator, the small oracle the engine's
//!   provenance stream and final tables are checked against;
//! * the [`sink`] event stream from which temporal provenance graphs are
//!   built; and
//! * extension points for imperative code ([`program::NativeRule`], the
//!   paper's "report" capture mode) and for stateful constraint predicates
//!   ([`program::StatefulBuiltin`], e.g. OpenFlow priority resolution).
//!
//! The engine is intentionally synchronous and single-threaded: DiffProv's
//! replay-based provenance reconstruction requires bit-identical
//! re-execution, so determinism takes precedence over parallelism.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
mod compile;
pub mod engine;
pub mod expr;
pub mod parser;
pub mod program;
pub mod reference;
pub mod sink;
#[cfg(feature = "testing")]
pub mod testsupport;

pub use ast::{AggFunc, AggSpec, Assign, BodyAtom, Constraint, HeadAtom, Pattern, Rule};
pub use engine::{
    join_profile_json, DerivRecord, Engine, NodeView, RuleJoinProfile, Stats,
    TupleState,
};
pub use expr::{BinOp, Env, Expr, Func};
pub use parser::{parse_expr, parse_rule, parse_rules};
pub use program::{
    Emission, Emitter, NativeRule, Program, ProgramBuilder, Reads, StatefulBuiltin, TupleChange,
};
pub use reference::ScheduledOp;
pub use sink::{BodyRef, HashSink, NullSink, ProvEvent, ProvenanceSink, VecSink};
