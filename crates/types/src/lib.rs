//! Shared foundation types for the DiffProv differential provenance suite.
//!
//! Every other crate in the workspace builds on the types defined here:
//!
//! * [`Sym`] — an interned, one-word `Copy` name used for table names, rule
//!   names, node names, and string values.
//! * [`Value`] — the dynamic value type carried in tuple fields (integers,
//!   IPv4 addresses, prefixes, strings, checksums, logical times).
//! * [`Tuple`] — a row of a named table; the unit of state in the Network
//!   Datalog (NDlog) system model of the paper (Section 3.1).
//! * [`Schema`] / [`SchemaRegistry`] — table declarations, including the
//!   *mutability* classification that DiffProv's Refinement #1 (Section 3.3)
//!   depends on: only *mutable* base tuples may appear in a proposed fix.
//! * [`NodeId`] — identity of a node in the distributed system (a switch, a
//!   controller, a MapReduce worker).
//! * [`LogicalTime`] — the deterministic logical clock used throughout.
//!
//! The crate is deliberately free of dependencies so that the whole workspace
//! shares one vocabulary without pulling an engine into scope.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

pub mod codec;
pub mod error;
pub mod idtable;
pub mod prefix;
pub mod rng;
pub mod schema;
pub mod sym;
pub mod trie;
pub mod tuple;
pub mod value;

pub use codec::{fnv64, Dec, Enc, Fnv64};
pub use error::{Error, Result};
pub use idtable::{IdTable, Probe};
pub use prefix::Prefix;
pub use rng::DetRng;
pub use schema::{FieldDecl, FieldType, Schema, SchemaRegistry, TableKind};
pub use sym::Sym;
pub use trie::PrefixTrie;
pub use tuple::{NodeId, Tuple, TupleRef, WordBuildHasher, WordHasher};
pub use value::Value;

/// A logical timestamp assigned by the deterministic engine clock.
///
/// Every event processed by the engine receives a unique, strictly
/// increasing logical time. Uniqueness is what makes the paper's seed
/// discovery (Section 4.2, "the APPEAR vertex with the highest timestamp")
/// well defined.
pub type LogicalTime = u64;
