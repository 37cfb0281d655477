//! # dp-provenance — temporal network provenance
//!
//! The provenance layer of the DiffProv suite: builds the temporal
//! provenance graph of Section 3.2 from the engine's event stream, extracts
//! provenance *trees* for queried events, collapses them into the
//! tuple-granularity views DiffProv reasons over, and implements the two
//! baselines the paper evaluates against (the Y!-style whole-tree query and
//! the plain tree diff of Section 2.5).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod diff;
pub mod graph;
pub mod invariants;
pub mod tree;

pub use diff::{plain_tree_diff, ybang_answer_size, PlainDiff, VertexSig};
pub use graph::{
    Episode, GraphRecorder, GraphStats, ProvGraph, RowId, Vertex, VertexId, VertexKind,
};
pub use invariants::{
    check_well_formed, tree_well_formedness_violations, well_formedness_violations,
};
pub use tree::{
    extract_tree, extract_tree_latest, extract_tree_since, tuple_view, ProvTree, TreeIdx,
    TreeNode, TupleNode, TupleTree,
};
