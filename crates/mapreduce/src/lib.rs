//! # dp-mapreduce — the MapReduce substrate of the DiffProv suite
//!
//! A deterministic WordCount system in two flavours, mirroring the paper's
//! evaluation (Section 6):
//!
//! * the **declarative** pipeline expresses map and shuffle as NDlog rules
//!   (the paper's RapidNet re-implementation, scenarios `MR1-D`/`MR2-D`);
//! * the **imperative** pipeline runs plain Rust map/shuffle functions
//!   wrapped in [`dp_ndlog::NativeRule`]s that report their data
//!   dependencies per key-value pair — the paper's ~200-line Hadoop
//!   instrumentation, scenarios `MR1-I`/`MR2-I`.
//!
//! [`corpus`] generates the input texts (the Wikipedia-dataset stand-in),
//! [`job`] assembles execution logs, and [`scenarios`] packages the MR1
//! (configuration change) and MR2 (code change) diagnostics.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

pub mod corpus;
pub mod job;
pub mod program;
pub mod scenarios;

pub use corpus::{expected_counts, generate, CorpusConfig, InputFile, FIRST_WORDS};
pub use job::{build_job, reducer_of, JobConfig, Pipeline, DRIVER, REDUCER_POOL};
pub use program::{
    mr_combiner_program, mr_declarative_program, mr_imperative_program, mr_schemas,
    CombinerNative, MapperNative, OutputNative, PartitionNative, ReduceNative, BAD_MAPPER,
    GOOD_MAPPER,
};
pub use scenarios::{all_mr_scenarios, mr1_d, mr1_i, mr2_d, mr2_i};
