//! # diffprov — differential provenance for network diagnostics
//!
//! A from-scratch Rust reproduction of *"The Good, the Bad, and the
//! Differences: Better Network Diagnostics with Differential Provenance"*
//! (Chen, Wu, Haeberlen, Zhou, Loo — SIGCOMM 2016), including every
//! substrate the paper's prototype was built on.
//!
//! This crate is a facade re-exporting the workspace's layers:
//!
//! * [`types`] — values, tuples, schemas, mutability classification;
//! * [`ndlog`] — the deterministic Network Datalog engine (the RapidNet
//!   stand-in), with expression inversion, native rules, and stateful
//!   builtins;
//! * [`provenance`] — the temporal provenance graph, tree extraction, and
//!   the Y!/plain-diff baselines;
//! * [`replay`] — base-event logging, deterministic replay, the durable
//!   layer store, whose record is the one encoding of a logged event;
//! * [`core`] — **DiffProv itself**: seeds, taints and formulae, the
//!   alignment loop, constraint repair, and `Δ_{B→G}`;
//! * [`sdn`] — the OpenFlow network model, scenarios SDN1–SDN4, and the
//!   campus-network experiment;
//! * [`sim`] — the seeded fault-injection simulation harness generating
//!   hundreds of diagnosis scenarios and holding them to an invariant
//!   battery;
//! * [`trace`] — the one instrumentation handle every layer reports to:
//!   one aggregate of span times, counters, levels and sizes, read
//!   in-process;
//! * [`mapreduce`] — WordCount in declarative and instrumented-imperative
//!   form, scenarios MR1/MR2;
//! * [`netcore`] — a NetCore-style policy front-end.
//!
//! ## Five-minute tour
//!
//! ```
//! use diffprov::sdn;
//!
//! // The paper's running example: a flow entry written as 4.3.2.0/24
//! // instead of /23 misroutes part of a subnet.
//! let scenario = sdn::sdn1();
//! let report = scenario.diagnose().unwrap();
//!
//! assert!(report.succeeded());
//! // Hundreds of provenance vertexes, ONE root cause.
//! assert!(report.good_tree_size > 40);
//! assert_eq!(report.delta.len(), 1);
//! println!("{report}");
//! ```
//!
//! See the `examples/` directory for end-to-end walkthroughs and
//! `crates/bench` for the harness regenerating every table and figure of
//! the paper's evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use diffprov_core as core;
pub use dp_mapreduce as mapreduce;
pub use dp_ndlog as ndlog;
pub use dp_netcore as netcore;
pub use dp_provenance as provenance;
pub use dp_replay as replay;
pub use dp_sdn as sdn;
pub use dp_sim as sim;
pub use dp_trace as trace;
pub use dp_types as types;

pub use diffprov_core::{DiffProv, Failure, QueryEvent, Report, Scenario};
