//! `diagbench`: the repository's end-to-end diagnosis benchmark.
//!
//! The timed unit is one full diagnosis through the public API
//! (`dp_sdn::campus` → `Scenario::diagnose` → `Report`) on one of four
//! campus workloads, run closed-loop from a single process with the
//! engine's default configuration. See `README.md` beside this crate.

pub mod calibrate;
pub mod compare;
pub mod json;
pub mod outcome;
pub mod probe;
pub mod spans;
pub mod stats;
pub mod suite;
pub mod timed;
pub mod workload;
