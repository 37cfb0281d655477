//! # dp-sim — seeded fault-injection simulation harness
//!
//! The repro scenarios (SDN1–4, the MapReduce jobs, the campus network)
//! pin nine hand-built diagnosis cases; this crate generates *hundreds*
//! of them. From a single `u64` seed it synthesizes a random SDN
//! topology, a probe-packet workload, and a fault-injection schedule —
//! rule withdrawals and recoveries, delayed and reordered control-plane
//! installs, duplicated packets, process restarts that leave only the
//! durable store behind, and racing controller updates whose arrival
//! order flips the forwarding decision (the native good/bad pair). Each
//! scenario runs end-to-end through the deterministic engine, the
//! provenance recorder, the replay layer, and DiffProv, and is held to
//! an invariant battery (see [`battery`]): stream-digest agreement
//! between the engine and its reference evaluator, provenance-graph
//! well-formedness, duplicate invisibility, and recovery from the
//! durable store — sealed across the scenario's restarts.
//!
//! When a seed fails, [`shrink::ddmin`] bisects the injection schedule
//! to a 1-minimal failing subset — masked regeneration keeps topology
//! and workload fixed, so the shrunk case is a faithful repro — and the
//! result is persisted as a [`corpus::CorpusCase`] file that the
//! regression suite replays forever after.
//!
//! Entry points: `repro -- sim --seeds N` (the benchmark CLI) and the
//! default-on pinned seed block in `crates/sim/tests/sim_battery.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod battery;
pub mod corpus;
pub mod driver;
pub mod scenario;
pub mod shrink;

pub use battery::{check_scenario, check_seed, BatteryReport, Violation};
pub use corpus::{load_corpus, CorpusCase};
pub use driver::{run_seeds, shrink_failure, SimSummary};
pub use scenario::{generate, generate_masked, Injection, Packet, SimScenario};
pub use shrink::ddmin;
