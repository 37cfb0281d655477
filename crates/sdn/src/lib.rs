//! # dp-sdn — the SDN substrate of the DiffProv suite
//!
//! Everything the paper's SDN case studies need, rebuilt on the
//! deterministic NDlog engine:
//!
//! * [`program`] — the OpenFlow network model (tables, forwarding rules,
//!   priority resolution as a stateful builtin with a repair hook);
//! * [`topology`] — switch/host/link wiring and controller handshakes;
//! * [`scenarios`] — the four diagnostic scenarios SDN1–SDN4 of Section 6.2;
//! * [`stanford`] — the campus-network experiment of Section 6.7 (2
//!   backbone + 14 OZ routers, generated forwarding tables and ACLs, 20
//!   injected noise faults, background traffic);
//! * [`trace`] — the seeded synthetic packet-trace generator standing in
//!   for the proprietary CAIDA OC-192 capture.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod ecmp;
pub mod external;
pub mod program;
pub mod rewrite;
pub mod scenarios;
pub mod stanford;
pub mod topology;
pub mod trace;

pub use program::{cfg_entry, deliver, deliver_at, pkt_in, sdn_program, sdn_schemas, BestMatch, DROP_PORT};
pub use diffprov_core::Scenario;
pub use ecmp::{branch_of, ecmp_cross_branch, ecmp_network, ecmp_same_branch, pid_on_branch, Branch};
pub use scenarios::{all_sdn_scenarios, flapping, sdn1, sdn2, sdn3, sdn4};
pub use external::{from_observations, spec_program, FlowDump, PacketObservation};
pub use rewrite::nat_rewrite;
pub use stanford::{campus, Campus, CampusConfig};
pub use topology::Topology;
pub use trace::{generate, Trace, TraceConfig};
