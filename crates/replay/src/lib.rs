//! # dp-replay — logging and deterministic replay
//!
//! The logging and replay engines of the DiffProv prototype (Section 5):
//! a base-event [`log`] written at runtime, query-time provenance
//! reconstruction by deterministic replay ([`exec`]), cloned replay with
//! tuple changes applied (the UPDATETREE step of the algorithm), and the
//! durable [`layers`] store (one on-disk layer file per seal, recovered
//! by reading the layers back in sequence and replaying them). A logged
//! event has one encoding, the layer file's record, written by one
//! stateful encoder that keeps the layer's dictionary and the previous
//! due ([`layers::layer::LayerEncoder::encode_record`]): layer files and
//! the Section 6.4 runtime log sink both go through it, and the Figure
//! 5/6 and Section 6.5 experiments measure the bytes the store writes. An
//! engine state is reached by replaying a log — there is no checkpoint
//! image.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod exec;
pub mod layers;
pub mod log;
mod slice;

pub use exec::{apply_changes, Execution, ProvBackend, Replayed};
/// Scaffolding for the crate's differential tests (feature `testing`).
#[cfg(feature = "testing")]
pub mod testsupport {
    pub use crate::slice::cut_log;
}
pub use layers::{Checkpoint, DurableStore, Layer};
pub use log::{BaseEvent, BaseOp, EventLog};
