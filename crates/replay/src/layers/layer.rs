//! Sealed, immutable on-disk layer files.
//!
//! A layer file holds the base events of **one node** over one due-time
//! range, in replay order, mirroring how neon's pageserver seals an
//! ephemeral open layer into immutable delta layers keyed by (key range,
//! LSN range) — here the key is the node and the "LSN" is the logical due
//! time. Once written a layer is never modified; compaction is simply
//! sealing more layers.
//!
//! ## File format (`DPLY` version 1)
//!
//! ```text
//! "DPLY" u16=1              header (magic + version)
//! str    node               the node all events belong to
//! u64    first_seq          global arrival index of the first record
//! u64    min_due  u64 max_due
//! u32    count
//! count × { u64 seq, u64 due, u8 op, tuple }
//! u64    fnv64(everything above)
//! ```
//!
//! `seq` is each event's position in the log's replay order, assigned at
//! seal time. Due ranges of different layers may overlap (per node and
//! across nodes), so reads restore the global replay order with a k-way
//! merge on `(due, seq)` — exactly the key the in-memory log sorts by, so
//! a read through any layer arrangement is bit-identical to an in-memory
//! replay. The whole file is checksummed and eagerly verified on open:
//! truncation and bit rot surface as [`Error::Codec`] before any event is
//! replayed, never as a panic mid-recovery.

use std::fs::OpenOptions;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use dp_types::codec::{fnv64, Dec, Enc};
use dp_types::{Error, LogicalTime, NodeId, Result};

use crate::log::{BaseEvent, BaseOp};

/// Layer-file magic.
pub const LAYER_MAGIC: &[u8; 4] = b"DPLY";
/// Current layer-format version.
pub const LAYER_VERSION: u16 = 1;

/// One event as stored in a layer, tagged with its global replay position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SeqEvent {
    /// Position in the log's replay order (the merge key's tiebreaker).
    pub seq: u64,
    /// The event itself.
    pub event: BaseEvent,
}

/// A sealed layer loaded back into memory, checksum-verified.
#[derive(Clone, Debug)]
pub struct Layer {
    /// The node every event in this layer belongs to.
    pub node: NodeId,
    /// Smallest due time in the layer.
    pub min_due: LogicalTime,
    /// Largest due time in the layer.
    pub max_due: LogicalTime,
    /// First global sequence number in the layer.
    pub first_seq: u64,
    /// The events, in `(due, seq)` order.
    pub events: Vec<SeqEvent>,
    /// Size of the layer file in bytes.
    pub file_bytes: u64,
    /// Where the layer was read from (or written to).
    pub path: PathBuf,
}

fn io_err(context: &'static str, path: &Path, e: std::io::Error) -> Error {
    Error::Engine(format!("{context} {}: {e}", path.display()))
}

/// Encodes one node's slice of the replay order and writes it to `path`,
/// which must not exist: a sealed layer is never overwritten, so a handle
/// numbering its seal from a stale count gets an error, not the file.
/// `events` must be non-empty, all on one node, in `(due, seq)` order.
pub fn write_layer(path: &Path, node: &NodeId, events: &[SeqEvent]) -> Result<Layer> {
    assert!(!events.is_empty(), "a layer holds at least one event");
    debug_assert!(events.iter().all(|e| e.event.node == *node));
    debug_assert!(events
        .windows(2)
        .all(|w| (w[0].event.due, w[0].seq) < (w[1].event.due, w[1].seq)));
    let mut e = Enc::new();
    e.header(LAYER_MAGIC, LAYER_VERSION);
    e.str(node.as_str());
    e.u64(events[0].seq);
    e.u64(events.iter().map(|s| s.event.due).min().unwrap_or(0));
    e.u64(events.iter().map(|s| s.event.due).max().unwrap_or(0));
    e.u32(events.len() as u32);
    for s in events {
        e.u64(s.seq);
        e.u64(s.event.due);
        e.u8(match s.event.op {
            BaseOp::Insert => 0,
            BaseOp::Delete => 1,
        });
        e.tuple(&s.event.tuple);
    }
    let sum = fnv64(e.bytes());
    e.u64(sum);
    let bytes = e.into_bytes();
    OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(path)
        .and_then(|mut file| file.write_all(&bytes))
        .map_err(|err| io_err("writing layer", path, err))?;
    Ok(Layer {
        node: *node,
        min_due: events.first().map_or(0, |s| s.event.due),
        max_due: events.iter().map(|s| s.event.due).max().unwrap_or(0),
        first_seq: events[0].seq,
        events: events.to_vec(),
        file_bytes: bytes.len() as u64,
        path: path.to_path_buf(),
    })
}

/// The fewest bytes a record can take: seq, due, op, and a tuple with an
/// empty table name and no fields.
const MIN_RECORD_BYTES: usize = 8 + 8 + 1 + 4 + 4;

/// Reads a layer back, verifying the whole-file checksum before decoding
/// a single record, and then everything the merge takes for granted: at
/// least one record, records strictly increasing in `(due, seq)`, and
/// header fields that describe them. The checksum is no secret, so a file
/// that passes it is still outside input; each violation is a typed
/// [`Error::Codec`].
pub fn read_layer(path: &Path) -> Result<Layer> {
    let bytes = std::fs::read(path).map_err(|err| io_err("reading layer", path, err))?;
    let malformed = |detail: String| Error::Codec {
        context: "layer file",
        detail: format!("{}: {detail}", path.display()),
    };
    if bytes.len() < 8 {
        return Err(malformed("too short to hold a checksum".into()));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let mut d = Dec::new(tail);
    let stored = d.u64("layer checksum")?;
    if fnv64(body) != stored {
        return Err(malformed("checksum mismatch".into()));
    }
    let mut d = Dec::new(body);
    d.header(LAYER_MAGIC, LAYER_VERSION)?;
    let node = NodeId::new(d.str("layer node")?);
    let first_seq = d.u64("layer first-seq")?;
    let min_due = d.u64("layer min-due")?;
    let max_due = d.u64("layer max-due")?;
    let count = d.u32("layer record count")? as usize;
    // Refuse before reserving: the count is a header field's word.
    if count == 0 || count > d.remaining() / MIN_RECORD_BYTES {
        return Err(malformed(format!(
            "record count {count} is zero or exceeds what the {} bytes left can hold",
            d.remaining()
        )));
    }
    let mut events: Vec<SeqEvent> = Vec::with_capacity(count);
    for _ in 0..count {
        let seq = d.u64("record seq")?;
        let due = d.u64("record due")?;
        let op = match d.u8("record op")? {
            0 => BaseOp::Insert,
            1 => BaseOp::Delete,
            other => {
                return Err(Error::Codec {
                    context: "record op",
                    detail: format!("expected 0 or 1, found {other}"),
                })
            }
        };
        let tuple = d.tuple()?;
        if events.last().is_some_and(|p| (p.event.due, p.seq) >= (due, seq)) {
            return Err(malformed(format!(
                "record {} (due {due}, seq {seq}) does not follow its predecessor in replay order",
                events.len()
            )));
        }
        events.push(SeqEvent {
            seq,
            event: BaseEvent {
                due,
                node,
                tuple: Arc::new(tuple),
                op,
            },
        });
    }
    if !d.is_exhausted() {
        return Err(malformed(format!(
            "{} trailing byte(s) before the checksum",
            d.remaining()
        )));
    }
    let (first, last) = (&events[0], &events[count - 1]);
    if (first_seq, min_due, max_due) != (first.seq, first.event.due, last.event.due) {
        return Err(malformed(format!(
            "header (first-seq {first_seq}, dues {min_due}..={max_due}) does not describe its \
             records (first-seq {}, dues {}..={})",
            first.seq, first.event.due, last.event.due
        )));
    }
    Ok(Layer {
        node,
        min_due,
        max_due,
        first_seq,
        events,
        file_bytes: bytes.len() as u64,
        path: path.to_path_buf(),
    })
}
