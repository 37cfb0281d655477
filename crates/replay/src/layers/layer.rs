//! Sealed, immutable on-disk layer files.
//!
//! A layer file holds one seal's batch: the next run of the log's replay
//! order, every node's events together, as the log ordered them. Once
//! written a layer is never modified, and the stack is read back by
//! concatenating its layers in `first_seq` order.
//!
//! ## File format (`DPLY` version 2)
//!
//! ```text
//! "DPLY" u16=2              header (magic + version)
//! u64    first_seq          events in the layers before this one
//! u32    count
//! count × { u64 due, u8 op, str node, tuple }
//! u64    fnv64(everything above)
//! ```
//!
//! The whole file is checksummed and eagerly verified on open: truncation
//! and bit rot surface as [`Error::Codec`] before any event is replayed,
//! never as a panic mid-recovery. A file of any other version is refused,
//! not read.
//!
//! A seal is atomic: the bytes go to a temporary name, are synced, and
//! are linked under the layer's name only if that name is free. A crash
//! leaves either the whole layer or a `.tmp` file that `open` ignores.

use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dp_types::codec::{fnv64, Dec, Enc};
use dp_types::{Error, LogicalTime, NodeId, Result, Tuple};

use crate::log::{BaseEvent, BaseOp};

/// Layer-file magic.
pub const LAYER_MAGIC: &[u8; 4] = b"DPLY";
/// The layer-format version, the only one the reader accepts.
pub const LAYER_VERSION: u16 = 2;

/// A sealed layer loaded back into memory, checksum-verified.
#[derive(Clone, Debug)]
pub struct Layer {
    /// The number of events in the layers before this one: the replay
    /// position of its first event.
    pub first_seq: u64,
    /// The events, in replay order.
    pub events: Vec<BaseEvent>,
    /// Size of the layer file in bytes.
    pub file_bytes: u64,
    /// Where the layer was read from (or written to).
    pub path: PathBuf,
}

fn io_err(context: &'static str, path: &Path, e: std::io::Error) -> Error {
    Error::Engine(format!("{context} {}: {e}", path.display()))
}

/// Encodes a run of the replay order, starting at replay position
/// `first_seq`, and seals it at `path`, which must not exist: a sealed
/// layer is never overwritten, so a handle numbering its seal from a
/// stale count gets an error, not the file. `events` must be non-empty
/// and in replay order.
pub fn write_layer(path: &Path, first_seq: u64, events: &[BaseEvent]) -> Result<Layer> {
    assert!(!events.is_empty(), "a layer holds at least one event");
    let mut e = Enc::new();
    e.header(LAYER_MAGIC, LAYER_VERSION);
    e.u64(first_seq);
    let count = u32::try_from(events.len())
        .map_err(|_| Error::Engine(format!("{}: too many events", path.display())))?;
    e.u32(count);
    for ev in events {
        encode_record(&mut e, ev.due, ev.op, ev.node, &ev.tuple)?;
    }
    let sum = fnv64(e.bytes());
    e.u64(sum);
    let bytes = e.into_bytes();
    seal_bytes(path, &bytes).map_err(|err| io_err("writing layer", path, err))?;
    Ok(Layer {
        first_seq,
        events: events.to_vec(),
        file_bytes: bytes.len() as u64,
        path: path.to_path_buf(),
    })
}

/// Appends one logged base event to `e` as a `DPLY` record: `u64 due`,
/// `u8 op`, the node name, the tuple. This is the one encoding of a logged
/// event: layer files are runs of these records, and the runtime logging
/// engine's cost (Figures 5 and 6, Sections 6.4 and 6.5) is their size.
/// A name or string of 4 GiB or more is an `Error::Codec`.
pub fn encode_record(
    e: &mut Enc,
    due: LogicalTime,
    op: BaseOp,
    node: NodeId,
    tuple: &Tuple,
) -> Result<()> {
    e.u64(due);
    e.u8(match op {
        BaseOp::Insert => 0,
        BaseOp::Delete => 1,
    });
    e.str(node.as_str())?;
    e.tuple(tuple)
}

/// Writes `bytes` to a temporary name unique to this call, syncs it,
/// links it as `path` (which fails if `path` exists), then removes the
/// temporary name and syncs the directory.
fn seal_bytes(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_extension(format!("dply.{}-{n}.tmp", std::process::id()));
    let linked = File::create(&tmp)
        .and_then(|mut file| {
            file.write_all(bytes)?;
            file.sync_all()
        })
        .and_then(|()| std::fs::hard_link(&tmp, path));
    let removed = std::fs::remove_file(&tmp);
    linked?;
    removed?;
    match path.parent() {
        Some(dir) => File::open(dir)?.sync_all(),
        None => Ok(()),
    }
}

/// The fewest bytes a record can take: due, op, an empty node name, and a
/// tuple with an empty table name and no fields.
const MIN_RECORD_BYTES: usize = 8 + 1 + 4 + 4 + 4;

/// Reads a layer back, verifying the whole-file checksum before decoding
/// a single record, and then what the concatenated read takes for
/// granted: version 2 exactly, at least one record, and dues that never
/// decrease. The checksum is no secret, so a file that passes it is still
/// outside input; each violation is a typed [`Error::Codec`].
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
    let first_seq = d.u64("layer first-seq")?;
    let count = d.u32("layer record count")? as usize;
    // Refuse before reserving: the count is a header field's word.
    if count == 0 || count > d.remaining() / MIN_RECORD_BYTES {
        return Err(malformed(format!(
            "record count {count} is zero or exceeds what the {} bytes left can hold",
            d.remaining()
        )));
    }
    let mut events: Vec<BaseEvent> = Vec::with_capacity(count);
    for _ in 0..count {
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
        let node = NodeId::new(d.str("record node")?);
        let tuple = d.tuple()?;
        if let Some(prev) = events.last().filter(|p| p.due > due) {
            return Err(malformed(format!(
                "record {} (due {due}) comes before its predecessor's due {}",
                events.len(),
                prev.due
            )));
        }
        events.push(BaseEvent {
            due,
            node,
            tuple: Arc::new(tuple),
            op,
        });
    }
    if !d.is_exhausted() {
        return Err(malformed(format!(
            "{} trailing byte(s) before the checksum",
            d.remaining()
        )));
    }
    Ok(Layer {
        first_seq,
        events,
        file_bytes: bytes.len() as u64,
        path: path.to_path_buf(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_types::prefix::ip;

    fn pkt_in_record(src: &str, dst: &str, len: i64) -> usize {
        let mut e = Enc::new();
        let pkt = dp_sdn::pkt_in(7, ip(src), ip(dst), 6, len);
        encode_record(&mut e, 100, BaseOp::Insert, NodeId::new("S1"), &pkt).unwrap();
        e.len()
    }

    /// A packet is logged as its header fields, not its payload: the
    /// record's length depends neither on the packet-length field nor on
    /// the addresses.
    #[test]
    fn packet_records_are_fixed_size() {
        let a = pkt_in_record("10.0.0.1", "10.0.0.2", 64);
        assert_eq!(pkt_in_record("192.168.7.9", "4.3.2.1", 64), a, "addresses");
        assert_eq!(pkt_in_record("10.0.0.1", "10.0.0.2", 1500), a, "packet length");
        // due 8 + op 1 + node (4 + 2) + table (4 + 5) + arity 4
        // + pid, proto, len 3 × (1 + 8) + src, dst 2 × (1 + 4).
        assert_eq!(a, 65);
    }
}
