//! Sealed, immutable on-disk layer files.
//!
//! A layer file holds one seal's batch: the next run of the log's replay
//! order, every node's events together, as the log ordered them. Once
//! written a layer is never modified, and the stack is read back by
//! concatenating its layers in `first_seq` order.
//!
//! ## File format (`DPLY` version 3)
//!
//! ```text
//! "DPLY" u16=3          header (magic + version)
//! u64    first_seq      events in the layers before this one
//! u32    count          records
//! var    names          the dictionary: every node name, table name and
//! names × str           string value the records use, once each, in the
//!                       order the records first use them
//! count × record
//! u32    footer         footer bytes before this word: 0 in version 3
//! u64    fnv64(everything above)
//!
//! record  var Δdue      due − the previous record's due (the first's − 0)
//!         u8  op        0 insert, 1 delete
//!         var node      dictionary id
//!         var table     dictionary id
//!         var arity
//!         arity × field
//! field   u8 tag, then  0 int: zigzag var   1 bool: u8      2 str: var id
//!                       3 ip: u32           4 prefix: u32 addr, u8 len
//!                       5 sum: u64          6 time: var
//! ```
//!
//! `var` is a minimal LEB128 varint and `str` a varint length and UTF-8
//! bytes ([`dp_types::codec`]). A record names each name by its id, so a
//! layer turns a name into a symbol once, in its dictionary, whatever
//! number of records carry it: a packet's record is 22 bytes, a
//! MapReduce record a few more than its fields.
//!
//! The footer word leaves a place for an index of the records (owners,
//! keys, guarded prefixes → record offsets) that an `open` could read
//! without decoding them; version 3 writes none, and a nonzero word is
//! refused.
//!
//! ## One read, checksum first
//!
//! [`decode_layer`] is the one reader. It verifies the whole-file
//! checksum before it decodes a single record, so truncation and bit rot
//! surface as [`Error::Codec`] before any event is replayed, never as a
//! panic mid-recovery. FNV-1a is no secret, so a file that passes it is
//! still outside input: every field is then checked — the version (3
//! exactly), a record count and arities the bytes left can hold, minimal
//! varints, a due that fits in 64 bits, dictionary ids in range and in
//! first-use order, a dictionary without repeats or unused entries, valid
//! UTF-8, an op, tag or bool that names one of its values, a prefix
//! without host bits, no trailing bytes — so a layer that opens is one
//! [`LayerEncoder`] writes, byte for byte, and anything else is a typed
//! [`Error::Codec`].
//!
//! A seal is atomic: the bytes go to a temporary name, are synced, and
//! are linked under the layer's name only if that name is free. A crash
//! leaves either the whole layer or a `.tmp` file that `open` ignores.

use std::collections::{HashMap, HashSet};
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dp_types::codec::{fnv64, Dec, Enc};
use dp_types::{Error, LogicalTime, NodeId, Prefix, Result, Sym, Tuple, Value, WordBuildHasher};

use crate::log::{BaseEvent, BaseOp};

/// Layer-file magic.
pub const LAYER_MAGIC: &[u8; 4] = b"DPLY";
/// The layer-format version, the only one the reader accepts.
pub const LAYER_VERSION: u16 = 3;

/// A sealed layer file: where its run starts in the log, its size and its
/// path. Its events are read into the store's log, not kept here.
#[derive(Clone, Debug)]
pub struct Layer {
    /// The number of events in the layers before this one: the replay
    /// position of its first event.
    pub first_seq: u64,
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
    let mut enc = LayerEncoder::default();
    for ev in events {
        enc.encode_record(ev.due, ev.op, ev.node, &ev.tuple)?;
    }
    let bytes = enc.finish(first_seq)?;
    seal_bytes(path, &bytes).map_err(|err| io_err("writing layer", path, err))?;
    Ok(Layer {
        first_seq,
        file_bytes: bytes.len() as u64,
        path: path.to_path_buf(),
    })
}

/// The one encoder of a logged event: it appends `DPLY` version 3
/// records, keeping the layer's dictionary and the previous record's due,
/// and [`LayerEncoder::finish`] frames them as a layer file. Layer files
/// are written by it, and the runtime logging engine's cost (Figures 5
/// and 6, Sections 6.4 and 6.5) is the size of what it writes.
#[derive(Debug, Default)]
pub struct LayerEncoder {
    /// Each name's dictionary id.
    ids: HashMap<Sym, u64, WordBuildHasher>,
    /// The dictionary, in first-use order.
    names: Vec<Sym>,
    /// The records so far.
    records: Enc,
    /// How many records `records` holds.
    count: usize,
    /// The last record's due.
    due: LogicalTime,
}

impl LayerEncoder {
    /// Appends one logged base event as a record. A due before the
    /// previous record's is not the next event of a run: an
    /// [`Error::Codec`], with nothing written.
    pub fn encode_record(
        &mut self,
        due: LogicalTime,
        op: BaseOp,
        node: NodeId,
        tuple: &Tuple,
    ) -> Result<()> {
        let delta = due.checked_sub(self.due).ok_or_else(|| Error::Codec {
            context: "record due",
            detail: format!("due {due} comes before the previous record's {}", self.due),
        })?;
        self.due = due;
        self.count += 1;
        self.records.varint(delta);
        self.records.u8(match op {
            BaseOp::Insert => 0,
            BaseOp::Delete => 1,
        });
        self.name(node.0);
        self.name(tuple.table);
        self.records.varint(tuple.args.len() as u64);
        for v in &tuple.args {
            self.value(v);
        }
        Ok(())
    }

    /// Writes `name`'s dictionary id, filing it on first use.
    fn name(&mut self, name: Sym) {
        let names = &mut self.names;
        let id = *self.ids.entry(name).or_insert_with(|| {
            names.push(name);
            names.len() as u64 - 1
        });
        self.records.varint(id);
    }

    fn value(&mut self, v: &Value) {
        let r = &mut self.records;
        match *v {
            Value::Int(i) => {
                r.u8(0);
                r.zigzag(i);
            }
            Value::Bool(b) => {
                r.u8(1);
                r.u8(u8::from(b));
            }
            Value::Str(s) => {
                r.u8(2);
                self.name(s);
            }
            Value::Ip(ip) => {
                r.u8(3);
                r.u32(ip);
            }
            Value::Prefix(p) => {
                r.u8(4);
                r.u32(p.addr());
                r.u8(p.len());
            }
            Value::Sum(s) => {
                r.u8(5);
                r.u64(s);
            }
            Value::Time(t) => {
                r.u8(6);
                r.varint(t);
            }
        }
    }

    /// Bytes of the records encoded so far, without the dictionary and
    /// the framing [`LayerEncoder::finish`] adds.
    pub fn record_bytes(&self) -> usize {
        self.records.len()
    }

    /// The layer file of the records encoded so far, the run starting at
    /// replay position `first_seq`: header, dictionary, records, footer
    /// word and checksum. More than `u32::MAX` records is an
    /// [`Error::Codec`].
    pub fn finish(self, first_seq: u64) -> Result<Vec<u8>> {
        let count = u32::try_from(self.count).map_err(|_| Error::Codec {
            context: "layer record count",
            detail: format!("{} records exceed u32::MAX", self.count),
        })?;
        let mut e = Enc::new();
        e.header(LAYER_MAGIC, LAYER_VERSION);
        e.u64(first_seq);
        e.u32(count);
        e.varint(self.names.len() as u64);
        for name in &self.names {
            e.str(name.as_str());
        }
        e.extend(self.records.bytes());
        e.u32(0);
        let sum = fnv64(e.bytes());
        e.u64(sum);
        Ok(e.into_bytes())
    }
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

/// The fewest bytes a record can take: a one-byte due delta, op, node,
/// table and arity.
const MIN_RECORD_BYTES: usize = 5;

/// The fewest bytes a field can take: its tag and a one-byte payload.
const MIN_FIELD_BYTES: usize = 2;

fn malformed(context: &'static str, detail: String) -> Error {
    Error::Codec { context, detail }
}

/// Reads a layer file back: [`decode_layer`] over the file's bytes, its
/// errors naming the file. Returns the layer and its events.
pub fn read_layer(path: &Path) -> Result<(Layer, Vec<BaseEvent>)> {
    let bytes = std::fs::read(path).map_err(|err| io_err("reading layer", path, err))?;
    let (first_seq, events) = decode_layer(&bytes).map_err(|err| match err {
        Error::Codec { context, detail } => {
            malformed(context, format!("{}: {detail}", path.display()))
        }
        other => other,
    })?;
    let layer = Layer {
        first_seq,
        file_bytes: bytes.len() as u64,
        path: path.to_path_buf(),
    };
    Ok((layer, events))
}

/// Decodes a layer file's bytes into its `first_seq` and its events,
/// verifying the whole-file checksum before a single record is decoded,
/// and then every field (the module docs list the checks). Each violation
/// is a typed [`Error::Codec`]; what decodes re-encodes to `bytes`.
pub fn decode_layer(bytes: &[u8]) -> Result<(u64, Vec<BaseEvent>)> {
    if bytes.len() < 12 {
        return Err(malformed(
            "layer file",
            format!(
                "{} bytes cannot hold a footer word and a checksum",
                bytes.len()
            ),
        ));
    }
    let (body, sum) = bytes.split_at(bytes.len() - 8);
    let stored = Dec::new(sum).u64("layer checksum")?;
    if fnv64(body) != stored {
        return Err(malformed("layer checksum", "checksum mismatch".into()));
    }
    let (body, footer) = body.split_at(body.len() - 4);
    let footer = Dec::new(footer).u32("layer footer")?;
    if footer != 0 {
        return Err(malformed(
            "layer footer",
            format!("a footer of {footer} bytes, where version {LAYER_VERSION} writes none"),
        ));
    }
    let mut d = Dec::new(body);
    d.header(LAYER_MAGIC, LAYER_VERSION)?;
    let first_seq = d.u64("layer first-seq")?;
    let count = d.u32("layer record count")? as usize;
    let mut r = Records::new(d)?;
    // Refuse before reserving: the count is a header field's word.
    if count == 0 || count > r.d.remaining() / MIN_RECORD_BYTES {
        return Err(malformed(
            "layer record count",
            format!(
                "{count} records is none, or more than the {} bytes left can hold",
                r.d.remaining()
            ),
        ));
    }
    let mut events = Vec::with_capacity(count);
    let mut due: LogicalTime = 0;
    for _ in 0..count {
        let delta = r.d.varint("record due")?;
        due = due
            .checked_add(delta)
            .ok_or_else(|| malformed("record due", format!("due {due} + {delta} overflows")))?;
        let op = match r.d.u8("record op")? {
            0 => BaseOp::Insert,
            1 => BaseOp::Delete,
            other => {
                return Err(malformed(
                    "record op",
                    format!("expected 0 or 1, found {other}"),
                ))
            }
        };
        let node = NodeId(r.name("record node")?);
        let table = r.name("record table")?;
        let arity = r.d.varint("record arity")?;
        if arity.saturating_mul(MIN_FIELD_BYTES as u64) > r.d.remaining() as u64 {
            return Err(malformed(
                "record arity",
                format!(
                    "arity {arity} exceeds what the {} bytes left can hold",
                    r.d.remaining()
                ),
            ));
        }
        let mut args = Vec::with_capacity(arity as usize);
        for _ in 0..arity {
            args.push(r.value()?);
        }
        events.push(BaseEvent {
            due,
            node,
            tuple: Arc::new(Tuple { table, args }),
            op,
        });
    }
    if !r.d.is_exhausted() {
        return Err(malformed(
            "layer file",
            format!(
                "{} trailing byte(s) before the footer word",
                r.d.remaining()
            ),
        ));
    }
    if r.used != r.names.len() {
        return Err(malformed(
            "layer dictionary",
            format!(
                "{} of its {} names no record uses",
                r.names.len() - r.used,
                r.names.len()
            ),
        ));
    }
    Ok((first_seq, events))
}

/// The records of a layer, after its dictionary.
struct Records<'a> {
    d: Dec<'a>,
    /// The dictionary, each name interned once.
    names: Vec<Sym>,
    /// The names the records have used so far: ids below it.
    used: usize,
}

impl<'a> Records<'a> {
    /// Reads the dictionary at `d`'s cursor.
    fn new(mut d: Dec<'a>) -> Result<Records<'a>> {
        let n = d.varint("layer dictionary")?;
        // Each name takes at least its length byte.
        if n > d.remaining() as u64 {
            return Err(malformed(
                "layer dictionary",
                format!("{n} names exceed the {} bytes left", d.remaining()),
            ));
        }
        let mut names = Vec::with_capacity(n as usize);
        // Names from a file: the default hasher, whose seed a crafted
        // dictionary cannot collide against.
        let mut seen = HashSet::with_capacity(n as usize);
        for _ in 0..n {
            let name = Sym::new(d.str("layer dictionary")?);
            if !seen.insert(name) {
                return Err(malformed(
                    "layer dictionary",
                    format!("{name:?} is filed twice"),
                ));
            }
            names.push(name);
        }
        Ok(Records { d, names, used: 0 })
    }

    /// Reads a dictionary id: one the records used before, or the next
    /// unused one.
    fn name(&mut self, context: &'static str) -> Result<Sym> {
        let id = self.d.varint(context)?;
        if id >= self.names.len() as u64 {
            return Err(malformed(
                context,
                format!(
                    "id {id} is past the dictionary's {} names",
                    self.names.len()
                ),
            ));
        }
        let id = id as usize;
        if id > self.used {
            return Err(malformed(
                context,
                format!(
                    "id {id} is used before id {}, out of first-use order",
                    self.used
                ),
            ));
        }
        self.used += usize::from(id == self.used);
        Ok(self.names[id])
    }

    fn value(&mut self) -> Result<Value> {
        Ok(match self.d.u8("field tag")? {
            0 => Value::Int(self.d.zigzag("int field")?),
            1 => match self.d.u8("bool field")? {
                0 => Value::Bool(false),
                1 => Value::Bool(true),
                other => {
                    return Err(malformed(
                        "bool field",
                        format!("expected 0 or 1, found {other}"),
                    ))
                }
            },
            2 => Value::Str(self.name("str field")?),
            3 => Value::Ip(self.d.u32("ip field")?),
            4 => {
                let addr = self.d.u32("prefix field")?;
                let len = self.d.u8("prefix field")?;
                match Prefix::new(addr, len) {
                    Ok(p) if p.addr() == addr => Value::Prefix(p),
                    _ => {
                        return Err(malformed(
                            "prefix field",
                            format!("{addr:#010x}/{len} is longer than 32 or has host bits set"),
                        ))
                    }
                }
            }
            5 => Value::Sum(self.d.u64("sum field")?),
            6 => Value::Time(self.d.varint("time field")?),
            other => return Err(malformed("field tag", format!("unknown tag {other}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_types::prefix::ip;

    fn pkt_in_record(src: &str, dst: &str, len: i64) -> usize {
        let mut enc = LayerEncoder::default();
        let pkt = dp_sdn::pkt_in(7, ip(src), ip(dst), 6, len);
        enc.encode_record(100, BaseOp::Insert, NodeId::new("S1"), &pkt)
            .unwrap();
        enc.record_bytes()
    }

    /// A packet is logged as its header fields, not its payload: the
    /// record's length depends neither on the packet-length field nor on
    /// the addresses.
    #[test]
    fn packet_records_are_fixed_size() {
        let a = pkt_in_record("10.0.0.1", "10.0.0.2", 64);
        assert_eq!(pkt_in_record("192.168.7.9", "4.3.2.1", 64), a, "addresses");
        assert_eq!(
            pkt_in_record("10.0.0.1", "10.0.0.2", 1500),
            a,
            "packet length"
        );
        // Δdue 1 + op 1 + node id 1 + table id 1 + arity 1
        // + pid 7, proto 6: 2 × (1 + 1) + len 64 or 1500: 1 + 2
        // + src, dst: 2 × (1 + 4).
        assert_eq!(a, 22);
    }
}
