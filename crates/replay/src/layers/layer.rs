//! Sealed, immutable on-disk layer files.
//!
//! A layer file holds one seal's batch: the next run of the log's replay
//! order, every node's events together, as the log ordered them. Once
//! written a layer is never modified, and the stack is read back by
//! concatenating its layers in `first_seq` order.
//!
//! ## File format (`DPLY` version 4)
//!
//! ```text
//! "DPLY" u16=4          header (magic + version)
//! u64    first_seq      events in the layers before this one
//! u32    count          records
//! var    names          the dictionary: every node name, table name and
//! names × str           string value the records use, once each, in the
//!                       order the records first use them
//! count × record
//! u32    footer         footer bytes before this word: 0 in version 4
//! u64    checksum(everything above)
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
//! `var` is a minimal LEB128 varint (seven bits a byte, low bits first,
//! the top bit set on every byte but the last), `str` a varint length and
//! UTF-8 bytes, and every fixed-width word little-endian, so a value has
//! one encoding and a file can be compared and checksummed byte for byte.
//! A record names each name by its id, so a layer turns a name into a
//! symbol once, in its dictionary, whatever number of records carry it: a
//! packet's record is 22 bytes, a MapReduce record a few more than its
//! fields. Version 3 differs in its version number and its checksum
//! (FNV-1a 64) and in no other byte; it has no reader.
//!
//! The checksum reads a word at a step. With `r(a, w) = rotl(a + w·P2,
//! 31)·P1`, XXH64's round, four lanes take each 32-byte block, one
//! little-endian word each; a value starting at the length then takes, by
//! `r`, the four lanes, each word after the blocks and the last 0–7 bytes
//! zero-padded to a word; an xorshift-multiply mix ends it. `r` is a
//! bijection of `w` for any `a`, and of `a` for any `w`, and each lane
//! and word enters one chain of such steps once, the mix being a
//! bijection too. So two files of one length that differ only inside one
//! word have different checksums: every single-byte change is caught by
//! construction. Other changes, truncation among them, are caught as a
//! 64-bit mix catches them, with no such guarantee; the walk below checks
//! what a file says.
//!
//! The format is this module's alone: [`LayerEncoder`] writes it into a
//! byte vector, and [`Layer::from_bytes`] reads every byte of it back,
//! from the header and the checksum to the last field.
//!
//! The footer word leaves a place for derived data a reader could use
//! without walking the records; version 4 writes none, and a nonzero word
//! is refused.
//!
//! ## Checked at open, decoded on read
//!
//! [`Layer::from_bytes`] is the one reader, and it reads in two parts. At
//! open it checks the file, each read naming only what went wrong and
//! becoming a typed [`Error::Codec`], with the read's context, on failure
//! alone, in this order: a length that holds a footer word and a
//! checksum; the magic and the version (4 exactly), so a file of another
//! version is refused by its number; the whole-file checksum, so
//! truncation and bit rot surface before a record is read, never as a
//! panic mid-recovery; the footer word. The checksum is no secret, so a
//! file that passes it is still outside input: every record is then
//! walked and every field checked — a record count and arities the bytes
//! left can hold, minimal varints, a due that fits in 64 bits, dictionary
//! ids in range and in first-use order, a dictionary without repeats or
//! unused entries, valid UTF-8, an op, tag or bool that names one of its
//! values, a prefix without host bits, no trailing bytes — so a layer that
//! opens is one [`LayerEncoder`] writes, byte for byte, and anything else
//! is a typed [`Error::Codec`]. The walk builds nothing: it interns the
//! dictionary once and keeps the file's bytes, where each record starts (4
//! bytes a record) and every 64th record's due.
//!
//! On read, a record is decoded from those bytes where it lies: its node
//! and table, one field, or the whole [`BaseEvent`] ([`Layer::event`]).
//! The bytes were accepted whole, so a read checks nothing and cannot
//! fail; a log backed by layers ([`crate::EventLog`]) turns into events
//! only the records a reader asks for.
//!
//! A seal is atomic: the bytes go to a temporary name, are synced, and
//! are linked under the layer's name only if that name is free. A crash
//! leaves either the whole layer or a `.tmp` file that `open` ignores.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dp_types::{Error, LogicalTime, NodeId, Prefix, Result, Sym, Tuple, Value, WordBuildHasher};

use crate::log::{BaseEvent, BaseOp};

/// Layer-file magic.
pub const LAYER_MAGIC: &[u8; 4] = b"DPLY";
/// The layer-format version, the only one the reader accepts.
pub const LAYER_VERSION: u16 = 4;

/// Records per due a layer keeps: a record's due is the kept one at or
/// before it plus fewer than this many Δdues.
const DUE_STRIDE: usize = 64;

/// A sealed layer: its place in the stack, its file, and its records as
/// the file holds them — checked when the layer was read or written, and
/// decoded on read (module docs).
pub struct Layer {
    /// The number of events in the layers before this one: the replay
    /// position of its first event.
    pub first_seq: u64,
    /// Size of the layer file in bytes.
    pub file_bytes: u64,
    /// Where the layer was read from (or written to).
    pub path: PathBuf,
    /// The file's bytes, as the check accepted them.
    bytes: Vec<u8>,
    /// The dictionary, each name interned once.
    names: Vec<Sym>,
    /// Where each record starts in `bytes`.
    starts: Vec<u32>,
    /// The due of every [`DUE_STRIDE`]th record, from the first.
    dues: Vec<LogicalTime>,
    /// The last record's due.
    last_due: LogicalTime,
}

impl fmt::Debug for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Layer")
            .field("first_seq", &self.first_seq)
            .field("records", &self.starts.len())
            .field("file_bytes", &self.file_bytes)
            .field("path", &self.path)
            .finish()
    }
}

fn io_err(context: &'static str, path: &Path, e: std::io::Error) -> Error {
    Error::Engine(format!("{context} {}: {e}", path.display()))
}

/// Encodes a run of the replay order, starting at replay position
/// `first_seq`, and seals it at `path`, which must not exist: a sealed
/// layer is never overwritten, so a handle numbering its seal from a
/// stale count gets an error, not the file. `events` must be non-empty
/// and in replay order. The layer keeps the bytes it wrote, checked as
/// an open checks them.
pub fn write_layer(path: &Path, first_seq: u64, events: &[BaseEvent]) -> Result<Layer> {
    assert!(!events.is_empty(), "a layer holds at least one event");
    let mut enc = LayerEncoder::default();
    for ev in events {
        enc.encode_record(ev.due, ev.op, ev.node, &ev.tuple)?;
    }
    let bytes = enc.finish(first_seq)?;
    seal_bytes(path, &bytes).map_err(|err| io_err("writing layer", path, err))?;
    let mut layer = Layer::from_bytes(bytes)?;
    layer.path = path.to_path_buf();
    Ok(layer)
}

/// The one encoder of a logged event: it appends `DPLY` version 4
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
    records: Vec<u8>,
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
        put_varint(&mut self.records, delta);
        self.records.push(match op {
            BaseOp::Insert => 0,
            BaseOp::Delete => 1,
        });
        self.name(node.0);
        self.name(tuple.table);
        put_varint(&mut self.records, tuple.args.len() as u64);
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
        put_varint(&mut self.records, id);
    }

    fn value(&mut self, v: &Value) {
        let r = &mut self.records;
        match *v {
            Value::Int(i) => {
                r.push(0);
                // The zigzag image (0, −1, 1, −2, … → 0, 1, 2, 3, …): small
                // magnitudes of either sign take one byte.
                put_varint(r, ((i << 1) ^ (i >> 63)) as u64);
            }
            Value::Bool(b) => r.extend_from_slice(&[1, u8::from(b)]),
            Value::Str(s) => {
                r.push(2);
                self.name(s);
            }
            Value::Ip(ip) => {
                r.push(3);
                r.extend_from_slice(&ip.to_le_bytes());
            }
            Value::Prefix(p) => {
                r.push(4);
                r.extend_from_slice(&p.addr().to_le_bytes());
                r.push(p.len());
            }
            Value::Sum(s) => {
                r.push(5);
                r.extend_from_slice(&s.to_le_bytes());
            }
            Value::Time(t) => {
                r.push(6);
                put_varint(r, t);
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
        let mut head = [
            &LAYER_MAGIC[..],
            &LAYER_VERSION.to_le_bytes(),
            &first_seq.to_le_bytes(),
            &count.to_le_bytes(),
        ]
        .concat();
        put_varint(&mut head, self.names.len() as u64);
        for name in &self.names {
            let name = name.as_str();
            put_varint(&mut head, name.len() as u64);
            head.extend_from_slice(name.as_bytes());
        }
        // The file in one allocation of its size: a layer keeps it.
        let mut bytes = Vec::with_capacity(head.len() + self.records.len() + 12);
        bytes.extend_from_slice(&head);
        bytes.extend_from_slice(&self.records);
        bytes.extend_from_slice(&0u32.to_le_bytes());
        let sum = checksum(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        Ok(bytes)
    }
}

/// The checksum's multipliers, XXH64's primes.
const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;

/// One step of the checksum, XXH64's round: a bijection of `w` for any
/// `acc`, and of `acc` for any `w`.
#[inline(always)]
fn round(acc: u64, w: u64) -> u64 {
    acc.wrapping_add(w.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// The layer checksum (module docs): four lanes take each 32-byte block,
/// a little-endian word each; then one value, starting at the length,
/// takes the four lanes, the tail's words and its last bytes zero-padded
/// to a word, a step each, and is mixed by a bijection.
fn checksum(bytes: &[u8]) -> u64 {
    let (blocks, tail) = bytes.as_chunks::<32>();
    let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
    for block in blocks {
        let (words, _) = block.as_chunks::<8>();
        for (lane, w) in lanes.iter_mut().zip(words) {
            *lane = round(*lane, u64::from_le_bytes(*w));
        }
    }
    let (words, rest) = tail.as_chunks::<8>();
    let mut last = [0; 8];
    last[..rest.len()].copy_from_slice(rest);
    let words = words.iter().chain([&last]).map(|w| u64::from_le_bytes(*w));
    let h = lanes
        .into_iter()
        .chain(words)
        .fold(bytes.len() as u64, round);
    let h = (h ^ h >> 33).wrapping_mul(P2);
    let h = (h ^ h >> 29).wrapping_mul(P3);
    h ^ h >> 32
}

/// Appends `v` as a minimal varint.
#[inline]
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
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

/// Reads a layer file back and checks it ([`Layer::from_bytes`]), its
/// errors naming the file.
pub fn read_layer(path: &Path) -> Result<Layer> {
    let bytes = std::fs::read(path).map_err(|err| io_err("reading layer", path, err))?;
    let mut layer = Layer::from_bytes(bytes).map_err(|err| match err {
        Error::Codec { context, detail } => {
            malformed(context, format!("{}: {detail}", path.display()))
        }
        other => other,
    })?;
    layer.path = path.to_path_buf();
    Ok(layer)
}

impl Layer {
    /// Checks a layer file's bytes — its magic and version, then the
    /// checksum, then every record and field (the module docs list the
    /// checks) — and keeps them, with where each record starts. Each
    /// violation is a typed [`Error::Codec`]; no record is decoded. The
    /// layer's path is empty ([`read_layer`] sets it).
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Layer> {
        if bytes.len() < 12 || bytes.len() > u32::MAX as usize {
            return Err(malformed(
                "layer file",
                format!(
                    "{} bytes cannot hold a footer word and a checksum, or are past 4 GiB",
                    bytes.len()
                ),
            ));
        }
        let (body, tail) = bytes.split_at(bytes.len() - 12);
        let mut c = Cursor::new(body);
        let magic: [u8; 4] = c.read("header magic", Cursor::fixed)?;
        if magic != *LAYER_MAGIC {
            return Err(malformed(
                "header magic",
                format!("expected {LAYER_MAGIC:02x?}, found {magic:02x?}"),
            ));
        }
        // A format has one reader, for its one version: read before the
        // checksum, so a file of another version is refused by name.
        let version = u16::from_le_bytes(c.read("header version", Cursor::fixed)?);
        if version != LAYER_VERSION {
            return Err(malformed(
                "header version",
                format!("found version {version}, expected version {LAYER_VERSION}"),
            ));
        }
        let mut t = Cursor::new(tail);
        let footer = u32::from_le_bytes(t.read("layer footer", Cursor::fixed)?);
        let stored = u64::from_le_bytes(t.read("layer checksum", Cursor::fixed)?);
        if checksum(&bytes[..bytes.len() - 8]) != stored {
            return Err(malformed("layer checksum", "checksum mismatch".into()));
        }
        if footer != 0 {
            return Err(malformed(
                "layer footer",
                format!("a footer of {footer} bytes, where version {LAYER_VERSION} writes none"),
            ));
        }
        let first_seq = u64::from_le_bytes(c.read("layer first-seq", Cursor::fixed)?);
        let count = u32::from_le_bytes(c.read("layer record count", Cursor::fixed)?) as usize;
        let names = dictionary(&mut c)?;
        // Refuse before reserving: the count is a header field's word.
        if count == 0 || count > c.remaining() / MIN_RECORD_BYTES {
            return Err(malformed(
                "layer record count",
                format!(
                    "{count} records is none, or more than the {} bytes left can hold",
                    c.remaining()
                ),
            ));
        }
        let walk = walk(c, count, names.len())?;
        Ok(Layer {
            first_seq,
            file_bytes: bytes.len() as u64,
            path: PathBuf::new(),
            bytes,
            names,
            starts: walk.starts,
            dues: walk.dues,
            last_due: walk.last_due,
        })
    }

    /// How many records the layer holds (at least one).
    pub fn records(&self) -> usize {
        self.starts.len()
    }

    /// The first record's due.
    pub fn first_due(&self) -> LogicalTime {
        self.dues[0]
    }

    /// The last record's due.
    pub fn last_due(&self) -> LogicalTime {
        self.last_due
    }

    /// Record `i` decoded as the event it logs. `i` must be below
    /// [`Layer::records`].
    pub fn event(&self, i: usize) -> BaseEvent {
        self.record(i).event()
    }

    /// Record `i` with its header read. `i` must be below
    /// [`Layer::records`].
    #[inline]
    pub(crate) fn record(&self, i: usize) -> Record<'_> {
        let mut at = self.starts[i] as usize;
        varint_at(&self.bytes, &mut at);
        let op = match self.bytes[at] {
            0 => BaseOp::Insert,
            _ => BaseOp::Delete,
        };
        at += 1;
        let node = NodeId(self.name_at(&mut at));
        let table = self.name_at(&mut at);
        let arity = varint_at(&self.bytes, &mut at) as usize;
        Record {
            layer: self,
            i,
            op,
            node,
            table,
            arity,
            fields: at,
        }
    }

    /// Record `i`'s due: the kept due at or before it plus the Δdues
    /// between.
    fn due(&self, i: usize) -> LogicalTime {
        let kept = i / DUE_STRIDE;
        let after = self.starts[kept * DUE_STRIDE + 1..=i].iter();
        self.dues[kept]
            + after
                .map(|&s| varint_at(&self.bytes, &mut (s as usize)))
                .sum::<u64>()
    }

    #[inline]
    fn name_at(&self, at: &mut usize) -> Sym {
        self.names[varint_at(&self.bytes, at) as usize]
    }

    /// The field at `*at`, moving past it.
    #[inline]
    fn value_at(&self, at: &mut usize) -> Value {
        let b = &self.bytes;
        *at += 1;
        match b[*at - 1] {
            0 => {
                let z = varint_at(b, at);
                Value::Int((z >> 1) as i64 ^ -((z & 1) as i64))
            }
            1 => {
                *at += 1;
                Value::Bool(b[*at - 1] == 1)
            }
            2 => Value::Str(self.name_at(at)),
            3 => Value::Ip(u32::from_le_bytes(fixed_at(b, at))),
            4 => {
                let addr = u32::from_le_bytes(fixed_at(b, at));
                *at += 1;
                match Prefix::new(addr, b[*at - 1]) {
                    Ok(p) => Value::Prefix(p),
                    Err(_) => unreachable!("the check refuses a prefix longer than 32"),
                }
            }
            5 => Value::Sum(u64::from_le_bytes(fixed_at(b, at))),
            _ => Value::Time(varint_at(b, at)),
        }
    }

    /// Moves `*at` past the field there.
    #[inline]
    fn skip_at(&self, at: &mut usize) {
        *at += 1;
        match self.bytes[*at - 1] {
            0 | 2 | 6 => {
                varint_at(&self.bytes, at);
            }
            1 => *at += 1,
            3 => *at += 4,
            4 => *at += 5,
            _ => *at += 8,
        }
    }
}

/// One record of a [`Layer`], its header read: an event's op, node, table
/// and arity, and where its fields start.
#[derive(Clone, Copy)]
pub(crate) struct Record<'a> {
    layer: &'a Layer,
    /// The record's place in the layer.
    i: usize,
    op: BaseOp,
    pub(crate) node: NodeId,
    pub(crate) table: Sym,
    pub(crate) arity: usize,
    /// Where the first field starts in the layer's bytes.
    fields: usize,
}

impl Record<'_> {
    /// Field `col`, or `None` past the arity.
    #[inline]
    pub(crate) fn field(&self, col: usize) -> Option<Value> {
        (col < self.arity).then(|| {
            let mut at = self.fields;
            (0..col).for_each(|_| self.layer.skip_at(&mut at));
            self.layer.value_at(&mut at)
        })
    }

    /// The record's due.
    pub(crate) fn due(&self) -> LogicalTime {
        self.layer.due(self.i)
    }

    /// The event the record logs.
    pub(crate) fn event(&self) -> BaseEvent {
        let mut at = self.fields;
        let args = (0..self.arity)
            .map(|_| self.layer.value_at(&mut at))
            .collect();
        BaseEvent {
            due: self.due(),
            node: self.node,
            tuple: Arc::new(Tuple {
                table: self.table,
                args,
            }),
            op: self.op,
        }
    }
}

/// Reads the varint at `*at` of bytes the check accepted, moving past it.
#[inline]
fn varint_at(b: &[u8], at: &mut usize) -> u64 {
    let first = b[*at];
    *at += 1;
    if first < 0x80 {
        return u64::from(first);
    }
    let (mut v, mut shift) = (u64::from(first & 0x7f), 7);
    loop {
        let byte = b[*at];
        *at += 1;
        v |= u64::from(byte & 0x7f) << shift;
        if byte < 0x80 {
            return v;
        }
        shift += 7;
    }
}

/// Reads the `N` bytes at `*at` of bytes the check accepted, moving past
/// them.
#[inline]
fn fixed_at<const N: usize>(b: &[u8], at: &mut usize) -> [u8; N] {
    let mut bytes = [0; N];
    bytes.copy_from_slice(&b[*at..*at + N]);
    *at += N;
    bytes
}

/// Reads the dictionary at `c`, each name interned once.
fn dictionary(c: &mut Cursor<'_>) -> Result<Vec<Sym>> {
    let n = c.read("layer dictionary", Cursor::varint)?;
    // Each name takes at least its length byte.
    if n > c.remaining() as u64 {
        return Err(malformed(
            "layer dictionary",
            format!("{n} names exceed the {} bytes left", c.remaining()),
        ));
    }
    let mut names = Vec::with_capacity(n as usize);
    // Names from a file: the default hasher, whose seed a crafted
    // dictionary cannot collide against.
    let mut seen = HashSet::with_capacity(n as usize);
    for _ in 0..n {
        let name = Sym::new(c.read("layer dictionary", Cursor::str)?);
        if !seen.insert(name) {
            return Err(malformed(
                "layer dictionary",
                format!("{name:?} is filed twice"),
            ));
        }
        names.push(name);
    }
    Ok(names)
}

/// What a walk of a layer's records keeps.
struct Walk {
    starts: Vec<u32>,
    dues: Vec<LogicalTime>,
    last_due: LogicalTime,
}

/// Walks the `count` records from `c` to the end of its bytes, checking
/// every field and keeping where each record starts and every
/// [`DUE_STRIDE`]th due; `names` is the dictionary's length.
fn walk(mut c: Cursor<'_>, count: usize, names: usize) -> Result<Walk> {
    let mut starts = Vec::with_capacity(count);
    let mut dues = Vec::with_capacity(count.div_ceil(DUE_STRIDE));
    let (mut due, mut used): (LogicalTime, usize) = (0, 0);
    // A dictionary id: one the records used before, or the next unused
    // one.
    let mut name = |c: &mut Cursor<'_>, context: &'static str| -> Result<()> {
        let id = c.read(context, Cursor::varint)?;
        if id >= names as u64 {
            return Err(malformed(
                context,
                format!("id {id} is past the dictionary's {names} names"),
            ));
        }
        let id = id as usize;
        if id > used {
            return Err(malformed(
                context,
                format!("id {id} is used before id {used}, out of first-use order"),
            ));
        }
        used += usize::from(id == used);
        Ok(())
    };
    for i in 0..count {
        starts.push(c.pos as u32);
        let delta = c.read("record due", Cursor::varint)?;
        due = due
            .checked_add(delta)
            .ok_or_else(|| malformed("record due", format!("due {due} + {delta} overflows")))?;
        if i % DUE_STRIDE == 0 {
            dues.push(due);
        }
        match c.read("record op", Cursor::u8)? {
            0 | 1 => {}
            other => {
                return Err(malformed(
                    "record op",
                    format!("expected 0 or 1, found {other}"),
                ))
            }
        }
        name(&mut c, "record node")?;
        name(&mut c, "record table")?;
        let arity = c.read("record arity", Cursor::varint)?;
        if arity.saturating_mul(MIN_FIELD_BYTES as u64) > c.remaining() as u64 {
            return Err(malformed(
                "record arity",
                format!(
                    "arity {arity} exceeds what the {} bytes left can hold",
                    c.remaining()
                ),
            ));
        }
        for _ in 0..arity {
            match c.read("field tag", Cursor::u8)? {
                0 => {
                    c.read("int field", Cursor::varint)?;
                }
                1 => match c.read("bool field", Cursor::u8)? {
                    0 | 1 => {}
                    other => {
                        return Err(malformed(
                            "bool field",
                            format!("expected 0 or 1, found {other}"),
                        ))
                    }
                },
                2 => name(&mut c, "str field")?,
                3 => {
                    c.read("ip field", Cursor::fixed::<4>)?;
                }
                4 => {
                    let addr = c.read("prefix field", Cursor::fixed::<4>)?;
                    let addr = u32::from_le_bytes(addr);
                    let len = c.read("prefix field", Cursor::u8)?;
                    if !Prefix::new(addr, len).is_ok_and(|p| p.addr() == addr) {
                        return Err(malformed(
                            "prefix field",
                            format!("{addr:#010x}/{len} is longer than 32 or has host bits set"),
                        ));
                    }
                }
                5 => {
                    c.read("sum field", Cursor::fixed::<8>)?;
                }
                6 => {
                    c.read("time field", Cursor::varint)?;
                }
                other => return Err(malformed("field tag", format!("unknown tag {other}"))),
            }
        }
    }
    if c.remaining() != 0 {
        return Err(malformed(
            "layer file",
            format!("{} trailing byte(s) before the footer word", c.remaining()),
        ));
    }
    if used != names {
        return Err(malformed(
            "layer dictionary",
            format!("{} of its {names} names no record uses", names - used),
        ));
    }
    Ok(Walk {
        starts,
        dues,
        last_due: due,
    })
}

/// What went wrong with one read of a [`Cursor`].
#[derive(Clone, Copy)]
enum Bad {
    /// The bytes ran out: this many were needed.
    Short(usize),
    /// A varint longer than its value's minimal encoding, or past 64 bits.
    Overlong,
    /// A string that is not UTF-8.
    Utf8,
}

/// The one checked reader of a layer file's bytes: each read fails with a
/// [`Bad`], which [`Cursor::read`] turns into the typed error of the
/// read's context on failure alone.
struct Cursor<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(b: &'a [u8]) -> Self {
        Cursor { b, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.b.len() - self.pos
    }

    /// `read` at the cursor, its [`Bad`] the typed error for `context`.
    #[inline(always)]
    fn read<T>(
        &mut self,
        context: &'static str,
        read: impl FnOnce(&mut Self) -> std::result::Result<T, Bad>,
    ) -> Result<T> {
        read(self).map_err(|bad| self.fail(context, bad))
    }

    #[inline(always)]
    fn u8(&mut self) -> std::result::Result<u8, Bad> {
        let byte = *self.b.get(self.pos).ok_or(Bad::Short(1))?;
        self.pos += 1;
        Ok(byte)
    }

    /// `N` bytes: a fixed-width word, little-endian, or the magic.
    #[inline(always)]
    fn fixed<const N: usize>(&mut self) -> std::result::Result<[u8; N], Bad> {
        let bytes = *self.b[self.pos..].first_chunk().ok_or(Bad::Short(N))?;
        self.pos += N;
        Ok(bytes)
    }

    /// A varint, in its minimal encoding only: one with a trailing zero
    /// byte, or past 64 bits, is overlong, so a value reads back from
    /// exactly one byte string.
    #[inline(always)]
    fn varint(&mut self) -> std::result::Result<u64, Bad> {
        let first = self.u8()?;
        if first < 0x80 {
            return Ok(u64::from(first));
        }
        let (mut v, mut shift) = (u64::from(first & 0x7f), 7);
        loop {
            let b = self.u8()?;
            if (shift == 63 && b > 1) || b == 0 {
                return Err(Bad::Overlong);
            }
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// A varint byte length and that many bytes of UTF-8.
    fn str(&mut self) -> std::result::Result<&'a str, Bad> {
        let len = usize::try_from(self.varint()?).unwrap_or(usize::MAX);
        if len > self.remaining() {
            return Err(Bad::Short(len));
        }
        let bytes = &self.b[self.pos..self.pos + len];
        self.pos += len;
        std::str::from_utf8(bytes).map_err(|_| Bad::Utf8)
    }

    /// The typed error of `bad`, read for `context` at the cursor.
    #[cold]
    fn fail(&self, context: &'static str, bad: Bad) -> Error {
        malformed(
            context,
            match bad {
                Bad::Short(n) => format!(
                    "truncated: needed {n} byte(s) at offset {}, only {} left",
                    self.pos,
                    self.remaining()
                ),
                Bad::Overlong => format!("overlong varint ending at offset {}", self.pos),
                Bad::Utf8 => format!("invalid UTF-8 before offset {}", self.pos),
            },
        )
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
