//! Properties of the `DPLY` version 4 layer record, and a seeded fuzz of
//! the layer reader.
//!
//! Seeded random events round-trip through `LayerEncoder` and the layer
//! reader (`Layer::from_bytes`), and encode to exactly the bytes the
//! format's specification spells out (`dply::layer`), whose checksum the
//! specification computes for itself (`dply::codec::checksum`); the same
//! records as version 3 wrote them are refused by their version. The reader is then
//! fed what a damaged or hostile file can hold — bit flips, truncations,
//! splices of two layers, dictionary ids past the dictionary, overlong
//! varints, huge arities — each re-checksummed, so that it reaches the
//! decoder and not only the checksum. Every input gives a typed `Error::Codec` or a layer
//! that re-encodes to the same bytes; a panic fails the test, and the
//! decoder reads each byte once, so no input can hang it.
//!
//! The reader checks a layer at open (`Layer::from_bytes`) and decodes a
//! record when it is read (`Layer::event`). Each input is also held to
//! the one-pass whole decode at the end of this file: the check accepts
//! exactly what the whole decode accepts, refuses the rest with the same
//! `Error::Codec` context, and every record read by position is the
//! whole decode's record there.

mod dply;

use std::collections::HashSet;
use std::sync::Arc;

use dp_replay::layers::layer::{Layer, LayerEncoder};
use dp_replay::{BaseEvent, BaseOp};
use dp_types::prefix::Prefix;
use dp_types::{DetRng, Error, LogicalTime, NodeId, Result, Sym, Tuple, Value};
use dply::codec::{checksum, Dec};
use dply::Tweak;

fn random_value(rng: &mut DetRng) -> Value {
    match rng.gen_range_u32(0, 7) {
        0 if rng.gen_bool(0.5) => Value::Int(rng.gen_range_i64(-200, 200)),
        0 => Value::Int(rng.next_u64() as i64),
        1 => Value::Bool(rng.gen_bool(0.5)),
        2 => {
            let len = rng.gen_range_usize(0, 4);
            let s: String = (0..len)
                .map(|_| ['a', 'b', 'ü', '→'][rng.gen_range_usize(0, 4)])
                .collect();
            Value::str(s)
        }
        3 => Value::Ip(rng.next_u32()),
        4 => {
            let len = rng.gen_range_u8_inclusive(0, 32);
            Value::Prefix(Prefix::new(rng.next_u32(), len).unwrap())
        }
        5 => Value::Sum(rng.next_u64()),
        _ => Value::Time(rng.next_u64() >> rng.gen_range_u32(0, 64)),
    }
}

fn random_tuple(rng: &mut DetRng) -> Tuple {
    let table = Sym::new(format!("t{}", rng.gen_range_u32(0, 6)));
    let arity = rng.gen_range_usize(0, 6);
    let args = (0..arity).map(|_| random_value(rng)).collect();
    Tuple { table, args }
}

/// A run of 1–40 random events in replay order: dues that repeat, step
/// by a little, or jump.
fn random_events(rng: &mut DetRng) -> Vec<BaseEvent> {
    let nodes = ["n1", "n2", "S1", "ctl"];
    let mut due = rng.gen_range_u64(0, 1 << 20);
    (0..rng.gen_range_usize(1, 41))
        .map(|_| {
            due += match rng.gen_range_u32(0, 3) {
                0 => 0,
                1 => rng.gen_range_u64(1, 200),
                _ => rng.gen_range_u64(1, 1 << 40),
            };
            BaseEvent {
                due,
                node: NodeId::new(nodes[rng.gen_range_usize(0, nodes.len())]),
                tuple: Arc::new(random_tuple(rng)),
                op: if rng.gen_bool(0.2) { BaseOp::Delete } else { BaseOp::Insert },
            }
        })
        .collect()
}

/// The layer file `LayerEncoder` writes for `events` at `first_seq`.
fn encode(first_seq: u64, events: &[BaseEvent]) -> Vec<u8> {
    let mut enc = LayerEncoder::default();
    for e in events {
        enc.encode_record(e.due, e.op, e.node, &e.tuple).unwrap();
    }
    enc.finish(first_seq).unwrap()
}

/// The number of distinct names `events` use: the dictionary's length.
fn dictionary_len(events: &[BaseEvent]) -> u64 {
    let mut names = HashSet::new();
    for e in events {
        names.insert(e.node.0);
        names.insert(e.tuple.table);
        for v in &e.tuple.args {
            if let Value::Str(s) = v {
                names.insert(*s);
            }
        }
    }
    names.len() as u64
}

/// `pre` (a layer file's bytes before its checksum) with a valid checksum.
fn rechecksum(mut pre: Vec<u8>) -> Vec<u8> {
    let sum = checksum(&pre);
    pre.extend(sum.to_le_bytes());
    pre
}

/// Reads `bytes` as an open does and decodes every record: the layer's
/// `first_seq` and its events.
fn decode_layer(bytes: &[u8]) -> Result<(u64, Vec<BaseEvent>)> {
    let layer = Layer::from_bytes(bytes.to_vec())?;
    Ok((layer.first_seq, (0..layer.records()).map(|i| layer.event(i)).collect()))
}

/// Checks `bytes` as an open does and holds the outcome to the whole
/// decode's: both accept, with the same records at every position, or
/// both refuse, for the same context.
fn agrees_with_the_whole_decode(bytes: &[u8], case: &str) {
    match (Layer::from_bytes(bytes.to_vec()), whole_decode(bytes)) {
        (Ok(layer), Ok((first_seq, events))) => {
            assert_eq!(layer.first_seq, first_seq, "{case}: first-seq");
            assert_eq!(layer.records(), events.len(), "{case}: records");
            for (i, e) in events.iter().enumerate() {
                assert!(layer.event(i) == *e, "{case}: record {i} reads otherwise by position");
            }
        }
        (Err(Error::Codec { context: open, .. }), Err(Error::Codec { context: whole, .. })) => {
            assert_eq!(open, whole, "{case}: refused for another reason");
        }
        (open, whole) => panic!("{case}: open gave {open:?}, the whole decode {whole:?}"),
    }
}

/// Decodes `bytes`: a typed error (false), or a layer that re-encodes to
/// `bytes` exactly (true). Anything else fails the test, and so does an
/// open that departs from the whole decode.
fn decodes(bytes: &[u8], case: &str) -> bool {
    agrees_with_the_whole_decode(bytes, case);
    match decode_layer(bytes) {
        Ok((first_seq, events)) => {
            assert!(encode(first_seq, &events) == bytes, "{case}: re-encodes to other bytes");
            true
        }
        Err(Error::Codec { .. }) => false,
        Err(other) => panic!("{case}: not a codec error: {other}"),
    }
}

#[test]
fn random_layers_roundtrip_and_match_the_specification() {
    let mut rng = DetRng::seed_from_u64(0xBAD_CAFE);
    for case in 0..400 {
        let events = random_events(&mut rng);
        let first_seq = rng.next_u64() >> rng.gen_range_u32(0, 64);
        let bytes = encode(first_seq, &events);
        let spec = dply::layer(first_seq, events.len() as u32, &events, Tweak::None);
        assert!(bytes == spec, "case {case}: the encoder departs from the specification");
        let (read_seq, read) = decode_layer(&bytes).unwrap();
        assert_eq!(read_seq, first_seq, "case {case}");
        assert!(read == events, "case {case}: the events read back differ");
        agrees_with_the_whole_decode(&bytes, &format!("case {case}"));
        // The same records as version 3 wrote them, under FNV-1a: refused
        // by their version, not by the checksum.
        match decode_layer(&dply::as_v3(&bytes)) {
            Err(Error::Codec { context, .. }) => assert_eq!(context, "header version"),
            other => panic!("case {case}: version 3 read as {other:?}"),
        }
    }
    // The widest fields: a due delta of u64::MAX from 0, both ends of an
    // int's zigzag image and the largest time, ten varint bytes each, and
    // the largest sum.
    let widest = Tuple::new(
        "edge",
        vec![
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Time(u64::MAX),
            Value::Sum(u64::MAX),
        ],
    );
    let events = [BaseEvent {
        due: u64::MAX,
        node: NodeId::new("n1"),
        tuple: Arc::new(widest),
        op: BaseOp::Insert,
    }];
    let bytes = encode(u64::MAX, &events);
    // Header 18, dictionary `n1 edge` 9, the record (a 10-byte due delta,
    // op, ids, arity; three tagged 10-byte varints and a tagged sum),
    // footer word and checksum.
    assert_eq!(bytes.len(), 18 + 9 + (10 + 4 + 3 * 11 + 9) + 12);
    let spec = dply::layer(u64::MAX, 1, &events, Tweak::None);
    assert!(bytes == spec, "the widest fields: the encoder departs from the specification");
    let (read_seq, read) = decode_layer(&bytes).unwrap();
    assert_eq!(read_seq, u64::MAX);
    assert!(read == events, "the widest fields read back otherwise");
    agrees_with_the_whole_decode(&bytes, "the widest fields");
}

/// Records read one at a time, in any order, are the events written:
/// layers of up to 300 records, so that a read crosses the dues a layer
/// keeps (one every 64 records) and sums the Δdues after one.
#[test]
fn records_read_by_position_are_the_events_written() {
    let mut rng = DetRng::seed_from_u64(0x5EED_0F0F_F5E7);
    for case in 0..60 {
        let mut events = Vec::new();
        while events.len() < rng.gen_range_usize(1, 300) {
            let mut run = random_events(&mut rng);
            let after = events.last().map_or(0, |e: &BaseEvent| e.due);
            run.iter_mut().for_each(|e| e.due += after);
            events.extend(run);
        }
        let layer = Layer::from_bytes(encode(7, &events)).unwrap();
        assert_eq!(layer.records(), events.len(), "case {case}");
        assert_eq!(layer.first_due(), events[0].due, "case {case}");
        assert_eq!(layer.last_due(), events[events.len() - 1].due, "case {case}");
        for _ in 0..events.len() {
            let i = rng.gen_range_usize(0, events.len());
            assert!(layer.event(i) == events[i], "case {case}: record {i}");
        }
    }
}

#[test]
fn truncated_layers_are_typed_errors() {
    let mut rng = DetRng::seed_from_u64(42);
    for case in 0..40 {
        let bytes = encode(0, &random_events(&mut rng));
        let pre = &bytes[..bytes.len() - 8];
        // Cut as it lies (the checksum fails), and re-checksummed (a record
        // stream cut short can never hold its count of records).
        for cut in 0..bytes.len() {
            assert!(!decodes(&bytes[..cut], &format!("case {case}, cut at {cut}")));
        }
        for cut in 0..pre.len() {
            let file = rechecksum(pre[..cut].to_vec());
            assert!(!decodes(&file, &format!("case {case}, re-checksummed at {cut}")));
        }
    }
}

/// The specification's checksum, pinned on inputs that end in each kind
/// of step — the length alone, a short tail, a block and a tail word, two
/// blocks. The encoder's is held to it byte for byte by the round-trip
/// test above.
#[test]
fn the_specification_checksum_is_pinned() {
    assert_eq!(checksum(b""), 0x7E56_417D_62AD_B570);
    assert_eq!(checksum(b"DPLY"), 0x3605_1FE9_9087_DAEA);
    assert_eq!(checksum(&[7; 45]), 0x61D4_4682_F15B_2C74);
    assert_eq!(checksum(&(0..64).collect::<Vec<u8>>()), 0xBF19_17B7_A9ED_6C0F);
}

/// Every single-byte change is caught by the checksum, left as it was:
/// each byte of a small layer replaced by each of its 255 other values is
/// refused — in the magic or the version by name, anywhere else by the
/// checksum, before the walk reads a record — and the layer cut at every
/// length is refused with a typed `Error::Codec`. The layer is long
/// enough that its checksum takes whole blocks, a tail word and a padded
/// last word.
#[test]
fn every_single_byte_change_and_every_cut_is_refused() {
    // The first seed whose layer's summed bytes end in a word and a few
    // bytes after their whole blocks.
    let tails = |pre: usize| pre > 64 && pre % 32 > 8 && !pre.is_multiple_of(8);
    let layer = |seed| {
        let mut events = random_events(&mut DetRng::seed_from_u64(seed));
        events.truncate(4);
        encode(3, &events)
    };
    let bytes = (0..).map(layer).find(|b| tails(b.len() - 8)).unwrap();
    let refused = |bad: &[u8], case: &str| match Layer::from_bytes(bad.to_vec()) {
        Err(Error::Codec { context, .. }) => context,
        Err(other) => panic!("{case}: not a codec error: {other}"),
        Ok(_) => panic!("{case}: opened"),
    };
    for at in 0..bytes.len() {
        let want = match at {
            0..4 => "header magic",
            4..6 => "header version",
            _ => "layer checksum",
        };
        for v in (0..=u8::MAX).filter(|&v| v != bytes[at]) {
            let mut bad = bytes.clone();
            bad[at] = v;
            let case = format!("byte {at} set to {v}");
            assert_eq!(refused(&bad, &case), want, "{case}");
        }
    }
    for cut in 0..bytes.len() {
        refused(&bytes[..cut], &format!("cut at {cut}"));
    }
}

/// A prefix field carries its canonical form: no length past 32, no host
/// bits set.
#[test]
fn a_prefix_out_of_form_is_a_typed_error() {
    let p = Value::Prefix(Prefix::new(0x0a00_0000, 8).unwrap());
    let event = BaseEvent {
        due: 1,
        node: NodeId::new("S1"),
        tuple: Arc::new(Tuple::new("route", vec![p])),
        op: BaseOp::Insert,
    };
    let sound = encode(0, &[event]);
    let pre = &sound[..sound.len() - 8];
    // The record ends with the prefix's `u32` address and `u8` length,
    // then the footer word.
    let (addr, len) = (pre.len() - 4 - 5, pre.len() - 4 - 1);
    assert!(decodes(&rechecksum(pre.to_vec()), "the control"));
    for (case, at, byte) in [("a host bit", addr, 1), ("length 33", len, 33)] {
        let mut bad = pre.to_vec();
        bad[at] = byte;
        match decode_layer(&rechecksum(bad)) {
            Err(Error::Codec { context, .. }) => assert_eq!(context, "prefix field", "{case}"),
            other => panic!("{case}: {other:?}"),
        }
    }
}

/// The fuzz: seeded mutations of sealed layers, each re-checksummed.
/// Bit flips, truncations and splices must fail typed or decode to a
/// layer that re-encodes to the mutated bytes; an id past the dictionary,
/// an overlong varint and a huge arity must fail typed.
#[test]
fn seeded_mutations_fail_typed_or_reencode_exactly() {
    let mut rng = DetRng::seed_from_u64(0xF022);
    let layers: Vec<(Vec<BaseEvent>, Vec<u8>)> = (0..128)
        .map(|_| {
            let events = random_events(&mut rng);
            let bytes = encode(rng.gen_range_u64(0, 1 << 30), &events);
            (events, bytes)
        })
        .collect();
    // Bit-flip mutations, and how many of them decoded.
    let (mut flips, mut read) = (0, 0);
    for (i, (events, bytes)) in layers.iter().enumerate() {
        let pre = &bytes[..bytes.len() - 8];
        for _ in 0..64 {
            let mut bad = pre.to_vec();
            for _ in 0..rng.gen_range_usize(1, 4) {
                bad[rng.gen_range_usize(0, pre.len())] ^= 1 << rng.gen_range_u32(0, 8);
            }
            flips += 1;
            read += usize::from(decodes(&rechecksum(bad), &format!("layer {i}, bit flips")));
        }
        for _ in 0..8 {
            let cut = rng.gen_range_usize(0, pre.len());
            let bad = rechecksum(pre[..cut].to_vec());
            assert!(!decodes(&bad, &format!("layer {i}, cut at {cut}")), "layer {i}: cut at {cut}");
        }
        for _ in 0..16 {
            // A run of another layer's bytes in place of a run of this one's.
            let (_, other) = &layers[rng.gen_range_usize(0, layers.len())];
            let other = &other[..other.len() - 8];
            let from = rng.gen_range_usize(0, other.len());
            let piece = &other[from..rng.gen_range_usize(from, other.len() + 1)];
            let at = rng.gen_range_usize(0, pre.len());
            let end = rng.gen_range_usize(at, pre.len() + 1);
            let mut bad = pre.to_vec();
            bad.splice(at..end, piece.iter().copied());
            decodes(&rechecksum(bad), &format!("layer {i}, splice"));
        }
        let n = events.len();
        let past = dictionary_len(events) + rng.gen_range_u64(0, 1 << 40);
        for tweak in [
            Tweak::Id(rng.gen_range_usize(0, 2 * n), past),
            Tweak::Overlong(rng.gen_range_usize(0, 4 * n)),
            Tweak::Arity(rng.gen_range_usize(0, n), rng.gen_range_u64(pre.len() as u64, u64::MAX)),
        ] {
            let bad = dply::layer(0, n as u32, events, tweak);
            assert!(!decodes(&bad, &format!("layer {i}, {tweak:?}")), "layer {i}: {tweak:?}");
            // The same hand-written layer, untweaked, is the encoder's.
            assert!(decodes(&dply::layer(0, n as u32, events, Tweak::None), "the control"));
        }
        // A due delta of u64::MAX overflows unless every due before it is
        // 0 and every one after it equal.
        let at = rng.gen_range_usize(0, n);
        decodes(&dply::layer(0, n as u32, events, Tweak::Due(at, u64::MAX)), "a huge due");
        // A layer's body with its footer word set is refused too.
        let footed = dply::frame(dply::body(bytes), rng.gen_range_u32(1, u32::MAX));
        assert!(!decodes(&footed, &format!("layer {i}, a footer")));
    }
    // Both outcomes were reached: a flip the decoder refused, and one it
    // read (inside an address or a sum, say) and re-encoded byte for byte.
    assert!(0 < read && read < flips, "{read} of {flips} bit flips decoded");
}

// ---------------------------------------------------------------------
// The reference: the one-pass whole decode.
// ---------------------------------------------------------------------

/// The fewest bytes a record can take: a one-byte due delta, op, node,
/// table and arity.
const MIN_RECORD_BYTES: usize = 5;

/// The fewest bytes a field can take: its tag and a one-byte payload.
const MIN_FIELD_BYTES: usize = 2;

fn malformed(context: &'static str, detail: String) -> Error {
    Error::Codec { context, detail }
}

/// The whole decode, as the layer reader made it in one pass before it
/// was split into a check at open and a decode on read: a layer file's
/// bytes into its `first_seq` and its events, the magic and version read
/// first, then the whole-file checksum verified before a single record is
/// decoded, and then every field, building each event as it goes. The
/// split reader is held to it.
fn whole_decode(bytes: &[u8]) -> Result<(u64, Vec<BaseEvent>)> {
    if bytes.len() < 12 {
        return Err(malformed(
            "layer file",
            format!(
                "{} bytes cannot hold a footer word and a checksum",
                bytes.len()
            ),
        ));
    }
    let (pre, sum) = bytes.split_at(bytes.len() - 8);
    let (body, footer) = pre.split_at(pre.len() - 4);
    let mut d = Dec::new(body);
    d.header(b"DPLY", 4)?;
    let stored = Dec::new(sum).u64("layer checksum")?;
    if checksum(pre) != stored {
        return Err(malformed("layer checksum", "checksum mismatch".into()));
    }
    let footer = Dec::new(footer).u32("layer footer")?;
    if footer != 0 {
        return Err(malformed(
            "layer footer",
            format!("a footer of {footer} bytes, where version 4 writes none"),
        ));
    }
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

