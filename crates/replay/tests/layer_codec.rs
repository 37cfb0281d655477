//! Properties of the `DPLY` version 3 layer record, and a seeded fuzz of
//! the layer reader.
//!
//! Seeded random events round-trip through `LayerEncoder` and
//! `decode_layer`, and encode to exactly the bytes the format's
//! specification spells out (`dply::layer`). The reader is then fed what a
//! damaged or hostile file can hold — bit flips, truncations, splices of
//! two layers, dictionary ids past the dictionary, overlong varints, huge
//! arities — each re-checksummed, so that it reaches the decoder and not
//! only the checksum. Every input gives a typed `Error::Codec` or a layer
//! that re-encodes to the same bytes; a panic fails the test, and the
//! decoder reads each byte once, so no input can hang it.

mod dply;

use std::collections::HashSet;
use std::sync::Arc;

use dp_replay::layers::layer::{decode_layer, LayerEncoder};
use dp_replay::{BaseEvent, BaseOp};
use dp_types::codec::fnv64;
use dp_types::prefix::Prefix;
use dp_types::{DetRng, Error, NodeId, Sym, Tuple, Value};
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
    let sum = fnv64(&pre);
    pre.extend(sum.to_le_bytes());
    pre
}

/// Decodes `bytes`: a typed error (false), or a layer that re-encodes to
/// `bytes` exactly (true). Anything else fails the test.
fn decodes(bytes: &[u8], case: &str) -> bool {
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
