//! The `DPLY` version 4 layer format written out by hand from its
//! specification (the module docs of `crates/replay/src/layers/layer.rs`),
//! for the tests that pin the format byte for byte and state files the
//! encoder never writes — version 3's among them. The dictionary is filed in first-use order and
//! every varint of the records goes through one function, so a test can
//! replace any one of them or write it overlong. The primitives it
//! writes with, and the checked reads the reference decoder of
//! `layer_codec.rs` makes, are spelled out in `codec.rs` beside it, apart
//! from the reader under test.

pub mod codec;

use codec::{checksum, Enc};
use dp_replay::{BaseEvent, BaseOp};
use dp_types::{fnv64, Sym, Value};

/// One varint of the records to write wrong, counted from 0 among those
/// of its kind.
#[derive(Clone, Copy, Debug)]
pub enum Tweak {
    /// Write every varint as the specification says.
    None,
    /// The n-th varint of any kind, padded with a zero byte.
    Overlong(usize),
    /// The n-th due delta, replaced by the value given.
    Due(usize, u64),
    /// The n-th dictionary id (a node, a table or a string field),
    /// replaced by the value given.
    Id(usize, u64),
    /// The n-th arity, replaced by the value given.
    Arity(usize, u64),
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Due,
    Id,
    Arity,
    Other,
}

struct Writer {
    out: Enc,
    tweak: Tweak,
    /// Varints written so far, in all and of each kind.
    all: usize,
    of: [usize; 4],
}

impl Writer {
    fn varint(&mut self, kind: Kind, v: u64) {
        let (all, nth) = (self.all, self.of[kind as usize]);
        self.all += 1;
        self.of[kind as usize] += 1;
        match self.tweak {
            Tweak::Overlong(n) if n == all => {
                let mut e = Enc::new();
                e.varint(v);
                let mut bytes = e.into_bytes();
                *bytes.last_mut().unwrap() |= 0x80;
                bytes.push(0);
                self.out.extend(&bytes);
            }
            Tweak::Due(n, w) if kind == Kind::Due && n == nth => self.out.varint(w),
            Tweak::Id(n, w) if kind == Kind::Id && n == nth => self.out.varint(w),
            Tweak::Arity(n, w) if kind == Kind::Arity && n == nth => self.out.varint(w),
            _ => self.out.varint(v),
        }
    }
}

/// The layer file of `events` (in replay order) starting at `first_seq`,
/// with `count` in its record-count field, written from the
/// specification with `tweak` applied and a valid checksum.
pub fn layer(first_seq: u64, count: u32, events: &[BaseEvent], tweak: Tweak) -> Vec<u8> {
    let mut names: Vec<Sym> = Vec::new();
    let mut id = |name: Sym| match names.iter().position(|&n| n == name) {
        Some(i) => i as u64,
        None => {
            names.push(name);
            names.len() as u64 - 1
        }
    };
    let mut w = Writer {
        out: Enc::new(),
        tweak,
        all: 0,
        of: [0; 4],
    };
    let mut due = 0;
    for ev in events {
        w.varint(Kind::Due, ev.due - due);
        due = ev.due;
        w.out.u8(match ev.op {
            BaseOp::Insert => 0,
            BaseOp::Delete => 1,
        });
        w.varint(Kind::Id, id(ev.node.0));
        w.varint(Kind::Id, id(ev.tuple.table));
        w.varint(Kind::Arity, ev.tuple.args.len() as u64);
        for v in &ev.tuple.args {
            match *v {
                Value::Int(i) => {
                    w.out.u8(0);
                    w.varint(Kind::Other, ((i << 1) ^ (i >> 63)) as u64);
                }
                Value::Bool(b) => {
                    w.out.u8(1);
                    w.out.u8(u8::from(b));
                }
                Value::Str(s) => {
                    w.out.u8(2);
                    w.varint(Kind::Id, id(s));
                }
                Value::Ip(ip) => {
                    w.out.u8(3);
                    w.out.u32(ip);
                }
                Value::Prefix(p) => {
                    w.out.u8(4);
                    w.out.u32(p.addr());
                    w.out.u8(p.len());
                }
                Value::Sum(s) => {
                    w.out.u8(5);
                    w.out.u64(s);
                }
                Value::Time(t) => {
                    w.out.u8(6);
                    w.varint(Kind::Other, t);
                }
            }
        }
    }
    let mut e = Enc::new();
    e.header(b"DPLY", 4);
    e.u64(first_seq);
    e.u32(count);
    e.varint(names.len() as u64);
    for name in &names {
        e.str(name.as_str());
    }
    e.extend(w.out.bytes());
    frame(e.bytes(), 0)
}

/// `body` (everything before the footer word) followed by the footer word
/// `footer` and a valid checksum.
pub fn frame(body: &[u8], footer: u32) -> Vec<u8> {
    let mut e = Enc::new();
    e.extend(body);
    e.u32(footer);
    let sum = checksum(e.bytes());
    e.u64(sum);
    e.into_bytes()
}

/// The version 3 file of the same records as the version 4 `file`:
/// version 3 differs in its version number and its checksum, FNV-1a 64
/// over everything before it, and in no other byte.
pub fn as_v3(file: &[u8]) -> Vec<u8> {
    let mut pre = file[..file.len() - 8].to_vec();
    pre[4..6].copy_from_slice(&3u16.to_le_bytes());
    let sum = fnv64(&pre);
    pre.extend(sum.to_le_bytes());
    pre
}

/// A layer file's bytes before its footer word.
pub fn body(file: &[u8]) -> &[u8] {
    &file[..file.len() - 12]
}
