//! A versioned binary codec for the foundation types.
//!
//! The durable layer files of the replay store (Section 5's base-event
//! logs) encode [`Value`]s and [`Tuple`]s with the primitives here. The
//! design goals, in order:
//!
//! * **Determinism** — the same value encodes to the same bytes on every
//!   platform (all integers little-endian, no padding), so on-disk layer
//!   files can be compared and checksummed byte-for-byte.
//! * **Typed failure** — a corrupt byte stream (truncated file, flipped
//!   bit, stale version) surfaces as [`Error::Codec`] with context, never
//!   as a panic: diagnostic tooling reads files written hours earlier by
//!   other processes.
//! * **Versioning** — every file format built on this module opens with a
//!   4-byte magic and a `u16` version via [`Enc::header`] /
//!   [`Dec::header`], so formats can evolve without silent misreads.
//!
//! The per-field encoding is what the paper's logging engine stores:
//! fixed-size payloads for addresses, times, and checksums, and a
//! length-prefixed byte string only where the value genuinely varies.

use crate::error::{Error, Result};
use crate::prefix::Prefix;
use crate::sym::Sym;
use crate::tuple::Tuple;
use crate::value::Value;

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a checksum over a byte stream.
///
/// The one FNV-1a of the workspace: the integrity check at the end of
/// layer files, and the content hash of NDlog's `hash` builtin and of the
/// MapReduce checksums.
/// It is not cryptographic — it defends against truncation and bit rot,
/// not adversaries, exactly like the paper's prototype assumes a trusted
/// logging substrate.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(FNV_OFFSET)
    }
}

impl Fnv64 {
    /// A fresh hasher at the offset basis.
    pub fn new() -> Self {
        Fnv64::default()
    }

    /// Folds `bytes` into the running checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    /// The checksum of everything folded so far.
    pub fn digest(&self) -> u64 {
        self.0
    }
}

/// One-shot FNV-1a checksum of a byte slice.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(bytes);
    h.digest()
}

/// An append-only encoder over a growable byte buffer.
#[derive(Clone, Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Self {
        Enc::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrow of the bytes encoded so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes a 4-byte magic plus a `u16` format version.
    pub fn header(&mut self, magic: &[u8; 4], version: u16) {
        self.buf.extend_from_slice(magic);
        self.u16(version);
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32` length prefix; a length that does not fit is an
    /// [`Error::Codec`] naming `context`, and nothing is written.
    fn length(&mut self, context: &'static str, len: usize) -> Result<()> {
        let len = u32::try_from(len).map_err(|_| Error::Codec {
            context,
            detail: format!("length {len} exceeds u32::MAX"),
        })?;
        self.u32(len);
        Ok(())
    }

    /// Writes a length-prefixed UTF-8 string (`u32` length). A string of
    /// 4 GiB or more is an [`Error::Codec`], and nothing is written.
    pub fn str(&mut self, s: &str) -> Result<()> {
        let bytes = s.as_bytes();
        self.length("string", bytes.len())?;
        self.buf.extend_from_slice(bytes);
        Ok(())
    }

    /// Writes one [`Value`] as a tag byte plus payload.
    pub fn value(&mut self, v: &Value) -> Result<()> {
        match v {
            Value::Int(i) => {
                self.u8(0);
                self.i64(*i);
            }
            Value::Bool(b) => {
                self.u8(1);
                self.u8(u8::from(*b));
            }
            Value::Str(s) => {
                self.u8(2);
                self.str(s.as_str())?;
            }
            Value::Ip(ip) => {
                self.u8(3);
                self.u32(*ip);
            }
            Value::Prefix(p) => {
                self.u8(4);
                self.u32(p.addr());
                self.u8(p.len());
            }
            Value::Sum(s) => {
                self.u8(5);
                self.u64(*s);
            }
            Value::Time(t) => {
                self.u8(6);
                self.u64(*t);
            }
        }
        Ok(())
    }

    /// Writes one [`Tuple`]: table name, arity, then every field. A name
    /// or string field of 4 GiB or more, or an arity past `u32::MAX`, is
    /// an [`Error::Codec`], and the encoder then holds part of the tuple.
    pub fn tuple(&mut self, t: &Tuple) -> Result<()> {
        self.str(t.table.as_str())?;
        self.length("tuple arity", t.args.len())?;
        for v in &t.args {
            self.value(v)?;
        }
        Ok(())
    }
}

/// A cursor-based decoder over a byte slice. Every accessor returns
/// [`Error::Codec`] on malformed or truncated input.
#[derive(Clone, Copy, Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when the cursor has consumed every byte.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// The current cursor position.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(Error::Codec {
                context,
                detail: format!(
                    "truncated: needed {n} byte(s) at offset {}, only {} left",
                    self.pos,
                    self.remaining()
                ),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads and checks a 4-byte magic plus a `u16` version. Errors if the
    /// magic mismatches or the version is not exactly `version`: a format
    /// has one reader, for its one version.
    pub fn header(&mut self, magic: &[u8; 4], version: u16) -> Result<()> {
        let got = self.take(4, "header magic")?;
        if got != magic {
            return Err(Error::Codec {
                context: "header magic",
                detail: format!("expected {magic:02x?}, found {got:02x?}"),
            });
        }
        let found = self.u16("header version")?;
        if found != version {
            return Err(Error::Codec {
                context: "header version",
                detail: format!("found version {found}, expected version {version}"),
            });
        }
        Ok(())
    }

    /// Reads one byte.
    pub fn u8(&mut self, context: &'static str) -> Result<u8> {
        Ok(self.take(1, context)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self, context: &'static str) -> Result<u16> {
        let b = self.take(2, context)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, context: &'static str) -> Result<u32> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, context: &'static str) -> Result<u64> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self, context: &'static str) -> Result<i64> {
        let b = self.take(8, context)?;
        Ok(i64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self, context: &'static str) -> Result<&'a str> {
        let len = self.u32(context)? as usize;
        let bytes = self.take(len, context)?;
        std::str::from_utf8(bytes).map_err(|e| Error::Codec {
            context,
            detail: format!("invalid UTF-8: {e}"),
        })
    }

    /// Reads a length-prefixed string as a [`Sym`].
    pub fn sym(&mut self, context: &'static str) -> Result<Sym> {
        Ok(Sym::new(self.str(context)?))
    }

    /// Reads one [`Value`].
    pub fn value(&mut self) -> Result<Value> {
        let tag = self.u8("value tag")?;
        Ok(match tag {
            0 => Value::Int(self.i64("int value")?),
            1 => match self.u8("bool value")? {
                0 => Value::Bool(false),
                1 => Value::Bool(true),
                other => {
                    return Err(Error::Codec {
                        context: "bool value",
                        detail: format!("expected 0 or 1, found {other}"),
                    })
                }
            },
            2 => Value::Str(self.sym("str value")?),
            3 => Value::Ip(self.u32("ip value")?),
            4 => {
                let addr = self.u32("prefix addr")?;
                let len = self.u8("prefix len")?;
                Value::Prefix(Prefix::new(addr, len).map_err(|e| Error::Codec {
                    context: "prefix value",
                    detail: e.to_string(),
                })?)
            }
            5 => Value::Sum(self.u64("sum value")?),
            6 => Value::Time(self.u64("time value")?),
            other => {
                return Err(Error::Codec {
                    context: "value tag",
                    detail: format!("unknown tag {other}"),
                })
            }
        })
    }

    /// Reads one [`Tuple`].
    pub fn tuple(&mut self) -> Result<Tuple> {
        let table = self.sym("tuple table")?;
        let arity = self.u32("tuple arity")? as usize;
        // An absurd arity means corrupt bytes; refuse before reserving.
        if arity > self.remaining() {
            return Err(Error::Codec {
                context: "tuple arity",
                detail: format!("arity {arity} exceeds the {} bytes left", self.remaining()),
            });
        }
        let mut args = Vec::with_capacity(arity);
        for _ in 0..arity {
            args.push(self.value()?);
        }
        Ok(Tuple { table, args })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefix::{cidr, ip};
    use crate::tuple;

    fn roundtrip_value(v: &Value) -> Value {
        let mut e = Enc::new();
        e.value(v).unwrap();
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let got = d.value().expect("decodes");
        assert!(d.is_exhausted(), "{v:?} left bytes behind");
        got
    }

    #[test]
    fn values_roundtrip() {
        for v in [
            Value::Int(0),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Bool(true),
            Value::Bool(false),
            Value::str(""),
            Value::str("pktIn with spaces and ünïcode"),
            Value::Ip(ip("10.0.0.1")),
            Value::Prefix(cidr("10.0.0.0/8")),
            Value::Prefix(cidr("0.0.0.0/0")),
            Value::Sum(u64::MAX),
            Value::Time(42),
        ] {
            assert_eq!(roundtrip_value(&v), v);
        }
    }

    #[test]
    fn tuples_roundtrip() {
        let t = tuple!("flowEntry", 5, "S1", true, cidr("4.3.2.0/23"));
        let mut e = Enc::new();
        e.tuple(&t).unwrap();
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.tuple().unwrap(), t);
        assert!(d.is_exhausted());
    }

    #[test]
    fn header_rejects_wrong_magic_and_any_other_version() {
        let mut e = Enc::new();
        e.header(b"DPLY", 2);
        let bytes = e.into_bytes();
        assert!(Dec::new(&bytes).header(b"DPLY", 2).is_ok());
        assert!(matches!(
            Dec::new(&bytes).header(b"DPCK", 2),
            Err(Error::Codec { context: "header magic", .. })
        ));
        for other in [1, 3] {
            match Dec::new(&bytes).header(b"DPLY", other) {
                Err(Error::Codec { context: "header version", detail }) => {
                    assert!(detail.contains("found version 2"), "{detail}")
                }
                wrong => panic!("version 2 read as version {other}: {wrong:?}"),
            }
        }
    }

    #[test]
    fn truncation_is_a_typed_error() {
        let mut e = Enc::new();
        e.tuple(&tuple!("t", 1, 2, 3)).unwrap();
        let bytes = e.into_bytes();
        for cut in 0..bytes.len() {
            let mut d = Dec::new(&bytes[..cut]);
            assert!(
                matches!(d.tuple(), Err(Error::Codec { .. })),
                "truncation at {cut} did not error"
            );
        }
    }

    #[test]
    fn unknown_tag_is_a_typed_error() {
        let bytes = [7u8, 0, 0, 0];
        assert!(matches!(
            Dec::new(&bytes).value(),
            Err(Error::Codec { context: "value tag", .. })
        ));
    }

    #[test]
    fn fnv_matches_reference_vector() {
        // FNV-1a("a") from the reference implementation.
        assert_eq!(fnv64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv64(b""), FNV_OFFSET);
        let mut inc = Fnv64::new();
        inc.update(b"foo");
        inc.update(b"bar");
        assert_eq!(inc.digest(), fnv64(b"foobar"));
    }
}
