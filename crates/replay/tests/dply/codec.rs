//! The primitives of the layer format, spelled out for the tests apart
//! from the reader they check: little-endian fixed-width words, a 4-byte
//! magic and a `u16` version, minimal LEB128 varints, zigzag integers,
//! varint-length UTF-8 strings and the checksum. `Enc` writes them (the
//! specification's writer, and files of the retired versions); `Dec`
//! reads them, checked, for the reference decoder of `layer_codec.rs`;
//! `checksum` sums them.

// Each test file that includes `dply` uses a part of this: the store's
// tests write with `Enc` and never read with `Dec`.
#![allow(dead_code)]

use dp_types::{Error, Result};

/// The layer checksum as the format's specification states it, word by
/// word: with `r(a, w) = rotl(a + w·P2, 31)·P1` (XXH64's round), four
/// accumulators take each whole 32-byte stripe, one little-endian word
/// each; a value starting at the length takes, by `r`, the four
/// accumulators, every whole word after the stripes and the last 0–7
/// bytes zero-padded to a word; then `h ^= h >> 33; h ·= P2; h ^= h >> 29;
/// h ·= P3; h ^= h >> 32`. Words are assembled here byte by byte, apart
/// from the layer module's chunked reads.
pub fn checksum(bytes: &[u8]) -> u64 {
    const P1: u64 = 11400714785074694791;
    const P2: u64 = 14029467366897019727;
    const P3: u64 = 1609587929392839161;
    // The little-endian word at `at`, zero past the end.
    let word = |at: usize| {
        (0..8).rev().fold(0u64, |v, i| v << 8 | u64::from(*bytes.get(at + i).unwrap_or(&0)))
    };
    let r = |a: u64, w: u64| a.wrapping_add(w.wrapping_mul(P2)).rotate_left(31).wrapping_mul(P1);
    let stripes = bytes.len() / 32;
    let mut acc = [P1.wrapping_add(P2), P2, 0, 0u64.wrapping_sub(P1)];
    for s in 0..stripes {
        for (l, a) in acc.iter_mut().enumerate() {
            *a = r(*a, word(32 * s + 8 * l));
        }
    }
    let mut h = bytes.len() as u64;
    for a in acc {
        h = r(h, a);
    }
    let mut at = 32 * stripes;
    while bytes.len() - at >= 8 {
        h = r(h, word(at));
        at += 8;
    }
    h = r(h, word(at));
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ h >> 32
}

/// An append-only encoder over a growable byte buffer.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub fn new() -> Self {
        Enc::default()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// A 4-byte magic plus a `u16` format version.
    pub fn header(&mut self, magic: &[u8; 4], version: u16) {
        self.buf.extend_from_slice(magic);
        self.buf.extend_from_slice(&version.to_le_bytes());
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn extend(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Seven bits a byte, low bits first, the top bit set on every byte
    /// but the last: the minimal encoding.
    pub fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push((v as u8) | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Its byte length as a varint, then the bytes.
    pub fn str(&mut self, s: &str) {
        self.varint(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// A cursor over a byte slice; every read is an `Error::Codec` with its
/// context on malformed or truncated input.
#[derive(Clone, Copy)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
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

    /// A 4-byte magic plus a `u16` version, which must be exactly
    /// `version`.
    pub fn header(&mut self, magic: &[u8; 4], version: u16) -> Result<()> {
        let got = self.take(4, "header magic")?;
        if got != magic {
            return Err(Error::Codec {
                context: "header magic",
                detail: format!("expected {magic:02x?}, found {got:02x?}"),
            });
        }
        let b = self.take(2, "header version")?;
        let found = u16::from_le_bytes([b[0], b[1]]);
        if found != version {
            return Err(Error::Codec {
                context: "header version",
                detail: format!("found version {found}, expected version {version}"),
            });
        }
        Ok(())
    }

    pub fn u8(&mut self, context: &'static str) -> Result<u8> {
        Ok(self.take(1, context)?[0])
    }

    pub fn u32(&mut self, context: &'static str) -> Result<u32> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn u64(&mut self, context: &'static str) -> Result<u64> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// A varint as `Enc::varint` writes it. Only the minimal encoding is
    /// accepted: a trailing zero byte, or a varint past 64 bits, is an
    /// overlong `Error::Codec`.
    pub fn varint(&mut self, context: &'static str) -> Result<u64> {
        let first = self.u8(context)?;
        if first < 0x80 {
            return Ok(u64::from(first));
        }
        let mut v = u64::from(first & 0x7f);
        for shift in (7..64).step_by(7) {
            let b = self.u8(context)?;
            if (shift == 63 && b > 1) || b == 0 {
                return Err(Error::Codec {
                    context,
                    detail: format!("overlong varint ending at offset {}", self.pos),
                });
            }
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return Ok(v);
            }
        }
        Err(Error::Codec {
            context,
            detail: format!("overlong varint ending at offset {}", self.pos),
        })
    }

    /// A signed integer as the varint of its zigzag image (0, −1, 1, −2,
    /// … → 0, 1, 2, 3, …).
    pub fn zigzag(&mut self, context: &'static str) -> Result<i64> {
        let z = self.varint(context)?;
        Ok((z >> 1) as i64 ^ -((z & 1) as i64))
    }

    /// A varint byte length, then that many bytes of UTF-8.
    pub fn str(&mut self, context: &'static str) -> Result<&'a str> {
        let len = self.varint(context)?;
        let bytes = self.take(usize::try_from(len).unwrap_or(usize::MAX), context)?;
        std::str::from_utf8(bytes).map_err(|e| Error::Codec {
            context,
            detail: format!("invalid UTF-8: {e}"),
        })
    }
}
