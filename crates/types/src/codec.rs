//! A versioned binary codec: the primitives of the durable layer files.
//!
//! The replay store's layer files (Section 5's base-event logs) are built
//! from the primitives here; the record itself — a dictionary of names and
//! the fields that refer to it — is `dp_replay::layers::layer`'s. The
//! design goals, in order:
//!
//! * **Determinism** — the same value encodes to the same bytes on every
//!   platform (fixed-width integers little-endian, varints minimal, no
//!   padding), so on-disk layer files can be compared and checksummed
//!   byte-for-byte, and a decoder can insist on the one encoding.
//! * **Typed failure** — a corrupt byte stream (truncated file, flipped
//!   bit, overlong varint, stale version) surfaces as [`Error::Codec`]
//!   with context, never as a panic: diagnostic tooling reads files
//!   written hours earlier by other processes.
//! * **Versioning** — every file format built on this module opens with a
//!   4-byte magic and a `u16` version via [`Enc::header`] /
//!   [`Dec::header`], so formats can evolve without silent misreads.
//!
//! Addresses and checksums are fixed-width; counts, lengths, times and
//! integers are LEB128 varints ([`Enc::varint`], [`Enc::zigzag`]), which
//! take one byte for the small values a log is mostly made of.

use crate::error::{Error, Result};

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
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes `b` as it is.
    pub fn extend(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Writes a LEB128 varint: seven bits a byte, low bits first, the top
    /// bit set on every byte but the last. The encoding is minimal, so
    /// every value has exactly one.
    #[inline]
    pub fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push((v as u8) | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Writes a signed integer as the varint of its zigzag image (0, −1,
    /// 1, −2, … → 0, 1, 2, 3, …), so small magnitudes of either sign take
    /// one byte.
    #[inline]
    pub fn zigzag(&mut self, v: i64) {
        self.varint(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Writes a UTF-8 string: its byte length as a varint, then the bytes.
    pub fn str(&mut self, s: &str) {
        self.varint(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
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
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when the cursor has consumed every byte.
    #[inline]
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// The current cursor position.
    pub fn position(&self) -> usize {
        self.pos
    }

    #[inline]
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
    #[inline]
    pub fn u8(&mut self, context: &'static str) -> Result<u8> {
        match self.buf.get(self.pos) {
            Some(&b) => {
                self.pos += 1;
                Ok(b)
            }
            None => Err(Error::Codec {
                context,
                detail: format!("truncated: needed 1 byte at offset {}, none left", self.pos),
            }),
        }
    }

    /// Reads a little-endian `u16`.
    #[inline]
    pub fn u16(&mut self, context: &'static str) -> Result<u16> {
        let b = self.take(2, context)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, context: &'static str) -> Result<u32> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, context: &'static str) -> Result<u64> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a varint as [`Enc::varint`] writes it. Only the minimal
    /// encoding is accepted: a varint with a trailing zero byte, or one
    /// past 64 bits, is an overlong [`Error::Codec`], so a value reads
    /// back from exactly one byte string.
    #[inline]
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

    /// Reads a signed integer as [`Enc::zigzag`] writes it.
    #[inline]
    pub fn zigzag(&mut self, context: &'static str) -> Result<i64> {
        let z = self.varint(context)?;
        Ok((z >> 1) as i64 ^ -((z & 1) as i64))
    }

    /// Reads a string as [`Enc::str`] writes it.
    pub fn str(&mut self, context: &'static str) -> Result<&'a str> {
        let len = self.varint(context)?;
        let len = usize::try_from(len).unwrap_or(usize::MAX);
        let bytes = self.take(len, context)?;
        std::str::from_utf8(bytes).map_err(|e| Error::Codec {
            context,
            detail: format!("invalid UTF-8: {e}"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_roundtrip_minimally() {
        let cases: [(u64, usize); 8] = [
            (0, 1),
            (1, 1),
            (127, 1),
            (128, 2),
            (16_383, 2),
            (16_384, 3),
            (u64::from(u32::MAX), 5),
            (u64::MAX, 10),
        ];
        for (v, width) in cases {
            let mut e = Enc::new();
            e.varint(v);
            assert_eq!(e.len(), width, "{v}");
            let bytes = e.into_bytes();
            let mut d = Dec::new(&bytes);
            assert_eq!(d.varint("v").unwrap(), v);
            assert!(d.is_exhausted());
        }
        for v in [0, -1, 1, -64, 63, 64, i64::MIN, i64::MAX] {
            let mut e = Enc::new();
            e.zigzag(v);
            let width = e.len();
            let bytes = e.into_bytes();
            assert_eq!(Dec::new(&bytes).zigzag("z").unwrap(), v);
            assert_eq!(width == 1, (-64..64).contains(&v), "{v}");
        }
    }

    #[test]
    fn overlong_and_truncated_varints_are_typed_errors() {
        for bytes in [
            // 0 and 127, padded.
            &[0x80, 0x00][..],
            &[0xff, 0x80, 0x00],
            // Past 64 bits, and a tenth byte that continues.
            &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02],
            &[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x81],
        ] {
            match Dec::new(bytes).varint("v") {
                Err(Error::Codec { detail, .. }) => {
                    assert!(detail.contains("overlong"), "{detail}")
                }
                other => panic!("{bytes:02x?} read as {other:?}"),
            }
        }
        for bytes in [&[][..], &[0x80], &[0xff, 0xff]] {
            assert!(matches!(Dec::new(bytes).varint("v"), Err(Error::Codec { .. })));
        }
    }

    #[test]
    fn strings_roundtrip_and_refuse_bad_utf8() {
        let mut e = Enc::new();
        e.str("pktIn with spaces and ünïcode");
        e.str("");
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.str("s").unwrap(), "pktIn with spaces and ünïcode");
        assert_eq!(d.str("s").unwrap(), "");
        assert!(d.is_exhausted());
        assert!(matches!(
            Dec::new(&[2, 0xc3, 0x28]).str("s"),
            Err(Error::Codec { detail, .. }) if detail.contains("UTF-8")
        ));
        assert!(matches!(Dec::new(&[5, b'a']).str("s"), Err(Error::Codec { .. })));
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
