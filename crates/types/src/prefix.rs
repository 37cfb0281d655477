//! IPv4 prefixes with the containment and repair operations DiffProv needs.

use std::fmt;
use std::str::FromStr;

use crate::error::Error;

/// An IPv4 prefix in CIDR notation, e.g. `4.3.2.0/23`.
///
/// Prefixes are the match fields of OpenFlow-style flow entries. Besides the
/// usual containment test, this type implements the two *repair* operations
/// that DiffProv's constraint inversion uses (Section 4.5 of the paper):
///
/// * [`Prefix::widen_to_contain`] — the minimal widening of a prefix so that
///   it also covers a given address. This is exactly the fix in the paper's
///   running example: widening the overly specific `4.3.2.0/24` so that it
///   also matches `4.3.3.1` yields `4.3.2.0/23`.
/// * [`Prefix::narrow_to_exclude`] — the minimal narrowing of a prefix so
///   that it keeps covering its own base address but no longer covers a
///   given address (used to repair an overlapping higher-priority rule,
///   scenario SDN2).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Prefix {
    addr: u32,
    len: u8,
}

impl Prefix {
    /// Creates a prefix, normalizing the address by masking off host bits.
    ///
    /// Returns an error if `len > 32`.
    #[inline]
    pub fn new(addr: u32, len: u8) -> Result<Self, Error> {
        if len > 32 {
            return Err(Error::Parse(format!("prefix length {len} > 32")));
        }
        Ok(Prefix {
            addr: addr & Self::mask(len),
            len,
        })
    }

    /// A /32 prefix covering exactly one address.
    pub fn host(addr: u32) -> Self {
        Prefix { addr, len: 32 }
    }

    /// The all-covering prefix `0.0.0.0/0`.
    pub fn any() -> Self {
        Prefix { addr: 0, len: 0 }
    }

    /// The (masked) base address.
    #[inline]
    pub fn addr(&self) -> u32 {
        self.addr
    }

    /// The last address the prefix contains: it contains exactly
    /// `addr()..=last()`.
    pub fn last(&self) -> u32 {
        self.addr | !Self::mask(self.len)
    }

    /// The prefix length in bits.
    #[inline]
    pub fn len(&self) -> u8 {
        self.len
    }

    /// True only for the zero-length prefix (`0.0.0.0/0`).
    ///
    /// **Careful:** this is the conventional `len() == 0` companion that
    /// clippy expects next to [`Prefix::len`], but a zero-*length* prefix is
    /// the opposite of an empty *set*: `0.0.0.0/0` contains every address
    /// (see [`Prefix::contains`]). No prefix denotes an empty address set,
    /// so never use this method to test "matches nothing".
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - u32::from(len))
        }
    }

    /// The longest prefix covering both `self` and `other` (never longer
    /// than either).
    pub fn common(&self, other: &Prefix) -> Prefix {
        let lcp = (self.addr ^ other.addr).leading_zeros() as u8;
        let len = lcp.min(self.len).min(other.len);
        Prefix {
            addr: self.addr & Self::mask(len),
            len,
        }
    }

    /// Tests whether `ip` falls inside this prefix.
    pub fn contains(&self, ip: u32) -> bool {
        (ip & Self::mask(self.len)) == self.addr
    }

    /// Tests whether `other` is entirely inside this prefix.
    pub fn covers(&self, other: &Prefix) -> bool {
        other.len >= self.len && self.contains(other.addr)
    }

    /// The minimal widening of `self` that also contains `ip`.
    ///
    /// The result keeps this prefix's base address, shortening the length to
    /// the longest common prefix of the base address and `ip`. If `self`
    /// already contains `ip`, `self` is returned unchanged.
    pub fn widen_to_contain(&self, ip: u32) -> Prefix {
        if self.contains(ip) {
            return *self;
        }
        let common = (self.addr ^ ip).leading_zeros() as u8; // < self.len here
        Prefix {
            addr: self.addr & Self::mask(common),
            len: common,
        }
    }

    /// The minimal narrowing of `self` that still contains its own base
    /// address but no longer contains `ip`.
    ///
    /// Returns `None` when `ip` equals the base address (no prefix can keep
    /// the base while excluding it) or when `self` does not contain `ip` in
    /// the first place (nothing to exclude — the caller should not narrow).
    pub fn narrow_to_exclude(&self, ip: u32) -> Option<Prefix> {
        if !self.contains(ip) {
            return None;
        }
        if ip == self.addr {
            return None;
        }
        // First bit (from the top) where the base address and ip differ.
        let diff = (self.addr ^ ip).leading_zeros() as u8;
        debug_assert!(diff >= self.len && diff < 32);
        Some(Prefix {
            addr: self.addr,
            len: diff + 1,
        })
    }

    /// Parses dotted-quad notation `a.b.c.d` into a `u32`.
    pub fn parse_ip(s: &str) -> Result<u32, Error> {
        let mut out: u32 = 0;
        let mut parts = 0;
        for part in s.split('.') {
            let octet: u32 = part
                .parse::<u8>()
                .map_err(|_| Error::Parse(format!("bad IPv4 address {s:?}")))?
                .into();
            out = (out << 8) | octet;
            parts += 1;
        }
        if parts != 4 {
            return Err(Error::Parse(format!("bad IPv4 address {s:?}")));
        }
        Ok(out)
    }

    /// Formats a `u32` as dotted-quad notation.
    pub fn fmt_ip(ip: u32) -> String {
        format!(
            "{}.{}.{}.{}",
            (ip >> 24) & 0xff,
            (ip >> 16) & 0xff,
            (ip >> 8) & 0xff,
            ip & 0xff
        )
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", Prefix::fmt_ip(self.addr), self.len)
    }
}

impl fmt::Debug for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl FromStr for Prefix {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self, Error> {
        match s.split_once('/') {
            Some((ip, len)) => {
                let addr = Prefix::parse_ip(ip)?;
                let len: u8 = len
                    .parse()
                    .map_err(|_| Error::Parse(format!("bad prefix {s:?}")))?;
                Prefix::new(addr, len)
            }
            None => Ok(Prefix::host(Prefix::parse_ip(s)?)),
        }
    }
}

/// Convenience: parse an IPv4 address literal.
///
/// Intended for literals in scenario definitions and tests, never for
/// input: a literal is checked where it is written, so a malformed one is
/// a bug on that line and panics. Input goes through
/// [`Prefix::parse_ip`], which returns a typed [`Error`].
pub fn ip(s: &str) -> u32 {
    match Prefix::parse_ip(s) {
        Ok(ip) => ip,
        Err(e) => panic!("malformed IPv4 literal: {e}"),
    }
}

/// Convenience: parse a CIDR prefix literal. Like [`ip`], for literals
/// only: a malformed one panics, where input goes through `str::parse`.
pub fn cidr(s: &str) -> Prefix {
    match s.parse() {
        Ok(p) => p,
        Err(e) => panic!("malformed CIDR literal: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_roundtrip() {
        let p = cidr("4.3.2.0/23");
        assert_eq!(p.to_string(), "4.3.2.0/23");
        assert_eq!(p.len(), 23);
        let host = cidr("10.0.0.7");
        assert_eq!(host.len(), 32);
        assert_eq!(host.addr(), ip("10.0.0.7"));
    }

    #[test]
    fn new_masks_host_bits() {
        let p = Prefix::new(ip("4.3.2.99"), 24).unwrap();
        assert_eq!(p.addr(), ip("4.3.2.0"));
        assert!(Prefix::new(0, 33).is_err());
    }

    #[test]
    fn containment() {
        let p = cidr("4.3.2.0/24");
        assert!(p.contains(ip("4.3.2.1")));
        assert!(!p.contains(ip("4.3.3.1")));
        let wide = cidr("4.3.2.0/23");
        assert!(wide.contains(ip("4.3.2.1")));
        assert!(wide.contains(ip("4.3.3.1")));
        assert!(Prefix::any().contains(ip("255.255.255.255")));
    }

    #[test]
    fn is_empty_means_zero_length_not_empty_set() {
        // `/0` is "empty" only in the length sense; as a match it is total.
        let any = Prefix::any();
        assert!(any.is_empty());
        assert!(any.contains(0));
        assert!(any.contains(u32::MAX));
        assert!(any.contains(ip("4.3.2.1")));
        // Every non-zero length is non-"empty", including hosts.
        assert!(!cidr("0.0.0.0/1").is_empty());
        assert!(!Prefix::host(0).is_empty());
    }

    #[test]
    fn covers_is_reflexive_and_ordered() {
        let wide = cidr("4.3.2.0/23");
        let narrow = cidr("4.3.2.0/24");
        assert!(wide.covers(&narrow));
        assert!(!narrow.covers(&wide));
        assert!(wide.covers(&wide));
    }

    #[test]
    fn widen_reproduces_paper_example() {
        // The running example of the paper: R1 was written as 4.3.2.0/24 by
        // mistake; the minimal widening that also matches 4.3.3.1 is /23.
        let broken = cidr("4.3.2.0/24");
        let fixed = broken.widen_to_contain(ip("4.3.3.1"));
        assert_eq!(fixed, cidr("4.3.2.0/23"));
    }

    #[test]
    fn widen_is_noop_when_contained() {
        let p = cidr("4.3.2.0/23");
        assert_eq!(p.widen_to_contain(ip("4.3.2.1")), p);
    }

    #[test]
    fn narrow_excludes_address() {
        let p = cidr("4.3.0.0/16");
        let n = p.narrow_to_exclude(ip("4.3.7.9")).unwrap();
        assert!(n.contains(p.addr()));
        assert!(!n.contains(ip("4.3.7.9")));
        // Minimal: one bit longer than the first differing bit.
        assert_eq!(n, cidr("4.3.0.0/22"));
    }

    #[test]
    fn narrow_fails_on_base_address() {
        let p = cidr("4.3.0.0/16");
        assert_eq!(p.narrow_to_exclude(ip("4.3.0.0")), None);
        assert_eq!(p.narrow_to_exclude(ip("9.9.9.9")), None);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("4.3.2".parse::<Prefix>().is_err());
        assert!("4.3.2.0/40".parse::<Prefix>().is_err());
        assert!("4.3.2.256/8".parse::<Prefix>().is_err());
    }
}
