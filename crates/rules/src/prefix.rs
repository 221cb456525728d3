//! IPv4 prefixes.
//!
//! FIB rules — the dominant rule shape in both the SDN and BGP workloads of
//! the paper — match on a destination IPv4 prefix. This module provides a
//! compact prefix type with the containment/overlap/difference operations
//! Hermes's partitioning algorithm needs, plus conversion into the generic
//! [`crate::key::TernaryKey`] representation used by the TCAM
//! model (the destination address occupies the top 32 bits of the 128-bit
//! header window, see [`crate::fields`]).

use crate::fields::DST_SHIFT;
use crate::key::TernaryKey;
use std::fmt;
use std::str::FromStr;

/// An IPv4 prefix `addr/len`.
///
/// Invariant: host bits of `addr` below the prefix length are zero.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ipv4Prefix {
    addr: u32,
    len: u8,
}

/// Error returned when parsing an [`Ipv4Prefix`] from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixParseError(String);

impl fmt::Display for PrefixParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid IPv4 prefix: {}", self.0)
    }
}

impl std::error::Error for PrefixParseError {}

impl Ipv4Prefix {
    /// The default route `0.0.0.0/0`.
    pub const DEFAULT: Ipv4Prefix = Ipv4Prefix { addr: 0, len: 0 };

    /// Builds a prefix, zeroing any host bits below `len`.
    ///
    /// # Panics
    /// Panics if `len > 32`.
    pub fn new(addr: u32, len: u8) -> Self {
        assert!(len <= 32, "prefix length {len} > 32");
        Ipv4Prefix {
            addr: addr & Self::mask_of(len),
            len,
        }
    }

    /// A host route (`/32`).
    pub fn host(addr: u32) -> Self {
        Ipv4Prefix { addr, len: 32 }
    }

    fn mask_of(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    /// The network address.
    pub fn addr(&self) -> u32 {
        self.addr
    }

    /// The prefix length.
    pub fn len(&self) -> u8 {
        self.len
    }

    /// `true` only for the default route (`/0`), which matches every
    /// address. (Provided for clippy-idiomatic pairing with `len`.)
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The netmask as a `u32`.
    pub fn netmask(&self) -> u32 {
        Self::mask_of(self.len)
    }

    /// Does the prefix contain the address?
    pub fn matches(&self, addr: u32) -> bool {
        addr & self.netmask() == self.addr
    }

    /// Is `other` a subset of (or equal to) `self`?
    pub fn contains(&self, other: &Ipv4Prefix) -> bool {
        self.len <= other.len && other.addr & self.netmask() == self.addr
    }

    /// Do the two prefixes share any address? For prefixes, overlap implies
    /// one contains the other.
    pub fn overlaps(&self, other: &Ipv4Prefix) -> bool {
        self.contains(other) || other.contains(self)
    }

    /// The two halves of this prefix, or `None` for a `/32`.
    pub fn children(&self) -> Option<(Ipv4Prefix, Ipv4Prefix)> {
        if self.len >= 32 {
            return None;
        }
        let len = self.len + 1;
        let bit = 1u32 << (32 - len);
        Some((
            Ipv4Prefix {
                addr: self.addr,
                len,
            },
            Ipv4Prefix {
                addr: self.addr | bit,
                len,
            },
        ))
    }

    /// The enclosing prefix one bit shorter, or `None` for `/0`.
    pub fn parent(&self) -> Option<Ipv4Prefix> {
        if self.len == 0 {
            return None;
        }
        Some(Ipv4Prefix::new(self.addr, self.len - 1))
    }

    /// The sibling under the same parent, or `None` for `/0`.
    pub fn sibling(&self) -> Option<Ipv4Prefix> {
        if self.len == 0 {
            return None;
        }
        let bit = 1u32 << (32 - self.len);
        Some(Ipv4Prefix {
            addr: self.addr ^ bit,
            len: self.len,
        })
    }

    /// The minimal prefix cover of `self \ other`.
    ///
    /// * `[]` when `other` contains `self`;
    /// * `[self]` when they are disjoint;
    /// * otherwise (i.e. `self` strictly contains `other`) the classic
    ///   sibling walk producing exactly `other.len() - self.len()` prefixes.
    pub fn difference(&self, other: &Ipv4Prefix) -> Vec<Ipv4Prefix> {
        if other.contains(self) {
            return Vec::new();
        }
        if !self.contains(other) {
            return vec![*self];
        }
        let mut out = Vec::with_capacity((other.len - self.len) as usize);
        let mut cur = *other;
        while cur.len > self.len {
            out.push(
                cur.sibling()
                    .expect("INVARIANT: loop guard keeps cur.len > self.len >= 0"),
            );
            cur = cur
                .parent()
                .expect("INVARIANT: loop guard keeps cur.len > self.len >= 0");
        }
        out
    }

    /// Converts into the 128-bit ternary key used by the TCAM model: the
    /// destination address occupies the top 32 bits of the header window.
    pub fn to_key(&self) -> TernaryKey {
        let value = (self.addr as u128) << DST_SHIFT;
        let mask = (self.netmask() as u128) << DST_SHIFT;
        TernaryKey::new(value, mask)
    }

    /// Dotted-quad octets of the network address.
    pub fn octets(&self) -> [u8; 4] {
        self.addr.to_be_bytes()
    }
}

impl fmt::Display for Ipv4Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}/{}", self.len)
    }
}

impl fmt::Debug for Ipv4Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl FromStr for Ipv4Prefix {
    type Err = PrefixParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || PrefixParseError(s.to_string());
        let (ip, len) = s.split_once('/').ok_or_else(err)?;
        let len: u8 = len.parse().map_err(|_| err())?;
        if len > 32 {
            return Err(err());
        }
        let mut octs = [0u8; 4];
        let mut n = 0;
        for part in ip.split('.') {
            if n == 4 {
                return Err(err());
            }
            octs[n] = part.parse().map_err(|_| err())?;
            n += 1;
        }
        if n != 4 {
            return Err(err());
        }
        Ok(Ipv4Prefix::new(u32::from_be_bytes(octs), len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display_roundtrip() {
        for s in ["0.0.0.0/0", "192.168.1.0/24", "10.0.0.0/8", "1.2.3.4/32"] {
            assert_eq!(p(s).to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        for s in [
            "",
            "1.2.3.4",
            "1.2.3/8",
            "1.2.3.4.5/8",
            "1.2.3.4/33",
            "a.b.c.d/8",
        ] {
            assert!(s.parse::<Ipv4Prefix>().is_err(), "{s} should not parse");
        }
    }

    #[test]
    fn new_zeroes_host_bits() {
        let a = Ipv4Prefix::new(u32::from_be_bytes([192, 168, 1, 5]), 24);
        assert_eq!(a, p("192.168.1.0/24"));
    }

    #[test]
    fn containment_and_overlap() {
        let net = p("192.168.1.0/24");
        let sub = p("192.168.1.64/26");
        let other = p("192.168.2.0/24");
        assert!(net.contains(&sub));
        assert!(!sub.contains(&net));
        assert!(net.overlaps(&sub));
        assert!(sub.overlaps(&net));
        assert!(!net.overlaps(&other));
        assert!(Ipv4Prefix::DEFAULT.contains(&net));
    }

    #[test]
    fn matches_addresses() {
        let net = p("192.168.1.0/24");
        assert!(net.matches(u32::from_be_bytes([192, 168, 1, 5])));
        assert!(!net.matches(u32::from_be_bytes([192, 168, 2, 5])));
        assert!(Ipv4Prefix::DEFAULT.matches(0));
    }

    #[test]
    fn family_navigation() {
        let net = p("192.168.1.0/24");
        let (l, r) = net.children().unwrap();
        assert_eq!(l, p("192.168.1.0/25"));
        assert_eq!(r, p("192.168.1.128/25"));
        assert_eq!(l.parent().unwrap(), net);
        assert_eq!(l.sibling().unwrap(), r);
        assert!(Ipv4Prefix::host(1).children().is_none());
        assert!(Ipv4Prefix::DEFAULT.parent().is_none());
    }

    #[test]
    fn difference_matches_paper_figure4() {
        // Fig. 4(c): 192.168.1.0/24 minus 192.168.1.0/26
        // = {192.168.1.64/26, 192.168.1.128/25}.
        let wide = p("192.168.1.0/24");
        let hole = p("192.168.1.0/26");
        let mut diff = wide.difference(&hole);
        diff.sort();
        assert_eq!(diff, vec![p("192.168.1.64/26"), p("192.168.1.128/25")]);
    }

    #[test]
    fn difference_edge_cases() {
        let wide = p("10.0.0.0/8");
        assert!(wide.difference(&wide).is_empty());
        assert!(wide.difference(&Ipv4Prefix::DEFAULT).is_empty());
        let disjoint = p("11.0.0.0/8");
        assert_eq!(wide.difference(&disjoint), vec![wide]);
    }

    #[test]
    fn difference_semantics_exhaustive_on_small_space() {
        // Work within 10.0.0.0/24 so we can brute-force all 256 addresses.
        let base = 0x0a_00_00_00u32;
        let a = Ipv4Prefix::new(base, 24);
        let b = Ipv4Prefix::new(base | 0x40, 26);
        let diff = a.difference(&b);
        for host in 0u32..=255 {
            let addr = base | host;
            let expect = a.matches(addr) && !b.matches(addr);
            let got = diff.iter().filter(|q| q.matches(addr)).count();
            assert_eq!(got, usize::from(expect), "addr 10.0.0.{host}");
        }
    }

    #[test]
    fn key_conversion_preserves_semantics() {
        let net = p("192.168.1.0/26");
        let key = net.to_key();
        assert!(key.is_prefix_shaped());
        let pkt = (u32::from_be_bytes([192, 168, 1, 5]) as u128) << DST_SHIFT;
        assert!(key.matches(pkt));
        let pkt2 = (u32::from_be_bytes([192, 168, 1, 200]) as u128) << DST_SHIFT;
        assert!(!key.matches(pkt2));
    }

    #[test]
    fn prefix_difference_agrees_with_ternary_difference() {
        let wide = p("192.168.0.0/16");
        let hole = p("192.168.37.192/27");
        let via_prefix: Vec<TernaryKey> =
            wide.difference(&hole).iter().map(|q| q.to_key()).collect();
        let via_key = wide.to_key().difference(&hole.to_key());
        // Same number of pieces (both minimal) and identical semantics on
        // sampled addresses.
        assert_eq!(via_prefix.len(), via_key.len());
        for i in 0..1000u32 {
            let addr = 0xc0a8_0000u32 | (i.wrapping_mul(2654435761) % 65536);
            let pkt = (addr as u128) << DST_SHIFT;
            let a = via_prefix.iter().any(|k| k.matches(pkt));
            let b = via_key.iter().any(|k| k.matches(pkt));
            assert_eq!(a, b);
        }
    }
}
