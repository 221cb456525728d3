//! Header-field layout and multi-field flow matches.
//!
//! The TCAM model matches on a single 128-bit header window. Real OpenFlow
//! matches are multi-field; we pack the common 5-tuple-ish fields into fixed
//! bit positions of that window so that the generic ternary-key algebra
//! (overlap, containment, difference) applies uniformly:
//!
//! ```text
//! bits 127..96  destination IPv4 address
//! bits  95..64  source IPv4 address
//! bits  63..56  IP protocol
//! bits  55..40  destination L4 port
//! bits  39..24  source L4 port
//! bits  23..12  VLAN id
//! bits  11..0   (reserved, always wildcard)
//! ```
//!
//! [`FlowMatch`] is the ergonomic builder for such keys; FIB-style rules that
//! only match a destination prefix can use
//! [`Ipv4Prefix::to_key`](crate::prefix::Ipv4Prefix::to_key) directly.

use crate::key::TernaryKey;
use crate::prefix::Ipv4Prefix;

/// Bit offset of the destination IPv4 address within the header window.
pub const DST_SHIFT: u32 = 96;
/// Bit offset of the source IPv4 address.
pub const SRC_SHIFT: u32 = 64;
/// Bit offset of the IP protocol byte.
pub const PROTO_SHIFT: u32 = 56;
/// Bit offset of the destination L4 port.
pub const DPORT_SHIFT: u32 = 40;
/// Bit offset of the source L4 port.
pub const SPORT_SHIFT: u32 = 24;
/// Bit offset of the VLAN id (12 bits).
pub const VLAN_SHIFT: u32 = 12;

/// A multi-field match in OpenFlow style. Every field is optional; `None`
/// means wildcard. Address fields are prefixes, the rest are exact values.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct FlowMatch {
    /// Destination IPv4 prefix.
    pub dst: Option<Ipv4Prefix>,
    /// Source IPv4 prefix.
    pub src: Option<Ipv4Prefix>,
    /// IP protocol (e.g. 6 = TCP, 17 = UDP).
    pub proto: Option<u8>,
    /// Destination transport port.
    pub dst_port: Option<u16>,
    /// Source transport port.
    pub src_port: Option<u16>,
    /// VLAN identifier (12 bits used).
    pub vlan: Option<u16>,
}

impl FlowMatch {
    /// The fully wildcarded match.
    pub fn any() -> Self {
        Self::default()
    }

    /// A match on the destination prefix only (FIB-style rule).
    pub fn dst_prefix(p: Ipv4Prefix) -> Self {
        FlowMatch {
            dst: Some(p),
            ..Self::default()
        }
    }

    /// Builder: set the destination prefix.
    pub fn with_dst(mut self, p: Ipv4Prefix) -> Self {
        self.dst = Some(p);
        self
    }

    /// Builder: set the source prefix.
    pub fn with_src(mut self, p: Ipv4Prefix) -> Self {
        self.src = Some(p);
        self
    }

    /// Builder: set the IP protocol.
    pub fn with_proto(mut self, proto: u8) -> Self {
        self.proto = Some(proto);
        self
    }

    /// Packs the match into the 128-bit ternary key.
    pub fn to_key(&self) -> TernaryKey {
        let mut value = 0u128;
        let mut mask = 0u128;
        if let Some(d) = self.dst {
            value |= (d.addr() as u128) << DST_SHIFT;
            mask |= (d.netmask() as u128) << DST_SHIFT;
        }
        if let Some(s) = self.src {
            value |= (s.addr() as u128) << SRC_SHIFT;
            mask |= (s.netmask() as u128) << SRC_SHIFT;
        }
        if let Some(p) = self.proto {
            value |= (p as u128) << PROTO_SHIFT;
            mask |= 0xffu128 << PROTO_SHIFT;
        }
        if let Some(dp) = self.dst_port {
            value |= (dp as u128) << DPORT_SHIFT;
            mask |= 0xffffu128 << DPORT_SHIFT;
        }
        if let Some(sp) = self.src_port {
            value |= (sp as u128) << SPORT_SHIFT;
            mask |= 0xffffu128 << SPORT_SHIFT;
        }
        if let Some(v) = self.vlan {
            value |= ((v & 0xfff) as u128) << VLAN_SHIFT;
            mask |= 0xfffu128 << VLAN_SHIFT;
        }
        TernaryKey::new(value, mask)
    }

    /// Extracts the destination-prefix portion of a ternary key, if the key's
    /// destination bits are prefix shaped. Used by the overlap index to route
    /// keys into the destination trie.
    pub fn dst_prefix_of_key(key: &TernaryKey) -> Option<Ipv4Prefix> {
        let mask = (key.mask() >> DST_SHIFT) as u32;
        let value = (key.value() >> DST_SHIFT) as u32;
        let len = mask.count_ones() as u8;
        if mask.leading_ones() != mask.count_ones() {
            return None; // non-contiguous destination mask
        }
        Some(Ipv4Prefix::new(value, len))
    }
}

/// Builds a packet header word for lookup, mirroring the [`FlowMatch`]
/// layout. All fields are concrete in a packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PacketHeader {
    /// Destination IPv4 address.
    pub dst: u32,
    /// Source IPv4 address.
    pub src: u32,
    /// IP protocol.
    pub proto: u8,
    /// Destination transport port.
    pub dst_port: u16,
    /// Source transport port.
    pub src_port: u16,
    /// VLAN identifier.
    pub vlan: u16,
}

impl PacketHeader {
    /// A header with only the destination address set; the rest zero.
    pub fn to_dst(dst: u32) -> Self {
        PacketHeader {
            dst,
            src: 0,
            proto: 0,
            dst_port: 0,
            src_port: 0,
            vlan: 0,
        }
    }

    /// Packs the header into the 128-bit lookup word.
    pub fn to_word(&self) -> u128 {
        ((self.dst as u128) << DST_SHIFT)
            | ((self.src as u128) << SRC_SHIFT)
            | ((self.proto as u128) << PROTO_SHIFT)
            | ((self.dst_port as u128) << DPORT_SHIFT)
            | ((self.src_port as u128) << SPORT_SHIFT)
            | (((self.vlan & 0xfff) as u128) << VLAN_SHIFT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn any_match_is_any_key() {
        assert_eq!(FlowMatch::any().to_key(), TernaryKey::ANY);
    }

    #[test]
    fn dst_only_match_equals_prefix_key() {
        let pre = p("10.1.0.0/16");
        assert_eq!(FlowMatch::dst_prefix(pre).to_key(), pre.to_key());
    }

    #[test]
    fn full_tuple_roundtrip() {
        let m = FlowMatch {
            dst_port: Some(443),
            src_port: Some(5000),
            vlan: Some(12),
            ..FlowMatch::any()
                .with_dst(p("10.0.0.0/8"))
                .with_src(p("192.168.0.0/16"))
                .with_proto(6)
        };
        let key = m.to_key();
        let hit = PacketHeader {
            dst: u32::from_be_bytes([10, 2, 3, 4]),
            src: u32::from_be_bytes([192, 168, 9, 9]),
            proto: 6,
            dst_port: 443,
            src_port: 5000,
            vlan: 12,
        };
        assert!(key.matches(hit.to_word()));
        let miss = PacketHeader { proto: 17, ..hit };
        assert!(!key.matches(miss.to_word()));
        let miss2 = PacketHeader {
            dst: u32::from_be_bytes([11, 2, 3, 4]),
            ..hit
        };
        assert!(!key.matches(miss2.to_word()));
    }

    #[test]
    fn dst_prefix_extraction() {
        let pre = p("172.16.0.0/12");
        let key = FlowMatch::dst_prefix(pre).with_proto(17).to_key();
        assert_eq!(FlowMatch::dst_prefix_of_key(&key), Some(pre));
        // Fully wildcarded destination extracts the default route.
        let key2 = FlowMatch::any().with_proto(6).to_key();
        assert_eq!(
            FlowMatch::dst_prefix_of_key(&key2),
            Some(Ipv4Prefix::DEFAULT)
        );
    }

    #[test]
    fn field_overlap_via_keys() {
        // Same dst, different protocols: disjoint.
        let a = FlowMatch::dst_prefix(p("10.0.0.0/8"))
            .with_proto(6)
            .to_key();
        let b = FlowMatch::dst_prefix(p("10.0.0.0/8"))
            .with_proto(17)
            .to_key();
        assert!(!a.overlaps(&b));
        // Narrower dst, wildcard proto overlaps both.
        let c = FlowMatch::dst_prefix(p("10.1.0.0/16")).to_key();
        assert!(c.overlaps(&a));
        assert!(c.overlaps(&b));
    }
}
