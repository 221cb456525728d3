//! Ternary match keys.
//!
//! A TCAM matches a packet header against a *ternary* key: every bit of the
//! key is either `0`, `1` or "don't care" (`*`). We represent a key as a
//! `(value, mask)` pair over a 128-bit word: a bit participates in the match
//! iff the corresponding `mask` bit is set, and then must equal the `value`
//! bit. The invariant `value & !mask == 0` is maintained by construction so
//! that two keys matching the same packets always compare equal.
//!
//! This module implements the small algebra that the rest of Hermes builds
//! on: overlap testing, containment, *difference cutting* (expressing
//! `a \ b` as a set of disjoint ternary keys — the core of the paper's
//! `EliminateOverlap` step in Algorithm 1) and pairwise merging (the inverse
//! operation, used by the `merge` module to minimize partition sets).

use std::fmt;

/// A ternary match key over a 128-bit header window.
///
/// `mask` selects the bits that must match; `value` gives the required bit
/// values. Bits outside `mask` are "don't care".
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct TernaryKey {
    value: u128,
    mask: u128,
}

impl TernaryKey {
    /// The fully wildcarded key (`*`): matches every packet.
    pub const ANY: TernaryKey = TernaryKey { value: 0, mask: 0 };

    /// Builds a key from a value/mask pair. Bits of `value` outside `mask`
    /// are cleared so that semantically equal keys are structurally equal.
    pub fn new(value: u128, mask: u128) -> Self {
        TernaryKey {
            value: value & mask,
            mask,
        }
    }

    /// An exact-match key (every bit cared about).
    pub fn exact(value: u128) -> Self {
        TernaryKey {
            value,
            mask: u128::MAX,
        }
    }

    /// The value bits (always a subset of the mask bits).
    pub fn value(&self) -> u128 {
        self.value
    }

    /// The care-bit mask.
    pub fn mask(&self) -> u128 {
        self.mask
    }

    /// Number of specified (cared-about) bits. A key with higher specificity
    /// matches fewer packets.
    pub fn specificity(&self) -> u32 {
        self.mask.count_ones()
    }

    /// Does this key match the given packet header?
    pub fn matches(&self, packet: u128) -> bool {
        packet & self.mask == self.value
    }

    /// Do the two keys match at least one common packet?
    ///
    /// Two ternary keys overlap iff they agree on every bit they both care
    /// about.
    pub fn overlaps(&self, other: &TernaryKey) -> bool {
        (self.value ^ other.value) & self.mask & other.mask == 0
    }

    /// Does `self` match every packet that `other` matches (`other ⊆ self`)?
    ///
    /// True iff `self`'s care bits are a subset of `other`'s and the values
    /// agree on them.
    pub fn contains(&self, other: &TernaryKey) -> bool {
        self.mask & other.mask == self.mask && (self.value ^ other.value) & self.mask == 0
    }

    /// Expresses `self \ other` as a set of *disjoint* ternary keys.
    ///
    /// This is the cutting primitive behind the paper's `EliminateOverlap`:
    /// when a new (lower-priority) rule overlaps a higher-priority rule
    /// already in the main table, the new rule is cut so that the overlap
    /// region is removed and the remainder can safely live in the shadow
    /// table.
    ///
    /// The construction walks the bits that `other` specifies but `self`
    /// does not (call them `b1..bk`, most-significant first). For each `i`,
    /// it emits a key equal to `self`, further constrained to agree with
    /// `other` on `b1..b(i-1)` and to *disagree* on `bi`. The emitted keys
    /// are pairwise disjoint, their union is exactly `self \ other`, and at
    /// most `k` keys are produced — for prefixes this reduces to the classic
    /// minimal prefix-difference cover.
    ///
    /// Returns:
    /// * `[]` if `other` contains `self` (nothing remains),
    /// * `[self]` if the keys are disjoint (nothing is cut),
    /// * the disjoint cover of `self \ other` otherwise.
    pub fn difference(&self, other: &TernaryKey) -> Vec<TernaryKey> {
        if other.contains(self) {
            return Vec::new();
        }
        if !self.overlaps(other) {
            return vec![*self];
        }
        // Bits `other` specifies that `self` leaves wild, MSB first.
        let mut extra = other.mask & !self.mask;
        debug_assert!(extra != 0, "overlapping, not contained => extra bits exist");
        let mut out = Vec::with_capacity(extra.count_ones() as usize);
        let mut acc_value = self.value;
        let mut acc_mask = self.mask;
        while extra != 0 {
            let bit = 1u128 << (127 - extra.leading_zeros());
            extra &= !bit;
            // A key that agrees with `other` on all previously-consumed bits
            // but disagrees on `bit`.
            let piece_value = (acc_value & !bit) | ((other.value ^ bit) & bit);
            out.push(TernaryKey {
                value: piece_value,
                mask: acc_mask | bit,
            });
            // Constrain the accumulator to agree with `other` on `bit` and
            // continue with the next extra bit.
            acc_value = (acc_value & !bit) | (other.value & bit);
            acc_mask |= bit;
        }
        out
    }

    /// Attempts to merge two keys into one that matches exactly their union.
    ///
    /// Succeeds when the keys have identical masks and their values differ
    /// in exactly one bit: that bit can be turned into a don't-care. This is
    /// the Quine–McCluskey adjacency step used by rule-set minimization.
    pub fn try_merge(&self, other: &TernaryKey) -> Option<TernaryKey> {
        if self.mask != other.mask {
            // A key containing the other also "merges" to the larger key.
            if self.contains(other) {
                return Some(*self);
            }
            if other.contains(self) {
                return Some(*other);
            }
            return None;
        }
        let diff = self.value ^ other.value;
        if diff.count_ones() == 1 {
            let mask = self.mask & !diff;
            return Some(TernaryKey {
                value: self.value & mask,
                mask,
            });
        }
        if diff == 0 {
            return Some(*self);
        }
        None
    }

    /// `true` if the mask is a contiguous run of most-significant bits
    /// (i.e. the key is a prefix over the 128-bit window).
    #[cfg(test)]
    pub(crate) fn is_prefix_shaped(&self) -> bool {
        // A prefix mask looks like 1..10..0; adding the lowest clear run's
        // carry must overflow to zero.
        self.mask.leading_ones() == self.mask.count_ones()
    }
}

impl fmt::Debug for TernaryKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TernaryKey({:032x}/{:032x})", self.value, self.mask)
    }
}

impl fmt::Display for TernaryKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}/{:032x}", self.value, self.mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(value: u128, mask: u128) -> TernaryKey {
        TernaryKey::new(value, mask)
    }

    #[test]
    fn any_matches_everything() {
        assert!(TernaryKey::ANY.matches(0));
        assert!(TernaryKey::ANY.matches(u128::MAX));
        assert!(TernaryKey::ANY.matches(0xdead_beef));
    }

    #[test]
    fn new_clears_dont_care_value_bits() {
        let k = key(0b1111, 0b1010);
        assert_eq!(k.value(), 0b1010);
        assert_eq!(k, key(0b1010, 0b1010));
    }

    #[test]
    fn exact_matches_only_itself() {
        let k = TernaryKey::exact(42);
        assert!(k.matches(42));
        assert!(!k.matches(43));
        assert_eq!(k.specificity(), 128);
    }

    #[test]
    fn overlap_requires_agreement_on_common_bits() {
        let a = key(0b10_00, 0b11_00);
        let b = key(0b10_01, 0b11_11);
        assert!(a.overlaps(&b));
        let c = key(0b01_00, 0b11_00);
        assert!(!c.overlaps(&b));
        // ANY overlaps everything.
        assert!(TernaryKey::ANY.overlaps(&b));
    }

    #[test]
    fn containment() {
        let wide = key(0b10_00, 0b11_00);
        let narrow = key(0b10_01, 0b11_11);
        assert!(wide.contains(&narrow));
        assert!(!narrow.contains(&wide));
        assert!(TernaryKey::ANY.contains(&wide));
        assert!(wide.contains(&wide));
    }

    /// `a ∩ b` as one key, when some packet matches both.
    fn intersection(a: &TernaryKey, b: &TernaryKey) -> Option<TernaryKey> {
        a.overlaps(b)
            .then(|| key(a.value | b.value, a.mask | b.mask))
    }

    #[test]
    fn intersection_combines_constraints() {
        let a = key(0b10_00, 0b11_00);
        let b = key(0b00_01, 0b00_11);
        let i = intersection(&a, &b).unwrap();
        assert_eq!(i, key(0b10_01, 0b11_11));
        let c = key(0b01_00, 0b11_00);
        assert!(intersection(&c, &b).is_some());
        assert!(intersection(&c, &a).is_none());
    }

    #[test]
    fn difference_of_disjoint_is_identity() {
        let a = key(0b10_00, 0b11_00);
        let c = key(0b01_00, 0b11_00);
        assert_eq!(a.difference(&c), vec![a]);
    }

    #[test]
    fn difference_when_contained_is_empty() {
        let wide = key(0b10_00, 0b11_00);
        let narrow = key(0b10_01, 0b11_11);
        assert!(narrow.difference(&wide).is_empty());
    }

    #[test]
    fn difference_pieces_are_disjoint_and_cover() {
        // wide = 10** ; narrow = 1011 ; wide \ narrow = {1010, 100*}
        let wide = key(0b10_00, 0b11_00);
        let narrow = key(0b10_11, 0b11_11);
        let pieces = wide.difference(&narrow);
        assert_eq!(pieces.len(), 2);
        // Exhaustively check semantics over the 4-bit space.
        for pkt in 0u128..16 {
            let in_wide = wide.matches(pkt);
            let in_narrow = narrow.matches(pkt);
            let n_matching = pieces.iter().filter(|p| p.matches(pkt)).count();
            if in_wide && !in_narrow {
                assert_eq!(n_matching, 1, "pkt {pkt:04b} must match exactly one piece");
            } else {
                assert_eq!(n_matching, 0, "pkt {pkt:04b} must match no piece");
            }
        }
    }

    #[test]
    fn difference_partial_overlap() {
        // a cares about bits 3..2 = 10; b cares about bits 1..0 = 11.
        // a \ b = packets with bits3..2 = 10 and bits1..0 != 11.
        let a = key(0b10_00, 0b11_00);
        let b = key(0b00_11, 0b00_11);
        let pieces = a.difference(&b);
        for pkt in 0u128..16 {
            let expect = a.matches(pkt) && !b.matches(pkt);
            let got = pieces.iter().filter(|p| p.matches(pkt)).count();
            assert_eq!(got, usize::from(expect), "pkt {pkt:04b}");
        }
    }

    #[test]
    fn merge_adjacent_values() {
        let a = key(0b1010, 0b1111);
        let b = key(0b1011, 0b1111);
        let m = a.try_merge(&b).unwrap();
        assert_eq!(m, key(0b1010, 0b1110));
        for pkt in 0u128..16 {
            assert_eq!(m.matches(pkt), a.matches(pkt) || b.matches(pkt));
        }
    }

    #[test]
    fn merge_rejects_two_bit_difference() {
        let a = key(0b1010, 0b1111);
        let b = key(0b1001, 0b1111);
        assert!(a.try_merge(&b).is_none());
    }

    #[test]
    fn merge_containment() {
        let wide = key(0b10_00, 0b11_00);
        let narrow = key(0b10_01, 0b11_11);
        assert_eq!(wide.try_merge(&narrow), Some(wide));
        assert_eq!(narrow.try_merge(&wide), Some(wide));
    }

    #[test]
    fn prefix_shape_detection() {
        assert!(TernaryKey::ANY.is_prefix_shaped());
        assert!(TernaryKey::exact(7).is_prefix_shaped());
        assert!(key(0, u128::MAX << 100).is_prefix_shaped());
        assert!(!key(0, 0b101).is_prefix_shaped());
    }
}
