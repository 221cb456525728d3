//! Property-based tests for the classifier algebra — the invariants the
//! whole Hermes correctness story rests on (DESIGN.md §5). Runs under the
//! in-tree `hermes_util::check!` harness with pinned default seeds.

use hermes_rules::merge::{minimize_keys, optimize_ruleset};
use hermes_rules::overlap::OverlapIndex;
use hermes_rules::prelude::*;
use hermes_util::check::{arb, range, vec_of, zip2, zip3, Gen};

/// Generator: an arbitrary ternary key over a narrow (16-bit) window so
/// exhaustive packet checks stay cheap.
fn small_key() -> Gen<TernaryKey> {
    zip2(arb::<u16>(), arb::<u16>())
        .map(|(v, m)| TernaryKey::new((v as u128) << 96, (m as u128) << 96))
}

/// All packets in the 16-bit window.
fn window_packets() -> impl Iterator<Item = u128> {
    (0u32..=0xffff).map(|v| (v as u128) << 96)
}

/// Generator: an arbitrary IPv4 prefix within 10.0.0.0/8 with length 8..=28.
fn prefix() -> Gen<Ipv4Prefix> {
    zip2(arb::<u32>(), range(8u8..=28))
        .map(|(addr, len)| Ipv4Prefix::new(0x0a00_0000 | (addr >> 8), len))
}

hermes_util::check! {
    #![cases = 256]

    /// `overlaps` is symmetric and consistent with a witness packet search.
    fn overlap_symmetry_and_witness(pair in zip2(small_key(), small_key())) {
        let (a, b) = pair;
        assert_eq!(a.overlaps(&b), b.overlaps(&a));
        let witness = window_packets().any(|p| a.matches(p) && b.matches(p));
        assert_eq!(a.overlaps(&b), witness);
    }

    /// Containment a ⊇ b ⇔ every packet of b matches a.
    fn containment_is_semantic(pair in zip2(small_key(), small_key())) {
        let (a, b) = pair;
        let semantic = window_packets().all(|p| !b.matches(p) || a.matches(p));
        assert_eq!(a.contains(&b), semantic);
    }

    /// Intersection matches exactly the packets both keys match.
    fn intersection_semantics(pair in zip2(small_key(), small_key())) {
        let (a, b) = pair;
        match a.intersection(&b) {
            Some(i) => {
                for p in window_packets() {
                    assert_eq!(i.matches(p), a.matches(p) && b.matches(p));
                }
            }
            None => {
                assert!(!a.overlaps(&b));
            }
        }
    }

    /// Difference: pieces are pairwise disjoint and cover exactly `a \ b`.
    fn difference_is_exact_disjoint_cover(pair in zip2(small_key(), small_key())) {
        let (a, b) = pair;
        let pieces = a.difference(&b);
        for p in window_packets() {
            let expect = a.matches(p) && !b.matches(p);
            let n = pieces.iter().filter(|k| k.matches(p)).count();
            assert_eq!(n, usize::from(expect), "packet {:#x}", p);
        }
    }

    /// try_merge result matches exactly the union of its inputs.
    fn merge_is_exact_union(pair in zip2(small_key(), small_key())) {
        let (a, b) = pair;
        if let Some(m) = a.try_merge(&b) {
            for p in window_packets() {
                assert_eq!(m.matches(p), a.matches(p) || b.matches(p));
            }
        }
    }

    /// minimize_keys preserves the matched set and never grows it.
    fn minimize_preserves_union(keys in vec_of(small_key(), 0..12)) {
        let minimized = minimize_keys(keys.clone());
        assert!(minimized.len() <= keys.len().max(1));
        for p in window_packets().step_by(7) {
            let before = keys.iter().any(|k| k.matches(p));
            let after = minimized.iter().any(|k| k.matches(p));
            assert_eq!(before, after, "packet {:#x}", p);
        }
    }

    /// Prefix difference agrees with brute force over the prefix's hosts.
    fn prefix_difference_semantics(pair in zip2(prefix(), prefix())) {
        let (a, b) = pair;
        let pieces = a.difference(&b);
        // Sample addresses inside `a`.
        let span = 32 - a.len();
        for i in 0..256u32 {
            let host = if span >= 8 { i << (span - 8) } else { i & ((1 << span) - 1) };
            let addr = a.addr() | host;
            let expect = a.matches(addr) && !b.matches(addr);
            let got = pieces.iter().filter(|q| q.matches(addr)).count();
            assert_eq!(got, usize::from(expect), "addr {:#x}", addr);
        }
    }

    /// Prefix containment/overlap laws.
    fn prefix_laws(pair in zip2(prefix(), prefix())) {
        let (a, b) = pair;
        assert_eq!(a.overlaps(&b), b.overlaps(&a));
        if a.contains(&b) && b.contains(&a) {
            assert_eq!(a, b);
        }
        // Parent always contains child.
        if let Some(parent) = a.parent() {
            assert!(parent.contains(&a));
        }
        if let Some((l, r)) = a.children() {
            assert!(a.contains(&l) && a.contains(&r));
            assert!(!l.overlaps(&r));
        }
    }

    /// The overlap index returns exactly what a naive scan returns, after
    /// random inserts (re-inserts of an id included) and removals; `iter`
    /// walks it in ascending id order and `get` agrees with every rule.
    fn overlap_index_matches_naive(
        prefixes in vec_of(zip3(range(0u64..40), prefix(), range(1u32..100)), 1..40),
        removes in vec_of(range(0u64..40), 0..20),
        query in prefix(),
    ) {
        let mut idx = OverlapIndex::new();
        let mut all: Vec<Rule> = Vec::new();
        for (id, p, prio) in &prefixes {
            let r = Rule::new(*id, p.to_key(), Priority(*prio), Action::Drop);
            idx.insert(r);
            all.retain(|q| q.id != r.id);
            all.push(r);
        }
        for id in removes {
            let want = all.iter().position(|r| r.id.0 == id).map(|i| all.remove(i));
            assert_eq!(idx.remove(RuleId(id)), want);
        }
        all.sort_unstable_by_key(|r| r.id);
        assert_eq!(idx.iter().collect::<Vec<_>>(), all, "iter walks ascending ids");
        assert_eq!(idx.len(), all.len());
        for id in (0..40).map(RuleId) {
            assert_eq!(idx.get(id), all.iter().find(|r| r.id == id).copied());
        }
        let qkey = query.to_key();
        let mut got: Vec<u64> = idx.overlapping(&qkey).iter().map(|r| r.id.0).collect();
        let mut want: Vec<u64> = all
            .iter()
            .filter(|r| r.key.overlaps(&qkey))
            .map(|r| r.id.0)
            .collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    /// optimize_ruleset preserves classification (actions tied to priority
    /// so same-priority overlap is unambiguous).
    fn optimize_ruleset_preserves_semantics(
        prefixes in vec_of(zip2(prefix(), range(1u32..6)), 1..25),
    ) {
        let rules: Vec<Rule> = prefixes
            .iter()
            .enumerate()
            .map(|(i, (p, prio))| {
                Rule::new(i as u64, p.to_key(), Priority(*prio), Action::Forward(prio % 3))
            })
            .collect();
        let optimized = optimize_ruleset(rules.clone());
        assert!(optimized.len() <= rules.len());
        let classify = |set: &[Rule], pkt: u128| {
            set.iter()
                .filter(|r| r.key.matches(pkt))
                .max_by_key(|r| r.priority)
                .map(|r| r.action)
        };
        for i in 0..512u32 {
            let pkt = ((0x0a00_0000u32 | (i.wrapping_mul(2654435761) % (1 << 24))) as u128) << 96;
            assert_eq!(classify(&rules, pkt), classify(&optimized, pkt));
        }
    }

    /// Trie removal really removes (and only removes one occurrence).
    fn trie_insert_remove_roundtrip(items in vec_of(zip2(prefix(), range(0u32..50)), 1..30)) {
        let mut trie = PrefixTrie::new();
        for (p, v) in &items {
            trie.insert(*p, *v);
        }
        assert_eq!(trie.len(), items.len());
        for (p, v) in &items {
            assert!(trie.remove(*p, v));
        }
        assert!(trie.is_empty());
    }
}
