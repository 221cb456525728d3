//! Algorithm 1: `PartitionNewRule` (§4.1).
//!
//! Hermes looks up the shadow table *before* the main table, so a new
//! (lower-priority) rule placed in the shadow would wrongly win over any
//! higher-priority main-table rule it overlaps (Fig. 4(b)). Algorithm 1
//! repairs this by *cutting* the new rule against every higher-priority
//! overlapping main-table rule, inserting only the remainder:
//!
//! 1. detect overlaps between the new rule and main-table rules with higher
//!    priority (the `O` set);
//! 2. eliminate overlaps by iteratively cutting the new rule's key into a
//!    partition set `P` disjoint from every rule in `O`;
//! 3. merge `P` into a minimal set `N` of TCAM entries;
//! 4. record the mapping `M : original rule → partitions` so deletions can
//!    un-partition (Fig. 6).
//!
//! Overlaps with *shadow*-table rules need no treatment: within one TCAM
//! table the hardware resolves priorities natively.

use hermes_rules::merge::minimize_keys;
use hermes_rules::overlap::OverlapIndex;
use hermes_rules::prelude::*;

/// The result of partitioning one new rule against the main table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionOutcome {
    /// The minimized partition keys to install in the shadow table. Empty
    /// when the rule is wholly subsumed by higher-priority main rules
    /// (Fig. 5(a): the rule is redundant and installs nothing).
    pub pieces: Vec<TernaryKey>,
    /// Ids of the main-table rules the new rule was cut against. If any of
    /// these is later deleted, the rule must be re-partitioned (Fig. 6).
    pub cut_against: Vec<RuleId>,
}

impl PartitionOutcome {
    /// `true` when the rule installs nothing (fully subsumed).
    pub fn is_redundant(&self) -> bool {
        self.pieces.is_empty()
    }

    /// `true` when the rule was not cut at all.
    pub fn is_intact(&self, original: &TernaryKey) -> bool {
        self.pieces.len() == 1 && self.pieces[0] == *original
    }
}

/// Runs Algorithm 1: cuts `rule` against every higher-priority overlapping
/// rule in `main`, returning the minimized partition set and the mapping
/// information.
///
/// ```
/// use hermes_core::partition::partition_new_rule;
/// use hermes_rules::overlap::OverlapIndex;
/// use hermes_rules::prelude::*;
///
/// // Fig. 4 of the paper: the main table holds a higher-priority /26…
/// let mut main = OverlapIndex::new();
/// let hi: Ipv4Prefix = "192.168.1.0/26".parse().unwrap();
/// main.insert(Rule::new(1, hi.to_key(), Priority(10), Action::Forward(1)));
///
/// // …so the incoming lower-priority /24 is cut into two pieces
/// // (192.168.1.64/26 and 192.168.1.128/25).
/// let lo: Ipv4Prefix = "192.168.1.0/24".parse().unwrap();
/// let new = Rule::new(2, lo.to_key(), Priority(1), Action::Forward(2));
/// let outcome = partition_new_rule(&new, &main);
/// assert_eq!(outcome.pieces.len(), 2);
/// assert_eq!(outcome.cut_against, vec![RuleId(1)]);
/// ```
pub fn partition_new_rule(rule: &Rule, main: &OverlapIndex) -> PartitionOutcome {
    // INVARIANT: the only error is `OverBudget`, and a working set can
    // never exceed a `usize::MAX` limit.
    partition_new_rule_bounded(rule, main, usize::MAX).expect("unbounded partition")
}

/// Returned by [`partition_new_rule_bounded`] when the intermediate
/// partition set exceeds the working budget: the rule belongs in the main
/// table, not the shadow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OverBudget;

/// [`partition_new_rule`] with a working-set budget: if the intermediate
/// partition set exceeds `limit` keys the computation aborts with
/// [`OverBudget`].
///
/// This is the efficient form of the §4.2 footnote — a rule that would
/// fragment into very many partitions (a wide, low-priority rule
/// overlapping much of the main table) is routed straight to the main
/// table; detecting that early keeps the insertion algorithm's runtime
/// flat (Fig. 15(b)) instead of quadratic under adversarial overlap.
pub fn partition_new_rule_bounded(
    rule: &Rule,
    main: &OverlapIndex,
    limit: usize,
) -> Result<PartitionOutcome, OverBudget> {
    // Step 1 (lines 2-4): the overlap set O.
    let overlaps = main.overlapping_above(&rule.key, rule.priority);
    if overlaps.is_empty() {
        if hermes_telemetry::enabled() {
            hermes_telemetry::counter("partition.calls", 1);
            hermes_telemetry::observe("partition.pieces", 1);
        }
        return Ok(PartitionOutcome {
            pieces: vec![rule.key],
            cut_against: Vec::new(),
        });
    }

    // Step 2 (lines 5-6): iteratively eliminate each overlap from the
    // current partition set. Cutting against more-specific rules first
    // keeps intermediate sets smaller.
    let mut ordered: Vec<&Rule> = overlaps.iter().collect();
    ordered.sort_by_key(|r| std::cmp::Reverse(r.key.specificity()));
    let mut pieces = vec![rule.key];
    for o in ordered {
        if pieces.is_empty() {
            break;
        }
        let mut next = Vec::with_capacity(pieces.len());
        for piece in &pieces {
            next.extend(piece.difference(&o.key));
        }
        if next.len() > limit.saturating_mul(4) {
            // Far over budget: no merge will save this rule.
            return Err(OverBudget);
        }
        if next.len() > limit {
            // Modestly over: the merge step often collapses sibling cuts.
            next = minimize_keys(next);
            if next.len() > limit {
                return Err(OverBudget);
            }
        }
        pieces = next;
    }

    // Step 3 (line 7): merge into a minimal entry set.
    let pieces = minimize_keys(pieces);

    // Step 4 (line 8): the mapping set M is materialized by the caller from
    // `cut_against`.
    if hermes_telemetry::enabled() {
        hermes_telemetry::counter("partition.calls", 1);
        hermes_telemetry::counter("partition.cuts", overlaps.len() as u64);
        hermes_telemetry::observe("partition.pieces", pieces.len() as u64);
    }
    Ok(PartitionOutcome {
        pieces,
        cut_against: overlaps.iter().map(|r| r.id).collect(),
    })
}

/// Debug/test helper: verifies that a partition outcome is semantically
/// correct with respect to the main table, i.e. for every packet:
/// * a piece matches ⟺ the original rule matches **and** no
///   higher-priority main rule matches;
/// * pieces never overlap a higher-priority main rule.
///
/// Checked by sampling `samples` packets inside the original rule's region.
pub fn verify_partition(
    rule: &Rule,
    outcome: &PartitionOutcome,
    main: &OverlapIndex,
    samples: &[u128],
) -> bool {
    for &pkt in samples {
        let in_original = rule.key.matches(pkt);
        let in_piece = outcome.pieces.iter().any(|p| p.matches(pkt));
        let masked = main
            .overlapping_above(&rule.key, rule.priority)
            .iter()
            .any(|o| o.key.matches(pkt));
        let expect = in_original && !masked;
        if in_piece != expect {
            return false;
        }
    }
    true
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests pin streams by literal seed"
)]
mod tests {
    use super::*;
    use hermes_rules::fields::DST_SHIFT;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn rule(id: u64, pfx: &str, prio: u32) -> Rule {
        Rule::new(
            id,
            p(pfx).to_key(),
            Priority(prio),
            Action::Forward(id as u32),
        )
    }

    fn pkt(addr: u32) -> u128 {
        (addr as u128) << DST_SHIFT
    }

    #[test]
    fn no_overlap_is_identity() {
        let mut main = OverlapIndex::new();
        main.insert(rule(1, "11.0.0.0/8", 10));
        let new = rule(2, "10.0.0.0/8", 1);
        let out = partition_new_rule(&new, &main);
        assert!(out.is_intact(&new.key));
        assert!(out.cut_against.is_empty());
    }

    #[test]
    fn lower_priority_main_rules_ignored() {
        let mut main = OverlapIndex::new();
        main.insert(rule(1, "10.0.0.0/8", 1));
        let new = rule(2, "10.1.0.0/16", 10);
        let out = partition_new_rule(&new, &main);
        assert!(out.is_intact(&new.key));
    }

    #[test]
    fn figure5a_subsumed_rule_is_redundant() {
        // Main holds a larger, higher-priority rule wholly subsuming the
        // new rule: nothing to install.
        let mut main = OverlapIndex::new();
        main.insert(rule(1, "10.0.0.0/8", 10));
        let new = rule(2, "10.1.0.0/16", 1);
        let out = partition_new_rule(&new, &main);
        assert!(out.is_redundant());
        assert_eq!(out.cut_against, vec![RuleId(1)]);
    }

    #[test]
    fn figure5b_paper_example() {
        // Fig. 4: main holds 192.168.1.0/26 (higher priority); the new
        // 192.168.1.0/24 must be cut into {.64/26, .128/25}.
        let mut main = OverlapIndex::new();
        main.insert(rule(1, "192.168.1.0/26", 10));
        let new = rule(2, "192.168.1.0/24", 1);
        let out = partition_new_rule(&new, &main);
        let mut got = out.pieces.clone();
        got.sort_by_key(|k| k.value());
        let mut want = vec![
            p("192.168.1.64/26").to_key(),
            p("192.168.1.128/25").to_key(),
        ];
        want.sort_by_key(|k| k.value());
        assert_eq!(got, want);
        assert_eq!(out.cut_against, vec![RuleId(1)]);
    }

    #[test]
    fn figure5c_multiple_overlaps() {
        let mut main = OverlapIndex::new();
        main.insert(rule(1, "10.0.0.0/10", 10));
        main.insert(rule(2, "10.128.0.0/10", 20));
        let new = rule(3, "10.0.0.0/8", 1);
        let out = partition_new_rule(&new, &main);
        assert!(!out.is_redundant());
        assert_eq!(out.cut_against.len(), 2);
        // Sampled semantic check.
        let samples: Vec<u128> = (0..1024u32)
            .map(|i| pkt(0x0a000000 | i.wrapping_mul(4_194_301)))
            .collect();
        assert!(verify_partition(&new, &out, &main, &samples));
    }

    #[test]
    fn merge_step_minimizes() {
        // Cutting 10.0.0.0/8 against a tiny high-priority /32 produces 24
        // prefix pieces before merging; merging cannot reduce a minimal
        // prefix difference, but cutting against two adjacent /26s must
        // re-merge into the same set as cutting against their /25 parent.
        let mut main_pair = OverlapIndex::new();
        main_pair.insert(rule(1, "10.0.0.0/26", 10));
        main_pair.insert(rule(2, "10.0.0.64/26", 10));
        let new = rule(3, "10.0.0.0/24", 1);
        let out_pair = partition_new_rule(&new, &main_pair);

        let mut main_parent = OverlapIndex::new();
        main_parent.insert(rule(1, "10.0.0.0/25", 10));
        let out_parent = partition_new_rule(&new, &main_parent);

        let mut a = out_pair.pieces.clone();
        let mut b = out_parent.pieces.clone();
        a.sort_by_key(|k| (k.value(), k.mask()));
        b.sort_by_key(|k| (k.value(), k.mask()));
        assert_eq!(a, b, "merge step should collapse sibling cuts");
    }

    #[test]
    fn multi_field_cut() {
        // Higher-priority TCP-only rule; new rule matches all protocols for
        // the same destination. The partition must exclude exactly TCP.
        let mut main = OverlapIndex::new();
        let tcp = Rule::new(
            1,
            FlowMatch::dst_prefix(p("10.0.0.0/8"))
                .with_proto(6)
                .to_key(),
            Priority(10),
            Action::Drop,
        );
        main.insert(tcp);
        let new = rule(2, "10.0.0.0/8", 1);
        let out = partition_new_rule(&new, &main);
        assert!(!out.is_redundant());
        // TCP packet must not match any piece; UDP must.
        let tcp_pkt = PacketHeader {
            dst: 0x0a010101,
            src: 0,
            proto: 6,
            dst_port: 0,
            src_port: 0,
            vlan: 0,
        }
        .to_word();
        let udp_pkt = PacketHeader {
            dst: 0x0a010101,
            src: 0,
            proto: 17,
            dst_port: 0,
            src_port: 0,
            vlan: 0,
        }
        .to_word();
        assert!(!out.pieces.iter().any(|k| k.matches(tcp_pkt)));
        assert!(out.pieces.iter().any(|k| k.matches(udp_pkt)));
    }

    #[test]
    fn randomized_partitions_verified_against_oracle() {
        use hermes_util::rng::{Rng, SeedableRng};
        let mut rng = hermes_util::rng::rngs::StdRng::seed_from_u64(23);
        for _ in 0..30 {
            let mut main = OverlapIndex::new();
            for i in 0..rng.gen_range(1..30u64) {
                let len = rng.gen_range(6..=24);
                let addr = (rng.gen_range(0..4u32)) << 28 | rng.gen_range(0..1u32 << 24);
                main.insert(rule(
                    i,
                    &Ipv4Prefix::new(addr, len).to_string(),
                    rng.gen_range(5..20),
                ));
            }
            let new_len = rng.gen_range(4..=16);
            let new_addr = (rng.gen_range(0..4u32)) << 28;
            let new = rule(
                1000,
                &Ipv4Prefix::new(new_addr, new_len).to_string(),
                rng.gen_range(1..5),
            );
            let out = partition_new_rule(&new, &main);
            let samples: Vec<u128> = (0..2000)
                .map(|_| pkt(new_addr | rng.gen_range(0..1u32 << (32 - new_len))))
                .collect();
            assert!(verify_partition(&new, &out, &main, &samples));
        }
    }
}
