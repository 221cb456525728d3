//! Rule-set minimization (the paper's "ACL optimization functions" \[59\]).
//!
//! Two distinct uses inside Hermes:
//!
//! 1. **Partition minimization** (Algorithm 1, step iii): after a new rule
//!    is cut against the main table the resulting pieces share one action
//!    and priority, so adjacent pieces can be re-merged — fewer shadow-table
//!    entries means fewer TCAM writes.
//! 2. **Migration optimization** (§5.2, step 2): before rules are migrated
//!    into the main table the Rule Manager rewrites the combined rule set to
//!    minimize its size — sibling merges, duplicate elimination and removal
//!    of entries fully covered by higher-priority entries.
//!
//! Every transformation here is *semantics preserving*: the optimized set
//! classifies every packet identically to the input set. The property tests
//! in `tests/` check this against a brute-force oracle.

use crate::key::TernaryKey;
use crate::rule::Rule;
use std::collections::BTreeMap;

/// Merges a set of ternary keys (assumed to share action and priority) into
/// a minimal-or-smaller equivalent set by repeated pairwise adjacency
/// merging (Quine–McCluskey style) until fixpoint.
///
/// The keys need not be disjoint; containment collapses too. Complexity is
/// O(n² · rounds) which is fine for partition sets (bounded by the key
/// width, 128).
/// ```
/// use hermes_rules::merge::minimize_keys;
/// use hermes_rules::prelude::*;
///
/// // Four sibling /26 blocks collapse to their common /24.
/// let keys: Vec<TernaryKey> = (0..4u32)
///     .map(|i| Ipv4Prefix::new(0x0a000000 | (i << 6), 26).to_key())
///     .collect();
/// let merged = minimize_keys(keys);
/// assert_eq!(merged, vec![Ipv4Prefix::new(0x0a000000, 24).to_key()]);
/// ```
pub fn minimize_keys(mut keys: Vec<TernaryKey>) -> Vec<TernaryKey> {
    keys.sort_by_key(|k| std::cmp::Reverse(k.specificity()));
    keys.dedup();
    loop {
        let mut merged_any = false;
        let mut out: Vec<TernaryKey> = Vec::with_capacity(keys.len());
        'outer: for key in keys.drain(..) {
            for existing in out.iter_mut() {
                if let Some(m) = existing.try_merge(&key) {
                    *existing = m;
                    merged_any = true;
                    continue 'outer;
                }
            }
            out.push(key);
        }
        keys = out;
        if !merged_any {
            return keys;
        }
    }
}

/// Counts how many TCAM entries a partitioned rule costs after minimization
/// — the expected-partition factor `r_p` of Equation 2.
pub fn minimized_len(keys: &[TernaryKey]) -> usize {
    minimize_keys(keys.to_vec()).len()
}

/// Optimizes a whole rule set before migration (§5.2 step 2).
///
/// Three provably-sound rewrites, applied in order:
///
/// 1. **Shadowed-rule elimination**: a rule fully contained in a strictly
///    higher-priority rule can never match any packet (the higher-priority
///    rule always wins on its entire region) and is dropped — this is the
///    paper's Figure 5(a) situation.
/// 2. **Duplicate elimination**: identical `(key, priority, action)` triples
///    collapse to one entry.
/// 3. **Sibling merging**: rules with equal priority and action whose keys
///    merge (adjacent or nested) become one rule.
///
/// Returns the optimized rules; the relative order of surviving rules is
/// not meaningful (the TCAM orders by priority).
///
/// No caller outside this crate's tests: `HermesSwitch::migrate` gets
/// its size reduction by writing each rule's un-cut original in place of
/// its pieces. It stays because §5.2 step 2 of the paper names this
/// whole-set rewrite; `tests/proptest_algebra.rs` pins its semantics.
pub fn optimize_ruleset(rules: Vec<Rule>) -> Vec<Rule> {
    // Pass 1: shadowed-rule elimination. Sort by descending priority so we
    // only need to look at earlier rules.
    let mut by_prio = rules;
    by_prio.sort_by_key(|r| std::cmp::Reverse(r.priority));
    let mut kept: Vec<Rule> = Vec::with_capacity(by_prio.len());
    for rule in by_prio {
        let shadowed = kept
            .iter()
            .any(|k| k.priority > rule.priority && k.key.contains(&rule.key));
        if !shadowed {
            kept.push(rule);
        }
    }

    // Passes 2+3: group by (priority, action) and minimize each group's keys.
    let mut groups: BTreeMap<(u32, crate::rule::Action), Vec<Rule>> = BTreeMap::new();
    for rule in kept {
        groups
            .entry((rule.priority.0, rule.action))
            .or_default()
            .push(rule);
    }
    let mut out = Vec::new();
    let mut group_keys: Vec<(u32, crate::rule::Action)> = groups.keys().copied().collect();
    group_keys.sort_by_key(|(p, _)| std::cmp::Reverse(*p));
    for gk in group_keys {
        let members = groups.remove(&gk).expect("INVARIANT: key came from groups.keys() above");
        let representative = members[0];
        let keys: Vec<TernaryKey> = members.iter().map(|r| r.key).collect();
        for key in minimize_keys(keys) {
            out.push(representative.with_key(key));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefix::Ipv4Prefix;
    use crate::rule::{Action, Priority};

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn rule(id: u64, pfx: &str, prio: u32, action: Action) -> Rule {
        Rule::new(id, p(pfx).to_key(), Priority(prio), action)
    }

    /// Brute-force classifier: highest-priority matching rule's action.
    fn classify(rules: &[Rule], pkt: u128) -> Option<Action> {
        rules
            .iter()
            .filter(|r| r.key.matches(pkt))
            .max_by_key(|r| r.priority)
            .map(|r| r.action)
    }

    #[test]
    fn sibling_prefixes_merge_to_parent() {
        let keys = vec![p("10.0.0.0/25").to_key(), p("10.0.0.128/25").to_key()];
        let merged = minimize_keys(keys);
        assert_eq!(merged, vec![p("10.0.0.0/24").to_key()]);
    }

    #[test]
    fn cascade_merge() {
        // Four /26 siblings collapse all the way to the /24.
        let keys = vec![
            p("10.0.0.0/26").to_key(),
            p("10.0.0.64/26").to_key(),
            p("10.0.0.128/26").to_key(),
            p("10.0.0.192/26").to_key(),
        ];
        assert_eq!(minimize_keys(keys), vec![p("10.0.0.0/24").to_key()]);
    }

    #[test]
    fn single_bit_apart_prefixes_merge_to_ternary_key() {
        // 10.0.0.0/25 and 10.0.1.0/25 differ in exactly one masked bit, so
        // they merge into one (non-prefix-shaped) ternary key covering their
        // exact union.
        let a = p("10.0.0.0/25").to_key();
        let b = p("10.0.1.0/25").to_key();
        let merged = minimize_keys(vec![a, b]);
        assert_eq!(merged.len(), 1);
        for i in 0..4096u32 {
            let pkt = ((0x0a_00_00_00u32 | (i << 4)) as u128) << crate::fields::DST_SHIFT;
            assert_eq!(merged[0].matches(pkt), a.matches(pkt) || b.matches(pkt));
        }
    }

    #[test]
    fn unmergeable_keys_survive() {
        // Two bits apart: no single adjacency merge applies.
        let keys = vec![p("10.0.0.0/25").to_key(), p("10.0.3.0/25").to_key()];
        assert_eq!(minimize_keys(keys).len(), 2);
    }

    #[test]
    fn contained_key_collapses() {
        let keys = vec![p("10.0.0.0/24").to_key(), p("10.0.0.64/26").to_key()];
        assert_eq!(minimize_keys(keys), vec![p("10.0.0.0/24").to_key()]);
    }

    #[test]
    fn duplicates_dedup() {
        let keys = vec![p("10.0.0.0/24").to_key(); 5];
        assert_eq!(minimize_keys(keys).len(), 1);
    }

    #[test]
    fn optimize_removes_shadowed_rules() {
        let rules = vec![
            rule(1, "10.0.0.0/8", 10, Action::Forward(1)),
            // Fully inside the /8 at lower priority: unreachable.
            rule(2, "10.1.0.0/16", 5, Action::Forward(2)),
            rule(3, "11.0.0.0/8", 5, Action::Forward(3)),
        ];
        let out = optimize_ruleset(rules.clone());
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|r| r.id != crate::rule::RuleId(2)));
    }

    #[test]
    fn optimize_keeps_higher_priority_subset() {
        // Subset at *higher* priority is reachable and must survive.
        let rules = vec![
            rule(1, "10.0.0.0/8", 5, Action::Forward(1)),
            rule(2, "10.1.0.0/16", 10, Action::Forward(2)),
        ];
        let out = optimize_ruleset(rules);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn optimize_merges_same_action_groups() {
        let rules = vec![
            rule(1, "10.0.0.0/25", 5, Action::Forward(1)),
            rule(2, "10.0.0.128/25", 5, Action::Forward(1)),
            rule(3, "10.0.1.0/25", 5, Action::Forward(2)), // different action
        ];
        let out = optimize_ruleset(rules);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn optimize_preserves_semantics_randomized() {
        use hermes_util::rng::{Rng, SeedableRng};
        let mut rng = hermes_util::rng::rngs::StdRng::seed_from_u64(11);
        for round in 0..20 {
            let n = rng.gen_range(5..40);
            let rules: Vec<Rule> = (0..n)
                .map(|i| {
                    let len = rng.gen_range(4..=24);
                    // Cluster addresses so overlaps actually happen.
                    let addr = (rng.gen_range(0..8u32)) << 28 | rng.gen_range(0..1u32 << 20);
                    let prio = rng.gen_range(1..6);
                    // Tie the action to the priority: equal-priority
                    // overlapping rules with different actions are ambiguous
                    // in a real TCAM (first match wins), so the oracle could
                    // not compare them deterministically.
                    let action = Action::Forward(prio % 3);
                    rule(i, &Ipv4Prefix::new(addr, len).to_string(), prio, action)
                })
                .collect();
            let optimized = optimize_ruleset(rules.clone());
            assert!(optimized.len() <= rules.len());
            for _ in 0..200 {
                let pkt = (rng.gen::<u32>() as u128) << crate::fields::DST_SHIFT;
                assert_eq!(
                    classify(&rules, pkt),
                    classify(&optimized, pkt),
                    "round {round}: semantics diverged"
                );
            }
        }
    }
}
