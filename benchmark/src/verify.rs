//! Output verification shared by the workloads: named checks, an input
//! digest, and the flat-table lookup oracle.

use hermes_core::prelude::*;
use hermes_rules::prelude::*;
use hermes_tcam::LookupResult;
use hermes_util::json::Json;

/// One named output check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// Evidence (counts compared, first divergence).
    pub detail: String,
}

impl Check {
    /// A check from a condition and its evidence.
    pub fn new(name: &'static str, ok: bool, detail: String) -> Check {
        Check { name, ok, detail }
    }

    /// `{"name":…,"ok":…,"detail":…}`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::Str(self.name.to_string())),
            ("ok", Json::Bool(self.ok)),
            ("detail", Json::Str(self.detail.clone())),
        ])
    }
}

/// FNV-1a over 64-bit words: a stable digest of generated inputs, so
/// "same seed, byte-identical inputs" is checkable without materialising
/// the inputs as text.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    /// Mixes one word.
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mixes a 128-bit word (keys, packets).
    pub fn u128(&mut self, v: u128) {
        self.u64(v as u64);
        self.u64((v >> 64) as u64);
    }

    /// Mixes a rule (id, key, priority, action).
    pub fn rule(&mut self, r: &Rule) {
        self.u64(r.id.0);
        self.u128(r.key.value());
        self.u128(r.key.mask());
        self.u64(u64::from(r.priority.0));
        self.u64(action_word(r.action));
    }

    /// Mixes a control action.
    pub fn action(&mut self, a: &ControlAction) {
        match a {
            ControlAction::Insert(r) => {
                self.u64(1);
                self.rule(r);
            }
            ControlAction::Delete(id) => {
                self.u64(2);
                self.u64(id.0);
            }
            ControlAction::Modify {
                id,
                action,
                priority,
            } => {
                self.u64(3);
                self.u64(id.0);
                self.u64(action.map_or(0, action_word));
                self.u64(priority.map_or(0, |p| u64::from(p.0) + 1));
            }
        }
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

fn action_word(a: Action) -> u64 {
    match a {
        Action::Forward(p) => 4 + u64::from(p),
        Action::Drop => 1,
        Action::Controller => 2,
        Action::GotoNextTable => 3,
    }
}

/// The action every generated rule carries: a pure function of its
/// priority, so two overlapping rules of equal priority agree and the
/// flat oracle is deterministic (same convention as `core/tests/oracle.rs`).
pub fn action_for(priority: u32) -> Action {
    Action::Forward(priority % 47 + 1)
}

/// What the flat table says about a packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flat {
    /// The highest-priority matching rule's action (`None`: a miss).
    Action(Option<Action>),
    /// Two matching rules tie for the top priority with different
    /// actions: undefined in OpenFlow itself, so callers skip the packet.
    Tie,
}

/// Flat-table classification over the rules the benchmark believes
/// installed.
pub fn flat_classify(rules: &[Rule], packet: u128) -> Flat {
    let mut best: Option<&Rule> = None;
    let mut tie = false;
    for r in rules.iter().filter(|r| r.key.matches(packet)) {
        match best {
            Some(b) if r.priority < b.priority => {}
            Some(b) if r.priority == b.priority => tie |= r.action != b.action,
            _ => {
                best = Some(r);
                tie = false;
            }
        }
    }
    if tie {
        Flat::Tie
    } else {
        Flat::Action(best.map(|r| r.action))
    }
}

/// Checks a Hermes switch against the flat oracle over `rules` on a packet
/// sample. Returns the check and the number of packets compared.
pub fn oracle_check(sw: &HermesSwitch, rules: &[Rule], packets: &[u128]) -> Check {
    let (mut compared, mut skipped) = (0usize, 0usize);
    let mut first_bad = None;
    for &p in packets {
        let Flat::Action(want) = flat_classify(rules, p) else {
            skipped += 1;
            continue;
        };
        let got = match sw.peek(p) {
            LookupResult::Matched { rule, .. } => Some(rule.action),
            _ => None,
        };
        compared += 1;
        if got != want && first_bad.is_none() {
            first_bad = Some(format!("packet {p:#034x}: switch {got:?}, oracle {want:?}"));
        }
    }
    Check::new(
        "oracle_lookup_equivalence",
        first_bad.is_none() && compared > 0,
        first_bad.unwrap_or_else(|| format!("{compared} packets agree ({skipped} ties skipped)")),
    )
}

/// The structural checks every Hermes switch must pass once quiescent:
/// the durable intent equals the logical table, both TCAM slices keep
/// their layout invariants, and the logical population is the expected one.
pub fn switch_checks(sw: &HermesSwitch, expected: &[Rule], out: &mut Vec<Check>) -> u64 {
    out.push(Check::new(
        "intent_len_eq_logical_len",
        sw.intent_len() == sw.logical_len(),
        format!("intent {} logical {}", sw.intent_len(), sw.logical_len()),
    ));
    let inv = (0..sw.device().slice_count()).all(|i| sw.device().slice(i).table.check_invariants());
    out.push(Check::new("tcam_check_invariants", inv, String::new()));
    // Population diff: every expected rule installed, nothing else.
    let missing = expected
        .iter()
        .filter(|r| sw.get(r.id) != Some(**r))
        .count();
    let extra = sw.logical_len().saturating_sub(expected.len() - missing);
    out.push(Check::new(
        "logical_population",
        missing == 0 && extra == 0,
        format!(
            "{} expected, {} installed, {missing} missing or altered, {extra} unexpected",
            expected.len(),
            sw.logical_len()
        ),
    ));
    (missing + extra) as u64
}
