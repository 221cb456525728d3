//! Inline suppression directives.
//!
//! Syntax, inside any comment:
//!
//! ```text
//! // hermes-lint: allow(R2, reason = "index bounded by the loop guard above")
//! // hermes-lint: allow(R2, R5, reason = "...")       (several rules, one reason)
//! // hermes-lint: allow-file(R2, reason = "...")      (whole file)
//! ```
//!
//! `allow` on line *N* waives matching findings on lines *N* and *N+1*;
//! `allow-file` waives them for the whole file. A directive that does not
//! parse, names an unknown rule, or lacks a non-empty reason produces an
//! S1 finding instead of a waiver.

use crate::{Diagnostic, Rule};

/// A parsed suppression directive.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Directive {
    /// Rules waived by this directive.
    pub rules: Vec<Rule>,
    /// The mandatory reason.
    pub reason: String,
    /// `true` for `allow-file`.
    pub file_scope: bool,
    /// Line the directive appears on.
    pub line: usize,
}

impl Directive {
    /// Does this directive waive `rule` for a finding on `finding_line`?
    pub fn covers(&self, rule: Rule, finding_line: usize) -> bool {
        self.rules.contains(&rule)
            && (self.file_scope || finding_line == self.line || finding_line == self.line + 1)
    }
}

const MARKER: &str = "hermes-lint:";

/// Scans one comment's text for directives. Returns the parsed directives
/// and any S1 diagnostics for malformed ones. `file`/`line` locate the
/// comment. Doc comments (`///`, `//!`, `/**`, `/*!`) are skipped — they
/// describe the syntax, they don't invoke it.
pub fn parse_comment(text: &str, file: &str, line: usize) -> (Vec<Directive>, Vec<Diagnostic>) {
    let mut directives = Vec::new();
    let mut diags = Vec::new();
    if text.starts_with("///")
        || text.starts_with("//!")
        || text.starts_with("/**")
        || text.starts_with("/*!")
    {
        return (directives, diags);
    }
    let mut rest = text;
    while let Some(at) = rest.find(MARKER) {
        rest = &rest[at + MARKER.len()..];
        match parse_one(rest, line) {
            Ok((d, tail)) => {
                directives.push(d);
                rest = tail;
            }
            Err(msg) => {
                diags.push(Diagnostic {
                    file: file.to_string(),
                    line,
                    col: 1,
                    rule: Rule::Suppression,
                    message: msg,
                });
                break;
            }
        }
    }
    (directives, diags)
}

/// Parses one directive after the `hermes-lint:` marker. On success
/// returns the directive and the unconsumed tail.
fn parse_one(s: &str, line: usize) -> Result<(Directive, &str), String> {
    let s = s.trim_start();
    let (file_scope, s) = if let Some(t) = s.strip_prefix("allow-file") {
        (true, t)
    } else if let Some(t) = s.strip_prefix("allow") {
        (false, t)
    } else {
        return Err(format!(
            "malformed suppression: expected `allow(...)` or `allow-file(...)` \
             after `{MARKER}`"
        ));
    };
    let s = s.trim_start();
    let Some(s) = s.strip_prefix('(') else {
        return Err("malformed suppression: expected `(` after `allow`".to_string());
    };
    let Some(close) = find_closing_paren(s) else {
        return Err("malformed suppression: missing closing `)`".to_string());
    };
    let (body, tail) = (&s[..close], &s[close + 1..]);

    // Split off `reason = "..."` — everything before it is the rule list.
    let Some(rpos) = body.find("reason") else {
        return Err(
            "suppression without a reason: add `reason = \"why the invariant holds\"`".to_string(),
        );
    };
    let rules_part = body[..rpos].trim_end().trim_end_matches(',');
    let after = body[rpos + "reason".len()..].trim_start();
    let Some(after) = after.strip_prefix('=') else {
        return Err("malformed suppression: expected `=` after `reason`".to_string());
    };
    let after = after.trim_start();
    let Some(after) = after.strip_prefix('"') else {
        return Err("malformed suppression: reason must be a quoted string".to_string());
    };
    let Some(endq) = after.find('"') else {
        return Err("malformed suppression: unterminated reason string".to_string());
    };
    let reason = after[..endq].trim().to_string();
    if reason.is_empty() {
        return Err(
            "suppression with an empty reason: say why the invariant holds anyway".to_string(),
        );
    }

    let mut rules = Vec::new();
    for part in rules_part.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        match Rule::parse(part) {
            Some(r) => rules.push(r),
            None => return Err(format!("suppression names unknown rule `{part}`")),
        }
    }
    if rules.is_empty() {
        return Err("suppression names no rule: `allow(<rule>, reason = ...)`".to_string());
    }
    Ok((
        Directive {
            rules,
            reason,
            file_scope,
            line,
        },
        tail,
    ))
}

/// Finds the `)` closing the directive, skipping over the quoted reason
/// (which may itself contain parentheses).
fn find_closing_paren(s: &str) -> Option<usize> {
    let mut in_str = false;
    for (i, c) in s.char_indices() {
        match c {
            '"' => in_str = !in_str,
            ')' if !in_str => return Some(i),
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> (Vec<Directive>, Vec<Diagnostic>) {
        parse_comment(text, "f.rs", 10)
    }

    #[test]
    fn parses_single_rule() {
        let (ds, es) =
            parse("// hermes-lint: allow(R5, reason = \"names resolve to registry entries\")");
        assert!(es.is_empty());
        assert_eq!(
            ds,
            vec![Directive {
                rules: vec![Rule::TelemetryRegistry],
                reason: "names resolve to registry entries".into(),
                file_scope: false,
                line: 10,
            }]
        );
    }

    #[test]
    fn parses_rule_by_name_and_multiple() {
        let (ds, es) = parse("// hermes-lint: allow(panic-policy, R5, reason = \"x\")");
        assert!(es.is_empty());
        assert_eq!(
            ds[0].rules,
            vec![Rule::PanicPolicy, Rule::TelemetryRegistry]
        );
    }

    #[test]
    fn parses_file_scope() {
        let (ds, es) = parse("// hermes-lint: allow-file(R2, reason = \"test helper\")");
        assert!(es.is_empty());
        assert!(ds[0].file_scope);
        assert!(ds[0].covers(Rule::PanicPolicy, 9999));
    }

    #[test]
    fn reason_is_mandatory() {
        let (ds, es) = parse("// hermes-lint: allow(R2)");
        assert!(ds.is_empty());
        assert_eq!(es.len(), 1);
        assert_eq!(es[0].rule, Rule::Suppression);
        assert!(
            es[0].message.contains("without a reason"),
            "{}",
            es[0].message
        );
    }

    #[test]
    fn empty_reason_rejected() {
        let (ds, es) = parse("// hermes-lint: allow(R2, reason = \"  \")");
        assert!(ds.is_empty());
        assert_eq!(es.len(), 1);
    }

    #[test]
    fn unknown_rule_rejected() {
        // R1, R3, R4, R6, R7, R8, R9 and R10 are retired: a stale waiver naming
        // one, by id or by its old name, is an S1 finding, not a silent no-op.
        for rule in [
            "R99",
            "R1",
            "R3",
            "R4",
            "R6",
            "R7",
            "R8",
            "R9",
            "R10",
            "determinism",
            "unsafe-forbid",
            "hermeticity",
            "exp-contract",
            "rng-stream-isolation",
            "intent-pairing",
            "swallowed-device-errors",
        ] {
            let (ds, es) = parse(&format!("// hermes-lint: allow({rule}, reason = \"x\")"));
            assert!(ds.is_empty(), "{rule}");
            assert_eq!(es.len(), 1, "{rule}");
            assert_eq!(es[0].rule, Rule::Suppression);
            assert!(
                es[0].message.contains("unknown rule"),
                "{rule}: {}",
                es[0].message
            );
        }
    }

    #[test]
    fn reason_may_contain_parens() {
        let (ds, es) = parse("// hermes-lint: allow(R2, reason = \"sorted (see above)\")");
        assert!(es.is_empty());
        assert_eq!(ds[0].reason, "sorted (see above)");
    }

    #[test]
    fn line_scope_covers_same_and_next_line() {
        let d = Directive {
            rules: vec![Rule::TelemetryRegistry],
            reason: "r".into(),
            file_scope: false,
            line: 10,
        };
        assert!(d.covers(Rule::TelemetryRegistry, 10));
        assert!(d.covers(Rule::TelemetryRegistry, 11));
        assert!(!d.covers(Rule::TelemetryRegistry, 12));
        assert!(!d.covers(Rule::TelemetryRegistry, 9));
        assert!(!d.covers(Rule::PanicPolicy, 10));
    }

    #[test]
    fn round_trips_through_render() {
        // A directive rendered in canonical syntax re-parses to itself.
        let d = Directive {
            rules: vec![Rule::PanicPolicy],
            reason: "index bounded by construction".into(),
            file_scope: false,
            line: 3,
        };
        let rendered = format!(
            "// hermes-lint: allow({}, reason = \"{}\")",
            d.rules[0].id(),
            d.reason
        );
        let (ds, es) = parse_comment(&rendered, "f.rs", 3);
        assert!(es.is_empty());
        assert_eq!(ds, vec![d]);
    }
}
