//! A lightweight Rust *item* parser on top of the [`crate::lexer`] token
//! stream.
//!
//! This is not a grammar-complete front end — it recovers exactly the
//! syntactic shapes R8's call graph (DESIGN.md §9) needs:
//!
//! - `impl Type { … }` blocks (so methods know their `Self` type),
//! - `fn` items with visibility, parameters and return type skipped, and
//!   the matched body range,
//! - call expressions inside bodies, with the receiver chain (`self.device
//!   .apply(…)` → receiver `["self", "device"]`, `IntentOp::Install(…)` →
//!   `["IntentOp"]`) and the argument token texts,
//!
//! plus the lines of `INVARIANT:` comments, for the justification window
//! R2 and R8 share.
//!
//! Like the lexer it never fails: unparseable stretches are skipped and
//! the rest of the file is still analyzed.

use crate::lexer::{TokKind, Token};

/// One call expression inside a function body.
#[derive(Clone, Debug)]
pub struct Call {
    /// The called name (`apply`, `record`, `format`, …).
    pub name: String,
    /// Receiver chain, outermost first: `self.intent.record(…)` yields
    /// `["self", "intent"]`; `telemetry::counter(…)` yields
    /// `["telemetry"]`; a bare call yields `[]`.
    pub recv: Vec<String>,
    /// Flattened argument token texts, nested groups included.
    pub args: Vec<String>,
}

/// One parsed `fn` item.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// Bare function name.
    pub name: String,
    /// `Self` type when the fn sits inside an `impl Type` block.
    pub impl_type: Option<String>,
    /// `true` for `pub` fns (any `pub(...)` restriction counts).
    pub is_pub: bool,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// 1-based column of the `fn` keyword.
    pub col: usize,
    /// Calls inside the body, in source order.
    pub calls: Vec<Call>,
}

/// Everything R8 and the justification window need from one file.
#[derive(Clone, Debug, Default)]
pub struct ParsedFile {
    /// All `fn` items, in source order (nested fns appear separately).
    pub fns: Vec<FnItem>,
    /// Lines carrying a comment that contains `INVARIANT:`.
    pub invariant_lines: Vec<usize>,
}

impl ParsedFile {
    /// The lint's one justification window (R2, R8): an `INVARIANT:`
    /// comment on `line` or within the three lines above it.
    pub fn justified(&self, line: usize) -> bool {
        let lo = line.saturating_sub(3);
        self.invariant_lines.iter().any(|&l| l >= lo && l <= line)
    }
}

/// Keywords that look like calls when followed by `(`.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "as", "move", "fn",
];

/// Parses an already-lexed token stream.
pub fn parse_tokens(tokens: &[Token]) -> ParsedFile {
    let invariant_lines = tokens
        .iter()
        .filter(|t| t.is_comment() && t.text.contains("INVARIANT:"))
        .map(|t| t.line)
        .collect();
    let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();

    let impls = find_impl_blocks(&code);
    // Bodies are not skipped: nested fns are parsed too.
    let fns = (0..code.len())
        .filter(|&i| {
            code[i].is_ident("fn") && code.get(i + 1).is_some_and(|n| n.kind == TokKind::Ident)
        })
        .filter_map(|i| parse_fn(&code, i, &impls))
        .collect();

    ParsedFile {
        fns,
        invariant_lines,
    }
}

/// `(type_name, body_start_idx, body_end_idx)` for each `impl` block.
fn find_impl_blocks(code: &[&Token]) -> Vec<(String, usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if !code[i].is_ident("impl") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        // Skip the generic parameter list `impl<T: Ord> …`.
        if code.get(j).is_some_and(|t| t.is_punct('<')) {
            j = skip_angles(code, j);
        }
        // Read the type path; `impl Trait for Type` keeps the part after
        // `for`. Stop at the body brace or a `where` clause.
        let mut ty: Option<String> = None;
        while j < code.len() {
            let t = code[j];
            if t.is_punct('{') || t.is_ident("where") {
                break;
            }
            if t.is_ident("for") {
                ty = None;
            } else if t.kind == TokKind::Ident {
                ty = Some(t.text.clone());
                // Skip this segment's generic args so `Type<K, V>` does
                // not leak `K`/`V` as the type name.
                if code.get(j + 1).is_some_and(|n| n.is_punct('<')) {
                    j = skip_angles(code, j + 1);
                    continue;
                }
            }
            j += 1;
        }
        while j < code.len() && !code[j].is_punct('{') {
            j += 1;
        }
        if j < code.len() {
            let end = match_brace(code, j);
            if let Some(name) = ty {
                out.push((name, j, end));
            }
            // Descend into the block normally (methods are parsed by the
            // main fn scan); just move past the `impl` keyword.
        }
        i += 1;
    }
    out
}

/// Skips a balanced `<…>` group starting at `open` (which must be `<`);
/// returns the index just past the matching `>`.
fn skip_angles(code: &[&Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < code.len() {
        if code[j].is_punct('<') {
            depth += 1;
        } else if code[j].is_punct('>') {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return j + 1;
            }
        } else if code[j].is_punct('{') || code[j].is_punct(';') {
            // Malformed or not actually generics — bail out.
            return j;
        }
        j += 1;
    }
    j
}

/// Index of the `}` matching the `{` at `open` (or the last token).
fn match_brace(code: &[&Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < code.len() {
        if code[j].is_punct('{') {
            depth += 1;
        } else if code[j].is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    code.len().saturating_sub(1)
}

fn parse_fn(
    code: &[&Token],
    i: usize,
    impls: &[(String, usize, usize)],
) -> Option<FnItem> {
    let name_tok = code.get(i + 1)?;
    let name = name_tok.text.clone();
    let impl_type = impls
        .iter()
        .filter(|(_, s, e)| i > *s && i < *e)
        .max_by_key(|(_, s, _)| *s)
        .map(|(t, _, _)| t.clone());

    // Visibility: look back a few tokens for `pub`, stopping at item
    // boundaries. Covers `pub`, `pub(crate)`, `pub const unsafe fn …`.
    let mut is_pub = false;
    let mut back = i;
    for _ in 0..6 {
        if back == 0 {
            break;
        }
        back -= 1;
        let t = code[back];
        if t.is_ident("pub") {
            is_pub = true;
            break;
        }
        let qualifier = t.is_ident("const")
            || t.is_ident("unsafe")
            || t.is_ident("extern")
            || t.is_ident("async")
            || t.kind == TokKind::Str
            || t.is_punct('(')
            || t.is_punct(')')
            || t.is_ident("crate")
            || t.is_ident("super")
            || t.is_ident("in");
        if !qualifier {
            break;
        }
    }

    // Generics, then the parameter list.
    let mut j = i + 2;
    if code.get(j).is_some_and(|t| t.is_punct('<')) {
        j = skip_angles(code, j);
    }
    if !code.get(j).is_some_and(|t| t.is_punct('(')) {
        return None;
    }
    j = match_paren(code, j) + 1;

    // Skip the return type and any `where` clause to the body `{` or a
    // bodyless `;`, stepping over the `;` of an array type `[T; N]`.
    let mut depth = 0usize;
    while let Some(t) = code.get(j) {
        if depth == 0 && (t.is_punct('{') || t.is_punct(';')) {
            break;
        }
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth = depth.saturating_sub(1);
        }
        j += 1;
    }

    let calls = if code.get(j).is_some_and(|t| t.is_punct('{')) {
        scan_calls(code, j + 1, match_brace(code, j))
    } else {
        Vec::new()
    };

    Some(FnItem {
        name,
        impl_type,
        is_pub,
        line: name_tok.line,
        col: name_tok.col,
        calls,
    })
}

/// Index of the `)` matching the `(` at `open`.
fn match_paren(code: &[&Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < code.len() {
        if code[j].is_punct('(') {
            depth += 1;
        } else if code[j].is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    code.len().saturating_sub(1)
}

/// Collects call expressions in `code[start..end]`.
fn scan_calls(code: &[&Token], start: usize, end: usize) -> Vec<Call> {
    let mut out = Vec::new();
    for i in start..end.min(code.len()) {
        let t = code[i];
        if t.kind != TokKind::Ident || NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
            continue;
        }
        // Macro invocations (`format!(…)`) count as calls too.
        let open = match code.get(i + 1) {
            Some(n) if n.is_punct('(') => i + 1,
            Some(n) if n.is_punct('!') => match code.get(i + 2) {
                Some(o) if o.is_punct('(') || o.is_punct('[') || o.is_punct('{') => i + 2,
                _ => continue,
            },
            _ => continue,
        };
        let close = match_group(code, open);
        let args = code[(open + 1)..close.min(code.len())]
            .iter()
            .map(|a| a.text.clone())
            .collect();
        out.push(Call {
            name: t.text.clone(),
            recv: receiver_chain(code, i),
            args,
        });
    }
    out
}

/// Matches `(`/`[`/`{` groups generically.
fn match_group(code: &[&Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < code.len() {
        let t = code[j];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    code.len().saturating_sub(1)
}

/// Walks backwards from the call name collecting `a.b.` / `a::b::`
/// receiver segments, outermost first.
fn receiver_chain(code: &[&Token], name_idx: usize) -> Vec<String> {
    let mut chain = Vec::new();
    let mut k = name_idx;
    loop {
        if k >= 1 && code[k - 1].is_punct('.') {
            if k >= 2 && code[k - 2].kind == TokKind::Ident {
                chain.push(code[k - 2].text.clone());
                k -= 2;
                continue;
            }
            // `foo(..).bar(…)` — chained off an expression; mark and stop.
            chain.push("()".to_string());
            break;
        }
        if k >= 2
            && code[k - 1].is_punct(':')
            && code[k - 2].is_punct(':')
            && k >= 3
            && code[k - 3].kind == TokKind::Ident
        {
            chain.push(code[k - 3].text.clone());
            k -= 3;
            continue;
        }
        break;
    }
    chain.reverse();
    chain
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> ParsedFile {
        parse_tokens(&lex(src))
    }

    #[test]
    fn fn_items_with_impl_type_and_visibility() {
        let src = "impl HermesSwitch {\n    pub fn insert(&mut self) {}\n    fn dev_apply(&mut self) {}\n}\npub(crate) fn free() {}\n";
        let p = parse(src);
        assert_eq!(p.fns.len(), 3);
        assert_eq!(p.fns[0].name, "insert");
        assert_eq!(p.fns[0].impl_type.as_deref(), Some("HermesSwitch"));
        assert!(p.fns[0].is_pub);
        assert!(!p.fns[1].is_pub);
        assert_eq!(p.fns[2].impl_type, None);
        assert!(p.fns[2].is_pub, "pub(crate) counts as pub");
    }

    #[test]
    fn impl_trait_for_type_records_the_self_type() {
        let src = "impl fmt::Display for Route {\n    fn fmt(&self) {}\n}\n";
        let p = parse(src);
        assert_eq!(p.fns[0].impl_type.as_deref(), Some("Route"));
    }

    #[test]
    fn generic_impls_and_fns() {
        let src = "impl<K: Ord, V> Store<K, V> {\n    pub fn get<Q: Ord>(&self, q: Q) -> Option<V> { self.find(q) }\n}\n";
        let p = parse(src);
        assert_eq!(p.fns[0].name, "get");
        assert_eq!(p.fns[0].impl_type.as_deref(), Some("Store"));
        assert_eq!(p.fns[0].calls[0].name, "find");
        assert_eq!(p.fns[0].calls[0].recv, vec!["self"]);
    }

    #[test]
    fn array_return_types_do_not_hide_the_body() {
        let src = "fn f() -> [u8; 4] where u8: Copy { fill() }\n";
        let p = parse(src);
        assert_eq!(p.fns[0].calls[0].name, "fill");
    }

    #[test]
    fn calls_capture_receiver_chains() {
        let src = "fn f(&mut self) {\n    self.device.apply(op);\n    self.intent.record(IntentOp::Install(r));\n    telemetry::counter(\"a.b\", 1);\n    helper();\n}\n";
        let p = parse(src);
        let calls = &p.fns[0].calls;
        let by_name = |n: &str| calls.iter().find(|c| c.name == n).unwrap();
        assert_eq!(by_name("apply").recv, vec!["self", "device"]);
        assert_eq!(by_name("record").recv, vec!["self", "intent"]);
        assert_eq!(by_name("Install").recv, vec!["IntentOp"]);
        assert_eq!(by_name("counter").recv, vec!["telemetry"]);
        assert!(by_name("helper").recv.is_empty());
    }

    #[test]
    fn macro_calls_are_scanned() {
        let src = "fn f() { let s = format!(\"x.{}\", 1); }\n";
        let p = parse(src);
        let c = p.fns[0].calls.iter().find(|c| c.name == "format").unwrap();
        assert_eq!(c.args, vec!["x.{}", ",", "1"]);
    }

    #[test]
    fn invariant_comment_lines_recorded() {
        let src = "fn f() {\n    // INVARIANT: replay mirrors the sequential path\n    let _ = x.delete(1);\n}\n";
        let p = parse(src);
        assert_eq!(p.invariant_lines, vec![2]);
    }

    #[test]
    fn call_args_are_captured_with_nested_groups() {
        let src = "fn f(&mut self) { Self::retry(&mut self.device, |d| d.apply(op)); }\n";
        let p = parse(src);
        let c = p.fns[0].calls.iter().find(|c| c.name == "retry").unwrap();
        assert_eq!(c.recv, vec!["Self"]);
        assert_eq!(c.args[..5], ["&", "mut", "self", ".", "device"]);
        assert!(c.args.iter().any(|a| a == "apply"));
    }

    #[test]
    fn nested_fns_are_parsed_separately() {
        let src = "fn outer() {\n    fn inner() { helper(); }\n    other();\n}\n";
        let p = parse(src);
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "inner"]);
    }

    #[test]
    fn bodyless_trait_methods_do_not_derail() {
        let src = "trait T {\n    fn sig(&self) -> u32;\n}\nfn after() { work(); }\n";
        let p = parse(src);
        let after = p.fns.iter().find(|f| f.name == "after").unwrap();
        assert_eq!(after.calls[0].name, "work");
    }
}
