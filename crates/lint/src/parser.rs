//! A lightweight Rust *item* parser on top of the [`crate::lexer`] token
//! stream.
//!
//! This is not a grammar-complete front end — it recovers exactly the
//! syntactic shapes the flow-sensitive rules (R7–R9, DESIGN.md §9) need:
//!
//! - `impl Type { … }` blocks (so methods know their `Self` type),
//! - `fn` items with visibility, parameters skipped, flattened return-type
//!   text, and the matched body range,
//! - call expressions inside bodies, with the receiver chain (`self.device
//!   .apply(…)` → receiver `["self", "device"]`, `IntentOp::Install(…)` →
//!   `["IntentOp"]`) and the argument token list,
//! - discard forms: `let _ = <expr>;` and statement-level `<expr>.ok();`,
//! - top-level `const NAME: u64 = <literal>;` bindings (R7 resolves salt
//!   values through these).
//!
//! Like the lexer it never fails: unparseable stretches are skipped and
//! the rest of the file is still analyzed.

use crate::lexer::{lex, TokKind, Token};

/// One call expression inside a function body.
#[derive(Clone, Debug)]
pub struct Call {
    /// The called name (`apply`, `record`, `seed_from_u64`, `format`, …).
    pub name: String,
    /// Receiver chain, outermost first: `self.intent.record(…)` yields
    /// `["self", "intent"]`; `telemetry::counter(…)` yields
    /// `["telemetry"]`; a bare call yields `[]`.
    pub recv: Vec<String>,
    /// 1-based position of the call name.
    pub line: usize,
    /// 1-based column of the call name.
    pub col: usize,
    /// Flattened `(kind, text)` argument tokens, nested groups included.
    pub args: Vec<(TokKind, String)>,
}

/// How a value was discarded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiscardKind {
    /// `let _ = <expr>;`
    LetUnderscore,
    /// A statement of the form `<expr>.ok();`
    OkDrop,
}

/// One discarded value inside a function body.
#[derive(Clone, Debug)]
pub struct Discard {
    /// The discard form.
    pub kind: DiscardKind,
    /// Name of the call producing the discarded value (`delete` for
    /// `let _ = scratch.delete(id);`), when the expression ends in one.
    pub call: Option<String>,
    /// 1-based line of the discard.
    pub line: usize,
    /// 1-based column of the discard.
    pub col: usize,
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
    /// Flattened return-type text (`Result < ( ) , TcamError >` style,
    /// space-joined); empty when the fn returns `()` implicitly.
    pub ret: String,
    /// Calls inside the body, in source order.
    pub calls: Vec<Call>,
    /// Discard forms inside the body, in source order.
    pub discards: Vec<Discard>,
}

/// One `const NAME: <ty> = <integer literal>;` item.
#[derive(Clone, Debug)]
pub struct ConstItem {
    /// Constant name.
    pub name: String,
    /// The literal text on the right-hand side (only recorded when the
    /// initializer is a single numeric literal).
    pub value: String,
}

/// Everything the flow rules need from one file.
#[derive(Clone, Debug, Default)]
pub struct ParsedFile {
    /// All `fn` items, in source order (nested fns appear separately).
    pub fns: Vec<FnItem>,
    /// Single-literal integer consts, for salt-value resolution.
    pub consts: Vec<ConstItem>,
    /// Lines carrying a comment that contains `INVARIANT:`.
    pub invariant_lines: Vec<usize>,
}

impl ParsedFile {
    /// The lint's one justification window (R2, R8, R9): an `INVARIANT:`
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

/// Parses one file's source text.
pub fn parse_file(src: &str) -> ParsedFile {
    let tokens = lex(src);
    parse_tokens(&tokens)
}

/// Parses an already-lexed token stream.
pub fn parse_tokens(tokens: &[Token]) -> ParsedFile {
    let invariant_lines = tokens
        .iter()
        .filter(|t| t.is_comment() && t.text.contains("INVARIANT:"))
        .map(|t| t.line)
        .collect();
    let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();

    let impls = find_impl_blocks(&code);
    let mut fns = Vec::new();
    let mut consts = Vec::new();

    let mut i = 0;
    while i < code.len() {
        let t = code[i];
        if t.is_ident("fn") && code.get(i + 1).is_some_and(|n| n.kind == TokKind::Ident) {
            if let Some((item, next)) = parse_fn(&code, i, &impls) {
                fns.push(item);
                // Do not skip the body: nested fns are parsed too. Just
                // step past `fn name` so this item is not re-entered.
                let _ = next;
            }
            i += 2;
            continue;
        }
        if t.is_ident("const")
            && code.get(i + 1).is_some_and(|n| n.kind == TokKind::Ident)
        {
            if let Some(c) = parse_const(&code, i) {
                consts.push(c);
            }
        }
        i += 1;
    }

    ParsedFile {
        fns,
        consts,
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

fn parse_const(code: &[&Token], i: usize) -> Option<ConstItem> {
    // const NAME : … = <num> ;
    let name = code.get(i + 1)?.text.clone();
    let mut j = i + 2;
    while j < code.len() && !code[j].is_punct('=') && !code[j].is_punct(';') {
        j += 1;
    }
    if !code.get(j)?.is_punct('=') {
        return None;
    }
    let val = code.get(j + 1)?;
    if val.kind == TokKind::Num && code.get(j + 2).is_some_and(|t| t.is_punct(';')) {
        return Some(ConstItem {
            name,
            value: val.text.clone(),
        });
    }
    None
}

fn parse_fn(
    code: &[&Token],
    i: usize,
    impls: &[(String, usize, usize)],
) -> Option<(FnItem, usize)> {
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
    let params_end = match_paren(code, j);
    j = params_end + 1;

    // Return type: `-> …` up to the body `{`, a `;`, or `where`.
    let mut ret = String::new();
    if code.get(j).is_some_and(|t| t.is_punct('-'))
        && code.get(j + 1).is_some_and(|t| t.is_punct('>'))
    {
        j += 2;
        let mut depth = 0usize;
        while let Some(t) = code.get(j) {
            if depth == 0 && (t.is_punct('{') || t.is_punct(';') || t.is_ident("where")) {
                break;
            }
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth = depth.saturating_sub(1);
            }
            if !ret.is_empty() {
                ret.push(' ');
            }
            ret.push_str(&t.text);
            j += 1;
        }
    }
    while j < code.len() && !code[j].is_punct('{') && !code[j].is_punct(';') {
        j += 1;
    }

    let (calls, discards) = if code.get(j).is_some_and(|t| t.is_punct('{')) {
        let end = match_brace(code, j);
        (scan_calls(code, j + 1, end), scan_discards(code, j + 1, end))
    } else {
        (Vec::new(), Vec::new())
    };

    Some((
        FnItem {
            name,
            impl_type,
            is_pub,
            line: name_tok.line,
            col: name_tok.col,
            ret,
            calls,
            discards,
        },
        j,
    ))
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
            .map(|a| (a.kind, a.text.clone()))
            .collect();
        out.push(Call {
            name: t.text.clone(),
            recv: receiver_chain(code, i),
            line: t.line,
            col: t.col,
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

/// Collects discard forms in `code[start..end]`.
fn scan_discards(code: &[&Token], start: usize, end: usize) -> Vec<Discard> {
    let end = end.min(code.len());
    let mut out = Vec::new();
    let mut i = start;
    while i < end {
        // `let _ = <expr> ;`
        if code[i].is_ident("let")
            && code.get(i + 1).is_some_and(|t| t.is_ident("_"))
            && code.get(i + 2).is_some_and(|t| t.is_punct('='))
        {
            let expr_start = i + 3;
            let mut depth = 0usize;
            let mut j = expr_start;
            let mut last_call: Option<String> = None;
            while j < end {
                let t = code[j];
                if depth == 0 && t.is_punct(';') {
                    break;
                }
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                    depth = depth.saturating_sub(1);
                } else if depth == 0
                    && t.kind == TokKind::Ident
                    && !NON_CALL_KEYWORDS.contains(&t.text.as_str())
                    && code.get(j + 1).is_some_and(|n| n.is_punct('('))
                {
                    // Depth-0 calls only: the last one produces the value
                    // (`a.b(x).c(y)` → `c`; `foo(bar())` → `foo`).
                    last_call = Some(t.text.clone());
                }
                j += 1;
            }
            out.push(Discard {
                kind: DiscardKind::LetUnderscore,
                call: last_call,
                line: code[i].line,
                col: code[i].col,
            });
            i = j + 1;
            continue;
        }
        // statement-level `<expr>.ok();`
        if code[i].is_punct('.')
            && code.get(i + 1).is_some_and(|t| t.is_ident("ok"))
            && code.get(i + 2).is_some_and(|t| t.is_punct('('))
            && code.get(i + 3).is_some_and(|t| t.is_punct(')'))
            && code.get(i + 4).is_some_and(|t| t.is_punct(';'))
        {
            if let Some(inner) = ok_drop_statement(code, start, i) {
                out.push(Discard {
                    kind: DiscardKind::OkDrop,
                    call: inner,
                    line: code[i + 1].line,
                    col: code[i + 1].col,
                });
            }
            i += 5;
            continue;
        }
        i += 1;
    }
    out
}

/// For a `.ok();` at `dot`, decides whether the statement discards the
/// value (returns `Some(inner_call)`) or uses it (`None` — e.g. bound by
/// `let x = …`, returned, or compared). `inner_call` is the call the
/// `Result` came from, when the receiver is a direct call.
fn ok_drop_statement(code: &[&Token], lo: usize, dot: usize) -> Option<Option<String>> {
    // Scan back to the statement start.
    let mut depth = 0i64;
    let mut k = dot;
    let mut stmt_start = lo;
    while k > lo {
        k -= 1;
        let t = code[k];
        if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth += 1;
        } else if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth -= 1;
            if depth < 0 {
                stmt_start = k + 1;
                break;
            }
        } else if depth == 0 && t.is_punct(';') {
            stmt_start = k + 1;
            break;
        }
    }
    // A binding, return or comparison means the value is used.
    for t in &code[stmt_start..dot] {
        if t.is_ident("let") || t.is_ident("return") || t.is_punct('=') {
            return None;
        }
    }
    // Inner call: `….foo(args).ok();` — the token before `.ok` is `)`;
    // the ident before its matching `(` names the producing call.
    let inner = if dot >= 1 && code[dot - 1].is_punct(')') {
        let mut d = 0i64;
        let mut j = dot - 1;
        loop {
            let t = code[j];
            if t.is_punct(')') {
                d += 1;
            } else if t.is_punct('(') {
                d -= 1;
                if d == 0 {
                    break;
                }
            }
            if j == stmt_start {
                break;
            }
            j -= 1;
        }
        if j > stmt_start && code[j - 1].kind == TokKind::Ident {
            Some(code[j - 1].text.clone())
        } else {
            None
        }
    } else {
        None
    };
    Some(inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> ParsedFile {
        parse_file(src)
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
        assert!(p.fns[0].ret.contains("Option"));
        assert_eq!(p.fns[0].calls[0].name, "find");
        assert_eq!(p.fns[0].calls[0].recv, vec!["self"]);
    }

    #[test]
    fn return_type_text_is_flattened() {
        let src = "fn f() -> Result<(), TcamError> { Ok(()) }\n";
        let p = parse(src);
        assert!(p.fns[0].ret.contains("TcamError"), "{}", p.fns[0].ret);
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
        // `format!` appears as a call inside the let-underscore-free body.
        let c = p.fns[0].calls.iter().find(|c| c.name == "format").unwrap();
        assert_eq!(c.args[0].0, TokKind::Str);
    }

    #[test]
    fn let_underscore_discard_finds_the_producing_call() {
        let src = "fn f(&mut self) {\n    let _ = scratch.delete(id);\n    let _ = sw.admit_batch(&batch, now).len();\n    let _ = plain;\n}\n";
        let p = parse(src);
        let d = &p.fns[0].discards;
        assert_eq!(d.len(), 3);
        assert_eq!(d[0].call.as_deref(), Some("delete"));
        assert_eq!(d[1].call.as_deref(), Some("len"), "chain tail wins");
        assert_eq!(d[2].call, None);
    }

    #[test]
    fn ok_drop_statement_detected_but_uses_are_not() {
        let src = "fn f(&mut self) {\n    self.push(x).ok();\n    let y = self.pull().ok();\n    if self.push(x).ok().is_some() {}\n    y.ok();\n}\n";
        let p = parse(src);
        let d = &p.fns[0].discards;
        // push().ok(); is a drop; `let y = …` is a use; the `if` guard is
        // a use (no trailing `;` right after `.ok()`); `y.ok();` drops a
        // variable (no producing call recovered).
        assert_eq!(d.len(), 2, "{d:?}");
        assert_eq!(d[0].kind, DiscardKind::OkDrop);
        assert_eq!(d[0].call.as_deref(), Some("push"));
        assert_eq!(d[1].call, None);
    }

    #[test]
    fn consts_with_literal_initializers() {
        let src = "const CRASH_STREAM_SALT: u64 = 0x4845;\nconst NAME: &str = \"x\";\npub const N: usize = 7;\n";
        let p = parse(src);
        assert_eq!(p.consts.len(), 2);
        assert_eq!(p.consts[0].name, "CRASH_STREAM_SALT");
        assert_eq!(p.consts[0].value, "0x4845");
        assert_eq!(p.consts[1].name, "N");
    }

    #[test]
    fn invariant_comment_lines_recorded() {
        let src = "fn f() {\n    // INVARIANT: replay mirrors the sequential path\n    let _ = x.delete(1);\n}\n";
        let p = parse(src);
        assert_eq!(p.invariant_lines, vec![2]);
    }

    #[test]
    fn seed_call_args_are_captured() {
        let src = "fn f(seed: u64) { let rng = StdRng::seed_from_u64(seed ^ CRASH_STREAM_SALT); }\n";
        let p = parse(src);
        let c = p.fns[0]
            .calls
            .iter()
            .find(|c| c.name == "seed_from_u64")
            .unwrap();
        assert_eq!(c.recv, vec!["StdRng"]);
        let idents: Vec<&str> = c
            .args
            .iter()
            .filter(|(k, _)| *k == TokKind::Ident)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(idents, vec!["seed", "CRASH_STREAM_SALT"]);
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
