//! A small Rust lexer producing a token stream with line/column spans.
//!
//! This is not a full Rust front end — it only needs to be precise about
//! the things the lint rules look at: identifiers (including raw
//! `r#ident`), comments (line, nested block, doc), string-ish literals
//! (plain, raw with any `#` depth, byte, char — so banned identifiers
//! inside literals are never misreported), lifetimes vs. char literals,
//! and punctuation. Everything else (numbers, operators) is tokenized
//! coarsely but without ever losing position.

/// What a token is, as far as the lint rules care.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword.
    Ident,
    /// A raw identifier (`r#match`); `text` holds the part after `r#`.
    RawIdent,
    /// A lifetime (`'a`); `text` holds the part after `'`.
    Lifetime,
    /// A string literal (plain, raw or byte); `text` holds the cooked
    /// contents (escapes resolved for plain strings, verbatim for raw).
    Str,
    /// A char or byte literal; `text` holds the raw inside.
    Char,
    /// A numeric literal.
    Num,
    /// A `//` comment (doc or not); `text` holds the full comment.
    LineComment,
    /// A `/* */` comment (doc or not, nesting resolved); full text.
    BlockComment,
    /// A single punctuation byte (`.`, `!`, `(`, `::` comes as two `:`).
    Punct,
}

/// One token with its source position (1-based line and column).
#[derive(Clone, Debug)]
pub struct Token {
    /// Token class.
    pub kind: TokKind,
    /// Token text (see [`TokKind`] for what exactly is stored).
    pub text: String,
    /// 1-based line of the token's first byte.
    pub line: usize,
    /// 1-based column (in bytes) of the token's first byte.
    pub col: usize,
}

impl Token {
    /// `true` for comment tokens.
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokKind::LineComment | TokKind::BlockComment)
    }

    /// `true` when this is punctuation `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }

    /// `true` when this is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokKind::Ident && self.text == name
    }
}

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
    col: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek_at(&self, off: usize) -> Option<u8> {
        self.src.get(self.pos + off).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Byte length of the UTF-8 sequence starting with lead byte `b`.
fn utf8_len(b: u8) -> usize {
    match b {
        0xF0..=0xF7 => 4,
        0xE0..=0xEF => 3,
        0xC0..=0xDF => 2,
        _ => 1,
    }
}

/// Lexes `src` into tokens. Never fails: malformed input degenerates into
/// punctuation tokens rather than an error, so the lint still walks as
/// much of the file as possible.
pub fn lex(src: &str) -> Vec<Token> {
    let mut c = Cursor {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
        col: 1,
    };
    let mut out = Vec::new();
    while let Some(b) = c.peek() {
        let (line, col) = (c.line, c.col);
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                c.bump();
            }
            b'/' if c.peek_at(1) == Some(b'/') => {
                let start = c.pos;
                while c.peek().is_some_and(|b| b != b'\n') {
                    c.bump();
                }
                out.push(Token {
                    kind: TokKind::LineComment,
                    text: src[start..c.pos].to_string(),
                    line,
                    col,
                });
            }
            b'/' if c.peek_at(1) == Some(b'*') => {
                let start = c.pos;
                c.bump();
                c.bump();
                let mut depth = 1usize;
                while depth > 0 {
                    match (c.peek(), c.peek_at(1)) {
                        (Some(b'/'), Some(b'*')) => {
                            depth += 1;
                            c.bump();
                            c.bump();
                        }
                        (Some(b'*'), Some(b'/')) => {
                            depth -= 1;
                            c.bump();
                            c.bump();
                        }
                        (Some(_), _) => {
                            c.bump();
                        }
                        (None, _) => break,
                    }
                }
                out.push(Token {
                    kind: TokKind::BlockComment,
                    text: src[start..c.pos].to_string(),
                    line,
                    col,
                });
            }
            b'r' if c.peek_at(1) == Some(b'"') || c.peek_at(1) == Some(b'#') => {
                // Raw string r"..." / r#"..."# — or a raw identifier r#ident.
                let mut hashes = 0usize;
                while c.peek_at(1 + hashes) == Some(b'#') {
                    hashes += 1;
                }
                if c.peek_at(1 + hashes) == Some(b'"') {
                    c.bump(); // r
                    for _ in 0..hashes {
                        c.bump();
                    }
                    c.bump(); // opening quote
                    let text = lex_raw_body(&mut c, src, hashes);
                    out.push(Token {
                        kind: TokKind::Str,
                        text,
                        line,
                        col,
                    });
                } else if hashes >= 1 && c.peek_at(2).is_some_and(is_ident_start) {
                    c.bump(); // r
                    c.bump(); // #
                    let start = c.pos;
                    while c.peek().is_some_and(is_ident_continue) {
                        c.bump();
                    }
                    out.push(Token {
                        kind: TokKind::RawIdent,
                        text: src[start..c.pos].to_string(),
                        line,
                        col,
                    });
                } else {
                    lex_ident(&mut c, src, &mut out, line, col);
                }
            }
            b'b' if c.peek_at(1) == Some(b'"')
                || (c.peek_at(1) == Some(b'r')
                    && matches!(c.peek_at(2), Some(b'"') | Some(b'#'))) =>
            {
                // b"..." or br#"..."#.
                c.bump(); // b
                if c.peek() == Some(b'r') {
                    let mut hashes = 0usize;
                    while c.peek_at(1 + hashes) == Some(b'#') {
                        hashes += 1;
                    }
                    if c.peek_at(1 + hashes) == Some(b'"') {
                        c.bump(); // r
                        for _ in 0..hashes {
                            c.bump();
                        }
                        c.bump(); // quote
                        let text = lex_raw_body(&mut c, src, hashes);
                        out.push(Token {
                            kind: TokKind::Str,
                            text,
                            line,
                            col,
                        });
                    } else {
                        // `br` not followed by a raw string: treat as ident.
                        lex_ident(&mut c, src, &mut out, line, col);
                    }
                } else {
                    c.bump(); // quote
                    let text = lex_str_body(&mut c);
                    out.push(Token {
                        kind: TokKind::Str,
                        text,
                        line,
                        col,
                    });
                }
            }
            b'b' if c.peek_at(1) == Some(b'\'') => {
                c.bump(); // b
                c.bump(); // quote
                let text = lex_char_body(&mut c);
                out.push(Token {
                    kind: TokKind::Char,
                    text,
                    line,
                    col,
                });
            }
            b'"' => {
                c.bump();
                let text = lex_str_body(&mut c);
                out.push(Token {
                    kind: TokKind::Str,
                    text,
                    line,
                    col,
                });
            }
            b'\'' => {
                // Lifetime ('a not followed by ') vs char literal ('a').
                // The closing-quote probe steps over the full UTF-8 char so
                // multi-byte literals like '→' are not mistaken for lifetimes.
                let one = c.peek_at(1);
                let is_lifetime = one.is_some_and(is_ident_start)
                    && one != Some(b'\\')
                    && c.peek_at(1 + one.map_or(1, utf8_len)) != Some(b'\'');
                if is_lifetime {
                    c.bump(); // '
                    let start = c.pos;
                    while c.peek().is_some_and(is_ident_continue) {
                        c.bump();
                    }
                    out.push(Token {
                        kind: TokKind::Lifetime,
                        text: src[start..c.pos].to_string(),
                        line,
                        col,
                    });
                } else {
                    c.bump();
                    let text = lex_char_body(&mut c);
                    out.push(Token {
                        kind: TokKind::Char,
                        text,
                        line,
                        col,
                    });
                }
            }
            b if b.is_ascii_digit() => {
                let start = c.pos;
                c.bump();
                while let Some(n) = c.peek() {
                    if n.is_ascii_alphanumeric() || n == b'_' {
                        c.bump();
                    } else if n == b'.'
                        && c.peek_at(1).is_some_and(|d| d.is_ascii_digit())
                        && !src[start..c.pos].contains('.')
                    {
                        // One decimal point, but never eat `..` ranges.
                        c.bump();
                    } else {
                        break;
                    }
                }
                out.push(Token {
                    kind: TokKind::Num,
                    text: src[start..c.pos].to_string(),
                    line,
                    col,
                });
            }
            b if is_ident_start(b) => {
                lex_ident(&mut c, src, &mut out, line, col);
            }
            _ => {
                let start = c.pos;
                c.bump();
                out.push(Token {
                    kind: TokKind::Punct,
                    text: src[start..c.pos].to_string(),
                    line,
                    col,
                });
            }
        }
    }
    out
}

fn lex_ident(c: &mut Cursor, src: &str, out: &mut Vec<Token>, line: usize, col: usize) {
    let start = c.pos;
    c.bump();
    while c.peek().is_some_and(is_ident_continue) {
        c.bump();
    }
    out.push(Token {
        kind: TokKind::Ident,
        text: src[start..c.pos].to_string(),
        line,
        col,
    });
}

/// Consumes a raw-string body after the opening quote; returns the
/// verbatim contents (the closing `"###` is consumed, not included).
/// The body is sliced out of `src` so multi-byte UTF-8 stays intact; an
/// unterminated raw string runs to EOF and keeps everything read so far.
fn lex_raw_body(c: &mut Cursor, src: &str, hashes: usize) -> String {
    let start = c.pos;
    loop {
        match c.peek() {
            None => return src[start..c.pos].to_string(),
            Some(b'"') => {
                let mut ok = true;
                for i in 0..hashes {
                    if c.peek_at(1 + i) != Some(b'#') {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    let end = c.pos;
                    c.bump();
                    for _ in 0..hashes {
                        c.bump();
                    }
                    return src[start..end].to_string();
                }
                c.bump();
            }
            Some(_) => {
                c.bump();
            }
        }
    }
}

/// Consumes a plain string body after the opening quote, resolving the
/// escapes the workspace uses (`\"`, `\\`, `\n`, `\t`, `\r`, `\0`,
/// `\x..`/`\u{..}` kept verbatim). Bytes are accumulated and decoded at
/// the end so multi-byte UTF-8 contents survive; an unterminated string
/// runs to EOF.
fn lex_str_body(c: &mut Cursor) -> String {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        match c.peek() {
            None => break,
            Some(b'"') => {
                c.bump();
                break;
            }
            Some(b'\\') => {
                c.bump();
                match c.bump() {
                    Some(b'n') => buf.push(b'\n'),
                    Some(b't') => buf.push(b'\t'),
                    Some(b'r') => buf.push(b'\r'),
                    Some(b'0') => buf.push(b'\0'),
                    Some(b'"') => buf.push(b'"'),
                    Some(b'\\') => buf.push(b'\\'),
                    Some(b'\n') => {
                        // Line-continuation escape: skip leading whitespace.
                        while matches!(c.peek(), Some(b' ' | b'\t')) {
                            c.bump();
                        }
                    }
                    Some(other) => {
                        buf.push(b'\\');
                        buf.push(other);
                    }
                    None => break,
                }
            }
            Some(b) => {
                buf.push(b);
                c.bump();
            }
        }
    }
    String::from_utf8_lossy(&buf).into_owned()
}

/// Consumes a char/byte-literal body after the opening quote. Multi-byte
/// chars (`'→'`) are decoded whole; an unterminated literal runs to EOF.
fn lex_char_body(c: &mut Cursor) -> String {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        match c.peek() {
            None => break,
            Some(b'\'') => {
                c.bump();
                break;
            }
            Some(b'\\') => {
                buf.push(b'\\');
                c.bump();
                if let Some(e) = c.bump() {
                    buf.push(e);
                }
            }
            Some(b) => {
                buf.push(b);
                c.bump();
            }
        }
    }
    String::from_utf8_lossy(&buf).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_and_puncts() {
        let toks = kinds("let x = a.unwrap();");
        assert_eq!(toks[0], (TokKind::Ident, "let".into()));
        assert_eq!(toks[3], (TokKind::Ident, "a".into()));
        assert_eq!(toks[4], (TokKind::Punct, ".".into()));
        assert_eq!(toks[5], (TokKind::Ident, "unwrap".into()));
    }

    #[test]
    fn strings_hide_banned_identifiers() {
        let toks = kinds(r#"let s = "HashMap::new() and .unwrap()";"#);
        assert!(toks
            .iter()
            .all(|(k, t)| *k != TokKind::Ident || (t != "HashMap" && t != "unwrap")));
        assert!(toks.iter().any(|(k, _)| *k == TokKind::Str));
    }

    #[test]
    fn raw_strings_any_hash_depth() {
        let toks = kinds(r###"let s = r#"quote " inside"#; let t = r"plain";"###);
        let strs: Vec<&String> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Str)
            .map(|(_, t)| t)
            .collect();
        assert_eq!(strs, [&"quote \" inside".to_string(), &"plain".to_string()]);
    }

    #[test]
    fn raw_string_with_hash_needing_two() {
        let toks = kinds("r##\"body \"# still \"##");
        assert_eq!(toks[0].0, TokKind::Str);
        assert_eq!(toks[0].1, "body \"# still ");
    }

    #[test]
    fn nested_block_comments() {
        let toks = kinds("/* outer /* inner */ tail */ ident");
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[0].0, TokKind::BlockComment);
        assert!(toks[0].1.contains("inner"));
        assert_eq!(toks[1], (TokKind::Ident, "ident".into()));
    }

    #[test]
    fn raw_identifiers() {
        let toks = kinds("let r#match = r#type;");
        assert_eq!(toks[1], (TokKind::RawIdent, "match".into()));
        assert_eq!(toks[3], (TokKind::RawIdent, "type".into()));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        let lifetimes: Vec<&String> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Lifetime)
            .map(|(_, t)| t)
            .collect();
        assert_eq!(lifetimes, [&"a".to_string(), &"a".to_string()]);
        let chars: Vec<&String> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Char)
            .map(|(_, t)| t)
            .collect();
        assert_eq!(chars, [&"x".to_string(), &"\\n".to_string()]);
    }

    #[test]
    fn byte_strings_and_byte_chars() {
        let toks = kinds(r##"let a = b"bytes"; let b = b'x'; let c = br#"raw"#;"##);
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Str && t == "bytes"));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Char && t == "x"));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Str && t == "raw"));
    }

    #[test]
    fn numbers_do_not_eat_ranges() {
        let toks = kinds("for i in 0..10 { let f = 1.5; }");
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Num && t == "0"));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Num && t == "10"));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Num && t == "1.5"));
        assert_eq!(
            toks.iter().filter(|(_, t)| t == ".").count(),
            2,
            "the two dots of the range survive as punctuation"
        );
    }

    #[test]
    fn positions_are_one_based_and_track_lines() {
        let toks = lex("a\n  bb\n");
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn string_escapes_cooked() {
        let toks = lex(r#""a\nb\"c\\d""#);
        assert_eq!(toks[0].text, "a\nb\"c\\d");
    }

    #[test]
    fn line_continuation_escape() {
        let toks = lex("\"a\\\n   b\"");
        assert_eq!(toks[0].text, "ab");
    }

    #[test]
    fn unicode_string_contents_survive() {
        let toks = lex("let s = \"héllo → wörld\";");
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Str && t.text == "héllo → wörld"));
    }

    #[test]
    fn unicode_raw_string_contents_survive() {
        let toks = lex("let s = r#\"naïve → done\"#;");
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Str && t.text == "naïve → done"));
    }

    #[test]
    fn unicode_char_literal_survives() {
        let toks = lex("let c = '→';");
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Char && t.text == "→"));
    }

    #[test]
    fn hex_and_unicode_escapes_kept_verbatim() {
        let toks = lex(r#""a\x41b\u{1F600}c""#);
        assert_eq!(toks[0].text, "a\\x41b\\u{1F600}c");
    }

    #[test]
    fn unterminated_string_runs_to_eof_without_panic() {
        let toks = lex("let s = \"never closed");
        let s = toks.iter().find(|t| t.kind == TokKind::Str).unwrap();
        assert_eq!(s.text, "never closed");
    }

    #[test]
    fn unterminated_raw_string_runs_to_eof_without_panic() {
        let toks = lex("let s = r##\"open \"# but not closed");
        let s = toks.iter().find(|t| t.kind == TokKind::Str).unwrap();
        assert_eq!(s.text, "open \"# but not closed");
    }

    #[test]
    fn unterminated_block_comment_runs_to_eof_without_panic() {
        let toks = lex("code /* open /* nested */ still open");
        assert_eq!(toks.last().unwrap().kind, TokKind::BlockComment);
        assert!(toks.last().unwrap().text.contains("still open"));
    }

    #[test]
    fn unterminated_char_literal_runs_to_eof_without_panic() {
        // A stray apostrophe before EOF must not lose position tracking.
        let toks = lex("let c = '\\");
        assert!(toks.iter().any(|t| t.kind == TokKind::Char));
    }

    #[test]
    fn crlf_line_endings_track_lines() {
        let toks = lex("a\r\nb\r\n");
        assert_eq!((toks[0].line, toks[1].line), (1, 2));
    }

    #[test]
    fn tokens_after_multiline_string_have_correct_positions() {
        let toks = lex("let s = \"one\ntwo\";\nnext");
        let next = toks.iter().find(|t| t.is_ident("next")).unwrap();
        assert_eq!((next.line, next.col), (3, 1));
    }
}
