//! A hand-rolled, self-contained Rust lexer — just enough fidelity for
//! line-accurate lint rules.
//!
//! The lexer's one job is to separate *code* from *non-code* so that rules
//! never fire on comments, doc comments (and therefore doctests), string
//! literals, or `lint:allow` escape hatches — and to hand rules a token
//! stream with line numbers and byte spans precise enough to recognize
//! shapes like `.unwrap()`, `slots[idx]` (adjacency matters), `#[allow(…)]`
//! and `#[cfg(test)] mod … { … }` regions.
//!
//! It handles the full literal surface that shows up in this workspace:
//! line and (nested) block comments, string/char/byte/raw-string literals
//! (`r#"…"#` with any number of hashes), raw identifiers (`r#match`),
//! lifetimes vs. char literals, numeric literals with a float/int
//! distinction (hex literals with `e` digits are *not* floats; `1..n` is a
//! range, not a float), and the two comparison operators (`==`/`!=`) fused
//! into single tokens so the float-comparison rule can look at neighbors.
//!
//! What it deliberately does not do: build an AST, resolve names, or infer
//! types. Rules that would need types (e.g. "is this `==` comparing
//! `f64`s?") are documented as lexical approximations.

/// What kind of token a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (keywords are not distinguished here;
    /// rules match on the text when they care).
    Ident,
    /// An integer literal.
    Int,
    /// A floating-point literal (has a decimal point, an exponent on a
    /// non-hex literal, or an explicit `f32`/`f64` suffix).
    Float,
    /// A string, byte-string, or raw-string literal.
    Str,
    /// A character or byte literal (`'x'`, `b'\n'`).
    Char,
    /// A lifetime (`'a`) or loop label.
    Lifetime,
    /// `==` or `!=`, fused so comparison rules can inspect operands.
    CmpOp,
    /// `::`, fused so path rules (`thread::spawn`) stay one-token-per-step.
    PathSep,
    /// Any other single punctuation character.
    Punct,
}

/// One lexed token: kind, text, 1-based line, and byte span in the source.
#[derive(Debug, Clone)]
pub struct Token {
    /// The token's kind.
    pub kind: TokenKind,
    /// The token's source text (for `Str` literals, the raw text including
    /// quotes — rules never need string *contents*, only their extent).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
    /// Byte offset of the token's first character.
    pub start: usize,
    /// Byte offset one past the token's last character.
    pub end: usize,
}

impl Token {
    /// `true` when this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }

    /// `true` when this token is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == name
    }
}

/// One `//` line comment, captured for `lint:allow` directive parsing and
/// the same-line-justification rule.
#[derive(Debug, Clone)]
pub struct LineComment {
    /// 1-based line the comment sits on.
    pub line: u32,
    /// Comment text after the `//` (or `///`/`//!`) marker, untrimmed.
    pub text: String,
}

/// The lexer's full output for one file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens in source order (comments and whitespace removed).
    pub tokens: Vec<Token>,
    /// Every `//`-style comment, in source order.
    pub comments: Vec<LineComment>,
}

/// Lexes `src` into tokens plus the comment stream.
///
/// The lexer never fails: on text it does not understand (stray bytes,
/// unterminated literals at EOF) it degrades by consuming one character —
/// a linter must keep going, and a malformed file will fail `rustc`
/// anyway.
pub fn lex(src: &str) -> Lexed {
    Lexer::new(src).run()
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    out: Lexed,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            line: 1,
            out: Lexed::default(),
        }
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    /// Advances one byte, tracking line numbers.
    fn bump(&mut self) {
        if self.peek(0) == Some(b'\n') {
            self.line += 1;
        }
        self.pos += 1;
    }

    fn push(&mut self, kind: TokenKind, start: usize, line: u32) {
        self.out.tokens.push(Token {
            kind,
            text: self.src[start..self.pos].to_string(),
            line,
            start,
            end: self.pos,
        });
    }

    fn run(mut self) -> Lexed {
        while let Some(c) = self.peek(0) {
            let start = self.pos;
            let line = self.line;
            match c {
                b' ' | b'\t' | b'\r' | b'\n' => self.bump(),
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'"' => {
                    self.string(false);
                    self.push(TokenKind::Str, start, line);
                }
                b'\'' => self.char_or_lifetime(),
                b'0'..=b'9' => {
                    let kind = self.number();
                    self.push(kind, start, line);
                }
                b'=' if self.peek(1) == Some(b'=') => {
                    self.bump();
                    self.bump();
                    self.push(TokenKind::CmpOp, start, line);
                }
                b'!' if self.peek(1) == Some(b'=') => {
                    self.bump();
                    self.bump();
                    self.push(TokenKind::CmpOp, start, line);
                }
                b':' if self.peek(1) == Some(b':') => {
                    self.bump();
                    self.bump();
                    self.push(TokenKind::PathSep, start, line);
                }
                c if c == b'_' || c.is_ascii_alphabetic() => self.ident_or_prefixed_literal(),
                // Multi-byte UTF-8 (only ever appears inside comments,
                // strings, or doc text in valid Rust) — consume the whole
                // scalar so we never split a code point.
                c if c >= 0x80 => {
                    self.bump();
                    while self.peek(0).is_some_and(|b| b & 0xC0 == 0x80) {
                        self.bump();
                    }
                }
                _ => {
                    self.bump();
                    self.push(TokenKind::Punct, start, line);
                }
            }
        }
        self.out
    }

    /// `// …` to end of line; records the comment text.
    fn line_comment(&mut self) {
        let line = self.line;
        self.bump();
        self.bump();
        // Skip the extra doc marker so `/// text` records `text`-ish
        // content; directives only ever use plain `//` anyway.
        if matches!(self.peek(0), Some(b'/') | Some(b'!')) {
            self.bump();
        }
        let start = self.pos;
        while self.peek(0).is_some_and(|b| b != b'\n') {
            self.bump();
        }
        self.out.comments.push(LineComment {
            line,
            text: self.src[start..self.pos].to_string(),
        });
    }

    /// `/* … */`, nesting like Rust's.
    fn block_comment(&mut self) {
        self.bump();
        self.bump();
        let mut depth = 1u32;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some(b'/'), Some(b'*')) => {
                    depth += 1;
                    self.bump();
                    self.bump();
                }
                (Some(b'*'), Some(b'/')) => {
                    depth -= 1;
                    self.bump();
                    self.bump();
                }
                (Some(_), _) => self.bump(),
                (None, _) => break,
            }
        }
    }

    /// A `"…"` string body (opening quote pending). `raw` strings skip
    /// escape processing and close on `"` followed by `hashes` `#`s.
    fn string_body(&mut self, raw: bool, hashes: usize) {
        self.bump(); // opening quote
        loop {
            match self.peek(0) {
                None => break,
                Some(b'\\') if !raw => {
                    self.bump();
                    self.bump();
                }
                Some(b'"') => {
                    self.bump();
                    if !raw {
                        break;
                    }
                    let mut seen = 0;
                    while seen < hashes && self.peek(0) == Some(b'#') {
                        self.bump();
                        seen += 1;
                    }
                    if seen == hashes {
                        break;
                    }
                }
                Some(_) => self.bump(),
            }
        }
    }

    fn string(&mut self, raw: bool) {
        self.string_body(raw, 0);
    }

    /// `'a` (lifetime) vs `'x'` / `'\n'` (char literal).
    fn char_or_lifetime(&mut self) {
        let start = self.pos;
        let line = self.line;
        self.bump(); // the quote
        let first = self.peek(0);
        let is_lifetime = first.is_some_and(|b| b == b'_' || b.is_ascii_alphabetic())
            && self.peek(1) != Some(b'\'')
            // `'a'` is a char; `'ab` can only be a lifetime/label.
            || first == Some(b'_');
        if is_lifetime && first != Some(b'\\') {
            while self
                .peek(0)
                .is_some_and(|b| b == b'_' || b.is_ascii_alphanumeric())
            {
                self.bump();
            }
            self.push(TokenKind::Lifetime, start, line);
            return;
        }
        // Char literal: consume one (possibly escaped, possibly multi-byte)
        // character then the closing quote.
        match self.peek(0) {
            Some(b'\\') => {
                self.bump();
                self.bump();
                // \u{…} escapes
                if self.peek(0) == Some(b'{') {
                    while self.peek(0).is_some_and(|b| b != b'}') {
                        self.bump();
                    }
                    self.bump();
                }
            }
            Some(c) if c >= 0x80 => {
                self.bump();
                while self.peek(0).is_some_and(|b| b & 0xC0 == 0x80) {
                    self.bump();
                }
            }
            Some(_) => self.bump(),
            None => {}
        }
        if self.peek(0) == Some(b'\'') {
            self.bump();
        }
        self.push(TokenKind::Char, start, line);
    }

    /// A numeric literal starting at a digit; returns `Int` or `Float`.
    fn number(&mut self) -> TokenKind {
        let hex_or_bin = self.peek(0) == Some(b'0')
            && matches!(
                self.peek(1),
                Some(b'x') | Some(b'X') | Some(b'o') | Some(b'b')
            );
        if hex_or_bin {
            self.bump();
            self.bump();
            while self
                .peek(0)
                .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_')
            {
                self.bump();
            }
            return TokenKind::Int;
        }
        let mut float = false;
        while self
            .peek(0)
            .is_some_and(|b| b.is_ascii_digit() || b == b'_')
        {
            self.bump();
        }
        // A `.` continues the literal only when it is not a range (`1..n`)
        // and not a method call on the literal (`1.max(2)`).
        if self.peek(0) == Some(b'.')
            && self.peek(1) != Some(b'.')
            && !self
                .peek(1)
                .is_some_and(|b| b == b'_' || b.is_ascii_alphabetic())
        {
            float = true;
            self.bump();
            while self
                .peek(0)
                .is_some_and(|b| b.is_ascii_digit() || b == b'_')
            {
                self.bump();
            }
        }
        if matches!(self.peek(0), Some(b'e') | Some(b'E'))
            && (self.peek(1).is_some_and(|b| b.is_ascii_digit())
                || matches!(self.peek(1), Some(b'+') | Some(b'-'))
                    && self.peek(2).is_some_and(|b| b.is_ascii_digit()))
        {
            float = true;
            self.bump(); // e
            if matches!(self.peek(0), Some(b'+') | Some(b'-')) {
                self.bump();
            }
            while self
                .peek(0)
                .is_some_and(|b| b.is_ascii_digit() || b == b'_')
            {
                self.bump();
            }
        }
        // Type suffix: `1f64` / `1.5f32` are floats, `1u32` is an int.
        let suffix_start = self.pos;
        while self
            .peek(0)
            .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_')
        {
            self.bump();
        }
        let suffix = &self.src[suffix_start..self.pos];
        if suffix == "f32" || suffix == "f64" {
            float = true;
        }
        if float {
            TokenKind::Float
        } else {
            TokenKind::Int
        }
    }

    /// An identifier — or one of the prefixed literal forms that *start*
    /// like an identifier: `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `c"…"`,
    /// `b'x'`, and raw identifiers `r#name`.
    fn ident_or_prefixed_literal(&mut self) {
        let start = self.pos;
        let line = self.line;
        while self
            .peek(0)
            .is_some_and(|b| b == b'_' || b.is_ascii_alphanumeric())
        {
            self.bump();
        }
        let ident = &self.src[start..self.pos];
        match self.peek(0) {
            // String with this ident as prefix: raw iff the prefix has an
            // `r` (r, br, cr); otherwise escaped (b, c).
            Some(b'"') if matches!(ident, "r" | "b" | "c" | "br" | "cr") => {
                self.string(ident.contains('r'));
                self.push(TokenKind::Str, start, line);
            }
            Some(b'#') if matches!(ident, "r" | "br" | "cr") => {
                let mut hashes = 0;
                while self.peek(hashes) == Some(b'#') {
                    hashes += 1;
                }
                if self.peek(hashes) == Some(b'"') {
                    for _ in 0..hashes {
                        self.bump();
                    }
                    self.string_body(true, hashes);
                    self.push(TokenKind::Str, start, line);
                } else if ident == "r" {
                    // Raw identifier `r#name`.
                    self.bump();
                    while self
                        .peek(0)
                        .is_some_and(|b| b == b'_' || b.is_ascii_alphanumeric())
                    {
                        self.bump();
                    }
                    self.push(TokenKind::Ident, start, line);
                } else {
                    self.push(TokenKind::Ident, start, line);
                }
            }
            Some(b'\'') if ident == "b" => {
                self.char_or_lifetime();
                // Re-tag the just-pushed token to start at the `b` prefix.
                if let Some(last) = self.out.tokens.last_mut() {
                    last.kind = TokenKind::Char;
                    last.start = start;
                    last.text = self.src[start..last.end].to_string();
                }
            }
            _ => self.push(TokenKind::Ident, start, line),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src)
            .tokens
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn comments_and_strings_hide_code() {
        let lexed = lex("let x = 1; // x.unwrap()\n/* y.unwrap() */ let s = \"a.unwrap()\";");
        assert!(lexed.tokens.iter().all(|t| t.text != "unwrap"));
        assert_eq!(lexed.comments.len(), 1);
        assert!(lexed.comments[0].text.contains("x.unwrap()"));
    }

    #[test]
    fn nested_block_comments_close_correctly() {
        let lexed = lex("/* a /* b */ still comment */ real");
        assert_eq!(lexed.tokens.len(), 1);
        assert!(lexed.tokens[0].is_ident("real"));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let lexed = lex(r####"let s = r#"has "quotes" and # inside"#; after"####);
        assert!(lexed.tokens.iter().any(|t| t.is_ident("after")));
        let strs: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Str)
            .collect();
        assert_eq!(strs.len(), 1);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        let lifetimes = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Lifetime)
            .count();
        let chars = toks.iter().filter(|(k, _)| *k == TokenKind::Char).count();
        assert_eq!((lifetimes, chars), (2, 2));
    }

    #[test]
    fn float_vs_int_vs_range_vs_hex() {
        let toks = kinds("1.5 2 0x9e37_79b9 1..5 3e4 1f64 7u32 1.max(2)");
        let floats: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Float)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(floats, ["1.5", "3e4", "1f64"]);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Int && t == "0x9e37_79b9"));
    }

    #[test]
    fn comparison_and_path_tokens_fuse() {
        let toks = kinds("a == b != c :: d = e ! f");
        let fused: Vec<_> = toks
            .iter()
            .filter(|(k, _)| matches!(k, TokenKind::CmpOp | TokenKind::PathSep))
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(fused, ["==", "!=", "::"]);
    }

    #[test]
    fn spans_give_adjacency() {
        let lexed = lex("slots[idx] and spaced [idx]");
        let t = &lexed.tokens;
        assert!(t[0].is_ident("slots") && t[1].is_punct('['));
        assert_eq!(t[0].end, t[1].start, "index bracket is adjacent");
        let spaced = t.iter().position(|tok| tok.is_ident("spaced")).unwrap();
        assert_ne!(t[spaced].end, t[spaced + 1].start);
    }

    #[test]
    fn line_numbers_are_accurate() {
        let lexed = lex("a\nb\n\nc // note\nd");
        let lines: Vec<u32> = lexed.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, [1, 2, 4, 5]);
        assert_eq!(lexed.comments[0].line, 4);
    }
}
