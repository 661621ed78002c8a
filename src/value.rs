//! The generic text tree behind the spec serialization.
//!
//! [`ExperimentSpec`](crate::ExperimentSpec) serializes through a small
//! self-describing tree of tagged nodes, fields, scalars and lists —
//! whitespace-insensitive, versioned at the document level, with no
//! external dependencies. Grammar:
//!
//! ```text
//! document := "faithful" "/" INT value
//! value    := NUMBER | WORD | STRING | list | node
//! node     := WORD "{" (field ";")* "}"
//! field    := WORD "=" value
//! list     := "[" (value ("," value)*)? "]"
//! ```
//!
//! Numbers print via `{:?}` for reals (which round-trips every finite
//! `f64` exactly) and `{}` for integers, so the reader can tell `2`
//! (integer) from `2.0` (real) and 64-bit seeds survive unharmed.
//! Non-finite reals are not representable; specs are finite by
//! construction.
//!
//! Nodes and lists nest at most [`MAX_DEPTH`] levels deep: the parser
//! recurses once per level, and a spec may come from an untrusted
//! client, so deeper input is refused with a [`SpecError`] instead of
//! exhausting the stack.
//!
//! Every parsed [`Value`] carries the [`Span`] of its first token, so
//! validation errors raised long after lexing (unknown fields, type
//! mismatches, lint diagnostics) can still point at a line and column.
//! Programmatically built values have no span; equality ignores spans
//! so built and parsed trees compare equal.

use std::fmt;

use crate::error::{Span, SpecError};

/// The deepest nesting of values [`parse_document`] accepts (the
/// document's workload node is level 1).
const MAX_DEPTH: usize = 128;

/// Version tag emitted and accepted by this build.
pub const SPEC_VERSION: u32 = 1;

/// One node of the serialization tree: a [`ValueKind`] plus the source
/// [`Span`] it was parsed from (if any).
#[derive(Debug, Clone)]
pub struct Value {
    kind: ValueKind,
    span: Option<Span>,
}

/// The shape of a [`Value`].
#[derive(Debug, Clone, PartialEq)]
pub enum ValueKind {
    /// A real number (printed with a decimal point or exponent).
    Num(f64),
    /// A non-negative integer.
    Int(u64),
    /// A bare identifier-like word (enum tags, booleans).
    Word(String),
    /// A quoted string (labels, port names).
    Str(String),
    /// An ordered list.
    List(Vec<Value>),
    /// A tagged node with named fields.
    Node(String, Vec<(String, Value)>),
}

/// Spans are provenance, not content: two trees that print the same
/// are equal regardless of where (or whether) they were parsed.
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.kind == other.kind
    }
}

impl Value {
    fn spanned(kind: ValueKind, span: Span) -> Value {
        Value {
            kind,
            span: Some(span),
        }
    }

    /// A real number.
    pub fn num(v: f64) -> Value {
        ValueKind::Num(v).into()
    }

    /// An integer.
    pub fn int(v: u64) -> Value {
        ValueKind::Int(v).into()
    }

    /// Convenience: a `Word` from a `&str`.
    pub fn word(w: impl Into<String>) -> Value {
        ValueKind::Word(w.into()).into()
    }

    /// A quoted string.
    pub fn str(s: impl Into<String>) -> Value {
        ValueKind::Str(s.into()).into()
    }

    /// An ordered list.
    pub fn list(items: Vec<Value>) -> Value {
        ValueKind::List(items).into()
    }

    /// A tagged node with named fields.
    pub fn node(tag: impl Into<String>, fields: Vec<(String, Value)>) -> Value {
        ValueKind::Node(tag.into(), fields).into()
    }

    /// Convenience: a boolean as the words `true`/`false`.
    pub fn bool(b: bool) -> Value {
        Value::word(if b { "true" } else { "false" })
    }

    /// The shape of this value.
    pub fn kind(&self) -> &ValueKind {
        &self.kind
    }

    /// Consumes the value, returning its shape.
    pub fn into_kind(self) -> ValueKind {
        self.kind
    }

    /// Where this value was parsed from, if it came from text.
    pub fn span(&self) -> Option<Span> {
        self.span
    }

    fn is_scalar(&self) -> bool {
        matches!(
            self.kind,
            ValueKind::Num(_) | ValueKind::Int(_) | ValueKind::Word(_) | ValueKind::Str(_)
        )
    }

    fn write(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        match &self.kind {
            ValueKind::Num(v) => write!(f, "{v:?}"),
            ValueKind::Int(v) => write!(f, "{v}"),
            ValueKind::Word(w) => f.write_str(w),
            ValueKind::Str(s) => {
                f.write_str("\"")?;
                let mut rest = s.as_str();
                while let Some(i) = rest.find(['"', '\\', '\n', '\t', '\r']) {
                    f.write_str(&rest[..i])?;
                    f.write_str(match rest.as_bytes()[i] {
                        b'"' => "\\\"",
                        b'\\' => "\\\\",
                        b'\n' => "\\n",
                        b'\t' => "\\t",
                        _ => "\\r",
                    })?;
                    rest = &rest[i + 1..];
                }
                f.write_str(rest)?;
                f.write_str("\"")
            }
            ValueKind::List(items) => {
                if items.iter().all(Value::is_scalar) {
                    f.write_str("[")?;
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            f.write_str(", ")?;
                        }
                        item.write(f, indent)?;
                    }
                    f.write_str("]")
                } else {
                    f.write_str("[")?;
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            f.write_str(",")?;
                        }
                        f.write_str("\n")?;
                        pad(f, indent + 2)?;
                        item.write(f, indent + 2)?;
                    }
                    f.write_str("\n")?;
                    pad(f, indent)?;
                    f.write_str("]")
                }
            }
            ValueKind::Node(tag, fields) => {
                f.write_str(tag)?;
                if fields.is_empty() {
                    return Ok(());
                }
                f.write_str(" {\n")?;
                for (name, value) in fields {
                    pad(f, indent + 2)?;
                    f.write_str(name)?;
                    f.write_str(" = ")?;
                    value.write(f, indent + 2)?;
                    f.write_str(";\n")?;
                }
                pad(f, indent)?;
                f.write_str("}")
            }
        }
    }
}

/// Writes `width` spaces.
fn pad(f: &mut fmt::Formatter<'_>, mut width: usize) -> fmt::Result {
    const SPACES: &str = "                                ";
    while width > 0 {
        let n = width.min(SPACES.len());
        f.write_str(&SPACES[..n])?;
        width -= n;
    }
    Ok(())
}

impl From<ValueKind> for Value {
    fn from(kind: ValueKind) -> Value {
        Value { kind, span: None }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)
    }
}

/// Renders a complete, versioned spec document around a workload value.
pub fn render_document(workload: &Value) -> String {
    format!("faithful/{SPEC_VERSION} {workload}\n")
}

/// Parses a complete, versioned spec document.
///
/// # Errors
///
/// [`SpecError`] on lexical or syntactic problems, unsupported
/// versions, or trailing garbage.
pub fn parse_document(text: &str) -> Result<Value, SpecError> {
    let mut p = Parser::new(text);
    p.expect_word("faithful")?;
    p.expect_punct('/')?;
    let version = match p.next_token()? {
        Token::Int(v) => v,
        t => return Err(p.err(format!("expected version number, found {t}"))),
    };
    if version != u64::from(SPEC_VERSION) {
        return Err(p.err(format!(
            "unsupported spec version {version} (this build reads version {SPEC_VERSION})"
        )));
    }
    let value = p.parse_value()?;
    p.expect_end()?;
    Ok(value)
}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Num(f64),
    Int(u64),
    Word(String),
    Str(String),
    Punct(char),
    End,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Num(v) => write!(f, "number {v:?}"),
            Token::Int(v) => write!(f, "integer {v}"),
            Token::Word(w) => write!(f, "word {w:?}"),
            Token::Str(s) => write!(f, "string {s:?}"),
            Token::Punct(c) => write!(f, "{c:?}"),
            Token::End => write!(f, "end of input"),
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    /// Byte offset of the next unread character.
    pos: usize,
    /// Position of the *next* unread character (1-based; columns count
    /// characters, not bytes).
    line: u32,
    column: u32,
    /// Span of the most recently lexed token, for errors and values.
    span: Span,
    /// A token lexed ahead by [`Parser::peek_token`], with its span.
    peeked: Option<(Token, Span)>,
    /// Values currently open around the one being parsed.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            text,
            pos: 0,
            line: 1,
            column: 1,
            span: Span { line: 1, column: 1 },
            peeked: None,
            depth: 0,
        }
    }

    fn err(&self, message: impl Into<String>) -> SpecError {
        SpecError::new(message).at(self.span)
    }

    fn peek_byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn peek_char(&self) -> Option<char> {
        self.text[self.pos..].chars().next()
    }

    /// Consumes `len` bytes (a whole number of characters), keeping the
    /// line and column of the next unread character.
    fn advance(&mut self, len: usize) {
        for &b in &self.text.as_bytes()[self.pos..self.pos + len] {
            if b == b'\n' {
                self.line += 1;
                self.column = 1;
            } else if b & 0xC0 != 0x80 {
                // the first byte of a character, not a continuation
                self.column += 1;
            }
        }
        self.pos += len;
    }

    /// Consumes bytes from the current position while `keep` holds for
    /// them (ASCII predicates only) and returns the consumed slice.
    fn take_while(&mut self, keep: impl Fn(u8) -> bool) -> &'a str {
        let start = self.pos;
        let len = self.text.as_bytes()[start..]
            .iter()
            .position(|&b| !keep(b))
            .unwrap_or(self.text.len() - start);
        self.advance(len);
        &self.text[start..start + len]
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.peek_byte() {
            if b.is_ascii_whitespace() || b == 0x0B {
                self.advance(1);
            } else if b == b'#' {
                // comment to end of line
                self.take_while(|b| b != b'\n');
            } else {
                // Unicode whitespace beyond ASCII counts too
                match self.peek_char() {
                    Some(c) if !c.is_ascii() && c.is_whitespace() => self.advance(c.len_utf8()),
                    _ => break,
                }
            }
        }
    }

    fn next_token(&mut self) -> Result<Token, SpecError> {
        if let Some((token, span)) = self.peeked.take() {
            self.span = span;
            return Ok(token);
        }
        self.skip_ws();
        self.span = Span {
            line: self.line,
            column: self.column,
        };
        let Some(b) = self.peek_byte() else {
            return Ok(Token::End);
        };
        if b == b'"' {
            self.advance(1);
            let mut s = String::new();
            loop {
                s.push_str(self.take_while(|b| b != b'"' && b != b'\\'));
                match self.peek_byte() {
                    Some(b'"') => {
                        self.advance(1);
                        return Ok(Token::Str(s));
                    }
                    Some(_) => {
                        self.advance(1); // the backslash
                        let Some(c) = self.peek_char() else {
                            return Err(self.err("unterminated string"));
                        };
                        self.advance(c.len_utf8());
                        match c {
                            '"' => s.push('"'),
                            '\\' => s.push('\\'),
                            'n' => s.push('\n'),
                            't' => s.push('\t'),
                            'r' => s.push('\r'),
                            other => return Err(self.err(format!("unknown escape \\{other}"))),
                        }
                    }
                    None => return Err(self.err("unterminated string")),
                }
            }
        }
        if b.is_ascii_alphabetic() || b == b'_' {
            let w = self.take_while(|b| b.is_ascii_alphanumeric() || b == b'_');
            return Ok(Token::Word(w.to_owned()));
        }
        if b.is_ascii_digit() || b == b'-' || b == b'+' {
            let (start, bytes) = (self.pos, self.text.as_bytes());
            let mut real = false;
            let mut len = 1;
            for &c in &bytes[start + 1..] {
                match c {
                    b'0'..=b'9' => {}
                    b'.' | b'e' | b'E' => real = true,
                    // exponent signs: only valid right after e/E, let
                    // f64::from_str be the judge
                    b'-' | b'+' if matches!(bytes[start + len - 1], b'e' | b'E') => {}
                    _ => break,
                }
                len += 1;
            }
            self.advance(len);
            let n = &self.text[start..start + len];
            if !real && !n.starts_with(['-', '+']) {
                if let Ok(v) = n.parse::<u64>() {
                    return Ok(Token::Int(v));
                }
            }
            return n
                .parse::<f64>()
                .map(Token::Num)
                .map_err(|_| self.err(format!("bad number {n:?}")));
        }
        if b"{}[]=;,/".contains(&b) {
            self.advance(1);
            return Ok(Token::Punct(char::from(b)));
        }
        let c = self.peek_char().expect("a byte is left, so a character is");
        Err(self.err(format!("unexpected character {c:?}")))
    }

    /// The next token, without consuming it: it is lexed once and
    /// handed out by the following [`Parser::next_token`].
    fn peek_token(&mut self) -> Result<&Token, SpecError> {
        if self.peeked.is_none() {
            let span = self.span;
            let token = self.next_token()?;
            self.peeked = Some((token, self.span));
            self.span = span;
        }
        Ok(&self.peeked.as_ref().expect("just filled").0)
    }

    fn expect_word(&mut self, word: &str) -> Result<(), SpecError> {
        match self.next_token()? {
            Token::Word(w) if w == word => Ok(()),
            t => Err(self.err(format!("expected {word:?}, found {t}"))),
        }
    }

    fn expect_punct(&mut self, p: char) -> Result<(), SpecError> {
        match self.next_token()? {
            Token::Punct(c) if c == p => Ok(()),
            t => Err(self.err(format!("expected {p:?}, found {t}"))),
        }
    }

    fn expect_end(&mut self) -> Result<(), SpecError> {
        match self.next_token()? {
            Token::End => Ok(()),
            t => Err(self.err(format!("trailing input: {t}"))),
        }
    }

    fn parse_value(&mut self) -> Result<Value, SpecError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("values nest deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = self.parse_nested();
        self.depth -= 1;
        value
    }

    fn parse_nested(&mut self) -> Result<Value, SpecError> {
        let token = self.next_token()?;
        let span = self.span;
        match token {
            Token::Num(v) => Ok(Value::spanned(ValueKind::Num(v), span)),
            Token::Int(v) => Ok(Value::spanned(ValueKind::Int(v), span)),
            Token::Str(s) => Ok(Value::spanned(ValueKind::Str(s), span)),
            Token::Word(tag) => {
                if matches!(self.peek_token()?, Token::Punct('{')) {
                    self.next_token()?;
                    let mut fields = Vec::new();
                    loop {
                        match self.next_token()? {
                            Token::Punct('}') => break,
                            Token::Word(name) => {
                                self.expect_punct('=')?;
                                let value = self.parse_value()?;
                                fields.push((name, value));
                                match self.next_token()? {
                                    Token::Punct(';') => {}
                                    Token::Punct('}') => break,
                                    t => {
                                        return Err(
                                            self.err(format!("expected ';' or '}}', found {t}"))
                                        )
                                    }
                                }
                            }
                            t => {
                                return Err(
                                    self.err(format!("expected field name or '}}', found {t}"))
                                )
                            }
                        }
                    }
                    Ok(Value::spanned(ValueKind::Node(tag, fields), span))
                } else {
                    Ok(Value::spanned(ValueKind::Word(tag), span))
                }
            }
            Token::Punct('[') => {
                let mut items = Vec::new();
                if matches!(self.peek_token()?, Token::Punct(']')) {
                    self.next_token()?;
                    return Ok(Value::spanned(ValueKind::List(items), span));
                }
                loop {
                    items.push(self.parse_value()?);
                    match self.next_token()? {
                        Token::Punct(',') => {
                            // allow a trailing comma before ']'
                            if matches!(self.peek_token()?, Token::Punct(']')) {
                                self.next_token()?;
                                break;
                            }
                        }
                        Token::Punct(']') => break,
                        t => return Err(self.err(format!("expected ',' or ']', found {t}"))),
                    }
                }
                Ok(Value::spanned(ValueKind::List(items), span))
            }
            t => Err(self.err(format!("expected a value, found {t}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Value) {
        let doc = render_document(v);
        let parsed = parse_document(&doc).unwrap_or_else(|e| panic!("{e}\n---\n{doc}"));
        assert_eq!(&parsed, v, "---\n{doc}");
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(&Value::num(1.5));
        roundtrip(&Value::num(-0.25));
        roundtrip(&Value::num(1e300));
        roundtrip(&Value::num(5e-324));
        roundtrip(&Value::num(f64::MAX));
        roundtrip(&Value::int(0));
        roundtrip(&Value::int(u64::MAX));
        roundtrip(&Value::word("zero"));
        roundtrip(&Value::str("a b\"c\\d\n\te"));
        roundtrip(&Value::str(String::new()));
    }

    #[test]
    fn structures_roundtrip() {
        roundtrip(&Value::list(vec![]));
        roundtrip(&Value::list(vec![Value::num(1.0), Value::int(2)]));
        roundtrip(&Value::node(
            "pulse",
            vec![
                ("at".into(), Value::num(0.0)),
                ("width".into(), Value::num(2.5)),
                ("tags".into(), Value::list(vec![Value::word("x")])),
                (
                    "nested".into(),
                    Value::node("inner", vec![("k".into(), Value::str("v"))]),
                ),
                (
                    "nodes".into(),
                    Value::list(vec![
                        Value::node("n", vec![("i".into(), Value::int(1))]),
                        Value::word("bare"),
                    ]),
                ),
            ],
        ));
    }

    #[test]
    fn integer_vs_real_distinction_survives() {
        let doc = render_document(&Value::list(vec![Value::num(2.0), Value::int(2)]));
        let parsed = parse_document(&doc).unwrap();
        let ValueKind::List(items) = parsed.kind() else {
            panic!()
        };
        assert_eq!(items[0], Value::num(2.0));
        assert_eq!(items[1], Value::int(2));
    }

    #[test]
    fn comments_and_whitespace_are_ignored() {
        let v = parse_document(
            "faithful/1 # header comment\n  pulse {\n  at = 1.0; # mid comment\n width=2.0 }",
        )
        .unwrap();
        assert_eq!(
            v,
            Value::node(
                "pulse",
                vec![
                    ("at".into(), Value::num(1.0)),
                    ("width".into(), Value::num(2.0)),
                ]
            )
        );
    }

    #[test]
    fn errors_name_line_and_column() {
        let err = parse_document("faithful/1 pulse {\n at = ?? }").unwrap_err();
        let span = err.span().expect("lex errors carry a span");
        assert_eq!((span.line, span.column), (2, 7), "{err}");
        // the rendered form is part of the diagnostic surface — pin it
        assert_eq!(
            err.to_string(),
            "experiment spec error at line 2, column 7: unexpected character '?'"
        );
        assert!(parse_document("faithful/2 zero").is_err());
        assert!(parse_document("faithful/1 zero zero").is_err());
        assert!(parse_document("faithful/1 \"open").is_err());
        assert!(parse_document("faithful/1 [1, 2").is_err());
        assert!(parse_document("faithful/1 node { a 1 }").is_err());
        assert!(parse_document("nope/1 zero").is_err());
        assert!(parse_document("faithful/1 \"bad\\q\"").is_err());
    }

    #[test]
    fn columns_count_characters_not_bytes() {
        let cases = [
            (
                "faithful/1 x {\n  s = \"é€\\n\"; t = ?? }",
                "line 2, column 19: unexpected character '?'",
            ),
            // Unicode whitespace separates tokens like ASCII whitespace
            (
                "faithful/1 x {\u{A0}a\u{2003}=\u{3000}1; b = \"\u{1F600}\" ;c = ¿ }",
                "line 1, column 36: unexpected character '¿'",
            ),
            // a comment running to end of input still advances the column
            (
                "faithful/1 [1, 2 # trailing é comment",
                "line 1, column 38: expected ',' or ']', found end of input",
            ),
        ];
        for (text, expected) in cases {
            let err = parse_document(text).unwrap_err().to_string();
            assert!(err.ends_with(expected), "{text:?}: {err}");
        }
    }

    #[test]
    fn parsed_values_carry_spans() {
        let v = parse_document("faithful/1 pulse {\n  at = 1.0;\n  width = 2.0;\n}").unwrap();
        assert_eq!(
            v.span(),
            Some(Span {
                line: 1,
                column: 12
            })
        );
        let ValueKind::Node(_, fields) = v.kind() else {
            panic!()
        };
        assert_eq!(fields[0].1.span(), Some(Span { line: 2, column: 8 }));
        assert_eq!(
            fields[1].1.span(),
            Some(Span {
                line: 3,
                column: 11
            })
        );
        // built values have no span, but still compare equal to parsed ones
        assert_eq!(Value::num(1.0).span(), None);
        assert_eq!(fields[0].1, Value::num(1.0));
    }

    #[test]
    fn nesting_depth_is_bounded() {
        let nested =
            |levels: usize| format!("faithful/1 {}{}", "[".repeat(levels), "]".repeat(levels));
        assert!(parse_document(&nested(MAX_DEPTH)).is_ok());
        let err = parse_document(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            err.to_string(),
            "experiment spec error at line 1, column 139: values nest deeper than 128 levels"
        );
    }

    #[test]
    fn bare_word_is_empty_node() {
        assert_eq!(
            Value::node("zero", vec![]).to_string(),
            Value::word("zero").to_string()
        );
        assert_eq!(Value::bool(true), Value::word("true"));
        assert_eq!(Value::bool(false), Value::word("false"));
    }
}
