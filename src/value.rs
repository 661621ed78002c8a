//! The `faithful/1` text format: its writer, its reader, and the key
//! encoding of its trees.
//!
//! Every document the library writes (specs, results, error documents,
//! checkpoint sidecars, disk cache entries) is a small self-describing
//! tree of tagged nodes, fields, scalars and lists —
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
//! No document is built as a tree to be written: each one describes
//! itself once, in a [`Walk`], to a [`Sink`]. There are two sinks and
//! neither builds a tree. [`TextSink`] writes the text (every document
//! goes through [`render_document`]); [`KeySink`] writes a spec's cache
//! key, the binary encoding of the tree its text parses to.
//!
//! [`Value`] is what the parser produces and nothing more. Every parsed
//! `Value` carries the [`Span`] of its first token, so validation errors
//! raised long after lexing (unknown fields, type mismatches, lint
//! diagnostics) can still point at a line and column. Its `Display`
//! walks it into the same [`TextSink`].
//!
//! Reading mirrors writing: what has a [`Walk`] has a [`Read`], and a
//! node's reader takes each field through [`Fields::req`] or
//! [`Fields::opt`], so each kind of field error has one text.
//!
//! A plain type names its fields once, in a [`schema!`] table that
//! yields both its walk and its reader: `FailurePolicySpec`,
//! `NodeSpec`, `ScenarioSpec`, `ChainSpec`, `SupplySpec`,
//! `IntegratorSpec`, `DelaySpec`, `SpfTask` and `NoiseSpec` (in
//! `spec.rs`), and `SweepStats`, `QuarantinedScenario`, `DelaySample`,
//! `DeviationSample`, `SpfTheory` and `SpfRun` (in `service/wire.rs`).
//! The rest stay hand-written, because the table has no per-field
//! codec: readers that record a spec's `SpecSpans`, types with an
//! encoding of their own (a channel's parameters, signals and `sig`
//! nodes, a truth table's rows, an empirical reference's sample pairs,
//! an analog task's orientation, an output selection's `watch`), and
//! pairs whose writer and reader are different types (a result and its
//! served view, a lint diagnostic and its served copy).

use std::fmt::{self, Write as _};

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

    /// Consumes the value, returning its shape.
    pub fn into_kind(self) -> ValueKind {
        self.kind
    }

    /// Where this value was parsed from, if it came from text.
    pub fn span(&self) -> Option<Span> {
        self.span
    }
}

/// Built values, for tests only: library code writes documents by
/// walking them into a [`TextSink`], never by building a tree.
#[cfg(test)]
impl Value {
    /// The shape of this value.
    pub fn kind(&self) -> &ValueKind {
        &self.kind
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
}

/// What a [`Walk`] describes itself to, one call per part of the tree,
/// in document order: a node announces its field count and is followed
/// by that many `field` + value pairs, a list announces its length and
/// is followed by that many values.
pub(crate) trait Sink {
    /// A node `tag { … }` with `fields` fields (none: it prints `tag`).
    fn node(&mut self, tag: &str, fields: usize);
    /// The name of the current node's next field; its value follows.
    fn field(&mut self, name: &str);
    /// A real number.
    fn num(&mut self, v: f64);
    /// An integer.
    fn int(&mut self, v: u64);
    /// A bare word.
    fn word(&mut self, w: &str);
    /// A quoted string.
    fn str(&mut self, s: &str);
    /// A list of `len` items; `inline` when every item is a scalar, so
    /// the list prints on one line.
    fn list(&mut self, len: usize, inline: bool);

    /// `name = value` in the current node.
    fn entry(&mut self, name: &str, value: &(impl Walk + ?Sized))
    where
        Self: Sized,
    {
        self.field(name);
        value.walk(self);
    }
}

/// How many of `present` are set: the count of a node's optional fields.
pub(crate) fn count(present: &[bool]) -> usize {
    present.iter().filter(|&&p| p).count()
}

/// Something written as a `faithful/1` tree, described by one walk
/// that every sink follows: [`render_document`] writes its text,
/// [`key_bytes`](Walk::key_bytes) its cache key.
pub(crate) trait Walk {
    /// Whether every value of this type is a scalar (a number, word or
    /// string), so a list of them prints on one line.
    const SCALAR: bool = false;

    /// Feeds this value's tree to `sink`.
    fn walk(&self, sink: &mut impl Sink);

    /// A compact binary encoding of the tree, equal for two trees
    /// exactly when their texts are equal, so it can stand in for the
    /// text as a cache key without rendering it (see [`KeySink`]).
    fn key_bytes(&self) -> Vec<u8> {
        let mut key = KeySink(Vec::with_capacity(256));
        self.walk(&mut key);
        key.0
    }
}

impl Walk for Value {
    fn walk(&self, sink: &mut impl Sink) {
        match &self.kind {
            ValueKind::Num(v) => sink.num(*v),
            ValueKind::Int(v) => sink.int(*v),
            ValueKind::Word(w) => sink.word(w),
            ValueKind::Str(s) => sink.str(s),
            ValueKind::List(items) => {
                let scalar =
                    |v: &Value| !matches!(v.kind, ValueKind::List(_) | ValueKind::Node(..));
                sink.list(items.len(), items.iter().all(scalar));
                for item in items {
                    item.walk(sink);
                }
            }
            ValueKind::Node(tag, fields) => {
                sink.node(tag, fields.len());
                for (name, value) in fields {
                    sink.entry(name, value);
                }
            }
        }
    }
}

/// The sink that writes the text of the tree a walk describes: a node
/// of no fields as its bare tag, any other node as `tag {` with one
/// `name = value;` line per field, two spaces deeper than the node; a
/// list on one line (`[1.0, 2.0]`) when its items are scalars, one item
/// a line otherwise, and `[]` when empty.
#[derive(Default)]
struct TextSink {
    out: String,
    /// The nodes and lists open around the next value, innermost last.
    open: Vec<Open>,
    /// The indent of the lines inside the innermost open node or list.
    indent: usize,
}

/// A node or list the next values go into, and how many it waits for.
struct Open {
    shape: Shape,
    left: usize,
}

#[derive(Clone, Copy, PartialEq)]
enum Shape {
    Node,
    /// A list on one line.
    Inline,
    /// A list of one item a line.
    Block,
}

impl TextSink {
    /// A line break and the current indent.
    fn newline(&mut self) {
        const SPACES: &str = "                                ";
        self.out.push('\n');
        let mut width = self.indent;
        while width > 0 {
            let n = width.min(SPACES.len());
            self.out.push_str(&SPACES[..n]);
            width -= n;
        }
    }

    /// Opens a node or list for `len` values (at least one).
    fn open(&mut self, shape: Shape, len: usize) {
        self.open.push(Open { shape, left: len });
        if shape != Shape::Inline {
            self.indent += 2;
        }
        if shape == Shape::Block {
            self.newline();
        }
    }

    /// Ends a value: writes what follows it in the node or list around
    /// it, and closes every node and list it completes.
    fn done(&mut self) {
        while let Some(open) = self.open.last_mut() {
            open.left -= 1;
            let (shape, more) = (open.shape, open.left > 0);
            match shape {
                Shape::Node => self.out.push(';'),
                Shape::Inline if more => self.out.push_str(", "),
                Shape::Block if more => {
                    self.out.push(',');
                    self.newline();
                }
                _ => {}
            }
            if more {
                return;
            }
            self.open.pop();
            if shape == Shape::Inline {
                self.out.push(']');
                continue;
            }
            self.indent -= 2;
            self.newline();
            self.out.push(if shape == Shape::Node { '}' } else { ']' });
        }
    }
}

impl Sink for TextSink {
    fn node(&mut self, tag: &str, fields: usize) {
        self.out.push_str(tag);
        if fields == 0 {
            return self.done();
        }
        self.out.push_str(" {");
        self.open(Shape::Node, fields);
    }

    fn field(&mut self, name: &str) {
        self.newline();
        self.out.push_str(name);
        self.out.push_str(" = ");
    }

    fn num(&mut self, v: f64) {
        let _ = write!(self.out, "{v:?}");
        self.done();
    }

    fn int(&mut self, v: u64) {
        let _ = write!(self.out, "{v}");
        self.done();
    }

    fn word(&mut self, w: &str) {
        self.out.push_str(w);
        self.done();
    }

    fn str(&mut self, s: &str) {
        self.out.push('"');
        let mut rest = s;
        while let Some(i) = rest.find(['"', '\\', '\n', '\t', '\r']) {
            self.out.push_str(&rest[..i]);
            self.out.push_str(match rest.as_bytes()[i] {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\t' => "\\t",
                _ => "\\r",
            });
            rest = &rest[i + 1..];
        }
        self.out.push_str(rest);
        self.out.push('"');
        self.done();
    }

    fn list(&mut self, len: usize, inline: bool) {
        self.out.push('[');
        if len == 0 {
            self.out.push(']');
            return self.done();
        }
        self.open(if inline { Shape::Inline } else { Shape::Block }, len);
    }
}

/// The sink that writes the cache-key encoding of the tree a walk
/// describes, without building the tree.
///
/// Each value starts with a tag byte for its kind, so `2` (`Int`) and
/// `2.0` (`Num`) differ. A real is its `f64::to_bits`, little endian,
/// with `-0.0` kept apart from `0.0` as `{:?}` keeps it. Words,
/// strings, field names, lists and field counts are LEB128
/// length-prefixed. The two shapes that render alike encode alike: an
/// empty node and the bare word of its tag (both print `tag`), and a
/// non-finite real and the word it prints as (`inf`, `NaN`).
struct KeySink(Vec<u8>);

impl KeySink {
    /// LEB128: seven bits a byte, high bit set on all but the last.
    fn len(&mut self, n: usize) {
        let mut n = n as u64;
        while n >= 0x80 {
            self.0.push((n as u8) | 0x80);
            n >>= 7;
        }
        self.0.push(n as u8);
    }

    fn text(&mut self, tag: u8, s: &str) {
        self.0.push(tag);
        self.len(s.len());
        self.0.extend_from_slice(s.as_bytes());
    }
}

impl Sink for KeySink {
    fn node(&mut self, tag: &str, fields: usize) {
        if fields == 0 {
            self.text(3, tag);
        } else {
            self.text(6, tag);
            self.len(fields);
        }
    }

    fn field(&mut self, name: &str) {
        self.len(name.len());
        self.0.extend_from_slice(name.as_bytes());
    }

    fn num(&mut self, v: f64) {
        if v.is_finite() {
            self.0.push(1);
            self.0.extend_from_slice(&v.to_bits().to_le_bytes());
        } else {
            self.text(3, &format!("{v:?}"));
        }
    }

    fn int(&mut self, v: u64) {
        self.0.push(2);
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn word(&mut self, w: &str) {
        self.text(3, w);
    }

    fn str(&mut self, s: &str) {
        self.text(4, s);
    }

    fn list(&mut self, len: usize, _inline: bool) {
        self.0.push(5);
        self.len(len);
    }
}

/// A stable 64-bit hash of [`Walk::key_bytes`] output: eight bytes at
/// a time as explicit little-endian words, so every host computes the
/// same value and it can name on-disk cache entries.
pub(crate) fn key_hash(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    // a 128-bit product folded to 64 bits: every bit of `h ^ w` reaches
    // every bit of the result, upwards through the low half and
    // downwards through the high half
    let mix = |h: u64, w: u64| {
        let m = u128::from(h ^ w) * u128::from(K);
        (m as u64) ^ (m >> 64) as u64
    };
    let mut words = bytes.chunks_exact(8);
    let mut h = 0xcbf2_9ce4_8422_2325 ^ bytes.len() as u64;
    for w in &mut words {
        h = mix(h, u64::from_le_bytes(w.try_into().expect("eight bytes")));
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    h = mix(h, u64::from_le_bytes(tail));
    // the murmur3 finalizer spreads the last word over every bit
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

impl From<ValueKind> for Value {
    fn from(kind: ValueKind) -> Value {
        Value { kind, span: None }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut text = TextSink::default();
        self.walk(&mut text);
        f.write_str(&text.out)
    }
}

/// Writes a complete, versioned document: `faithful/1` and the text of
/// `doc`, on the one sink every document is written through.
pub(crate) fn render_document(doc: &(impl Walk + ?Sized)) -> String {
    let mut text = TextSink::default();
    let _ = write!(text.out, "faithful/{SPEC_VERSION} ");
    doc.walk(&mut text);
    debug_assert!(text.open.is_empty(), "a walk left a node or list open");
    text.out.push('\n');
    text.out
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

/// Something read from a parsed tree: the reading mirror of [`Walk`].
/// Fields hand their values to it through [`Fields::req`] and
/// [`Fields::opt`].
pub(crate) trait Read: Sized {
    /// Reads `value`, found in field `name` of a `tag` node; `tag` and
    /// `name` only say where, in errors, which point at `value`'s span.
    fn read(value: Value, tag: &str, name: &str) -> Result<Self, SpecError>;
}

impl Value {
    /// What `take` gets out of this value's kind, or the error that
    /// field `name` of a `tag` node must be `what`.
    fn expect<T>(
        self,
        tag: &str,
        name: &str,
        what: &str,
        take: impl FnOnce(ValueKind) -> Result<T, ValueKind>,
    ) -> Result<T, SpecError> {
        take(self.kind).map_err(|kind| {
            let found = Value::from(kind);
            SpecError::new(format!(
                "{tag}: field {name:?} must be {what}, found {found}"
            ))
            .at(self.span)
        })
    }

    /// An integer that fits `T`, else the error that it is out of range.
    fn int_in<T: TryFrom<u64>>(self, tag: &str, name: &str) -> Result<T, SpecError> {
        let span = self.span;
        T::try_from(u64::read(self, tag, name)?)
            .map_err(|_| SpecError::new(format!("{tag}: field {name:?} out of range")).at(span))
    }
}

impl Read for Value {
    fn read(value: Value, _: &str, _: &str) -> Result<Self, SpecError> {
        Ok(value)
    }
}

impl Read for f64 {
    fn read(value: Value, tag: &str, name: &str) -> Result<Self, SpecError> {
        value.expect(tag, name, "a number", |kind| match kind {
            ValueKind::Num(x) => Ok(x),
            #[allow(clippy::cast_precision_loss)]
            ValueKind::Int(x) => Ok(x as f64),
            kind => Err(kind),
        })
    }
}

impl Read for u64 {
    fn read(value: Value, tag: &str, name: &str) -> Result<Self, SpecError> {
        value.expect(tag, name, "an integer", |kind| match kind {
            ValueKind::Int(x) => Ok(x),
            kind => Err(kind),
        })
    }
}

impl Read for u32 {
    fn read(value: Value, tag: &str, name: &str) -> Result<Self, SpecError> {
        value.int_in(tag, name)
    }
}

impl Read for usize {
    fn read(value: Value, tag: &str, name: &str) -> Result<Self, SpecError> {
        value.int_in(tag, name)
    }
}

impl Read for bool {
    fn read(value: Value, tag: &str, name: &str) -> Result<Self, SpecError> {
        value.expect(tag, name, "true or false", |kind| match kind {
            ValueKind::Word(w) if w == "true" => Ok(true),
            ValueKind::Word(w) if w == "false" => Ok(false),
            kind => Err(kind),
        })
    }
}

/// The text of a string or a word, moved out of the value.
impl Read for String {
    fn read(value: Value, tag: &str, name: &str) -> Result<Self, SpecError> {
        value.expect(tag, name, "a string", |kind| match kind {
            ValueKind::Str(s) | ValueKind::Word(s) => Ok(s),
            kind => Err(kind),
        })
    }
}

/// A list whose every item reads as `T`, in the same field.
impl<T: Read> Read for Vec<T> {
    fn read(value: Value, tag: &str, name: &str) -> Result<Self, SpecError> {
        let items = value.expect(tag, name, "a list", |kind| match kind {
            ValueKind::List(items) => Ok(items),
            kind => Err(kind),
        })?;
        items.into_iter().map(|v| T::read(v, tag, name)).collect()
    }
}

/// Declares how a plain type is written and read, naming each field
/// once: the table yields the type's [`Walk`] and its [`Read`].
///
/// ```text
/// schema! { struct ScenarioSpec = "scenario" { label, seed?, inputs } }
/// schema! {
///     enum NoiseSpec in "noise", "noise kind" {
///         Zero = "zero",
///         Uniform = "uniform" { seed },
///     }
/// }
/// ```
///
/// A struct is one tagged node with its fields in walk order: `?` marks
/// an optional field (an `Option`, written only when set), `as "name"`
/// a field whose document name is not its own. An enum is one node per
/// variant, and a variant without fields is written as its bare word.
/// Its header gives the context word of its reader's errors and what an
/// unknown tag is not; that error lists the variants' tags. The walk is
/// a [`Sink::node`] and one [`Sink::entry`] per field, the read a
/// [`Fields::node`] (or a [`Fields::variant`] matching the tag) and one
/// [`Fields::req`] or [`Fields::opt`] per field, in the same order.
///
/// `$opt` matches nothing: it only records that a field had its `?`.
macro_rules! schema {
    (struct $ty:ident = $tag:literal {
        $($f:ident $(as $name:literal)? $(? $opt:vis)?),* $(,)?
    }) => {
        const _: () = {
            use $crate::{error::SpecError, value::{count, Fields, Read, Sink, Value, Walk}};
            impl Walk for $ty {
                fn walk(&self, s: &mut impl Sink) {
                    let Self { $($f),* } = self;
                    s.node($tag, count(&[$(schema!(@set $f $(? $opt)?)),*]));
                    $(schema!(@entry s $f [$($name)?] $(? $opt)?);)*
                }
            }
            impl Read for $ty {
                fn read(value: Value, _: &str, _: &str) -> Result<Self, SpecError> {
                    Fields::node(value, $tag, |f| {
                        Ok(Self { $($f: schema!(@take f $f [$($name)?] $(? $opt)?)),* })
                    })
                }
            }
        };
    };
    (enum $ty:ident in $context:literal, $what:literal {
        $($variant:ident = $tag:literal $({
            $($f:ident $(as $name:literal)? $(? $opt:vis)?),* $(,)?
        })?),* $(,)?
    }) => {
        const _: () = {
            use $crate::{error::SpecError, value::{count, Fields, Read, Sink, Value, Walk}};
            impl Walk for $ty {
                fn walk(&self, s: &mut impl Sink) {
                    match self {$(
                        Self::$variant { $($($f),*)? } => {
                            s.node($tag, count(&[$($(schema!(@set $f $(? $opt)?)),*)?]));
                            $($(schema!(@entry s $f [$($name)?] $(? $opt)?);)*)?
                        }
                    )*}
                }
            }
            impl Read for $ty {
                fn read(value: Value, _: &str, _: &str) -> Result<Self, SpecError> {
                    Fields::variant(value, $context, |f| Ok(match f.tag.as_str() {
                        $($tag => Self::$variant {
                            $($($f: schema!(@take f $f [$($name)?] $(? $opt)?)),*)?
                        },)*
                        _ => return Err(f.unknown($what, &[$($tag),*])),
                    }))
                }
            }
        };
    };
    (@name $f:ident) => { stringify!($f) };
    (@name $f:ident $name:literal) => { $name };
    (@set $f:ident) => { true };
    (@set $f:ident ? $($opt:tt)*) => { $f.is_some() };
    (@entry $s:ident $f:ident [$($name:literal)?]) => { $s.entry(schema!(@name $f $($name)?), $f) };
    (@entry $s:ident $f:ident [$($name:literal)?] ? $($opt:tt)*) => {
        if let Some($f) = $f { $s.entry(schema!(@name $f $($name)?), $f) }
    };
    (@take $fields:ident $f:ident [$($name:literal)?]) => {
        $fields.req(schema!(@name $f $($name)?))?
    };
    (@take $fields:ident $f:ident [$($name:literal)?] ? $($opt:tt)*) => {
        $fields.opt(schema!(@name $f $($name)?))?
    };
}
pub(crate) use schema;

/// A consuming reader over one node's fields with contextual errors.
///
/// Carries the node's span so every error it raises points back into
/// the text when the value was parsed rather than built, and hands out
/// a field's span ([`span_of`](Fields::span_of)) for a spec reader to
/// record as it consumes the field.
pub(crate) struct Fields {
    pub(crate) tag: String,
    pub(crate) span: Option<Span>,
    /// The node's fields, the `taken` ones first and the rest in
    /// document order. A taken field keeps its name, so a second field
    /// of that name reads as a duplicate, not as unknown.
    fields: Vec<(String, Value)>,
    taken: usize,
}

impl Fields {
    /// The fields of a node (a bare word is a node of none); `context`
    /// names what was expected in the error for any other value.
    pub(crate) fn of(value: Value, context: &str) -> Result<Fields, SpecError> {
        let span = value.span;
        let (tag, fields) = match value.kind {
            ValueKind::Node(tag, fields) => (tag, fields),
            ValueKind::Word(tag) => (tag, Vec::new()),
            other => {
                let found = Value::from(other);
                let message = format!("{context}: expected a tagged node, found {found}");
                return Err(SpecError::new(message).at(span));
            }
        };
        Ok(Fields {
            tag,
            span,
            fields,
            taken: 0,
        })
    }

    /// Reads `value`, a node of one tag: `body` takes its fields, and
    /// any field `body` leaves is an error.
    pub(crate) fn node<T>(
        value: Value,
        tag: &str,
        body: impl FnOnce(&mut Fields) -> Result<T, SpecError>,
    ) -> Result<T, SpecError> {
        Fields::variant(value, tag, |f| {
            f.expect_tag(&[tag])?;
            body(f)
        })
    }

    /// Reads `value`, a node whose tag names a variant: `body` matches
    /// the tag and takes its fields, and any field it leaves is an
    /// error. `context` names what was expected in errors.
    pub(crate) fn variant<T>(
        value: Value,
        context: &str,
        body: impl FnOnce(&mut Fields) -> Result<T, SpecError>,
    ) -> Result<T, SpecError> {
        let mut f = Fields::of(value, context)?;
        let read = body(&mut f)?;
        f.finish()?;
        Ok(read)
    }

    pub(crate) fn expect_tag(&self, expected: &[&str]) -> Result<(), SpecError> {
        if expected.contains(&self.tag.as_str()) {
            Ok(())
        } else {
            Err(SpecError::new(format!(
                "unexpected tag {:?} (expected one of {expected:?})",
                self.tag
            ))
            .at(self.span))
        }
    }

    /// The error that this node's tag names no `what`, listing the
    /// `expected` tags.
    pub(crate) fn unknown(&self, what: &str, expected: &[&str]) -> SpecError {
        let (last, rest) = expected
            .split_last()
            .expect("a variant reader knows its tags");
        let list = if rest.is_empty() {
            (*last).to_owned()
        } else {
            format!("{} or {last}", rest.join(", "))
        };
        let message = format!("unknown {what} {:?} (expected {list})", self.tag);
        SpecError::new(message).at(self.span)
    }

    /// The fields not yet taken, in document order.
    fn left(&self) -> &[(String, Value)] {
        &self.fields[self.taken..]
    }

    /// The span of field `name`, if it is present and not yet taken.
    pub(crate) fn span_of(&self, name: &str) -> Option<Span> {
        self.left().iter().find(|(n, _)| n == name)?.1.span
    }

    /// Moves field `name` to the end of the taken ones, keeping the
    /// rest in document order, and its value out.
    fn take(&mut self, name: &str) -> Option<Value> {
        let i = self.taken + self.left().iter().position(|(n, _)| n == name)?;
        self.fields[self.taken..=i].rotate_right(1);
        let tombstone = Value::from(ValueKind::Int(0));
        let value = std::mem::replace(&mut self.fields[self.taken].1, tombstone);
        self.taken += 1;
        Some(value)
    }

    /// Field `name`, read as a `T`; missing is an error.
    pub(crate) fn req<T: Read>(&mut self, name: &str) -> Result<T, SpecError> {
        match self.take(name) {
            Some(v) => T::read(v, &self.tag, name),
            None => {
                Err(SpecError::new(format!("{}: missing field {name:?}", self.tag)).at(self.span))
            }
        }
    }

    /// Field `name`, read as a `T`; `None` when absent.
    pub(crate) fn opt<T: Read>(&mut self, name: &str) -> Result<Option<T>, SpecError> {
        self.take(name)
            .map(|v| T::read(v, &self.tag, name))
            .transpose()
    }

    /// The node's tag and its unread fields, in document order.
    pub(crate) fn into_parts(mut self) -> (String, Vec<(String, Value)>) {
        self.fields.drain(..self.taken);
        (self.tag, self.fields)
    }

    /// Ends the read: a field left unread is an error, a duplicate when
    /// a field of its name was taken and unknown otherwise.
    pub(crate) fn finish(self) -> Result<(), SpecError> {
        let Some((name, v)) = self.left().first() else {
            return Ok(());
        };
        let taken = &self.fields[..self.taken];
        let what = if taken.iter().any(|(n, _)| n == name) {
            "duplicate"
        } else {
            "unknown"
        };
        Err(SpecError::new(format!("{}: {what} field {name:?}", self.tag)).at(v.span.or(self.span)))
    }
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
            // a literal past f64's range parses as infinite: refused,
            // since a spec holds finite reals only
            return match n.parse::<f64>() {
                Ok(v) if v.is_finite() => Ok(Token::Num(v)),
                _ => Err(self.err(format!("bad number {n:?}"))),
            };
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
    fn reals_past_the_f64_range_are_refused() {
        // they would parse as infinite, which a document cannot hold
        for real in ["1e999", "-1e999", "+2.5e400"] {
            let err = parse_document(&format!("faithful/1 x {{ a = {real} }}")).unwrap_err();
            let expected =
                format!("experiment spec error at line 1, column 20: bad number {real:?}");
            assert_eq!(err.to_string(), expected);
        }
        let largest = parse_document("faithful/1 1.7976931348623157e308").unwrap();
        assert_eq!(largest, Value::num(f64::MAX));
        // an integer past u64 is still a (finite) real
        let big = parse_document("faithful/1 18446744073709551616").unwrap();
        assert_eq!(big, Value::num(18_446_744_073_709_551_616.0));
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
        // ... and so is its key
        assert_eq!(
            Value::node("zero", vec![]).key_bytes(),
            Value::word("zero").key_bytes()
        );
    }

    #[test]
    fn key_bytes_agree_with_the_rendering() {
        let values = [
            Value::num(2.0),
            Value::int(2),
            Value::num(0.0),
            Value::num(-0.0),
            Value::num(f64::INFINITY),
            Value::word("inf"),
            Value::num(f64::NAN),
            Value::num(-f64::NAN),
            Value::word("a"),
            Value::str("a"),
            Value::list(vec![]),
            Value::list(vec![Value::word("a")]),
            Value::list(vec![Value::word("a"), Value::word("b")]),
            Value::node("a", vec![]),
            Value::node("a", vec![("b".into(), Value::int(1))]),
            Value::node("a", vec![("b".into(), Value::num(1.0))]),
            Value::node("ab", vec![("c".into(), Value::int(1))]),
        ];
        for a in &values {
            for b in &values {
                let texts = a.to_string() == b.to_string();
                assert_eq!(texts, a.key_bytes() == b.key_bytes(), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn key_hash_is_pinned() {
        // names on-disk cache entries, so it may not change silently
        assert_eq!(key_hash(b""), 0x24fb_90e3_b201_aa88, "{:#x}", key_hash(b""));
        let key = Value::node("pulse", vec![("at".into(), Value::num(1.5))]).key_bytes();
        assert_eq!(
            key_hash(&key),
            0x04e7_b7ca_d496_3da3,
            "{:#x}",
            key_hash(&key)
        );
    }
}
