//! The workspace's one JSON codec, std-only like the rest of this crate.
//!
//! * **Writing.** [`JsonWriter`] streams any [`ToJson`] value either
//!   compact ([`to_string`]: no whitespace) or pretty ([`to_string_pretty`]:
//!   two-space indent, `": "` after keys, empty containers as `[]`/`{}`).
//!   Every JSON document of the workspace goes through it: `.json` files
//!   are written pretty, `.jsonl` lines compact. Floats are written with
//!   `{:?}`, the shortest text that parses back to the same bits;
//!   non-finite floats become `null`.
//! * **Reading.** [`Value::parse`] is a recursive-descent reader with a
//!   nesting limit of [`MAX_DEPTH`]. A [`Value`] borrows from its input:
//!   number lexemes and escape-free strings are slices of the document, so
//!   `u64` seeds round-trip exactly and a large weight array costs no
//!   allocation per number. [`FromJson`] rebuilds a typed value from it;
//!   unknown object keys are ignored, a missing `Option` field reads as
//!   `None`.
//! * **Structs and enums.** [`json_struct!`](crate::json_struct) implements
//!   the traits for a struct with named fields, [`json_enum!`](crate::json_enum)
//!   for an enum of unit variants (written as the variant's name).

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Nesting depth at which [`Value::parse`] gives up, so a hostile document
/// cannot exhaust the stack.
pub const MAX_DEPTH: usize = 128;

/// Appends `s` as a JSON string literal, escaping per RFC 8259.
fn push_str_literal(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `n` two-space indentation levels.
fn push_indent(out: &mut String, n: usize) {
    for _ in 0..n {
        out.push_str("  ");
    }
}

/// Streams JSON text, compact or pretty.
pub struct JsonWriter {
    out: String,
    pretty: bool,
    /// One entry per open array or object: whether it has an element yet.
    open: Vec<bool>,
    /// A key was just written, so the next value needs no separator.
    after_key: bool,
}

impl JsonWriter {
    fn new(pretty: bool) -> Self {
        JsonWriter {
            out: String::new(),
            pretty,
            open: Vec::new(),
            after_key: false,
        }
    }

    /// Writes the separator (and, pretty, the line break and indentation)
    /// that precedes the next array element or object key.
    fn separate(&mut self) {
        if std::mem::take(&mut self.after_key) {
            return;
        }
        if let Some(has_element) = self.open.last_mut() {
            if std::mem::replace(has_element, true) {
                self.out.push(',');
            }
            if self.pretty {
                self.out.push('\n');
                push_indent(&mut self.out, self.open.len());
            }
        }
    }

    fn open(&mut self, bracket: char) {
        self.separate();
        self.out.push(bracket);
        self.open.push(false);
    }

    fn close(&mut self, bracket: char) {
        if self.open.pop() == Some(true) && self.pretty {
            self.out.push('\n');
            push_indent(&mut self.out, self.open.len());
        }
        self.out.push(bracket);
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.separate();
        self.out.push_str("null");
    }

    /// Writes a number or literal whose `Display` text is valid JSON.
    pub fn raw(&mut self, text: impl std::fmt::Display) {
        self.separate();
        let _ = write!(self.out, "{text}");
    }

    /// Writes a string literal.
    pub fn string(&mut self, s: &str) {
        self.separate();
        push_str_literal(&mut self.out, s);
    }

    /// Opens an array.
    pub fn begin_array(&mut self) {
        self.open('[');
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) {
        self.close(']');
    }

    /// Opens an object.
    pub fn begin_object(&mut self) {
        self.open('{');
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) {
        self.close('}');
    }

    /// Writes an object key; the next value written is its value.
    pub fn key(&mut self, key: &str) {
        self.separate();
        push_str_literal(&mut self.out, key);
        self.out.push_str(if self.pretty { ": " } else { ":" });
        self.after_key = true;
    }

    /// Writes one `key: value` member of the open object.
    pub fn field<T: ToJson + ?Sized>(&mut self, key: &str, value: &T) {
        self.key(key);
        value.write_json(self);
    }

    /// Writes `(key, value)` pairs as one object, in slice order.
    pub fn object<K: AsRef<str>, V: ToJson>(&mut self, members: &[(K, V)]) {
        self.begin_object();
        for (k, v) in members {
            self.field(k.as_ref(), v);
        }
        self.end_object();
    }
}

/// Types written as JSON.
pub trait ToJson {
    /// Writes `self` as one JSON value.
    fn write_json(&self, w: &mut JsonWriter);
}

/// Compact JSON text of `value`: no whitespace, fields in declaration order.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    let mut w = JsonWriter::new(false);
    value.write_json(&mut w);
    w.out
}

/// Pretty JSON text of `value`: two-space indent, one element per line.
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    let mut w = JsonWriter::new(true);
    value.write_json(&mut w);
    w.out
}

/// Types read back from a parsed [`Value`].
pub trait FromJson: Sized {
    /// Rebuilds `Self` from `v`.
    ///
    /// # Errors
    /// A message naming what was expected where the value differs.
    fn from_value(v: &Value<'_>) -> Result<Self, String>;

    /// The value of a struct field absent from its object: `None` (an
    /// error), except for `Option`, which reads as `Some(None)`.
    fn missing() -> Option<Self> {
        None
    }
}

/// Parses JSON text into a `T`.
///
/// # Errors
/// Malformed JSON, or a document that does not match `T`.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, String> {
    T::from_value(&Value::parse(text)?)
}

/// Parses UTF-8 JSON bytes into a `T`.
///
/// # Errors
/// Invalid UTF-8, malformed JSON, or a document that does not match `T`.
pub fn from_slice<T: FromJson>(bytes: &[u8]) -> Result<T, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| format!("invalid UTF-8: {e}"))?;
    from_str(text)
}

/// A parsed JSON value, borrowing from the document it was parsed from.
#[derive(Clone, Debug, PartialEq)]
pub enum Value<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its source lexeme.
    Num(&'a str),
    /// A string (borrowed unless it contained escapes).
    Str(Cow<'a, str>),
    /// An array.
    Arr(Vec<Value<'a>>),
    /// An object, members in source order.
    Obj(Vec<(Cow<'a, str>, Value<'a>)>),
}

impl<'a> Value<'a> {
    /// Parses a complete JSON document (surrounding whitespace allowed).
    ///
    /// # Errors
    /// Malformed JSON, or nesting deeper than [`MAX_DEPTH`].
    pub fn parse(input: &'a str) -> Result<Value<'a>, String> {
        let mut p = Parser { src: input, pos: 0 };
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != input.len() {
            return Err(p.error("trailing characters"));
        }
        Ok(v)
    }

    /// The value as an unsigned integer, if it is a non-negative integer
    /// lexeme.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as a float.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Value<'a>]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as object members.
    pub fn as_obj(&self) -> Option<&[(Cow<'a, str>, Value<'a>)]> {
        match self {
            Value::Obj(v) => Some(v),
            _ => None,
        }
    }

    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Value<'a>> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "a boolean",
            Value::Num(_) => "a number",
            Value::Str(_) => "a string",
            Value::Arr(_) => "an array",
            Value::Obj(_) => "an object",
        }
    }

    /// `expected X, found Y` for this value.
    pub fn invalid(&self, expected: &str) -> String {
        format!("expected {expected}, found {}", self.kind())
    }
}

impl ToJson for Value<'_> {
    fn write_json(&self, w: &mut JsonWriter) {
        match self {
            Value::Null => w.null(),
            Value::Bool(b) => w.raw(b),
            Value::Num(text) => w.raw(text),
            Value::Str(s) => w.string(s),
            Value::Arr(items) => items.write_json(w),
            Value::Obj(members) => {
                w.begin_object();
                for (k, v) in members {
                    w.field(k, v);
                }
                w.end_object();
            }
        }
    }
}

/// The members of an object value that decodes as a `ty` (used by
/// [`json_struct!`](crate::json_struct) and hand-written decoders).
///
/// # Errors
/// When `v` is not an object.
pub fn members<'v, 'a>(
    v: &'v Value<'a>,
    ty: &str,
) -> Result<&'v [(Cow<'a, str>, Value<'a>)], String> {
    v.as_obj()
        .ok_or_else(|| format!("{ty}: {}", v.invalid("an object")))
}

/// Decodes member `name` of a `ty` object; `Ok(None)` when it is absent.
///
/// # Errors
/// When the member is present but does not decode as a `T`.
pub fn optional<T: FromJson>(
    members: &[(Cow<'_, str>, Value<'_>)],
    ty: &str,
    name: &str,
) -> Result<Option<T>, String> {
    match members.iter().find(|(k, _)| k == name) {
        Some((_, v)) => T::from_value(v)
            .map(Some)
            .map_err(|e| format!("{ty}.{name}: {e}")),
        None => Ok(None),
    }
}

/// Decodes member `name` of a `ty` object, which must be present unless
/// `T` is an `Option`.
///
/// # Errors
/// When the member is missing or does not decode as a `T`.
pub fn required<T: FromJson>(
    members: &[(Cow<'_, str>, Value<'_>)],
    ty: &str,
    name: &str,
) -> Result<T, String> {
    optional(members, ty, name)?
        .or_else(T::missing)
        .ok_or_else(|| format!("{ty}: missing field `{name}`"))
}

/// Implements [`ToJson`] and/or [`FromJson`] for a struct with named
/// fields, written as an object with the fields in the order listed.
///
/// A field written `name = expr` decodes to `expr` when its key is absent;
/// a trailing `..expr` supplies every absent field from the struct value
/// `expr` (serde's container-level default). Other absent fields are an
/// error unless they are `Option`s.
///
/// ```
/// use fairwos_obs::json::{self, FromJson};
///
/// #[derive(Debug, PartialEq)]
/// struct Cfg {
///     alpha: f32,
///     k: usize,
///     tag: Option<String>,
/// }
/// fairwos_obs::json_struct!(ToJson, FromJson for Cfg { alpha, k = 2, tag });
///
/// let cfg = Cfg { alpha: 0.5, k: 3, tag: None };
/// assert_eq!(json::to_string(&cfg), r#"{"alpha":0.5,"k":3,"tag":null}"#);
/// let legacy: Cfg = json::from_str(r#"{"alpha":0.5,"extra":1}"#).unwrap();
/// assert_eq!(legacy, Cfg { alpha: 0.5, k: 2, tag: None });
/// ```
#[macro_export]
macro_rules! json_struct {
    ($($tr:ident),+ for $ty:ident $fields:tt) => {
        $( $crate::json_struct!(@$tr $ty $fields); )+
    };
    (@ToJson $ty:ident { $($f:ident $(= $d:expr)?),* $(, ..$base:expr)? $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn write_json(&self, w: &mut $crate::json::JsonWriter) {
                w.begin_object();
                $( w.field(stringify!($f), &self.$f); )*
                w.end_object();
            }
        }
    };
    (@FromJson $ty:ident { $($f:ident),* , ..$base:expr $(,)? }) => {
        impl $crate::json::FromJson for $ty {
            fn from_value(
                v: &$crate::json::Value<'_>,
            ) -> ::std::result::Result<Self, ::std::string::String> {
                let m = $crate::json::members(v, stringify!($ty))?;
                let base: $ty = $base;
                ::std::result::Result::Ok($ty {
                    $( $f: $crate::json::optional(m, stringify!($ty), stringify!($f))?
                        .unwrap_or(base.$f), )*
                })
            }
        }
    };
    (@FromJson $ty:ident { $($f:ident $(= $d:expr)?),* $(,)? }) => {
        impl $crate::json::FromJson for $ty {
            fn from_value(
                v: &$crate::json::Value<'_>,
            ) -> ::std::result::Result<Self, ::std::string::String> {
                let m = $crate::json::members(v, stringify!($ty))?;
                ::std::result::Result::Ok($ty {
                    $( $f: $crate::json_struct!(@field m $ty $f $($d)?), )*
                })
            }
        }
    };
    (@field $m:ident $ty:ident $f:ident) => {
        $crate::json::required($m, stringify!($ty), stringify!($f))?
    };
    (@field $m:ident $ty:ident $f:ident $d:expr) => {
        $crate::json::optional($m, stringify!($ty), stringify!($f))?.unwrap_or_else(|| $d)
    };
}

/// Implements [`ToJson`] and/or [`FromJson`] for an enum of unit variants,
/// each written as its name.
///
/// ```
/// use fairwos_obs::json;
///
/// #[derive(Debug, PartialEq)]
/// enum Mode {
///     Fast,
///     Exact,
/// }
/// fairwos_obs::json_enum!(ToJson, FromJson for Mode { Fast, Exact });
///
/// assert_eq!(json::to_string(&Mode::Exact), "\"Exact\"");
/// assert_eq!(json::from_str::<Mode>("\"Fast\""), Ok(Mode::Fast));
/// assert!(json::from_str::<Mode>("\"Slow\"").is_err());
/// ```
#[macro_export]
macro_rules! json_enum {
    ($($tr:ident),+ for $ty:ident $variants:tt) => {
        $( $crate::json_enum!(@$tr $ty $variants); )+
    };
    (@ToJson $ty:ident { $($v:ident),* $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn write_json(&self, w: &mut $crate::json::JsonWriter) {
                w.string(match self { $( $ty::$v => stringify!($v), )* });
            }
        }
    };
    (@FromJson $ty:ident { $($v:ident),* $(,)? }) => {
        impl $crate::json::FromJson for $ty {
            fn from_value(
                v: &$crate::json::Value<'_>,
            ) -> ::std::result::Result<Self, ::std::string::String> {
                match v.as_str() {
                    $( ::std::option::Option::Some(stringify!($v)) => {
                        ::std::result::Result::Ok($ty::$v)
                    } )*
                    ::std::option::Option::Some(other) => ::std::result::Result::Err(
                        ::std::format!("unknown variant `{other}` of {}", stringify!($ty)),
                    ),
                    ::std::option::Option::None => ::std::result::Result::Err(
                        v.invalid(::std::concat!("a ", stringify!($ty), " variant name")),
                    ),
                }
            }
        }
    };
}

// ---------------------------------------------------------------------------
// Leaf impls.
// ---------------------------------------------------------------------------

impl ToJson for bool {
    fn write_json(&self, w: &mut JsonWriter) {
        w.raw(self);
    }
}

impl FromJson for bool {
    fn from_value(v: &Value<'_>) -> Result<Self, String> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(other.invalid("a boolean")),
        }
    }
}

macro_rules! numbers {
    ($($t:ty),*) => {$(
        impl FromJson for $t {
            fn from_value(v: &Value<'_>) -> Result<Self, String> {
                match v {
                    Value::Num(text) => text
                        .parse()
                        .map_err(|_| format!("invalid {}: {text}", stringify!($t))),
                    other => Err(other.invalid(stringify!($t))),
                }
            }
        }
    )*};
}

macro_rules! integers {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, w: &mut JsonWriter) {
                w.raw(self);
            }
        }
    )*};
}

macro_rules! floats {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, w: &mut JsonWriter) {
                // JSON has no NaN/Infinity, so non-finite values (which the
                // `checked` feature exists to catch much earlier) become
                // `null` rather than an unparseable file.
                if self.is_finite() {
                    // `{:?}` is the shortest text that parses back exactly and
                    // never has a locale-dependent separator.
                    w.raw(format_args!("{self:?}"));
                } else {
                    w.null();
                }
            }
        }
    )*};
}

numbers!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, isize, f32, f64);
integers!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, isize);
floats!(f32, f64);

impl ToJson for str {
    fn write_json(&self, w: &mut JsonWriter) {
        w.string(self);
    }
}

impl ToJson for String {
    fn write_json(&self, w: &mut JsonWriter) {
        w.string(self);
    }
}

impl FromJson for String {
    fn from_value(v: &Value<'_>) -> Result<Self, String> {
        match v {
            Value::Str(s) => Ok(s.to_string()),
            other => Err(other.invalid("a string")),
        }
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, w: &mut JsonWriter) {
        (**self).write_json(w);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, w: &mut JsonWriter) {
        match self {
            Some(v) => v.write_json(w),
            None => w.null(),
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_value(v: &Value<'_>) -> Result<Self, String> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }

    fn missing() -> Option<Self> {
        Some(None)
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_array();
        for item in self {
            item.write_json(w);
        }
        w.end_array();
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, w: &mut JsonWriter) {
        self.as_slice().write_json(w);
    }
}

fn items<'v, 'a>(v: &'v Value<'a>) -> Result<&'v [Value<'a>], String> {
    v.as_arr().ok_or_else(|| v.invalid("an array"))
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_value(v: &Value<'_>) -> Result<Self, String> {
        items(v)?.iter().map(T::from_value).collect()
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn write_json(&self, w: &mut JsonWriter) {
        self.as_slice().write_json(w);
    }
}

impl<T: FromJson, const N: usize> FromJson for [T; N] {
    fn from_value(v: &Value<'_>) -> Result<Self, String> {
        let items: Vec<T> = Vec::from_value(v)?;
        let len = items.len();
        items
            .try_into()
            .map_err(|_| format!("expected an array of length {N}, found length {len}"))
    }
}

macro_rules! tuples {
    ($($len:literal => ($($name:ident $idx:tt),+)),*) => {$(
        impl<$($name: ToJson),+> ToJson for ($($name,)+) {
            fn write_json(&self, w: &mut JsonWriter) {
                w.begin_array();
                $( self.$idx.write_json(w); )+
                w.end_array();
            }
        }

        impl<$($name: FromJson),+> FromJson for ($($name,)+) {
            fn from_value(v: &Value<'_>) -> Result<Self, String> {
                let items = items(v)?;
                if items.len() != $len {
                    return Err(format!(
                        "expected a tuple of {}, found an array of {}", $len, items.len()
                    ));
                }
                Ok(($($name::from_value(&items[$idx])?,)+))
            }
        }
    )*};
}

tuples!(2 => (A 0, B 1), 3 => (A 0, B 1, C 2));

impl<T: ToJson> ToJson for BTreeMap<String, T> {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        for (k, v) in self {
            w.field(k, v);
        }
        w.end_object();
    }
}

// ---------------------------------------------------------------------------
// The reader.
// ---------------------------------------------------------------------------

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\n' | b'\r' | b'\t') = self.peek() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> Result<(), String> {
        if self.src[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.error("expected a value"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value<'a>, String> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting deeper than 128 levels"));
        }
        self.skip_ws();
        match self.peek() {
            None => Err(self.error("end of input while parsing a value")),
            Some(b'n') => self.eat("null").map(|()| Value::Null),
            Some(b't') => self.eat("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.eat("false").map(|()| Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("expected a value")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value<'a>, String> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value<'a>, String> {
        self.pos += 1;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.error("expected a key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.error("expected `:`"));
            }
            self.pos += 1;
            members.push((key, self.value(depth + 1)?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }

    fn digits(&mut self) -> bool {
        let start = self.pos;
        while let Some(b'0'..=b'9') = self.peek() {
            self.pos += 1;
        }
        self.pos > start
    }

    fn number(&mut self) -> Result<Value<'a>, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut ok = self.digits();
        if ok && self.peek() == Some(b'.') {
            self.pos += 1;
            ok = self.digits();
        }
        if ok && matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if let Some(b'+' | b'-') = self.peek() {
                self.pos += 1;
            }
            ok = self.digits();
        }
        if !ok {
            return Err(self.error("invalid number"));
        }
        let src = self.src;
        Ok(Value::Num(&src[start..self.pos]))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let code = self
            .src
            .get(self.pos..self.pos + 4)
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.error("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    /// Reads a string literal. The run between escapes is found by a byte
    /// scan and copied as one slice (the scan stops only at ASCII bytes, so
    /// every cut is a character boundary); a literal without escapes is
    /// borrowed whole.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.pos += 1; // the opening quote
        let src = self.src;
        let bytes = src.as_bytes();
        let mut owned: Option<String> = None;
        loop {
            let start = self.pos;
            while let Some(&b) = bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            let run = &src[start..self.pos];
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(run),
                        Some(mut s) => {
                            s.push_str(run);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(b'\\') => {
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(run);
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| self.error("end of input in string"))?;
                    self.pos += 1;
                    let c = match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                self.eat("\\u")?;
                                let lo = self.hex4()?;
                                0x10000 + ((hi - 0xD800) << 10) + (lo.wrapping_sub(0xDC00) & 0x3FF)
                            } else {
                                hi
                            };
                            char::from_u32(code).ok_or_else(|| self.error("invalid code point"))?
                        }
                        _ => return Err(self.error("invalid escape")),
                    };
                    out.push(c);
                }
                _ => return Err(self.error("control character or end of input in string")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(s: &str) -> String {
        let mut out = String::new();
        push_str_literal(&mut out, s);
        out
    }

    #[test]
    fn escapes_quotes_backslashes_and_control_chars() {
        assert_eq!(lit("plain"), "\"plain\"");
        assert_eq!(lit("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(lit("line\nbreak\ttab"), "\"line\\nbreak\\ttab\"");
        assert_eq!(lit("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn floats_round_trip_and_non_finite_becomes_null() {
        let out = to_string(&[1.25, 0.1, f64::NAN, f64::INFINITY]);
        assert_eq!(out, "[1.25,0.1,null,null]");
    }

    #[test]
    fn parses_nested_document() {
        let v = Value::parse(
            r#"{"seed": 18446744073709551615, "rules": {"a/b": [{"p": 0.25, "ok": true}]}}"#,
        )
        .unwrap_or_else(|e| panic!("parse: {e}"));
        assert_eq!(v.get("seed").and_then(Value::as_u64), Some(u64::MAX));
        let rules = v
            .get("rules")
            .and_then(|r| r.get("a/b"))
            .and_then(Value::as_arr);
        let first = rules.and_then(|r| r.first());
        assert_eq!(
            first.and_then(|f| f.get("p")).and_then(Value::as_f64),
            Some(0.25)
        );
        assert_eq!(first.and_then(|f| f.get("ok")), Some(&Value::Bool(true)));
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_syntax() {
        for bad in [
            "{} x",
            "{\"a\": }",
            "[1, 2",
            "\"unterminated",
            "\"raw\ncontrol\"",
            "1.",
            "-",
            "1e",
            "{\"a\" 1}",
            "[1,]",
            "nul",
            "",
        ] {
            assert!(Value::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let text = "a\"b\\c\nd\te\u{1}\u{8}\u{c}é😀";
        let out = lit(text);
        let v = Value::parse(&out).unwrap_or_else(|e| panic!("parse: {e}"));
        assert_eq!(v.as_str(), Some(text));
        let pair = Value::parse(r#""\ud83d\ude00 \u00e9 \/""#).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(pair.as_str(), Some("😀 é /"));
    }

    #[test]
    fn escape_free_strings_and_numbers_borrow_the_input() {
        let v = Value::parse(r#"["plain", "esc\"aped", 1.5e-3]"#).unwrap_or_else(|e| panic!("{e}"));
        let items = v.as_arr().unwrap_or_default();
        assert!(matches!(&items[0], Value::Str(Cow::Borrowed("plain"))));
        assert!(matches!(&items[1], Value::Str(Cow::Owned(s)) if s == "esc\"aped"));
        assert_eq!(items[2], Value::Num("1.5e-3"));
    }

    #[test]
    fn nesting_is_limited_without_exhausting_the_stack() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Value::parse(&ok).is_ok());
        let too_deep = format!("{}{}", "[".repeat(MAX_DEPTH + 2), "]".repeat(MAX_DEPTH + 2));
        assert!(Value::parse(&too_deep).is_err());
        assert!(Value::parse(&"[".repeat(100_000)).is_err());
        assert!(Value::parse(&"{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn integers_and_floats_round_trip_exactly() {
        let xs = vec![0.1f32, -1e-30, 3.4028235e38, 1.0 / 3.0, f32::MIN_POSITIVE];
        let back: Vec<f32> = from_str(&to_string(&xs)).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(
            xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            back.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        let ys = vec![u64::MAX, 0];
        let back: Vec<u64> = from_str(&to_string(&ys)).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(ys, back);
        assert_eq!(to_string(&[f64::NAN, 1.0]), "[null,1.0]");
        assert_eq!(to_string(&u128::MAX), u128::MAX.to_string());
        assert!(from_str::<u8>("256").is_err());
        assert!(from_str::<f32>("null").is_err());
    }

    #[test]
    fn pretty_layout_matches_two_space_indent() {
        let mut m = BTreeMap::new();
        m.insert("b".to_string(), vec![(1u8, true)]);
        m.insert("e".to_string(), Vec::new());
        assert_eq!(
            to_string_pretty(&m),
            "{\n  \"b\": [\n    [\n      1,\n      true\n    ]\n  ],\n  \"e\": []\n}"
        );
        assert_eq!(to_string(&m), r#"{"b":[[1,true]],"e":[]}"#);
        assert_eq!(to_string_pretty(&BTreeMap::<String, u8>::new()), "{}");
    }

    #[derive(Debug, PartialEq)]
    struct Inner {
        x: u32,
        name: String,
    }
    crate::json_struct!(ToJson, FromJson for Inner { x, name });

    #[derive(Debug, PartialEq)]
    struct Outer {
        inner: Inner,
        maybe: Option<Inner>,
        pair: (f32, u64),
        seed: [u8; 2],
        defaulted: usize,
    }
    crate::json_struct!(ToJson, FromJson for Outer { inner, maybe, pair, seed, defaulted = 7 });

    #[derive(Clone, Copy, Debug, PartialEq)]
    struct Based {
        a: u8,
        b: u8,
    }
    impl Default for Based {
        fn default() -> Self {
            Based { a: 1, b: 2 }
        }
    }
    crate::json_struct!(FromJson for Based { a, b, ..Based::default() });

    #[derive(Debug, PartialEq)]
    enum Mode {
        Fast,
        Exact,
    }
    crate::json_enum!(ToJson, FromJson for Mode { Fast, Exact });

    #[test]
    fn structs_follow_the_declared_reading_rules() {
        let o = Outer {
            inner: Inner {
                x: 3,
                name: "n".into(),
            },
            maybe: None,
            pair: (0.5, u64::MAX),
            seed: [1, 2],
            defaulted: 9,
        };
        let text = to_string(&o);
        assert_eq!(
            text,
            r#"{"inner":{"x":3,"name":"n"},"maybe":null,"pair":[0.5,18446744073709551615],"seed":[1,2],"defaulted":9}"#
        );
        assert_eq!(from_str::<Outer>(&text), Ok(o));

        // Unknown keys are ignored, a missing Option is None, a missing
        // defaulted field takes its default, a missing plain field fails.
        let legacy: Outer = from_str(
            r#"{"inner":{"x":1,"name":"a","new":[1]},"pair":[1,2],"seed":[0,0],"extra":{}}"#,
        )
        .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(legacy.maybe, None);
        assert_eq!(legacy.defaulted, 7);
        let err = from_str::<Outer>(r#"{"inner":{"x":1},"pair":[1,2],"seed":[0,0]}"#);
        assert!(
            matches!(&err, Err(e) if e.contains("missing field `name`")),
            "{err:?}"
        );
        assert!(
            from_str::<Outer>(r#"{"inner":{"x":1,"name":"a"},"pair":[1],"seed":[0,0]}"#).is_err()
        );
        assert!(
            from_str::<Outer>(r#"{"inner":{"x":1,"name":"a"},"pair":[1,2],"seed":[0]}"#).is_err()
        );

        assert_eq!(from_str::<Based>(r#"{"b":5}"#), Ok(Based { a: 1, b: 5 }));
        assert_eq!(to_string(&[Mode::Fast, Mode::Exact]), r#"["Fast","Exact"]"#);
        assert_eq!(from_str::<Mode>("\"Exact\""), Ok(Mode::Exact));
        assert!(from_str::<Mode>("\"Other\"").is_err());
        assert!(from_str::<Mode>("1").is_err());
    }
}
