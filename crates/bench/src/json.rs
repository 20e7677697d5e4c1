//! The bench crate's one JSON codec: a value type, one writer and one
//! parser, shared by the checkpoint, the stats export, the bench records
//! and the figure reports.
//!
//! The workspace builds offline, without serde, so this is a hand-rolled
//! subset: objects, arrays, strings, numbers and `null`. A parsed number
//! keeps its source text and converts in the accessor, so a `u64` counter
//! stays exact and a float written by [`Json::decimal`] reads back to the
//! same bits.
//!
//! Types encode through [`Codec`]; the [`codec!`] macro lists a struct's
//! fields once and derives both directions, as an object keyed by field
//! name. Decoding is strict: a missing, unknown, repeated or wrongly typed
//! field rejects the whole value.

use std::collections::BTreeSet;
use std::fmt::{self, Write};
use std::sync::{Mutex, PoisonError};

/// One JSON value; its `Display` is the crate's one JSON writer.
///
/// The figure binaries build their reports from it.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// A number, as its source text.
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object's fields in order; a parsed object keeps repeated names.
    Obj(Vec<(String, Json)>),
}

/// Why a text did not parse, or a value did not decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct JsonError(String);

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl Json {
    /// An object with the given fields, in order.
    pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
        Json::Obj(fields.map(|(k, v)| (k.to_string(), v)).into())
    }

    /// A string value.
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    /// A float in plain decimal, for values read by people and plots: the
    /// shortest text that parses back to the same bits, with `.0` on
    /// whole numbers below 10^15. A non-finite float is `null`.
    pub fn decimal(v: f64) -> Json {
        if !v.is_finite() {
            Json::Null
        } else if v == v.trunc() && v.abs() < 1e15 {
            Json::Num(format!("{v:.1}"))
        } else {
            Json::Num(format!("{v}"))
        }
    }

    /// An array of [`Json::decimal`] floats.
    pub fn decimals(values: &[f64]) -> Json {
        Json::Arr(values.iter().map(|&v| Json::decimal(v)).collect())
    }

    /// Parses one JSON text; anything after the value but whitespace is
    /// an error.
    pub(crate) fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser { text, pos: 0 };
        match p.value() {
            Some(v) if p.peek().is_none() => Ok(v),
            _ => Err(JsonError(format!("malformed JSON at byte {}", p.pos))),
        }
    }

    fn expected(&self, what: &str) -> JsonError {
        JsonError(format!("want {what}, got {self}"))
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n.to_string())
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Num(text) => f.write_str(text),
            Json::Str(s) => write_string(f, s),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    v.fmt(f)?;
                }
                f.write_char(']')
            }
            Json::Obj(fields) => {
                f.write_char('{')?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write_string(f, k)?;
                    f.write_char(':')?;
                    v.fmt(f)?;
                }
                f.write_char('}')
            }
        }
    }
}

/// Writes a quoted string: quote, backslash and control characters are
/// escaped, everything else is written as is.
fn write_string(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    /// The next non-whitespace byte, left unconsumed.
    fn peek(&mut self) -> Option<u8> {
        let rest = &self.text[self.pos..];
        self.pos += rest.len() - rest.trim_start_matches([' ', '\t', '\n', '\r']).len();
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Option<()> {
        (self.peek()? == b).then(|| self.pos += 1)
    }

    fn value(&mut self) -> Option<Json> {
        match self.peek()? {
            b'{' => {
                self.pos += 1;
                let fields = self.list(b'}', |p| {
                    let key = p.string()?;
                    p.eat(b':')?;
                    Some((key, p.value()?))
                })?;
                Some(Json::Obj(fields))
            }
            b'[' => {
                self.pos += 1;
                self.list(b']', Self::value).map(Json::Arr)
            }
            b'"' => self.string().map(Json::Str),
            b'-' | b'0'..=b'9' => self.number(),
            _ if self.text[self.pos..].starts_with("null") => {
                self.pos += 4;
                Some(Json::Null)
            }
            _ => None,
        }
    }

    /// Comma-separated items up to `close`; the opening bracket is
    /// already consumed.
    fn list<T>(&mut self, close: u8, item: impl Fn(&mut Self) -> Option<T>) -> Option<Vec<T>> {
        let mut items = Vec::new();
        if self.eat(close).is_some() {
            return Some(items);
        }
        loop {
            items.push(item(self)?);
            if self.eat(b',').is_none() {
                self.eat(close)?;
                return Some(items);
            }
        }
    }

    fn string(&mut self) -> Option<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.text[self.pos..];
            let end = rest.find(|c: char| c == '"' || c == '\\' || c < ' ')?;
            out.push_str(&rest[..end]);
            self.pos += end + 1;
            match rest.as_bytes()[end] {
                b'"' => return Some(out),
                b'\\' => {
                    let escape = *self.text.as_bytes().get(self.pos)?;
                    self.pos += 1;
                    out.push(match escape {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => {
                            let hex = self.text.get(self.pos..self.pos + 4)?;
                            self.pos += 4;
                            char::from_u32(u32::from_str_radix(hex, 16).ok()?)?
                        }
                        _ => return None,
                    });
                }
                _ => return None, // a raw control character
            }
        }
    }

    fn number(&mut self) -> Option<Json> {
        let rest = &self.text[self.pos..];
        let len = rest
            .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
            .unwrap_or(rest.len());
        let text = &rest[..len];
        text.parse::<f64>().ok()?;
        self.pos += len;
        Some(Json::Num(text.to_string()))
    }
}

/// A type with one JSON encoding: unsigned integers as numbers, `f64` as
/// its IEEE-754 bit pattern (so NaN and every bit round-trip), strings,
/// `Vec` as an array, a pair as a two-element array, and a struct
/// declared with [`codec!`] as an object keyed by field name.
pub(crate) trait Codec: Sized {
    fn encode(&self) -> Json;

    fn decode(v: &Json) -> Result<Self, JsonError>;

    /// Appends `self` as the object field `name`; `None` is left out.
    fn put_field(&self, name: &str, fields: &mut Vec<(String, Json)>) {
        fields.push((name.to_string(), self.encode()));
    }

    /// Decodes the object field `name` from its value, if present; only
    /// an `Option` may be absent.
    fn take_field(v: Option<&Json>, name: &str) -> Result<Self, JsonError> {
        let v = v.ok_or_else(|| JsonError(format!("missing field {name:?}")))?;
        Self::decode(v).map_err(|e| JsonError(format!("{name}: {e}")))
    }
}

macro_rules! uint_codec {
    ($($t:ty),*) => {$(
        impl Codec for $t {
            fn encode(&self) -> Json {
                Json::Num(self.to_string())
            }

            fn decode(v: &Json) -> Result<Self, JsonError> {
                match v {
                    Json::Num(text) => text.parse().ok(),
                    _ => None,
                }
                .ok_or_else(|| v.expected(concat!("a whole number in ", stringify!($t), " range")))
            }
        }
    )*};
}

uint_codec!(u8, u32, u64, usize);

impl Codec for f64 {
    fn encode(&self) -> Json {
        self.to_bits().encode()
    }

    fn decode(v: &Json) -> Result<Self, JsonError> {
        u64::decode(v).map(f64::from_bits)
    }
}

impl Codec for String {
    fn encode(&self) -> Json {
        Json::str(self)
    }

    fn decode(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Str(s) => Ok(s.clone()),
            _ => Err(v.expected("a string")),
        }
    }
}

/// Decoded names are interned: each distinct name is leaked once per
/// process, however many lines or files carry it.
impl Codec for &'static str {
    fn encode(&self) -> Json {
        Json::str(self)
    }

    fn decode(v: &Json) -> Result<Self, JsonError> {
        static NAMES: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
        let Json::Str(s) = v else {
            return Err(v.expected("a string"));
        };
        let mut names = NAMES.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(&name) = names.get(s.as_str()) {
            return Ok(name);
        }
        let name: &'static str = Box::leak(s.clone().into_boxed_str());
        names.insert(name);
        Ok(name)
    }
}

impl Codec for Json {
    fn encode(&self) -> Json {
        self.clone()
    }

    fn decode(v: &Json) -> Result<Self, JsonError> {
        Ok(v.clone())
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self) -> Json {
        Json::Arr(self.iter().map(Codec::encode).collect())
    }

    fn decode(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Arr(items) => items.iter().map(T::decode).collect(),
            _ => Err(v.expected("an array")),
        }
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self) -> Json {
        Json::Arr(vec![self.0.encode(), self.1.encode()])
    }

    fn decode(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Arr(pair) if pair.len() == 2 => Ok((A::decode(&pair[0])?, B::decode(&pair[1])?)),
            _ => Err(v.expected("a two-element array")),
        }
    }
}

/// An optional section: `null` as a value, left out as a field.
impl<T: Codec> Codec for Option<T> {
    fn encode(&self) -> Json {
        self.as_ref().map_or(Json::Null, Codec::encode)
    }

    fn decode(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Null => Ok(None),
            v => T::decode(v).map(Some),
        }
    }

    fn put_field(&self, name: &str, fields: &mut Vec<(String, Json)>) {
        if let Some(v) = self {
            v.put_field(name, fields);
        }
    }

    fn take_field(v: Option<&Json>, name: &str) -> Result<Self, JsonError> {
        v.map(|v| T::take_field(Some(v), name)).transpose()
    }
}

/// The fields of an object being decoded; each is taken once, by name.
#[derive(Debug)]
pub(crate) struct Fields<'a>(Vec<(&'a str, &'a Json)>);

impl<'a> Fields<'a> {
    pub(crate) fn of(v: &'a Json) -> Result<Self, JsonError> {
        match v {
            Json::Obj(fields) => Ok(Fields(
                fields.iter().map(|(k, v)| (k.as_str(), v)).collect(),
            )),
            _ => Err(v.expected("an object")),
        }
    }

    pub(crate) fn take<T: Codec>(&mut self, name: &str) -> Result<T, JsonError> {
        let i = self.0.iter().position(|(k, _)| *k == name);
        T::take_field(i.map(|i| self.0.remove(i).1), name)
    }

    /// Takes a [`Json::decimal`] float; `null` reads as NaN.
    pub(crate) fn decimal(&mut self, name: &str) -> Result<f64, JsonError> {
        match self.take::<Json>(name)? {
            Json::Null => Ok(f64::NAN),
            v => match &v {
                Json::Num(text) => text.parse().ok(),
                _ => None,
            }
            .ok_or_else(|| JsonError(format!("{name}: {}", v.expected("a number")))),
        }
    }

    /// Succeeds once every field was taken: an unknown or repeated field
    /// rejects the object.
    pub(crate) fn finish(self) -> Result<(), JsonError> {
        match self.0.first() {
            Some((name, _)) => Err(JsonError(format!("unknown field {name:?}"))),
            None => Ok(()),
        }
    }
}

/// Implements [`Codec`] for structs as objects keyed by the listed field
/// names. The list is the one place a struct's JSON fields are named; the
/// struct literal in `decode` makes a field missing from it a compile
/// error.
macro_rules! codec {
    ($($ty:ident { $($field:ident),* $(,)? })*) => {$(
        impl $crate::json::Codec for $ty {
            fn encode(&self) -> $crate::json::Json {
                let mut fields = Vec::new();
                $($crate::json::Codec::put_field(&self.$field, stringify!($field), &mut fields);)*
                $crate::json::Json::Obj(fields)
            }

            fn decode(v: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                let mut fields = $crate::json::Fields::of(v)?;
                let value = $ty {
                    $($field: fields.take(stringify!($field))?,)*
                };
                fields.finish()?;
                Ok(value)
            }
        }
    )*};
}

pub(crate) use codec;

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Pair {
        count: u64,
        label: Option<String>,
    }

    codec! { Pair { count, label } }

    #[test]
    fn values_print_and_parse_back() {
        let text = r#"{"a":[1,-2.5,1e-7,null],"b":"q\"\\\n\t\u0001é","c":{}}"#;
        let v = Json::parse(text).expect("parses");
        assert_eq!(v.to_string(), text);
        assert_eq!(
            Json::parse(" [ 1 , [ ] ] ").expect("parses").to_string(),
            "[1,[]]"
        );
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "[1] x",
            "\"a\u{1}\"",
            "nul",
            "1e",
            "-",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn numbers_keep_their_text() {
        assert_eq!(
            u64::decode(&Json::parse("18446744073709551615").unwrap()),
            Ok(u64::MAX)
        );
        for bad in ["-3", "2.7", "256"] {
            assert!(u8::decode(&Json::parse(bad).unwrap()).is_err(), "{bad}");
        }
        for v in [0.1, 13.916863999999999, 5.0, 1e300, -2.5e-12] {
            let text = Json::obj([("x", Json::decimal(v))]).to_string();
            let parsed = Json::parse(&text).unwrap();
            let back = Fields::of(&parsed).unwrap().decimal("x").unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{text}");
        }
        assert_eq!(Json::decimal(5.0).to_string(), "5.0");
        assert_eq!(Json::decimal(f64::INFINITY), Json::Null);
        let nan = f64::from_bits(0x7ff8_dead_beef_0001);
        assert_eq!(f64::decode(&nan.encode()).unwrap().to_bits(), nan.to_bits());
    }

    #[test]
    fn structs_decode_by_field_name_only() {
        let both = Pair {
            count: 3,
            label: Some("x".into()),
        };
        assert_eq!(both.encode().to_string(), r#"{"count":3,"label":"x"}"#);
        let reordered = Json::parse(r#"{"label":"x","count":3}"#).unwrap();
        assert_eq!(Pair::decode(&reordered), Ok(both));
        let none = Pair {
            count: 1,
            label: None,
        };
        assert_eq!(none.encode().to_string(), r#"{"count":1}"#);
        assert_eq!(Pair::decode(&none.encode()), Ok(none));
        for bad in [
            r#"{"label":"x"}"#,
            r#"{"count":1,"lable":"x"}"#,
            r#"{"count":1,"count":1}"#,
            r#"{"count":"1"}"#,
            r#"[1,"x"]"#,
        ] {
            assert!(Pair::decode(&Json::parse(bad).unwrap()).is_err(), "{bad}");
        }
    }

    #[test]
    fn decoded_names_are_leaked_once() {
        let v = Json::str("interned_metric_name");
        let a = <&'static str>::decode(&v).unwrap();
        let b = <&'static str>::decode(&v).unwrap();
        assert!(std::ptr::eq(a, b));
    }
}
