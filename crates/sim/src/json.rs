//! Deterministic JSON encoding: the one module that decides how strings
//! are escaped, how numbers are printed and where separators go. Every
//! report, trace sink and CLI artifact writes through it.
//!
//! Keys are `&'static str` written verbatim, in emission order. Strings
//! escape `"`, `\`, `\n`, `\r` and `\t`, and every other char below 0x20
//! as `\u00XX`. Integers print through [`push_u64`] (or
//! [`push_u64_bytes`] into a byte buffer), which writes the same digits as
//! `Display` two at a time from a lookup table, without `core::fmt`. An
//! `f64` prints in its shortest round-trip `Display` form, or as `0` when
//! non-finite. Values go straight into the caller's buffer, with no
//! temporary `String`.
//!
//! ```
//! use sgx_sim::json;
//!
//! let mut out = String::new();
//! json::obj(&mut out, |o| {
//!     o.field("label", "a\u{1}b")
//!         .field("rate", f64::NAN)
//!         .field("stopped_at", None::<u64>)
//!         .arr("pages", &[3u64, 4], json::Value::write_value);
//! });
//! assert_eq!(out, r#"{"label":"a\u0001b","rate":0,"stopped_at":null,"pages":[3,4]}"#);
//! ```

use std::fmt::Write;

use crate::Cycles;

/// Appends `s` as a quoted, escaped JSON string.
#[inline]
pub fn push_str(out: &mut String, s: &str) {
    out.push('"');
    let mut rest = s;
    // Every byte that needs escaping is ASCII, so the split points are
    // char boundaries and unescaped runs are copied whole.
    while let Some(i) = rest
        .bytes()
        .position(|b| b < 0x20 || b == b'"' || b == b'\\')
    {
        out.push_str(&rest[..i]);
        match rest.as_bytes()[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
    out.push('"');
}

/// `"00"`, `"01"`, …, `"99"`: the two digits of every value below 100.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Writes `v`'s decimal digits, the same bytes as its `Display` form, at
/// the end of `buf`, and returns where they start.
#[inline]
fn decimal(mut v: u64, buf: &mut [u8; 20]) -> usize {
    // `u64::MAX` has 20 digits. The digits fill `buf` from its end, two
    // per division.
    let mut at = buf.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + v as u8;
    }
    at
}

/// Appends `v` in decimal: the same bytes as its `Display` form.
#[inline]
pub fn push_u64(out: &mut String, v: u64) {
    let mut buf = [0; 20];
    let at = decimal(v, &mut buf);
    out.extend(buf[at..].iter().map(|&b| char::from(b)));
}

/// [`push_u64`] into a byte buffer, where the digits go in with one copy
/// instead of one `char` push each: for writers that emit millions of
/// integers, such as the Chrome trace render.
#[inline]
pub fn push_u64_bytes(out: &mut Vec<u8>, v: u64) {
    let mut buf = [0; 20];
    let at = decimal(v, &mut buf);
    out.extend_from_slice(&buf[at..]);
}

/// Appends `v` as a JSON number: its `Display` form when finite, `0`
/// otherwise (a well-formed report never produces a non-finite value).
#[inline]
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push('0');
    }
}

/// A value the writer can place after a key or in an array.
pub trait Value {
    /// Appends the value's JSON encoding to `out`.
    fn write_value(&self, out: &mut String);
}

impl Value for u64 {
    #[inline]
    fn write_value(&self, out: &mut String) {
        push_u64(out, *self);
    }
}

impl Value for u32 {
    #[inline]
    fn write_value(&self, out: &mut String) {
        push_u64(out, u64::from(*self));
    }
}

impl Value for usize {
    #[inline]
    fn write_value(&self, out: &mut String) {
        push_u64(out, *self as u64);
    }
}

impl Value for bool {
    #[inline]
    fn write_value(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Value for f64 {
    #[inline]
    fn write_value(&self, out: &mut String) {
        push_f64(out, *self);
    }
}

impl Value for str {
    #[inline]
    fn write_value(&self, out: &mut String) {
        push_str(out, self);
    }
}

impl Value for String {
    #[inline]
    fn write_value(&self, out: &mut String) {
        push_str(out, self);
    }
}

impl Value for Cycles {
    #[inline]
    fn write_value(&self, out: &mut String) {
        self.raw().write_value(out);
    }
}

/// `None` is `null`.
impl<T: Value> Value for Option<T> {
    fn write_value(&self, out: &mut String) {
        match self {
            Some(v) => v.write_value(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Value + ?Sized> Value for &T {
    fn write_value(&self, out: &mut String) {
        (**self).write_value(out);
    }
}

/// Appends one JSON object; `f` writes its members.
pub fn obj(out: &mut String, f: impl FnOnce(&mut Obj<'_>)) {
    out.push('{');
    f(&mut Obj {
        out: &mut *out,
        empty: true,
    });
    out.push('}');
}

/// The members of an object being written (see [`obj`]).
#[derive(Debug)]
pub struct Obj<'a> {
    out: &'a mut String,
    empty: bool,
}

impl Obj<'_> {
    #[inline]
    fn key(&mut self, key: &'static str) -> &mut String {
        self.out.push_str(if self.empty { "\"" } else { ",\"" });
        self.empty = false;
        self.out.push_str(key);
        self.out.push_str("\":");
        self.out
    }

    /// Writes `"key":value`.
    pub fn field(&mut self, key: &'static str, value: impl Value) -> &mut Self {
        value.write_value(self.key(key));
        self
    }

    /// Writes `"key":{…}`, with `f` writing the nested members.
    pub fn obj(&mut self, key: &'static str, f: impl FnOnce(&mut Obj<'_>)) -> &mut Self {
        obj(self.key(key), f);
        self
    }

    /// Writes `"key":[…]` with one element per item, each appended by `f`.
    pub fn arr<I: IntoIterator>(
        &mut self,
        key: &'static str,
        items: I,
        mut f: impl FnMut(I::Item, &mut String),
    ) -> &mut Self {
        let out = self.key(key);
        out.push('[');
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            f(item, out);
        }
        out.push(']');
        self
    }

    /// Writes `"key":` followed by whatever `f` appends — for a value that
    /// serializes itself, such as a nested report's `write_json`.
    pub fn with(&mut self, key: &'static str, f: impl FnOnce(&mut String)) -> &mut Self {
        f(self.key(key));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn string(s: &str) -> String {
        let mut out = String::new();
        push_str(&mut out, s);
        out
    }

    #[test]
    fn every_control_char_quote_and_backslash_is_escaped() {
        for b in 0u8..0x20 {
            let want = match b {
                b'\n' => r#""\n""#.to_string(),
                b'\r' => r#""\r""#.to_string(),
                b'\t' => r#""\t""#.to_string(),
                _ => format!("\"\\u{b:04x}\""),
            };
            assert_eq!(string(&char::from(b).to_string()), want, "char {b:#04x}");
        }
        assert_eq!(string("a\"b\\c\u{1f} "), r#""a\"b\\c\u001f ""#);
    }

    #[test]
    fn non_ascii_passes_through_unchanged() {
        assert_eq!(string("é→🦀\u{7f}"), "\"é→🦀\u{7f}\"");
    }

    #[test]
    fn non_finite_floats_are_zero_and_finite_ones_round_trip() {
        for (v, want) in [
            (f64::NAN, "0"),
            (f64::INFINITY, "0"),
            (f64::NEG_INFINITY, "0"),
            (0.8, "0.8"),
            (1.0, "1"),
            (-2.5e-7, "-0.00000025"),
        ] {
            let mut out = String::new();
            push_f64(&mut out, v);
            assert_eq!(out, want, "{v}");
        }
    }

    #[test]
    fn integers_print_their_display_form_at_every_digit_count() {
        let mut edges = vec![0, 9, 10, 99, 100, u64::MAX];
        for k in 1..=19 {
            let p = 10u64.pow(k);
            edges.extend([p - 1, p, p + 1]);
        }
        for v in edges {
            let mut out = String::new();
            push_u64(&mut out, v);
            assert_eq!(out, v.to_string());
            let mut bytes = b"x".to_vec();
            push_u64_bytes(&mut bytes, v);
            assert_eq!(bytes, format!("x{v}").into_bytes());
        }
        let mut out = String::from("x");
        7u32.write_value(&mut out);
        8usize.write_value(&mut out);
        true.write_value(&mut out);
        false.write_value(&mut out);
        assert_eq!(out, "x78truefalse");
    }

    #[test]
    fn empty_and_nested_objects_and_arrays() {
        let mut out = String::new();
        obj(&mut out, |_| {});
        assert_eq!(out, "{}");

        let mut out = String::new();
        obj(&mut out, |o| {
            o.field("n", 1u64)
                .obj("inner", |i| {
                    i.field("ok", true)
                        .arr("none", &[] as &[u64], Value::write_value);
                })
                .arr("xs", [Some(7u32), None], |x, out| match x {
                    Some(n) => obj(out, |e| {
                        e.field("n", n)
                            .arr("c", [Cycles::new(2)], |c, out| c.write_value(out));
                    }),
                    None => obj(out, |_| {}),
                })
                .obj("empty", |_| {})
                .field("opt", Some(2usize))
                .with("raw", |out| push_f64(out, 0.5));
        });
        assert_eq!(
            out,
            r#"{"n":1,"inner":{"ok":true,"none":[]},"xs":[{"n":7,"c":[2]},{}],"empty":{},"opt":2,"raw":0.5}"#
        );
    }
}
