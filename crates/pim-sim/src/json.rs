//! The text codec of the JSON record formats — the round journal, the
//! serving records, arrival traces and perf reports — and the text twin of
//! `pim_zd_tree::codec`. A value is written through its [`Serialize`], so
//! each primitive keeps its one encoding (`{:?}` floats included), and read
//! back strictly through [`FromJson`]: a missing key, a value of the wrong
//! kind, an unknown label, a wrong array length or an integer its field
//! cannot hold exactly is an error naming the key. [`record!`] turns one
//! key list, and [`labels!`] one label table, into both directions.

pub use serde::Serialize;
pub use serde_json::Value;

/// A value read back from a parsed JSON document.
pub trait FromJson: Sized {
    /// Reads `v`, the value of `key` (which errors name).
    fn from_json(v: &Value, key: &str) -> Result<Self, String>;

    /// The value of an absent key: an error, but `None` for an `Option`.
    fn absent(key: &str) -> Result<Self, String> {
        Err(format!("missing {key:?}"))
    }
}

/// Reads `key` of the object `v`.
pub fn read<T: FromJson>(v: &Value, key: &str) -> Result<T, String> {
    v.get(key).map_or_else(|| T::absent(key), |x| T::from_json(x, key))
}

/// A [`Value`] holds numbers as `f64`, exact for every integer below 2^53
/// and not above it: integers read only below it.
fn exact(n: f64) -> Option<u64> {
    (n.fract() == 0.0 && (0.0..9_007_199_254_740_992.0).contains(&n)).then_some(n as u64)
}

macro_rules! scalars {
    ($($t:ty: $what:literal, $get:expr;)*) => {$(
        impl FromJson for $t {
            fn from_json(v: &Value, key: &str) -> Result<Self, String> {
                let get: fn(&Value) -> Option<$t> = $get;
                get(v).ok_or_else(|| {
                    format!("{key} is not {}: {}", $what, serde_json::to_string(v).expect("renders"))
                })
            }
        }
    )*};
}
scalars! {
    u8: "a u8", |v| exact(v.as_f64()?)?.try_into().ok();
    u16: "a u16", |v| exact(v.as_f64()?)?.try_into().ok();
    u32: "a u32", |v| exact(v.as_f64()?)?.try_into().ok();
    u64: "a u64 below 2^53", |v| exact(v.as_f64()?);
    usize: "a usize below 2^53", |v| exact(v.as_f64()?)?.try_into().ok();
    f64: "a number", Value::as_f64;
    bool: "a bool", |v| if let Value::Bool(b) = v { Some(*b) } else { None };
    String: "a string", |v| v.as_str().map(Into::into);
    Value: "a value", |v| Some(v.clone());
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Value, key: &str) -> Result<Self, String> {
        let items = v.as_array().ok_or_else(|| format!("{key} is not an array"))?;
        items.iter().map(|x| T::from_json(x, key)).collect()
    }
}

impl<T: FromJson, const N: usize> FromJson for [T; N] {
    fn from_json(v: &Value, key: &str) -> Result<Self, String> {
        let items = Vec::<T>::from_json(v, key)?;
        let n = items.len();
        items.try_into().map_err(|_| format!("{key} has {n} elements, not {N}"))
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Value, key: &str) -> Result<Self, String> {
        if *v == Value::Null {
            return Ok(None);
        }
        T::from_json(v, key).map(Some)
    }

    fn absent(_: &str) -> Result<Self, String> {
        Ok(None)
    }
}

/// Writes one JSON object key by key, in call order; the keys are plain
/// identifiers and written as given.
pub struct Object<'a> {
    out: &'a mut String,
    first: bool,
}

impl<'a> Object<'a> {
    /// Opens an object at the end of `out`.
    pub fn new(out: &'a mut String) -> Self {
        out.push('{');
        Self { out, first: true }
    }

    /// Writes `"key":` and the value.
    pub fn key(&mut self, key: &str, v: &(impl Serialize + ?Sized)) -> &mut Self {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\":");
        v.json_write(self.out);
        self
    }

    /// Closes the object.
    pub fn end(&mut self) {
        self.out.push('}');
    }
}

/// Whether `v` is its type's default: a `?` key of [`record!`] is left out.
pub fn is_default<T: Default + PartialEq>(v: &T) -> bool {
    *v == T::default()
}

/// Renders one JSON Lines line per item.
pub fn write_jsonl<T: Serialize>(items: impl IntoIterator<Item = T>) -> String {
    let mut out = String::new();
    for item in items {
        item.json_write(&mut out);
        out.push('\n');
    }
    out
}

/// Reads a JSON Lines document, one `T` per line, skipping blank lines.
/// The first line that does not read fails the document with an error that
/// starts `line N: `: the files are machine-written, and a skipped line
/// would hide truncation.
pub fn read_jsonl<T: FromJson>(text: &str) -> Result<Vec<T>, String> {
    let read = |line: &str| -> Result<T, String> {
        let v = serde_json::from_str(line).map_err(|e| e.to_string())?;
        T::from_json(&v, "line")
    };
    let lines = text.lines().enumerate().filter(|(_, line)| !line.trim().is_empty());
    lines.map(|(i, line)| read(line).map_err(|e| format!("line {}: {e}", i + 1))).collect()
}

/// The source text of member `key` of the JSON object `text`, as written:
/// what a reader keeps when a [`Value`] would lose something (a number's
/// form). `None` when the object has no such member. `text` must be a valid
/// JSON object (parse it first); the scan only tracks nesting and strings.
pub fn member_text<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let b = text.as_bytes();
    let (mut depth, mut start, mut i) = (0usize, None, 0);
    while i < b.len() {
        match b[i] {
            b'"' => {
                let open = i;
                i += 1;
                while b[i] != b'"' {
                    i += if b[i] == b'\\' { 2 } else { 1 };
                }
                // A member name of the outer object: its value follows the
                // colon.
                let rest = text[i + 1..].trim_start();
                if depth == 1
                    && start.is_none()
                    && rest.starts_with(':')
                    && &text[open + 1..i] == key
                {
                    start = Some(text.len() - rest.len() + 1);
                }
            }
            b'{' | b'[' => depth += 1,
            b'}' | b']' => {
                depth -= 1;
                match (start, depth) {
                    (Some(s), 1) => return Some(text[s..=i].trim()),
                    (Some(s), 0) => return Some(text[s..i].trim()),
                    _ => {}
                }
            }
            b',' if depth == 1 => {
                if let Some(s) = start {
                    return Some(text[s..i].trim());
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Implements [`Serialize`] and [`FromJson`] for a struct from one ordered
/// key list (`write Type { … }`: [`Serialize`] alone). `"key": field` is
/// written from and read into `field`; `"key": field as Via` is read as a
/// `Via` and converted with `Into`; `"key" ? field` is left out when it is
/// its default (an empty list, `None`) and read as the default when absent.
/// After the fields, `; "key" == method` writes `self.method()` (an
/// `Option`) and on read requires the value to agree with the record the
/// other keys built; `; ..base` fills the fields the list leaves out, and
/// may name the fields read. `Type { if flag { A } else { B } }` has two
/// shapes: `A` and `"flag":true` when `flag` is set, `B` otherwise.
#[macro_export]
macro_rules! record {
    (write $ty:ty { $($body:tt)* }) => {
        impl $crate::json::Serialize for $ty {
            fn json_write(&self, out: &mut String) {
                $crate::record!(@write self out $($body)*);
            }
        }
    };
    ($ty:ty { $($body:tt)* }) => {
        $crate::record!(write $ty { $($body)* });
        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Value, _: &str) -> Result<Self, String> {
                $crate::record!(@read v $($body)*)
            }
        }
    };
    (@write $s:ident $out:ident if $flag:ident { $($a:tt)* } else { $($b:tt)* }) => {
        if $s.$flag {
            $crate::record!(@list $s $out [$flag] $($a)*);
        } else {
            $crate::record!(@list $s $out [] $($b)*);
        }
    };
    (@write $s:ident $out:ident $($list:tt)*) => { $crate::record!(@list $s $out [] $($list)*); };
    (@list $s:ident $out:ident [$($flag:ident)?] $($key:literal $mode:tt $f:ident $(as $via:ty)?),*
        $(; $ck:literal == $cm:ident)? $(; ..$base:expr)?) => {
        let mut o = $crate::json::Object::new($out);
        $($crate::record!(@key o $key $mode $s.$f);)*
        $(o.key($ck, &$s.$cm());)?
        $(o.key(stringify!($flag), &true);)?
        o.end();
    };
    (@key $o:ident $key:literal : $v:expr) => { $o.key($key, &$v) };
    (@key $o:ident $key:literal ? $v:expr) => {
        if !$crate::json::is_default(&$v) {
            $o.key($key, &$v);
        }
    };
    (@read $v:ident if $flag:ident { $($a:tt)* } else { $($b:tt)* }) => {
        if $crate::json::read::<Option<bool>>($v, stringify!($flag))? == Some(true) {
            $crate::record!(@build $v [$flag: true,] $($a)*)
        } else {
            $crate::record!(@build $v [$flag: false,] $($b)*)
        }
    };
    (@read $v:ident $($list:tt)*) => { $crate::record!(@build $v [] $($list)*) };
    (@build $v:ident [$($pre:tt)*] $($key:literal $mode:tt $f:ident $(as $via:ty)?),*
        $(; $ck:literal == $cm:ident)? $(; ..$base:expr)?) => {{
        $(let $f = $crate::record!(@get $v $key $mode $($via)?);)*
        let r = Self { $($pre)* $($f,)* $(..$base)? };
        $(let got = $crate::json::read($v, $ck)?;
        if Some(got) != r.$cm() {
            return Err(format!("{} {got} does not agree with the other keys", $ck));
        })?
        Ok(r)
    }};
    (@get $v:ident $key:literal :) => { $crate::json::read($v, $key)? };
    (@get $v:ident $key:literal : $via:ty) => { $crate::json::read::<$via>($v, $key)?.into() };
    (@get $v:ident $key:literal ?) => {
        match $v.get($key) {
            None => Default::default(),
            Some(x) => $crate::json::FromJson::from_json(x, $key)?,
        }
    };
}
pub use crate::record;

/// Implements a unit enum's label table: the method `label` (named by the
/// caller) returning each variant's label, and [`Serialize`] and
/// [`FromJson`] as that label; an unknown label is an error.
#[macro_export]
macro_rules! labels {
    ($(#[$doc:meta])* $ty:ident::$label:ident { $($v:ident => $l:literal),* $(,)? }) => {
        impl $ty {
            $(#[$doc])*
            pub fn $label(self) -> &'static str {
                match self {
                    $($ty::$v => $l,)*
                }
            }
        }
        impl $crate::json::Serialize for $ty {
            fn json_write(&self, out: &mut String) {
                $crate::json::Serialize::json_write(self.$label(), out)
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Value, key: &str) -> Result<Self, String> {
                match <String as $crate::json::FromJson>::from_json(v, key)?.as_str() {
                    $($l => Ok($ty::$v),)*
                    other => Err(format!("unknown {key} {other:?}")),
                }
            }
        }
    };
}
pub use crate::labels;

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, Default, PartialEq)]
    struct Rec {
        n: u32,
        x: f64,
        hist: [u8; 2],
        tags: Vec<u64>,
        note: Option<String>,
    }

    record! { Rec { "n": n, "x": x, "hist": hist, "note": note, "tags" ? tags } }

    #[test]
    fn a_record_reads_back_what_it_wrote() {
        let rec = Rec { n: 7, x: 1e-7, hist: [1, 2], tags: vec![3], note: None };
        let text = write_jsonl([&rec, &Rec::default()]);
        assert_eq!(
            text,
            "{\"n\":7,\"x\":1e-7,\"hist\":[1,2],\"note\":null,\"tags\":[3]}\n\
             {\"n\":0,\"x\":0.0,\"hist\":[0,0],\"note\":null}\n"
        );
        assert_eq!(read_jsonl::<Rec>(&format!("\n{text}")).unwrap(), [rec, Rec::default()]);
    }

    #[test]
    fn member_text_is_the_member_as_written() {
        let text = r#"{"a":9.0, "s":"\"b\":", "b" : {"b":[1,{"x":"}"}],"n":9} ,"c":1e-7}"#;
        assert_eq!(member_text(text, "a"), Some("9.0"));
        assert_eq!(member_text(text, "b"), Some(r#"{"b":[1,{"x":"}"}],"n":9}"#));
        assert_eq!(member_text(text, "c"), Some("1e-7"));
        assert_eq!(member_text(text, "s"), Some(r#""\"b\":""#));
        assert_eq!(member_text(text, "x"), None, "only the outer object's members");
    }

    #[test]
    fn reads_are_strict_and_name_the_line_and_key() {
        let ok = "{\"n\":7,\"x\":1.5,\"hist\":[1,2]}";
        assert_eq!(read_jsonl::<Rec>(ok).unwrap()[0].note, None, "an absent option is None");
        for (bad, err) in [
            ("{\"x\":1.5,\"hist\":[1,2]}", "line 2: missing \"n\""),
            ("{\"n\":7,\"x\":1.5,\"hist\":[1]}", "line 2: hist has 1 elements, not 2"),
            ("{\"n\":7,\"x\":1.5,\"hist\":[1,256]}", "line 2: hist is not a u8: 256.0"),
            ("{\"n\":-1,\"x\":1.5,\"hist\":[1,2]}", "line 2: n is not a u32: -1.0"),
            ("{\"n\":1.5,\"x\":1.5,\"hist\":[1,2]}", "line 2: n is not a u32: 1.5"),
            ("{\"n\":7,\"x\":\"1\",\"hist\":[1,2]}", "line 2: x is not a number: \"1\""),
            (
                "{\"n\":7,\"x\":1,\"hist\":[1,2],\"tags\":[1e30]}",
                "line 2: tags is not a u64 below 2^53: 1e30",
            ),
        ] {
            let got = read_jsonl::<Rec>(&format!("{ok}\n{bad}\n")).unwrap_err();
            assert!(got.starts_with(err), "{got}");
        }
        assert!(read_jsonl::<Rec>("{").unwrap_err().starts_with("line 1: "));
    }

    #[test]
    fn integers_read_exactly_below_2_pow_53_and_not_above() {
        let n = |text: &str| u64::from_json(&serde_json::from_str(text).unwrap(), "n");
        assert_eq!(n("9007199254740991"), Ok((1 << 53) - 1));
        assert!(n("9007199254740992").is_err(), "2^53 + 1 parses to 2^53");
        assert!(n("1e30").is_err());
        assert!(u32::from_json(&Value::Number(4294967296.0), "n").is_err());
    }

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Dir {
        Up,
        Down,
    }

    labels! {
        /// The direction's label.
        Dir::label { Up => "up", Down => "down" }
    }

    #[test]
    fn labels_write_and_read_their_table_only() {
        assert_eq!(write_jsonl([Dir::Up, Dir::Down]), "\"up\"\n\"down\"\n");
        assert_eq!(read_jsonl::<Dir>("\"down\"").unwrap(), [Dir::Down]);
        assert_eq!(read_jsonl::<Dir>("\"left\"").unwrap_err(), "line 1: unknown line \"left\"");
    }
}
