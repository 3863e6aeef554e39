//! Rendering of `serde_json::Value` the way the result files need it: whole
//! numbers without a fraction (the vendored writer prints `10.0`), every
//! other number with all its digits, objects in key order.

use serde_json::Value;
use std::collections::BTreeMap;

pub fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect::<BTreeMap<_, _>>())
}

pub fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

pub fn number(v: f64) -> Value {
    Value::Number(v)
}

fn write(v: &Value, indent: Option<usize>, out: &mut String) {
    let newline = |out: &mut String, depth: usize| {
        if indent.is_some() {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        }
    };
    let depth = indent.unwrap_or(0);
    match v {
        Value::Number(n) if n.is_finite() && n.fract() == 0.0 && n.abs() < 9e15 => {
            out.push_str(&format!("{}", *n as i64))
        }
        Value::Array(items) if !items.is_empty() => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, depth + 1);
                write(item, indent.map(|d| d + 1), out);
            }
            newline(out, depth);
            out.push(']');
        }
        Value::Object(map) if !map.is_empty() => {
            out.push('{');
            for (i, (k, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, depth + 1);
                out.push_str(&serde_json::to_string(k).expect("strings always serialize"));
                out.push_str(if indent.is_some() { ": " } else { ":" });
                write(item, indent.map(|d| d + 1), out);
            }
            newline(out, depth);
            out.push('}');
        }
        other => out.push_str(&serde_json::to_string(other).expect("values always serialize")),
    }
}

/// One line, no spaces.
pub fn compact(v: &Value) -> String {
    let mut out = String::new();
    write(v, None, &mut out);
    out
}

/// Indented by two spaces, with a final newline.
pub fn pretty(v: &Value) -> String {
    let mut out = String::new();
    write(v, Some(0), &mut out);
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whole_numbers_print_without_fraction_and_round_trip() {
        let v = object([
            ("attempted", number(1_300_000.0)),
            ("value", number(1.203_456_789_012_3)),
            ("list", Value::Array(vec![number(1.0), text("a\"b")])),
            ("empty", Value::Array(vec![])),
        ]);
        let line = compact(&v);
        assert_eq!(
            line,
            r#"{"attempted":1300000,"empty":[],"list":[1,"a\"b"],"value":1.2034567890123}"#
        );
        assert_eq!(serde_json::from_str(&line).unwrap(), v);
        assert_eq!(serde_json::from_str(&pretty(&v)).unwrap(), v);
        assert!(pretty(&v).contains("\n  \"attempted\": 1300000,\n"));
    }
}
