//! The writer half for `hem_obs::json`: the product crate parses JSON into
//! a DOM but only ever emits it by hand, and this benchmark writes result
//! sets, goldens and spans that it must read back.

use hem_obs::json::{escape, Json};

/// Serialize a DOM. Whole numbers below 2^53 print as integers, so counts
/// round-trip digit for digit; non-finite numbers print as `null`.
pub fn to_string(v: &Json) -> String {
    let mut out = String::new();
    write(v, &mut out);
    out
}

fn write(v: &Json, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) if !n.is_finite() => out.push_str("null"),
        Json::Num(n) if n.fract() == 0.0 && n.abs() < 9_007_199_254_740_992.0 => {
            out.push_str(&(*n as i64).to_string())
        }
        Json::Num(n) => out.push_str(&n.to_string()),
        Json::Str(s) => {
            out.push('"');
            out.push_str(&escape(s));
            out.push('"');
        }
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write(item, out);
            }
            out.push(']');
        }
        Json::Obj(members) => {
            out.push('{');
            for (i, (key, value)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                out.push_str(&escape(key));
                out.push_str("\":");
                write(value, out);
            }
            out.push('}');
        }
    }
}

/// An object from `(key, value)` pairs, in the order given.
pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

pub fn num(n: f64) -> Json {
    Json::Num(n)
}

/// A count. Counts in this benchmark stay far below 2^53.
pub fn count(n: u64) -> Json {
    Json::Num(n as f64)
}

pub fn string(s: impl Into<String>) -> Json {
    Json::Str(s.into())
}

/// `value[key]` as a whole number, or an error naming the key.
pub fn get_u64(value: &Json, key: &str) -> Result<u64, String> {
    match value.get(key).and_then(Json::as_num) {
        Some(n) if n >= 0.0 && n.fract() == 0.0 => Ok(n as u64),
        _ => Err(format!("missing or non-integer \"{key}\"")),
    }
}

/// `value[key]` as a string, or an error naming the key.
pub fn get_str<'a>(value: &'a Json, key: &str) -> Result<&'a str, String> {
    value
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing or non-string \"{key}\""))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_the_product_parser() {
        let doc = obj([
            ("name", string("a \"quoted\"\nline")),
            ("count", count(3_906_250_123)),
            ("ratio", num(0.1034)),
            ("tiny", num(1.5e-9)),
            ("neg", num(-2.0)),
            ("flag", Json::Bool(true)),
            ("none", Json::Null),
            ("list", Json::Arr(vec![num(1.0), num(2.5), string("x")])),
            ("nested", obj([("k", Json::Arr(vec![]))])),
        ]);
        let text = to_string(&doc);
        assert_eq!(Json::parse(&text).expect("valid JSON"), doc);
        assert!(text.contains("\"count\":3906250123"), "{text}");
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(to_string(&num(f64::NAN)), "null");
        assert_eq!(to_string(&num(f64::INFINITY)), "null");
    }

    #[test]
    fn typed_getters_name_the_missing_key() {
        let doc = obj([("n", count(7)), ("s", string("x")), ("f", num(0.5))]);
        assert_eq!(get_u64(&doc, "n"), Ok(7));
        assert_eq!(get_str(&doc, "s"), Ok("x"));
        assert!(get_u64(&doc, "f").unwrap_err().contains("\"f\""));
        assert!(get_str(&doc, "missing").unwrap_err().contains("missing"));
    }
}
