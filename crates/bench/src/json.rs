//! The one artifact writer: an ordered JSON value built by naming each
//! field once (`key`, value, decimals) and rendered in one fixed layout.
//!
//! Objects keep insertion order and floats carry their own number of
//! decimals, so a `BENCH_*.json` body is a pure function of the values
//! put in: identity between two runs is string equality. The layout
//! opens the top two container levels one entry per line (the file, its
//! `scenario` block and its row array) and writes everything deeper on
//! one line, which puts every sweep row on a line of its own for `diff`.

use std::fmt::{self, Write};

/// Container levels rendered one entry per line by [`Json::render`].
const OPEN_LEVELS: usize = 2;

#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// What indexing returns for an absent key; never written.
    Null,
    Bool(bool),
    Int(i128),
    /// A float printed with a fixed number of decimals.
    Num(f64, usize),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// A float field: `v` printed with `decimals` digits after the point.
pub fn fixed(v: f64, decimals: usize) -> Json {
    Json::Num(v, decimals)
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn arr<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// Replace field `key` of an object (tests doctor rows with it).
    #[cfg(test)]
    pub(crate) fn set(&mut self, key: &str, value: impl Into<Json>) {
        let Json::Obj(fields) = self else {
            panic!("not an object")
        };
        let field = fields.iter_mut().find(|(k, _)| k == key);
        field.expect("field present").1 = value.into();
    }

    /// Numeric value (NaN for anything else, so a comparison against a
    /// missing or mistyped field fails instead of passing). Counts are
    /// exact below 2^53, far above any event total written here.
    pub fn num(&self) -> f64 {
        match *self {
            Json::Int(v) => v as f64,
            Json::Num(v, _) => v,
            _ => f64::NAN,
        }
    }

    pub fn as_str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => "",
        }
    }

    /// The artifact form: top levels one entry per line, newline-ended.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => write!(out, "{b}").unwrap(),
            Json::Int(v) => write!(out, "{v}").unwrap(),
            Json::Num(v, decimals) => write!(out, "{v:.decimals$}").unwrap(),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => write_seq(out, depth, ['[', ']'], items.iter().map(|v| (None, v))),
            Json::Obj(fields) => write_seq(
                out,
                depth,
                ['{', '}'],
                fields.iter().map(|(k, v)| (Some(k.as_str()), v)),
            ),
        }
    }
}

/// `row["pools.work_hwm"]`: field `path` of an object, `a.b` descending
/// into nested objects; [`Json::Null`] when any step is absent.
impl std::ops::Index<&str> for Json {
    type Output = Json;

    fn index(&self, path: &str) -> &Json {
        path.split('.').fold(self, |at, key| match at {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map_or(&Json::Null, |(_, v)| v),
            _ => &Json::Null,
        })
    }
}

/// One line, whatever the nesting (table cells, log lines, tests).
impl fmt::Display for Json {
    fn fmt(&self, fm: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, OPEN_LEVELS);
        fm.write_str(&out)
    }
}

fn write_seq<'a>(
    out: &mut String,
    depth: usize,
    [open, close]: [char; 2],
    entries: impl Iterator<Item = (Option<&'a str>, &'a Json)>,
) {
    let open_level = depth < OPEN_LEVELS;
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', 2 * depth));
    };
    out.push(open);
    let mut n = 0;
    for (key, value) in entries {
        if n > 0 {
            out.push_str(if open_level { "," } else { ", " });
        }
        if open_level {
            newline(out, depth + 1);
        }
        if let Some(key) = key {
            write_str(out, key);
            out.push_str(": ");
        }
        value.write(out, depth + 1);
        n += 1;
    }
    if open_level && n > 0 {
        newline(out, depth);
    }
    out.push(close);
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
}

macro_rules! json_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::Int(v as i128)
            }
        }
    )*};
}
json_from_int!(u8, u32, u64, usize, i64);

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floats_print_their_own_decimals() {
        assert_eq!(fixed(240_000.0, 0).to_string(), "240000");
        assert_eq!(fixed(0.96, 1).to_string(), "1.0");
        assert_eq!(fixed(0.98765, 4).to_string(), "0.9877");
        assert_eq!(fixed(-1.0, 1).to_string(), "-1.0");
    }

    #[test]
    fn scalars_and_escapes() {
        assert_eq!(Json::from(-1i64).to_string(), "-1");
        assert_eq!(Json::from(u64::MAX).to_string(), "18446744073709551615");
        assert_eq!(Json::from(true).to_string(), "true");
        assert_eq!(
            Json::from("a \"q\" \\ \n\t\u{1}é").to_string(),
            "\"a \\\"q\\\" \\\\ \\n\\t\\u0001é\""
        );
    }

    #[test]
    fn layout_opens_two_levels_and_keeps_rows_on_one_line() {
        let doc = Json::obj([
            ("benchmark", "t".into()),
            (
                "scenario",
                Json::obj([
                    ("seed", 7u64.into()),
                    ("sketch", Json::obj([("d", 4u32.into())])),
                ]),
            ),
            (
                "rows",
                Json::Arr(vec![
                    Json::obj([("name", "a".into()), ("recover_us", (-1i64).into())]),
                    Json::obj([("name", "b".into()), ("timeline", Json::arr([1u64, 2]))]),
                ]),
            ),
            ("empty", Json::Arr(vec![])),
            ("sim_events", 3u64.into()),
        ]);
        let want = "{\n  \"benchmark\": \"t\",\n  \"scenario\": {\n    \"seed\": 7,\n    \"sketch\": {\"d\": 4}\n  },\n  \"rows\": [\n    {\"name\": \"a\", \"recover_us\": -1},\n    {\"name\": \"b\", \"timeline\": [1, 2]}\n  ],\n  \"empty\": [],\n  \"sim_events\": 3\n}\n";
        assert_eq!(doc.render(), want);
        assert_eq!(
            doc["rows"].to_string(),
            "[{\"name\": \"a\", \"recover_us\": -1}, {\"name\": \"b\", \"timeline\": [1, 2]}]"
        );
    }

    #[test]
    fn indexing_walks_paths_and_misses_are_null() {
        let mut row = Json::obj([
            ("name", "r".into()),
            ("pools", Json::obj([("work_hwm", 63u64.into())])),
            ("jfi", fixed(0.5, 4)),
        ]);
        assert_eq!(row["pools.work_hwm"].num(), 63.0);
        assert_eq!(row["name"].as_str(), "r");
        assert_eq!(row["pools.absent"], Json::Null);
        assert_eq!(row["name.deeper"], Json::Null);
        assert!(row["absent"].num().is_nan());
        row.set("jfi", true);
        assert_eq!(row["jfi"], Json::Bool(true));
    }
}
