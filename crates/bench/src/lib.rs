//! Shared harness for regenerating the paper's tables and figures.
//!
//! Scale selection: set `FGDSM_FULL=1` for the paper's problem sizes
//! (Table 2 — minutes of runtime), `FGDSM_TEST=1` for tiny sizes; the
//! default is a reduced benchmark scale that preserves every qualitative
//! effect and finishes in well under a minute per harness.

use fgdsm_apps::{AppSpec, Scale};
use fgdsm_hpf::{execute, ExecConfig, OptLevel, RunResult};
use json::ToJson;
use std::io::Write;

/// The cluster size the paper evaluates.
pub const NPROCS: usize = 8;

/// Problem scale from the environment.
pub fn scale() -> Scale {
    if std::env::var("FGDSM_FULL").is_ok_and(|v| v == "1") {
        Scale::Paper
    } else if std::env::var("FGDSM_TEST").is_ok_and(|v| v == "1") {
        Scale::Test
    } else {
        Scale::Bench
    }
}

/// Human label for the active scale.
pub fn scale_label(s: Scale) -> &'static str {
    match s {
        Scale::Paper => "paper (Table 2) problem sizes",
        Scale::Bench => "reduced benchmark sizes (set FGDSM_FULL=1 for paper sizes)",
        Scale::Test => "tiny test sizes",
    }
}

/// All configurations of Figure 3 for one application.
pub struct AppRuns {
    pub name: &'static str,
    pub uni: RunResult,
    pub unopt_single: RunResult,
    pub unopt_dual: RunResult,
    pub opt_single: RunResult,
    pub opt_dual: RunResult,
    pub mp: RunResult,
}

impl AppRuns {
    /// Speedup of a run relative to the uniprocessor baseline.
    pub fn speedup(&self, r: &RunResult) -> f64 {
        self.uni.total_s() / r.total_s()
    }
}

/// Execute every Figure 3 configuration for one application.
pub fn run_app(spec: &AppSpec) -> AppRuns {
    let prog = &spec.program;
    AppRuns {
        name: spec.name,
        uni: execute(prog, &ExecConfig::sm_unopt(1)),
        unopt_single: execute(prog, &ExecConfig::sm_unopt(NPROCS).single_cpu()),
        unopt_dual: execute(prog, &ExecConfig::sm_unopt(NPROCS)),
        opt_single: execute(prog, &ExecConfig::sm_opt(NPROCS).single_cpu()),
        opt_dual: execute(prog, &ExecConfig::sm_opt(NPROCS)),
        mp: execute(prog, &ExecConfig::mp(NPROCS)),
    }
}

/// Execute one optimization-level variant (Figure 4 ablation), dual-cpu.
pub fn run_opt_level(spec: &AppSpec, opt: OptLevel) -> RunResult {
    execute(&spec.program, &ExecConfig::sm_opt(NPROCS).with_opt(opt))
}

/// Percent reduction from `base` to `opt`.
pub fn pct_reduction(base: f64, opt: f64) -> f64 {
    if base <= 0.0 {
        0.0
    } else {
        100.0 * (1.0 - opt / base)
    }
}

/// Persist a harness's rows as JSON under `bench_results/` so
/// EXPERIMENTS.md can cite machine-generated numbers.
pub fn save_json<T: ToJson + ?Sized>(name: &str, rows: &T) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("bench_results");
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    if let Ok(mut f) = std::fs::File::create(dir.join(format!("{name}.json"))) {
        let _ = writeln!(f, "{}", rows.to_json());
    }
}

/// A minimal JSON emitter (avoids a serde dependency; only the subset our
/// row structs need: structs, sequences, strings, numbers, options).
///
/// Row structs are declared through [`json_row!`], which defines the
/// struct and derives a field-order-preserving [`ToJson`] impl.
pub mod json {
    use std::fmt::Write;

    /// Types that can render themselves as a compact JSON value.
    pub trait ToJson {
        fn write_json(&self, out: &mut String);

        fn to_json(&self) -> String {
            let mut s = String::new();
            self.write_json(&mut s);
            s
        }
    }

    /// Append `s` as a JSON string literal (with escaping) to `out`.
    pub fn write_str(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
                c => out.push(c),
            }
        }
        out.push('"');
    }

    macro_rules! int_to_json {
        ($($t:ty),+) => {$(
            impl ToJson for $t {
                fn write_json(&self, out: &mut String) {
                    write!(out, "{self}").unwrap();
                }
            }
        )+};
    }
    int_to_json!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

    impl ToJson for f64 {
        fn write_json(&self, out: &mut String) {
            if self.is_finite() {
                write!(out, "{self}").unwrap();
            } else {
                out.push_str("null");
            }
        }
    }

    impl ToJson for f32 {
        fn write_json(&self, out: &mut String) {
            (*self as f64).write_json(out);
        }
    }

    impl ToJson for bool {
        fn write_json(&self, out: &mut String) {
            out.push_str(if *self { "true" } else { "false" });
        }
    }

    impl ToJson for str {
        fn write_json(&self, out: &mut String) {
            write_str(out, self);
        }
    }

    impl ToJson for String {
        fn write_json(&self, out: &mut String) {
            write_str(out, self);
        }
    }

    impl<T: ToJson + ?Sized> ToJson for &T {
        fn write_json(&self, out: &mut String) {
            (**self).write_json(out);
        }
    }

    impl<T: ToJson> ToJson for Option<T> {
        fn write_json(&self, out: &mut String) {
            match self {
                Some(v) => v.write_json(out),
                None => out.push_str("null"),
            }
        }
    }

    impl<T: ToJson> ToJson for [T] {
        fn write_json(&self, out: &mut String) {
            out.push('[');
            for (i, v) in self.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                v.write_json(out);
            }
            out.push(']');
        }
    }

    impl<T: ToJson> ToJson for Vec<T> {
        fn write_json(&self, out: &mut String) {
            self.as_slice().write_json(out);
        }
    }

    /// A parsed JSON value — the minimal counterpart of [`ToJson`], so
    /// smoke tests can validate the harness artifacts without a serde
    /// dependency. Object keys keep their file order.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Value>),
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        /// Object field lookup.
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Num(x) => Some(*x),
                _ => None,
            }
        }

        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Value::Num(x) if *x >= 0.0 && x.fract() == 0.0 => Some(*x as u64),
                _ => None,
            }
        }

        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        pub fn as_arr(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(v) => Some(v),
                _ => None,
            }
        }
    }

    /// Parse one JSON document. Errors carry the byte offset.
    pub fn parse(s: &str) -> Result<Value, String> {
        let b = s.as_bytes();
        let mut at = 0;
        let v = parse_value(b, &mut at)?;
        skip_ws(b, &mut at);
        if at != b.len() {
            return Err(format!("trailing bytes at offset {at}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], at: &mut usize) {
        while *at < b.len() && (b[*at] as char).is_ascii_whitespace() {
            *at += 1;
        }
    }

    fn expect(b: &[u8], at: &mut usize, c: u8) -> Result<(), String> {
        if b.get(*at) == Some(&c) {
            *at += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at offset {at}", c as char))
        }
    }

    fn parse_value(b: &[u8], at: &mut usize) -> Result<Value, String> {
        skip_ws(b, at);
        match b.get(*at) {
            None => Err("unexpected end of input".into()),
            Some(b'{') => {
                *at += 1;
                let mut fields = Vec::new();
                skip_ws(b, at);
                if b.get(*at) == Some(&b'}') {
                    *at += 1;
                    return Ok(Value::Obj(fields));
                }
                loop {
                    skip_ws(b, at);
                    let key = parse_string(b, at)?;
                    skip_ws(b, at);
                    expect(b, at, b':')?;
                    fields.push((key, parse_value(b, at)?));
                    skip_ws(b, at);
                    match b.get(*at) {
                        Some(b',') => *at += 1,
                        Some(b'}') => {
                            *at += 1;
                            return Ok(Value::Obj(fields));
                        }
                        _ => return Err(format!("expected `,` or `}}` at offset {at}")),
                    }
                }
            }
            Some(b'[') => {
                *at += 1;
                let mut items = Vec::new();
                skip_ws(b, at);
                if b.get(*at) == Some(&b']') {
                    *at += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(parse_value(b, at)?);
                    skip_ws(b, at);
                    match b.get(*at) {
                        Some(b',') => *at += 1,
                        Some(b']') => {
                            *at += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(format!("expected `,` or `]` at offset {at}")),
                    }
                }
            }
            Some(b'"') => Ok(Value::Str(parse_string(b, at)?)),
            Some(b't') if b[*at..].starts_with(b"true") => {
                *at += 4;
                Ok(Value::Bool(true))
            }
            Some(b'f') if b[*at..].starts_with(b"false") => {
                *at += 5;
                Ok(Value::Bool(false))
            }
            Some(b'n') if b[*at..].starts_with(b"null") => {
                *at += 4;
                Ok(Value::Null)
            }
            Some(_) => {
                let start = *at;
                while *at < b.len()
                    && matches!(b[*at], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    *at += 1;
                }
                std::str::from_utf8(&b[start..*at])
                    .ok()
                    .and_then(|t| t.parse::<f64>().ok())
                    .map(Value::Num)
                    .ok_or_else(|| format!("bad literal at offset {start}"))
            }
        }
    }

    fn parse_string(b: &[u8], at: &mut usize) -> Result<String, String> {
        expect(b, at, b'"')?;
        let mut out = String::new();
        loop {
            match b.get(*at) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    *at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *at += 1;
                    match b.get(*at) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = b
                                .get(*at + 1..*at + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at offset {at}"))?;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            *at += 4;
                        }
                        _ => return Err(format!("bad escape at offset {at}")),
                    }
                    *at += 1;
                }
                Some(&c) => {
                    // Copy the full UTF-8 sequence starting at `c`.
                    let len = match c {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let chunk = b
                        .get(*at..*at + len)
                        .and_then(|ch| std::str::from_utf8(ch).ok())
                        .ok_or_else(|| format!("bad utf-8 at offset {at}"))?;
                    out.push_str(chunk);
                    *at += len;
                }
            }
        }
    }
}

/// Declare a benchmark row struct together with a [`json::ToJson`] impl
/// that emits its fields, in declaration order, as a JSON object.
#[macro_export]
macro_rules! json_row {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident : $ty:ty ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field : $ty, )+
        }

        impl $crate::json::ToJson for $name {
            fn write_json(&self, out: &mut ::std::string::String) {
                out.push('{');
                let mut first = true;
                $(
                    if !::std::mem::take(&mut first) {
                        out.push(',');
                    }
                    $crate::json::write_str(out, stringify!($field));
                    out.push(':');
                    $crate::json::ToJson::write_json(&self.$field, out);
                )+
                out.push('}');
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::json::ToJson;
    use super::*;

    json_row! {
        struct Row {
            name: &'static str,
            x: f64,
            n: u64,
            tags: Vec<&'static str>,
            opt: Option<i32>,
        }
    }

    #[test]
    fn json_round() {
        let r = Row {
            name: "a\"b",
            x: 1.5,
            n: 42,
            tags: vec!["p", "q"],
            opt: None,
        };
        assert_eq!(
            r.to_json(),
            r#"{"name":"a\"b","x":1.5,"n":42,"tags":["p","q"],"opt":null}"#
        );
    }

    #[test]
    fn json_rows_nest_in_sequences() {
        let rows = vec![Row {
            name: "x",
            x: f64::NAN,
            n: 0,
            tags: vec![],
            opt: Some(-3),
        }];
        assert_eq!(
            rows.to_json(),
            r#"[{"name":"x","x":null,"n":0,"tags":[],"opt":-3}]"#
        );
    }

    #[test]
    fn pct_reduction_basic() {
        assert_eq!(pct_reduction(10.0, 5.0), 50.0);
        assert_eq!(pct_reduction(0.0, 5.0), 0.0);
    }

    #[test]
    fn scale_defaults_to_bench() {
        // (Environment-dependent; in the test environment neither var set.)
        if std::env::var("FGDSM_FULL").is_err() && std::env::var("FGDSM_TEST").is_err() {
            assert_eq!(scale(), Scale::Bench);
        }
    }
}
