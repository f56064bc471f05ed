//! A minimal JSON reader for artifact validation.
//!
//! The store *emits* JSON with hand-rolled formatting (see
//! `ups_metrics::summary`); this module is the other direction — just
//! enough of a recursive-descent parser to load a `BENCH_sweep.json` back
//! and assert its schema, so CI can validate the artifact without serde
//! (the workspace is offline; DESIGN.md §6).

use std::collections::BTreeMap;

/// A parsed JSON value. Objects use a `BTreeMap` — artifact validation
/// only looks fields up by name, never relies on insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (JSON doesn't distinguish int/float).
    Number(f64),
    /// String.
    String(String),
    /// Array.
    Array(Vec<JsonValue>),
    /// Object.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(v) => Some(v),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. Artifacts nest about
/// five levels; the limit turns a pathological document (`[[[[…`) into
/// an `Err` instead of a stack overflow in the recursive descent.
pub const MAX_DEPTH: usize = 128;

/// Parse a complete JSON document; trailing non-whitespace is an error.
/// Runs in time linear in the input and never panics on malformed input.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let mut p = Parser { s: input, pos: 0 };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != input.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

/// Recursive-descent cursor over the input. `pos` only ever stops on an
/// ASCII byte or the end, so every `s[a..b]` slice is on a char boundary.
struct Parser<'a> {
    s: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {} (found {:?})",
                c as char,
                self.pos,
                self.peek().map(|x| x as char)
            ))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if depth >= MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )),
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.lit("true", JsonValue::Bool(true)),
            Some(b'f') => self.lit("false", JsonValue::Bool(false)),
            Some(b'n') => self.lit("null", JsonValue::Null),
            Some(c) if c.is_ascii_digit() || c == b'-' => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|x| x as char),
                self.pos
            )),
        }
    }

    fn lit(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.s[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        self.s[start..self.pos]
            .parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| format!("bad number at byte {start}"))
    }

    /// Copies each run between `"`/`\\` delimiters as one slice, so a
    /// string costs time linear in its length.
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let run = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(&self.s[run..self.pos]);
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => {
                    self.pos += 1; // the backslash
                    let escaped = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            let hex = self
                                .s
                                .get(self.pos + 1..self.pos + 5)
                                .filter(|h| h.bytes().all(|c| c.is_ascii_hexdigit()))
                                .ok_or("bad \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            self.pos += 4;
                            // Surrogate pairs don't appear in our artifacts;
                            // map lone surrogates to the replacement char.
                            char::from_u32(code).unwrap_or('\u{fffd}')
                        }
                        other => return Err(format!("bad escape {:?}", other.map(|x| x as char))),
                    };
                    out.push(escaped);
                    self.pos += 1;
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut v = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(v));
        }
        loop {
            v.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(v));
                }
                other => {
                    return Err(format!(
                        "expected , or ] (found {:?})",
                        other.map(|x| x as char)
                    ))
                }
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut m = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(m));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value(depth)?;
            m.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(m));
                }
                other => {
                    return Err(format!(
                        "expected , or }} (found {:?})",
                        other.map(|x| x as char)
                    ))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_record() {
        let src = r#"{"a": 1, "b": [true, null, -2.5e3], "s": "x\"y\\z\nq"}"#;
        let v = parse(src).unwrap();
        assert_eq!(v.get("a").unwrap().as_f64(), Some(1.0));
        let arr = v.get("b").unwrap().as_array().unwrap();
        assert_eq!(arr[0], JsonValue::Bool(true));
        assert_eq!(arr[1], JsonValue::Null);
        assert_eq!(arr[2].as_f64(), Some(-2500.0));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x\"y\\z\nq"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse(r#"{"a":1} trailing"#).is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn parses_summary_emission() {
        // The emitter in ups-metrics and this parser must agree.
        let summary = ups_metrics::RunSummary {
            flows: 2,
            packets: 10,
            delivered: 10,
            dropped: 0,
            delay_mean_s: 0.001,
            delay_p99_s: 0.002,
            fct_mean_s: 0.5,
            fct_buckets: vec![(1460, 0.1, 1), (u64::MAX, 0.2, 1)],
            jain: None,
            replay_match_rate: None,
            replay_frac_gt_t: None,
            quantized_match_rate: Some(0.5),
            quantized_frac_gt_t: Some(0.25),
            quantized_fct_delta_s: Some(0.003),
            transport: Some(ups_metrics::TransportSummary {
                completed_flows: 2,
                goodput_bytes: 12_345,
                retransmits: 1,
                rto_events: 0,
                slack_ooo: 2,
            }),
            disruption: Some(ups_metrics::DisruptionSummary {
                links_failed: 2,
                rerouted: 17,
                dropped_at_dead_link: 1,
                churn_replay_match_rate: None,
            }),
            divergence: None,
        };
        let v = parse(&summary.to_json()).unwrap();
        assert_eq!(v.get("packets").unwrap().as_f64(), Some(10.0));
        assert_eq!(v.get("replay_match_rate"), Some(&JsonValue::Null));
        assert_eq!(v.get("jain"), Some(&JsonValue::Null));
        assert_eq!(v.get("quantized_match_rate").unwrap().as_f64(), Some(0.5));
        assert_eq!(
            v.get("quantized_fct_delta_s").unwrap().as_f64(),
            Some(0.003)
        );
        let t = v.get("transport").unwrap();
        assert_eq!(t.get("goodput_bytes").unwrap().as_f64(), Some(12_345.0));
        let d = v.get("disruption").unwrap();
        assert_eq!(d.get("rerouted").unwrap().as_f64(), Some(17.0));
        assert_eq!(d.get("churn_replay_match_rate"), Some(&JsonValue::Null));
        let buckets = v.get("fct_buckets").unwrap().as_array().unwrap();
        assert_eq!(buckets[0].get("edge_bytes").unwrap().as_f64(), Some(1460.0));
        assert_eq!(buckets[1].get("edge_bytes"), Some(&JsonValue::Null));
    }

    #[test]
    fn unicode_and_escapes() {
        let v = parse(r#""café → naïve""#).unwrap();
        assert_eq!(v.as_str(), Some("café → naïve"));
        let v = parse(r#""a\u00e9\/b\tç""#).unwrap();
        assert_eq!(v.as_str(), Some("aé/b\tç"));
        assert!(parse(r#""\u+0e9""#).is_err());
        assert!(parse(r#""\u00"#).is_err());
        assert!(parse(r#""\x""#).is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper"), "{err}");
        // Far past the limit, unbalanced, objects and arrays mixed: still
        // an Err, never an abort.
        assert!(parse(&"[".repeat(200_000)).is_err());
        assert!(parse(&r#"{"a":["#.repeat(100_000)).is_err());
    }
}
