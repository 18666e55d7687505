//! Snapshot serialization: one JSON object per registry, with
//! shortest-round-trip float formatting (the `scenario::output`
//! convention), plus a parser for reading snapshots back.
//!
//! The encoding is self-describing so typed values survive a round trip:
//!
//! - counters serialize as bare unsigned integers (`477`),
//! - gauges serialize with Rust's `{:?}` float formatting, which always
//!   emits a `.` or exponent (`0.86`, `2.0`, `1e300`) — never colliding
//!   with the counter form — and non-finite values as `null`,
//! - labels serialize as JSON strings,
//! - histograms serialize as
//!   `{"count":N,"mean_ns":N,"p50_ns":N,"p99_ns":N,"buckets":[[lo,c],…]}`.
//!
//! Every served cell crosses this codec three times (store load, encode
//! for the wire, client decode), so neither direction makes a temporary
//! per metric. The encoder appends into one pre-sized `String`: names
//! and labels are escaped in place, counters are written digit by digit
//! and gauges are formatted straight into the buffer. The decoder
//! borrows names and number tokens from the input, scans each number
//! once, and builds the map in one go from the pairs, which a snapshot
//! already lists in key order.

use std::borrow::Cow;
use std::fmt::Write as _;

use crate::registry::{HistogramSnapshot, MetricValue, MetricsRegistry};

/// Appends `s` to `out` as the inside of a JSON string: `"` and `\`
/// get a backslash, control characters become `\u00XX` (lowercase hex),
/// and everything else, multi-byte characters included, is copied
/// unchanged. Runs of plain bytes are copied as one slice, so a string
/// with nothing to escape is a single copy.
///
/// ```
/// let mut out = String::from("\"");
/// hiss_obs::json_escape_into(&mut out, "a\"b\n");
/// out.push('"');
/// assert_eq!(out, r#""a\"b\u000a""#);
/// ```
pub fn json_escape_into(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut plain = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        // Every escaped byte is ASCII, so `i` is a char boundary.
        out.push_str(&s[plain..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
        plain = i + 1;
    }
    out.push_str(&s[plain..]);
}

/// Appends `v` in decimal, the digits `{v}` prints, without going
/// through the formatting machinery.
fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    for &d in &digits[at..] {
        out.push(char::from(d));
    }
}

/// Appends a gauge so that parsing the text recovers the exact bits
/// (shortest round-trip via `{:?}`, which always marks the value as a
/// float), with non-finite values mapped to `null`.
pub(crate) fn push_gauge(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x:?}");
    } else {
        out.push_str("null");
    }
}

/// Appends the JSON form of one value.
pub(crate) fn push_value(out: &mut String, value: &MetricValue) {
    match value {
        MetricValue::Counter(v) => push_u64(out, *v),
        MetricValue::Gauge(x) => push_gauge(out, *x),
        MetricValue::Label(s) => {
            out.push('"');
            json_escape_into(out, s);
            out.push('"');
        }
        MetricValue::Histogram(h) => {
            out.push_str("{\"count\":");
            push_u64(out, h.count);
            out.push_str(",\"mean_ns\":");
            push_u64(out, h.mean_ns);
            out.push_str(",\"p50_ns\":");
            push_u64(out, h.p50_ns);
            out.push_str(",\"p99_ns\":");
            push_u64(out, h.p99_ns);
            out.push_str(",\"buckets\":[");
            for (i, &(lo, c)) in h.buckets.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('[');
                push_u64(out, lo);
                out.push(',');
                push_u64(out, c);
                out.push(']');
            }
            out.push_str("]}");
        }
    }
}

/// The encoded length of `value`, exact for labels without escapes and
/// an upper bound for numbers, so one reservation covers a snapshot.
pub(crate) fn value_len_hint(value: &MetricValue) -> usize {
    match value {
        MetricValue::Counter(_) => 20,
        // `-2.2250738585072014e-308` is the longest `{:?}` form.
        MetricValue::Gauge(_) => 24,
        MetricValue::Label(s) => s.len() + 2,
        MetricValue::Histogram(h) => 134 + 43 * h.buckets.len(),
    }
}

impl MetricsRegistry {
    /// Serializes the registry as a single JSON object, keys in
    /// deterministic (lexicographic) order. Byte-identical registries
    /// produce byte-identical snapshots. The string is allocated once,
    /// with room for the newline that ends a snapshot line.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Appends [`MetricsRegistry::to_json`]'s bytes to `out`, reserving
    /// room for all of them (and one newline) up front.
    pub fn write_json(&self, out: &mut String) {
        let hint: usize = self
            .iter()
            .map(|(name, value)| name.len() + 4 + value_len_hint(value))
            .sum();
        out.reserve(hint + 3);
        out.push('{');
        for (i, (name, value)) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            json_escape_into(out, name);
            out.push_str("\":");
            push_value(out, value);
        }
        out.push('}');
    }

    /// Parses a snapshot produced by [`MetricsRegistry::to_json`].
    ///
    /// Accepts exactly the subset of JSON that `to_json` emits (plus
    /// insignificant whitespace); anything else is an error naming the
    /// byte offset. When a name repeats, its later value wins. Names
    /// and labels without escapes are copied straight from `text`.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        let pairs = p.object()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(MetricsRegistry::from_pairs(pairs))
    }
}

/// Minimal recursive-descent parser for the snapshot schema.
struct Parser<'a> {
    text: &'a str,
    /// `text` as bytes, for single-byte lookahead.
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", char::from(b), self.pos))
        }
    }

    /// A string, borrowed from the input when it holds no escape.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        // Both delimiters are ASCII, so a run of plain bytes ends on a
        // char boundary of the (already valid) input and is sliced
        // without re-validation.
        let start = self.pos;
        let run = self.bytes[start..]
            .iter()
            .position(|b| matches!(b, b'"' | b'\\'))
            .map_or(self.bytes.len(), |n| start + n);
        if self.bytes.get(run) == Some(&b'"') {
            self.pos = run + 1;
            return Ok(Cow::Borrowed(&self.text[start..run]));
        }
        let mut out = self.text[start..run].to_string();
        self.pos = run;
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = hex
                                .iter()
                                .try_fold(0, |acc, &b| Some(acc * 16 + char::from(b).to_digit(16)?))
                                .ok_or("bad \\u escape")?;
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // The next run of plain bytes, as one slice; without
                    // a delimiter it runs to the end and the next turn
                    // reports the open string.
                    let end = self.bytes[self.pos..]
                        .iter()
                        .position(|b| matches!(b, b'"' | b'\\'))
                        .map_or(self.bytes.len(), |n| self.pos + n);
                    out.push_str(&self.text[self.pos..end]);
                    self.pos = end;
                }
            }
        }
    }

    /// A numeric token: digits only → `Counter` (must fit a `u64`),
    /// anything with `.`/`e` → `Gauge`, `null` → non-finite gauge
    /// placeholder. Like `to_json`, never a `+` or a signed counter.
    /// One scan finds the token's end, its kind and, for a counter,
    /// its value.
    fn number_or_null(&mut self) -> Result<MetricValue, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(b"null") {
            self.pos += 4;
            return Ok(MetricValue::Gauge(f64::NAN));
        }
        let start = self.pos;
        // `None` once the token cannot be a counter: a sign, or more
        // than a `u64` holds.
        let mut counter = Some(0u64);
        let mut float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => {
                    counter =
                        counter.and_then(|v| v.checked_mul(10)?.checked_add(u64::from(b - b'0')));
                }
                b'.' | b'e' | b'E' => float = true,
                b'-' => counter = None,
                _ => break,
            }
            self.pos += 1;
        }
        // Every scanned byte is ASCII, so the token is a valid slice.
        let token = &self.text[start..self.pos];
        if token.is_empty() {
            return Err(format!("expected a number at byte {start}"));
        }
        if float {
            return token
                .parse::<f64>()
                .map(MetricValue::Gauge)
                .map_err(|_| format!("bad number {token:?} at byte {start}"));
        }
        counter
            .map(MetricValue::Counter)
            .ok_or_else(|| format!("bad counter {token:?} at byte {start}"))
    }

    fn u64_field(&mut self) -> Result<u64, String> {
        match self.number_or_null()? {
            MetricValue::Counter(v) => Ok(v),
            _ => Err(format!("expected an integer before byte {}", self.pos)),
        }
    }

    fn histogram(&mut self) -> Result<HistogramSnapshot, String> {
        // '{' already consumed by the caller's dispatch.
        let mut h = HistogramSnapshot::default();
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            match &*key {
                "count" => h.count = self.u64_field()?,
                "mean_ns" => h.mean_ns = self.u64_field()?,
                "p50_ns" => h.p50_ns = self.u64_field()?,
                "p99_ns" => h.p99_ns = self.u64_field()?,
                "buckets" => {
                    self.expect(b'[')?;
                    self.skip_ws();
                    if self.peek() == Some(b']') {
                        self.pos += 1;
                    } else {
                        loop {
                            self.expect(b'[')?;
                            let lo = self.u64_field()?;
                            self.expect(b',')?;
                            let c = self.u64_field()?;
                            self.expect(b']')?;
                            h.buckets.push((lo, c));
                            self.skip_ws();
                            match self.peek() {
                                Some(b',') => self.pos += 1,
                                Some(b']') => {
                                    self.pos += 1;
                                    break;
                                }
                                _ => return Err("malformed bucket list".into()),
                            }
                        }
                    }
                }
                other => return Err(format!("unknown histogram field {other:?}")),
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(h);
                }
                _ => return Err("malformed histogram object".into()),
            }
        }
    }

    /// The object's `(name, value)` pairs, in input order.
    fn object(&mut self) -> Result<Vec<(String, MetricValue)>, String> {
        self.expect(b'{')?;
        // A snapshot spends about 30 bytes per metric.
        let mut pairs = Vec::with_capacity(self.bytes.len() / 24);
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(pairs);
        }
        loop {
            self.skip_ws();
            let name = self.string()?.into_owned();
            self.expect(b':')?;
            self.skip_ws();
            let value = match self.peek() {
                Some(b'"') => MetricValue::Label(self.string()?.into_owned()),
                Some(b'{') => {
                    self.pos += 1;
                    MetricValue::Histogram(self.histogram()?)
                }
                _ => self.number_or_null()?,
            };
            pairs.push((name, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(pairs);
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The encoder as it stood before the in-place rewrite, one
    /// temporary `String` per name and value: the byte-for-byte oracle
    /// for `to_json` and `to_jsonl`.
    mod oracle {
        use std::fmt::Write as _;

        use crate::registry::{MetricValue, MetricsRegistry};

        fn escape(s: &str) -> String {
            let mut out = String::with_capacity(s.len());
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(out, "\\u{:04x}", c as u32);
                    }
                    c => out.push(c),
                }
            }
            out
        }

        fn gauge_str(x: f64) -> String {
            if x.is_finite() {
                format!("{x:?}")
            } else {
                "null".to_string()
            }
        }

        fn value_json(value: &MetricValue) -> String {
            match value {
                MetricValue::Counter(v) => v.to_string(),
                MetricValue::Gauge(v) => gauge_str(*v),
                MetricValue::Label(s) => format!("\"{}\"", escape(s)),
                MetricValue::Histogram(h) => {
                    let mut out = String::with_capacity(64 + 16 * h.buckets.len());
                    let _ = write!(
                        out,
                        "{{\"count\":{},\"mean_ns\":{},\"p50_ns\":{},\"p99_ns\":{},\"buckets\":[",
                        h.count, h.mean_ns, h.p50_ns, h.p99_ns
                    );
                    for (i, (lo, c)) in h.buckets.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "[{lo},{c}]");
                    }
                    out.push_str("]}");
                    out
                }
            }
        }

        pub(super) fn to_json(r: &MetricsRegistry) -> String {
            let mut out = String::with_capacity(32 * r.len().max(1));
            out.push('{');
            for (i, (name, value)) in r.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":{}", escape(name), value_json(value));
            }
            out.push('}');
            out
        }

        pub(super) fn to_jsonl(r: &MetricsRegistry) -> String {
            let mut out = String::with_capacity(48 * r.len());
            for (name, value) in r.iter() {
                let _ = writeln!(
                    out,
                    "{{\"metric\":\"{}\",\"value\":{}}}",
                    escape(name),
                    value_json(value)
                );
            }
            out
        }
    }

    fn sample() -> MetricsRegistry {
        let mut r = MetricsRegistry::new();
        r.counter("kernel.ipis", 477);
        r.gauge("run.cc6_residency", 0.8625);
        r.gauge("run.whole", 2.0);
        r.label("cell.cpu_app", "x264");
        let mut h = hiss_sim::Histogram::new();
        h.record(hiss_sim::Ns::from_nanos(1_000));
        h.record(hiss_sim::Ns::from_micros(50));
        r.histogram("kernel.latency", &h);
        r
    }

    #[test]
    fn json_round_trips_bit_exactly() {
        let r = sample();
        let json = r.to_json();
        let back = MetricsRegistry::from_json(&json).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn gauges_never_collide_with_counters() {
        // An integral gauge must keep its float identity through JSON.
        let mut r = MetricsRegistry::new();
        r.gauge("g", 2.0);
        r.counter("c", 2);
        let json = r.to_json();
        assert!(json.contains("\"g\":2.0"), "{json}");
        assert!(json.contains("\"c\":2"), "{json}");
        let back = MetricsRegistry::from_json(&json).unwrap();
        assert_eq!(back.gauge_value("g"), Some(2.0));
        assert_eq!(back.counter_value("c"), Some(2));
    }

    #[test]
    fn extreme_floats_round_trip() {
        for v in [1e300, 1e-300, -0.0, f64::MIN_POSITIVE, 1.0 / 3.0] {
            let mut r = MetricsRegistry::new();
            r.gauge("x", v);
            let back = MetricsRegistry::from_json(&r.to_json()).unwrap();
            assert_eq!(back.gauge_value("x").unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn non_finite_gauges_serialize_as_null() {
        let mut r = MetricsRegistry::new();
        r.gauge("bad", f64::INFINITY);
        let json = r.to_json();
        assert_eq!(json, "{\"bad\":null}");
        let back = MetricsRegistry::from_json(&json).unwrap();
        assert!(back.gauge_value("bad").unwrap().is_nan());
    }

    #[test]
    fn labels_escape_and_unescape() {
        let mut r = MetricsRegistry::new();
        r.label("l", "a\"b\\c\nd");
        let back = MetricsRegistry::from_json(&r.to_json()).unwrap();
        assert_eq!(back.label_value("l"), Some("a\"b\\c\nd"));
    }

    #[test]
    fn a_later_duplicate_key_wins() {
        let back = MetricsRegistry::from_json("{\"a\":1,\"b\":2.5,\"a\":\"x\",\"c\":3,\"b\":null}")
            .unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back.label_value("a"), Some("x"));
        assert!(back.gauge_value("b").unwrap().is_nan());
        assert_eq!(back.counter_value("c"), Some(3));
    }

    #[test]
    fn keys_out_of_order_decode_into_name_order() {
        let back = MetricsRegistry::from_json("{\"z\":1,\"\\u0061\":2,\"m\":3}").unwrap();
        let names: Vec<&str> = back.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["a", "m", "z"]);
        assert_eq!(back.to_json(), "{\"a\":2,\"m\":3,\"z\":1}");
    }

    #[test]
    fn counters_print_every_digit() {
        for v in [0, 7, 10, 99, 100, 1_000_000_007, u64::MAX - 1, u64::MAX] {
            let mut r = MetricsRegistry::new();
            r.counter("c", v);
            assert_eq!(r.to_json(), format!("{{\"c\":{v}}}"));
        }
    }

    #[test]
    fn empty_registry_round_trips() {
        let r = MetricsRegistry::new();
        assert_eq!(r.to_json(), "{}");
        assert_eq!(r.to_json(), oracle::to_json(&r));
        assert!(MetricsRegistry::from_json("{}").unwrap().is_empty());
    }

    #[test]
    fn malformed_snapshots_are_rejected() {
        for bad in ["", "{", "{\"a\":}", "{\"a\":1,}", "{\"a\":1}x", "[1]"] {
            assert!(
                MetricsRegistry::from_json(bad).is_err(),
                "{bad:?} should not parse"
            );
        }
    }

    #[test]
    fn malformed_snapshot_errors_name_the_fault() {
        let cases = [
            ("", "expected '{' at byte 0"),
            ("[1]", "expected '{' at byte 0"),
            ("{", "expected '\"' at byte 1"),
            ("{\"a\":}", "expected a number at byte 5"),
            ("{\"é\":}", "expected a number at byte 6"),
            ("{\"a\":1,}", "expected '\"' at byte 7"),
            ("{\"a\":1}x", "trailing data at byte 7"),
            ("{\"a\":1 2}", "expected ',' or '}' at byte 7"),
            ("{\"a\":1.2.3}", "bad number \"1.2.3\" at byte 5"),
            // Number forms `to_json` never emits: signs on counters, a
            // `+` anywhere, counters past u64::MAX.
            ("{\"a\":+5}", "expected a number at byte 5"),
            ("{\"a\":-0}", "bad counter \"-0\" at byte 5"),
            ("{\"a\":-5}", "bad counter \"-5\" at byte 5"),
            ("{\"a\":1e+3}", "bad number \"1e\" at byte 5"),
            (
                "{\"a\":18446744073709551616}",
                "bad counter \"18446744073709551616\" at byte 5",
            ),
            // Truncated right after a multi-byte character, in a name
            // and in a label.
            ("{\"é", "unterminated string"),
            ("{\"a\":\"x€", "unterminated string"),
            ("{\"a\\q\":1}", "bad escape Some(113)"),
            ("{\"a\\", "bad escape None"),
            ("{\"\\u00\":1}", "bad \\u escape"),
            ("{\"\\u12", "truncated \\u escape"),
            ("{\"\\u+041\":1}", "bad \\u escape"),
            ("{\"\\ud800\":1}", "bad \\u code point"),
            (
                "{\"a\":{\"count\":1.5}}",
                "expected an integer before byte 17",
            ),
            ("{\"a\":{\"x\":1}}", "unknown histogram field \"x\""),
            ("{\"a\":{\"buckets\":[1]}}", "expected '[' at byte 17"),
            ("{\"a\":{\"buckets\":[[1,2]x", "malformed bucket list"),
            ("{\"a\":{\"count\":1x", "malformed histogram object"),
        ];
        for (bad, want) in cases {
            assert_eq!(
                MetricsRegistry::from_json(bad).unwrap_err(),
                want,
                "{bad:?}"
            );
        }
    }

    mod proptests {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        /// Pieces that strings are built from: plain ASCII, multi-byte
        /// characters, and everything the codec escapes, including text
        /// that looks like an escape.
        const PIECES: &[&str] = &[
            "a", "Z", "0", ".", " ", "{", "}", ",", ":", "u", "\"", "\\", "\\u0041", "\n", "\t",
            "\u{0}", "\u{1f}", "\u{7f}", "é", "ß", "€", "\u{fffd}", "𝄞", "🦀",
        ];

        fn text(picks: &[usize]) -> String {
            picks.iter().map(|&i| PIECES[i % PIECES.len()]).collect()
        }

        /// Builds one metric value of `kind` from raw draws. Gauges are
        /// NaN, ±inf or -0.0 in half the draws and arbitrary bit
        /// patterns (subnormals included) otherwise.
        fn value(kind: usize, bits: u64, picks: &[usize]) -> MetricValue {
            const SPECIAL: [f64; 4] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0];
            match kind % 4 {
                0 => MetricValue::Counter(bits),
                1 if bits % 2 == 0 => MetricValue::Gauge(SPECIAL[(bits as usize >> 1) % 4]),
                1 => MetricValue::Gauge(f64::from_bits(bits)),
                2 => MetricValue::Label(text(picks)),
                _ => MetricValue::Histogram(HistogramSnapshot {
                    count: bits,
                    mean_ns: bits >> 3,
                    p50_ns: bits >> 5,
                    p99_ns: bits >> 1,
                    buckets: picks.iter().map(|&i| (i as u64, bits ^ i as u64)).collect(),
                }),
            }
        }

        /// Decoded equals original, except that a non-finite gauge comes
        /// back as NaN; finite gauges must keep their exact bits.
        fn same(decoded: &MetricValue, original: &MetricValue) -> bool {
            match (decoded, original) {
                (MetricValue::Gauge(d), MetricValue::Gauge(o)) if !o.is_finite() => d.is_nan(),
                (MetricValue::Gauge(d), MetricValue::Gauge(o)) => d.to_bits() == o.to_bits(),
                _ => decoded == original,
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn encoders_match_the_reference_bytes(
                entries in vec((vec(0usize..64, 0..12), 0usize..4, any::<u64>(), vec(0usize..64, 0..12)), 0..16),
            ) {
                let mut r = MetricsRegistry::new();
                for (name, kind, bits, picks) in &entries {
                    r.set(text(name), value(*kind, *bits, picks));
                }
                prop_assert_eq!(r.to_json(), oracle::to_json(&r));
                prop_assert_eq!(r.to_jsonl(), oracle::to_jsonl(&r));
            }

            #[test]
            fn registries_round_trip_through_json(
                entries in vec((vec(0usize..64, 0..12), 0usize..4, any::<u64>(), vec(0usize..64, 0..12)), 0..16),
            ) {
                let mut r = MetricsRegistry::new();
                for (name, kind, bits, picks) in &entries {
                    r.set(text(name), value(*kind, *bits, picks));
                }
                let json = r.to_json();
                let back = MetricsRegistry::from_json(&json).unwrap();
                prop_assert_eq!(back.to_json(), json);
                prop_assert_eq!(back.len(), r.len());
                for ((bn, bv), (rn, rv)) in back.iter().zip(r.iter()) {
                    prop_assert_eq!(bn, rn);
                    prop_assert!(same(bv, rv), "{rn:?}: {bv:?} vs {rv:?}");
                }
            }
        }
    }
}
