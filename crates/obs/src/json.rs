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

use std::fmt::Write as _;

use crate::registry::{HistogramSnapshot, MetricValue, MetricsRegistry};

pub(crate) fn escape(s: &str) -> String {
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

/// Formats a gauge so that parsing the text recovers the exact bits
/// (shortest round-trip via `{:?}`, which always marks the value as a
/// float), with non-finite values mapped to `null`.
pub(crate) fn gauge_str(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

pub(crate) fn value_json(value: &MetricValue) -> String {
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

impl MetricsRegistry {
    /// Serializes the registry as a single JSON object, keys in
    /// deterministic (lexicographic) order. Byte-identical registries
    /// produce byte-identical snapshots.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(32 * self.len().max(1));
        out.push('{');
        for (i, (name, value)) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", escape(name), value_json(value));
        }
        out.push('}');
        out
    }

    /// Parses a snapshot produced by [`MetricsRegistry::to_json`].
    ///
    /// Accepts exactly the subset of JSON that `to_json` emits (plus
    /// insignificant whitespace); anything else is an error naming the
    /// byte offset.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        let reg = p.object()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(reg)
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

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
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
                    // Copy the whole run of plain bytes up to the next
                    // quote or backslash as one slice. Both delimiters
                    // are ASCII, so the run ends on a char boundary of
                    // the (already valid) input and needs no
                    // re-validation; without a delimiter it runs to the
                    // end and the next turn reports the open string.
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
    fn number_or_null(&mut self) -> Result<MetricValue, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(b"null") {
            self.pos += 4;
            return Ok(MetricValue::Gauge(f64::NAN));
        }
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let token =
            std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| "invalid number")?;
        if token.is_empty() {
            return Err(format!("expected a number at byte {start}"));
        }
        if !token.contains(['.', 'e', 'E']) {
            return token
                .parse::<u64>()
                .map(MetricValue::Counter)
                .map_err(|_| format!("bad counter {token:?} at byte {start}"));
        }
        token
            .parse::<f64>()
            .map(MetricValue::Gauge)
            .map_err(|_| format!("bad number {token:?} at byte {start}"))
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
            match key.as_str() {
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

    fn object(&mut self) -> Result<MetricsRegistry, String> {
        self.expect(b'{')?;
        let mut reg = MetricsRegistry::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(reg);
        }
        loop {
            self.skip_ws();
            let name = self.string()?;
            self.expect(b':')?;
            self.skip_ws();
            let value = match self.peek() {
                Some(b'"') => MetricValue::Label(self.string()?),
                Some(b'{') => {
                    self.pos += 1;
                    MetricValue::Histogram(self.histogram()?)
                }
                _ => self.number_or_null()?,
            };
            reg.set(name, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(reg);
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn empty_registry_round_trips() {
        let r = MetricsRegistry::new();
        assert_eq!(r.to_json(), "{}");
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
