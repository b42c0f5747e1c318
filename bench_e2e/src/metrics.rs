//! Percentiles, the measured window's statistics and the JSON records.
//!
//! The workspace has no JSON crate, so the records are written by hand and
//! the tests carry the small parser that reads them back.

use std::fmt::Write as _;

/// A percentile needs this many samples beyond it to be reported.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice, or `None` when fewer
/// than [`MIN_SAMPLES_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    let rank = nearest_rank(sorted.len(), p)?;
    (sorted.len() - rank >= MIN_SAMPLES_BEYOND).then(|| sorted[rank - 1])
}

/// Nearest-rank percentile without the samples-beyond rule, for per-layer
/// numbers that carry no bound.  `None` only for an empty slice.
pub fn percentile_unchecked(sorted: &[u64], p: f64) -> Option<u64> {
    nearest_rank(sorted.len(), p).map(|rank| sorted[rank - 1])
}

fn nearest_rank(len: usize, p: f64) -> Option<usize> {
    (len > 0).then(|| ((p * len as f64).ceil() as usize).clamp(1, len))
}

/// Median of unsorted values (mean of the middle pair for an even count);
/// `0.0` for none.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// Median of integer samples, as `f64`; `0.0` for none.
pub fn median_u64(values: &[u64]) -> f64 {
    median(&mut values.iter().map(|&v| v as f64).collect::<Vec<_>>())
}

/// One completed request: when it ended (ns since the run's origin) and how
/// long the client waited for it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub end_ns: u64,
    pub latency_ns: u64,
}

/// Throughput and latency of the measured window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowStats {
    /// Samples in the window divided by its length: a stall costs what it
    /// lasted.
    pub throughput_rps: f64,
    pub p50_us: f64,
    pub p90_us: f64,
    pub p99_us: f64,
    pub max_us: f64,
    pub samples: usize,
    /// Samples that ended in each second of the window, in order: a
    /// diagnostic that tells a disturbed run from a slow one, not a metric.
    pub slice_rps: Vec<f64>,
    /// Whether [`MIN_SAMPLES_BEYOND`] samples lie beyond the p99.
    pub p99_supported: bool,
}

/// Statistics over every sample that ended in `[start_ns, end_ns)`.
pub fn window_stats(samples: &[Sample], start_ns: u64, end_ns: u64) -> WindowStats {
    const SLICE_NS: u64 = 1_000_000_000;
    let window_ns = end_ns.saturating_sub(start_ns).max(1);
    let mut slice_counts = vec![0u32; window_ns.div_ceil(SLICE_NS) as usize];
    let mut latencies = Vec::new();
    for s in samples.iter().filter(|s| (start_ns..end_ns).contains(&s.end_ns)) {
        slice_counts[((s.end_ns - start_ns) / SLICE_NS) as usize] += 1;
        latencies.push(s.latency_ns);
    }
    latencies.sort_unstable();
    let us = |p: f64| percentile_unchecked(&latencies, p).unwrap_or(0) as f64 / 1e3;
    let last_slice_ns = window_ns - (slice_counts.len() as u64 - 1) * SLICE_NS;
    let slice_rps = slice_counts
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let ns = if i + 1 == slice_counts.len() { last_slice_ns } else { SLICE_NS };
            n as f64 / (ns as f64 / 1e9)
        })
        .collect();
    WindowStats {
        throughput_rps: latencies.len() as f64 / (window_ns as f64 / 1e9),
        p50_us: us(0.50),
        p90_us: us(0.90),
        p99_us: us(0.99),
        max_us: us(1.0),
        samples: latencies.len(),
        slice_rps,
        p99_supported: percentile(&latencies, 0.99).is_some(),
    }
}

/// Median latency, in microseconds, of the samples that ended in
/// `[start_ns, end_ns)`; `None` when there are none.
pub fn median_us_between(samples: &[Sample], start_ns: u64, end_ns: u64) -> Option<f64> {
    let within: Vec<u64> = samples
        .iter()
        .filter(|s| (start_ns..end_ns).contains(&s.end_ns))
        .map(|s| s.latency_ns)
        .collect();
    (!within.is_empty()).then(|| median_u64(&within) / 1e3)
}

/// A named measurement with its unit, in the order it was recorded.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The metrics of one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push(Metric { name, value, unit });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` for the listed names, in
    /// that order.  Errors name the first metric the run did not measure.
    pub fn to_json(&self, names: &[&str]) -> Result<String, String> {
        let mut out = String::from("{");
        for (i, name) in names.iter().enumerate() {
            let m = self
                .0
                .iter()
                .find(|m| m.name == *name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(m.name),
                json_number(m.value),
                json_string(m.unit)
            );
        }
        out.push('}');
        Ok(out)
    }

    pub fn names(&self) -> Vec<&str> {
        self.0.iter().map(|m| m.name).collect()
    }
}

/// A JSON number with all the digits of the measurement; non-finite values
/// (which JSON cannot carry) become 0.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The last line of standard output: the result in the driver's shape.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics_json: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {metrics_json}}}"
    )
}

#[cfg(test)]
pub mod json {
    //! A minimal JSON reader, enough to check the records parse back.

    #[derive(Debug, Clone, PartialEq)]
    pub enum Json {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        pub fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        pub fn keys(&self) -> Vec<&str> {
            match self {
                Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
                _ => Vec::new(),
            }
        }

        pub fn as_arr(&self) -> &[Json] {
            match self {
                Json::Arr(items) => items,
                _ => &[],
            }
        }

        pub fn as_str(&self) -> Option<&str> {
            match self {
                Json::Str(s) => Some(s),
                _ => None,
            }
        }

        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Json::Num(n) => Some(*n),
                _ => None,
            }
        }
    }

    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos == bytes.len() {
            Ok(value)
        } else {
            Err(format!("trailing bytes at {pos}"))
        }
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while b.get(*pos).is_some_and(u8::is_ascii_whitespace) {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        skip_ws(b, pos);
        if b.get(*pos) == Some(&c) {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at {pos}", c as char))
        }
    }

    fn value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'{') => {
                *pos += 1;
                let mut fields = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    skip_ws(b, pos);
                    let key = string(b, pos)?;
                    expect(b, pos, b':')?;
                    fields.push((key, value(b, pos)?));
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected , or }} at {pos}")),
                    }
                }
            }
            Some(b'[') => {
                *pos += 1;
                let mut items = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(value(b, pos)?);
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected , or ] at {pos}")),
                    }
                }
            }
            Some(b'"') => string(b, pos).map(Json::Str),
            Some(_) => {
                let start = *pos;
                while b.get(*pos).is_some_and(|c| !b",]} \n\t\r".contains(c)) {
                    *pos += 1;
                }
                match std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())? {
                    "null" => Ok(Json::Null),
                    "true" => Ok(Json::Bool(true)),
                    "false" => Ok(Json::Bool(false)),
                    number => number
                        .parse()
                        .map(Json::Num)
                        .map_err(|_| format!("bad token {number:?} at {start}")),
                }
            }
            None => Err("unexpected end".into()),
        }
    }

    fn string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected a string at {pos}"));
        }
        *pos += 1;
        let mut out = Vec::new();
        loop {
            match b.get(*pos) {
                Some(b'"') => {
                    *pos += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let escaped = *b.get(*pos + 1).ok_or("unfinished escape")?;
                    *pos += 2;
                    match escaped {
                        b'n' => out.push(b'\n'),
                        b'u' => {
                            let hex =
                                std::str::from_utf8(b.get(*pos..*pos + 4).ok_or("short \\u")?)
                                    .map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            let c = char::from_u32(code).ok_or("bad \\u code point")?;
                            out.extend(c.to_string().as_bytes());
                            *pos += 4;
                        }
                        c => out.push(c),
                    }
                }
                Some(&c) => {
                    out.push(c);
                    *pos += 1;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.50), Some(500));
        assert_eq!(percentile(&v, 0.99), Some(990));
        assert_eq!(percentile_unchecked(&v, 1.0), Some(1000));
        assert_eq!(percentile_unchecked(&[], 0.5), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // p99 of 1000 samples has exactly ten beyond it; 999 has nine.
        let v: Vec<u64> = (1..=1000).collect();
        assert!(percentile(&v, 0.99).is_some());
        assert!(percentile(&v[..999], 0.99).is_none());
        assert!(percentile(&v[..20], 0.50).is_some());
        assert!(percentile(&v[..19], 0.50).is_none());
        assert!(percentile(&v, 1.0).is_none());
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
        assert_eq!(median_u64(&[5, 1, 9]), 5.0);
    }

    #[test]
    fn window_counts_a_stall_in_throughput_and_in_the_tail() {
        // A 5 s window at 2000 samples/s of 100 us, except that nothing
        // completes during the third second and the request that spanned
        // the stall took all of it.
        let mut samples = Vec::new();
        for i in 0..10_000u64 {
            let end_ns = 1_000_000_000 + i * 500_000;
            if !(4000..6000).contains(&i) {
                samples.push(Sample { end_ns, latency_ns: 100_000 });
            }
        }
        samples.push(Sample { end_ns: 4_000_000_000, latency_ns: 1_000_000_000 });
        // Samples outside the window are ignored.
        samples.push(Sample { end_ns: 5, latency_ns: 1 });
        samples.push(Sample { end_ns: 6_000_000_000, latency_ns: 1 });
        let w = window_stats(&samples, 1_000_000_000, 6_000_000_000);
        assert_eq!(w.samples, 8001);
        assert_eq!(w.slice_rps, [2000.0, 2000.0, 0.0, 2001.0, 2000.0]);
        assert!((w.throughput_rps - 1600.2).abs() < 1e-9);
        assert_eq!((w.p50_us, w.p99_us, w.max_us), (100.0, 100.0, 1_000_000.0));
        assert!(w.p99_supported);

        // A window that is not a whole number of seconds, with too few
        // samples for a supported p99.
        let w = window_stats(&samples[..500], 1_000_000_000, 2_500_000_000);
        assert_eq!((w.samples, w.p99_supported), (500, false));
        assert_eq!(w.slice_rps, [500.0, 0.0]);
        assert!((w.throughput_rps - 500.0 / 1.5).abs() < 1e-9);
        assert_eq!(window_stats(&[], 0, 1_000_000_000).throughput_rps, 0.0);
    }

    #[test]
    fn median_between_takes_the_samples_of_the_interval_only() {
        let samples: Vec<Sample> =
            (1..=9).map(|i| Sample { end_ns: i * 10, latency_ns: i * 1000 }).collect();
        assert_eq!(median_us_between(&samples, 0, 100), Some(5.0));
        assert_eq!(median_us_between(&samples, 10, 30), Some(1.5));
        assert_eq!(median_us_between(&samples, 91, 100), None);
    }

    #[test]
    fn result_line_parses_back() {
        let mut m = Metrics::default();
        m.push("latency_p50_us", 123.456, "us");
        m.push("odd \"name\"", f64::NAN, "1/s");
        let line =
            result_line(true, 10, 0, &m.to_json(&["odd \"name\"", "latency_p50_us"]).unwrap());
        let parsed = json::parse(&line).unwrap();
        assert_eq!(parsed.keys(), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(parsed.get("correct"), Some(&json::Json::Bool(true)));
        let metrics = parsed.get("metrics").unwrap();
        assert_eq!(metrics.keys(), ["odd \"name\"", "latency_p50_us"]);
        let p50 = metrics.get("latency_p50_us").unwrap();
        assert_eq!(p50.get("value").and_then(json::Json::as_f64), Some(123.456));
        assert_eq!(p50.get("unit").and_then(json::Json::as_str), Some("us"));
        assert!(m.to_json(&["missing"]).is_err());
    }
}
