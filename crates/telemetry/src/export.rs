//! Exporters: Prometheus text exposition format and jsonmini JSON, both
//! rendering a list of [`Series`] the caller builds at export time.

use std::collections::HashSet;
use std::fmt::Write as _;

use crate::hist::{bucket_bounds, Histogram};

/// One exported series: a metric family name, its help text, at most
/// one label, and the sample.
#[derive(Debug, Clone, Copy)]
pub struct Series<'a> {
    /// Metric family name; series sharing it form one family.
    pub name: &'a str,
    /// Help text (the family's first series supplies it; empty omits
    /// the `# HELP` line).
    pub help: &'a str,
    /// An optional `(key, value)` label.
    pub label: Option<(&'a str, &'a str)>,
    /// The value.
    pub sample: Sample<'a>,
}

/// The value of one [`Series`].
#[derive(Debug, Clone, Copy)]
pub enum Sample<'a> {
    /// A monotonically increasing count.
    Counter(u64),
    /// A value that can go up and down.
    Gauge(i64),
    /// A latency (or any magnitude) distribution, snapshotted at render.
    Histogram(&'a Histogram),
}

impl Sample<'_> {
    fn kind(&self) -> &'static str {
        match self {
            Sample::Counter(_) => "counter",
            Sample::Gauge(_) => "gauge",
            Sample::Histogram(_) => "histogram",
        }
    }
}

/// Renders `series` in order in the Prometheus text exposition format
/// (`# HELP` / `# TYPE` headers once per family name, one sample line
/// per series; histograms expand to cumulative `_bucket{le=...}` lines
/// plus `_sum` and `_count`).
pub fn render_prometheus(series: &[Series<'_>]) -> String {
    let mut out = String::new();
    let mut seen: HashSet<&str> = HashSet::new();
    for s in series {
        let name = s.name;
        if seen.insert(name) {
            if !s.help.is_empty() {
                let _ = writeln!(out, "# HELP {name} {}", s.help);
            }
            let _ = writeln!(out, "# TYPE {name} {}", s.sample.kind());
        }
        let labels = label_block(s.label, None);
        match s.sample {
            Sample::Counter(v) => {
                let _ = writeln!(out, "{name}{labels} {v}");
            }
            Sample::Gauge(v) => {
                let _ = writeln!(out, "{name}{labels} {v}");
            }
            Sample::Histogram(h) => {
                let snap = h.snapshot();
                let mut cum = 0u64;
                for (i, &c) in snap.buckets.iter().enumerate() {
                    if c == 0 {
                        continue;
                    }
                    cum += c;
                    let le = label_block(s.label, Some(&bucket_bounds(i).1.to_string()));
                    let _ = writeln!(out, "{name}_bucket{le} {cum}");
                }
                let inf = label_block(s.label, Some("+Inf"));
                let _ = writeln!(out, "{name}_bucket{inf} {}", snap.count);
                let _ = writeln!(out, "{name}_sum{labels} {}", snap.sum);
                let _ = writeln!(out, "{name}_count{labels} {}", snap.count);
            }
        }
    }
    out
}

/// Renders `series` in order as a JSON document:
/// `{"metrics": [{name, type, labels, ...}]}`. Counters and gauges
/// carry `value`; histograms carry `count`, `sum`, `mean`, `p50`,
/// `p90`, `p99` and `max`.
pub fn render_json(series: &[Series<'_>]) -> jsonmini::Value {
    let metrics = series
        .iter()
        .map(|s| {
            let mut m = jsonmini::Value::object();
            m.insert("name", s.name);
            m.insert("type", s.sample.kind());
            let mut labels = jsonmini::Value::object();
            if let Some((k, v)) = s.label {
                labels.insert(k, v);
            }
            m.insert("labels", labels);
            match s.sample {
                Sample::Counter(v) => m.insert("value", v as f64),
                Sample::Gauge(v) => m.insert("value", v as f64),
                Sample::Histogram(h) => {
                    let snap = h.snapshot();
                    m.insert("count", snap.count as f64);
                    m.insert("sum", snap.sum as f64);
                    m.insert("mean", snap.mean());
                    m.insert("p50", snap.percentile(0.50) as f64);
                    m.insert("p90", snap.percentile(0.90) as f64);
                    m.insert("p99", snap.percentile(0.99) as f64);
                    m.insert("max", snap.max as f64);
                }
            }
            m
        })
        .collect();
    let mut doc = jsonmini::Value::object();
    doc.insert("metrics", jsonmini::Value::Array(metrics));
    doc
}

fn label_block(label: Option<(&str, &str)>, le: Option<&str>) -> String {
    match (label, le) {
        (None, None) => String::new(),
        (Some((k, v)), None) => format!("{{{k}=\"{}\"}}", escape_label(v)),
        (None, Some(le)) => format!("{{le=\"{le}\"}}"),
        (Some((k, v)), Some(le)) => format!("{{{k}=\"{}\",le=\"{le}\"}}", escape_label(v)),
    }
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Checks that `text` is line-by-line well-formed Prometheus text
/// exposition format: every line is empty, a `# HELP`/`# TYPE` comment,
/// or `name{labels} value` with a valid metric name, balanced quoted
/// labels and a parseable float value. Returns the first offending line.
pub fn validate_prometheus(text: &str) -> Result<(), String> {
    for (lineno, line) in text.lines().enumerate() {
        validate_line(line).map_err(|e| format!("line {}: {e}: {line:?}", lineno + 1))?;
    }
    Ok(())
}

fn validate_line(line: &str) -> Result<(), &'static str> {
    if line.trim().is_empty() {
        return Ok(());
    }
    if let Some(rest) = line.strip_prefix("# ") {
        let mut parts = rest.splitn(3, ' ');
        let keyword = parts.next().unwrap_or("");
        let name = parts.next().unwrap_or("");
        if !matches!(keyword, "HELP" | "TYPE") {
            return Err("unknown comment keyword");
        }
        if !valid_name(name) {
            return Err("bad metric name in comment");
        }
        if keyword == "TYPE" {
            let kind = parts.next().unwrap_or("").trim();
            if !matches!(
                kind,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return Err("bad TYPE kind");
            }
        }
        return Ok(());
    }
    if line.starts_with('#') {
        return Err("comment must start with '# '");
    }
    // name[{labels}] value
    let name_end = line.find(['{', ' ']).ok_or("missing value")?;
    if !valid_name(&line[..name_end]) {
        return Err("bad metric name");
    }
    let rest = &line[name_end..];
    let rest = if let Some(body) = rest.strip_prefix('{') {
        let close = find_label_close(body).ok_or("unterminated label block")?;
        validate_labels(&body[..close])?;
        &body[close + 1..]
    } else {
        rest
    };
    let value = rest.trim_start();
    if value.is_empty() || rest == value {
        return Err("value must be space-separated");
    }
    // Prometheus accepts floats plus the special +Inf/-Inf/NaN forms.
    let ok = value.parse::<f64>().is_ok() || matches!(value, "+Inf" | "-Inf" | "NaN");
    if !ok {
        return Err("unparseable sample value");
    }
    Ok(())
}

/// Index of the label-block closing brace, skipping quoted values.
fn find_label_close(body: &str) -> Option<usize> {
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, c) in body.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_quotes => escaped = true,
            '"' => in_quotes = !in_quotes,
            '}' if !in_quotes => return Some(i),
            _ => {}
        }
    }
    None
}

fn validate_labels(body: &str) -> Result<(), &'static str> {
    if body.is_empty() {
        return Ok(());
    }
    // Split on commas outside quotes.
    let mut start = 0usize;
    let mut in_quotes = false;
    let mut escaped = false;
    let mut pairs = Vec::new();
    for (i, c) in body.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_quotes => escaped = true,
            '"' => in_quotes = !in_quotes,
            ',' if !in_quotes => {
                pairs.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    pairs.push(&body[start..]);
    for pair in pairs {
        let eq = pair.find('=').ok_or("label missing '='")?;
        let key = &pair[..eq];
        let value = &pair[eq + 1..];
        if !valid_name(key) {
            return Err("bad label name");
        }
        if !(value.len() >= 2 && value.starts_with('"') && value.ends_with('"')) {
            return Err("label value must be quoted");
        }
        valid_label_value(&value[1..value.len() - 1])?;
    }
    Ok(())
}

/// Checks the interior of a quoted label value: backslash may only
/// introduce the escapes Prometheus defines (`\\`, `\"`, `\n`), every
/// interior quote must be escaped, and a raw newline can never appear
/// (the renderer escapes it, and a literal one would have split the
/// sample line anyway).
fn valid_label_value(interior: &str) -> Result<(), &'static str> {
    let mut chars = interior.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => match chars.next() {
                Some('\\') | Some('"') | Some('n') => {}
                Some(_) => return Err("invalid escape in label value"),
                None => return Err("trailing backslash in label value"),
            },
            '"' => return Err("unescaped quote in label value"),
            '\n' => return Err("raw newline in label value"),
            _ => {}
        }
    }
    Ok(())
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_series(h: &Histogram) -> [Series<'_>; 3] {
        for v in [120u64, 4_500, 4_700, 1_000_000] {
            h.record(v);
        }
        [
            Series {
                name: "scans_total",
                help: "total scans",
                label: None,
                sample: Sample::Counter(7),
            },
            Series {
                name: "queue_depth",
                help: "jobs queued",
                label: Some(("shard", "0")),
                sample: Sample::Gauge(3),
            },
            Series {
                name: "stage_ns",
                help: "stage latency",
                label: Some(("stage", "yara")),
                sample: Sample::Histogram(h),
            },
        ]
    }

    #[test]
    fn prometheus_output_is_well_formed() {
        let text = render_prometheus(&sample_series(&Histogram::new()));
        validate_prometheus(&text).expect("self-rendered output validates");
        assert!(text.contains("# TYPE scans_total counter"));
        assert!(text.contains("scans_total 7"));
        assert!(text.contains("queue_depth{shard=\"0\"} 3"));
        assert!(text.contains("# TYPE stage_ns histogram"));
        assert!(text.contains("stage_ns_bucket{stage=\"yara\",le=\"+Inf\"} 4"));
        assert!(text.contains("stage_ns_count{stage=\"yara\"} 4"));
        assert!(text.contains("stage_ns_sum{stage=\"yara\"} 1009320"));
        // Buckets are cumulative: the +Inf line equals the count.
    }

    #[test]
    fn json_output_round_trips_through_jsonmini() {
        let doc = render_json(&sample_series(&Histogram::new()));
        let parsed = jsonmini::parse(&doc.to_string()).expect("parses back");
        let metrics = parsed.get("metrics").and_then(|m| m.as_array()).unwrap();
        assert_eq!(metrics.len(), 3);
        let hist = metrics
            .iter()
            .find(|m| m.get("type").and_then(|t| t.as_str()) == Some("histogram"))
            .expect("histogram entry");
        assert_eq!(hist.get("count").and_then(|v| v.as_f64()), Some(4.0));
        let p50 = hist.get("p50").and_then(|v| v.as_f64()).unwrap();
        assert!((4_500.0..=4_800.0).contains(&p50), "p50 = {p50}");
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        for bad in [
            "1bad_name 3",
            "name",
            "name{unterminated=\"x\" 3",
            "name{k=unquoted} 3",
            "name{k=\"v\"} not_a_number",
            "#comment without space",
            "# TYPE name rocket",
            "name3",
        ] {
            assert!(validate_prometheus(bad).is_err(), "accepted {bad:?}");
        }
        for good in [
            "name 3",
            "name{a=\"b\",c=\"d\"} 3.5",
            "name{le=\"+Inf\"} 4",
            "# HELP name some free text",
            "# TYPE name histogram",
            "name{a=\"quoted \\\" brace }\"} 1",
            "",
        ] {
            assert!(validate_prometheus(good).is_ok(), "rejected {good:?}");
        }
    }

    #[test]
    fn validator_rejects_unescaped_label_values() {
        for bad in [
            r#"m{k="a\qb"} 1"#,       // \q is not a defined escape
            r#"m{k="a""b"} 1"#,       // interior quote must be escaped
            "m{k=\"multi\nline\"} 1", // raw newline inside a value
            r#"m{k="tail\\\"} 1"#,    // escaped-quote leaves block open
        ] {
            assert!(validate_prometheus(bad).is_err(), "accepted {bad:?}");
        }
        for good in [
            r#"m{k="C:\\temp\\x"} 1"#,
            r#"m{k="say \"hi\""} 1"#,
            r#"m{k="line\nbreak"} 1"#,
            r#"m{k=""} 1"#,
        ] {
            assert!(validate_prometheus(good).is_ok(), "rejected {good:?}");
        }
    }

    #[test]
    fn hostile_label_values_render_escaped_and_validate() {
        let hostile = "C:\\temp\n\"quoted\"";
        let text = render_prometheus(&[Series {
            name: "path_gauge",
            help: "hostile label",
            label: Some(("path", hostile)),
            sample: Sample::Gauge(1),
        }]);
        validate_prometheus(&text).expect("escaped render validates");
        assert!(
            text.contains(r#"path_gauge{path="C:\\temp\n\"quoted\""} 1"#),
            "unexpected render: {text}"
        );
    }
}
