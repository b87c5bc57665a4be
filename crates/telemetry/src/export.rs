//! Exporters: Prometheus text exposition format and jsonmini JSON.

use std::collections::HashSet;
use std::fmt::Write as _;

use crate::hist::bucket_bounds;
use crate::registry::{MetricHandle, Registry};

impl Registry {
    /// Renders every registered metric in the Prometheus text
    /// exposition format (`# HELP` / `# TYPE` headers once per metric
    /// name, one sample line per series; histograms expand to
    /// cumulative `_bucket{le=...}` lines plus `_sum` and `_count`).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut seen: HashSet<String> = HashSet::new();
        self.for_each(|entry| {
            let kind = match &entry.handle {
                MetricHandle::Counter(_) => "counter",
                MetricHandle::Gauge(_) => "gauge",
                MetricHandle::Histogram(_) => "histogram",
            };
            if seen.insert(entry.name.clone()) {
                if !entry.help.is_empty() {
                    let _ = writeln!(out, "# HELP {} {}", entry.name, entry.help);
                }
                let _ = writeln!(out, "# TYPE {} {kind}", entry.name);
            }
            match &entry.handle {
                MetricHandle::Counter(c) => {
                    let _ = writeln!(
                        out,
                        "{}{} {}",
                        entry.name,
                        label_block(&entry.labels, None),
                        c.get()
                    );
                }
                MetricHandle::Gauge(g) => {
                    let _ = writeln!(
                        out,
                        "{}{} {}",
                        entry.name,
                        label_block(&entry.labels, None),
                        g.get()
                    );
                }
                MetricHandle::Histogram(h) => {
                    let snap = h.snapshot();
                    let mut cum = 0u64;
                    for (i, &c) in snap.buckets.iter().enumerate() {
                        if c == 0 {
                            continue;
                        }
                        cum += c;
                        let le = bucket_bounds(i).1.to_string();
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {cum}",
                            entry.name,
                            label_block(&entry.labels, Some(&le))
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {}",
                        entry.name,
                        label_block(&entry.labels, Some("+Inf")),
                        snap.count
                    );
                    let _ = writeln!(
                        out,
                        "{}_sum{} {}",
                        entry.name,
                        label_block(&entry.labels, None),
                        snap.sum
                    );
                    let _ = writeln!(
                        out,
                        "{}_count{} {}",
                        entry.name,
                        label_block(&entry.labels, None),
                        snap.count
                    );
                }
            }
        });
        out
    }

    /// Renders every registered metric as a JSON document:
    /// `{"metrics": [{name, type, labels, ...}]}`. Counters and gauges
    /// carry `value`; histograms carry `count`, `sum`, `mean`, `p50`,
    /// `p90`, `p99` and `max`.
    pub fn render_json(&self) -> jsonmini::Value {
        let mut metrics = Vec::new();
        self.for_each(|entry| {
            let mut m = jsonmini::Value::object();
            m.insert("name", entry.name.as_str());
            let mut labels = jsonmini::Value::object();
            for (k, v) in &entry.labels {
                labels.insert(k.as_str(), v.as_str());
            }
            match &entry.handle {
                MetricHandle::Counter(c) => {
                    m.insert("type", "counter");
                    m.insert("labels", labels);
                    m.insert("value", c.get() as f64);
                }
                MetricHandle::Gauge(g) => {
                    m.insert("type", "gauge");
                    m.insert("labels", labels);
                    m.insert("value", g.get() as f64);
                }
                MetricHandle::Histogram(h) => {
                    let snap = h.snapshot();
                    m.insert("type", "histogram");
                    m.insert("labels", labels);
                    m.insert("count", snap.count as f64);
                    m.insert("sum", snap.sum as f64);
                    m.insert("mean", snap.mean());
                    m.insert("p50", snap.percentile(0.50) as f64);
                    m.insert("p90", snap.percentile(0.90) as f64);
                    m.insert("p99", snap.percentile(0.99) as f64);
                    m.insert("max", snap.max as f64);
                }
            }
            metrics.push(m);
        });
        let mut doc = jsonmini::Value::object();
        doc.insert("metrics", jsonmini::Value::Array(metrics));
        doc
    }
}

fn label_block(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
        first = false;
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "le=\"{le}\"");
    }
    out.push('}');
    out
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
    use crate::registry::Registry;

    fn sample_registry() -> Registry {
        let reg = Registry::new();
        reg.counter("scans_total", "total scans").add(7);
        reg.gauge_with("queue_depth", "jobs queued", &[("shard", "0")])
            .set(3);
        let h = reg.histogram_with("stage_ns", "stage latency", &[("stage", "yara")]);
        for v in [120u64, 4_500, 4_700, 1_000_000] {
            h.record(v);
        }
        reg
    }

    #[test]
    fn prometheus_output_is_well_formed() {
        let text = sample_registry().render_prometheus();
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
        let doc = sample_registry().render_json();
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
        let reg = Registry::new();
        let hostile = "C:\\temp\n\"quoted\"";
        reg.gauge_with("path_gauge", "hostile label", &[("path", hostile)])
            .set(1);
        let text = reg.render_prometheus();
        validate_prometheus(&text).expect("escaped render validates");
        assert!(
            text.contains(r#"path_gauge{path="C:\\temp\n\"quoted\""} 1"#),
            "unexpected render: {text}"
        );
    }
}
