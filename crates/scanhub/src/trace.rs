//! Scan traces — the flight-recorder record that makes every verdict
//! explainable after the fact.
//!
//! Each completed scan (including verdict-cache hits) leaves a
//! [`ScanTrace`]: per-stage wall time, request size and digest, which
//! worker served it, and every rule that fired with its evidence
//! provenance. The hub keeps the last N scans in a bounded
//! [`telemetry::FlightRecorder`], so "where did this scan's 4ms go?"
//! and "why was this upload blocked?" are answerable without
//! re-running the scan.
//!
//! What the ring holds is a [`TraceRecord`]: the scan's scalars, its raw
//! digest and a handle on the very verdict the cache and the ticket
//! share, so recording a scan copies no finding. The public
//! [`ScanTrace`], its hex digest and its fired-rule list, is built from
//! a record only when the hub is asked for it.

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

use crate::cache::DigestKey;
use crate::metrics::{fmt_ns, StageNanos};
use crate::verdict::Verdict;

/// Which engine produced a fired-rule record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FiredEngine {
    /// YARA over surface bytes.
    Yara,
    /// Semgrep over the parsed module.
    Semgrep,
    /// YARA over a decoded payload layer.
    YaraLayer,
    /// The behavioral taint engine (source→sink dataflow).
    Taint,
}

impl fmt::Display for FiredEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FiredEngine::Yara => "yara",
            FiredEngine::Semgrep => "semgrep",
            FiredEngine::YaraLayer => "yara-layer",
            FiredEngine::Taint => "taint",
        })
    }
}

/// One rule that fired on this request, with its evidence provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FiredRule {
    /// Rule name (YARA) or id (Semgrep).
    pub rule: String,
    /// Which engine matched.
    pub engine: FiredEngine,
    /// Where the evidence came from: surface bytes, the parsed module,
    /// or a decoded layer's file/encoding/depth/line. Borrowed for the
    /// two static cases, so building a trace formats only the layer and
    /// flow provenances; dozens of rules can fire per request.
    pub provenance: Cow<'static, str>,
}

/// The after-the-fact record of one completed scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanTrace {
    /// Completion sequence number (monotonic per hub).
    pub seq: u64,
    /// Worker that served the scan; `None` for verdict-cache hits,
    /// which are answered on the submit path.
    pub worker: Option<usize>,
    /// Hex content digest of the request — present whenever the hub
    /// computed one (the verdict cache is enabled); the hub never
    /// hashes requests solely for tracing.
    pub digest: Option<String>,
    /// File entries in the request.
    pub files: usize,
    /// Scan-view bytes ([`crate::ScanRequest::scan_len`]).
    pub bytes: u64,
    /// True when the verdict was served from the digest cache.
    pub from_cache: bool,
    /// True when at least one rule fired.
    pub flagged: bool,
    /// Per-stage wall time.
    pub stages: StageNanos,
    /// Submit-to-verdict wall time in nanoseconds (≥ the stage sum).
    pub wall_ns: u64,
    /// Every rule that fired, with evidence provenance.
    pub fired: Vec<FiredRule>,
}

/// One completed scan as the flight recorder holds it: scalars and the
/// shared verdict, from which [`TraceRecord::trace`] builds the public
/// [`ScanTrace`] when it is read.
#[derive(Debug, Clone)]
pub(crate) struct TraceRecord {
    pub seq: u64,
    pub worker: Option<usize>,
    pub digest: Option<DigestKey>,
    pub files: usize,
    pub bytes: u64,
    /// Whether this request was a verdict-cache hit. The shared verdict
    /// cannot say: the handle a hit reads is the one its first scan
    /// cached, `from_cache: false`.
    pub from_cache: bool,
    pub stages: StageNanos,
    pub wall_ns: u64,
    pub verdict: Arc<Verdict>,
}

impl TraceRecord {
    /// The public trace: the record's scalars, its digest in hex and the
    /// verdict's fired rules.
    pub fn trace(&self) -> ScanTrace {
        ScanTrace {
            seq: self.seq,
            worker: self.worker,
            digest: self.digest.as_ref().map(digest::to_hex),
            files: self.files,
            bytes: self.bytes,
            from_cache: self.from_cache,
            flagged: self.verdict.flagged(),
            stages: self.stages,
            wall_ns: self.wall_ns,
            fired: fired_from_verdict(&self.verdict),
        }
    }
}

/// Expands a verdict into fired-rule records with provenance.
pub(crate) fn fired_from_verdict(verdict: &Verdict) -> Vec<FiredRule> {
    let mut fired = Vec::with_capacity(verdict.total());
    for rule in &verdict.yara {
        fired.push(FiredRule {
            rule: rule.clone(),
            engine: FiredEngine::Yara,
            provenance: Cow::Borrowed("surface bytes"),
        });
    }
    for rule in &verdict.semgrep {
        fired.push(FiredRule {
            rule: rule.clone(),
            engine: FiredEngine::Semgrep,
            provenance: Cow::Borrowed("parsed module"),
        });
    }
    for layer in &verdict.layers {
        fired.push(FiredRule {
            rule: layer.rule.clone(),
            engine: FiredEngine::YaraLayer,
            provenance: Cow::Owned(format!(
                "{}:{} {:?} depth {}",
                layer.file, layer.line, layer.encoding, layer.depth
            )),
        });
    }
    for record in &verdict.flows {
        let line = record.flow.steps.first().map_or(0, |s| s.line);
        fired.push(FiredRule {
            rule: record.flow.label.clone(),
            engine: FiredEngine::Taint,
            provenance: Cow::Owned(format!(
                "{}:{} {} -> {} ({} steps)",
                record.file,
                line,
                record.flow.source,
                record.flow.sink,
                record.flow.steps.len()
            )),
        });
    }
    fired
}

impl fmt::Display for ScanTrace {
    /// The "where did this scan's time go" report.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "trace #{}: {} files, {} bytes, wall {}{}{}",
            self.seq,
            self.files,
            self.bytes,
            fmt_ns(self.wall_ns),
            match self.worker {
                Some(w) => format!(", worker {w}"),
                None => String::new(),
            },
            if self.from_cache { ", cached" } else { "" },
        )?;
        if let Some(digest) = &self.digest {
            writeln!(f, "  digest {digest}")?;
        }
        for (name, ns) in self.stages.named() {
            if ns == 0 {
                continue;
            }
            writeln!(
                f,
                "  {name:<13} {:>10}  ({:.1}%)",
                fmt_ns(ns),
                ns as f64 / self.wall_ns.max(1) as f64 * 100.0
            )?;
        }
        let overhead = self.wall_ns.saturating_sub(self.stages.total());
        if overhead > 0 {
            writeln!(
                f,
                "  {:<13} {:>10}  ({:.1}%)",
                "other",
                fmt_ns(overhead),
                overhead as f64 / self.wall_ns.max(1) as f64 * 100.0
            )?;
        }
        if self.fired.is_empty() {
            write!(f, "  verdict: PASS (no rules fired)")?;
        } else {
            write!(f, "  verdict: BLOCK")?;
            for rule in &self.fired {
                write!(
                    f,
                    "\n    {} [{}] <- {}",
                    rule.rule, rule.engine, rule.provenance
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::LayerEncoding;
    use crate::verdict::{FlowRecord, LayerFinding};

    fn verdict() -> Verdict {
        Verdict {
            yara: vec!["sys".into()],
            semgrep: vec!["sys-call".into()],
            layers: vec![LayerFinding {
                rule: "c2".into(),
                file: "dropper.py".into(),
                encoding: LayerEncoding::Base64,
                depth: 1,
                line: 7,
            }],
            flows: vec![FlowRecord {
                file: "dropper.py".into(),
                flow: dataflow::FlowFinding {
                    label: "flow:net-fetch->proc-exec".into(),
                    source: "requests.get".into(),
                    sink: "os.system".into(),
                    steps: vec![dataflow::FlowStep {
                        line: 3,
                        note: "cmd = requests.get(...)".into(),
                    }],
                },
            }],
            from_cache: false,
        }
    }

    #[test]
    fn fired_rules_carry_engine_and_provenance() {
        let fired = fired_from_verdict(&verdict());
        assert_eq!(fired.len(), 4);
        assert_eq!(fired[0].engine, FiredEngine::Yara);
        assert_eq!(fired[1].engine, FiredEngine::Semgrep);
        assert_eq!(fired[2].engine, FiredEngine::YaraLayer);
        assert!(fired[2].provenance.contains("dropper.py:7"));
        assert!(fired[2].provenance.contains("depth 1"));
        assert_eq!(fired[3].engine, FiredEngine::Taint);
        assert_eq!(fired[3].rule, "flow:net-fetch->proc-exec");
        assert!(fired[3].provenance.contains("dropper.py:3"));
        assert!(fired[3].provenance.contains("requests.get -> os.system"));
    }

    #[test]
    fn display_reports_stages_and_fired_rules() {
        let trace = ScanTrace {
            seq: 3,
            worker: Some(1),
            digest: Some("ab".repeat(32)),
            files: 2,
            bytes: 4096,
            from_cache: false,
            flagged: true,
            stages: StageNanos {
                queue: 1_000,
                artifact: 2_000_000,
                yara: 500_000,
                ..StageNanos::default()
            },
            wall_ns: 3_000_000,
            fired: fired_from_verdict(&verdict()),
        };
        let text = trace.to_string();
        assert!(text.contains("trace #3"));
        assert!(text.contains("artifact"));
        assert!(text.contains("BLOCK"));
        assert!(text.contains("c2 [yara-layer] <- dropper.py:7"));
        assert!(text.contains("other"), "unattributed wall time is shown");
    }

    #[test]
    fn a_trace_is_built_from_its_record_on_read() {
        let record = TraceRecord {
            seq: 5,
            worker: None,
            digest: Some([0xab; 32]),
            files: 2,
            bytes: 4096,
            from_cache: true,
            stages: StageNanos {
                cache: 1_000,
                ..StageNanos::default()
            },
            wall_ns: 2_000,
            verdict: Arc::new(verdict()),
        };
        let trace = record.trace();
        assert_eq!(trace.fired, fired_from_verdict(&record.verdict));
        assert_eq!(trace.digest.as_deref(), Some("ab".repeat(32).as_str()));
        assert!(trace.from_cache && !record.verdict.from_cache);
        assert!(trace.flagged);
        assert_eq!((trace.seq, trace.worker), (5, None));
        assert_eq!((trace.files, trace.bytes), (2, 4096));
        assert_eq!((trace.stages, trace.wall_ns), (record.stages, 2_000));
    }
}
