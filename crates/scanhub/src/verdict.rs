//! Scan verdicts emitted by the hub.
//!
//! A verdict is built once and then shared: the verdict cache, the flight
//! recorder and every ticket hold one `Arc<Verdict>`, and each finding
//! list is a [`Findings`] handle, so copying a verdict out to a waiter
//! bumps reference counts and allocates nothing. A finding names its rule
//! and file with handles the hub already holds (the rule bundle's name
//! table, the request's file names), and a flow record shares its flow
//! with the artifact's taint summary.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use crate::artifact::LayerEncoding;

/// A YARA rule that fired on a **decoded layer**, tagged with where the
/// layer came from so the verdict stays explainable ("rule `sys`
/// matched the base64 payload decoded from `payload.py:7`"). A rule
/// that also matched surface bytes appears in [`Verdict::yara`] as
/// well; the layer finding records the additional decoded evidence.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LayerFinding {
    /// Matching rule name.
    pub rule: Arc<str>,
    /// The file whose literal carried the payload.
    pub file: Arc<str>,
    /// How the payload was recovered.
    pub encoding: LayerEncoding,
    /// Decode nesting depth (1 = surface literal).
    pub depth: u8,
    /// 1-based source line of the surface literal.
    pub line: u32,
}

/// A taint flow detected by the behavior engine, stamped with the file
/// it was found in. The embedded [`dataflow::FlowFinding`] carries the
/// full source→sink step chain with source lines.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct FlowRecord {
    /// The file whose module produced the flow.
    pub file: Arc<str>,
    /// The flow itself: label, endpoints and step chain, shared with the
    /// file's [`dataflow::TaintSummary`].
    pub flow: Arc<dataflow::FlowFinding>,
}

/// One of a verdict's finding lists: immutable and shared, so a clone
/// bumps a reference count. It reads as a slice. An empty list holds no
/// allocation.
#[derive(Clone, PartialEq, Eq)]
pub struct Findings<T>(Arc<[T]>);

impl<T> Findings<T> {
    /// Sorts and deduplicates `list`, then moves it into one shared
    /// allocation (none when it is empty), leaving `list` empty with its
    /// capacity kept for the next verdict. Sorted lists are what make a
    /// verdict independent of worker count, scan interleaving and
    /// per-file evaluation order.
    fn freeze(list: &mut Vec<T>) -> Self
    where
        T: Ord,
    {
        if list.is_empty() {
            return Findings::default();
        }
        list.sort_unstable();
        list.dedup();
        Findings(list.drain(..).collect())
    }

    /// Appends `item` to a copy of the list, which this handle then
    /// holds; other holders keep the list as it was. The hub never edits
    /// a verdict: this is for one built or altered by hand.
    pub fn push(&mut self, item: impl Into<T>)
    where
        T: Clone,
    {
        let mut list = self.0.to_vec();
        list.push(item.into());
        *self = Findings::from(list);
    }
}

impl Findings<Arc<str>> {
    /// The rule names or ids, as text.
    pub fn names(&self) -> Vec<&str> {
        self.iter().map(|name| &**name).collect()
    }
}

impl<T> Default for Findings<T> {
    fn default() -> Self {
        Findings(Arc::default())
    }
}

impl<T> Deref for Findings<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.0
    }
}

impl<T: fmt::Debug> fmt::Debug for Findings<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl<T> From<Vec<T>> for Findings<T> {
    fn from(list: Vec<T>) -> Self {
        if list.is_empty() {
            return Findings::default();
        }
        Findings(list.into())
    }
}

impl<'a, T> IntoIterator for &'a Findings<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// The outcome of scanning one package.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Names of YARA rules that fired on surface bytes, sorted and
    /// deduplicated.
    pub yara: Findings<Arc<str>>,
    /// Ids of Semgrep rules that fired, sorted and deduplicated.
    pub semgrep: Findings<Arc<str>>,
    /// YARA rules that fired inside decoded layers (possibly in
    /// addition to surface bytes), sorted and deduplicated. Empty when
    /// layer decoding is disabled.
    pub layers: Findings<LayerFinding>,
    /// Behavioral taint flows (source→sink chains), sorted and
    /// deduplicated. Empty when the dataflow stage is disabled.
    pub flows: Findings<FlowRecord>,
    /// True when the verdict was served from the digest cache.
    pub from_cache: bool,
}

impl Verdict {
    /// Total distinct findings (surface rules, layer-tagged hits and
    /// taint flows).
    pub fn total(&self) -> usize {
        self.yara.len() + self.semgrep.len() + self.layers.len() + self.flows.len()
    }

    /// True when at least one rule fired — a registry gatekeeper blocks
    /// the upload.
    pub fn flagged(&self) -> bool {
        self.total() > 0
    }

    /// The same verdict content, ignoring cache provenance.
    pub fn same_matches(&self, other: &Verdict) -> bool {
        self.yara == other.yara
            && self.semgrep == other.semgrep
            && self.layers == other.layers
            && self.flows == other.flows
    }
}

/// A verdict's findings while a scan collects them: lists kept across
/// scans, so that once their capacity is warm collecting allocates
/// nothing, and frozen into a [`Verdict`] when the scan is done.
#[derive(Debug, Default)]
pub(crate) struct FindingLists {
    pub yara: Vec<Arc<str>>,
    pub semgrep: Vec<Arc<str>>,
    pub layers: Vec<LayerFinding>,
    pub flows: Vec<FlowRecord>,
}

impl FindingLists {
    /// Empties every list, keeping its capacity.
    pub fn clear(&mut self) {
        self.yara.clear();
        self.semgrep.clear();
        self.layers.clear();
        self.flows.clear();
    }

    /// True when no list holds a finding.
    pub fn is_empty(&self) -> bool {
        self.yara.is_empty()
            && self.semgrep.is_empty()
            && self.layers.is_empty()
            && self.flows.is_empty()
    }

    /// The verdict of the findings collected, each list sorted,
    /// deduplicated and frozen with one allocation (none when empty);
    /// leaves every list empty.
    pub fn freeze(&mut self) -> Verdict {
        Verdict {
            yara: Findings::freeze(&mut self.yara),
            semgrep: Findings::freeze(&mut self.semgrep),
            layers: Findings::freeze(&mut self.layers),
            flows: Findings::freeze(&mut self.flows),
            from_cache: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_flags() {
        let clean = Verdict::default();
        assert_eq!(clean.total(), 0);
        assert!(!clean.flagged());
        let hit = Verdict {
            yara: Findings::from(vec!["r".into()]),
            semgrep: Findings::from(vec!["s".into()]),
            ..Verdict::default()
        };
        assert_eq!(hit.total(), 2);
        assert!(hit.flagged());
    }

    #[test]
    fn layer_findings_flag_a_package_on_their_own() {
        let v = Verdict {
            layers: Findings::from(vec![LayerFinding {
                rule: "sys".into(),
                file: "payload.py".into(),
                encoding: LayerEncoding::Base64,
                depth: 1,
                line: 7,
            }]),
            ..Verdict::default()
        };
        assert_eq!(v.total(), 1);
        assert!(v.flagged());
    }

    #[test]
    fn same_matches_ignores_cache_flag() {
        let a = Verdict {
            yara: Findings::from(vec!["r".into()]),
            ..Verdict::default()
        };
        let b = Verdict {
            from_cache: true,
            ..a.clone()
        };
        assert!(a.same_matches(&b));
        assert_ne!(a, b);
    }

    #[test]
    fn flow_records_flag_a_package_on_their_own() {
        let v = Verdict {
            flows: Findings::from(vec![flow_record("setup.py", "flow:net-fetch->proc-exec")]),
            ..Verdict::default()
        };
        assert_eq!(v.total(), 1);
        assert!(v.flagged());
        assert!(!v.same_matches(&Verdict::default()));
    }

    #[test]
    fn freeze_sorts_and_dedupes_every_list() {
        let finding = |rule: &str| LayerFinding {
            rule: rule.into(),
            file: "f.py".into(),
            encoding: LayerEncoding::Hex,
            depth: 1,
            line: 1,
        };
        let mut names: Vec<Arc<str>> = vec!["z".into(), "a".into(), "z".into()];
        let mut layers = vec![finding("b"), finding("a"), finding("b")];
        let mut flows = vec![
            flow_record("b.py", "flow:env-read->net-send"),
            flow_record("a.py", "flow:net-fetch->proc-exec"),
            flow_record("b.py", "flow:env-read->net-send"),
        ];
        let capacity = names.capacity();
        let yara = Findings::freeze(&mut names);
        assert_eq!(*yara, ["a".into(), "z".into()] as [Arc<str>; 2]);
        assert!(names.is_empty(), "the list is left empty");
        assert_eq!(names.capacity(), capacity, "and keeps its capacity");
        assert_eq!(*Findings::freeze(&mut layers), [finding("a"), finding("b")]);
        assert_eq!(
            *Findings::freeze(&mut flows),
            [
                flow_record("a.py", "flow:net-fetch->proc-exec"),
                flow_record("b.py", "flow:env-read->net-send"),
            ]
        );
        assert!(Findings::<Arc<str>>::freeze(&mut Vec::new()).is_empty());
    }

    #[test]
    fn a_push_copies_the_list_and_leaves_other_holders_alone() {
        let shared = Verdict {
            yara: Findings::from(vec!["r".into()]),
            ..Verdict::default()
        };
        let mut edited = shared.clone();
        edited.yara.push("no_such_rule".to_owned());
        assert_eq!(edited.yara.len(), 2);
        assert_eq!(&*edited.yara[1], "no_such_rule");
        assert_eq!(shared.yara.len(), 1);
        assert!(!edited.same_matches(&shared));
    }

    fn flow_record(file: &str, label: &str) -> FlowRecord {
        FlowRecord {
            file: file.into(),
            flow: Arc::new(dataflow::FlowFinding {
                label: label.into(),
                source: "src".into(),
                sink: "dst".into(),
                steps: Vec::new(),
            }),
        }
    }
}
