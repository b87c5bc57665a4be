//! `scanhub` — a registry-scale streaming scan service.
//!
//! The paper deploys LLM-generated YARA and Semgrep rules to screen OSS
//! package uploads; this crate turns the one-shot batch loop of the
//! original evaluation into a **service** shaped for heavy registry
//! traffic. Six mechanisms carry the load:
//!
//! 1. **Parse-once analysis artifacts** ([`FileAnalysis`]) — a request
//!    is a list of file entries (name + one shared copy of the bytes),
//!    and each file's full analysis — tolerant-parsed module, interned
//!    string-literal table, the token stream's cut points, base64/hex
//!    **decoded layers**, the ruleset's string-definition hits on every
//!    layer, and the Semgrep leaf matches with the rules they fire — is
//!    computed once and cached in a BLAKE2b-keyed LRU. A
//!    re-uploaded package version re-analyzes only its changed files;
//!    unchanged files cost one cache lookup
//!    ([`HubStats::artifact_cache_hits`]). A changed file whose previous
//!    version is still cached is built by diff-and-splice
//!    ([`FileAnalysis::build_spliced`]): only the edited window is
//!    re-lexed and re-parsed, between two of the sibling's
//!    [`pysrc::CutPoint`]s found by binary search. Each array of the
//!    sibling's flat tree outside the window is copied around the
//!    window's as one slice, rebased ([`pysrc::parse_spliced`]), and its
//!    literal occurrences and cut points likewise, into owned products:
//!    no artifact keeps the version it was spliced from alive and none
//!    keeps a token. A splice lexes and parses O(window) and allocates
//!    per array, not per statement. The YARA surface hits outside the
//!    window carry over ([`yara_engine::Scanner::collect_hits_onto`]),
//!    and so does the taint summary when the edit only binds literals to
//!    names nothing else reads ([`dataflow::analyze_spliced`]), and the
//!    Semgrep leaf matches outside the window, so that only the inserted
//!    statements are walked ([`FileAnalysis::record_matches`]); each
//!    carries exactly what a full build computes, which is what keeps an
//!    artifact a pure function of `(ruleset, bytes)`.
//! 2. **Rule routing** ([`PrefilterIndex`]) — a YARA rule with an
//!    exhaustive atom set ([`yara_engine::literal_atoms`]) whose
//!    atom-backed strings have no hit in any file's or decoded layer's
//!    cached hits is *provably* non-matching and skips condition
//!    evaluation; routing reads no byte. Semgrep rules are not routed:
//!    [`semgrep_engine::MatchSet`]'s anchor index already sent each
//!    statement only to the patterns that can match it when the file's
//!    matches were recorded, and a request only ORs the rules its files
//!    fired. Prefiltered
//!    scanning is byte-identical to exhaustive scanning (the property
//!    tests in `tests/properties.rs` prove this on randomized corpora).
//! 3. **Decoded-layer scanning** — string literals above an
//!    entropy/length threshold are base64/hex-decoded (recursively, to
//!    a bounded depth) and YARA scans each decoded payload as its own
//!    unit. Findings land in [`Verdict::layers`] tagged with file,
//!    encoding, depth and source line, closing the string-encoding
//!    evasion gap measured in `docs/threat_model.md` while keeping
//!    verdicts explainable.
//! 4. **Behavioral taint engine** — every Python artifact carries a
//!    [`dataflow::TaintSummary`]: intra-procedural source→sink flows
//!    (env/file/net/socket reads reaching exec/subprocess/exfil/startup
//!    writes) plus constants folded out of concat/`%`-format/decode
//!    chains, which become synthetic [`LayerEncoding::Folded`] layers
//!    YARA scans like any decoded payload. Flows land in
//!    [`Verdict::flows`] with their full step chains. The analysis runs
//!    at artifact-build time, so it obeys the same once-per-unique-
//!    digest contract as parsing.
//! 5. **Worker pool + digest caches** ([`ScanHub`]) — a bounded
//!    submission queue provides backpressure; each worker owns reusable
//!    scanner state; a BLAKE2b-keyed LRU serves byte-identical re-uploads
//!    without scanning at all. Per-file builds are coordinated by the
//!    artifact store, one state (cache, digests being built,
//!    splice-donor registry) behind one lock: a cold file is claimed
//!    with its donor and published in two critical sections while other
//!    requesters of the digest wait; a hit is one.
//! 6. **Retro-hunt** ([`ScanHub::retro_hunt`]) — a rule deploy screens
//!    the cached history with its changed rules only: an index from
//!    folded content grams to digests nominates candidates, and each is
//!    confirm-scanned by the evaluator a worker scans requests with. No
//!    request touches the index; each hunt first syncs it to the resident
//!    artifacts, dropping the evicted digests and indexing the new ones.
//!
//! Throughput, cache-hit rates, artifact reuse and prefilter skip rate
//! are exposed as [`HubStats`], which also carries per-stage latency
//! percentiles ([`StageLatencies`]) from the hub's lock-free log-linear
//! histograms. Every completed scan leaves a [`ScanTrace`] — per-stage
//! wall time, bytes, digest, worker and fired rules with evidence
//! provenance — in a bounded flight recorder, and the whole metric set
//! exports as Prometheus text ([`ScanHub::export_prometheus`]) or JSON
//! ([`ScanHub::export_json`]). Every counter, gauge and stage is declared
//! once, in the two tables at the top of `metrics.rs`.
//!
//! # Examples
//!
//! ```
//! use scanhub::{HubConfig, ScanHub, ScanRequest};
//!
//! let yara = yara_engine::compile(
//!     "rule sys { strings: $a = \"os.system\" condition: $a }",
//! )?;
//! let hub = ScanHub::new(Some(yara), None, HubConfig::default());
//! let verdict = hub
//!     .submit(ScanRequest::from_source("mod.py", "os.system('id')"))
//!     .wait();
//! assert_eq!(verdict.yara.names(), ["sys"]);
//! # Ok::<(), yara_engine::CompileError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod artifact;
mod cache;
#[cfg(test)]
mod explore;
mod hub;
mod metrics;
mod prefilter;
mod queue;
mod request;
mod retrohunt;
mod store;
mod trace;
mod verdict;
mod worker;

/// The artifact store's lock primitives: std's, and under test the
/// explorer's, which schedule the threads of an exploration.
mod sync {
    #[cfg(test)]
    pub(crate) use crate::explore::{Condvar, Mutex, MutexGuard};
    #[cfg(not(test))]
    pub(crate) use std::sync::{Condvar, Mutex, MutexGuard};
}

pub use artifact::{
    ArtifactConfig, DecodedLayer, FileAnalysis, LayerEncoding, LazyModule, Spliced,
};
pub use cache::DigestKey;
pub use hub::{HubConfig, ScanHub};
pub use metrics::{HubStats, LatencyStat, Stage, StageLatencies, StageNanos};
pub use prefilter::{
    ChangedRule, DeltaKind, PrefilterIndex, PrefilterScratch, Routing, RuleDelta, RuleEngine,
};
pub use queue::Ticket;
pub use request::{FileEntry, ScanRequest};
pub use retrohunt::{RetroReport, RetroRuleHits, RuleDeployment, TermProvenance};
pub use trace::{FiredEngine, FiredRule, ScanTrace};
pub use verdict::{Findings, FlowRecord, LayerFinding, Verdict};
