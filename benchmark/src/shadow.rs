//! The shadow: for each request of a traced replay, the same bytes are
//! pushed through every layer's public function, in the order and under
//! the cache decisions the hub takes, with one span per call. The hub's
//! own request (`hub.submit_wait`) stays the untouched real call; the
//! shadow explains where its time goes without a span inside the
//! program.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use scanhub::{
    ArtifactConfig, DigestKey, FileAnalysis, PrefilterIndex, PrefilterScratch, Routing, ScanRequest,
};
use semgrep_engine::{Finding, MatchScratch, MatchSet};
use yara_engine::{ScanScratch, Scanner};

use crate::inputs::Bundle;
use crate::trace::Tracer;

/// The layers a request's shadow time is summed over for
/// `hub.overhead_share` (the finer `pysrc.*` / `dataflow.*` /
/// `yara.collect_hits` spans re-time parts of `artifact.build` and are
/// not added again).
pub const TOP_LAYERS: [&str; 6] = [
    "digest.sha256",
    "artifact.build",
    "artifact.splice",
    "prefilter.route",
    "yara.eval_hits",
    "semgrep.walk",
];

/// What the shadow did, for rates and for checking that it mirrored the
/// hub's decisions (compared with the `HubStats` deltas of the replay).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ShadowCounts {
    pub verdict_hits: u64,
    pub artifact_hits: u64,
    pub full_builds: u64,
    pub splices: u64,
    pub splice_fallbacks: u64,
    pub digest_bytes: u64,
    pub built_bytes: u64,
    pub python_built: u64,
    pub python_built_bytes: u64,
    pub routed_packages: u64,
    pub walked_files: u64,
}

pub struct Shadow<'r> {
    scanner: Scanner<'r>,
    matcher: MatchSet<'r>,
    index: PrefilterIndex,
    config: ArtifactConfig,
    verdicts_seen: HashSet<DigestKey>,
    artifacts: HashMap<DigestKey, Arc<FileAnalysis>>,
    siblings: HashMap<String, DigestKey>,
    routing: Routing,
    prefilter_scratch: PrefilterScratch,
    yara_scratch: ScanScratch,
    semgrep_scratch: MatchScratch,
    findings: Vec<Finding>,
    layer_marks: Vec<bool>,
    pub counts: ShadowCounts,
}

impl<'r> Shadow<'r> {
    pub fn new(rules: &'r Bundle) -> Self {
        Shadow {
            scanner: Scanner::new(&rules.yara),
            matcher: MatchSet::new(&rules.semgrep),
            index: PrefilterIndex::build(Some(&rules.yara), Some(&rules.semgrep)),
            config: ArtifactConfig::default(),
            verdicts_seen: HashSet::new(),
            artifacts: HashMap::new(),
            siblings: HashMap::new(),
            routing: Routing::empty(),
            prefilter_scratch: PrefilterScratch::new(),
            yara_scratch: ScanScratch::new(),
            semgrep_scratch: MatchScratch::new(),
            findings: Vec::new(),
            layer_marks: Vec::new(),
            counts: ShadowCounts::default(),
        }
    }

    /// Brings the mirror caches to the state the hub is in after its
    /// untimed prewarm. Its spans and counts are discarded.
    pub fn prewarm(&mut self, requests: &[ScanRequest]) {
        let mut scratch = Tracer::new();
        for request in requests {
            self.request(&mut scratch, None, 0, request);
        }
        self.counts = ShadowCounts::default();
    }

    /// Shadows one scan request under `parent`.
    pub fn request(
        &mut self,
        tracer: &mut Tracer,
        parent: Option<u32>,
        id: u32,
        request: &ScanRequest,
    ) {
        // Submit path: request digest, verdict-cache lookup.
        let digest = tracer.time("digest.sha256", parent, id, || request.digest());
        self.counts.digest_bytes += request.scan_len() as u64;
        if !self.verdicts_seen.insert(digest) {
            self.counts.verdict_hits += 1;
            return;
        }

        // Worker phase 1: get-or-build every file's artifact.
        let mut artifacts: Vec<Arc<FileAnalysis>> = Vec::with_capacity(request.files().len());
        for entry in request.files() {
            let file_digest = tracer.time("digest.sha256", parent, id, || entry.digest());
            self.counts.digest_bytes += entry.bytes().len() as u64;
            if let Some(hit) = self.artifacts.get(&file_digest) {
                self.counts.artifact_hits += 1;
                artifacts.push(Arc::clone(hit));
                continue;
            }
            let sibling = self
                .siblings
                .get(entry.name())
                .and_then(|d| self.artifacts.get(d))
                .cloned();
            let spliced = sibling.and_then(|sibling| {
                let result = tracer.time("artifact.splice", parent, id, || {
                    FileAnalysis::build_spliced(entry, &sibling, Some(&self.scanner), &self.config)
                });
                if result.is_none() && sibling.is_python {
                    self.counts.splice_fallbacks += 1;
                }
                result
            });
            let built = match spliced {
                Some(spliced) => {
                    self.counts.splices += 1;
                    Arc::new(spliced.analysis)
                }
                None => {
                    let built = tracer.time("artifact.build", parent, id, || {
                        FileAnalysis::build(entry, Some(&self.scanner), &self.config)
                    });
                    self.counts.full_builds += 1;
                    self.counts.built_bytes += entry.bytes().len() as u64;
                    self.breakdown(tracer, parent, id, entry);
                    Arc::new(built)
                }
            };
            self.artifacts.insert(file_digest, Arc::clone(&built));
            self.siblings.insert(entry.name().to_owned(), file_digest);
            artifacts.push(built);
        }

        // Phase 2: literal prefilter routing.
        tracer.time("prefilter.route", parent, id, || {
            self.index.route_artifacts_into(
                &artifacts,
                &mut self.routing,
                &mut self.prefilter_scratch,
            )
        });
        self.counts.routed_packages += 1;

        // Phase 3: YARA conditions over cached hits, surface then layers.
        if self.routing.yara_routed() > 0 {
            let span = tracer.open("yara.eval_hits", parent, id);
            let total_len = request.scan_len();
            let mut offset = 0usize;
            let parts = artifacts.iter().map(|a| {
                let base = offset;
                offset += a.bytes.len() + 1;
                (base, a.yara_hits.as_ref().expect("scanner built hits"))
            });
            let routing = &self.routing;
            std::hint::black_box(self.scanner.eval_hits(
                parts,
                total_len as i64,
                |ri| routing.yara[ri],
                &mut self.yara_scratch,
            ));
            for artifact in &artifacts {
                for (layer, hits) in artifact.layers.iter().zip(&artifact.layer_hits) {
                    if hits.is_empty() {
                        continue;
                    }
                    self.scanner
                        .mark_rules_with_hits(hits, &mut self.layer_marks);
                    let marks = &self.layer_marks;
                    std::hint::black_box(self.scanner.eval_hits(
                        [(0usize, hits)],
                        layer.data.len() as i64,
                        |ri| routing.yara[ri] && marks[ri],
                        &mut self.yara_scratch,
                    ));
                }
            }
            tracer.close(span);
        }

        // Phase 4: one Semgrep walk per Python module.
        if self.routing.semgrep_routed() > 0 {
            for artifact in &artifacts {
                let Some(module) = &artifact.module else {
                    continue;
                };
                let span = tracer.open("semgrep.walk", parent, id);
                self.findings.clear();
                let routing = &self.routing;
                std::hint::black_box(self.matcher.match_module_set_into(
                    module.get(),
                    |ri| routing.semgrep[ri],
                    &mut self.semgrep_scratch,
                    &mut self.findings,
                ));
                tracer.close(span);
                self.counts.walked_files += 1;
            }
        }
    }

    /// The steps inside a full `FileAnalysis::build`, each through its
    /// own public function on the same bytes.
    fn breakdown(
        &mut self,
        tracer: &mut Tracer,
        parent: Option<u32>,
        id: u32,
        entry: &scanhub::FileEntry,
    ) {
        let root = tracer.open("artifact.breakdown", parent, id);
        if entry.is_python() {
            let text = String::from_utf8_lossy(entry.bytes());
            let tokens = tracer.time("pysrc.lex", Some(root), id, || pysrc::lex_spanned(&text));
            let module = tracer.time("pysrc.parse", Some(root), id, || pysrc::parse_module(&text));
            tracer.time("pysrc.intern", Some(root), id, || {
                std::hint::black_box(pysrc::intern_strings(&tokens))
            });
            tracer.time("dataflow.analyze", Some(root), id, || {
                std::hint::black_box(dataflow::analyze(&module))
            });
            self.counts.python_built += 1;
            self.counts.python_built_bytes += entry.bytes().len() as u64;
        }
        tracer.time("yara.collect_hits", Some(root), id, || {
            std::hint::black_box(self.scanner.collect_hits(entry.bytes()))
        });
        tracer.close(root);
    }
}
