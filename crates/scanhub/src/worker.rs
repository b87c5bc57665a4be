//! The worker side of the hub: pop a job, get-or-build its per-file
//! artifacts (full build or diff-and-splice), route, evaluate both
//! engines over the cached artifacts, and fulfill the ticket.

use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use pysrc::Module;
use semgrep_engine::{CompiledSemgrepRules, FileMatches, MatchScratch, MatchSet};
use yara_engine::{CompiledRules, FileHits, Part, ScanScratch, Scanner};

use crate::artifact::{DecodedLayer, FileAnalysis};
use crate::hub::Shared;
use crate::metrics::{HubCounters, Stage, StageClock};
use crate::prefilter::{PrefilterScratch, Routing};
use crate::request::ScanRequest;
use crate::verdict::{FindingLists, FlowRecord, LayerFinding, Verdict};

/// A rule bundle's names as shared handles, built once with the bundle
/// (the hub's live one, or a deployment's changed rules): every finding
/// of one of its rules holds its handle, so reporting a finding copies no
/// text.
#[derive(Debug)]
pub(crate) struct RuleNames {
    /// Per YARA rule, in bundle order: its name.
    yara: Vec<Arc<str>>,
    /// Per Semgrep rule, in bundle order: its id.
    semgrep: Vec<Arc<str>>,
}

impl RuleNames {
    pub(crate) fn new(
        yara: Option<&CompiledRules>,
        semgrep: Option<&CompiledSemgrepRules>,
    ) -> Self {
        let yara = yara.map_or(&[][..], |bundle| &bundle.rules);
        let semgrep = semgrep.map_or(&[][..], |bundle| &bundle.rules);
        RuleNames {
            yara: yara
                .iter()
                .map(|r| Arc::from(r.rule.name.as_str()))
                .collect(),
            semgrep: semgrep.iter().map(|r| Arc::from(r.id.as_str())).collect(),
        }
    }
}

/// One rule bundle's matchers and their reusable scratch, through which
/// requests and retro-hunt confirm scans alike evaluate rules over cached
/// artifacts. Each step evaluates only the rules its mask enables, and
/// finds nothing if the bundle lacks its engine. Built once per worker
/// or hunt, not per package; nothing here parses pattern text. A finding
/// names its rule with the bundle's [`RuleNames`] handle.
pub(crate) struct Evaluator<'r> {
    scanner: Option<Scanner<'r>>,
    matcher: Option<MatchSet<'r>>,
    names: &'r RuleNames,
    yara: ScanScratch,
    semgrep: MatchScratch,
    /// Per YARA rule: has the layer being evaluated a hit for it?
    marks: Vec<bool>,
    /// Per Semgrep rule: has it matched a module of the package?
    matched: Vec<bool>,
}

impl<'r> Evaluator<'r> {
    /// An evaluator for `yara` + `semgrep`, whose names are `names`, that
    /// reads the hits of strings `live` defines from the artifacts' cache
    /// ([`Scanner::reusing`]).
    pub(crate) fn new(
        yara: Option<&'r CompiledRules>,
        semgrep: Option<&'r CompiledSemgrepRules>,
        names: &'r RuleNames,
        live: Option<&CompiledRules>,
    ) -> Self {
        Evaluator {
            scanner: yara.map(|rules| Scanner::reusing(rules, live)),
            matcher: semgrep.map(MatchSet::new),
            names,
            yara: ScanScratch::new(),
            semgrep: MatchScratch::new(),
            marks: Vec::new(),
            matched: Vec::new(),
        }
    }

    /// True when a YARA rule `mask` enables has a string no cache holds.
    pub(crate) fn reads_bytes(&self, mask: &[bool]) -> bool {
        let reads = |s: &Scanner<'_>| (0..mask.len()).any(|ri| mask[ri] && s.reads_bytes(ri));
        self.scanner.as_ref().is_some_and(reads)
    }

    /// The bundle's hits on a unit for the strings it does not reuse.
    pub(crate) fn collect_hits(&self, data: &[u8]) -> FileHits {
        let scanner = self.scanner.as_ref();
        scanner.map_or_else(FileHits::default, |s| s.collect_hits(data))
    }

    /// Surface YARA: evaluates the rules `mask` enables over the union
    /// of `parts`, each hit set rebased to its unit's offset in a
    /// `len`-byte whole, and pushes each matching rule's name.
    pub(crate) fn surface<'h>(
        &mut self,
        parts: impl IntoIterator<Item = impl Into<Part<'h>>>,
        len: usize,
        mask: &[bool],
        out: &mut Vec<Arc<str>>,
    ) {
        let Some(scanner) = &self.scanner else {
            return;
        };
        let names = &self.names.yara;
        let found = |ri: usize, _: &str| out.push(Arc::clone(&names[ri]));
        scanner.eval_rules(parts, len as i64, |ri| mask[ri], &mut self.yara, found);
    }

    /// Evaluates one decoded layer, whose hits are the union of `parts`,
    /// as its own scan unit and pushes a finding labelled `file` for every
    /// rule enabled in `mask` that matches.
    pub(crate) fn layer<'h>(
        &mut self,
        layer: &DecodedLayer,
        parts: impl IntoIterator<Item = impl Into<Part<'h>>> + Clone,
        file: &Arc<str>,
        mask: &[bool],
        out: &mut Vec<LayerFinding>,
    ) {
        // A layer with no string hit can only satisfy stringless
        // conditions (filesize, negations) that say nothing about the
        // payload: skip it.
        let empty = |p| matches!(p, Part::Own(_, h) | Part::Live(_, h) if h.is_empty());
        let hitless = parts.clone().into_iter().all(|p| empty(p.into()));
        let Some(scanner) = self.scanner.as_ref().filter(|_| !hitless) else {
            return;
        };
        // Restrict evaluation to rules with evidence *in* this layer:
        // stringless and negation-only conditions are package-routed
        // unconditionally and would otherwise hold trivially against the
        // tiny unit-local filesize. Live hits are evidence only through
        // the changed strings they translate to.
        let marks = &mut self.marks;
        scanner.mark_rules(parts.clone(), marks);
        let (len, names) = (layer.data.len() as i64, &self.names.yara);
        let include = |ri: usize| mask[ri] && marks[ri];
        scanner.eval_rules(parts, len, include, &mut self.yara, |ri, _| {
            out.push(LayerFinding {
                rule: Arc::clone(&names[ri]),
                file: Arc::clone(file),
                encoding: layer.encoding,
                depth: layer.depth,
                line: layer.line,
            })
        });
    }

    /// Pushes the id of each rule `mask` enables that fires on any of
    /// `files`, the recorded matches of a package's modules, once: the
    /// package's Semgrep verdict, read without a walk.
    pub(crate) fn fired<'f>(
        &mut self,
        files: impl IntoIterator<Item = &'f FileMatches>,
        mask: &[bool],
        out: &mut Vec<Arc<str>>,
    ) {
        if self.matcher.is_none() {
            return;
        }
        let matched = &mut self.matched;
        matched.clear();
        matched.resize(mask.len(), false);
        for ri in files.into_iter().flat_map(FileMatches::fired) {
            let ri = *ri as usize;
            if mask[ri] && !std::mem::replace(&mut matched[ri], true) {
                out.push(Arc::clone(&self.names.semgrep[ri]));
            }
        }
    }

    /// One Semgrep walk per module of `modules` with the rules `mask`
    /// enables, pushing the id of each rule that matches any of them once:
    /// how a retro-hunt's confirm scan runs rules no artifact recorded.
    /// Returns the statements visited.
    pub(crate) fn semgrep<'m>(
        &mut self,
        modules: impl IntoIterator<Item = &'m Module>,
        mask: &[bool],
        out: &mut Vec<Arc<str>>,
    ) -> u64 {
        let Some(matcher) = &self.matcher else {
            return 0;
        };
        let (scratch, matched, ids) = (&mut self.semgrep, &mut self.matched, &self.names.semgrep);
        matched.clear();
        matched.resize(mask.len(), false);
        let mut found = |ri: usize, _: &[usize]| {
            if !std::mem::replace(&mut matched[ri], true) {
                out.push(Arc::clone(&ids[ri]));
            }
        };
        let (include, mut stmts_visited) = (|ri: usize| mask[ri], 0);
        for module in modules {
            let walk = matcher.match_rules(module, include, scratch, &mut found);
            stmts_visited += walk.stmts_visited;
        }
        stmts_visited
    }
}

/// Per-worker reusable scan state, beside the worker's [`Evaluator`].
/// Every slot is cleared before use, and findings are collected as
/// handles (rule names from the evaluator, file names from the request,
/// flows from the artifacts' summaries), so once warm a worker evaluating
/// cached artifacts allocates only its verdict: one shared list per kind
/// of finding it holds.
struct WorkerScratch {
    routing: Routing,
    artifacts: Vec<Arc<FileAnalysis>>,
    findings: FindingLists,
}

impl WorkerScratch {
    fn new() -> Self {
        WorkerScratch {
            routing: Routing::empty(),
            artifacts: Vec::new(),
            findings: FindingLists::default(),
        }
    }
}

pub(crate) fn worker_loop(shared: &Shared, worker_id: usize) {
    let (yara, semgrep) = (shared.yara.as_ref(), shared.semgrep.as_ref());
    let mut eval = Evaluator::new(yara, semgrep, &shared.names, None);
    let mut scratch = WorkerScratch::new();
    let histograms = shared.telemetry.histograms();
    while let Some(job) = shared.queue.pop() {
        let mut clock = StageClock::resume(histograms, job.laps, Stage::Queue);
        clock.lap(Stage::Artifact);
        // A panic while scanning one hostile package must neither strand
        // the caller on an unfulfilled ticket nor take the worker down.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            scan_job(shared, &mut eval, &mut scratch, &job.request, &mut clock)
        }));
        match outcome {
            Ok(verdict) => {
                // One verdict behind the cache, the trace and the ticket.
                let verdict = Arc::new(verdict);
                if let (Some(mut cache), Some(d)) = (shared.verdicts(), &job.digest) {
                    cache.insert(*d, Arc::clone(&verdict));
                }
                HubCounters::add(&shared.counters.completed, 1);
                // The trace lands in the recorder *before* the ticket
                // resolves: a caller returning from `wait` can always
                // find its own scan.
                shared.telemetry.complete(
                    clock.stop(),
                    Some(worker_id),
                    job.digest.as_ref(),
                    &job.request,
                    &verdict,
                    false,
                );
                job.ticket.fulfill(Ok(verdict));
            }
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("opaque panic payload");
                job.ticket
                    .fulfill(Err(format!("scan worker panicked: {msg}")));
            }
        }
        Stage::Idle.enter();
    }
}

/// Fetches or builds the per-file artifacts for one request, leaving
/// them in `out` (request order).
///
/// Building runs the whole ruleset's string scan, the full parse and the
/// Semgrep match recording up front — artifacts are pure functions of
/// `(ruleset, bytes)`, so they cannot depend on per-request routing; a
/// repeat pays nothing. Routing still gates YARA condition evaluation
/// downstream, and masks the Semgrep rules the files fired.
///
/// Runs in the `artifact` stage, and laps splice attempts as the stage
/// nested inside it.
fn gather_artifacts(
    shared: &Shared,
    eval: &mut Evaluator<'_>,
    request: &ScanRequest,
    out: &mut Vec<Arc<FileAnalysis>>,
    clock: &mut StageClock<'_>,
) {
    let c = &shared.counters;
    let cfg = &shared.artifact_config;
    let scanner = eval.scanner.as_ref();
    out.clear();
    for entry in request.files() {
        let claim = match shared.artifacts.get_or_claim(entry) {
            Ok(artifact) => {
                HubCounters::add(&c.artifact_cache_hits, 1);
                out.push(artifact);
                continue;
            }
            Err(claim) => claim,
        };
        // Digest miss: before paying a full reparse, try to splice the
        // edit into the cache-resident previous version of the same file
        // (ISSUE 10). Non-Python siblings are not splice candidates and
        // count neither as relexes nor as fallbacks.
        let spliced = claim.donor.as_ref().and_then(|sibling| {
            clock.lap(Stage::Splice);
            let result = FileAnalysis::build_spliced(entry, sibling, scanner, cfg);
            clock.lap(Stage::Artifact);
            if result.is_none() && sibling.is_python {
                HubCounters::add(&c.splice_fallbacks, 1);
            }
            result
        });
        let (mut built, carried, edit) = match spliced {
            Some(spliced) => {
                HubCounters::add(&c.incremental_relexes, 1);
                HubCounters::add(&c.relexed_bytes, spliced.relexed_bytes);
                (spliced.analysis, spliced.taint_carried, Some(spliced.edit))
            }
            None => {
                HubCounters::add(&c.artifact_parses, 1);
                (FileAnalysis::build(entry, scanner, cfg), false, None)
            }
        };
        // The file's Semgrep matches, recorded before it is published: a
        // splice carries its sibling's outside the edit.
        if let Some(matcher) = &eval.matcher {
            let spliced_from = claim.donor.as_deref().zip(edit.as_ref());
            let (walk, carried) = built.record_matches(matcher, spliced_from, &mut eval.semgrep);
            HubCounters::add(&c.semgrep_stmts_visited, walk.stmts_visited);
            HubCounters::add(&c.semgrep_carried, u64::from(carried));
        }
        let built = Arc::new(built);
        // Downstream-product accounting, the same on both paths but for
        // who paid: a spliced artifact decodes its layers from scratch,
        // carries its donor's taint summary when the engine cannot read
        // the edit, and carries its donor's surface hits outside the
        // edit, so its regex work covers the edit only.
        if let Some(taint) = &built.taint {
            let pass = if carried {
                &c.taint_carried
            } else {
                &c.taint_analyses
            };
            HubCounters::add(pass, 1);
            HubCounters::add(&c.flows_found, taint.flows.len() as u64);
            HubCounters::add(&c.consts_folded, taint.folded.len() as u64);
        }
        HubCounters::add(&c.layers_decoded, built.layers.len() as u64);
        HubCounters::add(
            &c.layer_bytes_scanned,
            built.layers.iter().map(|l| l.data.len() as u64).sum(),
        );
        // Regex work happens once per unique file, at artifact-build time
        // — over the lines the edit touched, for a splice's line-local
        // groups; cache hits pay none.
        if let Some(work) = scanner.map(Scanner::take_work) {
            HubCounters::add(&c.regex_strings_evaluated, work.regex_strings_evaluated);
            HubCounters::add(&c.regex_bytes_scanned, work.regex_bytes_scanned);
        }
        claim.publish(&built, clock);
        out.push(built);
    }
}

fn scan_job(
    shared: &Shared,
    eval: &mut Evaluator<'_>,
    scratch: &mut WorkerScratch,
    request: &ScanRequest,
    clock: &mut StageClock<'_>,
) -> Verdict {
    let c = &shared.counters;
    let WorkerScratch {
        routing,
        artifacts,
        findings,
    } = scratch;
    // A scan that panicked left what it had found behind.
    findings.clear();
    // Phase 1: get-or-build every file's analysis artifact. This is the
    // only phase that lexes, parses, decodes or regex-scans; a warm
    // artifact cache makes a re-uploaded package version re-analyze only
    // its changed files.
    gather_artifacts(shared, eval, request, artifacts, clock);
    clock.lap(Stage::Prefilter);
    // Phase 2: route the package from the artifacts. YARA rules are
    // routed from each unit's cached hits, and every Semgrep rule is
    // routed (the files' recorded matches say which fired); no byte is
    // read.
    if shared.prefilter {
        let scratch = &mut PrefilterScratch::new();
        shared
            .index
            .route_artifacts_into(artifacts, routing, scratch);
    } else {
        shared.index.route_all_into(routing);
    }
    clock.lap(Stage::Yara);
    let total_len = request.scan_len();
    HubCounters::add(&c.bytes_scanned, total_len as u64);

    // Phase 3: YARA — evaluate routed conditions over the union of the
    // files' cached hit sets (no byte is re-scanned), then each decoded
    // layer as its own unit, tagging layer findings by provenance.
    if shared.yara.is_some() {
        let routed = routing.yara_routed();
        count(&c.yara_rules_evaluated, routed);
        count(&c.yara_rules_skipped, routing.yara.len() - routed);
        if routed == 0 {
            HubCounters::add(&c.yara_scans_skipped, 1);
        } else {
            let mut offset = 0usize;
            let parts = artifacts.iter().map(|a| {
                let base = offset;
                // +1 for the virtual newline separator between units
                // (see `ScanRequest::concat_buffer`).
                offset += a.bytes.len() + 1;
                (base, a.yara_hits.as_ref().expect("scanner built hits"))
            });
            let mask = &routing.yara;
            eval.surface(parts, total_len, mask, &mut findings.yara);
            clock.lap(Stage::Layers);
            for (entry, artifact) in request.files().iter().zip(artifacts.iter()) {
                let file = entry.name_handle();
                for (layer, hits) in artifact.layers.iter().zip(&artifact.layer_hits) {
                    eval.layer(layer, [(0, hits)], file, mask, &mut findings.layers);
                }
            }
            clock.lap(Stage::Semgrep);
        }
    }
    // Phase 4: Semgrep — an OR over the routed rules each Python file
    // fired, which its artifact recorded when it was built (a splice's
    // carried from its sibling). No tree is walked on this path, and
    // nothing parses Python or pattern text.
    Stage::Semgrep.enter();
    if shared.semgrep.is_some() {
        let routed = routing.semgrep_routed();
        count(&c.semgrep_rules_evaluated, routed);
        let has_python = artifacts.iter().any(|a| a.module.is_some());
        if routed == 0 || !has_python {
            HubCounters::add(&c.semgrep_parses_skipped, 1);
        } else {
            let files = artifacts.iter().filter_map(|a| a.semgrep.as_ref());
            eval.fired(files, &routing.semgrep, &mut findings.semgrep);
            clock.lap(Stage::Dataflow);
        }
    }
    // Phase 5: behavior engine — aggregate the cached per-file taint
    // summaries into file-stamped flow records. The analysis itself is
    // artifact work (exactly once per unique digest); this stage only
    // shares the summaries' flows, so it copies nothing.
    Stage::Dataflow.enter();
    if shared.artifact_config.dataflow {
        for (entry, artifact) in request.files().iter().zip(artifacts.iter()) {
            let Some(summary) = &artifact.taint else {
                continue;
            };
            for flow in &summary.flows {
                findings.flows.push(FlowRecord {
                    file: Arc::clone(entry.name_handle()),
                    flow: Arc::clone(flow),
                });
            }
        }
        clock.lap(Stage::Verdict);
    }
    // Drop the artifact handles so cache eviction can actually free.
    Stage::Verdict.enter();
    artifacts.clear();
    let verdict = findings.freeze();
    clock.lap(Stage::Complete);
    verdict
}

fn count(counter: &AtomicU64, n: usize) {
    HubCounters::add(counter, n as u64);
}

#[cfg(test)]
mod tests {
    use super::{scan_job, Evaluator, WorkerScratch};
    use crate::hub::tests::{hub, request, versioned_body};
    use crate::metrics::{Stage, StageClock};
    use crate::{FileEntry, HubConfig, ScanHub, ScanRequest, Verdict};

    #[test]
    fn verdicts_match_both_engines() {
        let hub = hub(HubConfig::default());
        let v = hub.submit(request("import os\nos.system('id')\n")).wait();
        assert_eq!(v.yara.names(), ["sys"]);
        assert_eq!(v.semgrep.names(), ["sys-call"]);
        assert!(!v.from_cache);
        assert!(v.flagged());
    }

    #[test]
    fn a_scan_reports_no_finding_an_unwound_scan_left_behind() {
        let hub = hub(HubConfig::default());
        let shared = &hub.shared;
        let (yara, semgrep) = (shared.yara.as_ref(), shared.semgrep.as_ref());
        let mut eval = Evaluator::new(yara, semgrep, &shared.names, None);
        let mut scratch = WorkerScratch::new();
        // What a scan that panicked after its YARA step leaves in the
        // worker's lists.
        scratch.findings.yara.push("sys".into());
        let mut clock = StageClock::resume(None, None, Stage::Artifact);
        let clean = request("print('hi')\n");
        let v = scan_job(shared, &mut eval, &mut scratch, &clean, &mut clock);
        Stage::Idle.enter();
        assert!(!v.flagged(), "{v:?}");
    }

    #[test]
    fn clean_package_passes() {
        let hub = hub(HubConfig::default());
        let v = hub.submit(request("print('hi')\n")).wait();
        assert!(!v.flagged());
    }

    #[test]
    fn version_bumps_splice_instead_of_reparsing() {
        let hub = hub(HubConfig {
            cache_capacity: 0, // force full scans so the artifact path runs
            ..HubConfig::default()
        });
        let v1 = hub.submit(request(&versioned_body("v1"))).wait();
        assert!(!v1.flagged());
        // The bump plants an IOC inside the edited line: the spliced
        // artifact recomputes every downstream product, so the new
        // payload must be caught, not masked by the sibling's hits.
        let v2_code = versioned_body("v2: os.system(x)");
        let v2 = hub.submit(request(&v2_code)).wait();
        assert!(v2.yara.names().contains(&"sys"), "splice hid a planted IOC");
        let stats = hub.stats();
        assert_eq!(stats.incremental_relexes, 1, "one-line bump must splice");
        assert_eq!(stats.splice_fallbacks, 0);
        assert_eq!(stats.artifact_parses, 1, "v2 paid no full reparse");
        assert!(
            stats.relexed_bytes > 0 && stats.relexed_bytes < v2_code.len() as u64 / 2,
            "splice relexed {} of {} bytes",
            stats.relexed_bytes,
            v2_code.len()
        );
        // The splice shows up as its own (artifact-nested) stage, and
        // the residency gauge sees both cached versions.
        assert!(stats.latency.splice.count >= 1);
        assert!(stats.artifact_bytes_resident > v2_code.len() as u64);
        // Byte-identical verdict to a cold hub that never saw v1.
        let cold_hub = crate::hub::tests::hub(HubConfig::default());
        let cold = cold_hub.submit(request(&v2_code)).wait();
        assert!(
            v2.same_matches(&cold),
            "spliced verdict diverged from cold build"
        );
    }

    #[test]
    fn unspliceable_edits_fall_back_and_are_counted() {
        let hub = hub(HubConfig {
            cache_capacity: 0,
            ..HubConfig::default()
        });
        let _ = hub.submit(request(&versioned_body("v1"))).wait();
        // A wholesale rewrite shares nothing with the sibling: the diff
        // window spans the file and splicing is not profitable.
        let v = hub.submit(request("rewritten = 'from scratch'\n")).wait();
        assert!(!v.flagged());
        let stats = hub.stats();
        assert_eq!(stats.incremental_relexes, 0);
        assert_eq!(stats.splice_fallbacks, 1);
        assert_eq!(stats.artifact_parses, 2, "fallback pays the full build");
        // Non-Python files are never splice candidates, so their
        // version bumps are not counted as fallbacks.
        for version in ["Metadata-Version: 1.0\n", "Metadata-Version: 1.1\n"] {
            let entry = FileEntry::new("PKG-INFO", version.as_bytes().to_vec());
            let _ = hub.submit(ScanRequest::from_files(vec![entry])).wait();
        }
        assert_eq!(hub.stats().splice_fallbacks, 1, "non-Python bump counted");
        assert_eq!(hub.stats().incremental_relexes, 0);
    }

    #[test]
    fn decoded_layer_finding_is_tagged_with_provenance() {
        let hub = hub(HubConfig {
            cache_capacity: 0,
            ..HubConfig::default()
        });
        let payload = digest::base64::encode(b"import os;os.system('id')");
        let code = format!("data = 'irrelevant'\nblob = '{payload}'\n");
        let v = hub
            .submit(ScanRequest::from_source("dropper.py", code))
            .wait();
        // Surface: the b64 regex rule sees the encoded blob itself.
        assert_eq!(v.yara.names(), ["b64"]);
        // Layer: the decoded payload trips the os.system rule, tagged
        // with file, encoding, depth and source line.
        let layer = v
            .layers
            .iter()
            .find(|l| &*l.rule == "sys")
            .expect("layer finding");
        assert_eq!(&*layer.file, "dropper.py");
        assert_eq!(layer.encoding, crate::LayerEncoding::Base64);
        assert_eq!(layer.depth, 1);
        assert_eq!(layer.line, 2);
        assert!(hub.stats().layers_decoded >= 1);
        assert!(hub.stats().layer_bytes_scanned >= 25);
    }

    #[test]
    fn stringless_rules_do_not_fire_on_decoded_layers() {
        // `tiny` (filesize bound) and `missing` (bare negation) carry no
        // string evidence a layer could hold; layer evaluation must be
        // restricted to rules with hits in the unit or both match every
        // decoded layer trivially (a layer's unit-local filesize is tiny
        // and its negated string is absent) and flag clean packages.
        let rules = r#"
rule sys { strings: $a = "os.system" condition: $a }
rule tiny { condition: filesize < 100 }
rule missing { strings: $a = "never-present-atom" condition: not $a }
"#;
        let hub = ScanHub::new(
            Some(yara_engine::compile(rules).expect("yara")),
            None,
            HubConfig {
                cache_capacity: 0,
                ..HubConfig::default()
            },
        );
        let payload = digest::base64::encode(b"import os;os.system('id')");
        // Pad the request past `tiny`'s filesize bound so the surface
        // scan does not fire it either.
        let code = format!("blob = '{payload}'\n# {}\n", "x".repeat(120));
        let v = hub
            .submit(ScanRequest::from_source("dropper.py", code))
            .wait();
        // Surface: only the negation rule holds (its atom is absent).
        assert_eq!(v.yara.names(), ["missing"]);
        // Layers: exactly the rule with evidence in the decoded unit.
        assert!(v.layers.iter().any(|l| &*l.rule == "sys"));
        assert!(
            v.layers.iter().all(|l| &*l.rule == "sys"),
            "stringless/negated rules fired on a decoded layer: {:?}",
            v.layers
        );
    }

    #[test]
    fn zero_decode_depth_disables_layered_findings() {
        let hub = hub(HubConfig {
            cache_capacity: 0,
            max_decode_depth: 0,
            ..HubConfig::default()
        });
        let payload = digest::base64::encode(b"import os;os.system('id')");
        let v = hub
            .submit(ScanRequest::from_source(
                "dropper.py",
                format!("blob = '{payload}'\n"),
            ))
            .wait();
        assert!(v.layers.is_empty());
        assert_eq!(hub.stats().layers_decoded, 0);
    }

    #[test]
    fn verdicts_are_sorted_and_deduplicated() {
        // `sys` declared before `net` in the ruleset but `net` sorts
        // first; both fire here.
        let hub = hub(HubConfig {
            cache_capacity: 0,
            ..HubConfig::default()
        });
        let v = hub
            .submit(request(
                "import os, socket\nsocket.socket()\nos.system('id')\n",
            ))
            .wait();
        assert_eq!(v.yara.names(), ["net", "sys"]);
        let mut sorted = v.yara.to_vec();
        sorted.sort();
        sorted.dedup();
        assert_eq!(*v.yara, *sorted);
    }

    #[test]
    fn verdicts_are_deterministic_across_worker_counts() {
        let codes: Vec<String> = (0..24)
            .map(|i| match i % 4 {
                0 => format!("import os\nos.system('c{i}')\nimport socket\nsocket.socket()\n"),
                1 => format!(
                    "blob = '{}'\n",
                    digest::base64::encode(format!("os.system('p{i}')").as_bytes())
                ),
                2 => format!("def f{i}():\n    return {i}\n"),
                _ => format!("payload_{i} = 'aW1wb3J0IG9zO2V4ZWMoKQ=='\n"),
            })
            .collect();
        let mut baseline: Option<Vec<Verdict>> = None;
        for workers in [1usize, 2, 8] {
            let hub = hub(HubConfig {
                workers,
                cache_capacity: 0,
                ..HubConfig::default()
            });
            let verdicts = hub.scan_ordered(codes.iter().map(|c| request(c)));
            match &baseline {
                None => baseline = Some(verdicts),
                Some(expected) => {
                    assert_eq!(&verdicts, expected, "diverged at {workers} workers");
                }
            }
        }
    }

    #[test]
    fn prefilter_skips_clean_packages_entirely() {
        let hub = ScanHub::new(
            Some(
                yara_engine::compile("rule sys { strings: $a = \"os.system\" condition: $a }")
                    .expect("yara"),
            ),
            None,
            HubConfig {
                cache_capacity: 0,
                ..HubConfig::default()
            },
        );
        let v = hub
            .submit(request("def add(a, b):\n    return a + b\n"))
            .wait();
        assert!(!v.flagged());
        let stats = hub.stats();
        assert_eq!(stats.yara_scans_skipped, 1);
        assert_eq!(stats.yara_rules_skipped, 1);
        assert_eq!(stats.yara_rules_evaluated, 0);
        assert!(stats.prefilter_skip_rate() > 0.99);
    }

    #[test]
    fn regex_counters_track_engine_work() {
        let hub = hub(HubConfig {
            cache_capacity: 0,
            ..HubConfig::default()
        });
        let code = "payload = 'aW1wb3J0IG9zO2V4ZWMoKQzz12345'\n";
        let v = hub.submit(request(code)).wait();
        assert_eq!(v.yara.names(), ["b64"]);
        let stats = hub.stats();
        // The b64 rule's regex ran at least once over the full buffer
        // (at artifact-build time — cache hits would pay nothing).
        assert!(stats.regex_strings_evaluated >= 1);
        assert!(stats.regex_bytes_scanned >= code.len() as u64);
        assert!(stats.regex_read_amplification() > 0.0);
        // A resubmission reuses the artifact: no new regex bytes.
        let before = stats.regex_bytes_scanned;
        let _ = hub.submit(request(code)).wait();
        assert_eq!(hub.stats().regex_bytes_scanned, before);
        assert!(hub.stats().artifact_hit_rate() > 0.0);
    }

    #[test]
    fn semgrep_counters_track_single_pass_work() {
        let hub = hub(HubConfig {
            cache_capacity: 0,
            ..HubConfig::default()
        });
        for code in [
            "import os\nos.system('id')\n",
            "def f():\n    return os.system(x)\n",
            "print('clean, but os.system appears in a string')\n",
        ] {
            let _ = hub.submit(request(code)).wait();
        }
        let stats = hub.stats();
        // Every routed source was walked exactly once per module.
        assert!(stats.semgrep_stmts_visited >= 4, "{stats:?}");
    }

    #[test]
    fn prefilter_and_exhaustive_agree() {
        let fast = hub(HubConfig {
            cache_capacity: 0,
            ..HubConfig::default()
        });
        let slow = hub(HubConfig {
            prefilter: false,
            cache_capacity: 0,
            ..HubConfig::default()
        });
        for code in [
            "import os\nos.system('id')\n",
            "import socket\nsocket.socket()\n",
            "payload = 'aW1wb3J0IG9zO2V4ZWMoKQzz12345'\n",
            "print('clean')\n",
        ] {
            let a = fast.submit(request(code)).wait();
            let b = slow.submit(request(code)).wait();
            assert_eq!(a, b, "divergence on {code:?}");
        }
    }

    #[test]
    fn python_entries_route_semgrep_even_when_other_files_are_clean() {
        // Semgrep routing must come from the Python entries themselves:
        // a payload-free data file plus a hot Python file must still
        // route and match the Semgrep rule.
        let hub = hub(HubConfig {
            cache_capacity: 0,
            ..HubConfig::default()
        });
        let v = hub
            .submit(ScanRequest::from_files(vec![
                FileEntry::new("assets/data.bin", b"clean bytes".to_vec()),
                FileEntry::new("mod.py", b"import os\nos.system('x')\n".to_vec()),
            ]))
            .wait();
        assert_eq!(v.semgrep.names(), ["sys-call"]);
    }

    #[test]
    fn cross_file_conditions_see_the_whole_package() {
        // `all of them` with atoms split across two files: the per-file
        // hit sets must union before condition evaluation.
        let hub = ScanHub::new(
            Some(
                yara_engine::compile(
                    "rule pair { strings: $a = \"marker_one\" $b = \"marker_two\" condition: all of them }",
                )
                .expect("yara"),
            ),
            None,
            HubConfig {
                cache_capacity: 0,
                ..HubConfig::default()
            },
        );
        let v = hub
            .submit(ScanRequest::from_files(vec![
                FileEntry::new("a.py", b"x = 'marker_one'\n".to_vec()),
                FileEntry::new("b.py", b"y = 'marker_two'\n".to_vec()),
            ]))
            .wait();
        assert_eq!(v.yara.names(), ["pair"]);
        // Either file alone must not satisfy the condition.
        let half = hub
            .submit(ScanRequest::from_files(vec![FileEntry::new(
                "a.py",
                b"x = 'marker_one'\n".to_vec(),
            )]))
            .wait();
        assert!(half.yara.is_empty());
    }
}
