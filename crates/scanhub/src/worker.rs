//! The worker side of the hub: pop a job, get-or-build its per-file
//! artifacts (full build or diff-and-splice), route, evaluate both
//! engines over the cached artifacts, and fulfill the ticket.

use std::collections::HashSet;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use semgrep_engine::{MatchScratch, MatchSet, SemgrepMetrics};
use yara_engine::{FileHits, ScanScratch, Scanner};

use crate::artifact::{DecodedLayer, FileAnalysis};
use crate::hub::Shared;
use crate::metrics::{HubCounters, StageClock, StageNanos};
use crate::prefilter::{PrefilterScratch, Routing};
use crate::request::ScanRequest;
use crate::retrohunt::GramScratch;
use crate::verdict::{FlowRecord, LayerFinding, Verdict};

/// Per-worker reusable scan state. Every slot is either generation-
/// stamped or cleared before use, so a worker's steady-state scan path
/// performs no allocation beyond actual findings and cold artifacts.
struct WorkerScratch {
    routing: Routing,
    prefilter: PrefilterScratch,
    yara: ScanScratch,
    semgrep: MatchScratch,
    findings: Vec<semgrep_engine::Finding>,
    ids: HashSet<String>,
    artifacts: Vec<Arc<FileAnalysis>>,
    layer_marks: Vec<bool>,
    grams: GramScratch,
}

impl WorkerScratch {
    fn new() -> Self {
        WorkerScratch {
            routing: Routing::empty(),
            prefilter: PrefilterScratch::new(),
            yara: ScanScratch::new(),
            semgrep: MatchScratch::new(),
            findings: Vec::new(),
            ids: HashSet::new(),
            artifacts: Vec::new(),
            layer_marks: Vec::new(),
            grams: GramScratch::default(),
        }
    }
}

pub(crate) fn worker_loop(shared: &Shared, worker_id: usize) {
    // Per-worker reusable matcher state: the merged Aho–Corasick
    // automatons and the Semgrep anchor index are built once per worker,
    // not once per package — and neither ever parses pattern text.
    let scanner = shared.yara.as_ref().map(Scanner::new);
    let matcher = shared.semgrep.as_ref().map(MatchSet::new);
    let mut scratch = WorkerScratch::new();
    while let Some(job) = shared.queue.pop() {
        let queue_ns = job.enqueued_at.map_or(0, |t| t.elapsed().as_nanos() as u64);
        // A panic while scanning one hostile package must neither strand
        // the caller on an unfulfilled ticket nor take the worker down.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            scan_job(
                shared,
                scanner.as_ref(),
                matcher.as_ref(),
                &mut scratch,
                &job.request,
            )
        }));
        match outcome {
            Ok((verdict, mut stages)) => {
                if let (Some(cache), Some(d)) = (&shared.cache, &job.digest) {
                    cache
                        .lock()
                        .expect("cache lock")
                        .insert(*d, verdict.clone());
                }
                HubCounters::add(&shared.counters.completed, 1);
                stages.queue = queue_ns;
                stages.cache = job.cache_ns;
                // The trace lands in the recorder *before* the ticket
                // resolves: a caller returning from `wait` can always
                // find its own scan.
                shared.telemetry.complete(
                    job.submitted_at,
                    Some(worker_id),
                    job.digest.as_ref(),
                    &job.request,
                    &verdict,
                    stages,
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
    }
}

/// Fetches or builds the per-file artifacts for one request, leaving
/// them in `out` (request order).
///
/// Building runs the whole ruleset's string scan and the full parse up
/// front — artifacts are pure functions of `(ruleset, bytes)`, so they
/// cannot depend on per-request routing; a repeat pays nothing. Routing
/// still gates condition evaluation and the Semgrep walk downstream.
///
/// Adds the nanoseconds spent in splice attempts and in retro-index
/// maintenance for the artifacts published here to `stages.splice` and
/// `stages.retro_publish` (nothing when telemetry is off) — both nested
/// inside the caller's `artifact` lap.
fn gather_artifacts(
    shared: &Shared,
    scanner: Option<&Scanner<'_>>,
    request: &ScanRequest,
    out: &mut Vec<Arc<FileAnalysis>>,
    grams: &mut GramScratch,
    stages: &mut StageNanos,
) {
    let c = &shared.counters;
    let cfg = &shared.artifact_config;
    let timing = shared.telemetry.enabled();
    out.clear();
    for entry in request.files() {
        let claim = match &shared.artifacts {
            None => None,
            Some(store) => match store.get_or_claim(entry) {
                Ok(artifact) => {
                    HubCounters::add(&c.artifact_cache_hits, 1);
                    out.push(artifact);
                    continue;
                }
                Err(claim) => Some(claim),
            },
        };
        // Digest miss: before paying a full reparse, try to splice the
        // edit into the cache-resident previous version of the same file
        // (ISSUE 10). Non-Python siblings are not splice candidates and
        // count neither as relexes nor as fallbacks.
        let donor = claim.as_ref().and_then(|claim| claim.donor.as_ref());
        let spliced = donor.and_then(|sibling| {
            let mut clock = StageClock::start(timing);
            let result = FileAnalysis::build_spliced(entry, sibling, scanner, cfg);
            stages.splice += clock.lap();
            if result.is_none() && sibling.is_python {
                HubCounters::add(&c.splice_fallbacks, 1);
            }
            result
        });
        let built = Arc::new(match spliced {
            Some(spliced) => {
                HubCounters::add(&c.incremental_relexes, 1);
                HubCounters::add(&c.relexed_bytes, spliced.relexed_bytes);
                spliced.analysis
            }
            None => {
                HubCounters::add(&c.artifact_parses, 1);
                FileAnalysis::build(entry, scanner, cfg)
            }
        });
        // Downstream-product accounting, the same on both paths: a
        // spliced artifact recomputes layers, taint and regex hits from
        // scratch (only lex/parse is incremental).
        if let Some(taint) = &built.taint {
            HubCounters::add(&c.taint_analyses, 1);
            HubCounters::add(&c.flows_found, taint.flows.len() as u64);
            HubCounters::add(&c.consts_folded, taint.folded.len() as u64);
        }
        HubCounters::add(&c.layers_decoded, built.layers.len() as u64);
        HubCounters::add(
            &c.layer_bytes_scanned,
            built.layers.iter().map(|l| l.data.len() as u64).sum(),
        );
        // Regex work happens exactly once per unique file, at
        // artifact-build time; cache hits pay none.
        for hits in built.yara_hits.iter().chain(&built.layer_hits) {
            HubCounters::add(
                &c.regex_strings_evaluated,
                hits.metrics.regex_strings_evaluated,
            );
            HubCounters::add(&c.regex_bytes_scanned, hits.metrics.regex_bytes_scanned);
        }
        if let Some(claim) = claim {
            stages.retro_publish += claim.publish(&built, grams, timing);
        }
        out.push(built);
    }
}

fn scan_job(
    shared: &Shared,
    scanner: Option<&Scanner<'_>>,
    matcher: Option<&MatchSet<'_>>,
    scratch: &mut WorkerScratch,
    request: &ScanRequest,
) -> (Verdict, StageNanos) {
    let mut clock = StageClock::start(shared.telemetry.enabled());
    let mut stages = StageNanos::default();
    let c = &shared.counters;
    let WorkerScratch {
        routing,
        prefilter,
        yara: yara_scratch,
        semgrep: semgrep_scratch,
        findings,
        ids,
        artifacts,
        layer_marks,
        grams,
    } = scratch;
    // Phase 1: get-or-build every file's analysis artifact. This is the
    // only phase that lexes, parses, decodes or regex-scans; a warm
    // artifact cache makes a re-uploaded package version re-analyze only
    // its changed files.
    gather_artifacts(shared, scanner, request, artifacts, grams, &mut stages);
    stages.artifact = clock.lap();
    // Phase 2: route the package from the artifacts. This reads bytes
    // again: every file's raw bytes and every decoded layer go through
    // the prefilter automaton on every request, artifact-cache hits
    // included — routing is not cached with the artifact (ROADMAP 3).
    if shared.prefilter {
        shared
            .index
            .route_artifacts_into(artifacts, routing, prefilter);
    } else {
        shared.index.route_all_into(routing);
    }
    stages.prefilter = clock.lap();
    let total_len = request.scan_len();
    HubCounters::add(&c.bytes_scanned, total_len as u64);

    let mut verdict = Verdict::default();
    // Phase 3: YARA — evaluate routed conditions over the union of the
    // files' cached hit sets (no byte is re-scanned), then each decoded
    // layer as its own unit, tagging layer findings by provenance.
    if let Some(scanner) = scanner {
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
            let hits =
                scanner.eval_hits(parts, total_len as i64, |ri| routing.yara[ri], yara_scratch);
            for hit in hits {
                verdict.yara.push(hit.rule);
            }
            stages.yara = clock.lap();
            for (entry, artifact) in request.files().iter().zip(artifacts.iter()) {
                for (layer, layer_hits) in artifact.layers.iter().zip(&artifact.layer_hits) {
                    layer_findings(
                        scanner,
                        layer,
                        layer_hits,
                        entry.name(),
                        &routing.yara,
                        layer_marks,
                        yara_scratch,
                        &mut verdict.layers,
                    );
                }
            }
            stages.layers = clock.lap();
        }
    }
    // Phase 4: Semgrep — one anchored walk per cached module; nothing on
    // this path parses Python or pattern text.
    if let Some(matcher) = matcher {
        let routed = routing.semgrep_routed();
        count(&c.semgrep_rules_evaluated, routed);
        count(&c.semgrep_rules_skipped, routing.semgrep.len() - routed);
        let has_python = artifacts.iter().any(|a| a.module.is_some());
        if routed == 0 || !has_python {
            HubCounters::add(&c.semgrep_parses_skipped, 1);
        } else {
            ids.clear();
            let mut metrics = SemgrepMetrics::default();
            for artifact in artifacts.iter() {
                let Some(module) = &artifact.module else {
                    continue;
                };
                findings.clear();
                metrics.absorb(matcher.match_module_set_into(
                    module.get(),
                    |ri| routing.semgrep[ri],
                    semgrep_scratch,
                    findings,
                ));
                for finding in findings.drain(..) {
                    ids.insert(finding.rule_id);
                }
            }
            HubCounters::add(&c.semgrep_stmts_visited, metrics.stmts_visited);
            HubCounters::add(&c.semgrep_pattern_reparses, metrics.pattern_reparses);
            verdict.semgrep = ids.drain().collect();
            stages.semgrep = clock.lap();
        }
    }
    // Phase 5: behavior engine — aggregate the cached per-file taint
    // summaries into file-stamped flow records. The analysis itself is
    // artifact work (exactly once per unique digest); this stage only
    // copies flows out, so its warm cost is proportional to findings,
    // not file content.
    if shared.artifact_config.dataflow {
        for (entry, artifact) in request.files().iter().zip(artifacts.iter()) {
            let Some(summary) = &artifact.taint else {
                continue;
            };
            for flow in &summary.flows {
                verdict.flows.push(FlowRecord {
                    file: entry.name().to_owned(),
                    flow: flow.clone(),
                });
            }
        }
        stages.dataflow = clock.lap();
    }
    // Drop the artifact handles so cache eviction can actually free.
    artifacts.clear();
    verdict.normalize();
    stages.verdict = clock.lap();
    (verdict, stages)
}

/// Evaluates one decoded layer as its own scan unit — on the live path
/// and in a retro-hunt's confirm scan alike — and pushes a finding
/// labelled `file` for every rule enabled in `mask` that matches.
#[allow(clippy::too_many_arguments)]
pub(crate) fn layer_findings(
    scanner: &Scanner<'_>,
    layer: &DecodedLayer,
    layer_hits: &FileHits,
    file: &str,
    mask: &[bool],
    marks: &mut Vec<bool>,
    scratch: &mut ScanScratch,
    out: &mut Vec<LayerFinding>,
) {
    // A layer with no string hit can only satisfy stringless conditions
    // (filesize, negations) that say nothing about the payload: skip it.
    if layer_hits.is_empty() {
        return;
    }
    // Restrict evaluation to rules with evidence *in* this layer:
    // stringless and negation-only conditions are package-routed
    // unconditionally and would otherwise hold trivially against the
    // tiny unit-local filesize.
    scanner.mark_rules_with_hits(layer_hits, marks);
    let matches = scanner.eval_hits(
        [(0usize, layer_hits)],
        layer.data.len() as i64,
        |ri| mask[ri] && marks[ri],
        scratch,
    );
    for m in matches {
        out.push(LayerFinding {
            rule: m.rule,
            file: file.to_owned(),
            encoding: layer.encoding,
            depth: layer.depth,
            line: layer.line,
        });
    }
}

fn count(counter: &AtomicU64, n: usize) {
    HubCounters::add(counter, n as u64);
}

#[cfg(test)]
mod tests {
    use crate::hub::tests::{hub, request, versioned_body};
    use crate::{FileEntry, HubConfig, ScanHub, ScanRequest, Verdict};

    #[test]
    fn verdicts_match_both_engines() {
        let hub = hub(HubConfig::default());
        let v = hub.submit(request("import os\nos.system('id')\n")).wait();
        assert_eq!(v.yara, vec!["sys".to_owned()]);
        assert_eq!(v.semgrep, vec!["sys-call".to_owned()]);
        assert!(!v.from_cache);
        assert!(v.flagged());
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
        assert!(
            v2.yara.contains(&"sys".to_owned()),
            "splice hid a planted IOC"
        );
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
        assert_eq!(v.yara, vec!["b64".to_owned()]);
        // Layer: the decoded payload trips the os.system rule, tagged
        // with file, encoding, depth and source line.
        let layer = v
            .layers
            .iter()
            .find(|l| l.rule == "sys")
            .expect("layer finding");
        assert_eq!(layer.file, "dropper.py");
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
        assert_eq!(v.yara, vec!["missing".to_owned()]);
        // Layers: exactly the rule with evidence in the decoded unit.
        assert!(v.layers.iter().any(|l| l.rule == "sys"));
        assert!(
            v.layers.iter().all(|l| l.rule == "sys"),
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
        assert_eq!(v.yara, vec!["net".to_owned(), "sys".to_owned()]);
        let mut sorted = v.yara.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(v.yara, sorted);
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
        assert_eq!(v.yara, vec!["b64".to_owned()]);
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
    fn semgrep_counters_track_single_pass_work_and_zero_reparses() {
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
        // Compile-once matching: the scan path never re-parses patterns.
        assert_eq!(stats.semgrep_pattern_reparses, 0);
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
        assert_eq!(v.semgrep, vec!["sys-call".to_owned()]);
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
        assert_eq!(v.yara, vec!["pair".to_owned()]);
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
