//! Property tests: prefiltered, artifact-cached, unit-split scanning
//! must be verdict-identical to flat exhaustive scanning, the verdict
//! cache must be transparent, and the artifact cache must perform
//! exactly one analysis per unique file digest.

use std::collections::HashSet;

use corpus::FAMILIES;
use obfuscate::{EvasionProfile, Obfuscator};
use oracles::semgrep as reference;
use proptest::prelude::*;
use scanhub::{FileEntry, HubConfig, ScanHub, ScanRequest, Verdict};
use semgrep_engine::CompiledSemgrepRules;
use yara_engine::CompiledRules;

/// A rule pool exercising every prefilter path: plain atoms, `nocase`,
/// counts, `all of`, negation, regex strings (always-on), filesize
/// disjunctions (always-on), and a dead rule.
const YARA_POOL: &str = r#"
rule shell { strings: $a = "os.system" condition: $a }
rule beacon { strings: $a = "requests.get" $b = "requests.post" condition: any of them }
rule exfil_pair { strings: $a = "os.environ" $b = "requests.post" condition: all of them }
rule noisy { strings: $a = "import" condition: #a >= 3 }
rule caseless { strings: $a = "SubProcess" nocase condition: $a }
rule b64blob { strings: $re = /[A-Za-z0-9+\/]{24,}={0,2}/ condition: $re }
rule big_or_eval { strings: $a = "eval(" condition: $a or filesize > 500000 }
rule guarded { strings: $a = "setup(" $lic = "license" condition: $a and not $lic }
rule dead { condition: false }
"#;

const SEMGREP_POOL: &str = r#"
rules:
  - id: sys-exec
    languages: [python]
    message: shell execution
    pattern: os.system($CMD)
  - id: eval-or-exec
    languages: [python]
    message: dynamic code
    pattern-either:
      - pattern: eval($X)
      - pattern: exec($X)
  - id: open-write
    languages: [python]
    message: file write
    patterns:
      - pattern: open($F, 'w')
      - pattern-not: open('log.txt', 'w')
  - id: any-call
    languages: [python]
    message: opaque (always-on)
    pattern: $F(secret_marker_zz)
"#;

fn pools() -> (CompiledRules, CompiledSemgrepRules) {
    (
        yara_engine::compile(YARA_POOL).expect("yara pool"),
        semgrep_engine::compile(SEMGREP_POOL).expect("semgrep pool"),
    )
}

/// The pre-refactor oracle: single-threaded, rule-by-rule exhaustive
/// scanning of the **flattened** request — one whole-buffer YARA pass
/// over the concatenated files, the *seed's* reparse-per-call Semgrep
/// matcher per Python source — with no prefilter, no routing, no cache,
/// no artifacts, no unit splitting and no decoded layers. The service's
/// per-file hit-union path is differentially checked against it.
fn exhaustive(
    yara: &CompiledRules,
    semgrep: &CompiledSemgrepRules,
    request: &ScanRequest,
) -> Verdict {
    let scanner = yara_engine::Scanner::new(yara);
    let mut verdict = Verdict {
        yara: scanner
            .scan(&request.concat_buffer())
            .into_iter()
            .map(|h| h.rule)
            .collect(),
        ..Verdict::default()
    };
    verdict.yara.sort();
    verdict.yara.dedup();
    let mut ids = HashSet::new();
    for src in request.python_sources() {
        let module = pysrc::parse_module(&src);
        for rule in &semgrep.rules {
            for finding in reference::match_module(rule, &module) {
                ids.insert(finding.rule_id);
            }
        }
    }
    verdict.semgrep = ids.into_iter().collect();
    verdict.semgrep.sort();
    verdict
}

fn hub_with(prefilter: bool, max_decode_depth: u8) -> ScanHub {
    let (yara, semgrep) = pools();
    ScanHub::new(
        Some(yara),
        Some(semgrep),
        HubConfig {
            workers: 2,
            cache_capacity: 0,
            prefilter,
            max_decode_depth,
            // These suites differentially compare against the flat
            // pre-refactor oracle, which has no behavior engine; the
            // taint differential suite covers dataflow-on invariants.
            dataflow: false,
            ..HubConfig::default()
        },
    )
}

fn prefilter_hub() -> ScanHub {
    hub_with(true, 0)
}

fn nofilter_hub() -> ScanHub {
    hub_with(false, 0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn prefiltered_matches_equal_exhaustive_on_random_corpora(
        family_idx in 0usize..30,
        variant in 0u64..20,
        seed in any::<u64>(),
        legit_idx in 0usize..40,
    ) {
        let (yara, semgrep) = pools();
        let hub = prefilter_hub();
        let family = &FAMILIES[family_idx];
        let malware = corpus::generate_malware_package(family, variant, seed).0;
        let legit = corpus::generate_legit_package(legit_idx, seed);
        for pkg in [&malware, &legit] {
            let request = ScanRequest::from_package(pkg);
            let fast = hub.submit(request.clone()).wait();
            let slow = exhaustive(&yara, &semgrep, &request);
            prop_assert_eq!(&fast.yara, &slow.yara, "yara diverged on {}", pkg.metadata().name);
            prop_assert_eq!(&fast.semgrep, &slow.semgrep, "semgrep diverged on {}", pkg.metadata().name);
            prop_assert!(fast.layers.is_empty(), "layered-off hub produced layer findings");
        }
    }

    #[test]
    fn prefiltered_matches_equal_exhaustive_on_adversarial_text(
        body in "[ -~\\n]{0,300}",
        inject_atom in any::<bool>(),
    ) {
        // Arbitrary printable garbage, half the time salted with a real
        // atom so both prefilter outcomes (skip and route) are exercised.
        let code = if inject_atom {
            format!("{body}\nimport os\nos.system('x')\n")
        } else {
            body
        };
        let (yara, semgrep) = pools();
        let hub = prefilter_hub();
        let request = ScanRequest::from_source("upload.py", code);
        let fast = hub.submit(request.clone()).wait();
        let slow = exhaustive(&yara, &semgrep, &request);
        prop_assert_eq!(&fast.yara, &slow.yara);
        prop_assert_eq!(&fast.semgrep, &slow.semgrep);
    }

    #[test]
    fn mutant_verdicts_identical_between_prefiltered_and_exhaustive_scans(
        family_idx in 0usize..30,
        variant in 0u64..10,
        seed in any::<u64>(),
        profile_idx in 0usize..3,
    ) {
        // ISSUE 2 acceptance criterion: the prefilter stays *sound* on
        // adversarially mutated uploads — no rule is skipped that would
        // have matched the mutant. ISSUE 5 extension: the per-file
        // artifact path (unit-split hit unions, artifact cache) with
        // layered scanning OFF is verdict-identical to the flat
        // pre-refactor scan, and layered scanning ON never perturbs the
        // surface verdict — it can only append tagged layer findings.
        let (yara, semgrep) = pools();
        let hub = prefilter_hub();
        let off = nofilter_hub();
        let layered = hub_with(true, 2);
        let layered_off = hub_with(false, 2);
        let family = &FAMILIES[family_idx];
        let original = corpus::generate_malware_package(family, variant, seed).0;
        let profile = EvasionProfile::standard().swap_remove(profile_idx);
        let mutant = Obfuscator::new(profile.clone(), seed).obfuscate_package(&original);
        let request = ScanRequest::from_package(&mutant);
        let fast = hub.submit(request.clone()).wait();
        let unrouted = off.submit(request.clone()).wait();
        let with_layers = layered.submit(request.clone()).wait();
        let layers_unrouted = layered_off.submit(request.clone()).wait();
        let slow = exhaustive(&yara, &semgrep, &request);
        prop_assert_eq!(
            &fast.yara, &slow.yara,
            "yara diverged on {} mutant of {}", profile.name, original.metadata().name
        );
        prop_assert_eq!(
            &fast.semgrep, &slow.semgrep,
            "semgrep diverged on {} mutant of {}", profile.name, original.metadata().name
        );
        prop_assert_eq!(
            &fast, &unrouted,
            "prefilter on/off diverged on {} mutant of {}", profile.name, original.metadata().name
        );
        prop_assert_eq!(
            &with_layers.yara, &fast.yara,
            "layered scanning changed the surface yara verdict"
        );
        prop_assert_eq!(&with_layers.semgrep, &fast.semgrep);
        prop_assert_eq!(
            &with_layers, &layers_unrouted,
            "layered prefilter on/off diverged on {} mutant of {}", profile.name, original.metadata().name
        );
    }

    #[test]
    fn artifact_cache_performs_exactly_one_analysis_per_unique_digest(
        family_idx in 0usize..30,
        seed in any::<u64>(),
        versions in 2usize..5,
    ) {
        // A hub run over N versions of one package — each bumping a
        // version marker file and rewriting one source file — must
        // analyze exactly `unique file digests` entries, and every
        // other entry must be an artifact-cache hit.
        let hub = hub_with(true, 2);
        let family = &FAMILIES[family_idx];
        let base = corpus::generate_malware_package(family, 0, seed).0;
        let base_files: Vec<FileEntry> = ScanRequest::from_package(&base).files().to_vec();
        let mut requests: Vec<ScanRequest> = Vec::new();
        for v in 0..versions {
            let mut files = base_files.clone();
            // One changed source per version (round-robin), plus a
            // version stamp every version touches.
            let idx = v % base_files.len();
            files[idx] = FileEntry::new(
                base_files[idx].name(),
                format!("# v{v}\nrewritten = {v}\n").into_bytes(),
            );
            files.push(FileEntry::new("VERSION", format!("{v}.0.0").into_bytes()));
            requests.push(ScanRequest::from_files(files));
        }
        let mut unique: HashSet<[u8; 32]> = HashSet::new();
        let mut total_entries = 0u64;
        for req in &requests {
            for f in req.files() {
                unique.insert(f.digest());
                total_entries += 1;
            }
        }
        let verdicts = hub.scan_ordered(requests.iter().cloned());
        prop_assert_eq!(verdicts.len(), requests.len());
        let stats = hub.stats();
        // One analysis per unique digest — whether built from scratch
        // or spliced incrementally from a cached sibling (ISSUE 10).
        let builds = stats.artifact_parses + stats.incremental_relexes;
        prop_assert_eq!(builds, unique.len() as u64,
            "build count must equal unique file digests");
        prop_assert_eq!(stats.artifact_cache_hits, total_entries - unique.len() as u64);
        // Re-submitting every version rebuilds nothing at all.
        let again = hub.scan_ordered(requests.iter().cloned());
        prop_assert_eq!(&again, &verdicts, "warm artifacts changed a verdict");
        let stats = hub.stats();
        prop_assert_eq!(stats.artifact_parses + stats.incremental_relexes, builds);
    }

    #[test]
    fn cached_artifacts_never_serve_stale_analyses_for_changed_bytes(
        family_idx in 0usize..30,
        seed in any::<u64>(),
    ) {
        // Same file name, changed bytes: the digest changes, so the
        // artifact is rebuilt and the verdict reflects the new content —
        // in both directions (payload added, payload removed).
        let hub = hub_with(true, 2);
        let family = &FAMILIES[family_idx];
        let pkg = corpus::generate_malware_package(family, 0, seed).0;
        let dirty = ScanRequest::from_package(&pkg);
        let cleaned: Vec<FileEntry> = dirty
            .files()
            .iter()
            .map(|f| FileEntry::new(f.name(), b"x = 1\n".to_vec()))
            .collect();
        let clean = ScanRequest::from_files(cleaned);
        for (a, b) in dirty.files().iter().zip(clean.files()) {
            prop_assert_ne!(a.digest(), b.digest());
        }
        let dirty_verdict = hub.submit(dirty.clone()).wait();
        let clean_verdict = hub.submit(clean).wait();
        prop_assert!(!clean_verdict.flagged(),
            "stale artifact kept flagging overwritten content: {:?}", clean_verdict);
        // And scanning the dirty body again still flags it.
        let again = hub.submit(dirty).wait();
        prop_assert!(again.same_matches(&dirty_verdict));
    }

    #[test]
    fn mutated_reupload_never_served_a_stale_cached_verdict(
        family_idx in 0usize..30,
        seed in any::<u64>(),
        profile_idx in 0usize..3,
    ) {
        // A changed body must always be rescanned: the sha256 key of the
        // verdict cache may only ever serve byte-identical re-uploads.
        let (yara, semgrep) = pools();
        let hub = ScanHub::new(
            Some(yara.clone()),
            Some(semgrep.clone()),
            HubConfig { workers: 2, max_decode_depth: 0, ..HubConfig::default() },
        );
        let family = &FAMILIES[family_idx];
        let original = corpus::generate_malware_package(family, 0, seed).0;
        let profile = EvasionProfile::standard().swap_remove(profile_idx);
        let mutant = Obfuscator::new(profile, seed).obfuscate_package(&original);
        let orig_req = ScanRequest::from_package(&original);
        let mut_req = ScanRequest::from_package(&mutant);
        prop_assert_ne!(orig_req.digest(), mut_req.digest(), "mutation changed no bytes");

        let first = hub.submit(orig_req.clone()).wait();
        prop_assert!(!first.from_cache);
        // The mutant is a *different* body: it must be scanned fresh and
        // agree with the exhaustive oracle, not with the cached original.
        let mutant_verdict = hub.submit(mut_req.clone()).wait();
        prop_assert!(!mutant_verdict.from_cache, "stale verdict served for a changed body");
        let oracle = exhaustive(&yara, &semgrep, &mut_req);
        prop_assert_eq!(&mutant_verdict.yara, &oracle.yara);
        prop_assert_eq!(&mutant_verdict.semgrep, &oracle.semgrep);
        // Byte-identical mutant re-upload: now the cache may (and does)
        // answer, with the same matches.
        let again = hub.submit(mut_req).wait();
        prop_assert!(again.from_cache);
        prop_assert!(again.same_matches(&mutant_verdict));
    }

    #[test]
    fn resubmitted_package_is_served_from_cache_with_identical_verdict(
        family_idx in 0usize..30,
        seed in any::<u64>(),
    ) {
        let (yara, semgrep) = pools();
        let hub = ScanHub::new(
            Some(yara),
            Some(semgrep),
            HubConfig { workers: 2, ..HubConfig::default() },
        );
        let family = &FAMILIES[family_idx];
        let pkg = corpus::generate_malware_package(family, 0, seed).0;
        let request = ScanRequest::from_package(&pkg);
        let first = hub.submit(request.clone()).wait();
        let second = hub.submit(request).wait();
        prop_assert!(!first.from_cache);
        prop_assert!(second.from_cache, "re-submission must hit the cache");
        prop_assert!(first.same_matches(&second), "cached verdict must be identical");
        prop_assert_eq!(hub.stats().cache_hits, 1);
    }
}
