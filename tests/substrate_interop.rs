//! Integration tests for substrate interoperability: the package model,
//! extraction, LLM simulation, and both rule engines working as one
//! system.

use corpus::{generate_malware_package, FAMILIES};
use llm_sim::{LlmSim, ModelProfile, Prompt, RuleFormat};
use oracles::semgrep as reference;
use oss_registry::{Archive, Package};
use rulellm::align_rule;

fn sample_malware() -> Package {
    let family = FAMILIES
        .iter()
        .find(|f| f.stem == "beaconlite")
        .expect("family");
    generate_malware_package(family, 0, 1234).0
}

#[test]
fn archive_roundtrip_preserves_detection_surface() {
    let pkg = sample_malware();
    let bytes = pkg.pack().to_bytes();
    let back = Package::unpack(&Archive::from_bytes(&bytes).expect("decode")).expect("unpack");
    // The code content (the detection surface) survives distribution.
    assert_eq!(pkg.combined_source(), back.combined_source());
    assert_eq!(pkg.metadata().name, back.metadata().name);
}

#[test]
fn extraction_finds_the_malicious_unit() {
    let pkg = sample_malware();
    let groups = rulellm::extract_knowledge(&[&pkg], Some(1));
    let e = &groups.packages[0];
    assert!(!e.units.is_empty());
    // The audit must rank a truly suspicious unit first.
    let ranked = e.ranked_units();
    let top = &e.units[ranked[0]];
    assert!(e.unit_scores[ranked[0]] > 0, "no suspicious unit found");
    assert!(
        top.code.contains("requests.get") || top.code.contains("os.system"),
        "{}",
        top.code
    );
}

/// The unit splitter tests eight line prefixes, not a regex; this pins
/// it, line by line over the whole corpus, to a regex compiled here
/// from the paper's pattern. A probe line placed after one plain
/// statement opens a second unit exactly when it is a boundary.
#[test]
fn unit_boundaries_equal_a_freshly_compiled_regex_on_every_corpus_line() {
    let fresh = textmatch::Regex::new(r"^(def |class |if |for |while |try:|with |@)")
        .expect("the paper's boundary pattern");
    let dataset = corpus::Dataset::generate(&corpus::CorpusConfig::tiny());
    let malware = dataset.malware.iter().map(|m| &m.package);
    // One line per alternative and a near miss of each, whatever the
    // corpus happens to hold.
    let mut lines: std::collections::HashSet<String> = [
        "def f():",
        "class C:",
        "if x:",
        "for i in y:",
        "while True:",
        "try:",
        "with open(p) as f:",
        "@decorator",
        "define = 1",
        "classy = 1",
        "iffy = 1",
        "fork()",
        "whiled = 1",
        "try_again()",
        "within = 1",
        "x @ y",
        "    def indented():",
    ]
    .map(str::to_owned)
    .into();
    for pkg in malware.chain(dataset.legit.iter().map(|l| &l.package)) {
        for file in pkg.files() {
            lines.extend(file.contents.lines().map(str::to_owned));
        }
    }
    // A blank probe adds nothing to split off, and an oversized one is
    // split by the 4,000-character cap instead.
    lines.retain(|l| !l.trim().is_empty() && l.len() < rulellm::MAX_UNIT_CHARS / 2);
    let mut boundaries = 0;
    for line in &lines {
        let expected = fresh.find(line.as_bytes()).is_some_and(|m| m.start == 0);
        let units = rulellm::split_basic_units(&format!("x = 1\n{line}\n"));
        assert_eq!(units.len() == 2, expected, "{line:?} split into {units:?}");
        boundaries += usize::from(expected);
    }
    assert!(boundaries > 20 && boundaries < lines.len(), "{boundaries}");
}

/// A unit audit matches its IOC regexes on machines its thread keeps. On
/// every basic unit of the tiny corpus and of its aggressive mutants (seed
/// 42), audited on one thread in order, in reverse and in order again,
/// `analyze_code` returns what it returns on a freshly spawned thread,
/// whose machines are new. Three planted units pin the caps: only the
/// first eight URLs and the first four IPs are considered, before benign
/// hosts and loopback addresses are dropped.
#[test]
fn a_warm_unit_audit_equals_a_fresh_one() {
    let base = corpus::Dataset::generate(&corpus::CorpusConfig::tiny());
    let mutants = corpus::mutate_dataset(&base, &obfuscate::EvasionProfile::aggressive(), 42);
    let (mut units, mut seen) = (Vec::new(), std::collections::HashSet::new());
    for dataset in [&base, &mutants] {
        let malware = dataset.malware.iter().map(|m| &m.package);
        for pkg in malware.chain(dataset.legit.iter().map(|l| &l.package)) {
            for file in pkg.files().iter().filter(|f| f.path.ends_with(".py")) {
                let split = rulellm::split_basic_units(&file.contents);
                units.extend(
                    split
                        .into_iter()
                        .map(|u| u.code)
                        .filter(|c| seen.insert(c.clone())),
                );
            }
        }
    }
    let urls = |hosts: &[&str]| -> String {
        let line = |(i, host): (usize, &&str)| format!("u{i} = 'https://{host}/p{i}'\n");
        hosts.iter().enumerate().map(line).collect()
    };
    let planted = [
        (urls(&["c2.evil.example"; 12]), 8),
        (
            urls(&[&["github.com"; 2][..], &["c2.evil.example"; 10]].concat()),
            6,
        ),
        (
            "hosts = ['185.62.190.159', '127.0.0.1', '10.0.0.8', '0.0.0.0', '45.9.148.3']\n"
                .to_owned(),
            2,
        ),
    ];
    units.extend(planted.iter().map(|(code, _)| code.clone()));
    // A few fresh threads at a time, each auditing one unit.
    let fresh: Vec<llm_sim::Analysis> = units
        .chunks(8)
        .flat_map(|chunk| {
            std::thread::scope(|scope| {
                let audits: Vec<_> = chunk
                    .iter()
                    .map(|code| scope.spawn(|| llm_sim::analyze_code(code)))
                    .collect();
                let done = audits.into_iter().map(|a| a.join().expect("a fresh audit"));
                done.collect::<Vec<_>>()
            })
        })
        .collect();
    let n = units.len();
    for i in (0..n).chain((0..n).rev()).chain(0..n) {
        let warm = llm_sim::analyze_code(&units[i]);
        assert_eq!(warm, fresh[i], "unit {i}: {:?}", units[i]);
    }
    for ((code, iocs), analysis) in planted.iter().zip(&fresh[n - planted.len()..]) {
        let found = analysis.indicators.iter();
        let found = found
            .filter(|i| i.kind == llm_sim::IndicatorKind::Ioc)
            .count();
        assert_eq!(found, *iocs, "{code:?}: {analysis:?}");
    }
    // Vacuity guard: the corpus units hold IOCs and base64 blobs.
    let corpus = &fresh[..n - planted.len()];
    let kinds = corpus.iter().flat_map(|a| &a.indicators);
    assert!(kinds.clone().any(|i| i.kind == llm_sim::IndicatorKind::Ioc));
    assert!(kinds.clone().any(|i| i.is_regex));
}

#[test]
fn craft_refine_align_chain_produces_deployable_rule() {
    let pkg = sample_malware();
    let groups = rulellm::extract_knowledge(&[&pkg], Some(1));
    let e = &groups.packages[0];
    let ranked = e.ranked_units();
    let unit = e.units[ranked[0]].code.clone();

    let mut llm = LlmSim::new(ModelProfile::gpt4o(), 99);
    let reply = llm.complete(&Prompt::craft(RuleFormat::Yara, &[unit], None));
    let (analysis, rule) = llm_sim::split_reply(&reply);
    assert!(!rule.is_empty());

    let refined_reply = llm.complete(&Prompt::refine(RuleFormat::Yara, &analysis, &rule));
    let (_, refined) = llm_sim::split_reply(&refined_reply);

    let outcome = align_rule(&mut llm, RuleFormat::Yara, &analysis, refined, 5);
    let final_rule = outcome.rule.expect("alignment must converge for GPT-4o");
    let compiled = yara_engine::compile(&final_rule).expect("deployable");
    let scanner = yara_engine::Scanner::new(&compiled);
    assert!(scanner.is_match(pkg.combined_source().as_bytes()));
}

#[test]
fn semgrep_rules_from_pipeline_match_via_ast_not_text() {
    let pkg = sample_malware();
    let mut pipeline = rulellm::Pipeline::new(rulellm::PipelineConfig::full());
    let output = pipeline.run(&[&pkg]);
    let Some(rule) = output.semgrep.first() else {
        panic!("no semgrep rule generated");
    };
    let compiled = semgrep_engine::compile(&rule.text).expect("compiles");
    // Formatting changes must not break structural matching.
    let reformatted = pkg
        .combined_source()
        .replace("os.system(", "os.system( ")
        .replace("requests.get(", "requests.get(  ");
    let findings = semgrep_engine::scan_source(&compiled, &reformatted);
    assert!(!findings.is_empty(), "{}", rule.text);
}

#[test]
fn score_baseline_rules_run_on_the_same_scanner() {
    let family = FAMILIES
        .iter()
        .find(|f| f.stem == "credharv")
        .expect("family");
    let a = generate_malware_package(family, 0, 5).0;
    let b = generate_malware_package(family, 1, 5).0;
    let legit = corpus::generate_legit_package(0, 5);
    let rules = baselines::scored::generate_rules(&[&a, &b], &[&legit], 5);
    assert!(!rules.is_empty());
    let compiled = yara_engine::compile(&rules.join("\n")).expect("compiles");
    let scanner = yara_engine::Scanner::new(&compiled);
    assert!(scanner.is_match(a.combined_source().as_bytes()));
}

#[test]
fn scanner_corpora_interoperate_with_corpus_packages() {
    let compiled =
        yara_engine::compile(&baselines::scanners::yara_corpus()).expect("corpus compiles");
    let scanner = yara_engine::Scanner::new(&compiled);
    // The b64 dropper family is exactly what the OSS subset targets.
    let family = FAMILIES
        .iter()
        .find(|f| f.stem == "execb64")
        .expect("family");
    let pkg = generate_malware_package(family, 0, 6).0;
    let hits = scanner.scan(pkg.combined_source().as_bytes());
    assert!(
        hits.iter().any(|h| h.rule.starts_with("oss_")),
        "OSS rules must catch the dropper: {hits:?}"
    );
}

#[test]
fn weak_model_rules_are_recovered_by_alignment() {
    let pkg = sample_malware();
    let groups = rulellm::extract_knowledge(&[&pkg], Some(1));
    let unit = groups.packages[0].units[groups.packages[0].ranked_units()[0]]
        .code
        .clone();
    // Llama's 40% syntax-error rate: over several seeds, alignment must
    // save at least one rule that failed to compile initially.
    let mut saved = 0;
    for seed in 0..10 {
        let mut llm = LlmSim::new(ModelProfile::llama31(), seed);
        let reply = llm.complete(&Prompt::craft(
            RuleFormat::Yara,
            std::slice::from_ref(&unit),
            None,
        ));
        let (analysis, rule) = llm_sim::split_reply(&reply);
        if yara_engine::compile(&rule).is_ok() {
            continue;
        }
        let outcome = align_rule(&mut llm, RuleFormat::Yara, &analysis, rule, 5);
        if outcome.rule.is_some() {
            saved += 1;
        }
    }
    assert!(saved >= 1, "alignment never recovered a broken rule");
}

#[test]
fn metadata_extraction_paths_agree_for_corpus_packages() {
    let pkg = sample_malware();
    let (meta, _source) = oss_registry::extract_metadata(&pkg);
    assert_eq!(meta.name, pkg.metadata().name);
    assert_eq!(meta.version, pkg.metadata().version);
}

/// The tier-1 entry of scanhub's splice ≡ full suite: a one-line
/// insertion into a corpus file, spliced into the previous version's
/// artifact, equals a full build of the new content on every product.
#[test]
fn one_line_splice_equals_the_full_build() {
    use scanhub::{ArtifactConfig, FileAnalysis, FileEntry};

    let pkg = corpus::generate_legit_package(0, 7);
    let old = pkg
        .files()
        .iter()
        .filter(|f| f.path.ends_with(".py"))
        .max_by_key(|f| f.contents.len())
        .expect("a Python file")
        .contents
        .clone();
    // Insert at a cut point — in front of a column-zero statement that
    // directly follows a real newline, where the splicer may start a
    // window. The one nearest the middle of the file.
    let at = pysrc::cut_points(pysrc::lex(&old).iter())
        .map(|cut| cut.at)
        .min_by_key(|at| at.abs_diff(old.len() / 2))
        .expect("a column-zero statement");
    let new = format!("{}release_marker = 'v2'\n{}", &old[..at], &old[at..]);

    let rules = yara_engine::compile(&baselines::scanners::yara_corpus()).expect("yara corpus");
    let scanner = yara_engine::Scanner::new(&rules);
    let cfg = ArtifactConfig::default();
    let sibling = FileAnalysis::build(
        &FileEntry::new("pkg/mod.py", old.into_bytes()),
        Some(&scanner),
        &cfg,
    );
    let entry = FileEntry::new("pkg/mod.py", new.into_bytes());
    let spliced = FileAnalysis::build_spliced(&entry, &sibling, Some(&scanner), &cfg)
        .expect("a one-line insertion splices")
        .analysis;
    let full = FileAnalysis::build(&entry, Some(&scanner), &cfg);
    assert_eq!(spliced.cut_points, full.cut_points);
    assert_eq!(
        spliced.module.as_ref().map(|m| m.get()),
        full.module.as_ref().map(|m| m.get())
    );
    assert_eq!(spliced.strings, full.strings);
    assert_eq!(spliced.layers, full.layers);
    assert_eq!(spliced.yara_hits, full.yara_hits);
    assert_eq!(spliced.layer_hits, full.layer_hits);
    assert_eq!(spliced.taint, full.taint);
}

/// The tiny corpus with the rulesets the full pipeline generates from it.
fn tiny_corpus_with_generated_rules() -> (
    eval::experiments::ExperimentContext,
    yara_engine::CompiledRules,
    semgrep_engine::CompiledSemgrepRules,
) {
    let ctx = eval::experiments::ExperimentContext::new(&corpus::CorpusConfig::tiny());
    let output = eval::experiments::run_rulellm(&ctx.dataset, rulellm::PipelineConfig::full());
    let (yara, semgrep) = eval::experiments::compile_output(&output);
    (ctx, yara, semgrep)
}

/// The tier-1 entry of semgrep-engine's differential suite: on every
/// Python file of the tiny corpus, the one live matcher reports, rule by
/// rule, what the reparse-per-call oracle reports for the generated
/// ruleset.
#[test]
fn match_set_equals_the_reference_matcher_on_every_corpus_file() {
    use semgrep_engine::{MatchScratch, MatchSet};

    let (ctx, _, rules) = tiny_corpus_with_generated_rules();
    assert!(!rules.rules.is_empty(), "the pipeline generated no rule");
    let set = MatchSet::new(&rules);
    let mut scratch = MatchScratch::new();
    let (mut files, mut findings) = (0, 0);
    for target in &ctx.targets {
        for source in target.request.python_sources() {
            let module = pysrc::parse_module(&source);
            for (ri, rule) in rules.rules.iter().enumerate() {
                let (got, _) = set.match_module_set(&module, |i| i == ri, &mut scratch);
                let want = reference::match_module(rule, &module);
                assert_eq!(got, want, "rule {} on target {}", rule.id, target.index);
                findings += got.len();
            }
            files += 1;
        }
    }
    assert!(
        files > 100 && findings > 0,
        "{files} files, {findings} findings"
    );
}

/// `Scanner::scan` is the hub's own YARA path over one unit, so scanning
/// a package's concatenation must name exactly the rules the hub's
/// verdict names, for every package of the tiny corpus.
#[test]
fn direct_scan_of_the_concatenation_equals_the_hub_verdict() {
    let (ctx, rules, _) = tiny_corpus_with_generated_rules();
    let scanner = yara_engine::Scanner::new(&rules);
    let verdicts = eval::scan::scan_all(Some(&rules), None, &ctx.targets);
    assert!(verdicts.iter().any(|v| !v.yara.is_empty()), "nothing fired");
    for (verdict, target) in verdicts.iter().zip(&ctx.targets) {
        let mut direct: Vec<String> = scanner
            .scan(&target.request.concat_buffer())
            .into_iter()
            .map(|m| m.rule)
            .collect();
        direct.sort();
        direct.dedup();
        assert_eq!(verdict.yara.names(), direct, "target {}", target.index);
    }
}
