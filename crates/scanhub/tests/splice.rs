//! Differential property suite for incremental artifacts (ISSUE 10):
//! diff-and-splice relexing may change *how* an artifact gets built,
//! never *what* it contains. A hub that splices version bumps against
//! cached siblings must return verdicts byte-identical to a cold hub
//! that full-parses every version, the splice counters must account for
//! every build, and spliced artifacts must post the same retro-hunt
//! index grams — a retro-hunt over spliced history must agree with the
//! exhaustive rescan oracle.

use proptest::prelude::*;
use scanhub::{ArtifactConfig, FileAnalysis, FileEntry, HubConfig, ScanHub, ScanRequest};
use yara_engine::Scanner;

const YARA: &str = r#"
rule shell { strings: $a = "os.system" condition: $a }
rule net { strings: $a = "socket.socket" condition: $a }
rule b64ish { strings: $re = /[A-Za-z0-9+\/]{24,}/ condition: $re }
"#;

const SEMGREP: &str = "rules:
  - id: sys-exec
    languages: [python]
    message: shell execution
    pattern: os.system($CMD)
";

fn hub(artifact_capacity: usize) -> ScanHub {
    ScanHub::new(
        Some(yara_engine::compile(YARA).expect("yara")),
        Some(semgrep_engine::compile(SEMGREP).expect("semgrep")),
        HubConfig {
            // One worker: releases are analyzed in version order, so
            // every bump finds its predecessor already cached — the
            // deterministic splice-rate floor the assertions pin. (With
            // racing workers a bump can beat its own sibling into the
            // cache and legitimately full-parse; correctness under that
            // race is covered by the multi-worker property suite.)
            workers: 1,
            cache_capacity: 0, // force full scans so the artifact path runs
            artifact_cache_capacity: artifact_capacity,
            ..HubConfig::default()
        },
    )
}

/// A token-dense Python module of `lines` statements where statement
/// `k` carries `marker` — the realistic shape of a package source that
/// gets one line touched per release.
fn module(file: usize, lines: usize, k: usize, marker: &str) -> String {
    let mut code = String::from("import os\n");
    for i in 0..lines {
        if i == k {
            code.push_str(&format!("slot_{i} = '{marker}'\n"));
        } else {
            code.push_str(&format!("slot_{i} = {i} * {file} + len('padding')\n"));
        }
    }
    code
}

/// `versions` releases of a package of `files` modules: release `v`
/// rewrites one line of one module (round-robin) and the change sticks
/// — the version-bump workload the splice path exists for. Successive
/// releases differ in exactly one line of one file.
fn release_stream(files: usize, lines: usize, versions: usize) -> Vec<ScanRequest> {
    let mut markers: Vec<String> = (0..files).map(|f| format!("base {f}")).collect();
    (0..versions)
        .map(|v| {
            if v > 0 {
                markers[(v - 1) % files] = format!("release {v} payload os.system(x)");
            }
            let entries = (0..files)
                .map(|f| {
                    FileEntry::new(
                        format!("pkg/mod_{f}.py"),
                        module(f, lines, (f * 7 + lines / 2) % lines, &markers[f]).into_bytes(),
                    )
                })
                .collect::<Vec<_>>();
            ScanRequest::from_files(entries)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Verdicts over a version stream are identical whether artifacts
    /// are spliced from siblings or always built from scratch, and the
    /// counters account for every build: parses + relexes == unique
    /// digests, with relexed bytes a strict fraction of content.
    #[test]
    fn spliced_version_stream_matches_cold_scans(
        files in 1usize..4,
        lines in 20usize..60,
        versions in 2usize..6,
    ) {
        let requests = release_stream(files, lines, versions);
        let warm = hub(4096);
        let cold = hub(0); // artifact cache off: every entry full-parses
        let warm_verdicts = warm.scan_ordered(requests.iter().cloned());
        let cold_verdicts = cold.scan_ordered(requests.iter().cloned());
        for (w, c) in warm_verdicts.iter().zip(&cold_verdicts) {
            prop_assert!(w.same_matches(c), "splice changed a verdict:\n{w:?}\nvs\n{c:?}");
        }
        let stats = warm.stats();
        // Each release after the first introduces exactly one new
        // digest: the edited module, a one-line diff from its cached
        // sibling. Every other entry is a digest cache hit.
        let mut unique = std::collections::HashSet::new();
        for req in &requests {
            for f in req.files() {
                unique.insert(f.digest());
            }
        }
        prop_assert_eq!(
            stats.artifact_parses + stats.incremental_relexes,
            unique.len() as u64,
            "every unique digest is built exactly once, spliced or not"
        );
        prop_assert!(
            stats.incremental_relexes >= (versions - 1) as u64,
            "version bumps must splice: {} relexes over {} releases",
            stats.incremental_relexes,
            versions
        );
        prop_assert!(stats.relexed_bytes > 0);
        // A one-line edit in an N-line module relexes a small window.
        let content: u64 = requests
            .iter()
            .flat_map(|r| r.files().iter())
            .map(|f| f.bytes().len() as u64)
            .sum();
        prop_assert!(
            stats.relexed_bytes * 4 < content,
            "windows ({} bytes) are not small against content ({content} bytes)",
            stats.relexed_bytes
        );
    }

    /// Spliced artifacts feed the retro-hunt index the same grams a
    /// full build would: hunting new rules over spliced history agrees
    /// with the exhaustive rescan oracle and finds IOCs that entered
    /// history *through a splice*.
    #[test]
    fn retro_hunt_over_spliced_history_matches_the_rescan_oracle(
        files in 1usize..3,
        lines in 20usize..40,
        versions in 3usize..6,
    ) {
        let hub = hub(4096);
        let requests = release_stream(files, lines, versions);
        let _ = hub.scan_ordered(requests);
        let stats = hub.stats();
        prop_assert!(stats.incremental_relexes >= (versions - 1) as u64, "history must contain spliced artifacts");
        // `hunted` matches the payload text spliced into each release;
        // `absent` must nominate nothing.
        let next = r#"
rule hunted { strings: $a = "payload os.system" condition: $a }
rule absent { strings: $a = "no_such_marker_anywhere" condition: $a }
"#;
        let deployment = hub.deploy_rules(Some(yara_engine::compile(next).expect("next")), None);
        let report = hub.retro_hunt(&deployment).expect("retro index enabled");
        let oracle = hub.retro_rescan(&deployment).expect("oracle");
        prop_assert!(
            report.same_hits(&oracle),
            "hunt over spliced artifacts diverged from rescan:\n{:?}\nvs\n{:?}",
            report.rules,
            oracle.rules
        );
        let hunted = report.rules.iter().find(|r| r.rule == "hunted").expect("hunted");
        // The newest release's payload line is cache-resident and was
        // built by splice; the index must still surface it.
        prop_assert!(!hunted.digests.is_empty(), "IOC spliced into history was lost");
        let absent = report.rules.iter().find(|r| r.rule == "absent").expect("absent");
        prop_assert!(absent.digests.is_empty());
        prop_assert!(absent.candidates < report.digests_indexed, "index failed to prune");
    }
}

/// Sibling eviction is safe: when the cache is too small to keep the
/// previous version resident, bumps full-parse (no stale splice donor)
/// and verdicts stay correct.
#[test]
fn evicted_siblings_degrade_to_full_builds() {
    let tiny = hub(1);
    let requests = release_stream(3, 24, 3); // 3 files/release, capacity 1
    let verdicts = tiny.scan_ordered(requests.iter().cloned());
    let cold = hub(0);
    let oracle = cold.scan_ordered(requests.iter().cloned());
    for (v, o) in verdicts.iter().zip(&oracle) {
        assert!(
            v.same_matches(o),
            "eviction-pressured hub changed a verdict"
        );
    }
    let stats = tiny.stats();
    assert_eq!(
        stats.incremental_relexes, 0,
        "no sibling survives a capacity-1 cache shared by 3 files"
    );
}

/// Strings whose hits a splice carries in each way: a text string with
/// a newline in it, a `fullword` and a `wide` one (carried when the edit
/// is out of their reach), a line-local regex (carried on the lines the
/// edit leaves alone), and a `\s` and an anchored regex, which read the
/// whole file on every build.
const CARRY_YARA: &str = r#"
rule pkg_info { strings: $nl = "Summary: \nHome-page:" condition: $nl }
rule word { strings: $w = "spawn" fullword $c = "cmd" wide ascii condition: any of them }
rule blob { strings: $b = /([A-Za-z0-9+\/]{4}){4,}={0,2}/ condition: $b }
rule gap { strings: $s = /os\s+system/ condition: $s }
rule head { strings: $h = /^import/ condition: $h }
"#;

/// A module holding a match of every string of [`CARRY_YARA`].
const CARRY_BASE: &str = "import os\nMETA = \"\"\"Summary: \nHome-page: https://example.org\"\"\"\nA = 'spawn'\nB = 'respawn'\n\ndef run(cmd):\n    return call('os  system', cmd)\n\nBLOB = 'QUJDREVGR0hJSktMTU5PUA=='\nC = A + B\nprint(C)\nD = 'cmd /c'\nE = len(D)\nprint(E)\nF = 'padding'\nG = F * 2\n";

/// Statements an edit inserts at a cut point or puts in place of the
/// statement there.
const CARRY_EDITS: [&str; 9] = [
    "x = 'spawn'\n",
    "y = 'spawned cmd'\n",
    "z = 'QUJDREVGR0hJ'\n",
    "w = 'os\\tsystem'\n",
    "import sys\n",
    "M = \"\"\"Summary: \nHome-page: x\"\"\"\n",
    "v = 1\n",
    "",
    "def g():\n    return 'os system'\n",
];

/// A spliced artifact is a full build's on every product.
fn assert_identical(spliced: &FileAnalysis, full: &FileAnalysis) {
    assert_eq!(spliced.digest, full.digest);
    assert_eq!(spliced.bytes, full.bytes);
    assert_eq!(spliced.cut_points, full.cut_points, "cut points diverge");
    assert_eq!(
        spliced.module.as_ref().map(|m| m.get()),
        full.module.as_ref().map(|m| m.get()),
        "modules diverge"
    );
    assert_eq!(spliced.strings, full.strings, "string tables diverge");
    assert_eq!(spliced.layers, full.layers, "decoded layers diverge");
    assert_eq!(spliced.yara_hits, full.yara_hits, "surface hits diverge");
    assert_eq!(spliced.layer_hits, full.layer_hits, "layer hits diverge");
    assert_eq!(spliced.taint, full.taint, "taint summaries diverge");
}

/// The offsets at which `code`'s token stream may be cut.
fn cuts(code: &str) -> Vec<usize> {
    pysrc::cut_points(pysrc::lex(code).iter())
        .map(|c| c.at)
        .collect()
}

/// Random edits at cut points — an insertion, or a statement replaced —
/// each spliced onto the artifact the previous one produced: every
/// splice carries hits and must equal a full build.
#[test]
fn carried_hits_equal_a_full_build_over_random_cut_point_edits() {
    let rules = yara_engine::compile(CARRY_YARA).expect("yara");
    let scanner = Scanner::new(&rules);
    let cfg = ArtifactConfig::default();
    let build = |code: &str| {
        let entry = FileEntry::new("pkg/mod.py", code.as_bytes().to_vec());
        FileAnalysis::build(&entry, Some(&scanner), &cfg)
    };
    let full = build(CARRY_BASE);
    assert_eq!(
        scanner.scan(CARRY_BASE.as_bytes()).len(),
        5,
        "every rule matches"
    );
    let hits = full.yara_hits.as_ref().expect("hits");
    assert_eq!(hits.hit_count(), 8, "one hit per string, three of `cmd`");
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = move |n: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 32) as usize % n
    };
    let (mut code, mut donor, mut engaged) = (CARRY_BASE.to_owned(), full, 0);
    for round in 0..400 {
        let at = cuts(&code);
        let i = next(at.len() + 1);
        let start = if i == 0 { 0 } else { at[i - 1] };
        let end = if next(2) == 0 {
            start
        } else {
            at.get(i).copied().unwrap_or(code.len())
        };
        let edit = CARRY_EDITS[next(CARRY_EDITS.len())];
        let edited = format!("{}{edit}{}", &code[..start], &code[end..]);
        if edited == code {
            continue;
        }
        let entry = FileEntry::new("pkg/mod.py", edited.as_bytes().to_vec());
        let full = FileAnalysis::build(&entry, Some(&scanner), &cfg);
        let next_donor = match FileAnalysis::build_spliced(&entry, &donor, Some(&scanner), &cfg) {
            Some(spliced) => {
                assert_identical(&spliced.analysis, &full);
                engaged += 1;
                spliced.analysis
            }
            None => full,
        };
        (code, donor) = if round % 25 == 24 {
            (CARRY_BASE.to_owned(), build(CARRY_BASE))
        } else {
            (edited, next_donor)
        };
    }
    assert!(engaged >= 200, "only {engaged} of 400 edits spliced");
}

/// The regex work of a one-line splice, exactly: the edited line for the
/// line-local group, the file for the two others, and every decoded
/// layer for all three.
#[test]
fn a_one_line_splice_rescans_its_window_for_line_local_groups_only() {
    let rules = yara_engine::compile(CARRY_YARA).expect("yara");
    let scanner = Scanner::new(&rules);
    let cfg = ArtifactConfig::default();
    let old = FileEntry::new("pkg/mod.py", CARRY_BASE.as_bytes().to_vec());
    let donor = FileAnalysis::build(&old, Some(&scanner), &cfg);
    let new = CARRY_BASE.replace("E = len(D)", "E = len(D) + 1");
    let entry = FileEntry::new("pkg/mod.py", new.as_bytes().to_vec());
    scanner.take_work();
    let spliced = FileAnalysis::build_spliced(&entry, &donor, Some(&scanner), &cfg)
        .expect("a one-line edit splices");
    let work = scanner.take_work();
    let window = spliced.relexed_bytes;
    assert_eq!(
        window,
        "E = len(D) + 1\n".len() as u64,
        "one statement relexed"
    );
    let layers: u64 = spliced
        .analysis
        .layers
        .iter()
        .map(|l| l.data.len() as u64)
        .sum();
    assert!(layers > 0, "`BLOB` decodes");
    let (local, other) = (1, 2);
    assert_eq!(
        work.regex_bytes_scanned,
        window * local + new.len() as u64 * other + layers * (local + other)
    );
    let units = 1 + spliced.analysis.layers.len() as u64;
    assert_eq!(work.regex_strings_evaluated, units * (local + other));
    // The full build reads the file for every group.
    FileAnalysis::build(&entry, Some(&scanner), &cfg);
    let work = scanner.take_work();
    let full = new.len() as u64 * (local + other) + layers * (local + other);
    assert_eq!(work.regex_bytes_scanned, full);
}
