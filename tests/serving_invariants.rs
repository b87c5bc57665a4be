//! The serving path's cost invariants as exact `HubStats` counts on one
//! small version-bump stream through `HubConfig::default()`: bumps
//! splice, nothing is built twice, taint and pattern compilation stay off
//! the warm path, and a retro-hunt prunes without losing a hit. Counts
//! repeat to the bit, so nothing here reads a clock; how fast the same
//! paths run is `benchmark/`'s question.
//!
//! Nothing in this file may call `semgrep_engine::reference`: its re-parse
//! counter is a process static, and the first test asserts it does not
//! move.

use std::collections::HashSet;

use scanhub::{FileEntry, HubConfig, ScanHub, ScanRequest};

const FILES: usize = 6;
const LINES: usize = 40;
const VERSIONS: usize = 4;

const YARA: &str = r#"
rule shell { strings: $a = "os.system" condition: $a }
rule net { strings: $a = "socket.socket" condition: $a }
"#;

const SEMGREP: &str = "rules:
  - id: sys-exec
    languages: [python]
    message: shell execution
    pattern: os.system($CMD)
";

fn hub() -> ScanHub {
    ScanHub::new(
        Some(yara_engine::compile(YARA).expect("yara")),
        Some(semgrep_engine::compile(SEMGREP).expect("semgrep")),
        HubConfig::default(),
    )
}

/// `VERSIONS` releases of a `FILES`-module package: release `v > 0`
/// rewrites one line of module `v - 1` and the change sticks, so
/// successive releases differ in exactly one line of one file.
fn release_stream() -> Vec<ScanRequest> {
    let mut markers: Vec<String> = (0..FILES).map(|f| format!("base {f}")).collect();
    (0..VERSIONS)
        .map(|v| {
            if v > 0 {
                markers[v - 1] = format!("release {v} payload");
            }
            let entries = (0..FILES)
                .map(|f| {
                    let mut code = String::from("import os\n");
                    for i in 0..LINES {
                        if i == LINES / 2 {
                            code.push_str(&format!("os.system('{}')\n", markers[f]));
                        } else {
                            code.push_str(&format!("slot_{i} = {i} * {f} + len('padding')\n"));
                        }
                    }
                    FileEntry::new(format!("pkg/mod_{f}.py"), code.into_bytes())
                })
                .collect();
            ScanRequest::from_files(entries)
        })
        .collect()
}

/// Releases go in one at a time, as a registry receives them: each bump
/// finds its predecessor cached whatever the worker count.
fn ingest(hub: &ScanHub, requests: &[ScanRequest]) {
    for request in requests {
        assert!(hub.submit(request.clone()).wait().flagged());
    }
}

#[test]
fn bumps_splice_and_nothing_is_built_twice() {
    let reparses_before = semgrep_engine::reference::pattern_reparse_count();
    let hub = hub();
    let requests = release_stream();
    ingest(&hub, &requests);

    let unique: HashSet<[u8; 32]> = requests
        .iter()
        .flat_map(|r| r.files())
        .map(FileEntry::digest)
        .collect();
    assert_eq!(unique.len(), FILES + VERSIONS - 1);
    let cold = hub.stats();
    assert_eq!(cold.incremental_relexes, (VERSIONS - 1) as u64);
    assert_eq!(cold.splice_fallbacks, 0);
    assert_eq!(
        cold.artifact_parses + cold.incremental_relexes,
        unique.len() as u64
    );
    // A one-line edit re-lexes a sliver, and each spliced request left
    // one sample in the nested `splice` stage.
    let content: usize = requests
        .iter()
        .flat_map(|r| r.files())
        .map(|f| f.bytes().len())
        .sum();
    assert!(
        cold.relexed_bytes > 0 && cold.relexed_bytes * 20 < content as u64,
        "windows ({} bytes) too large for {content} content bytes",
        cold.relexed_bytes
    );
    assert_eq!(cold.latency.splice.count, (VERSIONS - 1) as u64);
    // Every file is Python: taint ran once per unique digest.
    assert_eq!(cold.taint_analyses, unique.len() as u64);

    // Byte-identical re-uploads build nothing, and neither does the last
    // release re-uploaded beside one new non-Python file (a different
    // request digest, so this one goes past the verdict cache).
    ingest(&hub, &requests);
    let mut restamped = requests[VERSIONS - 1].files().to_vec();
    restamped.push(FileEntry::new("VERSION", b"4.0.1".to_vec()));
    ingest(&hub, &[ScanRequest::from_files(restamped)]);
    let warm = hub.stats();
    assert_eq!(warm.cache_hits, VERSIONS as u64);
    assert_eq!(warm.artifact_parses, cold.artifact_parses + 1);
    assert_eq!(warm.incremental_relexes, cold.incremental_relexes);
    assert_eq!(warm.splice_fallbacks, 0);
    assert_eq!(warm.taint_analyses, cold.taint_analyses);

    // Patterns were compiled at deploy; no scan parsed one again.
    assert_eq!(warm.semgrep_pattern_reparses, 0);
    assert_eq!(
        semgrep_engine::reference::pattern_reparse_count(),
        reparses_before
    );
}

#[test]
fn retro_hunt_equals_the_rescan_and_prunes() {
    let hub = hub();
    ingest(&hub, &release_stream());
    let next = format!("{YARA}\nrule hunted {{ strings: $a = \"payload\" condition: $a }}\n");
    let deployment = hub.deploy_rules(
        Some(yara_engine::compile(&next).expect("next")),
        Some(semgrep_engine::compile(SEMGREP).expect("semgrep")),
    );
    let report = hub.retro_hunt(&deployment).expect("retro index enabled");
    let oracle = hub.retro_rescan(&deployment).expect("oracle");
    assert!(report.same_hits(&oracle), "hunt diverged from rescan");
    // Only the spliced-in lines carry the new rule's atom.
    assert_eq!(report.rules.len(), 1);
    assert_eq!(report.rules[0].digests.len(), VERSIONS - 1);
    assert_eq!(report.digests_indexed, (FILES + VERSIONS - 1) as u64);
    assert!(
        report.confirm_scans < report.digests_indexed,
        "the index must prune: {} scans over {} digests",
        report.confirm_scans,
        report.digests_indexed
    );
    assert_eq!(hub.stats().semgrep_pattern_reparses, 0);
}
