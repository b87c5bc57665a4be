//! A request whose every file is an artifact hit runs no matcher over
//! file bytes.
//!
//! A file's artifact caches its YARA string hits and its parsed module.
//! Routing reads only those hits, and every Semgrep rule is routed (the
//! walk's anchor index is the Semgrep filter), so a package submitted
//! again to a hub with its verdict cache off is served from the cache
//! alone: the same verdict, one artifact hit, and no `textmatch` counter
//! moves.
//!
//! The counters are process-global, so this file holds exactly one test:
//! an integration-test file is its own process.

use scanhub::{HubConfig, ScanHub, ScanRequest};
use textmatch::engine_counters;

const YARA: &str = r#"
rule sys { strings: $a = "os.system" condition: $a }
rule net { strings: $a = "socket.socket" condition: $a }
"#;

const SEMGREP: &str = "rules:\n  - id: sys-call\n    languages: [python]\n    message: m\n    pattern: os.system($X)\n";

#[test]
fn a_request_served_from_cached_artifacts_reads_no_byte() {
    let hub = ScanHub::new(
        Some(yara_engine::compile(YARA).expect("yara")),
        Some(semgrep_engine::compile(SEMGREP).expect("semgrep")),
        HubConfig {
            workers: 1,
            cache_capacity: 0,
            ..HubConfig::default()
        },
    );
    let code = "import os\ncmd = os.getenv('CMD')\nos.system(cmd)\n";
    let submit = || {
        hub.submit(ScanRequest::from_source("pkg/setup.py", code))
            .wait()
    };

    let before = engine_counters();
    let first = submit();
    let cold = engine_counters();
    assert!(
        cold.teddy_scans > before.teddy_scans,
        "the cold build scans the file's bytes"
    );
    assert!(!first.yara.is_empty() && !first.semgrep.is_empty());

    let second = submit();
    assert_eq!(second, first);
    assert_eq!(hub.stats().artifact_cache_hits, 1);
    assert_eq!(
        engine_counters(),
        cold,
        "a request over cached artifacts ran a matcher"
    );
}
