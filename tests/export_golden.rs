//! The hub's two exports, pinned to the byte.
//!
//! `ScanHub::export_prometheus()` and `export_json()` render one series
//! list built from the metric tables in `crates/scanhub/src/metrics.rs`.
//! A refactor of those tables or of the scan path must leave both
//! renderings alone, so this test drives a fixed stream — cold uploads, a
//! splice, a verdict-cache hit, a rule deployment and its retro-hunt —
//! through a one-worker hub with telemetry off (every histogram stays
//! empty, so no wall-clock value reaches the text) and compares the
//! exports with `tests/golden/hub_exports.txt`.
//!
//! The `textmatch` tier counters in both exports are process-global, so
//! this file holds exactly one test and owns its process.
//!
//! To re-record after a deliberate change to the exports:
//!
//! ```text
//! RECORD_GOLDEN=1 cargo test --test export_golden
//! ```

use scanhub::{HubConfig, ScanHub, ScanRequest};

const GOLDEN: &str = "tests/golden/hub_exports.txt";

const YARA: &str = r#"
rule sys { strings: $a = "os.system" condition: $a }
rule net { strings: $a = "socket.socket" condition: $a }
rule b64 { strings: $re = /[A-Za-z0-9+\/]{16,}/ condition: $re }
"#;

const SEMGREP: &str = "rules:\n  - id: sys-call\n    languages: [python]\n    message: m\n    pattern: os.system($X)\n";

fn body(marker: &str) -> String {
    let blob = digest::base64::encode(b"import os;os.system('id')");
    let mut code = format!("import os\ncmd = os.getenv('CMD')\nos.system(cmd)\nblob = '{blob}'\n");
    for i in 0..16 {
        code.push_str(&format!("pad_{i} = {i} * {i} + len('padding')\n"));
    }
    code + &format!("marker = '{marker}'\n")
}

fn exports() -> String {
    let hub = ScanHub::new(
        Some(yara_engine::compile(YARA).expect("yara")),
        Some(semgrep_engine::compile(SEMGREP).expect("semgrep")),
        HubConfig {
            workers: 1,
            telemetry: false,
            ..HubConfig::default()
        },
    );
    let uploads = [
        ("pkg/mod.py", body("v1")),
        ("pkg/mod.py", body("v2")),
        (
            "pkg/util.py",
            "def add(a, b):\n    return a + b\n".to_owned(),
        ),
        ("pkg/net.py", "import socket\nsocket.socket()\n".to_owned()),
        ("pkg/mod.py", body("v2")),
    ];
    for (name, code) in uploads {
        let _ = hub.submit(ScanRequest::from_source(name, code)).wait();
    }
    let next = format!("{YARA}\nrule env {{ strings: $a = \"getenv\" condition: $a }}");
    let deployment = hub.deploy_rules(
        Some(yara_engine::compile(&next).expect("yara")),
        Some(semgrep_engine::compile(SEMGREP).expect("semgrep")),
    );
    let report = hub.retro_hunt(&deployment).expect("retro index enabled");
    assert_eq!(report.confirm_scans, 2, "the hunt ran over the stream");
    format!("{}\n{}\n", hub.export_prometheus(), hub.export_json())
}

#[test]
fn exports_match_the_golden_file() {
    let rendered = exports();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    if std::env::var_os("RECORD_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir");
        std::fs::write(&path, &rendered).expect("record the golden file");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("golden file present");
    if rendered != golden {
        let line = rendered
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .map_or(rendered.lines().count().min(golden.lines().count()), |i| i);
        panic!(
            "the exports moved at line {}:\n  now:    {:?}\n  golden: {:?}",
            line + 1,
            rendered.lines().nth(line),
            golden.lines().nth(line)
        );
    }
}
