//! Flight-recorder and stage-timing properties over the public hub API:
//! every completed scan is explainable from its trace, stage sums never
//! exceed wall time, and the ring stays bounded under concurrent load.

use std::collections::HashSet;

use proptest::prelude::*;
use scanhub::{FiredEngine, HubConfig, ScanHub, ScanRequest};

const YARA: &str = r#"
rule sys { strings: $a = "os.system" condition: $a }
rule net { strings: $a = "socket.socket" condition: $a }
"#;

const SEMGREP: &str = "rules:\n  - id: sys-call\n    languages: [python]\n    message: m\n    pattern: os.system($X)\n";

fn hub(config: HubConfig) -> ScanHub {
    ScanHub::new(
        Some(yara_engine::compile(YARA).expect("yara")),
        Some(semgrep_engine::compile(SEMGREP).expect("semgrep")),
        config,
    )
}

/// A deterministic source body for request `i`; every fourth one
/// carries a base64-wrapped payload so layer scanning runs too.
fn body(i: usize) -> String {
    match i % 4 {
        0 => format!("import os\nos.system('cmd{i}')\n"),
        1 => format!(
            "blob = '{}'\n",
            digest::base64::encode(format!("os.system('p{i}')").as_bytes())
        ),
        2 => format!("import socket\nsocket.socket()\nx = {i}\n"),
        _ => format!("def f{i}():\n    return {i}\n"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// With ring capacity >= submissions, **every** completed scan
    /// appears in the flight recorder, each trace's stage sum is
    /// bounded by its wall time, and flagged/fired agree with the
    /// verdict that came back.
    #[test]
    fn every_scan_is_traced_and_stage_sums_fit_the_wall(
        count in 1usize..24,
        workers in 1usize..5,
        cache_on in any::<bool>(),
    ) {
        let hub = hub(HubConfig {
            workers,
            cache_capacity: if cache_on { 128 } else { 0 },
            trace_capacity: 64,
            ..HubConfig::default()
        });
        let requests: Vec<ScanRequest> = (0..count)
            .map(|i| ScanRequest::from_source("upload.py", body(i)))
            .collect();
        let digests: Vec<String> = requests.iter().map(|r| r.digest_hex()).collect();
        let verdicts = hub.scan_ordered(requests);
        let traces = hub.traces();
        prop_assert_eq!(traces.len(), count, "one trace per completed scan");
        prop_assert_eq!(hub.traces_recorded(), count as u64);
        // Sequence numbers are unique; each trace obeys the timing and
        // provenance invariants.
        let seqs: HashSet<u64> = traces.iter().map(|t| t.seq).collect();
        prop_assert_eq!(seqs.len(), count);
        for t in &traces {
            prop_assert!(
                t.stages.total() <= t.wall_ns,
                "stage sum {} exceeds wall {} in trace #{}",
                t.stages.total(),
                t.wall_ns,
                t.seq
            );
            prop_assert_eq!(t.flagged, !t.fired.is_empty());
            prop_assert_eq!(t.digest.is_some(), cache_on);
            prop_assert!(t.bytes > 0);
        }
        // With the verdict cache on, every verdict is explainable by
        // digest: the fired rules in the trace match the verdict.
        if cache_on {
            for (digest, verdict) in digests.iter().zip(&verdicts) {
                let trace = hub.trace_for_digest(digest).expect("trace by digest");
                let yara: Vec<&str> = trace
                    .fired
                    .iter()
                    .filter(|f| f.engine == FiredEngine::Yara)
                    .map(|f| f.rule.as_str())
                    .collect();
                prop_assert_eq!(&yara, &verdict.yara.iter().map(String::as_str).collect::<Vec<_>>());
                let semgrep: Vec<&str> = trace
                    .fired
                    .iter()
                    .filter(|f| f.engine == FiredEngine::Semgrep)
                    .map(|f| f.rule.as_str())
                    .collect();
                prop_assert_eq!(
                    &semgrep,
                    &verdict.semgrep.iter().map(String::as_str).collect::<Vec<_>>()
                );
                let layer_count = trace
                    .fired
                    .iter()
                    .filter(|f| f.engine == FiredEngine::YaraLayer)
                    .count();
                prop_assert_eq!(layer_count, verdict.layers.len());
            }
        }
        // The stage histograms saw every scan.
        let stats = hub.stats();
        prop_assert_eq!(stats.latency.scan.count, count as u64);
        prop_assert!(stats.latency.artifact.count >= 1);
        prop_assert!(stats.latency.scan.p50_ns > 0);
        prop_assert!(stats.latency.scan.max_ns >= stats.latency.scan.p50_ns);
    }
}

/// The ring never exceeds its capacity under concurrent submitters, and
/// the survivors are exactly the newest traces.
#[test]
fn recorder_stays_bounded_under_concurrent_submitters() {
    const CAPACITY: usize = 8;
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 20;
    let hub = hub(HubConfig {
        workers: 4,
        cache_capacity: 0,
        trace_capacity: CAPACITY,
        ..HubConfig::default()
    });
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let hub = &hub;
            scope.spawn(move || {
                for i in 0..PER_CLIENT {
                    let _ = hub
                        .submit(ScanRequest::from_source(
                            "upload.py",
                            body(client * PER_CLIENT + i),
                        ))
                        .wait();
                    assert!(hub.traces().len() <= CAPACITY, "ring exceeded capacity");
                }
            });
        }
    });
    assert_eq!(hub.traces_recorded(), (CLIENTS * PER_CLIENT) as u64);
    let traces = hub.traces();
    assert_eq!(traces.len(), CAPACITY);
    // Oldest-first snapshot of the newest completions: seq strictly
    // increases across the ring.
    for pair in traces.windows(2) {
        assert!(pair[0].seq < pair[1].seq);
    }
    // The worst trace is the slowest survivor.
    let worst = hub.worst_trace().expect("worst trace");
    assert_eq!(
        worst.wall_ns,
        traces.iter().map(|t| t.wall_ns).max().expect("max wall")
    );
}

/// Each stage's histogram gains exactly one sample per run of its phase
/// (a hunt's confirm stage one per digest scanned), so a fixed stream
/// pins every stage's count: a lap booked into the wrong stage, or a
/// skipped phase that records a sample, moves one.
#[test]
fn every_stage_counts_exactly_the_phases_that_ran() {
    let hub = hub(HubConfig {
        workers: 1,
        ..HubConfig::default()
    });
    let body = |marker: &str| {
        let blob = digest::base64::encode(b"import os;os.system('id')");
        let mut code =
            format!("import os\ncmd = os.getenv('CMD')\nos.system(cmd)\nblob = '{blob}'\n");
        for i in 0..16 {
            code.push_str(&format!("pad_{i} = {i} * {i} + len('padding')\n"));
        }
        code + &format!("marker = '{marker}'\n")
    };
    let submit = |name: &str, code: &str| {
        hub.submit(ScanRequest::from_source(name, code.to_owned()))
            .wait()
    };
    // Cold: YARA, a decoded layer, Semgrep and a taint flow all fire.
    let cold = submit("pkg/mod.py", &body("v1"));
    assert!(!cold.yara.is_empty() && !cold.layers.is_empty());
    assert!(!cold.semgrep.is_empty() && !cold.flows.is_empty());
    // A one-line bump of the same file: a splice.
    let _ = submit("pkg/mod.py", &body("v2"));
    // No YARA atom anywhere: the YARA and layer phases do not run. The
    // Semgrep walk does (every Semgrep rule is routed) and finds nothing.
    let clean = submit("pkg/util.py", "def add(a, b):\n    return a + b\n");
    assert!(!clean.flagged());
    // An identical re-upload: a verdict-cache hit.
    assert!(submit("pkg/mod.py", &body("v2")).from_cache);
    let next = format!("{YARA}\nrule env {{ strings: $a = \"getenv\" condition: $a }}");
    let deployment = hub.deploy_rules(
        Some(yara_engine::compile(&next).expect("yara")),
        Some(semgrep_engine::compile(SEMGREP).expect("semgrep")),
    );
    let report = hub.retro_hunt(&deployment).expect("retro index enabled");
    assert_eq!(report.confirm_scans, 2);

    let stats = hub.stats();
    assert_eq!(stats.incremental_relexes, 1, "the bump spliced");
    let counts: Vec<(&str, u64)> = stats
        .latency
        .named()
        .iter()
        .map(|(name, stat)| (*name, stat.count))
        .collect();
    assert_eq!(
        counts,
        [
            ("queue", 3),
            ("cache", 4),
            ("artifact", 3),
            ("splice", 1),
            ("prefilter", 3),
            ("yara", 2),
            ("layers", 2),
            ("semgrep", 3),
            ("dataflow", 3),
            ("verdict", 3),
            ("retro_sync", 1),
            ("retro_query", 1),
            ("retro_confirm", 2),
            ("scan", 4),
        ]
    );
}

/// Zero trace capacity keeps histograms but records no traces.
#[test]
fn zero_trace_capacity_disables_the_ring_but_not_histograms() {
    let hub = hub(HubConfig {
        trace_capacity: 0,
        ..HubConfig::default()
    });
    for i in 0..4 {
        let _ = hub
            .submit(ScanRequest::from_source("upload.py", body(i)))
            .wait();
    }
    assert!(hub.traces().is_empty());
    assert_eq!(hub.traces_recorded(), 0);
    assert!(hub.worst_trace().is_none());
    let stats = hub.stats();
    assert_eq!(stats.latency.scan.count, 4);
    assert!(stats.latency.scan.p99_ns > 0);
}
