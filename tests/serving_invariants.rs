//! The serving path's cost invariants as exact `HubStats` counts on one
//! small version-bump stream through `HubConfig::default()`: bumps
//! splice, nothing is built twice, taint stays off the warm path, a
//! retro-hunt prunes without losing a hit — and finds
//! the same at any worker count, indexing exactly the residents it finds
//! while no upload touches its index, without reordering the serving
//! cache —
//! resident artifacts hold nothing per
//! token, a poisoned store lock costs no later verdict, and every counter
//! reaches both exporters. Counts repeat to the
//! bit, so nothing here reads a clock; how fast the same paths run is
//! `benchmark/`'s question.

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
/// successive releases differ in exactly one line of one file. The line
/// is a shell call whose argument the release changes.
fn release_stream() -> Vec<ScanRequest> {
    stream(|marker| format!("os.system('{marker}')\n"))
}

/// [`release_stream`] with a version constant in place of the shell
/// call's argument: each release restamps it, and a tainted shell call
/// follows it.
fn restamp_stream() -> Vec<ScanRequest> {
    stream(|marker| format!("VERSION = '{marker}'\nos.system(input())\n"))
}

/// `VERSIONS` releases whose modules hold `edited(marker)` halfway down,
/// each release changing one module's marker.
fn stream(edited: fn(&str) -> String) -> Vec<ScanRequest> {
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
                            code.push_str(&edited(&markers[f]));
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
    // Every file is Python: taint ran once per unique digest, since
    // every bump edits a call the engine reads.
    assert_eq!(cold.taint_analyses, unique.len() as u64);
    assert_eq!(cold.taint_carried, 0);

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
}

/// A release that only restamps a version constant nothing else reads
/// pays no taint pass: each splice carries its sibling's summary, flows
/// and all, and only the full builds run the engine.
#[test]
fn restamped_versions_carry_their_taint_summaries() {
    let hub = hub();
    let requests = restamp_stream();
    ingest(&hub, &requests);
    let stats = hub.stats();
    assert_eq!(stats.incremental_relexes, (VERSIONS - 1) as u64);
    assert_eq!(stats.splice_fallbacks, 0);
    assert_eq!(stats.taint_carried, stats.incremental_relexes);
    assert_eq!(stats.taint_analyses, stats.artifact_parses);
    assert_eq!(stats.taint_analyses, FILES as u64);
    // One flow per unique digest, carried ones included.
    assert_eq!(stats.flows_found, (FILES + VERSIONS - 1) as u64);
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
}

/// Requests never touch the retro index; each hunt syncs it to the
/// residents. A hub with room for four artifacts takes two releases and
/// never hunts: its index is empty. A hunt then indexes exactly the
/// residents, none of which carries the hunted atom. Two more releases
/// evict some of them and leave the gauges alone; a second hunt indexes
/// exactly the new residents, among them the one carrier. Hunt ≡ rescan
/// both times.
#[test]
fn a_hunt_indexes_exactly_the_residents_and_no_upload_does() {
    let hub = ScanHub::new(
        Some(yara_engine::compile(YARA).expect("yara")),
        Some(semgrep_engine::compile(SEMGREP).expect("semgrep")),
        HubConfig {
            artifact_cache_capacity: 4,
            ..HubConfig::default()
        },
    );
    let requests = release_stream();
    let gauges = |hub: &ScanHub| {
        let stats = hub.stats();
        (stats.retro_index_atoms, stats.retro_index_digests)
    };
    ingest(&hub, &requests[..2]);
    assert!(hub.stats().artifact_parses > 4, "the uploads evicted");
    assert_eq!(gauges(&hub), (0, 0), "an upload touched the index");
    let next = format!("{YARA}\nrule hunted {{ strings: $a = \"payload\" condition: $a }}\n");
    let deployment = hub.deploy_rules(
        Some(yara_engine::compile(&next).expect("next")),
        Some(semgrep_engine::compile(SEMGREP).expect("semgrep")),
    );
    let hunt = || {
        let report = hub.retro_hunt(&deployment).expect("retro index enabled");
        assert_eq!(report.digests_indexed, hub.cached_artifacts() as u64);
        assert_eq!(gauges(&hub).1, report.digests_indexed);
        let oracle = hub.retro_rescan(&deployment).expect("oracle");
        assert!(report.same_hits(&oracle), "hunt diverged from rescan");
        report
    };
    let first = hunt();
    assert_eq!((first.digests_indexed, first.total_hits()), (4, 0));
    let synced = gauges(&hub);
    let parses = hub.stats().artifact_parses;
    ingest(&hub, &requests[2..]);
    assert!(hub.stats().artifact_parses > parses, "the uploads evicted");
    assert_eq!(gauges(&hub), synced, "an upload touched the index");
    let second = hunt();
    assert_eq!((second.digests_indexed, second.total_hits()), (4, 1));
}

/// A hunt reads history; it does not serve it. Its confirm scans peek,
/// so the digests a hunt scans are not kept alive over what requests
/// served since. With room for two artifacts, `a.py` (the only carrier
/// of the hunted atom) is served before `b.py`. After the hunt confirms
/// `a.py`, the next new file evicts `a.py`, not `b.py`, and a re-upload
/// of `a.py` is built again.
#[test]
fn a_hunt_leaves_the_serving_recency_alone() {
    let hub = ScanHub::new(
        Some(yara_engine::compile(YARA).expect("yara")),
        Some(semgrep_engine::compile(SEMGREP).expect("semgrep")),
        HubConfig {
            workers: 1,
            cache_capacity: 0,
            artifact_cache_capacity: 2,
            ..HubConfig::default()
        },
    );
    let upload = |name: &str, code: &str| hub.submit(ScanRequest::from_source(name, code)).wait();
    upload("a.py", "marker = 'payload'\n");
    upload("b.py", "x = 1\n");
    let next = format!("{YARA}\nrule hunted {{ strings: $a = \"payload\" condition: $a }}\n");
    let deployment = hub.deploy_rules(
        Some(yara_engine::compile(&next).expect("next")),
        Some(semgrep_engine::compile(SEMGREP).expect("semgrep")),
    );
    let report = hub.retro_hunt(&deployment).expect("retro index enabled");
    assert_eq!((report.candidates, report.confirm_scans), (1, 1));
    assert_eq!(report.total_hits(), 1);
    upload("c.py", "y = 2\n");
    let parses = hub.stats().artifact_parses;
    upload("a.py", "marker = 'payload'\n");
    assert_eq!(
        hub.stats().artifact_parses,
        parses + 1,
        "the hunt kept a.py resident"
    );
}

/// Generated rulesets repeat one indicator regex across many rules. The
/// scanner runs each distinct pattern once per scan unit (a file's bytes
/// or one decoded layer) and shares the matches, so three copies of the
/// blob regex plus one address regex cost two passes, not four — and
/// every rule still sees its own hits.
#[test]
fn duplicate_regexes_cost_one_pass() {
    const RULES: &str = r#"
rule blob_exec { strings: $b = /([A-Za-z0-9+\/]{4}){10,}={0,2}/ $t = "exec(" condition: all of them }
rule blob_sock { strings: $b = /([A-Za-z0-9+\/]{4}){10,}={0,2}/ $t = "socket" condition: all of them }
rule blob_any { strings: $b = /([A-Za-z0-9+\/]{4}){10,}={0,2}/ condition: $b }
rule address { strings: $ip = /\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}/ condition: $ip }
"#;
    // base64 of a harmless print statement: long enough to match the
    // blob regex and to be decoded as a layer (one more scan unit).
    const BLOB: &str = "cHJpbnQoJ2hlbGxvIGZyb20gYSBoYXJtbGVzcyBwYXlsb2FkIG9mIGZvcnR5IGJ5dGVzJyk=";
    let hub = ScanHub::new(
        Some(yara_engine::compile(RULES).expect("yara")),
        None,
        HubConfig::default(),
    );
    let files = [
        format!("import base64\nexec(base64.b64decode('{BLOB}'))\nhost = '10.1.2.3'\n"),
        format!("import socket\ns = socket.socket()\ns.send(b'{BLOB}')\n"),
    ];
    let expected: [&[&str]; 2] = [
        &["address", "blob_any", "blob_exec"],
        &["blob_any", "blob_sock"],
    ];
    for (i, (code, rules)) in files.iter().zip(expected).enumerate() {
        let entry = FileEntry::new(format!("pkg/mod_{i}.py"), code.clone().into_bytes());
        let verdict = hub.submit(ScanRequest::from_files(vec![entry])).wait();
        assert_eq!(verdict.yara.names(), rules, "file {i}");
    }
    let stats = hub.stats();
    assert!(stats.layers_decoded >= 2, "both blobs decode to a layer");
    let units = files.len() as u64 + stats.layers_decoded;
    let unit_bytes = files.iter().map(|f| f.len() as u64).sum::<u64>() + stats.layer_bytes_scanned;
    assert_eq!(stats.regex_strings_evaluated, 2 * units);
    assert_eq!(stats.regex_bytes_scanned, 2 * unit_bytes);
}

/// Every worker claims, waits and publishes through the store's one
/// lock, and no request touches the retro index, which a hunt syncs to
/// the residents it finds, so what a scan returns, what the index holds
/// and what a hunt finds cannot depend on how many workers shared the
/// stream: the tiny corpus through one worker, four and eight, then one
/// generated rule the live bundle was built without. A second pass keeps
/// only a sliver of the artifacts resident, so claims and waiters run
/// under constant eviction; which digests survive then depends on
/// scheduling, the verdicts and hunt ≡ rescan do not. The verdict cache
/// is off so that every file entry goes through the artifact store.
#[test]
fn the_index_and_the_hunt_are_the_same_at_any_worker_count() {
    let dataset = corpus::Dataset::generate(&corpus::CorpusConfig::tiny());
    let output = eval::experiments::run_rulellm(&dataset, rulellm::PipelineConfig::full());
    let (yara, semgrep) = eval::experiments::compile_output(&output);
    let mut live = yara.clone();
    let held_out = live.rules.remove(0).rule.name;
    let requests: Vec<ScanRequest> = eval::scan::build_targets(&dataset)
        .into_iter()
        .map(|t| t.request)
        .collect();
    let entries: usize = requests.iter().map(|r| r.files().len()).sum();

    let mut verdicts = Vec::new();
    for churn in [false, true] {
        let artifact_cache_capacity = if churn { 24 } else { 4096 };
        let mut hunts = Vec::new();
        for workers in [1, 4, 8] {
            let hub = ScanHub::new(
                Some(live.clone()),
                Some(semgrep.clone()),
                HubConfig {
                    workers,
                    cache_capacity: 0,
                    artifact_cache_capacity,
                    ..HubConfig::default()
                },
            );
            verdicts.push(hub.scan_ordered(requests.iter().cloned()));
            let stats = hub.stats();
            assert_eq!(
                stats.artifact_parses + stats.incremental_relexes + stats.artifact_cache_hits,
                entries as u64,
                "every entry is a build, a splice or a hit at {workers} workers"
            );
            if churn {
                assert_eq!(hub.cached_artifacts(), artifact_cache_capacity, "evicting");
            }
            // No request touches the index: it is empty until a hunt syncs
            // it to the residents.
            let stats = hub.stats();
            assert_eq!((stats.retro_index_atoms, stats.retro_index_digests), (0, 0));
            let deployment = hub.deploy_rules(Some(yara.clone()), Some(semgrep.clone()));
            let changed: Vec<&str> = deployment
                .delta
                .changed
                .iter()
                .map(|c| c.name.as_str())
                .collect();
            assert_eq!(changed, [held_out.as_str()]);
            let report = hub.retro_hunt(&deployment).expect("retro index enabled");
            assert_eq!(
                report.digests_indexed,
                hub.cached_artifacts() as u64,
                "the synced index and the cache diverged at {workers} workers, churn: {churn}"
            );
            let oracle = hub.retro_rescan(&deployment).expect("oracle");
            assert!(
                report.same_hits(&oracle),
                "hunt diverged from rescan at {workers} workers, churn: {churn}"
            );
            hunts.push((
                {
                    let stats = hub.stats();
                    (stats.retro_index_atoms, stats.retro_index_digests)
                },
                report.candidates,
                report.rules,
                report.verdicts,
            ));
        }
        if !churn {
            let hits: usize = hunts[0].2.iter().map(|r| r.digests.len()).sum();
            assert!(hits > 0, "the held-out rule hits its family");
            assert!(hunts.iter().all(|h| *h == hunts[0]), "1 worker vs 4 vs 8");
        }
    }
    assert!(verdicts.iter().all(|v| *v == verdicts[0]), "verdicts moved");
}

/// A panic under the artifact store's lock costs the ticket it happened
/// on and no later one. After the lock is poisoned, the releases that
/// follow still splice onto their predecessors, and a package the hub
/// has never seen gets the verdict a fresh hub gives it.
#[test]
fn a_poisoned_store_lock_costs_no_later_verdict() {
    let (poisoned, fresh) = (hub(), hub());
    let requests = release_stream();
    ingest(&poisoned, &requests[..2]);
    poisoned.poison_artifact_store();
    ingest(&poisoned, &requests[2..]);
    let stats = poisoned.stats();
    assert_eq!(stats.incremental_relexes, (VERSIONS - 1) as u64);
    assert_eq!(stats.splice_fallbacks, 0);
    let new_package = ScanRequest::from_files(vec![
        FileEntry::new(
            "net/client.py",
            b"import socket\ns = socket.socket()\n".to_vec(),
        ),
        FileEntry::new("net/run.py", b"import os\nos.system('id')\n".to_vec()),
    ]);
    let verdict = poisoned.submit(new_package.clone()).wait();
    assert!(!verdict.from_cache && verdict.flagged());
    assert!(verdict.same_matches(&fresh.submit(new_package).wait()));
    assert_eq!(poisoned.stats().completed, VERSIONS as u64 + 1);
    assert_eq!(poisoned.cached_artifacts(), FILES + VERSIONS + 1);
}

/// An artifact keeps what later requests read — bytes, module, string
/// table, cut points, hits, taint — and nothing per token. Over the tiny
/// corpus (171 distinct files, 993 859 bytes, 271 707 tokens) the hub
/// books 5 103 590 bytes. The parsed modules are 3 978 589 of them, 4.0
/// per source byte: a copy of the text, its line index and the tree's
/// arrays (30 065 statements of 40 bytes, 70 950 expressions of 16; they
/// were 56 and 32, 5.6 per source byte, while a block keyword and an
/// operator were `&'static str`s). The rest is 1 125 001, 1.13 per
/// source byte; it was 18 510 393, 18.6 per source byte, while the token
/// stream was kept. Four bytes per token kept beside either part would
/// put it past its bound.
#[test]
fn resident_artifacts_stay_within_a_small_multiple_of_their_source() {
    let dataset = corpus::Dataset::generate(&corpus::CorpusConfig::tiny());
    let hub = hub();
    let (mut source_bytes, mut module_bytes) = (0u64, 0u64);
    let mut seen = HashSet::new();
    for target in eval::scan::build_targets(&dataset) {
        for file in target.request.files() {
            if seen.insert(file.digest()) {
                source_bytes += file.bytes().len() as u64;
                if file.is_python() {
                    // A module's arrays are sized exactly, so a full parse
                    // holds what the artifact's, spliced or not, holds.
                    let text = String::from_utf8_lossy(file.bytes());
                    module_bytes += pysrc::parse_module(&text).heap_bytes() as u64;
                }
            }
        }
        hub.submit(target.request).wait();
    }
    assert_eq!(hub.cached_artifacts(), seen.len(), "nothing was evicted");
    let resident = hub.stats().artifact_bytes_resident;
    assert!(
        2 * module_bytes < 9 * source_bytes,
        "{module_bytes} module bytes for {source_bytes} source bytes"
    );
    let rest = resident - module_bytes;
    assert!(
        rest < 2 * source_bytes,
        "{rest} bytes besides the modules booked for {source_bytes} source bytes"
    );
}

/// Every series the exporters carried before the metric tables existed;
/// none may be renamed or dropped.
const ESTABLISHED_SERIES: [&str; 37] = [
    "scanhub_stage_duration_ns",
    "scanhub_scan_duration_ns",
    "scanhub_submitted_total",
    "scanhub_completed_total",
    "scanhub_cache_hits_total",
    "scanhub_bytes_scanned_total",
    "scanhub_artifact_parses_total",
    "scanhub_artifact_cache_hits_total",
    "scanhub_incremental_relexes_total",
    "scanhub_splice_fallbacks_total",
    "scanhub_relexed_bytes_total",
    "scanhub_layers_decoded_total",
    "scanhub_taint_analyses_total",
    "scanhub_flows_found_total",
    "scanhub_consts_folded_total",
    "scanhub_yara_rules_evaluated_total",
    "scanhub_yara_rules_skipped_total",
    "scanhub_semgrep_rules_evaluated_total",
    "scanhub_semgrep_rules_skipped_total",
    "scanhub_retro_hunts_total",
    "scanhub_retro_candidates_total",
    "scanhub_retro_confirm_scans_total",
    "textmatch_teddy_scans_total",
    "textmatch_teddy_bytes_scanned_total",
    "textmatch_teddy_chunks_classified_total",
    "textmatch_teddy_chunks_verified_total",
    "textmatch_ac_fallback_scans_total",
    "textmatch_dfa_scans_total",
    "textmatch_dfa_states_built_total",
    "textmatch_dfa_cache_flushes_total",
    "textmatch_pikevm_fallbacks_total",
    "scanhub_retro_index_atoms",
    "scanhub_retro_index_digests",
    "scanhub_cached_verdicts",
    "scanhub_cached_artifacts",
    "scanhub_artifact_bytes_resident",
    "scanhub_flight_recorder_traces",
];

#[test]
fn every_counter_reaches_both_exporters() {
    let hub = hub();
    ingest(&hub, &release_stream());
    let stats = hub.stats();
    let text = hub.export_prometheus();
    telemetry::validate_prometheus(&text).expect("valid exposition format");
    let json = hub.export_json();
    let metrics = json
        .get("metrics")
        .and_then(|m| m.as_array())
        .expect("metrics array");
    let json_entry = |series: &str| {
        metrics
            .iter()
            .find(|m| m.get("name").and_then(|n| n.as_str()) == Some(series))
    };

    // The six counters `HubStats` always had but no exporter carried.
    for (series, value) in [
        ("scanhub_yara_scans_skipped_total", stats.yara_scans_skipped),
        (
            "scanhub_semgrep_parses_skipped_total",
            stats.semgrep_parses_skipped,
        ),
        (
            "scanhub_regex_strings_evaluated_total",
            stats.regex_strings_evaluated,
        ),
        (
            "scanhub_regex_bytes_scanned_total",
            stats.regex_bytes_scanned,
        ),
        (
            "scanhub_semgrep_stmts_visited_total",
            stats.semgrep_stmts_visited,
        ),
        (
            "scanhub_layer_bytes_scanned_total",
            stats.layer_bytes_scanned,
        ),
    ] {
        assert!(
            text.lines().any(|l| l == format!("{series} {value}")),
            "prometheus lacks `{series} {value}`"
        );
        let exported = json_entry(series).and_then(|m| m.get("value"));
        assert_eq!(
            exported.and_then(|v| v.as_f64()),
            Some(value as f64),
            "json {series}"
        );
    }
    assert!(stats.semgrep_stmts_visited > 0, "the stream walked modules");

    for series in ESTABLISHED_SERIES {
        assert!(
            text.contains(&format!("# TYPE {series} ")),
            "prometheus lost {series}"
        );
        assert!(json_entry(series).is_some(), "json lost {series}");
    }

    // Both exporters render one list, so they name the same families in
    // the same order.
    let prometheus_families: Vec<&str> = text
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .map(|rest| rest.split(' ').next().expect("family name"))
        .collect();
    let mut json_families: Vec<&str> = metrics
        .iter()
        .map(|m| m.get("name").and_then(|n| n.as_str()).expect("name"))
        .collect();
    json_families.dedup();
    assert_eq!(prometheus_families, EXPORT_ORDER);
    assert_eq!(json_families, EXPORT_ORDER);
}

/// Every metric family in export order: the stage family and the wall
/// time, the `hub_metrics!` rows in table order (counters, gauges,
/// matching tiers), then the occupancy gauges that are not `HubStats`
/// fields.
const EXPORT_ORDER: [&str; 47] = [
    "scanhub_stage_duration_ns",
    "scanhub_scan_duration_ns",
    "scanhub_submitted_total",
    "scanhub_completed_total",
    "scanhub_cache_hits_total",
    "scanhub_digests_reused_total",
    "scanhub_bytes_scanned_total",
    "scanhub_artifact_parses_total",
    "scanhub_artifact_cache_hits_total",
    "scanhub_incremental_relexes_total",
    "scanhub_splice_fallbacks_total",
    "scanhub_relexed_bytes_total",
    "scanhub_layers_decoded_total",
    "scanhub_layer_bytes_scanned_total",
    "scanhub_taint_analyses_total",
    "scanhub_taint_carried_total",
    "scanhub_semgrep_carried_total",
    "scanhub_flows_found_total",
    "scanhub_consts_folded_total",
    "scanhub_yara_rules_evaluated_total",
    "scanhub_yara_rules_skipped_total",
    "scanhub_yara_scans_skipped_total",
    "scanhub_regex_strings_evaluated_total",
    "scanhub_regex_bytes_scanned_total",
    "scanhub_semgrep_rules_evaluated_total",
    "scanhub_semgrep_rules_skipped_total",
    "scanhub_semgrep_parses_skipped_total",
    "scanhub_semgrep_stmts_visited_total",
    "scanhub_retro_hunts_total",
    "scanhub_retro_candidates_total",
    "scanhub_retro_confirm_scans_total",
    "scanhub_retro_confirm_bytes_scanned_total",
    "scanhub_artifact_bytes_resident",
    "scanhub_retro_index_atoms",
    "scanhub_retro_index_digests",
    "textmatch_teddy_scans_total",
    "textmatch_teddy_bytes_scanned_total",
    "textmatch_teddy_chunks_classified_total",
    "textmatch_teddy_chunks_verified_total",
    "textmatch_ac_fallback_scans_total",
    "textmatch_dfa_scans_total",
    "textmatch_dfa_states_built_total",
    "textmatch_dfa_cache_flushes_total",
    "textmatch_pikevm_fallbacks_total",
    "scanhub_cached_verdicts",
    "scanhub_cached_artifacts",
    "scanhub_flight_recorder_traces",
];
