//! Registry gatekeeping scenario: learn rules from a week of quarantined
//! uploads, stand up a `scanhub` scan service over them, then screen the
//! next wave of packages — including an unseen variant of a known family,
//! a legitimate upload, a re-upload served straight from the verdict
//! cache, and a patch release whose restamped version constant costs no
//! taint pass and no Semgrep walk of the unchanged statements. Every verdict is then explained from its flight-recorder
//! trace, without re-running a single scan.
//!
//! ```text
//! cargo run --example registry_gatekeeper
//! cargo run --example registry_gatekeeper -- --metrics   # + exporter dumps
//! ```

use corpus::{generate_legit_package, generate_malware_package, FAMILIES};
use oss_registry::Package;
use rulellm::{Pipeline, PipelineConfig};
use scanhub::{HubConfig, ScanHub, ScanRequest};

fn main() {
    let dump_metrics = std::env::args().any(|a| a == "--metrics");
    // Monday-to-Friday quarantine: three variants each from two active
    // campaigns (a C2 beacon family and a base64 dropper family).
    let beacon = FAMILIES
        .iter()
        .find(|f| f.stem == "beaconlite")
        .expect("family");
    let dropper = FAMILIES
        .iter()
        .find(|f| f.stem == "execb64")
        .expect("family");
    let mut quarantine = Vec::new();
    for variant in 0..3 {
        quarantine.push(generate_malware_package(beacon, variant, 7).0);
        quarantine.push(generate_malware_package(dropper, variant, 7).0);
    }
    let refs: Vec<&oss_registry::Package> = quarantine.iter().collect();

    println!("learning rules from {} quarantined uploads ...", refs.len());
    // Two active campaigns -> two code groups. (With a larger corpus the
    // default k = n/4 discovers this on its own.)
    let mut config = PipelineConfig::full();
    config.cluster_k = Some(2);
    let mut pipeline = Pipeline::new(config);
    let output = pipeline.run(&refs);
    println!(
        "pipeline: {} crafted, {} refined, {} aligned, {} dropped -> {} YARA / {} Semgrep rules",
        output.stats.crafted,
        output.stats.refined,
        output.stats.aligned_ok,
        output.stats.dropped,
        output.yara.len(),
        output.semgrep.len(),
    );

    // Stand up the scan service over the learned ruleset, both engines.
    let (compiled, semgrep) = eval::experiments::compile_output(&output);
    let hub = ScanHub::new(Some(compiled), Some(semgrep.clone()), HubConfig::default());
    println!(
        "scanhub up: {} distinct rule atoms, {} always-on rules\n",
        hub.prefilter_index().atom_count(),
        hub.prefilter_index().always_on_count(),
    );

    // Saturday's upload queue: an unseen variant of each campaign, a
    // legitimate package, a re-upload of the same legitimate package
    // (registry clients love retrying), and its patch release, which only
    // restamps the version constant in its `__init__.py`: that file
    // splices onto the resident release and carries its taint summary and
    // its Semgrep matches.
    let unseen_beacon = generate_malware_package(beacon, 99, 7).0;
    let unseen_dropper = generate_malware_package(dropper, 99, 7).0;
    let legit = generate_legit_package(3, 7);
    let patch = patch_release(&legit);

    let queue = [
        ("unseen beacon variant", &unseen_beacon, true),
        ("unseen dropper variant", &unseen_dropper, true),
        ("legitimate upload", &legit, false),
        ("legitimate re-upload", &legit, false),
        ("legitimate patch release", &patch, false),
    ];
    let mut digests = Vec::new();
    for (label, pkg, expect) in &queue {
        // Sequential submit-then-wait: the verdict cache keys on content,
        // so the re-upload is answered without a scan — and without
        // hashing its files, each equal to the resident file of its name.
        // The clone shares the digests the submit computes or adopts.
        let request = ScanRequest::from_package(pkg);
        let verdict = hub.submit(request.clone()).wait();
        let digest = request.digest_hex();
        let decision = if verdict.flagged() { "BLOCK" } else { "PASS" };
        let provenance = if verdict.from_cache { ", cached" } else { "" };
        println!(
            "{label:<24} ({:<14}) -> {decision} ({} rules{provenance})",
            pkg.metadata().name,
            verdict.total(),
        );
        assert_eq!(verdict.flagged(), *expect, "{label} misclassified");
        digests.push((*label, digest, verdict));
    }

    // One more Saturday upload: a campaign nobody has rules for yet, a
    // stealer that harvests sensitive data and exfiltrates it over DNS.
    // No live rule matches it, so it sails through today — but its
    // analysis artifacts (and their posting lists in the retro index)
    // stay resident.
    let stealer = FAMILIES
        .iter()
        .find(|f| f.stem == "dnspipe")
        .expect("family");
    let stealer_upload = generate_malware_package(stealer, 0, 7).0;
    let missed = ScanRequest::from_package(&stealer_upload);
    let missed_verdict = hub.submit(missed.clone()).wait();
    println!(
        "{:<24} ({:<14}) -> {}",
        "unknown stealer",
        stealer_upload.metadata().name,
        if missed_verdict.flagged() {
            "BLOCK"
        } else {
            "PASS (no rules for it yet)"
        },
    );
    assert!(
        !missed_verdict.flagged(),
        "no live rule may know the stealer yet: {missed_verdict:?}"
    );

    // Every verdict is explainable after the fact from the flight
    // recorder alone: the trace names each fired rule with its evidence
    // provenance and shows where the request's time went.
    println!("\n== verdict explanations (from the flight recorder, no re-scan) ==");
    for (label, digest, verdict) in &digests {
        let trace = hub
            .trace_for_digest(digest)
            .expect("every screened upload leaves a trace");
        assert_eq!(
            trace.fired.len(),
            verdict.total(),
            "{label}: trace and verdict disagree"
        );
        assert_eq!(trace.flagged, verdict.flagged());
        println!("[{label}]\n{trace}\n");
    }

    if let Some(worst) = hub.worst_trace() {
        println!("== slowest scan still on record ==\n{worst}\n");
    }

    let stats = hub.stats();
    println!("{stats}");
    assert_eq!(stats.cache_hits, 1, "the re-upload must be a cache hit");
    assert!(
        stats.digests_reused > 0,
        "the re-upload's files must take their siblings' digests"
    );
    assert!(
        stats.taint_carried > 0,
        "the patch release's restamped file must carry its taint summary"
    );
    assert!(
        stats.semgrep_carried > 0,
        "the patch release's restamped file must carry its Semgrep matches"
    );

    // Sunday: the stealer campaign is identified and rules are learned
    // from its quarantined variants. Instead of rescanning every upload
    // ever screened, deploy the refreshed bundle as a *delta* and
    // retro-hunt it: the atom→digest index nominates candidate digests
    // and only those are confirm-scanned.
    println!("== Sunday rule refresh: retro-hunt instead of rescan ==");
    let stealer_quarantine: Vec<oss_registry::Package> = (1..4)
        .map(|variant| generate_malware_package(stealer, variant, 7).0)
        .collect();
    let stealer_refs: Vec<&oss_registry::Package> = stealer_quarantine.iter().collect();
    let mut update_config = PipelineConfig::full();
    update_config.cluster_k = Some(1);
    let update = Pipeline::new(update_config).run(&stealer_refs);
    let mut combined = output.yara_ruleset();
    for rule in &update.yara {
        combined.push_str(&rule.text);
        combined.push('\n');
    }
    let deployment = hub.deploy_rules(
        Some(yara_engine::compile(&combined).expect("combined rules compile")),
        Some(semgrep),
    );
    println!(
        "delta: {} new/changed rules, {} unchanged (never re-hunted)",
        deployment.delta.changed.len(),
        deployment.delta.unchanged,
    );
    let report = hub
        .retro_hunt(&deployment)
        .expect("retro index is on by default");
    println!(
        "retro-hunt: {} candidates over {} indexed digests -> {} confirm scans, {} hits",
        report.candidates,
        report.digests_indexed,
        report.confirm_scans,
        report.total_hits(),
    );
    for rule in report.rules.iter().filter(|r| !r.digests.is_empty()) {
        println!(
            "  {} retroactively flags {} already-scanned digest(s)",
            rule.rule,
            rule.digests.len(),
        );
    }
    // Every retroactive find is a file of the stealer upload that passed
    // on Saturday.
    let stealer_files: Vec<String> = missed
        .files()
        .iter()
        .map(|f| digest::to_hex(&f.digest()))
        .collect();
    let found: Vec<&String> = report.rules.iter().flat_map(|r| &r.digests).collect();
    assert!(
        !found.is_empty(),
        "the stealer upload screened on Saturday must be found in history"
    );
    assert!(
        found.iter().all(|d| stealer_files.contains(d)),
        "the hunt flagged a digest that is no file of the stealer upload"
    );
    println!();

    if dump_metrics {
        println!("== prometheus exposition ==");
        print!("{}", hub.export_prometheus());
        println!("\n== json metrics ==");
        println!("{}", hub.export_json().to_string_pretty());
    }
    println!("gatekeeper verdicts all correct.");
}

/// `package`'s next patch release: the version in its metadata and in
/// the `__version__` constant of its `__init__.py` moves on by one, and
/// nothing else changes.
fn patch_release(package: &Package) -> Package {
    let mut metadata = package.metadata().clone();
    let (minor, patch) = metadata.version.rsplit_once('.').expect("x.y.z");
    let next = format!("{minor}.{}", patch.parse::<u32>().expect("patch") + 1);
    let stamp = |version: &str| format!("__version__ = '{version}'");
    let (old, new) = (stamp(&metadata.version), stamp(&next));
    let files = package.files().iter().cloned().map(|mut file| {
        if file.path.ends_with("__init__.py") {
            file.contents = file.contents.replace(&old, &new);
        }
        file
    });
    metadata.version = next;
    Package::new(metadata, files.collect(), package.ecosystem())
}
