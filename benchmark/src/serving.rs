//! The three serving workloads: set-up, oracle, and the closed-loop
//! replay of one request stream against a fresh `ScanHub`.

use std::time::{Duration, Instant};

use scanhub::{HubConfig, HubStats, RetroReport, ScanHub, ScanRequest, Verdict};

use crate::inputs::{
    self, fresh_copy, ingest, Bundle, Kind, Labeled, Op, ScanOp, Stream, Workload,
};
use crate::shadow::Shadow;
use crate::trace::Tracer;
use crate::{alloc, rulegen};

/// A request that has not answered after this long counts as failed.
pub const OP_TIMEOUT: Duration = Duration::from_secs(20);

/// Production defaults; one worker, because the machine has two cores
/// and the closed-loop client occupies the other.
pub fn hub_config() -> HubConfig {
    HubConfig {
        workers: 1,
        ..HubConfig::default()
    }
}

fn new_hub(rules: &Bundle, config: HubConfig) -> ScanHub {
    ScanHub::new(
        Some(rules.yara.clone()),
        Some(rules.semgrep.clone()),
        config,
    )
}

fn scan_op(labeled: &Labeled, kind: Kind) -> ScanOp {
    ScanOp {
        request: ingest(&labeled.package),
        malicious: labeled.malicious,
        kind,
    }
}

/// Bytes `ingest` moves for `packages`, for `registry.unpack_mb_per_s`.
fn wire_bytes<'a>(packages: impl Iterator<Item = &'a Labeled>) -> u64 {
    packages
        .map(|l| {
            l.package
                .files()
                .iter()
                .map(|f| f.contents.len() as u64)
                .sum::<u64>()
        })
        .sum()
}

pub struct SetupInfo {
    pub mutants: usize,
    pub ingested_bytes: u64,
    pub rules_aligned: usize,
    pub rules_dropped: usize,
    pub fix_attempts: usize,
}

/// One full set-up pass: inputs from the seed, rules from one RuleLLM
/// run, compiled bundles, requests through the registry format, and a
/// first hub built and brought to the workload's starting state.
/// `detail` adds the shadows that break `rulellm` and the prefilter
/// build down by layer (traced runs only).
pub fn setup(
    workload: Workload,
    seed: u64,
    tracer: &mut Tracer,
    detail: bool,
) -> (Stream, SetupInfo) {
    let setup = tracer.open("setup", None, 0);
    let root = Some(setup);
    let population = tracer.time("corpus.generate", root, 0, || match workload {
        Workload::ColdIngest => inputs::population(inputs::COLD_MALWARE, inputs::COLD_LEGIT),
        Workload::VersionBumps => inputs::version_bumps_population(),
        Workload::RuleDeploy => inputs::population(inputs::DEPLOY_MALWARE, inputs::DEPLOY_LEGIT),
        Workload::PaperPipeline => unreachable!("not a serving workload"),
    });
    let mutants = tracer.time("obfuscate.mutate", root, 0, || match workload {
        Workload::ColdIngest => inputs::mutants(&population.malware, seed),
        Workload::RuleDeploy => {
            inputs::mutants(inputs::rule_deploy_fresh_malware(&population), seed)
        }
        _ => Vec::new(),
    });
    let mutant_count = mutants.len();

    let training = inputs::training_set(&population);
    let (output, all_rules) = rulegen::generate(&training, tracer, root);
    if detail {
        rulegen::shadow(&training, tracer, root);
        tracer.time("prefilter.build", root, 0, || {
            std::hint::black_box(scanhub::PrefilterIndex::build(
                Some(&all_rules.yara),
                Some(&all_rules.semgrep),
            ))
        });
    }

    let plan = tracer.open("inputs.plan", root, 0);
    let mut ingested_bytes = 0u64;
    let mut timed_ingest = |tracer: &mut Tracer, packages: &[Labeled], kinds: &[Kind]| {
        ingested_bytes += wire_bytes(packages.iter());
        tracer.time("registry.ingest", Some(plan), 0, || {
            packages
                .iter()
                .zip(kinds)
                .map(|(l, &k)| scan_op(l, k))
                .collect::<Vec<ScanOp>>()
        })
    };
    let requests = |scans: Vec<ScanOp>| scans.into_iter().map(|s| s.request).collect();
    let ops = |scans: Vec<ScanOp>| scans.into_iter().map(Op::Scan);
    let stream = match workload {
        Workload::ColdIngest => {
            let all = inputs::cold_ingest_packages(&population, mutants, seed);
            let kinds = vec![Kind::Fresh; all.len()];
            Stream {
                rules: all_rules,
                prewarm: Vec::new(),
                ops: ops(timed_ingest(tracer, &all, &kinds)).collect(),
            }
        }
        Workload::VersionBumps => {
            let plan = inputs::version_bumps_plan(&population, seed);
            let base_kinds = vec![Kind::Fresh; plan.base.len()];
            let prewarm = requests(timed_ingest(tracer, &plan.base, &base_kinds));
            let (releases, kinds): (Vec<Labeled>, Vec<Kind>) = plan.releases.into_iter().unzip();
            Stream {
                rules: all_rules,
                prewarm,
                ops: ops(timed_ingest(tracer, &releases, &kinds)).collect(),
            }
        }
        Workload::RuleDeploy => {
            let plan = inputs::rule_deploy_plan(&population, mutants, seed);
            let (live, candidates) = inputs::split_rules(&all_rules, seed);
            let history_kinds = vec![Kind::Fresh; plan.history.len()];
            let prewarm = requests(timed_ingest(tracer, &plan.history, &history_kinds));
            let mut stream_ops = Vec::new();
            for (batch, candidate) in plan.batches.iter().zip(candidates) {
                let kinds = vec![Kind::Fresh; batch.len()];
                stream_ops.extend(ops(timed_ingest(tracer, batch, &kinds)));
                stream_ops.push(Op::Deploy(candidate));
            }
            Stream {
                rules: live,
                prewarm,
                ops: stream_ops,
            }
        }
        Workload::PaperPipeline => unreachable!("not a serving workload"),
    };
    tracer.close(plan);

    // First hub: built and brought to the starting state once, so lazy
    // statics, allocator arenas and code pages are warm before timing.
    // `cold_ingest` starts with an empty hub, so it warms on a slice of
    // its own stream instead.
    let prewarm = tracer.open("hub.prewarm", root, 0);
    let hub = tracer.time("hub.new", Some(prewarm), 0, || {
        new_hub(&stream.rules, hub_config())
    });
    let warm: Vec<&ScanRequest> = if stream.prewarm.is_empty() {
        stream.scans().take(64).map(|s| &s.request).collect()
    } else {
        stream.prewarm.iter().collect()
    };
    for (i, request) in warm.into_iter().enumerate() {
        let copy = fresh_copy(request);
        tracer.time("hub.prewarm_scan", Some(prewarm), i as u32, || {
            std::hint::black_box(hub.submit(copy).wait())
        });
    }
    drop(hub);
    tracer.close(prewarm);
    tracer.close(setup);
    let info = SetupInfo {
        mutants: mutant_count,
        ingested_bytes,
        rules_aligned: output.stats.aligned_ok,
        rules_dropped: output.stats.dropped,
        fix_attempts: output.stats.fix_attempts,
    };
    (stream, info)
}

/// Ground truth for every timed operation, from an exhaustive hub: no
/// prefilter, no verdict cache, no artifact cache (so no splice and no
/// retro index either) — every request is fully re-analysed against
/// every rule.
pub fn oracle_verdicts(stream: &Stream) -> Vec<Option<Verdict>> {
    let hub = new_hub(
        &stream.rules,
        HubConfig {
            workers: 1,
            prefilter: false,
            cache_capacity: 0,
            artifact_cache_capacity: 0,
            ..HubConfig::default()
        },
    );
    stream
        .ops
        .iter()
        .map(|op| match op {
            Op::Scan(scan) => Some(hub.submit(fresh_copy(&scan.request)).wait()),
            Op::Deploy(_) => None,
        })
        .collect()
}

/// Ground truth for every deployment: the stream run once against a
/// production-configured hub, answering each deployment with
/// `retro_rescan` (confirm-scan of every resident digest, no index).
/// Its own pass, because a rescan materialises every resident module
/// and would change what the following operations of a timed replay
/// find cached.
pub fn oracle_rescans(stream: &Stream) -> Vec<RetroReport> {
    if !stream.ops.iter().any(|op| matches!(op, Op::Deploy(_))) {
        return Vec::new();
    }
    let hub = new_hub(&stream.rules, hub_config());
    for request in &stream.prewarm {
        std::hint::black_box(hub.submit(fresh_copy(request)).wait());
    }
    let mut reports = Vec::new();
    for op in &stream.ops {
        match op {
            Op::Scan(scan) => {
                std::hint::black_box(hub.submit(fresh_copy(&scan.request)).wait());
            }
            Op::Deploy(candidate) => {
                let deployment = hub.deploy_rules(
                    Some(candidate.yara.clone()),
                    Some(candidate.semgrep.clone()),
                );
                reports.push(hub.retro_rescan(&deployment).expect("retro index is on"));
            }
        }
    }
    reports
}

/// The `HubStats` counters a replay is compared on. They must be
/// identical in every replay of a stream.
pub const COUNTERS: [&str; 24] = [
    "submitted",
    "completed",
    "cache_hits",
    "bytes_scanned",
    "yara_rules_evaluated",
    "yara_rules_skipped",
    "semgrep_rules_evaluated",
    "semgrep_rules_skipped",
    "semgrep_stmts_visited",
    "artifact_parses",
    "artifact_cache_hits",
    "incremental_relexes",
    "splice_fallbacks",
    "relexed_bytes",
    "layers_decoded",
    "taint_analyses",
    "retro_hunts",
    "retro_candidates",
    "retro_confirm_scans",
    "regex_bytes_scanned",
    "textmatch_dfa_scans",
    "textmatch_pikevm_fallbacks",
    "textmatch_teddy_chunks_classified",
    "textmatch_teddy_chunks_verified",
];

fn read_counters(s: &HubStats) -> [u64; COUNTERS.len()] {
    [
        s.submitted,
        s.completed,
        s.cache_hits,
        s.bytes_scanned,
        s.yara_rules_evaluated,
        s.yara_rules_skipped,
        s.semgrep_rules_evaluated,
        s.semgrep_rules_skipped,
        s.semgrep_stmts_visited,
        s.artifact_parses,
        s.artifact_cache_hits,
        s.incremental_relexes,
        s.splice_fallbacks,
        s.relexed_bytes,
        s.layers_decoded,
        s.taint_analyses,
        s.retro_hunts,
        s.retro_candidates,
        s.retro_confirm_scans,
        s.regex_bytes_scanned,
        s.engine.dfa_scans,
        s.engine.pikevm_fallbacks,
        s.engine.teddy_chunks_classified,
        s.engine.teddy_chunks_verified,
    ]
}

/// Counter deltas over the timed phase of one replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counters(pub [u64; COUNTERS.len()]);

impl Counters {
    pub fn get(&self, name: &str) -> u64 {
        let at = COUNTERS
            .iter()
            .position(|n| *n == name)
            .unwrap_or_else(|| panic!("unknown counter {name}"));
        self.0[at]
    }
}

/// The process-global `textmatch` counters among [`COUNTERS`].
const ENGINE_COUNTERS: [&str; 4] = [
    "textmatch_dfa_scans",
    "textmatch_pikevm_fallbacks",
    "textmatch_teddy_chunks_classified",
    "textmatch_teddy_chunks_verified",
];

fn engine_now() -> [u64; 4] {
    let e = textmatch::engine_counters();
    [
        e.dfa_scans,
        e.pikevm_fallbacks,
        e.teddy_chunks_classified,
        e.teddy_chunks_verified,
    ]
}

/// Work the benchmark itself does between two operations (checking,
/// shadowing, the rescan oracle), measured so it can be taken back out
/// of the process-wide allocation and `textmatch` counts. The hub's
/// worker is idle while it runs.
#[derive(Default)]
struct Excluded {
    allocs: (u64, u64),
    engine: [u64; 4],
}

impl Excluded {
    fn now() -> Excluded {
        Excluded {
            allocs: alloc::totals(),
            engine: engine_now(),
        }
    }

    fn add_since(&mut self, paused: &Excluded) {
        let resumed = Excluded::now();
        self.allocs.0 += resumed.allocs.0 - paused.allocs.0;
        self.allocs.1 += resumed.allocs.1 - paused.allocs.1;
        for (slot, (r, p)) in self
            .engine
            .iter_mut()
            .zip(resumed.engine.iter().zip(paused.engine))
        {
            *slot += r - p;
        }
    }
}

#[derive(Debug, Clone, Default)]
pub struct DeployTiming {
    pub deploy_ns: u64,
    pub hunt_ns: u64,
    pub candidates: u64,
    pub confirm_scans: u64,
    pub hits: u64,
}

pub struct Replay {
    /// Submit-to-verdict (or deploy+hunt) nanoseconds per operation.
    pub lat: Vec<u64>,
    /// `flagged()` per scan operation, in stream order.
    pub flagged: Vec<bool>,
    pub deploys: Vec<DeployTiming>,
    pub failed: usize,
    pub counters: Counters,
    /// Allocation calls and bytes during the timed phase.
    pub allocs: (u64, u64),
    pub resident_bytes: u64,
    /// Wall time of the timed phase.
    pub wall: Duration,
}

/// State a traced replay threads through: the tracer and the shadow.
pub struct Traced<'a, 'r> {
    pub tracer: &'a mut Tracer,
    pub shadow: Shadow<'r>,
}

/// Runs the stream once against a fresh hub brought to the starting
/// state (untimed), timing each operation from `submit` until its
/// verdict is in hand. Every verdict is compared with the oracle's,
/// every hunt report with the rescan oracle's.
pub fn replay(
    stream: &Stream,
    oracle: &[Option<Verdict>],
    rescans: &[RetroReport],
    mut traced: Option<&mut Traced<'_, '_>>,
) -> Replay {
    // Fresh entries for every replay, made before the clock starts.
    let prewarm: Vec<ScanRequest> = stream.prewarm.iter().map(fresh_copy).collect();
    let mut copies: Vec<Option<ScanRequest>> = stream
        .ops
        .iter()
        .map(|op| match op {
            Op::Scan(scan) => Some(fresh_copy(&scan.request)),
            Op::Deploy(_) => None,
        })
        .collect();
    let mut shadow_copies: Vec<Option<ScanRequest>> = if traced.is_some() {
        copies.iter().map(|c| c.as_ref().map(fresh_copy)).collect()
    } else {
        Vec::new()
    };
    if let Some(t) = traced.as_deref_mut() {
        let copies: Vec<ScanRequest> = stream.prewarm.iter().map(fresh_copy).collect();
        t.shadow.prewarm(&copies);
    }

    let hub = new_hub(&stream.rules, hub_config());
    // `ScanHub::new` returns while its worker is still building its
    // scanner state. An empty request is a barrier: once it is answered
    // the worker is idle, so its start-up neither lands in the first
    // timed request nor races the allocation snapshot below.
    std::hint::black_box(hub.submit(ScanRequest::from_files(Vec::new())).wait());
    for request in prewarm {
        std::hint::black_box(hub.submit(request).wait());
    }
    let stats_before = read_counters(&hub.stats());
    let allocs_before = alloc::totals();

    let mut out = Replay {
        lat: Vec::with_capacity(stream.ops.len()),
        flagged: Vec::new(),
        deploys: Vec::new(),
        failed: 0,
        counters: Counters([0; COUNTERS.len()]),
        allocs: (0, 0),
        resident_bytes: 0,
        wall: Duration::ZERO,
    };
    let mut excluded = Excluded::default();
    let wall = Instant::now();
    for (i, op) in stream.ops.iter().enumerate() {
        let id = i as u32;
        match op {
            Op::Scan(_) => {
                let request = copies[i].take().expect("one copy per scan");
                let span = traced.as_deref_mut().map(|t| {
                    let req = t.tracer.open("request", None, id);
                    (req, t.tracer.open("hub.submit_wait", Some(req), id))
                });
                let start = Instant::now();
                let verdict = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    hub.submit(request).wait_timeout(OP_TIMEOUT)
                }));
                out.lat.push(start.elapsed().as_nanos() as u64);
                if let (Some((_, wait)), Some(t)) = (span, traced.as_deref_mut()) {
                    t.tracer.close(wait);
                }
                let paused = Excluded::now();
                match verdict {
                    Ok(Some(v)) => {
                        let expected = oracle[i].as_ref().expect("oracle verdict for a scan");
                        if !v.same_matches(expected) {
                            out.failed += 1;
                        }
                        out.flagged.push(v.flagged());
                    }
                    // Timed out, or the worker panicked on this request.
                    Ok(None) | Err(_) => {
                        out.failed += 1;
                        out.flagged.push(false);
                    }
                }
                if let (Some((req, _)), Some(t)) = (span, traced.as_deref_mut()) {
                    let shadow_span = t.tracer.open("shadow", Some(req), id);
                    let copy = shadow_copies[i].take().expect("one shadow copy per scan");
                    t.shadow.request(t.tracer, Some(shadow_span), id, &copy);
                    t.tracer.close(shadow_span);
                    t.tracer.close(req);
                }
                // Checking and shadowing are the benchmark's, not the
                // hub's: their allocations are taken back out.
                excluded.add_since(&paused);
            }
            Op::Deploy(candidate) => {
                let start = Instant::now();
                let deployment = hub.deploy_rules(
                    Some(candidate.yara.clone()),
                    Some(candidate.semgrep.clone()),
                );
                let deploy_ns = start.elapsed().as_nanos() as u64;
                let report = hub.retro_hunt(&deployment);
                let total_ns = start.elapsed().as_nanos() as u64;
                out.lat.push(total_ns);
                let paused = Excluded::now();
                let d = out.deploys.len();
                match report {
                    Some(report) => {
                        if !report.same_hits(&rescans[d]) {
                            out.failed += 1;
                        }
                        out.deploys.push(DeployTiming {
                            deploy_ns,
                            hunt_ns: total_ns - deploy_ns,
                            candidates: report.candidates,
                            confirm_scans: report.confirm_scans,
                            hits: report.total_hits() as u64,
                        });
                    }
                    None => {
                        out.failed += 1;
                        out.deploys.push(DeployTiming::default());
                    }
                }
                if let Some(t) = traced.as_deref_mut() {
                    let end = t.tracer.open("deployment", None, id);
                    // The real calls were timed above; re-time the two
                    // prefilter steps inside `deploy_rules` from outside.
                    let seeded = t.tracer.time("prefilter.build_seeded", Some(end), id, || {
                        scanhub::PrefilterIndex::build_seeded(
                            Some(&candidate.yara),
                            Some(&candidate.semgrep),
                            Some(hub.prefilter_index()),
                        )
                    });
                    t.tracer.time("prefilter.diff", Some(end), id, || {
                        std::hint::black_box(hub.prefilter_index().diff(&seeded))
                    });
                    t.tracer.close(end);
                }
                excluded.add_since(&paused);
            }
        }
    }
    out.wall = wall.elapsed();
    let allocs_after = alloc::totals();
    out.allocs = (
        allocs_after.0 - allocs_before.0 - excluded.allocs.0,
        allocs_after.1 - allocs_before.1 - excluded.allocs.1,
    );
    let stats_after = hub.stats();
    let after = read_counters(&stats_after);
    for (slot, (a, b)) in out
        .counters
        .0
        .iter_mut()
        .zip(after.iter().zip(stats_before))
    {
        *slot = a - b;
    }
    for (name, n) in ENGINE_COUNTERS.iter().zip(excluded.engine) {
        let at = COUNTERS
            .iter()
            .position(|c| c == name)
            .expect("engine counter is listed");
        out.counters.0[at] -= n;
    }
    out.resident_bytes = stats_after.artifact_bytes_resident;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Two resident packages; then an identical re-upload, a one-line
    /// bump, three packages never seen, and a deployment.
    fn tiny_stream() -> Stream {
        let population = inputs::population(24, 3);
        let mut tracer = Tracer::new();
        let training: Vec<_> = population.malware.iter().collect();
        let (_, rules) = rulegen::generate(&training, &mut tracer, None);
        let (live, candidates) = inputs::split_rules(&rules, 1);
        let resident = [&population.legit[0], &population.malware[0]];
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let bumped = inputs::bump(resident[0], 1, &mut rng);
        let scan = |package: &oss_registry::Package, malicious, kind| {
            Op::Scan(scan_op(
                &Labeled {
                    package: package.clone(),
                    malicious,
                },
                kind,
            ))
        };
        Stream {
            rules: live,
            prewarm: resident.iter().map(|p| ingest(p)).collect(),
            ops: vec![
                scan(resident[1], true, Kind::Identical),
                scan(&bumped, false, Kind::Bump),
                scan(&population.malware[1], true, Kind::Fresh),
                scan(&population.malware[2], true, Kind::Fresh),
                scan(&population.legit[1], false, Kind::Fresh),
                Op::Deploy(candidates[0].clone()),
            ],
        }
    }

    #[test]
    fn replays_agree_with_the_oracles_and_with_each_other() {
        let stream = tiny_stream();
        let oracle = oracle_verdicts(&stream);
        let rescans = oracle_rescans(&stream);
        assert_eq!(rescans.len(), 1);
        let first = replay(&stream, &oracle, &rescans, None);
        let second = replay(&stream, &oracle, &rescans, None);
        assert_eq!((first.failed, second.failed), (0, 0));
        assert_eq!(first.lat.len(), stream.ops.len());
        assert_eq!(first.flagged.len(), 5);
        // The `textmatch_*` counters are process-wide and other tests
        // run beside this one; the hub's own must repeat exactly.
        let hub_scoped = |r: &Replay| -> Vec<u64> {
            COUNTERS
                .iter()
                .zip(r.counters.0)
                .filter(|(name, _)| !name.starts_with("textmatch_"))
                .map(|(_, n)| n)
                .collect()
        };
        assert_eq!(hub_scoped(&first), hub_scoped(&second));
        assert_eq!(first.counters.get("submitted"), 5);
        assert_eq!(first.counters.get("cache_hits"), 1);
        assert_eq!(first.counters.get("incremental_relexes"), 1);
        assert_eq!(first.counters.get("retro_hunts"), 1);
        assert_eq!(first.deploys.len(), 1);
    }

    #[test]
    fn a_wrong_oracle_verdict_counts_as_a_failed_operation() {
        let stream = tiny_stream();
        let mut oracle = oracle_verdicts(&stream);
        oracle[2]
            .as_mut()
            .expect("scan")
            .yara
            .push("no_such_rule".to_owned());
        let rescans = oracle_rescans(&stream);
        assert_eq!(replay(&stream, &oracle, &rescans, None).failed, 1);
    }

    #[test]
    fn the_shadow_takes_the_hubs_cache_decisions() {
        let stream = tiny_stream();
        let oracle = oracle_verdicts(&stream);
        let rescans = oracle_rescans(&stream);
        let mut tracer = Tracer::new();
        let mut traced = Traced {
            tracer: &mut tracer,
            shadow: Shadow::new(&stream.rules),
        };
        let out = replay(&stream, &oracle, &rescans, Some(&mut traced));
        let counts = traced.shadow.counts.clone();
        assert_eq!(out.failed, 0);
        assert_eq!(counts.verdict_hits, out.counters.get("cache_hits"));
        assert_eq!(
            counts.artifact_hits,
            out.counters.get("artifact_cache_hits")
        );
        assert_eq!(counts.full_builds, out.counters.get("artifact_parses"));
        assert_eq!(counts.splices, out.counters.get("incremental_relexes"));
        assert_eq!(
            counts.splice_fallbacks,
            out.counters.get("splice_fallbacks")
        );
        // One request span per scan, each with the real call and its
        // shadow as children; one deployment span.
        let by_name = tracer.by_name();
        assert_eq!(by_name["request"].0, 5);
        assert_eq!(by_name["hub.submit_wait"].0, 5);
        assert_eq!(by_name["shadow"].0, 5);
        assert_eq!(by_name["deployment"].0, 1);
        assert!(by_name.contains_key("artifact.splice"));
        assert!(by_name.contains_key("prefilter.diff"));
    }
}
