//! One benchmark run: set-up passes, oracle, replays, metrics, the
//! exactness self-check and the printed tables.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use eval::metrics::Confusion;

use crate::inputs::{Kind, Op, Stream, Workload};
use crate::metrics::{Outcome, Values, END_TO_END, PER_LAYER};
use crate::serving::{Counters, Replay, Traced, COUNTERS};
use crate::shadow::{Shadow, TOP_LAYERS};
use crate::stats::{floor, median, percentile, self_times, Percentile};
use crate::trace::Tracer;
use crate::{pipeline, serving};

/// Identical set-up passes per run; `setup_s` is their floor (see
/// [`setup_floor_s`]).
pub const SETUP_PASSES: usize = 3;
/// A timing is never built from fewer replays than this.
pub const MIN_REPLAYS: usize = 8;
pub const MAX_REPLAYS: usize = 16;
/// Untraced and traced replays of a `--trace 1` run.
const TRACE_REPLAYS: usize = 2;

const MIB: f64 = 1024.0 * 1024.0;

pub fn run(workload: Workload, seed: u64, seconds: u64, trace: bool) -> Outcome {
    println!(
        "workload {} · seed {seed} · {seconds} s · trace {} · {} hardware threads",
        workload.name(),
        u8::from(trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    match (workload, trace) {
        (Workload::PaperPipeline, false) => pipeline_run(seed, seconds),
        (Workload::PaperPipeline, true) => pipeline_trace(seed),
        (_, false) => serving_run(workload, seed, seconds),
        (_, true) => serving_trace(workload, seed),
    }
}

/// Where traces and exactness records go: `benchmark/out` from the
/// repository root, `out` from inside `benchmark/`.
pub fn out_dir() -> PathBuf {
    if std::path::Path::new("benchmark").is_dir() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Whether another replay of mean length fits before `seconds` is up.
fn keep_replaying(done: usize, started: Instant, seconds: u64) -> bool {
    if done < MIN_REPLAYS {
        return true;
    }
    let elapsed = started.elapsed();
    done < MAX_REPLAYS && elapsed + elapsed / done as u32 <= Duration::from_secs(seconds)
}

// --------------------------------------------------------------- serving

/// Runs `setup` `passes` times, each into its own tracer; returns the
/// last pass's product and every pass's spans.
fn setup_passes<T>(passes: usize, mut setup: impl FnMut(&mut Tracer) -> T) -> (T, Vec<Tracer>) {
    let mut tracers = Vec::new();
    let mut last = None;
    for _ in 0..passes {
        let mut tracer = Tracer::new();
        last = Some(setup(&mut tracer));
        tracers.push(tracer);
    }
    (last.expect("at least one set-up pass"), tracers)
}

/// `setup_s`: the floor of the set-up over its identical passes. Every
/// pass records the same spans in the same order; each span's self time
/// is minimised across the passes and the minima are summed — the
/// per-operation floor of the timed phase, applied to set-up. With one
/// pass this is the pass's wall time.
fn setup_floor_s(passes: &[Tracer]) -> f64 {
    let selfs: Vec<Vec<u64>> = passes.iter().map(|t| self_times(t.spans())).collect();
    for pass in passes {
        assert!(
            pass.spans()
                .iter()
                .map(|s| s.name)
                .eq(passes[0].spans().iter().map(|s| s.name)),
            "set-up passes record the same spans"
        );
    }
    floor(&selfs).iter().sum::<u64>() as f64 / 1e9
}

fn pass_walls(passes: &[Tracer]) -> Vec<u64> {
    passes.iter().map(|t| t.total("setup")).collect()
}

fn scan_indices(stream: &Stream) -> Vec<usize> {
    (0..stream.ops.len())
        .filter(|&i| matches!(stream.ops[i], Op::Scan(_)))
        .collect()
}

fn detection(stream: &Stream, flagged: &[bool]) -> Confusion {
    let mut confusion = Confusion::default();
    for (scan, &hit) in stream.scans().zip(flagged) {
        confusion.observe(scan.malicious, hit);
    }
    confusion
}

/// The values that must repeat exactly: across the replays of a run and
/// across processes.
fn serving_exact(replay: &Replay) -> Vec<(String, u64)> {
    let mut exact = vec![
        ("allocs".to_owned(), replay.allocs.0),
        ("alloc_bytes".to_owned(), replay.allocs.1),
        (
            "flagged".to_owned(),
            replay.flagged.iter().filter(|&&f| f).count() as u64,
        ),
        ("resident_bytes".to_owned(), replay.resident_bytes),
    ];
    exact.extend(
        COUNTERS
            .iter()
            .zip(replay.counters.0)
            .map(|(name, n)| ((*name).to_owned(), n)),
    );
    for (d, deploy) in replay.deploys.iter().enumerate() {
        exact.push((format!("deploy{d}.candidates"), deploy.candidates));
        exact.push((format!("deploy{d}.confirm_scans"), deploy.confirm_scans));
        exact.push((format!("deploy{d}.hits"), deploy.hits));
    }
    exact
}

fn serving_run(workload: Workload, seed: u64, seconds: u64) -> Outcome {
    let ((stream, _), passes) = setup_passes(SETUP_PASSES, |tracer| {
        serving::setup(workload, seed, tracer, false)
    });
    let stream = &stream;
    let oracle = serving::oracle_verdicts(stream);
    let rescans = serving::oracle_rescans(stream);

    let mut replays: Vec<Replay> = Vec::new();
    let started = Instant::now();
    while keep_replaying(replays.len(), started, seconds) {
        replays.push(serving::replay(stream, &oracle, &rescans, None));
    }
    let timed_wall = started.elapsed();

    let scans = scan_indices(stream);
    let floors = floor(&replays.iter().map(|r| &r.lat).collect::<Vec<_>>());
    let scan_ms: Vec<f64> = scans.iter().map(|&i| ms(floors[i])).collect();
    let p50 = percentile(&scan_ms, 50.0);
    let p95 = percentile(&scan_ms, 95.0);
    let floor_s = floors.iter().sum::<u64>() as f64 / 1e9;
    let confusion = detection(stream, &replays[0].flagged);
    let n = scans.len() as f64;

    let exact = serving_exact(&replays[0]);
    let others: Vec<_> = replays[1..].iter().map(serving_exact).collect();
    let repeats = repeats_exactly(&exact, &others) & check_previous_process(workload, seed, &exact);

    let attempted = replays.len() * stream.ops.len();
    let failed: usize = replays.iter().map(|r| r.failed).sum();

    let mut values = Values::default();
    values.set("setup_s", setup_floor_s(&passes));
    values.set("packages_per_s", n / floor_s);
    values.set("latency_p50_ms", p50.value);
    values.set("latency_p95_ms", p95.value);
    values.set("allocs_per_package", replays[0].allocs.0 as f64 / n);
    values.set("alloc_mb_per_package", replays[0].allocs.1 as f64 / MIB / n);
    values.set("detect_recall", confusion.recall());
    values.set("detect_precision", confusion.precision());
    values.set("peak_rss_mb", peak_rss_mb());

    print_support(&Support {
        operations: stream.ops.len(),
        scans: scans.len(),
        replays: replays.len(),
        attempted,
        failed,
        timed_wall,
        replay_wall: replays.iter().map(|r| r.wall).collect(),
        setup_ns: pass_walls(&passes),
        percentiles: vec![("latency_p50_ms", p50), ("latency_p95_ms", p95)],
    });
    print_mix(stream, &replays[0].counters, &confusion);
    print_self_times(&passes[SETUP_PASSES - 1], "last set-up pass");
    Outcome {
        correct: failed == 0 && repeats,
        attempted,
        failed,
        traced: false,
        values,
    }
}

fn serving_trace(workload: Workload, seed: u64) -> Outcome {
    let ((stream, info), passes) =
        setup_passes(1, |tracer| serving::setup(workload, seed, tracer, true));
    let stream = &stream;
    let setup = &passes[0];
    let oracle = serving::oracle_verdicts(stream);
    let rescans = serving::oracle_rescans(stream);

    let untraced: Vec<Replay> = (0..TRACE_REPLAYS)
        .map(|_| serving::replay(stream, &oracle, &rescans, None))
        .collect();
    let mut traced: Vec<(Replay, Tracer, crate::shadow::ShadowCounts)> = Vec::new();
    for _ in 0..TRACE_REPLAYS {
        let mut tracer = Tracer::new();
        let mut state = Traced {
            tracer: &mut tracer,
            shadow: Shadow::new(&stream.rules),
        };
        let replay = serving::replay(stream, &oracle, &rescans, Some(&mut state));
        let counts = state.shadow.counts.clone();
        traced.push((replay, tracer, counts));
    }

    let scans = scan_indices(stream);
    let floors = floor(&untraced.iter().map(|r| &r.lat).collect::<Vec<_>>());
    let traced_floors = floor(&traced.iter().map(|(r, _, _)| &r.lat).collect::<Vec<_>>());
    let scan_ns: Vec<f64> = scans.iter().map(|&i| floors[i] as f64).collect();
    let sum_scans = |f: &[u64]| scans.iter().map(|&i| f[i]).sum::<u64>() as f64;
    // The traced replay whose hub calls were disturbed least.
    let (best, tracer, shadow) = traced
        .iter()
        .min_by_key(|(_, t, _)| t.total("hub.submit_wait"))
        .expect("traced replays");
    let counters = &untraced[0].counters;
    let c = |name: &str| counters.get(name) as f64;
    let share = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    let per = |total_ns: u64, count: u64| share(total_ns as f64, count as f64);
    let mb_per_s = |bytes: u64, ns: u64| share(bytes as f64 * 1e3, ns as f64);
    let spans = tracer.by_name();
    let span_count = |name: &str| spans.get(name).map_or(0, |s| s.0);
    let total = |name: &str| tracer.total(name);

    let mut v = Values::default();
    v.set("hub.requests", scans.len() as f64);
    v.set("hub.submit_wait_ns_p50", percentile(&scan_ns, 50.0).value);
    let shadow_ns: u64 = TOP_LAYERS.iter().map(|name| total(name)).sum();
    v.set(
        "hub.overhead_share",
        1.0 - share(shadow_ns as f64, total("hub.submit_wait") as f64),
    );
    v.set(
        "hub.cache_hit_share",
        share(c("cache_hits"), c("submitted")),
    );
    let looked_up = c("artifact_cache_hits") + c("artifact_parses") + c("incremental_relexes");
    v.set(
        "hub.artifact_hit_share",
        share(c("artifact_cache_hits"), looked_up),
    );
    v.set(
        "hub.splice_share",
        share(
            c("incremental_relexes"),
            c("artifact_parses") + c("incremental_relexes"),
        ),
    );
    v.set(
        "hub.splice_fallback_share",
        share(
            c("splice_fallbacks"),
            c("splice_fallbacks") + c("incremental_relexes"),
        ),
    );
    let skipped = c("yara_rules_skipped") + c("semgrep_rules_skipped");
    v.set(
        "hub.prefilter_skip_share",
        share(
            skipped,
            skipped + c("yara_rules_evaluated") + c("semgrep_rules_evaluated"),
        ),
    );
    v.set("hub.files_built", c("artifact_parses"));
    v.set("hub.files_spliced", c("incremental_relexes"));
    let identical: Vec<f64> = stream
        .ops
        .iter()
        .zip(&floors)
        .filter(|(op, _)| matches!(op, Op::Scan(s) if s.kind == Kind::Identical))
        .map(|(_, &ns)| ns as f64)
        .collect();
    if !identical.is_empty() {
        v.set(
            "cache.verdict_hit_ns_p50",
            percentile(&identical, 50.0).value,
        );
    }

    v.set(
        "artifact.build_ns_per_file",
        per(total("artifact.build"), shadow.full_builds),
    );
    v.set(
        "artifact.build_mb_per_s",
        mb_per_s(shadow.built_bytes, total("artifact.build")),
    );
    v.set(
        "pysrc.lex_mb_per_s",
        mb_per_s(shadow.python_built_bytes, total("pysrc.lex")),
    );
    v.set(
        "pysrc.parse_mb_per_s",
        mb_per_s(shadow.python_built_bytes, total("pysrc.parse")),
    );
    v.set(
        "pysrc.intern_ns_per_file",
        per(total("pysrc.intern"), shadow.python_built),
    );
    v.set(
        "dataflow.analyze_ns_per_file",
        per(total("dataflow.analyze"), shadow.python_built),
    );
    v.set(
        "yara.collect_hits_mb_per_s",
        mb_per_s(shadow.built_bytes, total("yara.collect_hits")),
    );
    v.set(
        "digest.sha256_mb_per_s",
        mb_per_s(shadow.digest_bytes, total("digest.sha256")),
    );
    v.set("artifact.layers_decoded", c("layers_decoded"));
    v.set(
        "artifact.bytes_resident_mb",
        untraced[0].resident_bytes as f64 / MIB,
    );
    v.set(
        "artifact.splice_ns_per_file",
        per(total("artifact.splice"), span_count("artifact.splice")),
    );
    v.set(
        "prefilter.route_ns_per_package",
        per(total("prefilter.route"), shadow.routed_packages),
    );
    v.set(
        "yara.eval_hits_ns_per_package",
        per(total("yara.eval_hits"), span_count("yara.eval_hits")),
    );
    v.set(
        "semgrep.walk_ns_per_file",
        per(total("semgrep.walk"), shadow.walked_files),
    );
    v.set("semgrep.stmts_visited", c("semgrep_stmts_visited"));
    v.set("textmatch.dfa_scans", c("textmatch_dfa_scans"));
    v.set(
        "textmatch.pikevm_fallbacks",
        c("textmatch_pikevm_fallbacks"),
    );
    v.set(
        "textmatch.teddy_verify_share",
        share(
            c("textmatch_teddy_chunks_verified"),
            c("textmatch_teddy_chunks_classified"),
        ),
    );

    // Deployments: floors over the untraced replays.
    let deployments = untraced[0].deploys.len();
    if deployments > 0 {
        let floor_of = |f: &dyn Fn(&serving::DeployTiming) -> u64| -> Vec<f64> {
            (0..deployments)
                .map(|d| {
                    ms(untraced
                        .iter()
                        .map(|r| f(&r.deploys[d]))
                        .min()
                        .expect("replays"))
                })
                .collect()
        };
        v.set("retro.deploy_rules_ms", median(&floor_of(&|d| d.deploy_ns)));
        v.set("retro.hunt_ms", median(&floor_of(&|d| d.hunt_ns)));
        v.set(
            "deploy_p50_ms",
            median(&floor_of(&|d| d.deploy_ns + d.hunt_ns)),
        );
        let sum = |f: &dyn Fn(&serving::DeployTiming) -> u64| {
            untraced[0].deploys.iter().map(f).sum::<u64>() as f64
        };
        v.set(
            "retro.candidates_per_hunt",
            sum(&|d| d.candidates) / deployments as f64,
        );
        v.set(
            "retro.confirm_scans_per_hunt",
            sum(&|d| d.confirm_scans) / deployments as f64,
        );
        v.set(
            "retro.candidate_precision",
            share(sum(&|d| d.hits), sum(&|d| d.candidates)),
        );
        v.set(
            "prefilter.diff_ms",
            ms(total("prefilter.diff")) / span_count("prefilter.diff").max(1) as f64,
        );
    }

    set_setup_layers(&mut v, setup, info.mutants, info.ingested_bytes);
    v.set("rulellm.rules_aligned", info.rules_aligned as f64);
    v.set("rulellm.rules_dropped", info.rules_dropped as f64);
    v.set("rulellm.fix_attempts", info.fix_attempts as f64);
    v.set("prefilter.build_ms", ms(setup.total("prefilter.build")));
    let metrics_started = Instant::now();
    let confusion = detection(stream, &untraced[0].flagged);
    v.set(
        "eval.metrics_ms",
        metrics_started.elapsed().as_nanos() as f64 / 1e6,
    );
    v.set(
        "trace_overhead_share",
        sum_scans(&traced_floors) / sum_scans(&floors) - 1.0,
    );
    v.set(
        "trace.spans",
        (tracer.spans().len() + setup.spans().len()) as f64,
    );

    // The shadow is only an explanation of the hub if it took the same
    // cache decisions.
    let mirror = [
        (shadow.verdict_hits, best.counters.get("cache_hits")),
        (
            shadow.artifact_hits,
            best.counters.get("artifact_cache_hits"),
        ),
        (shadow.full_builds, best.counters.get("artifact_parses")),
        (shadow.splices, best.counters.get("incremental_relexes")),
        (
            shadow.splice_fallbacks,
            best.counters.get("splice_fallbacks"),
        ),
    ];
    let mirrored = mirror.iter().all(|(ours, hubs)| ours == hubs);
    v.set("hub.shadow_mirror_ok", f64::from(u8::from(mirrored)));
    if !mirrored {
        println!("shadow decisions differ from the hub's (shadow, hub): {mirror:?}");
    }

    let dir = out_dir();
    write_spans(
        setup,
        &dir.join(format!("{}.setup.spans.json", workload.name())),
    );
    write_spans(tracer, &dir.join(format!("{}.spans.json", workload.name())));
    print_self_times(tracer, "traced replay");
    print_self_times(setup, "set-up");
    println!(
        "layer self times under `shadow` sum to {:.1} % of hub.submit_wait; the rest is hub.overhead_share",
        100.0 * share(shadow_ns as f64, total("hub.submit_wait") as f64)
    );
    print_mix(stream, counters, &confusion);

    let all: Vec<&Replay> = untraced
        .iter()
        .chain(traced.iter().map(|(r, _, _)| r))
        .collect();
    let attempted = all.len() * stream.ops.len();
    let failed: usize = all.iter().map(|r| r.failed).sum();
    Outcome {
        correct: failed == 0 && mirrored,
        attempted,
        failed,
        traced: true,
        values: v,
    }
}

/// Layer metrics read off the set-up spans; the same for every
/// workload, because every set-up generates a corpus and runs RuleLLM.
fn set_setup_layers(v: &mut Values, setup: &Tracer, mutants: usize, ingested_bytes: u64) {
    let total = |name: &str| setup.total(name);
    v.set("corpus.generate_ms", ms(total("corpus.generate")));
    if mutants > 0 {
        v.set(
            "obfuscate.mutate_ms_per_package",
            ms(total("obfuscate.mutate")) / mutants as f64,
        );
    }
    v.set(
        "registry.unpack_mb_per_s",
        ingested_bytes as f64 * 1e3 / total("registry.ingest").max(1) as f64,
    );
    v.set("rulellm.extract_s", total("rulellm.extract") as f64 / 1e9);
    let embeds = setup.durations("embedding.embed_source");
    if !embeds.is_empty() {
        v.set(
            "embedding.embed_ms_per_package",
            ms(embeds.iter().sum()) / embeds.len() as f64,
        );
    }
    v.set("cluster.fit_ms", ms(total("cluster.fit")));
    v.set(
        "rulellm.generate_s",
        total("rulellm.run_again").saturating_sub(total("rulellm.extract")) as f64 / 1e9,
    );
    let completions: Vec<f64> = setup
        .durations("llmsim.complete")
        .iter()
        .map(|&ns| ns as f64 / 1e3)
        .collect();
    if !completions.is_empty() {
        v.set(
            "llmsim.complete_us_p50",
            percentile(&completions, 50.0).value,
        );
    }
    v.set("yara.compile_ms", ms(total("yara.compile")));
    v.set("semgrep.compile_ms", ms(total("semgrep.compile")));
}

// -------------------------------------------------------- paper_pipeline

/// Per-phase minimum over replays, in `pipeline::PHASES` order.
fn phase_floors(replays: &[pipeline::Replay]) -> [u64; 4] {
    let mut floors = [u64::MAX; 4];
    for replay in replays {
        for (slot, &ns) in floors.iter_mut().zip(&replay.phases) {
            *slot = (*slot).min(ns);
        }
    }
    floors
}

/// Targets whose matches differ from the oracle's, over all replays; a
/// replay whose generated rules differ from the first fails outright.
fn pipeline_failures(
    prepared: &pipeline::Prepared,
    replays: &[pipeline::Replay],
) -> (usize, usize) {
    let expected = pipeline::oracle(prepared, &replays[0]);
    let mut failed = 0;
    for replay in replays {
        if replay.ruleset != replays[0].ruleset {
            failed += expected.len();
            continue;
        }
        failed += replay
            .matches
            .iter()
            .zip(&expected)
            .filter(|(got, want)| got != want)
            .count();
    }
    (replays.len() * expected.len(), failed)
}

fn pipeline_exact(replay: &pipeline::Replay, allocs_repeat: bool) -> Vec<(String, u64)> {
    let mut exact = vec![
        ("rules_aligned".to_owned(), replay.rules_aligned as u64),
        ("rules_dropped".to_owned(), replay.rules_dropped as u64),
        ("fix_attempts".to_owned(), replay.fix_attempts as u64),
        ("llm_completions".to_owned(), replay.llm_completions),
        ("true_positives".to_owned(), replay.true_positives as u64),
        ("false_positives".to_owned(), replay.false_positives as u64),
        ("ruleset_bytes".to_owned(), replay.ruleset.len() as u64),
    ];
    if allocs_repeat {
        exact.push(("allocs".to_owned(), replay.allocs.0));
        exact.push(("alloc_bytes".to_owned(), replay.allocs.1));
    }
    exact
}

fn pipeline_run(seed: u64, seconds: u64) -> Outcome {
    let (prepared, passes) =
        setup_passes(SETUP_PASSES, |tracer| pipeline::setup(seed, tracer, false));
    let prepared = &prepared;
    let mut replays: Vec<pipeline::Replay> = Vec::new();
    let started = Instant::now();
    while keep_replaying(replays.len(), started, seconds) {
        replays.push(pipeline::replay(prepared, None, None));
    }
    let timed_wall = started.elapsed();
    let (attempted, failed) = pipeline_failures(prepared, &replays);

    let floors = phase_floors(&replays);
    let pipeline_s = floors.iter().sum::<u64>() as f64 / 1e9;
    let targets = prepared.targets.len() as f64;
    // `scan_all` sizes its worker pool from the machine, so allocation
    // counts repeat exactly only where the pool has a single worker;
    // elsewhere the median over replays is reported and not gated.
    let single_worker = std::thread::available_parallelism().map_or(1, |n| n.get()) == 1;
    let exact = pipeline_exact(&replays[0], single_worker);
    let others: Vec<_> = replays[1..]
        .iter()
        .map(|r| pipeline_exact(r, single_worker))
        .collect();
    let repeats = repeats_exactly(&exact, &others)
        & check_previous_process(Workload::PaperPipeline, seed, &exact);
    let alloc_calls: Vec<f64> = replays.iter().map(|r| r.allocs.0 as f64).collect();
    let alloc_bytes: Vec<f64> = replays.iter().map(|r| r.allocs.1 as f64).collect();

    let mut values = Values::default();
    values.set("setup_s", setup_floor_s(&passes));
    values.set("packages_per_s", targets / pipeline_s);
    // The batch has no per-package completion: both percentiles are the
    // floor cost of the whole pipeline per scan target.
    values.set("latency_p50_ms", 1e3 * pipeline_s / targets);
    values.set("latency_p95_ms", 1e3 * pipeline_s / targets);
    values.set("allocs_per_package", median(&alloc_calls) / targets);
    values.set("alloc_mb_per_package", median(&alloc_bytes) / MIB / targets);
    values.set("detect_recall", replays[0].recall);
    values.set("detect_precision", replays[0].precision);
    values.set("peak_rss_mb", peak_rss_mb());

    let amortised = Percentile {
        value: 1e3 * pipeline_s / targets,
        samples: replays.len(),
        beyond: 0,
    };
    print_support(&Support {
        operations: prepared.targets.len(),
        scans: prepared.targets.len(),
        replays: replays.len(),
        attempted,
        failed,
        timed_wall,
        replay_wall: replays
            .iter()
            .map(|r| Duration::from_nanos(r.phases.iter().sum()))
            .collect(),
        setup_ns: pass_walls(&passes),
        percentiles: vec![("latency_p50_ms", amortised), ("latency_p95_ms", amortised)],
    });
    print_phases(&floors, &replays[0]);
    print_self_times(&passes[SETUP_PASSES - 1], "last set-up pass");
    Outcome {
        correct: failed == 0 && repeats,
        attempted,
        failed,
        traced: false,
        values,
    }
}

fn pipeline_trace(seed: u64) -> Outcome {
    let (prepared, passes) = setup_passes(1, |tracer| pipeline::setup(seed, tracer, true));
    let prepared = &prepared;
    let setup = &passes[0];
    let untraced: Vec<pipeline::Replay> = (0..TRACE_REPLAYS)
        .map(|_| pipeline::replay(prepared, None, None))
        .collect();
    let mut tracer = Tracer::new();
    let traced: Vec<pipeline::Replay> = (0..TRACE_REPLAYS)
        .map(|_| pipeline::replay(prepared, Some(&mut tracer), None))
        .collect();
    let floors = phase_floors(&untraced);
    let traced_floors = phase_floors(&traced);
    let pipeline_ns: u64 = floors.iter().sum();

    let mut v = Values::default();
    set_setup_layers(&mut v, setup, 0, prepared.ingested_bytes);
    v.set("rulellm.rules_aligned", untraced[0].rules_aligned as f64);
    v.set("rulellm.rules_dropped", untraced[0].rules_dropped as f64);
    v.set("rulellm.fix_attempts", untraced[0].fix_attempts as f64);
    v.set("pipeline.rulellm_s", floors[0] as f64 / 1e9);
    v.set("pipeline.compile_ms", ms(floors[1]));
    v.set("eval.scan_all_s", floors[2] as f64 / 1e9);
    v.set("eval.metrics_ms", ms(floors[3]));
    v.set("pipeline_s", pipeline_ns as f64 / 1e9);
    v.set(
        "trace_overhead_share",
        traced_floors.iter().sum::<u64>() as f64 / pipeline_ns as f64 - 1.0,
    );
    v.set(
        "trace.spans",
        (tracer.spans().len() + setup.spans().len()) as f64,
    );
    // No hub call is shadowed here, so there is nothing to mismatch.
    v.set("hub.shadow_mirror_ok", 1.0);

    let dir = out_dir();
    let name = Workload::PaperPipeline.name();
    write_spans(setup, &dir.join(format!("{name}.setup.spans.json")));
    write_spans(&tracer, &dir.join(format!("{name}.spans.json")));
    print_self_times(&tracer, "traced replays");
    print_self_times(setup, "set-up");
    print_phases(&floors, &untraced[0]);

    let all: Vec<pipeline::Replay> = untraced.into_iter().chain(traced).collect();
    let (attempted, failed) = pipeline_failures(prepared, &all);
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        traced: true,
        values: v,
    }
}

// ------------------------------------------------------------- exactness

/// Whether every later replay measured exactly the first replay's
/// values; prints each one that did not.
fn repeats_exactly(first: &[(String, u64)], others: &[Vec<(String, u64)>]) -> bool {
    let mut same = true;
    for (k, other) in others.iter().enumerate() {
        for ((name, a), (_, b)) in first.iter().zip(other) {
            if a != b {
                println!(
                    "DIFFERS BETWEEN RUNS: {name} = {a} in replay 0, {b} in replay {}",
                    k + 1
                );
                same = false;
            }
        }
        same &= first.len() == other.len();
    }
    same
}

/// Compares this run's exact values with those the previous process
/// recorded for the same executable, workload and seed, then records
/// this run's. Returns false (after printing `DIFFERS BETWEEN RUNS`)
/// when a value that must repeat exactly did not.
fn check_previous_process(workload: Workload, seed: u64, exact: &[(String, u64)]) -> bool {
    let fingerprint = std::env::current_exe()
        .and_then(std::fs::metadata)
        .map(|m| {
            let modified = m
                .modified()
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                .map_or(0, |d| d.as_nanos());
            format!("{}-{modified}", m.len())
        })
        .unwrap_or_default();
    let path = out_dir()
        .join("exact")
        .join(format!("{}.seed{seed}.json", workload.name()));
    let mut same = true;
    if let Some(previous) = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| jsonmini::parse(&text).ok())
    {
        if previous["executable"] == fingerprint.as_str() {
            for (name, value) in exact {
                let before = previous["values"][name.as_str()].as_f64();
                if before != Some(*value as f64) {
                    println!(
                        "DIFFERS BETWEEN RUNS: {name} = {value}, the previous process measured {before:?}"
                    );
                    same = false;
                }
            }
        }
    }
    let mut values = jsonmini::Value::object();
    for (name, value) in exact {
        values.insert(name.clone(), *value as f64);
    }
    let mut record = jsonmini::Value::object();
    record.insert("executable", fingerprint);
    record.insert("values", values);
    let written = std::fs::create_dir_all(path.parent().expect("exact dir"))
        .and_then(|()| std::fs::write(&path, record.to_string_pretty()));
    if let Err(e) = written {
        println!("could not record exact values in {}: {e}", path.display());
    }
    same
}

// -------------------------------------------------------------- printing

struct Support {
    operations: usize,
    scans: usize,
    replays: usize,
    attempted: usize,
    failed: usize,
    timed_wall: Duration,
    replay_wall: Vec<Duration>,
    setup_ns: Vec<u64>,
    percentiles: Vec<(&'static str, Percentile)>,
}

fn print_support(s: &Support) {
    println!(
        "operations: {} attempted · {} succeeded · {} failed  (K = {} replays × N = {} operations, {} of them scans)",
        s.attempted,
        s.attempted - s.failed,
        s.failed,
        s.replays,
        s.operations,
        s.scans
    );
    let walls: Vec<String> = s
        .replay_wall
        .iter()
        .map(|w| format!("{:.2}", w.as_secs_f64()))
        .collect();
    println!(
        "timed phase: {:.1} s wall; per replay [{}] s",
        s.timed_wall.as_secs_f64(),
        walls.join(" ")
    );
    let setups: Vec<String> = s
        .setup_ns
        .iter()
        .map(|&ns| format!("{:.3}", ns as f64 / 1e9))
        .collect();
    println!(
        "set-up passes: [{}] s wall (setup_s sums each span's minimum self time over the passes)",
        setups.join(" ")
    );
    for (name, p) in &s.percentiles {
        println!(
            "{name}: {} samples, {} beyond{}",
            p.samples,
            p.beyond,
            if name.ends_with("p50_ms") || p.supported() {
                ""
            } else {
                "  (fewer than ten beyond: amortised figure, not a tail)"
            }
        );
    }
}

fn print_mix(stream: &Stream, counters: &Counters, confusion: &Confusion) {
    let kinds = [Kind::Fresh, Kind::Identical, Kind::Bump, Kind::Replace];
    let mix: Vec<String> = kinds
        .iter()
        .map(|k| {
            format!(
                "{:?} {}",
                k,
                stream.scans().filter(|s| s.kind == *k).count()
            )
        })
        .collect();
    let deploys = stream
        .ops
        .iter()
        .filter(|op| matches!(op, Op::Deploy(_)))
        .count();
    println!(
        "stream: {} prewarmed · {} · {} deployments · rules {} YARA + {} Semgrep",
        stream.prewarm.len(),
        mix.join(" · "),
        deploys,
        stream.rules.yara.rules.len(),
        stream.rules.semgrep.rules.len()
    );
    println!(
        "detection: tp {} fp {} tn {} fn {}",
        confusion.tp, confusion.fp, confusion.tn, confusion.fn_
    );
    let shown: Vec<String> = COUNTERS
        .iter()
        .zip(counters.0)
        .filter(|(_, n)| *n > 0)
        .map(|(name, n)| format!("{name}={n}"))
        .collect();
    println!("hub counters (timed phase): {}", shown.join(" "));
}

fn print_phases(floors: &[u64; 4], replay: &pipeline::Replay) {
    for (name, ns) in pipeline::PHASES.iter().zip(floors) {
        println!(
            "phase {name:<22} {:>10.3} ms (minimum over replays)",
            ms(*ns)
        );
    }
    println!(
        "rules: {} aligned · {} dropped · {} fix attempts · {} completions; detection tp {} fp {}",
        replay.rules_aligned,
        replay.rules_dropped,
        replay.fix_attempts,
        replay.llm_completions,
        replay.true_positives,
        replay.false_positives
    );
}

fn print_self_times(tracer: &Tracer, title: &str) {
    println!("spans of the {title}: name · count · total ms · self ms");
    for (name, (count, total, self_ns)) in tracer.by_name() {
        println!(
            "  {name:<26} {count:>7} {:>12.3} {:>12.3}",
            ms(total),
            ms(self_ns)
        );
    }
}

fn write_spans(tracer: &Tracer, path: &std::path::Path) {
    match tracer.write_json(path) {
        Ok(()) => println!(
            "{} spans written to {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => println!("could not write {}: {e}", path.display()),
    }
}

/// The metric table, by name with unit.
pub fn print(workload: Workload, outcome: &Outcome) {
    println!(
        "{} · {} metrics",
        workload.name(),
        if outcome.traced {
            "per-layer"
        } else {
            "end-to-end"
        }
    );
    for (name, unit, value) in outcome.rows() {
        let note = if outcome.traced {
            PER_LAYER
                .iter()
                .find(|l| l.name == name)
                .map_or(String::new(), |l| format!("{} is better", l.better))
        } else {
            END_TO_END
                .iter()
                .find(|m| m.name == name)
                .map_or(String::new(), |m| {
                    format!("{} is better, bound {:.0} %", m.better, 100.0 * m.bound)
                })
        };
        println!("  {name:<34} {value:>16.4} {unit:<6} {note}");
    }
    println!(
        "correct {} · attempted {} · failed {}",
        outcome.correct, outcome.attempted, outcome.failed
    );
}
