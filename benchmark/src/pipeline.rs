//! The `paper_pipeline` workload: the offline path `corpus → rulellm →
//! eval`, through the same functions the repro binary calls.

use std::time::Instant;

use corpus::Dataset;
use eval::scan::{ScanTarget, TargetMatches};
use rulellm::PipelineConfig;
use scanhub::{HubConfig, ScanHub};
use semgrep_engine::CompiledSemgrepRules;
use yara_engine::CompiledRules;

use crate::inputs::{fresh_copy, ingest, pipeline_dataset};
use crate::trace::Tracer;
use crate::{alloc, rulegen};

pub const PHASES: [&str; 4] = [
    "rulellm.run",
    "eval.compile_output",
    "eval.scan_all",
    "eval.metrics",
];

pub struct Prepared {
    pub dataset: Dataset,
    pub targets: Vec<ScanTarget>,
    pub ingested_bytes: u64,
}

pub struct Replay {
    /// Nanoseconds per phase, in [`PHASES`] order.
    pub phases: [u64; 4],
    pub rules: (CompiledRules, CompiledSemgrepRules),
    /// Text of every generated rule: must be the same in every replay.
    pub ruleset: String,
    pub matches: Vec<TargetMatches>,
    pub recall: f64,
    pub precision: f64,
    pub true_positives: usize,
    pub false_positives: usize,
    pub rules_aligned: usize,
    pub rules_dropped: usize,
    pub fix_attempts: usize,
    pub llm_completions: u64,
    pub allocs: (u64, u64),
}

/// Set-up: the corpus from the seed, every package through the
/// registry format into scan targets, and one warm-up pass of the
/// whole pipeline (untimed, so lazy statics and allocator arenas are
/// warm before the first replay).
pub fn setup(seed: u64, tracer: &mut Tracer, detail: bool) -> Prepared {
    let setup = tracer.open("setup", None, 0);
    let root = Some(setup);
    let dataset = tracer.time("corpus.generate", root, 0, || pipeline_dataset(seed));
    let mut ingested_bytes = 0u64;
    let targets = tracer.time("registry.ingest", root, 0, || {
        let mut targets = Vec::new();
        let unique = dataset.unique_malware();
        let packages = unique
            .iter()
            .map(|m| (&m.package, true, Some(m.family_id)))
            .chain(dataset.legit.iter().map(|l| (&l.package, false, None)));
        for (package, is_malicious, family) in packages {
            ingested_bytes += package
                .files()
                .iter()
                .map(|f| f.contents.len() as u64)
                .sum::<u64>();
            targets.push(ScanTarget {
                index: targets.len(),
                request: ingest(package),
                is_malicious,
                family,
            });
        }
        targets
    });
    if detail {
        let unique: Vec<&oss_registry::Package> = dataset
            .unique_malware()
            .into_iter()
            .map(|m| &m.package)
            .collect();
        // The run the shadow explains, with each rule compiler timed
        // on its own.
        rulegen::generate(&unique, tracer, root);
        rulegen::shadow(&unique, tracer, root);
    }
    let prepared = Prepared {
        dataset,
        targets,
        ingested_bytes,
    };
    std::hint::black_box(replay(&prepared, Some(&mut *tracer), root).recall);
    tracer.close(setup);
    prepared
}

/// One pass of the pipeline, one timing (and optionally one span under
/// `parent`) per phase.
pub fn replay(prepared: &Prepared, mut tracer: Option<&mut Tracer>, parent: Option<u32>) -> Replay {
    // Fresh file entries: see `inputs::fresh_copy`.
    let targets: Vec<ScanTarget> = prepared
        .targets
        .iter()
        .map(|t| ScanTarget {
            request: fresh_copy(&t.request),
            ..t.clone()
        })
        .collect();
    let root = tracer.as_mut().map(|t| t.open("pipeline", parent, 0));
    let allocs_before = alloc::totals();
    let mut phases = [0u64; 4];
    let output = phase(&mut tracer, root, &mut phases, 0, || {
        eval::experiments::run_rulellm(&prepared.dataset, PipelineConfig::full())
    });
    let rules = phase(&mut tracer, root, &mut phases, 1, || {
        eval::experiments::compile_output(&output)
    });
    let matches = phase(&mut tracer, root, &mut phases, 2, || {
        eval::scan::scan_all(Some(&rules.0), Some(&rules.1), &targets)
    });
    let confusion = phase(&mut tracer, root, &mut phases, 3, || {
        eval::experiments::confusion_at(&matches, &targets, 1)
    });
    let allocs_after = alloc::totals();
    if let (Some(t), Some(root)) = (tracer.as_mut(), root) {
        t.close(root);
    }

    Replay {
        phases,
        rules,
        ruleset: output.yara_ruleset()
            + &output
                .semgrep
                .iter()
                .map(|r| r.text.as_str())
                .collect::<String>(),
        matches,
        recall: confusion.recall(),
        precision: confusion.precision(),
        true_positives: confusion.tp,
        false_positives: confusion.fp,
        rules_aligned: output.stats.aligned_ok,
        rules_dropped: output.stats.dropped,
        fix_attempts: output.stats.fix_attempts,
        llm_completions: output.stats.llm_completions,
        allocs: (
            allocs_after.0 - allocs_before.0,
            allocs_after.1 - allocs_before.1,
        ),
    }
}

/// Ground truth for the scan phase: an exhaustive one-worker hub (no
/// prefilter, no caches) under `scan_all`'s configuration (surface
/// only, no taint engine) over the reference replay's rules.
pub fn oracle(prepared: &Prepared, reference: &Replay) -> Vec<TargetMatches> {
    let hub = ScanHub::new(
        Some(reference.rules.0.clone()),
        Some(reference.rules.1.clone()),
        HubConfig {
            workers: 1,
            prefilter: false,
            cache_capacity: 0,
            artifact_cache_capacity: 0,
            max_decode_depth: 0,
            dataflow: false,
            ..HubConfig::default()
        },
    );
    prepared
        .targets
        .iter()
        .map(|t| {
            let v = hub.submit(fresh_copy(&t.request)).wait();
            TargetMatches {
                yara: v.yara,
                semgrep: v.semgrep,
            }
        })
        .collect()
}

/// Times `work` as phase `index` (and as a span when traced).
fn phase<T>(
    tracer: &mut Option<&mut Tracer>,
    root: Option<u32>,
    phases: &mut [u64; 4],
    index: usize,
    work: impl FnOnce() -> T,
) -> T {
    let span = tracer.as_mut().map(|t| t.open(PHASES[index], root, 0));
    let start = Instant::now();
    let out = work();
    phases[index] = start.elapsed().as_nanos() as u64;
    if let (Some(t), Some(span)) = (tracer.as_mut(), span) {
        t.close(span);
    }
    out
}
