//! Hub metrics, each declared once.
//!
//! Two tables are the catalog. `hub_metrics!` lists every service
//! counter, every gauge [`HubStats`] carries and every `textmatch` tier
//! counter (field, exported series, help text, when `Display` shows it)
//! and generates the live atomics, their snapshot, the [`HubStats`]
//! fields and the rows the exporters and `Display` iterate. `stages!`
//! lists every stage once — a request lap (a nested one names its
//! parent), a hub sample, or a build step that only tags the allocation
//! ledger — and generates [`Stage`] and `Stage::ALL`, [`StageNanos`] and
//! its disjoint `total()`, [`StageLatencies`], both `named()` views and
//! the hub's histogram set. Every timing on the serving path is a
//! [`StageClock`] lap naming the stage it enters; it books the time
//! since the previous lap into the stage the thread's tag names.
//! Adding a counter or a stage is one table row plus its increment or
//! lap site; the scan path itself only ever touches plain relaxed
//! atomics and the hub's own histograms. Both exporters render the one
//! list [`HubTelemetry::series`] builds from a [`HubStats`] snapshot at
//! export time. (The three occupancy gauges that are not `HubStats`
//! fields are listed there, their only use.)

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use telemetry::{FlightRecorder, Histogram, HistogramSnapshot, Sample, Series};
use textmatch::EngineCounters;

use crate::cache::DigestKey;
use crate::request::ScanRequest;
use crate::trace::TraceRecord;
use crate::verdict::Verdict;

/// When `Display` prints a row: always, or only once the feature it
/// belongs to has seen activity (so idle groups do not pad the table).
#[derive(Clone, Copy)]
enum Shown {
    Always,
    /// The value is not zero.
    NonZero,
    /// At least one splice was attempted.
    Spliced,
    /// At least one retro-hunt ran.
    Hunted,
    /// The `textmatch` tiers scanned something.
    Matched,
}

/// One counter or gauge as its table row declares it, with its value.
struct MetricRow {
    name: &'static str,
    series: &'static str,
    help: &'static str,
    shown: Shown,
    gauge: bool,
    value: u64,
}

macro_rules! hub_metrics {
    (
        counters { $($(#[$doc:meta])* $field:ident: $series:literal, $help:literal, $shown:ident;)* }
        gauges { $($(#[$gdoc:meta])* $gauge:ident: $gseries:literal, $ghelp:literal, $gshown:ident;)* }
        engine { $($tier:ident: $tseries:literal, $thelp:literal;)* }
    ) => {
        /// Lock-free counters updated by the submission path and the workers.
        #[derive(Debug, Default)]
        pub(crate) struct HubCounters {
            $(pub $field: AtomicU64,)*
        }

        impl HubCounters {
            /// The counters as of now; the gauges, matching-tier counters
            /// and percentiles are overlaid by [`crate::ScanHub::stats`].
            pub fn snapshot(&self) -> HubStats {
                HubStats {
                    $($field: self.$field.load(Ordering::Relaxed),)*
                    ..HubStats::default()
                }
            }
        }

        /// A point-in-time snapshot of the hub's counters.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct HubStats {
            $($(#[$doc])* pub $field: u64,)*
            $($(#[$gdoc])* pub $gauge: u64,)*
            /// Matching-tier counters from the `textmatch` engine (Teddy
            /// prefilter, lazy DFA, Pike VM / Aho-Corasick fallbacks).
            /// Process-global (the tiers run inside per-scan hot loops with no
            /// hub handle) and monotonic, unlike the per-hub counters above:
            /// two hubs in one process report the same values.
            pub engine: EngineCounters,
            /// Per-stage latency percentiles (zeroed when telemetry is off).
            pub latency: StageLatencies,
        }

        impl HubStats {
            /// Every table row with its current value, in table order.
            fn rows(&self) -> Vec<MetricRow> {
                let row = |name, series, help, shown, gauge, value| MetricRow {
                    name,
                    series,
                    help,
                    shown,
                    gauge,
                    value,
                };
                vec![
                    $(row(stringify!($field), $series, $help, Shown::$shown, false, self.$field),)*
                    $(row(stringify!($gauge), $gseries, $ghelp, Shown::$gshown, true, self.$gauge),)*
                    $(row(stringify!($tier), $tseries, $thelp, Shown::Matched, false, self.engine.$tier),)*
                ]
            }
        }
    };
}

hub_metrics! {
    counters {
        /// Packages submitted (including cache hits).
        submitted: "scanhub_submitted_total", "Packages submitted", Always;
        /// Packages fully processed (scanned or served from cache).
        completed: "scanhub_completed_total", "Packages fully processed", Always;
        /// Submissions answered from the verdict cache.
        cache_hits: "scanhub_cache_hits_total", "Verdict-cache hits", Always;
        /// Submitted files whose digest was taken from the resident
        /// artifact last published under their name, their bytes compared
        /// equal to its bytes instead of hashed.
        digests_reused: "scanhub_digests_reused_total", "Submitted file digests taken from a byte-equal resident sibling", Always;
        /// Total buffer bytes run through scanners (cache hits excluded).
        bytes_scanned: "scanhub_bytes_scanned_total", "Buffer bytes scanned", Always;
        /// File entries analyzed from scratch (lex + parse + string intern +
        /// layer decode + ruleset byte scan). Across a hub run over N
        /// package versions this must equal the number of **unique file
        /// digests** — the parse-once contract of the artifact cache.
        artifact_parses: "scanhub_artifact_parses_total", "File entries analyzed from scratch", Always;
        /// File entries served by the content-addressed artifact cache
        /// (no lexing, parsing or byte scanning performed).
        artifact_cache_hits: "scanhub_artifact_cache_hits_total", "File entries served from the artifact cache", Always;
        /// Artifact-cache misses resolved by splicing the edit into a
        /// cached sibling (a previous version of the same file) — only the
        /// changed window was re-lexed, only the statements intersecting it
        /// re-parsed. A spliced artifact is byte-for-byte identical to a
        /// full build; these subtract from `artifact_parses`' full-reparse
        /// cost, not from its correctness contract.
        incremental_relexes: "scanhub_incremental_relexes_total", "Artifacts built by diff-and-splice against a cached sibling", Spliced;
        /// Splice attempts that had a Python sibling but bailed to a full
        /// build (suite-level edit, unterminated construct at the window
        /// end, edit bigger than half the file, non-UTF-8 content).
        /// Misses with no sibling — first sight of a path — are not
        /// attempts and are not counted here.
        splice_fallbacks: "scanhub_splice_fallbacks_total", "Splice attempts that fell back to a full reparse", Spliced;
        /// Bytes of new content covered by incremental relex windows; the
        /// gap to the spliced files' total size is lexing the splice path
        /// avoided.
        relexed_bytes: "scanhub_relexed_bytes_total", "Bytes re-lexed by incremental splice windows", Spliced;
        /// Decoded payload layers extracted while building artifacts.
        layers_decoded: "scanhub_layers_decoded_total", "Decoded payload layers extracted", Always;
        /// Bytes of decoded-layer content run through the YARA string scan
        /// at artifact-build time.
        layer_bytes_scanned: "scanhub_layer_bytes_scanned_total", "Decoded-layer bytes run through the YARA string scan", Always;
        /// Taint analyses run at artifact-build time: passes of the engine.
        /// Across a hub run this plus `taint_carried` equals the number of
        /// unique **Python** file digests — the once-per-digest contract
        /// extends to the behavior engine.
        taint_analyses: "scanhub_taint_analyses_total", "Taint analyses run at artifact-build time", Always;
        /// Taint summaries a splice carried from its sibling instead of
        /// running the engine, because the edit only binds literals to
        /// names nothing else reads ([`dataflow::analyze_spliced`]).
        taint_carried: "scanhub_taint_carried_total", "Taint summaries a splice carried from its sibling", Spliced;
        /// Semgrep products a splice carried from its sibling: the leaf
        /// matches outside the edit moved, only the inserted statements
        /// walked ([`semgrep_engine::MatchSet::file_matches`]). Across a hub
        /// run with Semgrep rules this equals `incremental_relexes`.
        semgrep_carried: "scanhub_semgrep_carried_total", "Semgrep matches a splice carried from its sibling", Spliced;
        /// Source→sink flows found by those analyses (per unique digest,
        /// not per request).
        flows_found: "scanhub_flows_found_total", "Source-to-sink taint flows found", Always;
        /// Constant strings the fold pass rebuilt into synthetic layers.
        consts_folded: "scanhub_consts_folded_total", "Constant strings folded into synthetic layers", Always;
        /// YARA rule condition evaluations performed.
        yara_rules_evaluated: "scanhub_yara_rules_evaluated_total", "YARA condition evaluations", Always;
        /// YARA rule evaluations avoided by the literal prefilter.
        yara_rules_skipped: "scanhub_yara_rules_skipped_total", "YARA evaluations skipped by the prefilter", Always;
        /// Packages whose YARA pass was skipped entirely (no rule routed).
        yara_scans_skipped: "scanhub_yara_scans_skipped_total", "Packages whose YARA pass was skipped entirely", Always;
        /// YARA regex string definitions the scanner actually evaluated.
        regex_strings_evaluated: "scanhub_regex_strings_evaluated_total", "YARA regex string definitions evaluated", Always;
        /// Haystack bytes read by the regex engine (each evaluation is one
        /// single-pass scan, so this is buffer length times evaluations).
        regex_bytes_scanned: "scanhub_regex_bytes_scanned_total", "Haystack bytes read by the regex engine", Always;
        /// Semgrep rules a request read the files' fired rules for: the
        /// routed rules of each request with a Python module.
        semgrep_rules_evaluated: "scanhub_semgrep_rules_evaluated_total", "Semgrep rules read from the files' recorded matches", Always;
        /// Always 0: every Semgrep rule is routed, and the walk's anchor
        /// index does the filtering. Kept because the benchmark reads it.
        semgrep_rules_skipped: "scanhub_semgrep_rules_skipped_total", "Semgrep evaluations skipped by the prefilter (always 0)", Always;
        /// Packages whose Semgrep step was skipped: no Python module (or no
        /// routed Semgrep rule) whose recorded matches to read. The hub
        /// never parses for Semgrep; the artifact build parsed each module
        /// already.
        semgrep_parses_skipped: "scanhub_semgrep_parses_skipped_total", "Packages whose Semgrep step was skipped entirely", Always;
        /// Python statements the Semgrep matcher visited recording built
        /// artifacts' matches: every statement of a full build's module,
        /// the inserted ones of a splice's (one walk serves every rule). A
        /// request visits none.
        semgrep_stmts_visited: "scanhub_semgrep_stmts_visited_total", "Python statements visited recording artifacts' Semgrep matches", Always;
        /// Retro-hunt deployments executed ([`crate::ScanHub::retro_hunt`]).
        retro_hunts: "scanhub_retro_hunts_total", "Retro-hunt deployments executed", Hunted;
        /// Digests the retro index nominated as candidates, summed over all
        /// hunts (a digest nominated by two rules counts twice).
        retro_candidates: "scanhub_retro_candidates_total", "Digests nominated by the retro index across all hunts", Hunted;
        /// Digests confirm-scanned by retro-hunts. The gap to a full rescan
        /// (`retro_hunts × digests resident`) is the work the index saved.
        retro_confirm_scans: "scanhub_retro_confirm_scans_total", "Digests confirm-scanned by retro-hunts", Hunted;
        /// Surface and layer bytes confirm scans handed to a string scan
        /// (a changed string the live bundle defines reads cached hits).
        retro_confirm_bytes_scanned: "scanhub_retro_confirm_bytes_scanned_total", "Bytes retro-hunt confirm scans ran through a string scan", Hunted;
    }
    gauges {
        /// Estimated heap bytes of all artifacts resident in the artifact
        /// cache (sum of per-artifact `stored_bytes`). A gauge overlaid at
        /// snapshot time like the retro-index gauges; 0 when the artifact
        /// cache keeps nothing.
        artifact_bytes_resident: "scanhub_artifact_bytes_resident", "Estimated heap bytes of all cache-resident file artifacts", NonZero;
        /// Distinct terms the retro index held (folded content 3-grams
        /// realizing the atom posting lists) as of the last hunt, which
        /// syncs it to the resident artifacts; 0 before the first one, and
        /// when disabled. A rescan does not read the index.
        retro_index_atoms: "scanhub_retro_index_atoms", "Distinct indexed retro-hunt terms (folded content 3-grams) as of the last hunt", Hunted;
        /// Content digests the retro index held as of the last hunt: the
        /// artifacts resident then.
        retro_index_digests: "scanhub_retro_index_digests", "Content digests in the retro-hunt index as of the last hunt", Hunted;
    }
    engine {
        teddy_scans: "textmatch_teddy_scans_total", "Multi-literal scans served by the Teddy prefilter tier";
        teddy_bytes_scanned: "textmatch_teddy_bytes_scanned_total", "Haystack bytes classified by the Teddy SWAR loop";
        teddy_chunks_classified: "textmatch_teddy_chunks_classified_total", "8-start chunks examined by the Teddy classifier";
        teddy_chunks_verified: "textmatch_teddy_chunks_verified_total", "Chunks whose candidate mask required bucket verification";
        ac_fallback_scans: "textmatch_ac_fallback_scans_total", "Multi-literal scans routed to the Aho-Corasick fallback";
        dfa_scans: "textmatch_dfa_scans_total", "Regex scans where the lazy DFA ran";
        dfa_states_built: "textmatch_dfa_states_built_total", "Lazy-DFA states determinized on demand";
        dfa_cache_flushes: "textmatch_dfa_cache_flushes_total", "Bounded-cache overflows that flushed the DFA state table";
        pikevm_fallbacks: "textmatch_pikevm_fallbacks_total", "Scans abandoned by a thrashing DFA and re-run on the Pike VM";
    }
}

impl HubCounters {
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

/// Percentile summary of one latency histogram, in nanoseconds.
///
/// All-`u64` so [`HubStats`] stays `Copy + Eq`. Percentiles come from
/// the hub's log-linear histograms and are within 1/16 relative error
/// of the exact sample (see the `telemetry` crate docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencyStat {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (exact, not bucketed).
    pub sum_ns: u64,
    /// Median.
    pub p50_ns: u64,
    /// 90th percentile.
    pub p90_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// Largest sample (exact).
    pub max_ns: u64,
}

impl LatencyStat {
    /// Extracts the summary from a histogram snapshot.
    pub fn from_snapshot(snap: &HistogramSnapshot) -> Self {
        LatencyStat {
            count: snap.count,
            sum_ns: snap.sum,
            p50_ns: snap.percentile(0.50),
            p90_ns: snap.percentile(0.90),
            p99_ns: snap.percentile(0.99),
            max_ns: snap.max,
        }
    }

    /// Arithmetic mean sample, in nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        ratio(self.sum_ns, self.count)
    }
}

macro_rules! stages {
    // A lap nested in a parent lap is already inside it, so only the
    // others add up to `StageNanos::total`.
    (@disjoint $ns:expr) => { $ns };
    (@disjoint $ns:expr, $parent:ident) => { 0 };
    (
        request { $($(#[$rdoc:meta])* $req:ident: $rvar:ident $(in $parent:ident)?,)* }
        hub { $($(#[$hdoc:meta])* $hub:ident: $hvar:ident,)* }
        steps { $($(#[$sdoc:meta])* $svar:ident,)* }
        wall { $(#[$wdoc:meta])* $wall:ident: $wall_series:literal, $wall_help:literal, }
    ) => {
        const REQUEST_STAGES: usize = [$(stringify!($req)),*].len();
        const ALL_STAGES: usize = REQUEST_STAGES + [$(stringify!($hub)),*].len() + 1;
        const STAGE_TAGS: usize = ALL_STAGES - 1 + [$(stringify!($svar)),*].len();

        /// The serving step a thread is in, kept in one thread-local byte.
        /// A counting allocator books each allocation to
        /// [`Stage::current`], and the hub books the time since its
        /// previous stage lap to it: a request stage into the request's
        /// [`StageNanos`], a hub stage as one histogram sample, a build
        /// step nowhere. Setting it reads no clock and allocates nothing.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        pub enum Stage {
            $($(#[$rdoc])* $rvar,)*
            $($(#[$hdoc])* $hvar,)*
            $($(#[$sdoc])* $svar,)*
        }

        impl Stage {
            /// Every stage, in declaration order (`ALL[s as usize] == s`).
            pub const ALL: [Stage; STAGE_TAGS] =
                [$(Stage::$rvar,)* $(Stage::$hvar,)* $(Stage::$svar,)*];

            /// Books `ns` of this stage: into its `nanos` field (and its
            /// parent's, when nested), as one sample of its histogram, or,
            /// for a build step, nowhere.
            fn book(self, ns: u64, nanos: &mut StageNanos, histograms: &StageHistograms) {
                match self {
                    $(Stage::$rvar => {
                        nanos.$req += ns;
                        $(nanos.$parent += ns;)?
                    })*
                    $(Stage::$hvar => histograms.$hub.record(ns),)*
                    $(Stage::$svar)|* => {}
                }
            }
        }

        /// Wall time spent in each pipeline stage of one request, in
        /// nanoseconds. Stages are disjoint intervals — except the ones
        /// nested inside a parent stage, which [`StageNanos::total`] leaves
        /// out — so the total is at most the request's wall time (the
        /// property suite pins this).
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct StageNanos {
            $($(#[$rdoc])* pub $req: u64,)*
        }

        impl StageNanos {
            /// The stage names in pipeline order, paired with their values.
            pub fn named(&self) -> [(&'static str, u64); REQUEST_STAGES] {
                [$((stringify!($req), self.$req),)*]
            }

            /// Sum over the disjoint stages (≤ the request's wall time).
            pub fn total(&self) -> u64 {
                0 $(+ stages!(@disjoint self.$req $(, $parent)?))*
            }
        }

        /// Latency percentiles for every pipeline stage plus end-to-end wall
        /// time (`scan` = submit-to-verdict, cache hits excluded from the
        /// worker stages but included in `scan` when answered synchronously).
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct StageLatencies {
            $($(#[$rdoc])* pub $req: LatencyStat,)*
            $($(#[$hdoc])* pub $hub: LatencyStat,)*
            $(#[$wdoc])* pub $wall: LatencyStat,
        }

        impl StageLatencies {
            /// Stage names paired with their stats, pipeline order, `scan` last.
            pub fn named(&self) -> [(&'static str, LatencyStat); ALL_STAGES] {
                [
                    $((stringify!($req), self.$req),)*
                    $((stringify!($hub), self.$hub),)*
                    (stringify!($wall), self.$wall),
                ]
            }
        }

        /// One histogram per timed stage plus the wall, owned by the hub.
        #[derive(Default)]
        pub(crate) struct StageHistograms {
            $($req: Histogram,)*
            $($hub: Histogram,)*
            $wall: Histogram,
        }

        impl StageHistograms {
            /// The histograms as exported series, in table order: every
            /// stage as a `stage=` label of one family, then `scan` as its
            /// own.
            fn series(&self) -> [Series<'_>; ALL_STAGES] {
                let stage = |name, hist| Series {
                    name: "scanhub_stage_duration_ns",
                    help: "Per-stage scan pipeline latency in nanoseconds",
                    label: Some(("stage", name)),
                    sample: Sample::Histogram(hist),
                };
                [
                    $(stage(stringify!($req), &self.$req),)*
                    $(stage(stringify!($hub), &self.$hub),)*
                    Series {
                        name: $wall_series,
                        help: $wall_help,
                        label: None,
                        sample: Sample::Histogram(&self.$wall),
                    },
                ]
            }

            /// Records one request's stage laps and wall time. Stages that did
            /// not run (lap 0) stay out of their histograms so per-stage
            /// percentiles describe the stage's actual executions; the trace
            /// keeps the raw zeros.
            fn record(&self, stages: &StageNanos, wall_ns: u64) {
                $(if stages.$req > 0 {
                    self.$req.record(stages.$req);
                })*
                self.$wall.record(wall_ns);
            }

            pub fn latencies(&self) -> StageLatencies {
                let stat = |h: &Histogram| LatencyStat::from_snapshot(&h.snapshot());
                StageLatencies {
                    $($req: stat(&self.$req),)*
                    $($hub: stat(&self.$hub),)*
                    $wall: stat(&self.$wall),
                }
            }
        }
    };
}

stages! {
    request {
        /// Time the job waited to enter, and then sat in, the bounded
        /// submission queue.
        queue: Queue,
        /// Verdict-cache lookup (request digest included) on the submit path.
        cache: Cache,
        /// Artifact get-or-build (lex, parse, string intern, layer decode,
        /// ruleset byte scan — or one cache lookup per file when warm).
        artifact: Artifact,
        /// Incremental diff-and-splice artifact builds. Nested **inside**
        /// `artifact` (a splice is one way a build resolves), so it is
        /// reported but never added to the disjoint-stage total.
        splice: Splice in artifact,
        /// YARA routing from cached hits (reads no byte).
        prefilter: Prefilter,
        /// YARA condition evaluation over the surface hit sets.
        yara: Yara,
        /// Decoded-layer YARA evaluation (per-layer condition checks; the
        /// decode itself is artifact work).
        layers: Layers,
        /// Semgrep: an OR over the rules the files' recorded matches fire.
        semgrep: Semgrep,
        /// Taint-flow aggregation over the cached per-file summaries (the
        /// analysis itself is artifact work, done once per digest).
        dataflow: Dataflow,
        /// Verdict assembly: each finding list sorted, deduplicated and
        /// frozen into one shared allocation.
        verdict: Verdict,
    }
    hub {
        /// Bringing the retro index up to the resident artifacts before a
        /// hunt queries it (one sample per hunt): the evicted digests
        /// dropped, the new ones' grams collected and posted.
        retro_sync: RetroSync,
        /// Retro-hunt index query (one sample per hunt).
        retro_query: RetroQuery,
        /// Retro-hunt confirm scans (one sample per digest scanned): cached
        /// and residual string hits evaluated, then the Semgrep walk.
        retro_confirm: RetroConfirm,
    }
    steps {
        /// Outside any stage: between jobs, between a hunt's confirm
        /// scans, or not a worker.
        Idle,
        /// Lexing a file or a splice window.
        Lex,
        /// Parsing the tokens into a module.
        Parse,
        /// Interning the string-literal table.
        Intern,
        /// Decoding payload layers, folded layers included.
        Decode,
        /// The taint analysis.
        Taint,
        /// The ruleset's string hits on bytes and layers.
        Hits,
        /// Cut points and the artifact itself.
        Assemble,
        /// Recording a built artifact's Semgrep matches.
        Matches,
        /// Publishing an artifact to the store: the cache insert, the
        /// claim's release and the sibling registry.
        Publish,
        /// The verdict-cache insert, the trace and the ticket.
        Complete,
        /// [`crate::ScanHub::deploy_rules`]: the new prefilter index, its
        /// diff against the live one and the changed rules' subsets.
        Deploy,
    }
    wall {
        /// End-to-end submit-to-verdict wall time.
        scan: "scanhub_scan_duration_ns", "End-to-end submit-to-verdict wall time in nanoseconds",
    }
}

thread_local! {
    // Const-initialised and without a destructor, so an allocator may
    // read it.
    static STAGE: Cell<Stage> = const { Cell::new(Stage::Idle) };
}

impl Stage {
    /// The stage this thread is in ([`Stage::Idle`] on a thread being
    /// torn down).
    pub fn current() -> Stage {
        STAGE.try_with(Cell::get).unwrap_or(Stage::Idle)
    }

    /// Enters this stage without booking the time since the last lap: a
    /// phase that does not run hands its time to the next one that does.
    pub(crate) fn enter(self) {
        let _ = STAGE.try_with(|s| s.set(self));
    }

    /// A scope for steps nested in the current stage, which the thread
    /// re-enters when the scope drops.
    pub(crate) fn nested() -> StageScope {
        StageScope(Stage::current())
    }
}

/// See [`Stage::nested`].
pub(crate) struct StageScope(Stage);

impl Drop for StageScope {
    fn drop(&mut self) {
        self.0.enter();
    }
}

/// A request's timing between two threads: its start, its last lap and
/// its stage laps so far.
pub(crate) struct Laps {
    started: Instant,
    last: Instant,
    nanos: StageNanos,
}

/// The only timer of the serving path: one `Instant` origin for a chain
/// of sequential stages. [`StageClock::lap`] books the time since the
/// previous lap to the stage the thread is in (see [`Stage`]), then
/// enters the next one, so the allocation ledger's tag and the timed
/// stage are one piece of state. Untimed (telemetry off), it reads **no
/// clock at all** and only moves the tag.
pub(crate) struct StageClock<'h> {
    timing: Option<(&'h StageHistograms, Laps)>,
}

impl<'h> StageClock<'h> {
    /// Enters `stage`, timing when given the hub's histograms.
    pub fn start(histograms: Option<&'h StageHistograms>, stage: Stage) -> Self {
        let laps = histograms.map(|_| {
            let now = Instant::now();
            Laps {
                started: now,
                last: now,
                nanos: StageNanos::default(),
            }
        });
        Self::resume(histograms, laps, stage)
    }

    /// Enters `stage` with the laps another thread [`StageClock::stop`]ped.
    pub fn resume(
        histograms: Option<&'h StageHistograms>,
        laps: Option<Laps>,
        stage: Stage,
    ) -> Self {
        stage.enter();
        StageClock {
            timing: histograms.zip(laps),
        }
    }

    /// Books the time since the previous lap to the current stage, then
    /// enters `next`.
    pub fn lap(&mut self, next: Stage) {
        if let Some((histograms, laps)) = &mut self.timing {
            let now = Instant::now();
            let ns = now.duration_since(laps.last).as_nanos() as u64;
            laps.last = now;
            Stage::current().book(ns, &mut laps.nanos, histograms);
        }
        next.enter();
    }

    /// The laps so far; `None` when untimed.
    pub fn stop(self) -> Option<Laps> {
        self.timing.map(|(_, laps)| laps)
    }
}

/// Hub-owned metrics: the timing switch, the stage histograms, and the
/// trace flight recorder.
pub(crate) struct HubTelemetry {
    /// Whether stages are timed and traces recorded; counters always run.
    pub enabled: bool,
    pub recorder: FlightRecorder<TraceRecord>,
    pub stages: StageHistograms,
}

impl HubTelemetry {
    pub fn new(enabled: bool, trace_capacity: usize) -> Self {
        HubTelemetry {
            enabled,
            stages: StageHistograms::default(),
            recorder: FlightRecorder::new(trace_capacity),
        }
    }

    /// The stage histograms when telemetry is on: what a [`StageClock`]
    /// needs to time.
    pub fn histograms(&self) -> Option<&StageHistograms> {
        self.enabled.then_some(&self.stages)
    }

    /// Closes out one request — a worker's scan, or with `worker: None` a
    /// verdict-cache hit answered on the submit path: stage laps and wall
    /// time (submit entry to now) into the histograms, then its record
    /// into the flight recorder. No-op — no clock read — when `laps` is
    /// `None` (telemetry off). The record's `seq` is assigned under the
    /// ring lock so ring order and sequence order agree across racing
    /// workers. A record is scalars and a clone of the `verdict` handle,
    /// so recording copies no finding: the [`crate::ScanTrace`], hex
    /// digest and fired-rule list, is built only when the hub is asked
    /// for it ([`TraceRecord::trace`]). `from_cache` says whether this
    /// request was a hit, which the shared verdict does not.
    pub fn complete(
        &self,
        laps: Option<Laps>,
        worker: Option<usize>,
        digest: Option<&DigestKey>,
        request: &ScanRequest,
        verdict: &Arc<Verdict>,
        from_cache: bool,
    ) {
        let Some(laps) = laps else {
            return;
        };
        let wall_ns = laps.started.elapsed().as_nanos() as u64;
        self.stages.record(&laps.nanos, wall_ns);
        self.recorder.record_with(|seq| TraceRecord {
            seq,
            worker,
            digest: digest.copied(),
            files: request.files().len(),
            bytes: request.scan_len() as u64,
            from_cache,
            stages: laps.nanos,
            wall_ns,
            verdict: Arc::clone(verdict),
        });
    }

    /// Every exported series, in the order both exporters render them:
    /// the stage histograms in table order, the `stats` rows in table
    /// order, then the occupancy gauges `stats` does not carry.
    pub fn series(
        &self,
        stats: &HubStats,
        cached_verdicts: usize,
        cached_artifacts: usize,
    ) -> Vec<Series<'_>> {
        let plain = |name, help, sample| Series {
            name,
            help,
            label: None,
            sample,
        };
        let rows = stats.rows().into_iter().map(|row| {
            let sample = if row.gauge {
                Sample::Gauge(row.value as i64)
            } else {
                Sample::Counter(row.value)
            };
            plain(row.series, row.help, sample)
        });
        let occupancy = [
            (
                "scanhub_cached_verdicts",
                "Verdicts currently cached",
                cached_verdicts,
            ),
            (
                "scanhub_cached_artifacts",
                "File artifacts currently cached",
                cached_artifacts,
            ),
            (
                "scanhub_flight_recorder_traces",
                "Scan traces currently held in the flight recorder",
                self.recorder.len(),
            ),
        ]
        .map(|(name, help, value)| plain(name, help, Sample::Gauge(value as i64)));
        let mut series = Vec::from(self.stages.series());
        series.extend(rows);
        series.extend(occupancy);
        series
    }
}

/// Renders nanoseconds at a human scale: `870ns`, `12.4µs`, `3.05ms`,
/// `1.21s`.
pub(crate) fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{:.1}µs", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.2}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

impl fmt::Display for HubStats {
    /// An aligned operator table: the metric rows, derived rates, then
    /// the per-stage latency percentiles (omitted entirely when telemetry
    /// was disabled and no samples exist).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let pct = |f: &mut fmt::Formatter<'_>, name: &str, value: f64| {
            writeln!(f, "  {name:<26} {:>11.1}%", value * 100.0)
        };
        let eng = &self.engine;
        let multi_literal = eng.teddy_scans + eng.ac_fallback_scans > 0;
        writeln!(f, "scanhub stats")?;
        for row in self.rows() {
            let active = match row.shown {
                Shown::Always => true,
                Shown::NonZero => row.value > 0,
                Shown::Spliced => self.incremental_relexes + self.splice_fallbacks > 0,
                Shown::Hunted => self.retro_hunts > 0,
                Shown::Matched => multi_literal || eng.dfa_scans > 0,
            };
            if active {
                writeln!(f, "  {:<26} {:>12}", row.name, row.value)?;
            }
        }
        pct(f, "cache_hit_rate", self.cache_hit_rate())?;
        pct(f, "artifact_hit_rate", self.artifact_hit_rate())?;
        pct(f, "prefilter_skip_rate", self.prefilter_skip_rate())?;
        if multi_literal {
            pct(f, "teddy_tier_rate", eng.teddy_tier_rate())?;
            pct(f, "teddy_skip_rate", eng.teddy_skip_rate())?;
        }
        if eng.dfa_scans > 0 {
            pct(f, "dfa_completion_rate", eng.dfa_completion_rate())?;
        }
        let stages = self.latency.named();
        if stages.iter().any(|(_, s)| s.count > 0) {
            writeln!(
                f,
                "  {:<13} {:>7} {:>10} {:>10} {:>10} {:>10}",
                "latency", "count", "p50", "p90", "p99", "max"
            )?;
            for (name, stat) in stages {
                if stat.count == 0 {
                    continue;
                }
                writeln!(
                    f,
                    "  {name:<13} {:>7} {:>10} {:>10} {:>10} {:>10}",
                    stat.count,
                    fmt_ns(stat.p50_ns),
                    fmt_ns(stat.p90_ns),
                    fmt_ns(stat.p99_ns),
                    fmt_ns(stat.max_ns),
                )?;
            }
        }
        Ok(())
    }
}

impl HubStats {
    /// Fraction of submissions served from the cache.
    pub fn cache_hit_rate(&self) -> f64 {
        ratio(self.cache_hits, self.submitted)
    }

    /// Fraction of rule evaluations (both engines) the prefilter skipped.
    pub fn prefilter_skip_rate(&self) -> f64 {
        let skipped = self.yara_rules_skipped + self.semgrep_rules_skipped;
        let total = skipped + self.yara_rules_evaluated + self.semgrep_rules_evaluated;
        ratio(skipped, total)
    }

    /// How many times over the regex engine re-read each scanned byte
    /// (1.0 = every submitted byte went through exactly one regex pass).
    pub fn regex_read_amplification(&self) -> f64 {
        ratio(self.regex_bytes_scanned, self.bytes_scanned)
    }

    /// Fraction of file entries served from the artifact cache instead
    /// of being re-analyzed.
    pub fn artifact_hit_rate(&self) -> f64 {
        ratio(
            self.artifact_cache_hits,
            self.artifact_cache_hits + self.artifact_parses,
        )
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hub::tests::{hub, request, versioned_body};
    use crate::HubConfig;

    /// The tables check themselves: no series is exported twice, every
    /// timed stage's lap lands in exactly its own view, the stage views
    /// and the exported labels agree on names and order, and the total
    /// counts each lap once.
    #[test]
    fn tables_declare_each_metric_once_and_line_up() {
        let rows = HubStats::default().rows();
        let series: std::collections::HashSet<&str> = rows.iter().map(|r| r.series).collect();
        assert_eq!(series.len(), rows.len(), "a series is exported twice");
        let counters = rows
            .iter()
            .filter(|r| r.series.starts_with("scanhub_") && !r.gauge);
        assert_eq!(counters.count(), 30);

        // Book one distinct bit to every stage; a stage's field or
        // histogram is named like its variant, in snake case.
        let snake = |stage: Stage| {
            let mut name = String::new();
            for c in format!("{stage:?}").chars() {
                if c.is_ascii_uppercase() && !name.is_empty() {
                    name.push('_');
                }
                name.push(c.to_ascii_lowercase());
            }
            name
        };
        let bit = |stage: Stage| 1u64 << stage as u32;
        let (mut nanos, histograms) = (StageNanos::default(), StageHistograms::default());
        for (i, stage) in Stage::ALL.into_iter().enumerate() {
            assert_eq!(stage as usize, i, "`ALL` is in declaration order");
            stage.book(bit(stage), &mut nanos, &histograms);
        }
        let request = nanos.named();
        let latencies = histograms.latencies().named();
        let mut booked_once = 0;
        for stage in Stage::ALL {
            let name = snake(stage);
            let field = request.iter().find(|(n, _)| *n == name);
            let sampled = latencies.iter().find(|(n, _)| *n == name);
            match (field, sampled) {
                (Some(&(_, ns)), Some(_)) => {
                    assert_ne!(ns & bit(stage), 0, "{name} missed its own lap");
                    booked_once += bit(stage);
                }
                (None, Some((_, stat))) => assert_eq!(stat.count, 1, "{name} missed its sample"),
                (None, None) => {} // a build step: a ledger tag only
                (Some(_), None) => panic!("{name} has a field but no histogram"),
            }
        }
        // A nested lap lands in its own field and its parent's, and the
        // total counts it once, through the parent.
        assert_eq!(nanos.total(), booked_once);
        let request: Vec<&str> = request.iter().map(|(n, _)| *n).collect();
        let names: Vec<&str> = latencies.iter().map(|(n, _)| *n).collect();
        assert_eq!(names[..request.len()], request[..], "request stages first");
        assert_eq!(names.last(), Some(&"scan"));

        // Every stage but the last is a `stage=` label of one histogram
        // family, listed in table order; `scan` is its own series.
        let tel = HubTelemetry::new(true, 0);
        let text = telemetry::render_prometheus(&tel.series(&HubStats::default(), 0, 0));
        let mut labels: Vec<&str> = text
            .split("stage=\"")
            .skip(1)
            .map(|rest| rest.split('"').next().expect("closing quote"))
            .collect();
        labels.dedup();
        assert_eq!(labels, names[..names.len() - 1]);
        assert!(text.contains("scanhub_scan_duration_ns_count 0"));
    }

    #[test]
    fn rates_guard_division_by_zero() {
        let stats = HubStats::default();
        assert_eq!(stats.cache_hit_rate(), 0.0);
        assert_eq!(stats.prefilter_skip_rate(), 0.0);
    }

    #[test]
    fn rates_compute() {
        let stats = HubStats {
            submitted: 10,
            cache_hits: 4,
            yara_rules_evaluated: 30,
            yara_rules_skipped: 50,
            semgrep_rules_evaluated: 10,
            semgrep_rules_skipped: 10,
            ..HubStats::default()
        };
        assert!((stats.cache_hit_rate() - 0.4).abs() < 1e-9);
        assert!((stats.prefilter_skip_rate() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn artifact_hit_rate_computes() {
        let stats = HubStats {
            artifact_parses: 25,
            artifact_cache_hits: 75,
            ..HubStats::default()
        };
        assert!((stats.artifact_hit_rate() - 0.75).abs() < 1e-9);
        assert_eq!(HubStats::default().artifact_hit_rate(), 0.0);
    }

    #[test]
    fn fmt_ns_picks_a_human_scale() {
        assert_eq!(fmt_ns(870), "870ns");
        assert_eq!(fmt_ns(12_400), "12.4µs");
        assert_eq!(fmt_ns(3_050_000), "3.05ms");
        assert_eq!(fmt_ns(1_210_000_000), "1.21s");
    }

    #[test]
    fn display_renders_counters_rates_and_percentiles() {
        let mut stats = HubStats {
            submitted: 10,
            completed: 10,
            cache_hits: 4,
            ..HubStats::default()
        };
        let text = stats.to_string();
        assert!(text.contains("submitted"));
        assert!(text.contains("cache_hit_rate"));
        assert!(text.contains("40.0%"));
        // No samples -> the latency table is omitted entirely.
        assert!(!text.contains("p99"));

        stats.latency.scan = LatencyStat {
            count: 6,
            sum_ns: 12_000_000,
            p50_ns: 1_800_000,
            p90_ns: 3_100_000,
            p99_ns: 3_100_000,
            max_ns: 3_200_000,
        };
        let text = stats.to_string();
        assert!(text.contains("p99"));
        assert!(text.contains("scan"));
        assert!(text.contains("1.80ms"));
        // Stages with no samples stay out of the table.
        assert!(!text.contains("\n  queue"));
    }

    #[test]
    fn display_gates_matching_tier_rows_on_activity() {
        let mut stats = HubStats::default();
        let text = stats.to_string();
        assert!(!text.contains("teddy_scans"));
        assert!(!text.contains("dfa_completion_rate"));

        stats.engine = textmatch::EngineCounters {
            teddy_scans: 8,
            teddy_bytes_scanned: 4096,
            teddy_chunks_classified: 512,
            teddy_chunks_verified: 64,
            ac_fallback_scans: 2,
            dfa_scans: 4,
            dfa_states_built: 12,
            dfa_cache_flushes: 1,
            pikevm_fallbacks: 1,
        };
        let text = stats.to_string();
        assert!(text.contains("teddy_scans"));
        assert!(text.contains("teddy_bytes_scanned"));
        assert!(text.contains("pikevm_fallbacks"));
        // 8 of 10 multi-literal scans took the Teddy tier.
        assert!(text.contains("teddy_tier_rate"));
        assert!(text.contains("80.0%"));
        // 448 of 512 chunks skipped verification.
        assert!(text.contains("teddy_skip_rate"));
        assert!(text.contains("87.5%"));
        // 3 of 4 DFA scans completed without Pike VM fallback.
        assert!(text.contains("dfa_completion_rate"));
        assert!(text.contains("75.0%"));
    }

    #[test]
    fn latency_stat_from_snapshot() {
        let hist = telemetry::Histogram::new();
        for v in [100u64, 200, 300, 400, 1_000_000] {
            hist.record(v);
        }
        let stat = LatencyStat::from_snapshot(&hist.snapshot());
        assert_eq!(stat.count, 5);
        assert_eq!(stat.sum_ns, 1_000_000 + 1000);
        assert_eq!(stat.max_ns, 1_000_000);
        assert!(stat.p50_ns >= 200 && stat.p50_ns < 400);
        assert!((stat.mean_ns() - 200_200.0).abs() < 1e-6);
    }

    #[test]
    fn regex_read_amplification_computes() {
        let stats = HubStats {
            bytes_scanned: 100,
            regex_strings_evaluated: 3,
            regex_bytes_scanned: 300,
            ..HubStats::default()
        };
        assert!((stats.regex_read_amplification() - 3.0).abs() < 1e-9);
        assert_eq!(HubStats::default().regex_read_amplification(), 0.0);
    }

    #[test]
    fn exports_carry_the_splice_counters_and_residency_gauge() {
        let hub = hub(HubConfig {
            cache_capacity: 0,
            ..HubConfig::default()
        });
        let _ = hub.submit(request(&versioned_body("v1"))).wait();
        let _ = hub.submit(request(&versioned_body("v2"))).wait();
        let text = hub.export_prometheus();
        telemetry::validate_prometheus(&text).expect("valid exposition format");
        assert!(text.contains("scanhub_incremental_relexes_total 1"));
        assert!(text.contains("scanhub_splice_fallbacks_total 0"));
        assert!(text.contains("scanhub_relexed_bytes_total"));
        assert!(text.contains("scanhub_artifact_bytes_resident"));
        assert!(text.contains("stage=\"splice\""));
        let json = hub.export_json().to_string();
        assert!(json.contains("scanhub_incremental_relexes_total"));
        assert!(json.contains("scanhub_relexed_bytes_total"));
        assert!(json.contains("scanhub_artifact_bytes_resident"));
    }

    #[test]
    fn disabled_telemetry_reads_no_clocks_and_records_nothing() {
        let hub = hub(HubConfig {
            telemetry: false,
            ..HubConfig::default()
        });
        assert!(!hub.telemetry_enabled());
        let v = hub.submit(request("import os\nos.system('id')\n")).wait();
        assert!(v.flagged());
        let _ = hub.submit(request("import os\nos.system('id')\n")).wait();
        assert!(hub.traces().is_empty());
        assert_eq!(hub.traces_recorded(), 0);
        let stats = hub.stats();
        assert_eq!(stats.latency, StageLatencies::default());
        // Counters still work; only the latency layer is off.
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.cache_hits, 1);
    }

    #[test]
    fn cache_hits_leave_their_own_trace() {
        let hub = hub(HubConfig::default());
        let req = request("import os\nos.system('id')\n");
        let hex = req.digest_hex();
        let _ = hub.submit(req).wait();
        let _ = hub.submit(request("import os\nos.system('id')\n")).wait();
        let traces = hub.traces();
        assert_eq!(traces.len(), 2);
        let scan = &traces[0];
        let hit = &traces[1];
        assert!(!scan.from_cache);
        assert!(scan.worker.is_some());
        assert!(hit.from_cache);
        assert_eq!(hit.worker, None);
        assert!(hit.stages.cache > 0);
        assert_eq!(hit.stages.artifact, 0);
        // Both traces carry the digest, and both explain the verdict.
        assert_eq!(scan.digest.as_deref(), Some(hex.as_str()));
        assert_eq!(hit.digest, scan.digest);
        assert_eq!(hub.trace_for_digest(&hex).expect("trace").seq, hit.seq);
        assert!(hit.fired.iter().any(|f| f.rule == "sys"));
    }

    #[test]
    fn exports_render_and_validate() {
        let hub = hub(HubConfig::default());
        let _ = hub.submit(request("import os\nos.system('id')\n")).wait();
        let text = hub.export_prometheus();
        telemetry::validate_prometheus(&text).expect("valid exposition format");
        assert!(text.contains("scanhub_submitted_total 1"));
        assert!(text.contains("scanhub_stage_duration_ns_bucket"));
        assert!(text.contains("stage=\"artifact\""));
        // The matching-tier counters ride along in both exposition
        // formats (process-global, so only presence is asserted).
        assert!(text.contains("textmatch_teddy_scans_total"));
        assert!(text.contains("textmatch_dfa_states_built_total"));
        assert!(text.contains("textmatch_pikevm_fallbacks_total"));
        let json = hub.export_json().to_string();
        assert!(json.contains("scanhub_scan_duration_ns"));
        assert!(json.contains("\"p99\""));
        assert!(json.contains("textmatch_teddy_bytes_scanned_total"));
        assert!(json.contains("textmatch_ac_fallback_scans_total"));
    }

    #[test]
    fn matching_tier_counters_reach_hub_stats() {
        // The default test bundle has multi-byte literal atoms, so the
        // scanner's multi-literal matcher runs the Teddy tier; the
        // counters are process-global, so assert deltas-or-better rather
        // than exact values.
        let before = hub(HubConfig::default()).stats().engine;
        let h = hub(HubConfig::default());
        let _ = h.submit(request("import os\nos.system('id')\n")).wait();
        let after = h.stats().engine;
        assert!(
            after.teddy_scans > before.teddy_scans,
            "scanning with literal atoms must exercise the Teddy tier"
        );
        assert!(after.teddy_bytes_scanned >= before.teddy_bytes_scanned);
    }
}
