//! The streaming scan service: [`ScanHub`] composes the bounded
//! ingestion queue, the worker pool, the digest caches (verdicts per
//! request, artifacts per file), the prefilter index, the retro-hunt
//! index and the hub's telemetry behind one submit/wait API.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use semgrep_engine::CompiledSemgrepRules;
use yara_engine::CompiledRules;

use crate::artifact::ArtifactConfig;
use crate::cache::VerdictCache;
use crate::metrics::{HubCounters, HubStats, HubTelemetry, Stage, StageClock};
use crate::prefilter::PrefilterIndex;
use crate::queue::{Job, JobQueue, Ticket};
use crate::request::ScanRequest;
use crate::retrohunt::{self, RetroReport, RuleDeployment};
use crate::store::ArtifactStore;
use crate::trace::{ScanTrace, TraceRecord};
use crate::verdict::Verdict;
use crate::worker::worker_loop;

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct HubConfig {
    /// Worker threads (each with its own reusable scanner state).
    pub workers: usize,
    /// Bounded submission queue length; a full queue blocks `submit`
    /// (backpressure toward the ingestion side).
    pub queue_capacity: usize,
    /// Verdict cache entries; 0 disables caching.
    pub cache_capacity: usize,
    /// Per-file artifact cache entries; at 0 nothing stays resident, so
    /// every request re-analyzes every file (the cold-path ablation
    /// lever), but builds still claim and publish through the store.
    pub artifact_cache_capacity: usize,
    /// Decoded-layer extraction depth; 0 turns decoding off (the A/B
    /// lever for the layered-robustness measurement). Verdicts are
    /// identical to surface-only scanning only with `dataflow` off as
    /// well: the taint engine's folded layers are scanned at any depth.
    pub max_decode_depth: u8,
    /// Behavioral taint engine: per-file source→sink dataflow summaries
    /// computed at artifact-build time (once per unique digest) and
    /// aggregated into [`Verdict::flows`]. Disabling skips both the
    /// analysis and the verdict stage (the A/B lever for the
    /// taint-robustness measurement).
    pub dataflow: bool,
    /// YARA routing from cached hits; disabling evaluates every YARA rule
    /// (A/B lever for the benchmark and the equivalence property test).
    pub prefilter: bool,
    /// Per-stage latency histograms and scan traces. When off, the scan
    /// path reads no clocks and records nothing; the cost per request is
    /// one branch on a plain `bool`.
    pub telemetry: bool,
    /// Flight-recorder ring size: the last N completed scan traces kept
    /// for after-the-fact explanation. 0 keeps histograms but no traces.
    pub trace_capacity: usize,
    /// Keep the retro-hunt atom→digest posting index beside the artifact
    /// cache, so deploying new rules confirm-scans only candidate digests
    /// ([`ScanHub::retro_hunt`]); without it hunts answer `None`. It also
    /// decides whether `ScanHub::new` allocates the index's 2 MiB gram
    /// bitmap (about 2.3 MB on its thread with it, 0.2 MB without); a lazy
    /// bitmap would move it into the first hunt, +6 % allocated bytes per
    /// package on the benchmark's `rule_deploy`.
    pub retro_index: bool,
}

impl Default for HubConfig {
    fn default() -> Self {
        HubConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            queue_capacity: 256,
            cache_capacity: 4096,
            artifact_cache_capacity: 4096,
            max_decode_depth: ArtifactConfig::default().max_decode_depth,
            dataflow: true,
            prefilter: true,
            telemetry: true,
            trace_capacity: 256,
            retro_index: true,
        }
    }
}

/// Everything the submit path and the workers share.
pub(crate) struct Shared {
    pub yara: Option<CompiledRules>,
    pub semgrep: Option<CompiledSemgrepRules>,
    pub index: PrefilterIndex,
    pub prefilter: bool,
    pub artifact_config: ArtifactConfig,
    pub queue: JobQueue,
    pub cache: Option<Mutex<VerdictCache>>,
    pub artifacts: ArtifactStore,
    pub counters: HubCounters,
    pub telemetry: HubTelemetry,
}

impl Shared {
    /// The verdict cache under its lock; `None` when it is off. A
    /// poisoned lock is recovered: each section under it is one
    /// [`VerdictCache`] call, which a panic leaves consistent.
    pub fn verdicts(&self) -> Option<MutexGuard<'_, VerdictCache>> {
        let cache = self.cache.as_ref()?;
        Some(cache.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

/// A streaming scan service over one compiled rule bundle.
///
/// Workers are spawned at construction; [`ScanHub::submit`] enqueues
/// packages (blocking when the bounded queue is full) and returns a
/// [`Ticket`] redeemable for the [`Verdict`]. Dropping the hub drains the
/// queue and joins the workers.
pub struct ScanHub {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl ScanHub {
    /// Builds a hub over the given rule sets.
    pub fn new(
        yara: Option<CompiledRules>,
        semgrep: Option<CompiledSemgrepRules>,
        config: HubConfig,
    ) -> Self {
        let index = PrefilterIndex::build(yara.as_ref(), semgrep.as_ref());
        let shared = Arc::new(Shared {
            yara,
            semgrep,
            index,
            prefilter: config.prefilter,
            artifact_config: ArtifactConfig {
                max_decode_depth: config.max_decode_depth,
                dataflow: config.dataflow,
            },
            queue: JobQueue::new(config.queue_capacity),
            cache: (config.cache_capacity > 0)
                .then(|| Mutex::new(VerdictCache::new(config.cache_capacity))),
            artifacts: ArtifactStore::new(config.artifact_cache_capacity, config.retro_index),
            counters: HubCounters::default(),
            telemetry: HubTelemetry::new(config.telemetry, config.trace_capacity),
        });
        let workers = (0..config.workers.max(1))
            .map(|worker_id| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared, worker_id))
            })
            .collect();
        ScanHub { shared, workers }
    }

    /// The prefilter index (for introspection and reporting).
    pub fn prefilter_index(&self) -> &PrefilterIndex {
        &self.shared.index
    }

    /// Diffs a candidate rule bundle against the hub's live one.
    ///
    /// Builds the new bundle's prefilter index and reports exactly which
    /// rules are new or changed their atom sets and which atoms no live
    /// rule gates on, packaged with changed-rules-only subset rulesets
    /// ready for [`ScanHub::retro_hunt`]. The hub itself keeps scanning with its
    /// current bundle: a retro-hunt is pre-swap screening of history.
    pub fn deploy_rules(
        &self,
        yara: Option<CompiledRules>,
        semgrep: Option<CompiledSemgrepRules>,
    ) -> RuleDeployment {
        let new_index = PrefilterIndex::build(yara.as_ref(), semgrep.as_ref());
        let delta = self.shared.index.diff(&new_index);
        RuleDeployment::build(delta, yara.as_ref(), semgrep.as_ref())
    }

    /// Runs the deployment's changed rules over the cached package
    /// history: syncs the retro index to the resident artifacts, queries
    /// it, then confirm-scans only the candidate digests, with the
    /// evaluator a worker scans requests with. `None` when the retro index
    /// is disabled, or was retired by a panic under its lock. Confirm scans
    /// leave the artifacts' recency alone, so screening history does not
    /// keep it resident. Per-rule hit sets
    /// and per-digest verdicts equal [`ScanHub::retro_rescan`]'s (pinned
    /// by the differential suite); only the candidate and scan counts
    /// differ, which is the speedup.
    pub fn retro_hunt(&self, deployment: &RuleDeployment) -> Option<RetroReport> {
        let shared = &self.shared;
        let (store, live) = (&shared.artifacts, shared.yara.as_ref());
        retrohunt::hunt(store, deployment, live, &shared.counters, &shared.telemetry)
    }

    /// The exhaustive oracle: confirm-scans **every** resident digest
    /// with every changed rule, no candidate query made — the ground
    /// truth that the differential suite and the benchmark check
    /// [`ScanHub::retro_hunt`] against. It lists the resident digests
    /// from the artifact store, never from the retro index it checks, so
    /// it answers (`Some`) on every hub, with or without an index. Touches
    /// neither the index nor the retro counters or histograms, and, like
    /// a hunt, leaves the artifact cache's recency alone.
    pub fn retro_rescan(&self, deployment: &RuleDeployment) -> Option<RetroReport> {
        Some(retrohunt::rescan(&self.shared.artifacts, deployment))
    }

    /// A snapshot of the service counters plus per-stage latency
    /// percentiles (zeroed when telemetry is off).
    pub fn stats(&self) -> HubStats {
        let mut stats = self.shared.counters.snapshot();
        stats.latency = self.shared.telemetry.stages.latencies();
        let store = &self.shared.artifacts;
        (stats.retro_index_atoms, stats.retro_index_digests) = store.retro_size();
        stats.artifact_bytes_resident = store.resident_bytes();
        stats.engine = textmatch::engine_counters();
        stats
    }

    /// Whether per-stage timing and trace recording are on.
    pub fn telemetry_enabled(&self) -> bool {
        self.shared.telemetry.enabled
    }

    /// The flight recorder's current contents, oldest first. Each trace is
    /// built from its record here, not when the scan completed.
    pub fn traces(&self) -> Vec<ScanTrace> {
        let records = self.shared.telemetry.recorder.snapshot();
        records.iter().map(TraceRecord::trace).collect()
    }

    /// Total traces ever recorded (the ring keeps only the newest
    /// [`HubConfig::trace_capacity`] of them).
    pub fn traces_recorded(&self) -> u64 {
        self.shared.telemetry.recorder.recorded()
    }

    /// The newest trace for the request with this hex content digest
    /// ([`ScanRequest::digest_hex`]) — how a gatekeeper explains a
    /// verdict after the fact. Traces carry digests only when the
    /// verdict cache is enabled (the hub never hashes solely to trace).
    /// An argument that is not 64 hex digits finds nothing.
    pub fn trace_for_digest(&self, digest_hex: &str) -> Option<ScanTrace> {
        let key = digest::from_hex(digest_hex)?;
        let recorder = &self.shared.telemetry.recorder;
        let record = recorder.find(|r| r.digest == Some(key))?;
        Some(record.trace())
    }

    /// The slowest scan still in the flight recorder; only its trace is
    /// built.
    pub fn worst_trace(&self) -> Option<ScanTrace> {
        let recorder = &self.shared.telemetry.recorder;
        let record = recorder.max_by_key(|r| r.wall_ns)?;
        Some(record.trace())
    }

    /// Renders every hub metric — counters, gauges and stage histograms
    /// — in the Prometheus text exposition format.
    pub fn export_prometheus(&self) -> String {
        telemetry::render_prometheus(&self.series())
    }

    /// Renders every hub metric as a JSON document.
    pub fn export_json(&self) -> jsonmini::Value {
        telemetry::render_json(&self.series())
    }

    /// Every hub metric as of now, in export order.
    fn series(&self) -> Vec<telemetry::Series<'_>> {
        let (verdicts, artifacts) = (self.cached_verdicts(), self.cached_artifacts());
        self.shared
            .telemetry
            .series(&self.stats(), verdicts, artifacts)
    }

    /// Number of verdicts currently cached.
    pub fn cached_verdicts(&self) -> usize {
        self.shared.verdicts().map_or(0, |cache| cache.len())
    }

    /// Number of per-file artifacts currently cached.
    pub fn cached_artifacts(&self) -> usize {
        self.shared.artifacts.len()
    }

    /// Poisons the artifact store's lock as a panic under it would, for
    /// the tests that the hub serves on.
    #[doc(hidden)]
    pub fn poison_artifact_store(&self) {
        self.shared.artifacts.poison();
    }

    /// Submits one package; blocks while the queue is full.
    pub fn submit(&self, request: ScanRequest) -> Ticket {
        let c = &self.shared.counters;
        let tel = &self.shared.telemetry;
        // The submitter's own tag is back as it was once this returns.
        let _tag = Stage::nested();
        // The cache stage covers digesting the request plus the verdict
        // lookup; on a miss its lap rides along on the job and lands in
        // the worker's trace.
        let mut clock = StageClock::start(tel.histograms(), Stage::Cache);
        HubCounters::add(&c.submitted, 1);
        // A file equal to the resident version of its name takes that
        // version's digest; only the others are hashed.
        let adopted = self.shared.artifacts.adopt_sibling_digests(request.files());
        HubCounters::add(&c.digests_reused, adopted);
        let digest = self.shared.cache.as_ref().map(|_| request.digest());
        if let (Some(mut cache), Some(d)) = (self.shared.verdicts(), &digest) {
            let hit = cache.get(d);
            drop(cache);
            if let Some(verdict) = hit {
                clock.lap(Stage::Complete);
                HubCounters::add(&c.cache_hits, 1);
                HubCounters::add(&c.completed, 1);
                tel.complete(clock.stop(), None, Some(d), &request, &verdict, true);
                return Ticket::cached(verdict);
            }
            clock.lap(Stage::Queue);
        } else {
            Stage::Queue.enter();
        }
        let (ticket, state) = Ticket::pending();
        self.shared.queue.push(Job {
            request,
            digest,
            ticket: state,
            laps: clock.stop(),
        });
        ticket
    }

    /// Submits a batch and returns the verdicts in submission order.
    pub fn scan_ordered<I>(&self, requests: I) -> Vec<Verdict>
    where
        I: IntoIterator<Item = ScanRequest>,
    {
        let tickets: Vec<Ticket> = requests.into_iter().map(|r| self.submit(r)).collect();
        tickets.iter().map(Ticket::wait).collect()
    }
}

impl Drop for ScanHub {
    fn drop(&mut self) {
        self.shared.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) const YARA: &str = r#"
rule sys { strings: $a = "os.system" condition: $a }
rule net { strings: $a = "socket.socket" condition: $a }
rule b64 { strings: $re = /[A-Za-z0-9+\/]{16,}/ condition: $re }
"#;

    pub(crate) const SEMGREP: &str = "rules:\n  - id: sys-call\n    languages: [python]\n    message: m\n    pattern: os.system($X)\n";

    /// A hub over the three-rule YARA bundle and the one-rule Semgrep
    /// bundle above — the fixture every module's hub-level tests share.
    pub(crate) fn hub(config: HubConfig) -> ScanHub {
        ScanHub::new(
            Some(yara_engine::compile(YARA).expect("yara")),
            Some(semgrep_engine::compile(SEMGREP).expect("semgrep")),
            config,
        )
    }

    impl ScanHub {
        /// The hub's artifact store.
        pub(crate) fn store(&self) -> &ArtifactStore {
            &self.shared.artifacts
        }
    }

    pub(crate) fn request(code: &str) -> ScanRequest {
        ScanRequest::from_source("upload.py", code)
    }

    /// A token-dense module long enough that a one-line edit is a small
    /// fraction of the file — the shape version bumps actually take.
    pub(crate) fn versioned_body(marker: &str) -> String {
        let mut code = String::from("import os\nimport socket\n");
        for i in 0..12 {
            code.push_str(&format!("pad_{i} = {i} * {i} + len('padding')\n"));
        }
        code.push_str(&format!("payload = '{marker}'\n"));
        for i in 12..24 {
            code.push_str(&format!("pad_{i} = pad_{} - {i}\n", i - 12));
        }
        code
    }

    #[test]
    fn resubmission_is_served_from_cache_with_same_verdict() {
        let hub = hub(HubConfig::default());
        let first = hub.submit(request("import os\nos.system('id')\n")).wait();
        let second = hub.submit(request("import os\nos.system('id')\n")).wait();
        assert!(!first.from_cache);
        assert!(second.from_cache);
        assert!(first.same_matches(&second));
        let stats = hub.stats();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.completed, 2);
    }

    #[test]
    fn only_a_hit_says_from_cache_and_the_cached_handle_never_does() {
        let hub = hub(HubConfig {
            workers: 1,
            ..HubConfig::default()
        });
        let code = "import os\nos.system('id')\n";
        let first = hub.submit(request(code)).wait();
        let ticket = hub.submit(request(code));
        let hit = (ticket.wait(), ticket.wait());
        assert!(!first.from_cache, "the first caller's copy");
        assert!(hit.0.from_cache && hit.1.from_cache, "every wait on a hit");
        assert_eq!(hit.0, hit.1);
        assert!(hit.0.same_matches(&first));
        let key = request(code).digest();
        let cache = hub.shared.verdicts().expect("verdict cache on");
        let cached = cache.peek(&key).expect("the worker cached its verdict");
        assert!(!cached.from_cache, "the cached handle");
        assert!(cached.same_matches(&first));
    }

    #[test]
    fn trace_for_digest_reads_only_well_formed_digests() {
        let hub = hub(HubConfig::default());
        let req = request("import os\nos.system('id')\n");
        let hex = req.digest_hex();
        hub.submit(req).wait();
        let trace = hub.trace_for_digest(&hex).expect("the scan's trace");
        assert_eq!(trace.digest.as_deref(), Some(hex.as_str()));
        let upper = hub.trace_for_digest(&hex.to_uppercase());
        assert_eq!(upper.map(|t| t.seq), Some(trace.seq), "either case");
        for bad in [
            "",
            &hex[..63],
            &hex[..62],
            &format!("{hex}0"),
            &format!("{}g", &hex[..63]),
            &format!("é{}", &hex[..62]),
            &"0".repeat(64),
        ] {
            assert!(hub.trace_for_digest(bad).is_none(), "{bad:?}");
        }
    }

    #[test]
    fn a_poisoned_verdict_cache_serves_on() {
        let hub = hub(HubConfig {
            workers: 1,
            ..HubConfig::default()
        });
        let code = "import os\nos.system('id')\n";
        let first = hub.submit(request(code)).wait();
        let cache = hub.shared.cache.as_ref().expect("verdict cache on");
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = cache.lock();
            panic!("a panic under the verdict cache lock");
        }));
        assert!(cache.lock().is_err(), "the lock is poisoned");
        let again = hub.submit(request(code)).wait();
        assert!(again.from_cache && again.same_matches(&first));
        assert!(!hub.submit(request("x = 1\n")).wait().from_cache);
        assert_eq!(hub.cached_verdicts(), 2, "the worker cached its verdict");
    }

    #[test]
    fn cache_can_be_disabled() {
        let hub = hub(HubConfig {
            cache_capacity: 0,
            ..HubConfig::default()
        });
        let a = hub.submit(request("x = 1\n")).wait();
        let b = hub.submit(request("x = 1\n")).wait();
        assert!(!a.from_cache && !b.from_cache);
        assert_eq!(hub.stats().cache_hits, 0);
    }

    /// A package of two Python modules and a metadata file, each entry
    /// new, so no digest is known: `b.py` carries `marker`.
    fn package(marker: &str) -> ScanRequest {
        ScanRequest::from_files(vec![
            crate::FileEntry::new("pkg/a.py", versioned_body("a").into_bytes()),
            crate::FileEntry::new("pkg/b.py", versioned_body(marker).into_bytes()),
            crate::FileEntry::new("PKG-INFO", b"Name: pkg\nVersion: 1\n".to_vec()),
        ])
    }

    #[test]
    fn an_identical_reupload_takes_every_digest_from_its_sibling() {
        let hub = hub(HubConfig {
            workers: 1,
            ..HubConfig::default()
        });
        assert!(!hub.submit(package("v1")).wait().from_cache);
        assert_eq!(hub.stats().digests_reused, 0, "nothing was resident");
        let again = package("v1");
        let verdict = hub.submit(again.clone()).wait();
        assert!(verdict.from_cache, "the adopted digests key the verdict");
        assert_eq!(hub.stats().digests_reused, 3, "one per sibling-equal file");
        // An adopted digest is the one hashing computes.
        let hashed = package("v1");
        for (adopted, fresh) in again.files().iter().zip(hashed.files()) {
            assert_eq!(adopted.digest(), fresh.digest());
        }
        assert_eq!(again.digest(), hashed.digest());
    }

    #[test]
    fn a_same_length_edit_is_hashed() {
        let hub = hub(HubConfig {
            workers: 1,
            ..HubConfig::default()
        });
        hub.submit(package("v1")).wait();
        let bump = package("v2");
        assert!(!hub.submit(bump.clone()).wait().from_cache);
        // `a.py` and `PKG-INFO` are equal to their siblings; `b.py` has
        // their length and other bytes.
        assert_eq!(hub.stats().digests_reused, 2);
        assert_eq!(bump.files()[1].digest(), package("v2").files()[1].digest());
        assert_ne!(bump.files()[1].digest(), package("v1").files()[1].digest());
    }

    #[test]
    fn an_evicted_sibling_is_hashed() {
        let hub = hub(HubConfig {
            workers: 1,
            cache_capacity: 0,
            artifact_cache_capacity: 1,
            ..HubConfig::default()
        });
        let upload = |name: &str| ScanRequest::from_source(name, versioned_body(name));
        hub.submit(upload("pkg/a.py")).wait();
        hub.submit(upload("pkg/b.py")).wait();
        hub.submit(upload("pkg/a.py")).wait();
        assert_eq!(hub.stats().digests_reused, 0, "`b.py` evicted `a.py`");
        hub.submit(upload("pkg/a.py")).wait();
        assert_eq!(hub.stats().digests_reused, 1, "`a.py` is resident again");
    }

    #[test]
    fn reused_digests_leave_every_verdict_alone() {
        // Each hub reads fresh entries: clones would share their digests.
        let run = |artifact_cache_capacity| {
            let hub = hub(HubConfig {
                workers: 1,
                artifact_cache_capacity,
                ..HubConfig::default()
            });
            let stream = ["v1", "v1", "v2", "v1", "v2", "v2"].map(package);
            let verdicts: Vec<Verdict> = stream.into_iter().map(|r| hub.submit(r).wait()).collect();
            (verdicts, hub.stats().digests_reused)
        };
        let ((warm, reused), (cold, none)) = (run(4096), run(0));
        // `b.py`'s sibling is the last version a worker built: v1, then
        // v2 for good (the second v1 is a verdict-cache hit).
        assert_eq!((reused, none), (3 + 2 + 2 + 3 + 3, 0));
        for (a, b) in warm.iter().zip(&cold) {
            assert!(a.same_matches(b), "{a:?}\nvs\n{b:?}");
            assert_eq!(a.from_cache, b.from_cache);
        }
    }

    #[test]
    fn empty_rule_bundle_always_passes() {
        let hub = ScanHub::new(None, None, HubConfig::default());
        let v = hub.submit(request("anything")).wait();
        assert_eq!(v, Verdict::default());
    }
}
