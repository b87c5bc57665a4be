//! The streaming scan service: [`ScanHub`] composes the bounded
//! ingestion queue, the worker pool, the digest caches (verdicts per
//! request, artifacts per file), the prefilter index, the retro-hunt
//! index and the hub's telemetry behind one submit/wait API.

use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use semgrep_engine::CompiledSemgrepRules;
use yara_engine::CompiledRules;

use crate::artifact::ArtifactConfig;
use crate::cache::VerdictCache;
use crate::metrics::{HubCounters, HubStats, HubTelemetry, StageNanos};
use crate::prefilter::PrefilterIndex;
use crate::queue::{Job, JobQueue, Ticket};
use crate::request::ScanRequest;
use crate::retrohunt::{self, RetroReport, RuleDeployment};
use crate::store::ArtifactStore;
use crate::trace::ScanTrace;
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
    /// Per-file artifact cache entries; 0 disables the cache (every
    /// request re-analyzes every file — the cold-path ablation lever).
    pub artifact_cache_capacity: usize,
    /// Decoded-layer extraction depth; 0 turns layered scanning off
    /// entirely, making verdicts identical to surface-only scanning
    /// (the A/B lever for the layered-robustness measurement).
    pub max_decode_depth: u8,
    /// Behavioral taint engine: per-file source→sink dataflow summaries
    /// computed at artifact-build time (once per unique digest) and
    /// aggregated into [`Verdict::flows`]. Disabling skips both the
    /// analysis and the verdict stage (the A/B lever for the
    /// taint-robustness measurement).
    pub dataflow: bool,
    /// Literal prefilter routing; disabling scans every rule (A/B lever
    /// for the throughput benchmark and the equivalence property test).
    pub prefilter: bool,
    /// Per-stage latency histograms and scan traces. When off, the scan
    /// path reads no clocks and records nothing; the cost per request is
    /// one relaxed atomic load.
    pub telemetry: bool,
    /// Flight-recorder ring size: the last N completed scan traces kept
    /// for after-the-fact explanation. 0 keeps histograms but no traces.
    pub trace_capacity: usize,
    /// Maintain the retro-hunt atom→digest posting index alongside the
    /// artifact cache, so deploying new rules confirm-scans only
    /// candidate digests ([`ScanHub::retro_hunt`]). No effect when
    /// `artifact_cache_capacity` is 0.
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
    pub artifacts: Option<ArtifactStore>,
    pub counters: HubCounters,
    pub telemetry: HubTelemetry,
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
            artifacts: (config.artifact_cache_capacity > 0)
                .then(|| ArtifactStore::new(config.artifact_cache_capacity, config.retro_index)),
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
    /// Builds the new bundle's prefilter index with the atom interner
    /// seeded from the live index (stable interning — shared atoms keep
    /// their ids) and reports exactly which rules are new or changed
    /// their atom sets and which atoms the old index had never seen,
    /// packaged with changed-rules-only subset rulesets ready for
    /// [`ScanHub::retro_hunt`]. The hub itself keeps scanning with its
    /// current bundle: a retro-hunt is pre-swap screening of history.
    pub fn deploy_rules(
        &self,
        yara: Option<CompiledRules>,
        semgrep: Option<CompiledSemgrepRules>,
    ) -> RuleDeployment {
        let new_index =
            PrefilterIndex::build_seeded(yara.as_ref(), semgrep.as_ref(), Some(&self.shared.index));
        let delta = self.shared.index.diff(&new_index);
        RuleDeployment::build(delta, yara.as_ref(), semgrep.as_ref())
    }

    /// Runs the deployment's changed rules over the cached package
    /// history by querying the retro index and confirm-scanning only
    /// candidate digests. Returns `None` when the artifact cache or the
    /// retro index is disabled.
    ///
    /// Per-rule hit sets and per-digest verdicts are identical to
    /// [`ScanHub::retro_rescan`] (the exhaustive oracle) — pinned by
    /// the differential suite; only the candidate/scan counts differ,
    /// which is exactly the speedup.
    pub fn retro_hunt(&self, deployment: &RuleDeployment) -> Option<RetroReport> {
        let shared = &self.shared;
        let store = shared.artifacts.as_ref()?;
        retrohunt::hunt(store, deployment, &shared.counters, &shared.telemetry)
    }

    /// The exhaustive oracle: confirm-scans **every** resident digest
    /// with every changed rule, no index consulted. This is both the
    /// full-rescan baseline the bench times and the ground truth the
    /// differential suite compares [`ScanHub::retro_hunt`] against.
    /// Touches none of the retro counters or histograms.
    pub fn retro_rescan(&self, deployment: &RuleDeployment) -> Option<RetroReport> {
        retrohunt::rescan(self.shared.artifacts.as_ref()?, deployment)
    }

    /// A snapshot of the service counters plus per-stage latency
    /// percentiles (zeroed when telemetry is off).
    pub fn stats(&self) -> HubStats {
        let mut stats = self.shared.counters.snapshot();
        stats.latency = self.shared.telemetry.stages.latencies();
        (stats.retro_index_atoms, stats.retro_index_digests) = self.retro_index_size();
        stats.artifact_bytes_resident = self.artifact_bytes_resident();
        stats.engine = textmatch::engine_counters();
        stats
    }

    /// Estimated heap bytes of every artifact resident in the artifact
    /// cache (sum of per-artifact [`crate::FileAnalysis::stored_bytes`]);
    /// 0 when the cache is disabled. A point-in-time gauge — capacity
    /// bounds entry count, this reports what those entries weigh.
    pub fn artifact_bytes_resident(&self) -> u64 {
        let store = self.shared.artifacts.as_ref();
        store.map_or(0, ArtifactStore::resident_bytes)
    }

    /// Current retro-index size as `(indexed terms, live digests)` —
    /// both 0 when the index is disabled. Terms are folded content
    /// 3-grams (the realization of atom posting lists), so the gauge
    /// tracks index growth independent of which atoms rules use.
    pub fn retro_index_size(&self) -> (u64, u64) {
        let store = self.shared.artifacts.as_ref();
        store.map_or((0, 0), ArtifactStore::retro_size)
    }

    /// Whether per-stage timing and trace recording are on.
    pub fn telemetry_enabled(&self) -> bool {
        self.shared.telemetry.enabled()
    }

    /// The flight recorder's current contents, oldest first.
    pub fn traces(&self) -> Vec<ScanTrace> {
        self.shared.telemetry.recorder.snapshot()
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
    pub fn trace_for_digest(&self, digest_hex: &str) -> Option<ScanTrace> {
        self.shared
            .telemetry
            .recorder
            .find(|t| t.digest.as_deref() == Some(digest_hex))
    }

    /// The slowest scan still in the flight recorder.
    pub fn worst_trace(&self) -> Option<ScanTrace> {
        self.traces().into_iter().max_by_key(|t| t.wall_ns)
    }

    /// Renders every hub metric — counters, gauges and stage histograms
    /// — in the Prometheus text exposition format.
    pub fn export_prometheus(&self) -> String {
        self.mirrored().render_prometheus()
    }

    /// Renders every hub metric as a JSON document.
    pub fn export_json(&self) -> jsonmini::Value {
        self.mirrored().render_json()
    }

    /// The registry, brought up to date with the counters and gauges.
    fn mirrored(&self) -> &telemetry::Registry {
        let (verdicts, artifacts) = (self.cached_verdicts(), self.cached_artifacts());
        self.shared
            .telemetry
            .mirror(&self.stats(), verdicts, artifacts)
    }

    /// Number of verdicts currently cached.
    pub fn cached_verdicts(&self) -> usize {
        self.shared
            .cache
            .as_ref()
            .map_or(0, |c| c.lock().expect("cache lock").len())
    }

    /// Number of per-file artifacts currently cached.
    pub fn cached_artifacts(&self) -> usize {
        self.shared.artifacts.as_ref().map_or(0, ArtifactStore::len)
    }

    /// Submits one package; blocks while the queue is full.
    pub fn submit(&self, request: ScanRequest) -> Ticket {
        let c = &self.shared.counters;
        let tel = &self.shared.telemetry;
        let submitted_at = tel.enabled().then(Instant::now);
        HubCounters::add(&c.submitted, 1);
        let digest = self.shared.cache.as_ref().map(|_| request.digest());
        // The cache stage covers digesting the request plus the verdict
        // lookup; on a miss it rides along on the job and lands in the
        // worker's trace.
        let mut cache_ns = 0u64;
        if let (Some(cache), Some(d)) = (&self.shared.cache, &digest) {
            let hit = cache.lock().expect("cache lock").get(d);
            cache_ns = submitted_at.map_or(0, |t| t.elapsed().as_nanos() as u64);
            if let Some(mut verdict) = hit {
                verdict.from_cache = true;
                HubCounters::add(&c.cache_hits, 1);
                HubCounters::add(&c.completed, 1);
                let stages = StageNanos {
                    cache: cache_ns,
                    ..StageNanos::default()
                };
                tel.complete(submitted_at, None, Some(d), &request, &verdict, stages);
                return Ticket::ready(verdict);
            }
        }
        let (ticket, state) = Ticket::pending();
        self.shared.queue.push(Job {
            request,
            digest,
            ticket: state,
            submitted_at,
            enqueued_at: None,
            cache_ns,
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

    #[test]
    fn empty_rule_bundle_always_passes() {
        let hub = ScanHub::new(None, None, HubConfig::default());
        let v = hub.submit(request("anything")).wait();
        assert_eq!(v, Verdict::default());
    }
}
