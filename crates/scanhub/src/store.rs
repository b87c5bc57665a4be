//! The shared artifact store: the digest-keyed artifact cache, a
//! single-flight registry so each cold digest is built once, the
//! retro-hunt index kept in lockstep with residency, and the sibling
//! registry that finds a splice donor for the next version of a file.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

use crate::artifact::FileAnalysis;
use crate::cache::{ArtifactCache, DigestKey};
use crate::metrics::StageClock;
use crate::retrohunt::{GramScratch, RetroIndex};

/// The shared artifact cache plus a single-flight registry: when two
/// workers race on the same cold digest, one builds and the others
/// wait, so a hub run performs **exactly one** analysis per unique file
/// digest regardless of worker count — the invariant the parse-count
/// property test pins.
pub(crate) struct ArtifactStore {
    cache: Mutex<ArtifactCache>,
    inflight: Mutex<HashMap<DigestKey, Arc<InflightSlot>>>,
    /// The retro-hunt posting index, kept in lockstep with cache
    /// residency on the publish path. Lock discipline: never held
    /// together with `cache` — publish inserts into the cache, drops
    /// that guard, then updates the index with the eviction report.
    pub retro: Option<Mutex<RetroIndex>>,
    /// Sibling registry: file name (registry-relative path) → digest of
    /// the newest artifact built under that name. On a digest miss the
    /// hub looks the name up here and, if the previous version is still
    /// cache-resident, builds the new artifact by diff-and-splice
    /// instead of a full reparse. Names are a hint, never an identity:
    /// a stale or evicted mapping only costs a full build. Bounded by
    /// periodic pruning against cache residency (see
    /// [`ArtifactStore::record_sibling`]).
    siblings: Mutex<HashMap<String, DigestKey>>,
    /// Artifact-cache capacity, kept for sibling-registry pruning.
    capacity: usize,
}

enum InflightState {
    Building,
    Ready(Arc<FileAnalysis>),
    /// The building worker panicked before publishing; waiters go back
    /// and re-claim instead of hanging.
    Abandoned,
}

struct InflightSlot {
    state: Mutex<InflightState>,
    ready: Condvar,
}

/// A claimed build: the holder is the unique builder for `digest` until
/// it publishes. Dropping the claim without publishing (a panic while
/// analyzing a hostile file) abandons the slot and wakes any waiters so
/// they can rebuild rather than deadlock.
pub(crate) struct BuildClaim<'a> {
    store: &'a ArtifactStore,
    digest: DigestKey,
    published: bool,
}

impl BuildClaim<'_> {
    /// Publishes a freshly built artifact: caches it, indexes it and
    /// wakes the waiters. Its grams are collected into the worker's
    /// `grams` before the retro lock is taken, so the critical section
    /// is eviction removals plus posting. Returns the nanoseconds of
    /// index work (collection + posting) when `timed`, else 0.
    pub fn publish(
        self,
        artifact: &Arc<FileAnalysis>,
        grams: &mut GramScratch,
        timed: bool,
    ) -> u64 {
        let store = self.store;
        let mut clock = StageClock::start(timed && store.retro.is_some());
        if store.retro.is_some() {
            grams.collect(artifact);
        }
        let mut index_ns = clock.lap();
        let evicted = store
            .cache
            .lock()
            .expect("artifact cache lock")
            .insert(self.digest, Arc::clone(artifact));
        // The cache insert is not index work: restart the lap.
        clock.lap();
        if let Some(retro) = &store.retro {
            let mut retro = retro.lock().expect("retro index lock");
            for digest in &evicted {
                retro.remove(digest);
            }
            retro.insert_collected(grams);
        }
        index_ns += clock.lap();
        self.release(artifact);
        index_ns
    }

    /// Wakes the waiters with an artifact that is already published.
    fn release(mut self, artifact: &Arc<FileAnalysis>) {
        self.store
            .resolve(&self.digest, InflightState::Ready(Arc::clone(artifact)));
        self.published = true;
    }
}

impl Drop for BuildClaim<'_> {
    fn drop(&mut self) {
        if !self.published {
            self.store.resolve(&self.digest, InflightState::Abandoned);
        }
    }
}

impl ArtifactStore {
    pub fn new(capacity: usize, retro_index: bool) -> Self {
        ArtifactStore {
            cache: Mutex::new(ArtifactCache::new(capacity)),
            inflight: Mutex::new(HashMap::new()),
            retro: retro_index.then(|| Mutex::new(RetroIndex::new())),
            siblings: Mutex::new(HashMap::new()),
            capacity,
        }
    }

    /// Number of resident artifacts.
    pub fn len(&self) -> usize {
        self.cache.lock().expect("artifact cache lock").len()
    }

    /// Sum of the resident artifacts' [`FileAnalysis::stored_bytes`].
    pub fn resident_bytes(&self) -> u64 {
        let cache = self.cache.lock().expect("artifact cache lock");
        cache.values().map(|a| a.stored_bytes() as u64).sum()
    }

    /// Retro-index size as `(indexed terms, live digests)`; zeros when
    /// the index is disabled.
    pub fn retro_size(&self) -> (u64, u64) {
        self.retro.as_ref().map_or((0, 0), |retro| {
            let retro = retro.lock().expect("retro index lock");
            (retro.term_count() as u64, retro.digest_count() as u64)
        })
    }

    /// The resident artifact for `digest`, refreshing its recency.
    pub fn get(&self, digest: &DigestKey) -> Option<Arc<FileAnalysis>> {
        self.cache.lock().expect("artifact cache lock").get(digest)
    }

    /// The cache-resident artifact previously built under this file
    /// name, if any — the splice donor for the next version of the same
    /// file. Uses [`crate::cache::LruCache::peek`] so sibling reads never
    /// refresh recency: an old version must not be kept alive over hot
    /// entries just because new versions keep diffing against it.
    pub fn sibling(&self, name: &str) -> Option<Arc<FileAnalysis>> {
        let digest = *self
            .siblings
            .lock()
            .expect("sibling registry lock")
            .get(name)?;
        self.cache
            .lock()
            .expect("artifact cache lock")
            .peek(&digest)
            .cloned()
    }

    /// Records `digest` as the newest artifact built under `name`.
    /// When the registry outgrows cache residency by 4x (names whose
    /// digests were long since evicted), drops every mapping that no
    /// longer points at a resident artifact.
    pub fn record_sibling(&self, name: &str, digest: DigestKey) {
        let mut siblings = self.siblings.lock().expect("sibling registry lock");
        siblings.insert(name.to_owned(), digest);
        if siblings.len() > self.capacity.saturating_mul(4).max(16) {
            let cache = self.cache.lock().expect("artifact cache lock");
            siblings.retain(|_, d| cache.peek(d).is_some());
        }
    }

    /// Returns the cached artifact, or the build claim when this caller
    /// is elected to build; blocks behind another worker's in-progress
    /// build of the same digest.
    pub fn get_or_claim(&self, digest: &DigestKey) -> Result<Arc<FileAnalysis>, BuildClaim<'_>> {
        loop {
            if let Some(artifact) = self.get(digest) {
                return Ok(artifact);
            }
            let (slot, leader) = {
                let mut inflight = self.inflight.lock().expect("inflight lock");
                match inflight.get(digest) {
                    Some(slot) => (Arc::clone(slot), false),
                    None => {
                        let slot = Arc::new(InflightSlot {
                            state: Mutex::new(InflightState::Building),
                            ready: Condvar::new(),
                        });
                        inflight.insert(*digest, Arc::clone(&slot));
                        (slot, true)
                    }
                }
            };
            if leader {
                let claim = BuildClaim {
                    store: self,
                    digest: *digest,
                    published: false,
                };
                // Close the check/claim race: a previous leader may have
                // published (cache insert happens before its inflight
                // slot is removed) between our cache miss and our
                // election. Re-checking under a fresh claim guarantees a
                // published digest is never rebuilt; its builder cached
                // and indexed it, so all that is left is to release any
                // waiters already parked on our slot.
                if let Some(artifact) = self.get(digest) {
                    claim.release(&artifact);
                    return Ok(artifact);
                }
                return Err(claim);
            }
            let mut state = slot.state.lock().expect("inflight slot lock");
            loop {
                match &*state {
                    InflightState::Building => {
                        state = slot.ready.wait(state).expect("inflight wait");
                    }
                    InflightState::Ready(artifact) => return Ok(Arc::clone(artifact)),
                    InflightState::Abandoned => break,
                }
            }
            // The builder gave up: retry from the top (cache re-check,
            // fresh claim).
        }
    }

    /// Removes the inflight slot for `digest` and wakes its waiters
    /// with the final state.
    fn resolve(&self, digest: &DigestKey, outcome: InflightState) {
        let slot = self.inflight.lock().expect("inflight lock").remove(digest);
        if let Some(slot) = slot {
            *slot.state.lock().expect("inflight slot lock") = outcome;
            slot.ready.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::hub::tests::{hub, request};
    use crate::{FileEntry, HubConfig, ScanRequest};

    #[test]
    fn artifact_cache_serves_unchanged_files_across_requests() {
        let hub = hub(HubConfig {
            cache_capacity: 0, // force full scans so artifacts are exercised
            ..HubConfig::default()
        });
        let shared = FileEntry::new("pkg/util.py", b"import os\nos.system('id')\n".to_vec());
        let v1 = FileEntry::new("pkg/__init__.py", b"VERSION = '1.0'\n".to_vec());
        let v2 = FileEntry::new("pkg/__init__.py", b"VERSION = '1.1'\n".to_vec());
        let first = hub
            .submit(ScanRequest::from_files(vec![shared.clone(), v1]))
            .wait();
        let second = hub
            .submit(ScanRequest::from_files(vec![shared.clone(), v2]))
            .wait();
        assert!(first.same_matches(&second), "version bump kept the payload");
        let stats = hub.stats();
        // 4 entries submitted, 3 unique digests: util.py analyzed once.
        assert_eq!(stats.artifact_parses, 3);
        assert_eq!(stats.artifact_cache_hits, 1);
        assert_eq!(hub.cached_artifacts(), 3);
        // Resubmitting the second version re-parses nothing.
        let parses_before = stats.artifact_parses;
        let third = hub
            .submit(ScanRequest::from_files(vec![shared, v2_clone()]))
            .wait();
        assert!(third.same_matches(&second));
        assert_eq!(hub.stats().artifact_parses, parses_before);

        fn v2_clone() -> FileEntry {
            FileEntry::new("pkg/__init__.py", b"VERSION = '1.1'\n".to_vec())
        }
    }

    #[test]
    fn changed_bytes_are_never_served_a_stale_artifact() {
        let hub = hub(HubConfig {
            cache_capacity: 0,
            ..HubConfig::default()
        });
        let clean = hub.submit(request("print('ok')\n")).wait();
        assert!(!clean.flagged());
        // Same file name, new bytes carrying a payload: the artifact
        // cache must analyze the new content, not reuse the clean one.
        let dirty = hub
            .submit(request("print('ok')\nimport os\nos.system('id')\n"))
            .wait();
        assert!(dirty.flagged(), "stale artifact served for changed bytes");
        assert_eq!(hub.stats().artifact_cache_hits, 0);
    }

    #[test]
    fn artifact_cache_can_be_disabled() {
        let hub = hub(HubConfig {
            cache_capacity: 0,
            artifact_cache_capacity: 0,
            ..HubConfig::default()
        });
        for _ in 0..3 {
            let _ = hub.submit(request("import os\nos.system('id')\n")).wait();
        }
        let stats = hub.stats();
        assert_eq!(stats.artifact_parses, 3, "every request re-analyzes");
        assert_eq!(stats.artifact_cache_hits, 0);
        assert_eq!(hub.cached_artifacts(), 0);
    }
}
