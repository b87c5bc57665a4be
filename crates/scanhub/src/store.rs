//! The shared artifact store: **one state behind one lock**.
//!
//! [`Resident`] — the digest-keyed artifact cache, the set of digests
//! being built right now, and the sibling registry naming a splice donor
//! for the next version of a file — sits behind one `Mutex`, with one
//! store-wide `Condvar` notified whenever a digest leaves the building
//! set. Get-or-build is two critical sections:
//!
//! * [`ArtifactStore::get_or_claim`]: a cache hit; or join the building
//!   set and leave with a [`BuildClaim`] that already holds the donor;
//!   or wait and look again. Lookup and election share the section, so
//!   nothing can be published between them and nothing is re-checked.
//! * [`BuildClaim::publish`]: insert into the cache, leave the building
//!   set, record the sibling, notify. A claim dropped unpublished (a
//!   panic on a hostile file) leaves the set and notifies too, so a
//!   waiter claims the digest and rebuilds.
//!
//! The retro-hunt index keeps its own lock (posting a file's grams is
//! ~90 µs) and is updated after the state lock is released — the two
//! are **never held together**. A hit takes 1 lock acquisition (state);
//! a cold file 3: claim (state), publish (state), index (retro).
//!
//! A woken waiter re-reads the cache instead of being handed the
//! builder's `Arc`, so "exactly one analysis per unique digest" holds
//! while the digest stays resident: an artifact evicted between its
//! publish and the waiter's wake-up is rebuilt, like any later miss.
//! Verdicts cannot change: artifacts are pure in `(ruleset, bytes)`.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use crate::artifact::FileAnalysis;
use crate::cache::{ArtifactCache, DigestKey};
use crate::metrics::StageClock;
use crate::request::FileEntry;
use crate::retrohunt::{GramScratch, RetroIndex};

struct Resident {
    cache: ArtifactCache,
    /// Digests under a [`BuildClaim`] not yet published or dropped.
    building: HashSet<DigestKey>,
    /// File name (registry-relative path) → digest last published under
    /// it. Names are a hint, never an identity: a stale or evicted
    /// mapping only costs a full build. Pruned on publish.
    siblings: HashMap<String, DigestKey>,
}

pub(crate) struct ArtifactStore {
    state: Mutex<Resident>,
    /// Notified whenever a digest leaves `building`.
    resolved: Condvar,
    /// The retro-hunt posting index: having released `state`, publish
    /// applies its insert and the insert's eviction report here.
    pub retro: Option<Mutex<RetroIndex>>,
    /// Artifact-cache capacity, kept for sibling-registry pruning.
    capacity: usize,
}

/// A claimed build: the holder is the unique builder of `entry`'s digest
/// until it publishes the claim or drops it.
pub(crate) struct BuildClaim<'a> {
    store: &'a ArtifactStore,
    entry: &'a FileEntry,
    /// The splice donor: the resident artifact last published under this
    /// file name, read with [`crate::cache::LruCache::peek`] so old
    /// versions are not kept alive by the versions diffed against them.
    pub donor: Option<Arc<FileAnalysis>>,
    published: bool,
}

impl BuildClaim<'_> {
    /// Publishes a freshly built artifact: caches it, records it as its
    /// name's sibling, wakes the waiters, then indexes it. Its grams are
    /// collected into the worker's `grams` before any lock is taken, so
    /// the retro critical section is eviction removals plus posting.
    /// Returns the nanoseconds of index work (collection + posting)
    /// when `timed`, else 0.
    pub fn publish(
        mut self,
        artifact: &Arc<FileAnalysis>,
        grams: &mut GramScratch,
        timed: bool,
    ) -> u64 {
        let mut clock = StageClock::start(timed && self.store.retro.is_some());
        if self.store.retro.is_some() {
            grams.collect(artifact);
        }
        let index_ns = clock.lap();
        let digest = self.entry.digest();
        let name = self.entry.name().to_owned();
        let mut guard = self.store.lock();
        let state = &mut *guard;
        state.building.remove(&digest);
        state.siblings.insert(name, digest);
        let evicted = state.cache.insert(digest, Arc::clone(artifact));
        // Once the registry outgrows the cache 4x (names whose digests
        // were long since evicted), keep only the mappings that still
        // point at a resident artifact.
        if state.siblings.len() > self.store.capacity.saturating_mul(4).max(16) {
            state.siblings.retain(|_, d| state.cache.peek(d).is_some());
        }
        drop(guard);
        self.published = true;
        self.store.resolved.notify_all();
        // The cache insert is not index work: restart the lap.
        clock.lap();
        if let Some(retro) = &self.store.retro {
            let mut retro = retro.lock().expect("retro index lock");
            for digest in &evicted {
                retro.remove(digest);
            }
            retro.insert_collected(grams);
        }
        index_ns + clock.lap()
    }
}

impl Drop for BuildClaim<'_> {
    fn drop(&mut self) {
        if !self.published {
            // Abandoned. A drop must not panic, so a poisoned lock is
            // left alone: the woken waiters meet the poison themselves.
            if let Ok(mut state) = self.store.state.lock() {
                state.building.remove(&self.entry.digest());
            }
            self.store.resolved.notify_all();
        }
    }
}

impl ArtifactStore {
    pub fn new(capacity: usize, retro_index: bool) -> Self {
        ArtifactStore {
            state: Mutex::new(Resident {
                cache: ArtifactCache::new(capacity),
                building: HashSet::new(),
                siblings: HashMap::new(),
            }),
            resolved: Condvar::new(),
            retro: retro_index.then(|| Mutex::new(RetroIndex::new())),
            capacity,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Resident> {
        self.state.lock().expect("artifact store lock")
    }

    /// Number of resident artifacts.
    pub fn len(&self) -> usize {
        self.lock().cache.len()
    }

    /// Sum of the resident artifacts' [`FileAnalysis::stored_bytes`].
    pub fn resident_bytes(&self) -> u64 {
        let state = self.lock();
        state.cache.values().map(|a| a.stored_bytes() as u64).sum()
    }

    /// Retro-index `(indexed terms, live digests)`; zeros when disabled.
    pub fn retro_size(&self) -> (u64, u64) {
        self.retro.as_ref().map_or((0, 0), |retro| {
            let retro = retro.lock().expect("retro index lock");
            (retro.term_count() as u64, retro.digest_count() as u64)
        })
    }

    /// The resident artifact for `digest`, refreshing its recency.
    pub fn get(&self, digest: &DigestKey) -> Option<Arc<FileAnalysis>> {
        self.lock().cache.get(digest)
    }

    /// Returns the cached artifact for `entry`'s digest, or the build
    /// claim when this caller is elected to build it; blocks while
    /// another worker holds the claim.
    pub fn get_or_claim<'a>(
        &'a self,
        entry: &'a FileEntry,
    ) -> Result<Arc<FileAnalysis>, BuildClaim<'a>> {
        let digest = entry.digest();
        let mut state = self.lock();
        loop {
            if let Some(artifact) = state.cache.get(&digest) {
                return Ok(artifact);
            }
            if state.building.insert(digest) {
                let donor = state.siblings.get(entry.name());
                let donor = donor.and_then(|d| state.cache.peek(d)).cloned();
                return Err(BuildClaim {
                    store: self,
                    entry,
                    donor,
                    published: false,
                });
            }
            state = self.resolved.wait(state).expect("artifact store lock");
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Arc, Barrier};

    use super::{ArtifactStore, BuildClaim};
    use crate::artifact::{ArtifactConfig, FileAnalysis};
    use crate::hub::tests::{hub, request};
    use crate::retrohunt::GramScratch;
    use crate::{FileEntry, HubConfig, ScanRequest};

    fn build_and_publish(
        claim: BuildClaim<'_>,
        entry: &FileEntry,
        grams: &mut GramScratch,
    ) -> Arc<FileAnalysis> {
        let built = Arc::new(FileAnalysis::build(entry, None, &ArtifactConfig::default()));
        claim.publish(&built, grams, false);
        built
    }

    #[test]
    fn an_abandoned_claim_passes_to_the_waiter() {
        let store = ArtifactStore::new(8, true);
        let entry = FileEntry::new("pkg/mod.py", b"import os\n".to_vec());
        let Err(abandoned) = store.get_or_claim(&entry) else {
            panic!("the first caller on a cold digest is elected");
        };
        let (started, on_start) = mpsc::channel();
        let built = std::thread::scope(|s| {
            // The waiter finds the digest claimed and blocks (or, if it
            // is scheduled late, arrives after the drop): either way
            // nothing was published, so it must come back with the
            // claim — not hang, and not be served.
            let waiter = s.spawn(|| {
                started.send(()).expect("main is listening");
                let Err(claim) = store.get_or_claim(&entry) else {
                    panic!("a digest nobody published was served");
                };
                build_and_publish(claim, &entry, &mut GramScratch::default())
            });
            on_start.recv().expect("the waiter started");
            drop(abandoned);
            waiter.join().expect("the waiter returned")
        });
        let Ok(served) = store.get_or_claim(&entry) else {
            panic!("a published digest was claimed again");
        };
        assert!(
            Arc::ptr_eq(&served, &built),
            "the waiter's build, and only it"
        );
        assert_eq!(store.len(), 1);
        assert_eq!(store.retro_size().1, 1, "indexed once, by the publisher");
    }

    #[test]
    fn two_callers_racing_on_a_cold_digest_elect_exactly_one() {
        const ROUNDS: usize = 64;
        let store = ArtifactStore::new(2 * ROUNDS, false);
        let entries: Vec<FileEntry> = (0..ROUNDS)
            .map(|i| FileEntry::new("pkg/mod.py", format!("x = {i}\n").into_bytes()))
            .collect();
        let (claims, barrier) = (AtomicUsize::new(0), Barrier::new(2));
        let race = || -> Vec<Arc<FileAnalysis>> {
            let mut grams = GramScratch::default();
            let mut seen = Vec::new();
            for entry in &entries {
                barrier.wait();
                seen.push(store.get_or_claim(entry).unwrap_or_else(|claim| {
                    claims.fetch_add(1, Ordering::Relaxed);
                    build_and_publish(claim, entry, &mut grams)
                }));
            }
            seen
        };
        let (a, b) = std::thread::scope(|s| {
            let other = s.spawn(race);
            (race(), other.join().expect("the second caller returned"))
        });
        // One election per digest, and the loser was handed the winner's
        // artifact whether it waited or arrived after the publish.
        assert_eq!(claims.load(Ordering::Relaxed), ROUNDS);
        assert!(a.iter().zip(&b).all(|(x, y)| Arc::ptr_eq(x, y)));
        assert_eq!(store.len(), ROUNDS);
    }

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
