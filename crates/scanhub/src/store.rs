//! The shared artifact store, and the only module that takes its locks.
//!
//! [`Resident`] — the digest-keyed artifact cache, the digests being
//! built, and the sibling registry naming a splice donor for a file's
//! next version — sits behind one `Mutex`, with a `Condvar` notified
//! whenever a digest stops being built. Every line that locks, waits or
//! notifies is in the one `impl ArtifactStore` block:
//!
//! * [`ArtifactStore::get_or_claim`]: a hit; or a single-flight claim,
//!   leaving with the splice donor; or wait and look again. Lookup and
//!   election share the section, so nothing is published between them.
//! * [`BuildClaim::publish`]: cache, release the claim, record and prune
//!   siblings, collect the evictions. A claim dropped unpublished (a
//!   panic on a hostile file) only releases the claim. Both then notify,
//!   so a waiter is served or claims the digest itself.
//! * [`ArtifactStore::adopt_sibling_digests`], on the submit path: reads
//!   the siblings of a request's files. It takes a poisoned lock as "no
//!   sibling", not as a panic, so one worker's panic never reaches a
//!   submitter.
//!
//! **Lock order: state → retro.** The retro-hunt index has its own lock
//! (on `cold_ingest`, on a 2-thread Xeon, collecting a file's grams
//! outside it takes ~22 µs and posting them under it ~12 µs). A publish
//! takes it before it releases the state lock, so index updates apply in
//! cache order, and posts after. Hunts and the rescan oracle read the index through
//! [`ArtifactStore::with_retro`] and artifacts through
//! [`ArtifactStore::peek`], never both at once. A hit takes 1 lock
//! acquisition; a cold file 3: claim, publish, index.
//!
//! A woken waiter re-reads the cache rather than taking the builder's
//! `Arc`, so "one analysis per unique digest" holds while the digest
//! stays resident; one evicted before the wake-up is rebuilt. Verdicts
//! cannot change: artifacts are pure in `(ruleset, bytes)`.
//!
//! **The proof is exhaustive.** Under test the shell's locks come from
//! `explore.rs`, which runs one thread at a time and switches at every
//! lock and wait. The test below replays every schedule of 2 workers ×
//! 1–2 files (shared and distinct digests, and successive versions under
//! one name) at capacity 1 and 2, with and without the index, of a failed
//! build's abandoned claim, and of a hunt racing publishers, and asserts
//! after each: no digest claimed while resident or under a live claim;
//! no thread left blocked; the index holds exactly the residents; a hunt
//! finds what the rescan finds.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use crate::artifact::FileAnalysis;
use crate::cache::{ArtifactCache, DigestKey};
use crate::metrics::{Stage, StageClock};
use crate::request::FileEntry;
use crate::retrohunt::{GramScratch, RetroIndex};
use crate::sync::{Condvar, Mutex, MutexGuard};

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
    retro: Option<Mutex<RetroIndex>>,
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
    /// Publishes a freshly built artifact, then indexes it. Its grams are
    /// collected into the worker's `grams` before any lock is taken.
    /// The collection and the index update are `clock`'s
    /// `retro_publish` laps; the cache insert between them is the
    /// [`Stage::Publish`] step.
    pub fn publish(
        mut self,
        artifact: &Arc<FileAnalysis>,
        grams: &mut GramScratch,
        clock: &mut StageClock<'_>,
    ) {
        if self.store.retro.is_some() {
            clock.lap(Stage::RetroPublish);
            grams.collect(artifact);
        }
        clock.lap(Stage::Publish);
        self.store.publish(self.entry, artifact, grams, clock);
        self.published = true;
    }
}

impl Drop for BuildClaim<'_> {
    fn drop(&mut self) {
        if !self.published {
            self.store.abandon(&self.entry.digest());
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
        }
    }

    fn lock(&self) -> MutexGuard<'_, Resident> {
        self.state.lock().expect("artifact store lock")
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

    /// [`BuildClaim::publish`] from the cache insert on: caches the
    /// artifact, records it as its name's sibling, takes the index lock,
    /// wakes the waiters, then indexes it, and returns to the `artifact`
    /// stage.
    fn publish(
        &self,
        entry: &FileEntry,
        artifact: &Arc<FileAnalysis>,
        grams: &GramScratch,
        clock: &mut StageClock<'_>,
    ) {
        let digest = entry.digest();
        let mut guard = self.lock();
        let state = &mut *guard;
        state.building.remove(&digest);
        state.siblings.insert(entry.name().to_owned(), digest);
        let evicted = state.cache.insert(digest, Arc::clone(artifact));
        // Once the registry outgrows the cache 4x (names whose digests
        // were long since evicted), keep only the mappings that still
        // point at a resident artifact.
        if state.siblings.len() > state.cache.capacity().saturating_mul(4).max(16) {
            state.siblings.retain(|_, d| state.cache.peek(d).is_some());
        }
        // Index updates follow cache order: a second publisher cannot
        // reach the index between this cache insert and its index update,
        // so an eviction is never applied after the re-insert it precedes.
        let retro = self
            .retro
            .as_ref()
            .map(|r| r.lock().expect("retro index lock"));
        drop(guard);
        self.resolved.notify_all();
        if let Some(mut retro) = retro {
            clock.lap(Stage::RetroPublish);
            for digest in &evicted {
                retro.remove(digest);
            }
            retro.insert_collected(grams);
        }
        clock.lap(Stage::Artifact);
    }

    fn abandon(&self, digest: &DigestKey) {
        // A drop must not panic, so a poisoned lock is left alone: the
        // woken waiters meet the poison themselves.
        if let Ok(mut state) = self.state.lock() {
            state.building.remove(digest);
        }
        self.resolved.notify_all();
    }

    /// `f` of the retro index under its lock; `None` when it is disabled.
    pub fn with_retro<R>(&self, f: impl FnOnce(&RetroIndex) -> R) -> Option<R> {
        let retro = self.retro.as_ref()?;
        Some(f(&retro.lock().expect("retro index lock")))
    }

    /// Gives each of `files` with no digest yet the digest of the
    /// resident artifact last published under its name, when their bytes
    /// are equal — a length check and a `memcmp` in place of a SHA-256 —
    /// and returns how many it gave. One lock acquisition, read with
    /// [`crate::cache::LruCache::peek`] so recency is untouched; a
    /// poisoned lock gives none, and every file is hashed as before.
    pub fn adopt_sibling_digests(&self, files: &[FileEntry]) -> u64 {
        if files.iter().all(FileEntry::digest_known) {
            return 0;
        }
        let Ok(state) = self.state.lock() else {
            return 0;
        };
        let mut adopted = 0;
        for entry in files.iter().filter(|f| !f.digest_known()) {
            let sibling = state.siblings.get(entry.name());
            let Some(sibling) = sibling.and_then(|d| state.cache.peek(d)) else {
                continue;
            };
            if sibling.bytes[..] == *entry.bytes() && entry.adopt_digest(sibling.digest) {
                adopted += 1;
            }
        }
        adopted
    }

    /// The resident artifact for `digest`, leaving its recency alone: a
    /// confirm scan reads history without keeping it alive.
    pub fn peek(&self, digest: &DigestKey) -> Option<Arc<FileAnalysis>> {
        self.lock().cache.peek(digest).cloned()
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
        let size = |r: &RetroIndex| (r.term_count() as u64, r.digest_count() as u64);
        self.with_retro(size).unwrap_or((0, 0))
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Arc, Barrier};

    use super::{ArtifactStore, BuildClaim};
    use crate::artifact::{ArtifactConfig, FileAnalysis};
    use crate::cache::DigestKey;
    use crate::explore::explore;
    use crate::hub::tests::{hub, request, SEMGREP, YARA};
    use crate::metrics::{HubCounters, HubTelemetry, Stage, StageClock};
    use crate::retrohunt::{self, GramScratch, RetroIndex, RuleDeployment};
    use crate::{FileEntry, HubConfig, ScanRequest};

    fn untimed() -> StageClock<'static> {
        StageClock::start(None, Stage::Artifact)
    }

    /// The explored files, kept tiny: posting grams is most of a
    /// schedule's work. The hunted rule's atom is in 0 and 2. Files 0
    /// and 1 are two versions of one file name, as are 2 and 3, so a
    /// worker uploading both claims the second with a splice donor.
    const FILES: [&str; 4] = ["a = 'curl'\n", "b = 1\n", "c = 'curl'\n", "d = 2\n"];

    /// What every schedule shares: the entries, their prebuilt artifacts
    /// (a build is pure, so a worker publishes these), one gram scratch
    /// per thread, and a deployment adding one rule on "curl".
    struct Fixture {
        entries: Vec<FileEntry>,
        artifacts: Vec<Arc<FileAnalysis>>,
        /// Hex digests of the files carrying the atom.
        carriers: Vec<String>,
        scratches: Vec<std::sync::Mutex<GramScratch>>,
        deployment: RuleDeployment,
        counters: HubCounters,
        telemetry: HubTelemetry,
    }

    impl Fixture {
        fn new() -> Self {
            let entries: Vec<FileEntry> = (0..FILES.len())
                .map(|i| FileEntry::new(format!("pkg/m{}.py", i / 2), FILES[i].as_bytes().to_vec()))
                .collect();
            let config = ArtifactConfig::default();
            let build = |e: &FileEntry| Arc::new(FileAnalysis::build(e, None, &config));
            let next = format!("{YARA}\nrule curl {{ strings: $a = \"curl\" condition: $a }}");
            let deployment = hub(HubConfig::default()).deploy_rules(
                Some(yara_engine::compile(&next).expect("yara")),
                Some(semgrep_engine::compile(SEMGREP).expect("semgrep")),
            );
            assert_eq!(deployment.delta.changed.len(), 1);
            Fixture {
                artifacts: entries.iter().map(build).collect(),
                carriers: [0, 2]
                    .map(|i| digest::to_hex(&entries[i].digest()))
                    .to_vec(),
                entries,
                scratches: (0..3).map(|_| Default::default()).collect(),
                deployment,
                counters: HubCounters::default(),
                telemetry: HubTelemetry::new(false, 0),
            }
        }
    }

    /// One schedule's store, and the digests under a claim the workers
    /// hold — a ghost kept outside the store's locks.
    struct World {
        store: ArtifactStore,
        claimed: std::sync::Mutex<HashSet<DigestKey>>,
    }

    /// One worker: get or claim each file in turn, then publish the
    /// claim, or drop it when `fails` (a build that panicked).
    fn work(fixture: &Fixture, world: &World, me: usize, files: &[usize], fails: bool) {
        for &file in files {
            let entry = &fixture.entries[file];
            let digest = entry.digest();
            match world.store.get_or_claim(entry) {
                Ok(served) => {
                    let published = &fixture.artifacts[file];
                    assert!(Arc::ptr_eq(&served, published), "served another artifact");
                }
                Err(claim) => {
                    // Nobody else has run since the claim section, so the
                    // state is as that section left it.
                    let resident = world
                        .store
                        .state
                        .observe(|s| s.cache.peek(&digest).is_some());
                    assert!(!resident.expect("unlocked"), "claimed a resident digest");
                    let fresh = world.claimed.lock().expect("ghost").insert(digest);
                    assert!(fresh, "claimed a digest under a live claim");
                    if let Some(donor) = &claim.donor {
                        let version = |j: usize| j != file && j / 2 == file / 2;
                        let sibling = |j| version(j) && Arc::ptr_eq(donor, &fixture.artifacts[j]);
                        let why = "the donor is not another version of the file";
                        assert!((0..FILES.len()).any(sibling), "{why}");
                    }
                    if fails {
                        drop(claim);
                    } else {
                        let grams = &mut fixture.scratches[me].lock().expect("scratch");
                        claim.publish(&fixture.artifacts[file], grams, &mut untimed());
                    }
                    // The claim ended in the section publish or abandon
                    // ran. After it comes one switch point at most, the
                    // index lock taken under the state lock, so no other
                    // claim section has run since.
                    world.claimed.lock().expect("ghost").remove(&digest);
                }
            }
        }
    }

    fn hunt(fixture: &Fixture, world: &World) -> retrohunt::RetroReport {
        let (deployment, counters) = (&fixture.deployment, &fixture.counters);
        retrohunt::hunt(&world.store, deployment, None, counters, &fixture.telemetry)
            .expect("retro index enabled")
    }

    /// The end state: no claim left and, with the index on, the index
    /// equal to the residents and a hunt, the rescan and the truth naming
    /// the same hits.
    fn check(fixture: &Fixture, world: &World) {
        let state = world.store.lock();
        assert!(state.building.is_empty(), "a claim outlived its worker");
        let mut resident: Vec<DigestKey> = state.cache.values().map(|a| a.digest).collect();
        drop(state);
        let Some(all) = world.store.with_retro(RetroIndex::all_digests) else {
            return;
        };
        let mut indexed: Vec<DigestKey> = all.into_iter().map(|(d, _)| d).collect();
        resident.sort_unstable();
        indexed.sort_unstable();
        assert_eq!(indexed, resident, "the index and the cache diverged");
        let rescan = retrohunt::rescan(&world.store, &fixture.deployment).expect("index");
        assert!(hunt(fixture, world).same_hits(&rescan), "hunt ≠ rescan");
        let resident = resident.iter().map(digest::to_hex);
        let truth: Vec<String> = resident.filter(|d| fixture.carriers.contains(d)).collect();
        assert_eq!(rescan.rules[0].digests, truth);
    }

    /// A configuration: its name, the cache capacity, whether the store
    /// keeps the retro index, and one spec per thread. A spec is a
    /// worker's files in order (`"01"`: file 0, then file 1), ending in
    /// `!` when each of its builds fails, or `"hunt"` for a thread that
    /// runs one hunt.
    type Config = (&'static str, usize, bool, &'static [&'static str]);

    const CONFIGS: [Config; 17] = [
        ("1 shared file", 1, true, &["0", "0"]),
        ("2 versions of a file, one each", 1, true, &["0", "1"]),
        ("2 shared versions", 1, true, &["01", "01"]),
        ("2 shared versions", 2, true, &["01", "01"]),
        ("2 shared versions, no index", 1, false, &["01", "01"]),
        ("2 shared versions, no index", 2, false, &["01", "01"]),
        ("2 shared versions, crossed", 1, true, &["01", "10"]),
        ("2 shared versions, crossed", 2, true, &["01", "10"]),
        ("2 versions each of 2 files", 1, true, &["01", "23"]),
        ("2 versions each of 2 files", 2, true, &["01", "23"]),
        ("a failed build of a shared file", 1, true, &["0!", "0"]),
        (
            "a failed build of a shared file, no index",
            1,
            false,
            &["0!", "0"],
        ),
        ("a failed build, then 2 versions", 1, true, &["0!", "01"]),
        ("a failed build, 2 waiters", 1, true, &["0!", "0", "0"]),
        ("a hunt racing 3 publishes", 1, true, &["012", "hunt"]),
        ("a hunt racing 3 publishes", 2, true, &["012", "hunt"]),
        ("a hunt racing 2 workers", 1, true, &["0", "2", "hunt"]),
    ];

    /// Explores every schedule of one configuration; returns their count.
    fn explore_config(fixture: &Fixture, (name, capacity, retro, specs): Config) -> usize {
        let bodies: Vec<_> = (0..specs.len())
            .map(|me| {
                move |world: &World| match specs[me] {
                    "hunt" => {
                        let report = hunt(fixture, world);
                        let false_hit = |h: &String| !fixture.carriers.contains(h);
                        assert!(!report.rules[0].digests.iter().any(false_hit));
                    }
                    spec => {
                        let files: Vec<usize> = spec
                            .bytes()
                            .filter(u8::is_ascii_digit)
                            .map(|b| usize::from(b - b'0'))
                            .collect();
                        work(fixture, world, me, &files, spec.ends_with('!'));
                    }
                }
            })
            .collect();
        let threads: Vec<&(dyn Fn(&World) + Sync)> = bodies.iter().map(|b| b as _).collect();
        let name = format!("{name}, capacity {capacity}");
        let setup = || World {
            store: ArtifactStore::new(capacity, retro),
            claimed: Default::default(),
        };
        let schedules = explore(&name, setup, &threads, |w| check(fixture, w));
        println!("{name}: {schedules} schedules");
        schedules
    }

    #[test]
    fn every_schedule_of_the_store_keeps_its_invariants() {
        let fixture = &Fixture::new();
        let counts: Vec<usize> = CONFIGS.map(|c| explore_config(fixture, c)).to_vec();
        // The exploration is deterministic: the largest, replayed, takes
        // exactly as many schedules again.
        let largest = (0..counts.len())
            .max_by_key(|&i| counts[i])
            .expect("configs");
        let again = explore_config(fixture, CONFIGS[largest]);
        assert_eq!(again, counts[largest], "a count moved");
    }

    fn build_and_publish(
        claim: BuildClaim<'_>,
        entry: &FileEntry,
        grams: &mut GramScratch,
    ) -> Arc<FileAnalysis> {
        let built = Arc::new(FileAnalysis::build(entry, None, &ArtifactConfig::default()));
        claim.publish(&built, grams, &mut untimed());
        built
    }

    #[test]
    fn a_poisoned_store_leaves_the_submit_path_hashing() {
        let hub = hub(HubConfig {
            workers: 1,
            ..HubConfig::default()
        });
        let code = "import os\nos.system('id')\n";
        let first = hub.submit(request(code)).wait();
        let store = hub.store();
        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _held = store.lock();
                panic!("a worker panics holding the store lock");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(store.state.lock().is_err(), "the lock is poisoned");
        let again = request(code);
        assert_eq!(store.adopt_sibling_digests(again.files()), 0);
        // The submit path finds no sibling, hashes the file and answers
        // from the verdict cache.
        let verdict = hub.submit(again).wait();
        assert!(verdict.from_cache && verdict.same_matches(&first));
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
