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
//!   siblings. A claim dropped unpublished (a panic on a hostile file)
//!   only releases the claim. Both then notify, so a waiter is served or
//!   claims the digest itself.
//! * [`ArtifactStore::adopt_sibling_digests`], on the submit path: reads
//!   the siblings of a request's files.
//! * [`ArtifactStore::with_retro`], on a hunt, and
//!   [`ArtifactStore::residents`], on a rescan: read which digests are
//!   resident, the one to sync the retro index, the other in its stead.
//!
//! **A poisoned state lock is recovered.** A panic under it costs the
//! ticket it happened on and no later one, because every section leaves
//! [`Resident`] consistent at every point it could unwind from. None of
//! them runs parsing, scanning or any code of a rule; each is a few
//! `HashMap`/`HashSet`/[`crate::cache::LruCache`] calls on 32-byte keys,
//! `Arc` clones and a `String` copy, whose only failures (allocation,
//! refcount overflow) abort instead of unwinding. Were one to unwind
//! anyway, per section:
//!
//! * the lookups (`get_or_claim`'s hit, the read-only methods, the
//!   sync's) write nothing but the cache's recency, which the cache keeps
//!   consistent itself (see `LruCache`);
//! * `get_or_claim`'s claim inserts the digest into `building`, then
//!   looks up the donor and returns the `BuildClaim` that releases it;
//!   between the two are a map lookup, a `peek` and an `Arc` clone, none
//!   of which unwinds;
//! * `publish` releases the claim first, so from there on a panic leaves
//!   the digest neither claimed nor resident, and the next caller builds
//!   it; the sibling map is a hint, a stale name only costs a full build;
//! * `abandon` releases the claim and nothing else.
//!
//! **A poisoned retro lock retires the index.** Its writer, the sync, is
//! not consistent at every point: `insert_collected` registers a digest
//! before it posts the digest's grams, and `compact` rebuilds the
//! postings before the gram table. A panic between would leave a digest
//! that a hunt silently misses. So [`ArtifactStore::with_retro`] reads
//! no poisoned index: hunts answer `None`, as on a hub without an index,
//! and verdicts, the artifact cache and the rescan are untouched.
//!
//! **No request touches the retro index.** The retro-hunt index has its
//! own lock, which only [`ArtifactStore::with_retro`] and the gauges
//! take. Before a hunt reads the index, the sync brings it to
//! the resident set: under the retro lock it takes the state lock just
//! long enough to list the indexed digests no longer resident and the
//! resident artifacts not yet indexed (by `peek` and `values`, so
//! recency is untouched), then drops the former, compacting at most
//! once, and collects and posts the latter's grams in digest order
//! through the store's one gram scratch. **Lock order: retro → state.**
//! The sync is the only section holding both, and it takes the retro
//! lock first, so no thread holds the state lock the workers need while
//! it waits for a hunt's query. A hit takes 1 lock acquisition; a cold
//! file 2: claim, publish.
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
//! one name) at capacity 0, 1 and 2, of a failed build's abandoned claim,
//! and of one or two hunts racing publishers, and asserts after each: no
//! digest claimed while resident or under a live claim; no thread left
//! blocked; once synced, the index holds exactly the residents; a hunt
//! finds what the rescan finds.

use std::collections::{HashMap, HashSet};
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, PoisonError};

use crate::artifact::FileAnalysis;
use crate::cache::{ArtifactCache, DigestKey};
use crate::metrics::{Stage, StageClock};
use crate::request::FileEntry;
use crate::retrohunt::{GramScratch, RetroIndex};
use crate::sync::{Condvar, Mutex, MutexGuard};

/// The retro index and the one scratch its syncs collect grams through.
struct Retro {
    index: RetroIndex,
    grams: GramScratch,
}

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
    retro: Option<Mutex<Retro>>,
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
    /// Publishes a freshly built artifact: the [`Stage::Publish`] step of
    /// `clock`, which then returns to the `artifact` stage. The retro
    /// index is not touched; the next hunt indexes the artifact.
    pub fn publish(mut self, artifact: &Arc<FileAnalysis>, clock: &mut StageClock<'_>) {
        clock.lap(Stage::Publish);
        self.store.publish(self.entry, artifact);
        clock.lap(Stage::Artifact);
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
            retro: retro_index.then(|| {
                Mutex::new(Retro {
                    index: RetroIndex::new(),
                    grams: GramScratch::default(),
                })
            }),
        }
    }

    /// The resident state, recovered if a panic poisoned its lock (see
    /// the module doc for why that is sound).
    fn lock(&self) -> MutexGuard<'_, Resident> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
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
            state = self
                .resolved
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// [`BuildClaim::publish`]'s section: caches the artifact, records it
    /// as its name's sibling, then wakes the waiters.
    fn publish(&self, entry: &FileEntry, artifact: &Arc<FileAnalysis>) {
        let digest = entry.digest();
        let mut guard = self.lock();
        let state = &mut *guard;
        state.building.remove(&digest);
        state.siblings.insert(entry.name().to_owned(), digest);
        state.cache.insert(digest, Arc::clone(artifact));
        // Once the registry outgrows the cache 4x (names whose digests
        // were long since evicted), keep only the mappings that still
        // point at a resident artifact.
        if state.siblings.len() > state.cache.capacity().saturating_mul(4).max(16) {
            state.siblings.retain(|_, d| state.cache.peek(d).is_some());
        }
        drop(guard);
        self.resolved.notify_all();
    }

    fn abandon(&self, digest: &DigestKey) {
        self.lock().building.remove(digest);
        self.resolved.notify_all();
    }

    /// `f` of the retro index under its lock, once the index is synced to
    /// the resident artifacts; `None` when it is disabled, or retired by a
    /// panic that poisoned its lock. The sync is one `clock` lap of the
    /// stage the caller started it in; `f` runs in `next`.
    ///
    /// Under the retro lock, then the state lock, the sync takes the
    /// indexed digests no longer resident and the resident artifacts not
    /// yet indexed. It releases the state lock, drops the former and
    /// indexes the latter: `f` sees exactly the artifacts resident when
    /// the state lock was held.
    pub fn with_retro<R>(
        &self,
        clock: &mut StageClock<'_>,
        next: Stage,
        f: impl FnOnce(&RetroIndex) -> R,
    ) -> Option<R> {
        let mut guard = self.retro.as_ref()?.lock().ok()?;
        let retro = &mut *guard;
        let (gone, fresh) = retro.index.diff(&self.lock().cache);
        retro.index.sync(&gone, fresh, &mut retro.grams);
        clock.lap(next);
        Some(f(&retro.index))
    }

    /// Gives each of `files` with no digest yet the digest of the
    /// resident artifact last published under its name, when their bytes
    /// are equal — a length check and a `memcmp` in place of a SHA-256 —
    /// and returns how many it gave. One lock acquisition, read with
    /// [`crate::cache::LruCache::peek`] so recency is untouched.
    pub fn adopt_sibling_digests(&self, files: &[FileEntry]) -> u64 {
        if files.iter().all(FileEntry::digest_known) {
            return 0;
        }
        let state = self.lock();
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

    /// The resident digests, in no order, leaving their recency alone.
    pub fn residents(&self) -> Vec<DigestKey> {
        self.lock().cache.values().map(|a| a.digest).collect()
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

    /// Panics while holding the state lock, and catches the panic.
    pub fn poison(&self) {
        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _held = self.lock();
            panic!("a panic under the artifact store lock");
        }));
    }

    /// Retro-index `(indexed terms, live digests)` as of its last sync;
    /// zeros when disabled or retired.
    pub fn retro_size(&self) -> (u64, u64) {
        let retro = self.retro.as_ref().and_then(|r| r.lock().ok());
        let size = |r: &Retro| (r.index.term_count() as u64, r.index.digest_count() as u64);
        retro.map_or((0, 0), |r| size(&r))
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Arc, Barrier};

    use super::{ArtifactStore, BuildClaim};
    use crate::artifact::{ArtifactConfig, FileAnalysis};
    use crate::cache::DigestKey;
    use crate::explore::explore;
    use crate::hub::tests::{hub, request, SEMGREP, YARA};
    use crate::metrics::{HubCounters, HubTelemetry, Stage, StageClock};
    use crate::retrohunt::{self, RetroIndex, RuleDeployment};
    use crate::{FileEntry, HubConfig, ScanRequest};

    fn untimed() -> StageClock<'static> {
        StageClock::start(None, Stage::Artifact)
    }

    /// The explored files, kept tiny: a hunt's sync posts their grams. The hunted rule's atom is in 0 and 2. Files 0
    /// and 1 are two versions of one file name, as are 2 and 3, so a
    /// worker uploading both claims the second with a splice donor.
    const FILES: [&str; 4] = ["a = 'curl'\n", "b = 1\n", "c = 'curl'\n", "d = 2\n"];

    /// What every schedule shares: the entries, their prebuilt artifacts
    /// (a build is pure, so a worker publishes these), and a deployment
    /// adding one rule on "curl".
    struct Fixture {
        entries: Vec<FileEntry>,
        artifacts: Vec<Arc<FileAnalysis>>,
        /// Hex digests of the files carrying the atom.
        carriers: Vec<String>,
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
    fn work(fixture: &Fixture, world: &World, files: &[usize], fails: bool) {
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
                        claim.publish(&fixture.artifacts[file], &mut untimed());
                    }
                    // The claim ended in the section publish or abandon
                    // ran, and no switch point follows it, so no other
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

    /// The end state: no claim left, the index synced to exactly the
    /// residents, and a hunt, the rescan and the truth naming the same
    /// hits.
    fn check(fixture: &Fixture, world: &World) {
        assert!(
            world.store.lock().building.is_empty(),
            "a claim outlived its worker"
        );
        let mut resident = world.store.residents();
        let all = world
            .store
            .with_retro(&mut untimed(), Stage::Idle, RetroIndex::all_digests)
            .expect("retro index enabled");
        let mut indexed: Vec<DigestKey> = all.into_iter().map(|(d, _)| d).collect();
        resident.sort_unstable();
        indexed.sort_unstable();
        assert_eq!(indexed, resident, "the index and the cache diverged");
        let rescan = retrohunt::rescan(&world.store, &fixture.deployment);
        assert!(hunt(fixture, world).same_hits(&rescan), "hunt ≠ rescan");
        let resident = resident.iter().map(digest::to_hex);
        let truth: Vec<String> = resident.filter(|d| fixture.carriers.contains(d)).collect();
        assert_eq!(rescan.rules[0].digests, truth);
    }

    /// A configuration: its name, the cache capacity, and one spec per
    /// thread. A spec is a worker's files in order (`"01"`: file 0, then
    /// file 1), ending in `!` when each of its builds fails, or `"hunt"`
    /// for a thread that runs one hunt. Every store keeps the retro index:
    /// no publish takes its lock, so a store without one explores the
    /// same schedules.
    type Config = (&'static str, usize, &'static [&'static str]);

    const CONFIGS: [Config; 17] = [
        ("1 shared file", 0, &["0", "0"]),
        ("1 shared file", 1, &["0", "0"]),
        ("2 versions of a file, one each", 1, &["0", "1"]),
        ("2 shared versions", 1, &["01", "01"]),
        ("2 shared versions", 2, &["01", "01"]),
        ("2 shared versions, crossed", 1, &["01", "10"]),
        ("2 shared versions, crossed", 2, &["01", "10"]),
        ("2 versions each of 2 files", 1, &["01", "23"]),
        ("2 versions each of 2 files", 2, &["01", "23"]),
        ("a failed build of a shared file", 1, &["0!", "0"]),
        ("a failed build, then 2 versions", 0, &["0!", "01"]),
        ("a failed build, then 2 versions", 1, &["0!", "01"]),
        ("a failed build, 2 waiters", 1, &["0!", "0", "0"]),
        ("a hunt racing 3 publishes", 1, &["012", "hunt"]),
        ("a hunt racing 3 publishes", 2, &["012", "hunt"]),
        ("a hunt racing 2 workers", 1, &["0", "2", "hunt"]),
        ("2 hunts racing 3 publishes", 1, &["012", "hunt", "hunt"]),
    ];

    /// Explores every schedule of one configuration; returns their count.
    fn explore_config(fixture: &Fixture, (name, capacity, specs): Config) -> usize {
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
                        work(fixture, world, &files, spec.ends_with('!'));
                    }
                }
            })
            .collect();
        let threads: Vec<&(dyn Fn(&World) + Sync)> = bodies.iter().map(|b| b as _).collect();
        let name = format!("{name}, capacity {capacity}");
        let setup = || World {
            store: ArtifactStore::new(capacity, true),
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

    fn build_and_publish(claim: BuildClaim<'_>, entry: &FileEntry) -> Arc<FileAnalysis> {
        let built = Arc::new(FileAnalysis::build(entry, None, &ArtifactConfig::default()));
        claim.publish(&built, &mut untimed());
        built
    }

    /// Syncs the store's retro index to its residents, then reads its
    /// `(indexed terms, live digests)`.
    fn synced_retro_size(store: &ArtifactStore) -> (u64, u64) {
        store.with_retro(&mut untimed(), Stage::Idle, |_| ());
        store.retro_size()
    }

    #[test]
    fn a_poisoned_store_serves_on() {
        let hub = hub(HubConfig {
            workers: 1,
            ..HubConfig::default()
        });
        let code = "import os\nos.system('id')\n";
        let first = hub.submit(request(code)).wait();
        let store = hub.store();
        store.poison();
        assert!(store.state.lock().is_err(), "the lock is poisoned");
        // The submit path still takes the resident sibling's digest and
        // answers from the verdict cache...
        let again = request(code);
        assert_eq!(store.adopt_sibling_digests(again.files()), 1);
        let verdict = hub.submit(again).wait();
        assert!(verdict.from_cache && verdict.same_matches(&first));
        // ...and a new version of the file is claimed, built and
        // published.
        let bumped = hub
            .submit(request("import os\nos.system('whoami')\n"))
            .wait();
        assert!(!bumped.from_cache && bumped.flagged());
        assert_eq!(hub.stats().artifact_parses, 2);
        assert_eq!((store.len(), synced_retro_size(store).1), (2, 2));
    }

    #[test]
    fn a_poisoned_retro_index_retires() {
        let hub = hub(HubConfig {
            workers: 1,
            ..HubConfig::default()
        });
        let carrier = request("import os\nos.system('id')\n");
        let first = hub.submit(carrier.clone()).wait();
        let store = hub.store();
        let retro = store.retro.as_ref().expect("retro index on");
        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _held = retro.lock();
            panic!("a panic under the retro index lock");
        }));
        let next =
            format!("{YARA}\nrule sys_again {{ strings: $a = \"os.system\" condition: $a }}");
        let deployment = hub.deploy_rules(
            Some(yara_engine::compile(&next).expect("yara")),
            Some(semgrep_engine::compile(SEMGREP).expect("semgrep")),
        );
        assert!(hub.retro_hunt(&deployment).is_none(), "no hunt on it");
        assert_eq!(store.retro_size(), (0, 0));
        // Publishing never touches it; requests are served as before.
        let other = hub.submit(request("x = 1\n")).wait();
        assert!(!other.flagged() && first.flagged());
        assert_eq!(store.len(), 2);
        // The rescan reads the store, so it still answers and names the
        // carrier among both residents.
        let rescan = hub
            .retro_rescan(&deployment)
            .expect("the rescan reads the store");
        assert_eq!(rescan.digests_indexed, 2);
        let carriers = vec![digest::to_hex(&carrier.files()[0].digest())];
        assert_eq!(rescan.rules[0].digests, carriers);
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
                build_and_publish(claim, &entry)
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
        assert_eq!(synced_retro_size(&store).1, 1, "indexed once");
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
            let mut seen = Vec::new();
            for entry in &entries {
                barrier.wait();
                seen.push(store.get_or_claim(entry).unwrap_or_else(|claim| {
                    claims.fetch_add(1, Ordering::Relaxed);
                    build_and_publish(claim, entry)
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
