//! Digest-keyed LRU caches: verdicts per request, artifacts per file.
//!
//! Registry traffic is heavy with re-uploads and unchanged file sets; the
//! paper's corpus itself deduplicates 3,200 packages to 1,633 unique
//! signatures. Keying finished verdicts by content digest lets the hub
//! serve every duplicate without touching a scanner, and keying per-file
//! [`crate::FileAnalysis`] artifacts by file digest lets a re-uploaded
//! package *version* re-parse only the files that changed.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use crate::artifact::FileAnalysis;
use crate::verdict::Verdict;

/// A raw BLAKE2b-256 content digest — half the size of its hex rendering,
/// and copying a key is a 32-byte memcpy instead of a heap allocation.
pub type DigestKey = [u8; 32];

/// A bounded least-recently-used map from content digest to a cheaply
/// clonable value.
///
/// Recency is tracked with a lazy queue: every access pushes a fresh
/// `(tick, key)` entry and stale entries are skipped during eviction, so
/// both `get` and `insert` are amortized O(1).
///
/// A method cut short by a panic leaves the cache consistent, so a lock
/// around one is safe to recover from poison. The methods hash and compare
/// 32-byte keys and clone values, and none of that can unwind: a failed
/// allocation aborts. If one did unwind, every entry would still map its
/// digest to the value inserted under it. The queue may then hold a stale
/// entry, which eviction skips, or lack a fresh one, which leaves that
/// entry unevicted past `capacity`. Neither makes a lookup wrong.
#[derive(Debug)]
pub struct LruCache<V: Clone> {
    capacity: usize,
    tick: u64,
    map: HashMap<DigestKey, (V, u64)>,
    recency: VecDeque<(u64, DigestKey)>,
}

/// The request-level verdict cache; values are shared handles, so a hit
/// costs one `Arc` clone, and the cache, the ticket and the trace of a
/// scan hold one verdict between them.
pub type VerdictCache = LruCache<Arc<Verdict>>;

/// The per-file artifact cache; values are shared handles, so a hit
/// costs one `Arc` clone and cached artifacts are safely consumed by
/// many workers at once.
pub type ArtifactCache = LruCache<Arc<FileAnalysis>>;

impl<V: Clone> LruCache<V> {
    /// Creates a cache holding at most `capacity` values.
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            tick: 0,
            map: HashMap::new(),
            recency: VecDeque::new(),
        }
    }

    /// Number of cached values.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// The most values the cache holds.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterates over the resident values in unspecified order, without
    /// touching recency. Powers point-in-time gauges over cache contents
    /// (the hub's `artifact_bytes_resident`).
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.map.values().map(|(value, _)| value)
    }

    /// Looks up `digest` without refreshing its recency. Sibling lookups
    /// on the splice path use this: reading an old version to diff
    /// against must not keep it alive over genuinely hot entries.
    pub fn peek(&self, digest: &DigestKey) -> Option<&V> {
        self.map.get(digest).map(|(value, _)| value)
    }

    /// Looks up `digest`, refreshing its recency on a hit.
    pub fn get(&mut self, digest: &DigestKey) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        let value = {
            let (value, stamp) = self.map.get_mut(digest)?;
            *stamp = tick;
            value.clone()
        };
        self.recency.push_back((tick, *digest));
        self.maybe_compact();
        Some(value)
    }

    /// Stores `value` under `digest`, evicting the least recently used
    /// entry when full.
    pub fn insert(&mut self, digest: DigestKey, value: V) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        let tick = self.tick;
        self.recency.push_back((tick, digest));
        self.map.insert(digest, (value, tick));
        while self.map.len() > self.capacity {
            let Some((stamp, key)) = self.recency.pop_front() else {
                break;
            };
            // Stale queue entry: the key was touched again later.
            if self.map.get(&key).is_some_and(|(_, s)| *s == stamp) {
                self.map.remove(&key);
            }
        }
        self.maybe_compact();
    }

    /// Drops stale recency entries once the queue outgrows the map 4×.
    fn maybe_compact(&mut self) {
        if self.recency.len() > 4 * self.map.len().max(8) {
            let map = &self.map;
            self.recency
                .retain(|(stamp, key)| map.get(key).is_some_and(|(_, s)| s == stamp));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdict(tag: &str) -> Arc<Verdict> {
        Arc::new(Verdict {
            yara: vec![tag.to_owned()],
            ..Verdict::default()
        })
    }

    /// A recognizable test key: the name byte repeated.
    fn key(name: u8) -> DigestKey {
        [name; 32]
    }

    #[test]
    fn hit_and_miss() {
        let mut cache = VerdictCache::new(4);
        cache.insert(key(b'a'), verdict("ra"));
        assert_eq!(
            cache.get(&key(b'a')).map(|v| v.yara.clone()),
            Some(vec!["ra".to_owned()])
        );
        assert!(cache.get(&key(b'b')).is_none());
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut cache = VerdictCache::new(2);
        cache.insert(key(b'a'), verdict("ra"));
        cache.insert(key(b'b'), verdict("rb"));
        // Touch `a` so `b` becomes the eviction victim.
        assert!(cache.get(&key(b'a')).is_some());
        cache.insert(key(b'c'), verdict("rc"));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key(b'a')).is_some());
        assert!(cache.get(&key(b'b')).is_none());
        assert!(cache.get(&key(b'c')).is_some());
    }

    #[test]
    fn reinsert_refreshes() {
        let mut cache = VerdictCache::new(2);
        cache.insert(key(b'a'), verdict("r1"));
        cache.insert(key(b'b'), verdict("r2"));
        cache.insert(key(b'a'), verdict("r3"));
        cache.insert(key(b'c'), verdict("r4"));
        assert_eq!(
            cache.get(&key(b'a')).map(|v| v.yara.clone()),
            Some(vec!["r3".to_owned()])
        );
        assert!(cache.get(&key(b'b')).is_none());
    }

    #[test]
    fn zero_capacity_caches_nothing() {
        let mut cache = VerdictCache::new(0);
        cache.insert(key(b'a'), verdict("ra"));
        assert_eq!(cache.len(), 0);
        assert!(cache.get(&key(b'a')).is_none());
    }

    #[test]
    fn eviction_follows_full_access_order() {
        // Eviction must track *access* recency, not insertion order, even
        // through interleaved get/insert traffic.
        let mut cache = VerdictCache::new(3);
        cache.insert(key(b'a'), verdict("ra"));
        cache.insert(key(b'b'), verdict("rb"));
        cache.insert(key(b'c'), verdict("rc"));
        assert!(cache.get(&key(b'a')).is_some()); // order now b, c, a
        assert!(cache.get(&key(b'b')).is_some()); // order now c, a, b
        cache.insert(key(b'd'), verdict("rd")); // evicts c
        assert!(cache.get(&key(b'c')).is_none());
        assert!(cache.get(&key(b'a')).is_some());
        assert!(cache.get(&key(b'b')).is_some());
        assert!(cache.get(&key(b'd')).is_some());
        cache.insert(key(b'e'), verdict("re")); // evicts the oldest touch: a
        assert!(cache.get(&key(b'a')).is_none());
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn same_digest_reinsert_overwrites_not_duplicates() {
        // Two *different* verdicts under one digest model a digest
        // collision (or a rule-bundle change reusing a cache): the last
        // write must win and the map must hold a single entry.
        let mut cache = VerdictCache::new(3);
        cache.insert(key(b'x'), verdict("rx"));
        cache.insert(key(b'y'), verdict("ry"));
        cache.insert(key(b'D'), verdict("old"));
        cache.insert(key(b'D'), verdict("new"));
        assert_eq!(cache.len(), 3);
        assert_eq!(
            cache.get(&key(b'D')).map(|v| v.yara.clone()),
            Some(vec!["new".to_owned()])
        );
        // Under capacity pressure the true LRU (`x`) goes first...
        cache.insert(key(b'z'), verdict("rz"));
        assert!(cache.get(&key(b'x')).is_none());
        assert!(cache.get(&key(b'D')).is_some());
        // ...and the stale recency entry left by the overwritten first
        // insert must not evict the refreshed `D` out of turn: the next
        // victim is `y`, the oldest remaining touch.
        cache.insert(key(b'w'), verdict("rw"));
        assert!(cache.get(&key(b'y')).is_none());
        assert!(cache.get(&key(b'D')).is_some(), "overwritten entry lost");
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn capacity_one_thrash() {
        let mut cache = VerdictCache::new(1);
        for i in 0..100u8 {
            cache.insert(key(i), verdict("r"));
            assert_eq!(cache.len(), 1);
            assert!(cache.get(&key(i)).is_some());
            if i > 0 {
                assert!(cache.get(&key(i - 1)).is_none());
            }
        }
    }

    #[test]
    fn recency_queue_stays_bounded() {
        let mut cache = VerdictCache::new(8);
        for i in 0..8u8 {
            cache.insert(key(i), verdict("r"));
        }
        for _ in 0..10_000 {
            assert!(cache.get(&key(3)).is_some());
        }
        assert!(cache.recency.len() <= 4 * cache.map.len().max(8) + 1);
    }

    #[test]
    fn insert_overwrite_at_capacity_evicts_nothing() {
        // Overwriting a digest that is already resident does not grow the
        // map, so it must never push another *live* entry out.
        let mut cache = VerdictCache::new(3);
        cache.insert(key(b'a'), verdict("ra"));
        cache.insert(key(b'b'), verdict("rb"));
        cache.insert(key(b'c'), verdict("rc"));
        for round in 0..10 {
            cache.insert(key(b'b'), verdict("rb2"));
            let resident = [b'a', b'b', b'c'].map(|k| cache.peek(&key(k)).is_some());
            assert_eq!(resident, [true; 3], "overwrite evicted (round {round})");
            assert_eq!(cache.len(), 3);
        }
        assert!(cache.get(&key(b'a')).is_some());
        assert!(cache.get(&key(b'b')).is_some());
        assert!(cache.get(&key(b'c')).is_some());
    }

    #[test]
    fn insert_evicts_exactly_the_least_recent_digest() {
        let mut cache = VerdictCache::new(2);
        cache.insert(key(b'a'), verdict("ra"));
        cache.insert(key(b'b'), verdict("rb"));
        cache.insert(key(b'c'), verdict("rc"));
        let resident = [b'a', b'b', b'c'].map(|k| cache.peek(&key(k)).is_some());
        assert_eq!(resident, [false, true, true]);
        // Zero capacity stores nothing.
        let mut none = VerdictCache::new(0);
        none.insert(key(b'z'), verdict("rz"));
        assert_eq!(none.len(), 0);
    }

    #[test]
    fn recency_queue_stays_bounded_under_zipfian_get_heavy_trace() {
        // A skewed, get-heavy trace is the adversarial input for the lazy
        // recency queue: hot keys re-stamp themselves constantly, piling
        // stale entries faster than eviction consumes them. The queue
        // must stay within the compaction bound (≤ 4× map + slack) at
        // every step, and residency must never exceed capacity.
        let mut cache = VerdictCache::new(16);
        for i in 0..16u8 {
            cache.insert(key(i), verdict("seed"));
        }
        let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut lcg = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for step in 0..50_000u32 {
            // ~Zipfian skew: key k is hit with weight ∝ 1/(k+1), by
            // resampling uniformly from a shrinking prefix.
            let k = (lcg() % (1 + lcg() % 24)) as u8;
            if step % 97 == 0 {
                // Occasional new digest keeps eviction in play.
                cache.insert(key(k.wrapping_add(100)), verdict("new"));
            } else {
                let _ = cache.get(&key(k));
            }
            assert!(
                cache.recency.len() <= 4 * cache.map.len().max(8) + 1,
                "queue {} exceeds bound at step {step} (map {})",
                cache.recency.len(),
                cache.map.len()
            );
            assert!(cache.map.len() <= 16, "residency exceeds capacity");
        }
    }

    #[test]
    fn values_and_peek_leave_recency_alone() {
        let mut cache = VerdictCache::new(2);
        cache.insert(key(b'a'), verdict("ra"));
        cache.insert(key(b'b'), verdict("rb"));
        // Peeking `a` and iterating values must NOT refresh `a`: the
        // next insert still evicts it as the least recently used.
        assert!(cache.peek(&key(b'a')).is_some());
        assert_eq!(cache.values().count(), 2);
        cache.insert(key(b'c'), verdict("rc"));
        assert!(cache.peek(&key(b'a')).is_none(), "peek refreshed recency");
        assert!(cache.peek(&key(b'b')).is_some());
        assert!(cache.peek(&key(b'z')).is_none());
    }

    #[test]
    fn real_request_digests_round_trip() {
        let mut cache = VerdictCache::new(4);
        let req = crate::ScanRequest::from_source("mod.py", "src = 1\n");
        cache.insert(req.digest(), verdict("hit"));
        assert_eq!(
            cache.get(&req.digest()).map(|v| v.yara.clone()),
            Some(vec!["hit".to_owned()])
        );
    }

    #[test]
    fn artifact_cache_shares_analyses_by_handle() {
        use crate::artifact::{ArtifactConfig, FileAnalysis};
        use crate::request::FileEntry;

        let mut cache = ArtifactCache::new(4);
        let entry = FileEntry::new("mod.py", b"import os\n".to_vec());
        let built = Arc::new(FileAnalysis::build(
            &entry,
            None,
            &ArtifactConfig::default(),
        ));
        cache.insert(entry.digest(), Arc::clone(&built));
        let hit = cache.get(&entry.digest()).expect("cached artifact");
        assert!(Arc::ptr_eq(&hit, &built), "hit must be the same analysis");
        // A changed file is a different digest — never a stale artifact.
        let changed = FileEntry::new("mod.py", b"import sys\n".to_vec());
        assert!(cache.get(&changed.digest()).is_none());
    }
}
