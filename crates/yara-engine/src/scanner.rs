//! Rule scanner: matches compiled rules against byte buffers.
//!
//! Every literal form (ascii and wide) of every plain-text string across
//! the whole ruleset is merged into one tier-selecting multi-literal
//! matcher — a Teddy-style SWAR prefilter for small/long pattern sets,
//! Aho–Corasick otherwise — so scanning a package against hundreds of
//! rules reads it once for all of them. The matcher folds case only when
//! some string is `nocase`; a case-sensitive form's match then counts
//! only if its bytes equal the form's. Regex strings are merged the same
//! way: definitions that compile from the same `(pattern, nocase)` form
//! one group, each group's regex runs once per scan unit, and every match
//! lands in every member's slot — generated rulesets repeat a handful of
//! indicator patterns across many rules, and a pass per definition would
//! re-read the unit once per copy.

use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::Range;

use textmatch::{MatchKind, MultiLiteral, Regex, RegexCache};

use crate::ast::{Condition, StringSet, StringValue};
use crate::compiler::CompiledRules;

/// Offsets at which one string definition matched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StringMatch {
    /// String identifier without `$`.
    pub id: String,
    /// Match start offsets, ascending.
    pub offsets: Vec<usize>,
}

/// A rule whose condition evaluated true on the scanned data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleMatch {
    /// Matching rule name.
    pub rule: String,
    /// Per-string match offsets (only strings that matched at least once).
    pub strings: Vec<StringMatch>,
}

/// Regex work a scanner has done since its counters were last taken
/// ([`Scanner::take_work`]).
///
/// Regex strings dominate per-rule scan cost (plain-text strings ride the
/// shared Aho–Corasick pass), so the counters track how much haystack the
/// regex engine actually read; the scanhub service aggregates them across
/// packages. They are the scanner's, not the hits': a unit's
/// [`FileHits`] are the same however much of it was read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanMetrics {
    /// Regex passes run: one per *distinct* `(pattern, nocase)`, however
    /// many definitions share it.
    pub regex_strings_evaluated: u64,
    /// Haystack bytes handed to the regex engine: per pass, the unit's
    /// length, or the lines a splice changed when the group is line-local.
    pub regex_bytes_scanned: u64,
}

/// String-definition hits of the whole ruleset on one scan unit (a
/// file's raw bytes, or one decoded layer), produced by
/// [`Scanner::collect_hits`] and consumed by [`Scanner::eval_hits`].
///
/// Offsets are unit-relative `u32`s (registry uploads are far below
/// 4 GiB); slots are the scanner's dense string indices. The set is a
/// pure function of `(ruleset, data)`, which is what makes it cacheable
/// in a content-addressed artifact, and equality compares nothing else.
///
/// It is two arrays, each allocated once at its exact length: per string
/// slot that hit, ascending, `(slot, end of its run)`, and every slot's
/// ascending match offsets, run after run. A unit with no hit holds no
/// allocation, and one with hits holds two: `8 + 4n` bytes per slot with
/// `n` hits, which is what [`FileHits::stored_bytes`] books.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FileHits {
    /// `(dense string slot, end of its run in offsets)`, sorted by slot.
    slots: Vec<(u32, u32)>,
    /// Each slot's ascending match offsets, in slot order.
    offsets: Vec<u32>,
}

/// A previous version of a scan unit, for [`Scanner::collect_hits_onto`]:
/// its bytes, its hits, collected by a scanner over the same ruleset, and
/// where the new unit differs from it.
#[derive(Debug, Clone)]
pub struct HitDonor<'d> {
    /// The previous version's bytes. A splice reads at most the byte in
    /// front of the window's old end.
    pub old: &'d [u8],
    /// The previous version's hits.
    pub hits: &'d FileHits,
    /// The new unit's bytes that may differ: in front of the window the
    /// two versions are equal, and so are their last
    /// `len - window.end` bytes.
    pub window: Range<usize>,
}

impl FileHits {
    /// The hits `scratch` holds for slots `0..slots`, each slot's run
    /// sorted.
    fn gather(scratch: &ScanScratch, slots: usize) -> Self {
        let hit = |slot: usize| scratch.get(slot).map(|offs| (slot, offs));
        let (runs, total) = (0..slots)
            .filter_map(hit)
            .fold((0, 0), |(runs, total), (_, offs)| {
                (runs + 1, total + offs.len())
            });
        let mut hits = FileHits {
            slots: Vec::with_capacity(runs),
            offsets: Vec::with_capacity(total),
        };
        for (slot, offs) in (0..slots).filter_map(hit) {
            let start = hits.offsets.len();
            hits.offsets.extend(offs.iter().map(|&o| o as u32));
            let run = &mut hits.offsets[start..];
            if !run.is_sorted() {
                run.sort_unstable();
            }
            hits.slots.push((slot as u32, hits.offsets.len() as u32));
        }
        hits
    }

    /// True when no string definition matched this unit.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Total match offsets recorded across all string definitions.
    pub fn hit_count(&self) -> usize {
        self.offsets.len()
    }

    /// Heap footprint, for cache accounting: exactly the bytes the two
    /// arrays were allocated with.
    pub fn stored_bytes(&self) -> usize {
        std::mem::size_of_val(self.slots.as_slice())
            + std::mem::size_of_val(self.offsets.as_slice())
    }

    /// Each slot with at least one hit, ascending, and its offsets.
    fn runs(&self) -> impl Iterator<Item = (usize, &[u32])> + '_ {
        (0..self.slots.len()).map(|i| self.run(i))
    }

    /// The `i`th slot with a hit, and its offsets.
    fn run(&self, i: usize) -> (usize, &[u32]) {
        let start = i.checked_sub(1).map_or(0, |p| self.slots[p].1 as usize);
        let (slot, end) = self.slots[i];
        (slot as usize, &self.offsets[start..end as usize])
    }

    /// The dense string slots with at least one hit, ascending.
    pub(crate) fn slot_ids(&self) -> impl Iterator<Item = usize> + '_ {
        self.slots.iter().map(|(slot, _)| *slot as usize)
    }
}

/// Reusable per-worker scan state: one offset list per string definition,
/// invalidated by generation stamps instead of clearing, so a long-lived
/// worker's scan path performs no per-scan allocation after warm-up.
#[derive(Debug, Default)]
pub struct ScanScratch {
    generation: u64,
    stamps: Vec<u64>,
    offsets: Vec<Vec<usize>>,
}

impl ScanScratch {
    /// Creates an empty scratch (sized lazily on first use).
    pub fn new() -> Self {
        Self::default()
    }

    fn begin(&mut self, slots: usize) {
        self.generation += 1;
        if self.stamps.len() < slots {
            self.stamps.resize(slots, 0);
            self.offsets.resize_with(slots, Vec::new);
        }
    }

    fn push(&mut self, slot: usize, offset: usize) {
        if self.stamps[slot] != self.generation {
            self.stamps[slot] = self.generation;
            self.offsets[slot].clear();
        }
        self.offsets[slot].push(offset);
    }

    fn get(&self, slot: usize) -> Option<&[usize]> {
        (self.stamps[slot] == self.generation).then(|| self.offsets[slot].as_slice())
    }
}

/// One scan unit's hits as evaluation reads them, `(unit base, hits)`:
/// this scanner's own [`FileHits`], or the live ruleset's that
/// [`Scanner::reusing`] translates slot by slot.
#[derive(Debug, Clone, Copy)]
pub enum Part<'h> {
    /// Hits in this scanner's string slots.
    Own(usize, &'h FileHits),
    /// Hits in the live ruleset's string slots.
    Live(usize, &'h FileHits),
}

impl<'h> From<(usize, &'h FileHits)> for Part<'h> {
    fn from((base, hits): (usize, &'h FileHits)) -> Self {
        Part::Own(base, hits)
    }
}

/// A reusable scanner over a compiled ruleset.
///
/// It keeps what one scan unit leaves behind for the next — the
/// string-offset scratch and, per regex group, a Pike VM and a lazy DFA
/// whose states stay determinized — behind a `RefCell`, so after warm-up
/// [`Scanner::collect_hits`] allocates only the [`FileHits`] it returns.
/// That makes a scanner `Send` but not `Sync`: build one on the thread
/// that uses it, as every hub worker does.
#[derive(Debug)]
pub struct Scanner<'r> {
    rules: &'r CompiledRules,
    /// Every literal form of every collected text string.
    literals: MultiLiteral,
    /// Per automaton pattern, what its match reports to.
    forms: Vec<Form>,
    /// Per rule, the base index of its dense string-slot range
    /// (`slot = string_base[ri] + si`).
    string_base: Vec<usize>,
    total_strings: usize,
    /// Regex string definitions, one group per distinct pattern.
    regex_groups: Vec<RegexGroup<'r>>,
    /// The longest literal form, in bytes.
    longest_form: usize,
    /// `(live slot, own slot)` for each string the live ruleset defines
    /// identically, sorted: `collect_hits` never scans for those.
    from_live: Vec<(u32, u32)>,
    warm: RefCell<Warm<'r>>,
}

/// One pattern of [`Scanner::literals`]: an ascii or wide form of a text
/// string. The forms are in slot order.
#[derive(Debug)]
struct Form {
    /// The string's dense slot.
    slot: u32,
    /// The form's length in bytes.
    len: usize,
    fullword: bool,
    /// The form's bytes when the matcher folds case and the string is
    /// case-sensitive: a match counts only if it equals them.
    exact: Option<Box<[u8]>>,
}

/// Which of a [`HitDonor`]'s hits in one string slot are the new unit's
/// too, with no byte read.
#[derive(Debug, Clone, Copy)]
enum Carry {
    /// None: the slot is not collected, or its regex reads the whole unit.
    Nothing,
    /// A text string whose longest form is this long: a hit whose bytes
    /// and the byte on either side are all outside the window.
    Literal(usize),
    /// A line-local regex: a hit on a line the window does not touch.
    Lines,
}

/// The state [`Scanner::collect_hits`] carries from one unit to the next.
#[derive(Debug)]
struct Warm<'r> {
    scratch: ScanScratch,
    /// One per regex group, parallel to `Scanner::regex_groups`.
    regexes: Vec<RegexCache<'r>>,
    /// Regex work since [`Scanner::take_work`].
    work: ScanMetrics,
}

/// The regex string definitions compiled from one `(pattern, nocase)` —
/// the only inputs `compile` feeds the regex constructor, so every
/// member's compiled regex finds the same matches and one pass serves
/// them all.
#[derive(Debug)]
struct RegexGroup<'r> {
    /// The first member's compiled regex.
    regex: &'r Regex,
    /// Dense string slot per member, declaration order.
    members: Vec<usize>,
    /// [`Regex::is_line_local`]: a splice rescans only the changed lines.
    line_local: bool,
}

/// Every string definition of `rules`, in dense slot order.
fn definitions(rules: &CompiledRules) -> impl Iterator<Item = &StringValue> + Clone {
    let strings = rules.rules.iter().flat_map(|cr| &cr.rule.strings);
    strings.map(|s| &s.value)
}

impl<'r> Scanner<'r> {
    /// Builds a scanner for `rules`.
    pub fn new(rules: &'r CompiledRules) -> Self {
        Self::reusing(rules, None)
    }

    /// Builds a scanner for `rules` whose [`Scanner::collect_hits`] scans
    /// only for the strings `live` does not define identically (same text
    /// and modifiers, or same regex pattern and `nocase`). A string's hits
    /// are a pure function of its definition and the unit's bytes, so
    /// evaluation reads the others from `live`'s hits as a [`Part::Live`].
    pub fn reusing(rules: &'r CompiledRules, live: Option<&CompiledRules>) -> Self {
        let mut string_base = Vec::with_capacity(rules.rules.len());
        let mut total_strings = 0usize;
        for cr in &rules.rules {
            string_base.push(total_strings);
            total_strings += cr.rule.strings.len();
        }
        let live_strings = live.map_or(0, |live| definitions(live).count());
        let mut live_slot: HashMap<&StringValue, u32> = HashMap::with_capacity(live_strings);
        for (slot, value) in live.into_iter().flat_map(definitions).enumerate() {
            live_slot.entry(value).or_insert(slot as u32);
        }
        let own = definitions(rules).enumerate();
        let mut from_live: Vec<(u32, u32)> = own
            .filter_map(|(slot, value)| Some((*live_slot.get(value)?, slot as u32)))
            .collect();
        from_live.sort_unstable();
        let collected = |slot: usize| !from_live.iter().any(|&(_, own)| own as usize == slot);
        let texts = definitions(rules)
            .enumerate()
            .filter_map(|(slot, value)| match value {
                StringValue::Text { text, mods } if collected(slot) => Some((slot, text, mods)),
                _ => None,
            });
        let fold = texts.clone().any(|(_, _, mods)| mods.nocase);
        let (mut patterns, mut forms) = (Vec::new(), Vec::new());
        for (slot, text, mods) in texts {
            let text = text.as_bytes();
            let wide = mods
                .wide
                .then(|| text.iter().flat_map(|&b| [b, 0]).collect());
            for form in mods.ascii.then(|| text.to_vec()).into_iter().chain(wide) {
                let exact = (fold && !mods.nocase).then(|| form.clone().into_boxed_slice());
                forms.push(Form {
                    slot: slot as u32,
                    len: form.len(),
                    fullword: mods.fullword,
                    exact,
                });
                patterns.push(form);
            }
        }
        let longest_form = patterns.iter().map(Vec::len).max().unwrap_or(0);
        let kind = if fold {
            MatchKind::CaseInsensitive
        } else {
            MatchKind::CaseSensitive
        };
        let literals = MultiLiteral::new(&patterns, kind);
        let mut regex_groups: Vec<RegexGroup<'r>> = Vec::new();
        let mut group_of: HashMap<(&str, bool), usize> = HashMap::new();
        for (ri, cr) in rules.rules.iter().enumerate() {
            for (si, s) in cr.rule.strings.iter().enumerate() {
                let slot = string_base[ri] + si;
                if let (StringValue::Regex { pattern, nocase }, Some(regex), true) =
                    (&s.value, &cr.regexes[si], collected(slot))
                {
                    let gi = *group_of
                        .entry((pattern.as_str(), *nocase))
                        .or_insert_with(|| {
                            regex_groups.push(RegexGroup {
                                regex,
                                members: Vec::new(),
                                line_local: regex.is_line_local(),
                            });
                            regex_groups.len() - 1
                        });
                    regex_groups[gi].members.push(slot);
                }
            }
        }
        Scanner {
            rules,
            literals,
            forms,
            string_base,
            total_strings,
            from_live,
            warm: RefCell::new(Warm {
                scratch: ScanScratch::new(),
                regexes: regex_groups.iter().map(|g| g.regex.cache()).collect(),
                work: ScanMetrics::default(),
            }),
            regex_groups,
            longest_form,
        }
    }

    /// How a donor's hits in `slot` carry over a splice.
    fn carry(&self, slot: usize) -> Carry {
        let first = self.forms.partition_point(|f| (f.slot as usize) < slot);
        let forms = self.forms[first..]
            .iter()
            .take_while(|f| f.slot as usize == slot);
        if let Some(longest) = forms.map(|f| f.len).max() {
            return Carry::Literal(longest);
        }
        let group = self.regex_groups.iter().find(|g| g.members.contains(&slot));
        match group {
            Some(group) if group.line_local => Carry::Lines,
            _ => Carry::Nothing,
        }
    }

    /// The regex work done since the last call, which resets it.
    pub fn take_work(&self) -> ScanMetrics {
        std::mem::take(&mut self.warm.borrow_mut().work)
    }

    /// True when [`Scanner::collect_hits`] scans for a string of rule `ri`.
    pub fn reads_bytes(&self, ri: usize) -> bool {
        let base = self.string_base[ri];
        let mut slots = base..base + self.rules.rules[ri].rule.strings.len();
        slots.any(|slot| !self.from_live.iter().any(|&(_, own)| own as usize == slot))
    }

    /// Scans `data` and returns every rule whose condition holds: one
    /// unit's [`Scanner::collect_hits`] through [`Scanner::eval_hits`],
    /// the path the hub runs per package.
    pub fn scan(&self, data: &[u8]) -> Vec<RuleMatch> {
        let hits = self.collect_hits(data);
        let scratch = &mut self.warm.borrow_mut().scratch;
        self.eval_hits([(0, &hits)], data.len() as i64, |_| true, scratch)
    }

    /// Collects every string-definition hit of the **whole** ruleset on
    /// one scan unit — a file's raw bytes or one decoded layer — with no
    /// rule routing and no condition evaluation.
    ///
    /// This is the artifact-build entry point: the hits are a pure
    /// function of `(ruleset, data)`, so a content-addressed cache can
    /// store them per file and a later [`Scanner::eval_hits`] call can
    /// evaluate any routed rule subset against any combination of cached
    /// units without touching the bytes again.
    pub fn collect_hits(&self, data: &[u8]) -> FileHits {
        self.collect_hits_onto(data, None)
    }

    /// [`Scanner::collect_hits`] of a unit that differs from `donor`'s
    /// previous version only inside its window, reading only what the
    /// edit can have changed; with no donor, the whole unit. The hits are
    /// exactly those of a whole-unit scan:
    ///
    /// * A text string's donor hit carries over, moved by the length
    ///   change when it lies behind the window, when its bytes and the
    ///   byte on either side (what `fullword` reads) are all outside the
    ///   window — measured with the string's longest form. The literal
    ///   pass reads the window widened by the longest form plus one and
    ///   keeps only the matches that do not carry over; `fullword` is
    ///   checked against the whole unit.
    /// * A line-local regex's matches lie within one line, so a group
    ///   carries its hits on the lines the window does not touch and
    ///   rescans only the lines it does. Any other group rescans the
    ///   unit.
    pub fn collect_hits_onto(&self, data: &[u8], donor: Option<HitDonor<'_>>) -> FileHits {
        let mut warm = self.warm.borrow_mut();
        let Warm {
            scratch,
            regexes,
            work,
        } = &mut *warm;
        scratch.begin(self.total_strings);
        let edit = donor.as_ref().map(|d| Edit::new(d, data));
        if let (Some(d), Some(edit)) = (&donor, &edit) {
            // The donor's hits outside the edit's reach, in place or moved.
            for (slot, offsets) in d.hits.runs() {
                let carry = self.carry(slot);
                for &old in offsets {
                    if let Some(at) = edit.carried(carry, old as usize) {
                        scratch.push(slot, at);
                    }
                }
            }
        }
        let reach = self.longest_form + 1;
        let (a, b) = edit.as_ref().map_or((0, data.len()), |e| {
            let w = e.window.start.saturating_sub(reach);
            (w, (e.window.end + reach).min(data.len()))
        });
        self.literals.for_each_match(&data[a..b], |m| {
            let (start, end) = (a + m.start, a + m.end);
            let form = &self.forms[m.pattern];
            let slot = form.slot as usize;
            let carried = edit
                .as_ref()
                .is_some_and(|e| e.carries(self.carry(slot), start));
            let exact = form
                .exact
                .as_ref()
                .is_none_or(|e| e[..] == data[start..end]);
            if !carried && exact && (!form.fullword || is_fullword(data, start, end)) {
                scratch.push(slot, start);
            }
            true
        });
        self.regex_pass(data, edit.as_ref(), scratch, regexes, work);
        FileHits::gather(scratch, self.total_strings)
    }

    /// Runs every regex group — one accelerated forward pass over `data`
    /// each, or over the lines an edit touched for a line-local group,
    /// on the group's kept machines — and records each match under every
    /// member's slot.
    fn regex_pass(
        &self,
        data: &[u8],
        edit: Option<&Edit>,
        scratch: &mut ScanScratch,
        regexes: &mut [RegexCache<'r>],
        work: &mut ScanMetrics,
    ) {
        for (group, cache) in self.regex_groups.iter().zip(regexes) {
            let lines = edit.filter(|_| group.line_local).map(|e| e.lines.clone());
            let span = lines.unwrap_or(0..data.len());
            work.regex_strings_evaluated += 1;
            work.regex_bytes_scanned += span.len() as u64;
            group.regex.find_each(cache, &data[span.clone()], |m| {
                for &slot in &group.members {
                    scratch.push(slot, span.start + m.start);
                }
            });
        }
    }

    /// Marks in `out` (resized to the rule count) every rule with at
    /// least one string-definition hit in `hits`.
    ///
    /// Callers evaluating one small unit (a decoded layer) use this to
    /// restrict evaluation to rules with actual evidence *in* the unit:
    /// stringless conditions (`filesize` bounds, bare negations) hold
    /// trivially against tiny unit-local sizes and would otherwise
    /// produce spurious matches.
    pub fn mark_rules_with_hits(&self, hits: &FileHits, out: &mut Vec<bool>) {
        self.mark_rules([(0, hits)], out);
    }

    /// [`Scanner::mark_rules_with_hits`] over the union of `parts`.
    pub fn mark_rules<'h>(
        &self,
        parts: impl IntoIterator<Item = impl Into<Part<'h>>>,
        out: &mut Vec<bool>,
    ) {
        out.clear();
        out.resize(self.rules.rules.len(), false);
        for part in parts {
            self.for_each_hit(part.into(), |slot, _| {
                // string_base is the prefix-sum of per-rule string counts:
                // the owning rule is the last base <= slot.
                let ri = self.string_base.partition_point(|&base| base <= slot) - 1;
                out[ri] = true;
            });
        }
    }

    /// Calls `f` with each of this scanner's string slots that `part` has
    /// hits for, and their unit-relative offsets; a live part yields only
    /// the slots its strings translate to.
    pub fn for_each_hit<'h>(&self, part: Part<'h>, mut f: impl FnMut(usize, &'h [u32])) {
        match part {
            Part::Own(_, hits) => hits.runs().for_each(|(slot, offs)| f(slot, offs)),
            Part::Live(_, hits) => {
                for &(live, own) in &self.from_live {
                    if let Ok(i) = hits.slots.binary_search_by_key(&live, |(s, _)| *s) {
                        f(own as usize, hits.run(i).1);
                    }
                }
            }
        }
    }

    /// Evaluates rule conditions over the union of pre-collected hit
    /// sets, each rebased to its unit's global offset, and returns each
    /// rule `include` enables whose condition holds, with its strings'
    /// offsets.
    ///
    /// `parts` yields `(base, hits)` pairs; every offset in `hits` is
    /// shifted by `base` before condition evaluation, so concatenating
    /// the units and scanning the result yields the same per-string
    /// offset sets (matches spanning a unit boundary excepted — units
    /// are scanned independently by [`Scanner::collect_hits`]).
    /// `filesize` is the caller's notion of total scanned size.
    pub fn eval_hits<'h>(
        &self,
        parts: impl IntoIterator<Item = (usize, &'h FileHits)>,
        filesize: i64,
        include: impl Fn(usize) -> bool,
        scratch: &mut ScanScratch,
    ) -> Vec<RuleMatch> {
        let mut out = Vec::new();
        self.eval_core(parts, filesize, include, scratch, |ri, scratch| {
            let (def, base) = (&self.rules.rules[ri].rule, self.string_base[ri]);
            let strings = def.strings.iter().enumerate().filter_map(|(si, s)| {
                let mut offsets = scratch.get(base + si)?.to_vec();
                offsets.sort_unstable();
                offsets.dedup();
                let id = s.id.clone();
                Some(StringMatch { id, offsets })
            });
            let (rule, strings) = (def.name.clone(), strings.collect());
            out.push(RuleMatch { rule, strings });
        });
        out
    }

    /// [`Scanner::eval_hits`] over [`Part`]s, without the assembly: hands
    /// each matching rule's index and name to `matched`, in rule order; a
    /// warm `scratch` allocates nothing.
    pub fn eval_rules<'h>(
        &self,
        parts: impl IntoIterator<Item = impl Into<Part<'h>>>,
        filesize: i64,
        include: impl Fn(usize) -> bool,
        scratch: &mut ScanScratch,
        mut matched: impl FnMut(usize, &'r str),
    ) {
        self.eval_core(parts, filesize, include, scratch, |ri, _| {
            matched(ri, &self.rules.rules[ri].rule.name)
        });
    }

    /// The condition loop of both: fills `scratch`, then reports matches.
    fn eval_core<'h>(
        &self,
        parts: impl IntoIterator<Item = impl Into<Part<'h>>>,
        filesize: i64,
        include: impl Fn(usize) -> bool,
        scratch: &mut ScanScratch,
        mut matched: impl FnMut(usize, &ScanScratch),
    ) {
        scratch.begin(self.total_strings);
        for part in parts {
            let part = part.into();
            let (Part::Own(base, _) | Part::Live(base, _)) = part;
            self.for_each_hit(part, |slot, offs| {
                for &o in offs {
                    scratch.push(slot, base + o as usize);
                }
            });
        }
        let scratch = &*scratch;
        for (ri, cr) in self.rules.rules.iter().enumerate() {
            if !include(ri) {
                continue;
            }
            let ctx = Context {
                rule: cr,
                scratch,
                base: self.string_base[ri],
                filesize,
            };
            if ctx.eval(&cr.rule.condition) {
                matched(ri, scratch);
            }
        }
    }

    /// Convenience: does any rule match?
    pub fn is_match(&self, data: &[u8]) -> bool {
        !self.scan(data).is_empty()
    }
}

struct Context<'a> {
    rule: &'a crate::compiler::CompiledRule,
    scratch: &'a ScanScratch,
    /// Dense string-slot base of this rule (`slot = base + string idx`).
    base: usize,
    filesize: i64,
}

impl Context<'_> {
    fn string_index(&self, id: &str) -> Option<usize> {
        self.rule.rule.strings.iter().position(|s| s.id == id)
    }

    fn count(&self, id: &str) -> i64 {
        self.string_index(id)
            .and_then(|si| self.scratch.get(self.base + si))
            .map_or(0, |v| v.len() as i64)
    }

    fn matched(&self, id: &str) -> bool {
        self.count(id) > 0
    }

    /// The ids of this rule's strings that `set` covers.
    fn covered<'s>(&'s self, set: &'s StringSet) -> impl Iterator<Item = &'s str> + Clone {
        let strings = self.rule.rule.strings.iter().map(|s| s.id.as_str());
        strings.filter(move |id| match set {
            StringSet::Them => true,
            StringSet::Patterns(pats) => pats.iter().any(|p| p.matches(id)),
        })
    }

    fn eval(&self, cond: &Condition) -> bool {
        match cond {
            Condition::Bool(b) => *b,
            Condition::StringRef(id) => self.matched(id),
            Condition::AllOf(set) => {
                let mut ids = self.covered(set);
                ids.clone().next().is_some() && ids.all(|id| self.matched(id))
            }
            Condition::AnyOf(set) => self.covered(set).any(|id| self.matched(id)),
            Condition::NOf(n, set) => {
                let hit = self.covered(set).filter(|id| self.matched(id)).count() as i64;
                hit >= *n
            }
            Condition::Count { id, op, value } => cmp(self.count(id), op, *value),
            Condition::At { id, offset } => self
                .string_index(id)
                .and_then(|si| self.scratch.get(self.base + si))
                .is_some_and(|offs| offs.contains(&(*offset as usize))),
            Condition::Filesize { op, value } => cmp(self.filesize, op, *value),
            Condition::And(parts) => parts.iter().all(|p| self.eval(p)),
            Condition::Or(parts) => parts.iter().any(|p| self.eval(p)),
            Condition::Not(inner) => !self.eval(inner),
        }
    }
}

pub(crate) fn cmp(lhs: i64, op: &str, rhs: i64) -> bool {
    match op {
        ">" => lhs > rhs,
        ">=" => lhs >= rhs,
        "<" => lhs < rhs,
        "<=" => lhs <= rhs,
        "==" => lhs == rhs,
        "!=" => lhs != rhs,
        _ => false,
    }
}

/// A [`HitDonor`]'s edit as a splice reads it.
struct Edit {
    /// The new unit's bytes that may differ.
    window: Range<usize>,
    /// `window` widened to line starts — offset 0 or just after a `\n`
    /// — of both versions, or to the end.
    lines: Range<usize>,
    /// The new unit's length minus the old one's.
    delta: isize,
}

impl Edit {
    fn new(donor: &HitDonor<'_>, data: &[u8]) -> Self {
        let (window, old) = (donor.window.clone(), donor.old);
        let line_start = |bytes: &[u8], at: usize| at == 0 || bytes[at - 1] == b'\n';
        // The bytes in front of the window are both versions', so a line
        // start there is one in both; the window's end is checked in each.
        let lo = data[..window.start]
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |i| i + 1);
        let old_end = old.len() - (data.len() - window.end);
        let hi = if window.end == data.len()
            || (line_start(data, window.end) && line_start(old, old_end))
        {
            window.end
        } else {
            let next = data[window.end..].iter().position(|&b| b == b'\n');
            next.map_or(data.len(), |i| window.end + i + 1)
        };
        Edit {
            window,
            lines: lo..hi,
            delta: data.len() as isize - old.len() as isize,
        }
    }

    /// Whether a hit at new offset `at` under `carry` is a donor hit
    /// carried over rather than one the window's rescan reports.
    fn carries(&self, carry: Carry, at: usize) -> bool {
        match carry {
            Carry::Nothing => false,
            Carry::Literal(len) => at + len < self.window.start || at > self.window.end,
            Carry::Lines => at < self.lines.start || at >= self.lines.end,
        }
    }

    /// The new offset of a donor hit at `old` when it carries over: one
    /// in front of the window keeps its place, one behind the window's
    /// old end moves by the length change.
    fn carried(&self, carry: Carry, old: usize) -> Option<usize> {
        let at = if old < self.window.start {
            old
        } else {
            let moved = old.checked_add_signed(self.delta)?;
            (moved >= self.window.end).then_some(moved)?
        };
        self.carries(carry, at).then_some(at)
    }
}

fn is_fullword(data: &[u8], start: usize, end: usize) -> bool {
    let before_ok = start == 0 || !data[start - 1].is_ascii_alphanumeric();
    let after_ok = end >= data.len() || !data[end].is_ascii_alphanumeric();
    before_ok && after_ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::compile;

    /// The differential oracle, sharing no matcher with the scanner: a
    /// naive search per text definition and form (ASCII-folded for
    /// `nocase`, UTF-16LE for `wide`, `fullword` checked at the unit's
    /// edges), and the per-definition regex pass the grouped pass
    /// replaced — one `find_all` per regex string definition, in rule
    /// order — with the work that pass does.
    impl Scanner<'_> {
        fn collect_hits_per_definition(&self, data: &[u8]) -> (FileHits, ScanMetrics) {
            let mut scratch = ScanScratch::new();
            scratch.begin(self.total_strings);
            for (slot, value) in definitions(self.rules).enumerate() {
                let StringValue::Text { text, mods } = value else {
                    continue;
                };
                let ascii = text.as_bytes().to_vec();
                let wide: Vec<u8> = ascii.iter().flat_map(|&b| [b, 0]).collect();
                for (on, form) in [(mods.ascii, ascii), (mods.wide, wide)] {
                    if !on || form.is_empty() {
                        continue;
                    }
                    for (start, window) in data.windows(form.len()).enumerate() {
                        let equal = if mods.nocase {
                            window.eq_ignore_ascii_case(&form)
                        } else {
                            window == form
                        };
                        let edge = |at: Option<&u8>| at.is_none_or(|b| !b.is_ascii_alphanumeric());
                        let word = edge(start.checked_sub(1).map(|i| &data[i]))
                            && edge(data.get(start + form.len()));
                        if equal && (!mods.fullword || word) {
                            scratch.push(slot, start);
                        }
                    }
                }
            }
            let mut metrics = ScanMetrics::default();
            for (ri, cr) in self.rules.rules.iter().enumerate() {
                for (si, regex) in cr.regexes.iter().enumerate() {
                    if let Some(re) = regex {
                        metrics.regex_strings_evaluated += 1;
                        metrics.regex_bytes_scanned += data.len() as u64;
                        for m in re.find_all(data) {
                            scratch.push(self.string_base[ri] + si, m.start);
                        }
                    }
                }
            }
            (FileHits::gather(&scratch, self.total_strings), metrics)
        }
    }

    /// Each slot's offsets as a set: a slot's run may repeat an offset
    /// the oracle reaches once per form.
    fn offset_sets(hits: &FileHits) -> Vec<(usize, Vec<u32>)> {
        let runs = hits.runs().map(|(slot, offsets)| {
            let mut offsets = offsets.to_vec();
            offsets.dedup();
            (slot, offsets)
        });
        runs.collect()
    }

    /// Asserts grouped ≡ per-definition on `data`: identical slots and
    /// offsets, and metrics that count groups on one side, definitions on
    /// the other.
    fn assert_grouped_equals_per_definition(scanner: &Scanner<'_>, data: &[u8]) {
        scanner.take_work();
        let grouped = scanner.collect_hits(data);
        let (oracle, oracle_work) = scanner.collect_hits_per_definition(data);
        assert_eq!(offset_sets(&grouped), offset_sets(&oracle));
        let definitions: usize = scanner.regex_groups.iter().map(|g| g.members.len()).sum();
        assert_eq!(oracle_work.regex_strings_evaluated, definitions as u64);
        let work = scanner.take_work();
        assert_eq!(
            work.regex_strings_evaluated,
            scanner.regex_groups.len() as u64
        );
        assert_eq!(
            work.regex_bytes_scanned,
            (scanner.regex_groups.len() * data.len()) as u64
        );
    }

    /// A ruleset shaped like the generated one: the same base64-blob
    /// indicator in one rule per cluster, beside each cluster's text atoms.
    fn duplicated_b64_rules(copies: usize) -> String {
        (0..copies)
            .map(|i| {
                format!(
                    "rule cluster_{i} {{ strings: $blob = /([A-Za-z0-9+\\/]{{4}}){{10,}}={{0,2}}/ \
                     $api = \"api_{i}\" condition: $blob and $api }}\n"
                )
            })
            .collect()
    }

    /// Deterministic base64-heavy text: blob runs of varying length split
    /// by quotes, spaces, newlines and `api_N` markers.
    fn b64_heavy_buffer(len: usize) -> Vec<u8> {
        const ALPHABET: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut out = Vec::with_capacity(len + 128);
        while out.len() < len {
            let run = 3 + next() % 120;
            for _ in 0..run {
                out.push(ALPHABET[next() % 64]);
            }
            match next() % 5 {
                0 => out.extend_from_slice(b"=='\n"),
                1 => out.extend_from_slice(format!(" api_{} ", next() % 8).as_bytes()),
                2 => out.extend_from_slice(b"\nx = '"),
                3 => out.push(b'='),
                _ => out.push(b' '),
            }
        }
        out.truncate(len);
        out
    }

    #[test]
    fn grouped_regex_pass_equals_per_definition_pass() {
        // Same pattern with and without `nocase` (two groups), twice in
        // one rule, across rules, and next to a different pattern.
        let src = r#"
rule a { strings: $x = /ab+c/ $y = /ab+c/ condition: any of them }
rule b { strings: $x = /ab+c/ nocase $t = "abc" condition: any of them }
rule c { strings: $x = /ab+c/i $y = /\d{2,}/ condition: all of them }
rule d { strings: $x = /ab+c/ condition: #x >= 2 }
"#;
        let compiled = compile(src).expect("compile");
        let scanner = Scanner::new(&compiled);
        let sizes: Vec<usize> = scanner
            .regex_groups
            .iter()
            .map(|g| g.members.len())
            .collect();
        // /ab+c/ ×3, its nocase form ×2 (not merged with it), /\d{2,}/ ×1.
        assert_eq!(sizes, vec![3, 2, 1]);
        for data in [
            b"".as_slice(),
            b"abc",
            b"ABBC abbbc 42 abc",
            b"xabcabcABC007",
            b"no hit at all",
        ] {
            assert_grouped_equals_per_definition(&scanner, data);
        }
        // The case-sensitive group must not have leaked into nocase slots.
        let hits = scanner.scan(b"ABBC");
        assert_eq!(
            hits.iter().map(|m| m.rule.as_str()).collect::<Vec<_>>(),
            vec!["b"]
        );
    }

    /// One rule of short text strings over `abAB` and a haystack strewn
    /// with them, case-flipped and spread as UTF-16LE. Modifiers mix
    /// case-sensitive, `wide`, `ascii wide` and `fullword` forms; when
    /// `fold`, `nocase` ones too, with the first string `nocase` and the
    /// second not, so the matcher folds and must check exact bytes.
    fn mixed_literal_case(seed: u64, fold: bool) -> (String, Vec<u8>) {
        const PLAIN: [&str; 5] = ["", "wide", "ascii wide", "fullword", "wide fullword"];
        const NOCASE: [&str; 4] = [
            "nocase",
            "nocase wide",
            "nocase ascii wide",
            "nocase fullword",
        ];
        let mut state = seed | 1;
        let mut next = move |n: usize| {
            // xorshift64
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 32) as usize % n
        };
        let count = 2 + next(6);
        let words: Vec<Vec<u8>> = (0..count)
            .map(|_| (0..1 + next(4)).map(|_| b"abAB"[next(4)]).collect())
            .collect();
        let mut src = String::from("rule r { strings: ");
        for (i, word) in words.iter().enumerate() {
            let nocase = fold && (i == 0 || (i > 1 && next(2) == 0));
            let mods = if nocase {
                NOCASE[next(NOCASE.len())]
            } else {
                PLAIN[next(PLAIN.len())]
            };
            let word = std::str::from_utf8(word).expect("ascii");
            src += &format!("$s{i} = \"{word}\" {mods} ");
        }
        src += "condition: any of them }";
        let mut hay = Vec::new();
        for _ in 0..48 {
            if next(3) == 0 {
                hay.push(b" _aB\0x"[next(6)]);
                continue;
            }
            let wide = next(2) == 0;
            for &b in &words[next(count)] {
                hay.push(if next(2) == 0 { b ^ 0x20 } else { b });
                if wide {
                    hay.push(0);
                }
            }
        }
        (src, hay)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]
        #[test]
        fn one_literal_matcher_equals_the_naive_search(
            seed in proptest::prelude::any::<u64>(),
            fold in proptest::prelude::any::<bool>(),
        ) {
            let (src, hay) = mixed_literal_case(seed, fold);
            let compiled = compile(&src).expect("generated rules compile");
            let scanner = Scanner::new(&compiled);
            let folding = scanner.forms.iter().any(|f| f.exact.is_some());
            proptest::prop_assert_eq!(folding, fold, "{}", src);
            proptest::prop_assert_eq!(
                offset_sets(&scanner.collect_hits(&hay)),
                offset_sets(&scanner.collect_hits_per_definition(&hay).0),
                "{}",
                src
            );
        }
    }

    /// Strings whose hits a splice carries in each way: text forms
    /// (one with a newline, `fullword`, `wide`, `nocase`), line-local
    /// regexes, and regexes that read the whole unit (`\s`, anchored).
    const SPLICE_RULES: &str = r#"
rule lit { strings: $a = "Summary: \nHome-page:" $b = "spawn" fullword $c = "cmd" wide ascii
           $d = "EVAL" nocase $e = "ab" condition: any of them }
rule rx { strings: $b64 = /([A-Za-z0-9+\/]{4}){3,}={0,2}/ $ip = /\d{1,3}\.\d{1,3}/
          $ws = /a\s+b/ $anchored = /^import/ condition: any of them }
"#;

    /// An `ab`-dense haystack with lines, `fullword` neighbours, wide
    /// text and base64-ish runs, and a random edit of it: `(old, new,
    /// window)`, the window covering the edit and widened by `slack`.
    fn edited_haystack(seed: u64) -> (Vec<u8>, Vec<u8>, Range<usize>) {
        let mut state = seed | 1;
        let mut next = move |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 32) as usize % n
        };
        const PIECES: [&[u8]; 14] = [
            b"ab",
            b"a\n b",
            b"\n",
            b"spawn ",
            b"xspawn",
            b"c\0m\0d\0",
            b"cmd",
            b"Summary: \nHome-page:",
            b"eVaL",
            b"QUJD",
            b"10.0",
            b"import",
            b"=",
            b" ",
        ];
        let mut old = Vec::new();
        for _ in 0..next(80) {
            old.extend_from_slice(PIECES[next(PIECES.len())]);
        }
        let at = next(old.len() + 1);
        let cut = next(12).min(old.len() - at);
        let mut insert = Vec::new();
        for _ in 0..next(4) {
            insert.extend_from_slice(PIECES[next(PIECES.len())]);
        }
        let mut new = old[..at].to_vec();
        new.extend_from_slice(&insert);
        new.extend_from_slice(&old[at + cut..]);
        let slack = next(6);
        let start = at.saturating_sub(slack);
        let end = (at + insert.len() + slack).min(new.len());
        // The window may only grow where both versions agree.
        let suffix = old.len() - (at + cut);
        let end = end.min(new.len() - suffix).max(at + insert.len());
        (old, new, start..end)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]
        #[test]
        fn hits_collected_onto_a_donor_equal_a_whole_unit_scan(
            seed in proptest::prelude::any::<u64>(),
        ) {
            let compiled = compile(SPLICE_RULES).expect("compile");
            let scanner = Scanner::new(&compiled);
            let (old, new, window) = edited_haystack(seed);
            let donor = scanner.collect_hits(&old);
            let full = scanner.collect_hits(&new);
            let donor = HitDonor { old: &old, hits: &donor, window };
            proptest::prop_assert_eq!(scanner.collect_hits_onto(&new, Some(donor)), full);
        }
    }

    #[test]
    fn a_splice_reads_the_changed_lines_for_line_local_groups_only() {
        let compiled = compile(SPLICE_RULES).expect("compile");
        let scanner = Scanner::new(&compiled);
        let lines: Vec<&str> = (0..40).map(|_| "x = 'QUJDREVG' + 10.0\n").collect();
        let old = lines.concat();
        let new = old
            .replacen("10.0", "12.5", 1)
            .replacen("QUJDREVG", "QUJDREVGSElK", 1);
        let line = old.find('\n').expect("line") + 1;
        let donor = scanner.collect_hits(old.as_bytes());
        scanner.take_work();
        let edit = HitDonor {
            old: old.as_bytes(),
            hits: &donor,
            window: 0..line + 4,
        };
        let spliced = scanner.collect_hits_onto(new.as_bytes(), Some(edit));
        assert_eq!(spliced, scanner.collect_hits(new.as_bytes()));
        // `$b64` and `$ip` read the first line; `$ws` and `$anchored` the file.
        let local: Vec<bool> = scanner.regex_groups.iter().map(|g| g.line_local).collect();
        assert_eq!(local, [true, true, false, false]);
        let work = scanner.take_work();
        let whole = 4 * new.len() as u64;
        assert_eq!(
            work.regex_bytes_scanned - whole,
            2 * (line + 4) as u64 + 2 * new.len() as u64
        );
    }

    #[test]
    fn grouped_regex_pass_equals_per_definition_pass_on_a_heavy_buffer() {
        let compiled = compile(&duplicated_b64_rules(6)).expect("compile");
        let scanner = Scanner::new(&compiled);
        assert_eq!(scanner.regex_groups.len(), 1);
        let data = b64_heavy_buffer(1 << 20);
        assert_grouped_equals_per_definition(&scanner, &data);
        let hits = scanner.collect_hits(&data);
        assert!(hits.hit_count() > 1000, "buffer is not base64-heavy");
    }

    fn scan_one(rule: &str, data: &[u8]) -> Vec<RuleMatch> {
        let compiled = compile(rule).expect("compile");
        Scanner::new(&compiled).scan(data)
    }

    #[test]
    fn matches_single_string() {
        let hits = scan_one(
            "rule r { strings: $a = \"os.system\" condition: $a }",
            b"import os; os.system('id')",
        );
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "r");
        assert_eq!(hits[0].strings[0].offsets, vec![11]);
    }

    #[test]
    fn no_match_when_absent() {
        let hits = scan_one(
            "rule r { strings: $a = \"evil\" condition: $a }",
            b"perfectly fine code",
        );
        assert!(hits.is_empty());
    }

    #[test]
    fn all_of_them_requires_every_string() {
        let rule = "rule r { strings: $a = \"one\" $b = \"two\" condition: all of them }";
        assert!(scan_one(rule, b"one and two").len() == 1);
        assert!(scan_one(rule, b"just one").is_empty());
    }

    #[test]
    fn any_of_them_requires_one() {
        let rule = "rule r { strings: $a = \"one\" $b = \"two\" condition: any of them }";
        assert_eq!(scan_one(rule, b"just one").len(), 1);
    }

    #[test]
    fn n_of_wildcard() {
        let rule =
            "rule r { strings: $u1 = \"aaa\" $u2 = \"bbb\" $u3 = \"ccc\" condition: 2 of ($u*) }";
        assert!(scan_one(rule, b"aaa ccc").len() == 1);
        assert!(scan_one(rule, b"aaa only").is_empty());
    }

    #[test]
    fn count_condition() {
        let rule = "rule r { strings: $a = \"GET\" condition: #a >= 3 }";
        assert!(scan_one(rule, b"GET GET GET").len() == 1);
        assert!(scan_one(rule, b"GET GET").is_empty());
    }

    #[test]
    fn at_condition() {
        let rule = "rule r { strings: $a = \"MZ\" condition: $a at 0 }";
        assert!(scan_one(rule, b"MZ\x90\x00").len() == 1);
        assert!(scan_one(rule, b"xxMZ").is_empty());
    }

    #[test]
    fn filesize_condition() {
        let rule = "rule r { condition: filesize > 10 }";
        assert!(scan_one(rule, b"0123456789ABC").len() == 1);
        assert!(scan_one(rule, b"short").is_empty());
    }

    #[test]
    fn nocase_modifier() {
        let rule = "rule r { strings: $a = \"powershell\" nocase condition: $a }";
        assert_eq!(scan_one(rule, b"PoWeRsHeLl").len(), 1);
    }

    #[test]
    fn case_sensitive_by_default() {
        let rule = "rule r { strings: $a = \"powershell\" condition: $a }";
        assert!(scan_one(rule, b"POWERSHELL").is_empty());
    }

    #[test]
    fn wide_modifier_matches_utf16le() {
        let rule = "rule r { strings: $a = \"cmd\" wide condition: $a }";
        let wide: Vec<u8> = b"cmd".iter().flat_map(|&b| [b, 0u8]).collect();
        assert_eq!(scan_one(rule, &wide).len(), 1);
        // wide without ascii must not match plain text
        assert!(scan_one(rule, b"cmd").is_empty());
    }

    #[test]
    fn wide_ascii_matches_both() {
        let rule = "rule r { strings: $a = \"cmd\" wide ascii condition: $a }";
        assert_eq!(scan_one(rule, b"cmd").len(), 1);
        let wide: Vec<u8> = b"cmd".iter().flat_map(|&b| [b, 0u8]).collect();
        assert_eq!(scan_one(rule, &wide).len(), 1);
    }

    #[test]
    fn fullword_modifier() {
        let rule = "rule r { strings: $a = \"eval\" fullword condition: $a }";
        assert_eq!(scan_one(rule, b"x = eval(y)").len(), 1);
        assert!(scan_one(rule, b"medieval").is_empty());
    }

    #[test]
    fn regex_string() {
        let rule =
            r#"rule r { strings: $ip = /\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}/ condition: $ip }"#;
        assert_eq!(scan_one(rule, b"c2 = '185.62.190.159'").len(), 1);
        assert!(scan_one(rule, b"no address").is_empty());
    }

    #[test]
    fn regex_nocase_flag() {
        let rule = "rule r { strings: $a = /select .* from/i condition: $a }";
        assert_eq!(scan_one(rule, b"SELECT secret FROM users").len(), 1);
    }

    #[test]
    fn not_condition() {
        let rule =
            "rule r { strings: $a = \"setup\" $bad = \"license\" condition: $a and not $bad }";
        assert_eq!(scan_one(rule, b"setup code").len(), 1);
        assert!(scan_one(rule, b"setup license").is_empty());
    }

    #[test]
    fn boolean_literals() {
        assert_eq!(scan_one("rule r { condition: true }", b"").len(), 1);
        assert!(scan_one("rule r { condition: false }", b"x").is_empty());
    }

    #[test]
    fn multiple_rules_matched_independently() {
        let src = r#"
rule a { strings: $x = "alpha" condition: $x }
rule b { strings: $x = "beta" condition: $x }
"#;
        let compiled = compile(src).expect("compile");
        let scanner = Scanner::new(&compiled);
        let hits = scanner.scan(b"alpha and beta");
        assert_eq!(hits.len(), 2);
        let hits = scanner.scan(b"only beta");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "b");
    }

    #[test]
    fn offsets_deduped_and_sorted() {
        let rule = "rule r { strings: $a = \"ab\" condition: #a >= 2 }";
        let hits = scan_one(rule, b"ab..ab");
        assert_eq!(hits[0].strings[0].offsets, vec![0, 4]);
    }

    #[test]
    fn scanner_reuse_across_inputs() {
        let compiled = compile("rule r { strings: $a = \"x1\" condition: $a }").expect("ok");
        let scanner = Scanner::new(&compiled);
        assert!(scanner.is_match(b"x1"));
        assert!(!scanner.is_match(b"x2"));
        assert!(scanner.is_match(b"zzzx1zzz"));
    }

    #[test]
    fn scan_metrics_count_regex_work() {
        let src = r#"
rule text { strings: $a = "alpha" condition: $a }
rule ip { strings: $re = /\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}/ condition: $re }
rule url { strings: $re = /https?:\/\/[\w.\-\/]{4,}/ condition: $re }
"#;
        let compiled = compile(src).expect("compile");
        let scanner = Scanner::new(&compiled);
        let data = b"curl http://1.2.3.4/payload from 10.0.0.1";
        assert_eq!(scanner.scan(data).len(), 2);
        // Two regex strings, each one full pass over the buffer.
        scanner.take_work();
        scanner.collect_hits(data);
        let metrics = scanner.take_work();
        assert_eq!(metrics.regex_strings_evaluated, 2);
        assert_eq!(metrics.regex_bytes_scanned, 2 * data.len() as u64);
    }

    #[test]
    fn scratch_reuse_is_stateless_across_buffers() {
        let src = r#"
rule a { strings: $x = "alpha" condition: $x }
rule c { strings: $x = "GET" condition: #x >= 2 }
"#;
        let compiled = compile(src).expect("compile");
        let scanner = Scanner::new(&compiled);
        let mut scratch = ScanScratch::new();
        let mut eval = |data: &[u8]| {
            let hits = scanner.collect_hits(data);
            scanner.eval_hits([(0, &hits)], data.len() as i64, |_| true, &mut scratch)
        };
        let hot = eval(b"alpha GET GET");
        assert_eq!(hot.len(), 2);
        // A clean buffer evaluated with the dirty scratch must not see
        // the previous buffer's offsets.
        let cold = eval(b"nothing here");
        assert!(cold.is_empty(), "stale offsets leaked: {cold:?}");
        // And the first buffer again reproduces the fresh result.
        assert_eq!(hot, eval(b"alpha GET GET"));
    }

    #[test]
    fn paper_table1_base64_rule() {
        // The YARA example from Table I of the paper (regex adapted to the
        // supported subset).
        let rule = r#"
rule base64 {
    meta:
        description = "Base64 encoded blob"
    strings:
        $a = /([A-Za-z0-9+\/]{4}){3,}(==|=)?/
    condition:
        $a
}
"#;
        let hits = scan_one(rule, b"data = 'aW1wb3J0IG9zO2V4ZWMoKQ=='");
        assert_eq!(hits.len(), 1);
    }

    /// A ruleset exercising text atoms, counts, `all of`, regexes and
    /// fullword across the collect/eval split.
    const UNION_RULES: &str = r#"
rule shell { strings: $a = "os.system" condition: $a }
rule pair { strings: $a = "os.environ" $b = "requests.post" condition: all of them }
rule triple { strings: $a = "import" condition: #a >= 3 }
rule rx { strings: $r = /ab+c/ condition: $r }
rule word { strings: $w = "spawn" fullword condition: $w }
"#;

    #[test]
    fn eval_hits_over_split_units_equals_scanning_the_concatenation() {
        // Splitting a buffer into units, collecting hits per unit and
        // evaluating the rebased union must reproduce a whole-buffer
        // scan, including cross-unit `all of` and summed counts.
        let compiled = compile(UNION_RULES).expect("compile");
        let scanner = Scanner::new(&compiled);
        let unit_a = b"import os\nos.environ['x']\nimport sys\n".as_slice();
        let unit_b = b"import json\nrequests.post(u)\nabbbc spawn\n".as_slice();
        let mut whole = unit_a.to_vec();
        whole.extend_from_slice(unit_b);

        let direct = scanner.scan(&whole);
        let hits_a = scanner.collect_hits(unit_a);
        let hits_b = scanner.collect_hits(unit_b);
        let mut scratch = ScanScratch::new();
        let merged = scanner.eval_hits(
            [(0usize, &hits_a), (unit_a.len(), &hits_b)],
            whole.len() as i64,
            |_| true,
            &mut scratch,
        );
        assert_eq!(merged, direct);
        // The pair rule only matches through the cross-unit union.
        assert!(merged.iter().any(|m| m.rule == "pair"));
        // Counts sum across units: 2 imports in unit_a + 1 in unit_b
        // reach the `#a >= 3` threshold only through the union.
        assert!(merged.iter().any(|m| m.rule == "triple"));
    }

    #[test]
    fn collect_hits_reports_regex_work_and_caches_cleanly() {
        let compiled = compile(UNION_RULES).expect("compile");
        let scanner = Scanner::new(&compiled);
        let hits = scanner.collect_hits(b"abbbc");
        let work = scanner.take_work();
        assert_eq!(work.regex_strings_evaluated, 1);
        assert_eq!(work.regex_bytes_scanned, 5);
        assert!(!hits.is_empty());
        assert_eq!(hits.hit_count(), 1);
        assert!(hits.stored_bytes() > 0);
        // Evaluating the same cached hits twice gives the same verdicts
        // (the scratch generation stamps isolate the passes).
        let mut scratch = ScanScratch::new();
        let first = scanner.eval_hits([(0usize, &hits)], 5, |_| true, &mut scratch);
        let second = scanner.eval_hits([(0usize, &hits)], 5, |_| true, &mut scratch);
        assert_eq!(first, second);
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].rule, "rx");
    }

    #[test]
    fn eval_hits_respects_routing_and_filesize() {
        let compiled = compile(
            "rule a { strings: $x = \"one\" condition: $x }\nrule big { condition: filesize > 100 }",
        )
        .expect("compile");
        let scanner = Scanner::new(&compiled);
        let hits = scanner.collect_hits(b"one");
        let mut scratch = ScanScratch::new();
        let routed = scanner.eval_hits([(0usize, &hits)], 3, |ri| ri == 1, &mut scratch);
        assert!(routed.is_empty(), "excluded rule a, small filesize");
        let big = scanner.eval_hits([(0usize, &hits)], 4096, |_| true, &mut scratch);
        assert_eq!(big.len(), 2);
    }

    #[test]
    fn collect_hits_applies_fullword_at_unit_edges() {
        let compiled = compile(UNION_RULES).expect("compile");
        let scanner = Scanner::new(&compiled);
        // `spawn` at the very end of a unit: no following byte, fullword
        // holds — same as scanning the unit alone.
        let hits = scanner.collect_hits(b"x spawn");
        let mut scratch = ScanScratch::new();
        let matches = scanner.eval_hits([(0usize, &hits)], 7, |_| true, &mut scratch);
        assert!(matches.iter().any(|m| m.rule == "word"));
        // Embedded in a longer word: rejected.
        let hits = scanner.collect_hits(b"respawned");
        let matches = scanner.eval_hits([(0usize, &hits)], 9, |_| true, &mut scratch);
        assert!(!matches.iter().any(|m| m.rule == "word"));
    }
}
