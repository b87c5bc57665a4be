//! Rule scanner: matches compiled rules against byte buffers.
//!
//! All plain-text strings across the whole ruleset are merged into two
//! tier-selecting multi-literal matchers (case-sensitive and `nocase`) —
//! a Teddy-style SWAR prefilter for small/long pattern sets, Aho–Corasick
//! otherwise — so scanning a package against hundreds of rules stays a
//! two-pass operation. Regex strings are merged the same way: definitions
//! that compile from the same `(pattern, nocase)` form one group, each
//! group's regex runs once per scan unit, and every match lands in every
//! member's slot — generated rulesets repeat a handful of indicator
//! patterns across many rules, and a pass per definition would re-read
//! the unit once per copy.

use std::collections::HashMap;

use textmatch::{MatchKind, MultiLiteral, Regex};

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

/// Work counters for one scan pass.
///
/// Regex strings dominate per-rule scan cost (plain-text strings ride the
/// shared Aho–Corasick pass), so the counters track how much haystack the
/// regex engine actually read; the scanhub service aggregates them across
/// packages.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanMetrics {
    /// Regex passes run: one per *distinct* `(pattern, nocase)`, however
    /// many definitions share it.
    pub regex_strings_evaluated: u64,
    /// Haystack bytes handed to the regex engine (buffer length times
    /// passes — each pass is one single-pass scan).
    pub regex_bytes_scanned: u64,
}

/// String-definition hits of the whole ruleset on one scan unit (a
/// file's raw bytes, or one decoded layer), produced by
/// [`Scanner::collect_hits`] and consumed by [`Scanner::eval_hits`].
///
/// Offsets are unit-relative `u32`s (registry uploads are far below
/// 4 GiB); slots are the scanner's dense string indices. The set is a
/// pure function of `(ruleset, data)`, which is what makes it cacheable
/// in a content-addressed artifact.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FileHits {
    /// `(dense string slot, ascending match offsets)`, sorted by slot.
    slots: Vec<(u32, Vec<u32>)>,
    /// Work performed collecting these hits.
    pub metrics: ScanMetrics,
}

impl FileHits {
    /// True when no string definition matched this unit.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Total match offsets recorded across all string definitions.
    pub fn hit_count(&self) -> usize {
        self.slots.iter().map(|(_, offs)| offs.len()).sum()
    }

    /// Approximate heap footprint, for cache accounting.
    pub fn stored_bytes(&self) -> usize {
        self.slots.iter().map(|(_, offs)| 8 + 4 * offs.len()).sum()
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

/// A reusable scanner over a compiled ruleset.
#[derive(Debug)]
pub struct Scanner<'r> {
    rules: &'r CompiledRules,
    cs: MultiLiteral,
    ci: MultiLiteral,
    /// automaton pattern index -> (rule idx, string idx, wide, fullword)
    cs_map: Vec<(usize, usize, bool, bool)>,
    ci_map: Vec<(usize, usize, bool, bool)>,
    /// Per rule, the base index of its dense string-slot range
    /// (`slot = string_base[ri] + si`).
    string_base: Vec<usize>,
    total_strings: usize,
    /// Regex string definitions, one group per distinct pattern.
    regex_groups: Vec<RegexGroup<'r>>,
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
}

impl<'r> Scanner<'r> {
    /// Builds a scanner for `rules`.
    pub fn new(rules: &'r CompiledRules) -> Self {
        let mut cs_pats: Vec<Vec<u8>> = Vec::new();
        let mut ci_pats: Vec<Vec<u8>> = Vec::new();
        let mut cs_map = Vec::new();
        let mut ci_map = Vec::new();
        for (ri, cr) in rules.rules.iter().enumerate() {
            for (si, s) in cr.rule.strings.iter().enumerate() {
                if let StringValue::Text { text, mods } = &s.value {
                    let bytes = text.as_bytes().to_vec();
                    if mods.ascii {
                        if mods.nocase {
                            ci_pats.push(bytes.clone());
                            ci_map.push((ri, si, false, mods.fullword));
                        } else {
                            cs_pats.push(bytes.clone());
                            cs_map.push((ri, si, false, mods.fullword));
                        }
                    }
                    if mods.wide {
                        let wide: Vec<u8> = bytes.iter().flat_map(|&b| [b, 0u8]).collect();
                        if mods.nocase {
                            ci_pats.push(wide);
                            ci_map.push((ri, si, true, mods.fullword));
                        } else {
                            cs_pats.push(wide);
                            cs_map.push((ri, si, true, mods.fullword));
                        }
                    }
                }
            }
        }
        let mut string_base = Vec::with_capacity(rules.rules.len());
        let mut total_strings = 0usize;
        for cr in &rules.rules {
            string_base.push(total_strings);
            total_strings += cr.rule.strings.len();
        }
        let mut regex_groups: Vec<RegexGroup<'r>> = Vec::new();
        let mut group_of: HashMap<(&str, bool), usize> = HashMap::new();
        for (ri, cr) in rules.rules.iter().enumerate() {
            for (si, s) in cr.rule.strings.iter().enumerate() {
                if let (StringValue::Regex { pattern, nocase }, Some(regex)) =
                    (&s.value, &cr.regexes[si])
                {
                    let gi = *group_of
                        .entry((pattern.as_str(), *nocase))
                        .or_insert_with(|| {
                            regex_groups.push(RegexGroup {
                                regex,
                                members: Vec::new(),
                            });
                            regex_groups.len() - 1
                        });
                    regex_groups[gi].members.push(string_base[ri] + si);
                }
            }
        }
        Scanner {
            rules,
            cs: MultiLiteral::new(&cs_pats, MatchKind::CaseSensitive),
            ci: MultiLiteral::new(&ci_pats, MatchKind::CaseInsensitive),
            cs_map,
            ci_map,
            string_base,
            total_strings,
            regex_groups,
        }
    }

    /// Scans `data` and returns every rule whose condition holds: one
    /// unit's [`Scanner::collect_hits`] through [`Scanner::eval_hits`],
    /// the path the hub runs per package.
    pub fn scan(&self, data: &[u8]) -> Vec<RuleMatch> {
        let hits = self.collect_hits(data);
        let mut scratch = ScanScratch::new();
        self.eval_hits([(0, &hits)], data.len() as i64, |_| true, &mut scratch)
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
        let mut scratch = ScanScratch::new();
        scratch.begin(self.total_strings);
        for (auto, map) in [(&self.cs, &self.cs_map), (&self.ci, &self.ci_map)] {
            auto.for_each_match(data, |m| {
                let (ri, si, _wide, fullword) = map[m.pattern];
                if !fullword || is_fullword(data, m.start, m.end) {
                    scratch.push(self.string_base[ri] + si, m.start);
                }
                true
            });
        }
        let metrics = self.regex_pass(data, &mut scratch);
        let slots = (0..self.total_strings)
            .filter_map(|slot| {
                scratch
                    .get(slot)
                    .map(|offs| (slot as u32, offs.iter().map(|&o| o as u32).collect()))
            })
            .collect();
        FileHits { slots, metrics }
    }

    /// Runs every regex group — one accelerated forward pass over `data`
    /// each — and records each match under every member's slot.
    fn regex_pass(&self, data: &[u8], scratch: &mut ScanScratch) -> ScanMetrics {
        let mut metrics = ScanMetrics::default();
        for group in &self.regex_groups {
            metrics.regex_strings_evaluated += 1;
            metrics.regex_bytes_scanned += data.len() as u64;
            let matches = group.regex.find_all(data);
            for &slot in &group.members {
                for m in &matches {
                    scratch.push(slot, m.start);
                }
            }
        }
        metrics
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
        out.clear();
        out.resize(self.rules.rules.len(), false);
        for (slot, _) in &hits.slots {
            // string_base is the prefix-sum of per-rule string counts:
            // the owning rule is the last base <= slot.
            let ri = self
                .string_base
                .partition_point(|&base| base <= *slot as usize)
                - 1;
            out[ri] = true;
        }
    }

    /// Evaluates rule conditions over the union of pre-collected hit
    /// sets, each rebased to its unit's global offset.
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
        scratch.begin(self.total_strings);
        for (base, hits) in parts {
            for (slot, offs) in &hits.slots {
                for &o in offs {
                    scratch.push(*slot as usize, base + o as usize);
                }
            }
        }
        let scratch = &*scratch;
        let mut out = Vec::new();
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
                let mut strings = Vec::new();
                for (si, s) in cr.rule.strings.iter().enumerate() {
                    if let Some(offs) = scratch.get(self.string_base[ri] + si) {
                        let mut offs = offs.to_vec();
                        offs.sort_unstable();
                        offs.dedup();
                        strings.push(StringMatch {
                            id: s.id.clone(),
                            offsets: offs,
                        });
                    }
                }
                out.push(RuleMatch {
                    rule: cr.rule.name.clone(),
                    strings,
                });
            }
        }
        out
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

    fn covered_ids(&self, set: &StringSet) -> Vec<&str> {
        match set {
            StringSet::Them => self
                .rule
                .rule
                .strings
                .iter()
                .map(|s| s.id.as_str())
                .collect(),
            StringSet::Patterns(pats) => self
                .rule
                .rule
                .strings
                .iter()
                .filter(|s| pats.iter().any(|p| p.matches(&s.id)))
                .map(|s| s.id.as_str())
                .collect(),
        }
    }

    fn eval(&self, cond: &Condition) -> bool {
        match cond {
            Condition::Bool(b) => *b,
            Condition::StringRef(id) => self.matched(id),
            Condition::AllOf(set) => {
                let ids = self.covered_ids(set);
                !ids.is_empty() && ids.iter().all(|id| self.matched(id))
            }
            Condition::AnyOf(set) => self.covered_ids(set).iter().any(|id| self.matched(id)),
            Condition::NOf(n, set) => {
                let hit = self
                    .covered_ids(set)
                    .iter()
                    .filter(|id| self.matched(id))
                    .count() as i64;
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

fn is_fullword(data: &[u8], start: usize, end: usize) -> bool {
    let before_ok = start == 0 || !data[start - 1].is_ascii_alphanumeric();
    let after_ok = end >= data.len() || !data[end].is_ascii_alphanumeric();
    before_ok && after_ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::compile;

    /// The per-definition regex pass the grouped pass replaced, kept
    /// verbatim as the differential oracle: one `find_all` per regex
    /// string definition, in rule order.
    impl Scanner<'_> {
        fn collect_hits_per_definition(&self, data: &[u8]) -> FileHits {
            let mut scratch = ScanScratch::new();
            scratch.begin(self.total_strings);
            for (auto, map) in [(&self.cs, &self.cs_map), (&self.ci, &self.ci_map)] {
                auto.for_each_match(data, |m| {
                    let (ri, si, _wide, fullword) = map[m.pattern];
                    if !fullword || is_fullword(data, m.start, m.end) {
                        scratch.push(self.string_base[ri] + si, m.start);
                    }
                    true
                });
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
            let slots = (0..self.total_strings)
                .filter_map(|slot| {
                    scratch
                        .get(slot)
                        .map(|offs| (slot as u32, offs.iter().map(|&o| o as u32).collect()))
                })
                .collect();
            FileHits { slots, metrics }
        }
    }

    /// Asserts grouped ≡ per-definition on `data`: identical slots and
    /// offsets, and metrics that count groups on one side, definitions on
    /// the other.
    fn assert_grouped_equals_per_definition(scanner: &Scanner<'_>, data: &[u8]) {
        let grouped = scanner.collect_hits(data);
        let oracle = scanner.collect_hits_per_definition(data);
        assert_eq!(grouped.slots, oracle.slots);
        let definitions: usize = scanner.regex_groups.iter().map(|g| g.members.len()).sum();
        assert_eq!(oracle.metrics.regex_strings_evaluated, definitions as u64);
        assert_eq!(
            grouped.metrics.regex_strings_evaluated,
            scanner.regex_groups.len() as u64
        );
        assert_eq!(
            grouped.metrics.regex_bytes_scanned,
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
        let metrics = scanner.collect_hits(data).metrics;
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
        assert_eq!(hits.metrics.regex_strings_evaluated, 1);
        assert_eq!(hits.metrics.regex_bytes_scanned, 5);
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
