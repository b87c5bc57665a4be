//! The global literal prefilter index.
//!
//! One case-insensitive multi-literal matcher ([`MultiLiteral`]: a
//! Teddy-style SWAR prefilter for small/long atom sets, Aho–Corasick
//! otherwise) is built over the distinct plain-text atoms of every
//! compiled YARA rule plus the string atoms of every Semgrep pattern.
//! Matcher passes over each engine's own scan input (the package buffer
//! for YARA, the Python sources for Semgrep)
//! then route the package to exactly the rules whose atoms occur; rules
//! with an *exhaustive* atom set (see [`yara_engine::RuleAtoms`] and
//! [`semgrep_engine::SemgrepRule::literal_atoms`]) that did not hit are
//! provably non-matching and are skipped without condition evaluation.
//! Rules without such a guarantee are routed always.
//!
//! Case-insensitive matching over-approximates both case-sensitive and
//! `nocase` strings, so folding everything into one automaton can only
//! add spurious routes (a perf loss), never drop a true match.

use std::collections::HashMap;
use std::sync::Arc;

use semgrep_engine::CompiledSemgrepRules;
use textmatch::{MatchKind, MultiLiteral};
use yara_engine::CompiledRules;

use crate::artifact::FileAnalysis;

/// Which rules of each engine a package must be scanned with.
#[derive(Debug, Clone)]
pub struct Routing {
    /// Per YARA rule (declaration order): must this rule be evaluated?
    pub yara: Vec<bool>,
    /// Per Semgrep rule (file order): must this rule be evaluated?
    pub semgrep: Vec<bool>,
}

impl Routing {
    /// An empty routing, ready to be filled by
    /// [`PrefilterIndex::route_artifacts_into`] (workers keep one per thread).
    pub fn empty() -> Self {
        Routing {
            yara: Vec::new(),
            semgrep: Vec::new(),
        }
    }

    /// Number of routed YARA rules.
    pub fn yara_routed(&self) -> usize {
        self.yara.iter().filter(|&&b| b).count()
    }

    /// Number of routed Semgrep rules.
    pub fn semgrep_routed(&self) -> usize {
        self.semgrep.iter().filter(|&&b| b).count()
    }

    /// Resizes to the given rule counts and clears every mark, reusing
    /// the allocations.
    fn reset(&mut self, yara_count: usize, semgrep_count: usize) {
        self.yara.clear();
        self.yara.resize(yara_count, false);
        self.semgrep.clear();
        self.semgrep.resize(semgrep_count, false);
    }
}

/// Reusable per-worker scratch for [`PrefilterIndex::route_artifacts_into`]:
/// generation-stamped per-atom seen marks, so repeated routing passes
/// allocate nothing and never sweep the stamp array.
#[derive(Debug, Default)]
pub struct PrefilterScratch {
    generation: u64,
    seen: Vec<u64>,
}

impl PrefilterScratch {
    /// Creates an empty scratch (sized lazily on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RuleId {
    Yara(usize),
    Semgrep(usize),
}

/// Which engine a rule in a [`RuleDelta`] belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleEngine {
    /// A YARA rule (indexed by declaration order).
    Yara,
    /// A Semgrep rule (indexed by file order).
    Semgrep,
}

/// How a changed rule differs from the previous index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaKind {
    /// No rule with this name existed in the previous index.
    Added,
    /// The rule existed but its atom set (or its exhaustive flag)
    /// changed, so prior verdicts for it are stale.
    AtomsChanged,
}

/// One rule that needs a retro-hunt after a ruleset swap.
#[derive(Debug, Clone)]
pub struct ChangedRule {
    /// Which engine the rule belongs to.
    pub engine: RuleEngine,
    /// The rule's position in the *new* ruleset.
    pub index: usize,
    /// The rule's name (YARA rule name / Semgrep rule id).
    pub name: String,
    /// The rule's folded (ASCII-lowercase) prefilter atoms, sorted.
    /// Empty with `exhaustive == true` means the rule can never match;
    /// empty with `exhaustive == false` means no atom can gate it.
    pub atoms: Vec<String>,
    /// Whether the atom set is exhaustive (a candidate filter is sound).
    pub exhaustive: bool,
    /// Why the rule is in the delta.
    pub kind: DeltaKind,
}

/// The diff between two prefilter indexes (old → new), keyed by rule
/// name: exactly which rules' atom sets changed and which atoms the new
/// index interned that the old one had never seen.
#[derive(Debug, Clone, Default)]
pub struct RuleDelta {
    /// Rules that are new or whose atom sets changed, in new-ruleset
    /// order (YARA first, then Semgrep).
    pub changed: Vec<ChangedRule>,
    /// Folded atom texts present in the new index but not the old one.
    pub new_atoms: Vec<String>,
    /// Rules present in both indexes with identical atom sets.
    pub unchanged: usize,
    /// Rules present in the old index only.
    pub removed: usize,
}

/// Per-rule atom metadata retained for delta diffs.
#[derive(Debug, Clone)]
struct RuleAtomInfo {
    name: String,
    /// Sorted, deduplicated interned atom ids.
    atoms: Vec<u32>,
    exhaustive: bool,
}

/// The compiled prefilter over one rule bundle.
#[derive(Debug)]
pub struct PrefilterIndex {
    automaton: MultiLiteral,
    /// Automaton pattern index → rules gated on that atom.
    routes: Vec<Vec<RuleId>>,
    /// Rules that must always be evaluated (no exhaustive atom set).
    always: Vec<RuleId>,
    /// Interned folded atom texts, aligned with automaton pattern ids.
    atoms: Vec<String>,
    /// Folded atom text → interned id (the interner, kept for seeding).
    atom_ids: HashMap<String, usize>,
    /// Per-rule atom metadata, in ruleset order, for delta diffs.
    yara_info: Vec<RuleAtomInfo>,
    semgrep_info: Vec<RuleAtomInfo>,
}

impl PrefilterIndex {
    /// Builds the index over the given rule sets.
    pub fn build(yara: Option<&CompiledRules>, semgrep: Option<&CompiledSemgrepRules>) -> Self {
        Self::build_seeded(yara, semgrep, None)
    }

    /// Builds the index with the atom interner seeded from a prior
    /// index: atoms shared with `prior` keep their interned ids, new
    /// atoms extend the table, so [`PrefilterIndex::atom_id`] answers
    /// stay comparable across ruleset deploys. Nothing in the hub keys on
    /// atom ids: the retro-hunt index keys on folded content 3-grams and
    /// [`PrefilterIndex::diff`] compares atom texts. Seeded-but-unused
    /// atoms stay in the automaton with empty routes, which can only cost
    /// prefilter time, never change a routing decision.
    pub fn build_seeded(
        yara: Option<&CompiledRules>,
        semgrep: Option<&CompiledSemgrepRules>,
        prior: Option<&PrefilterIndex>,
    ) -> Self {
        let mut atoms: Vec<String> = Vec::new();
        let mut atom_ids: HashMap<String, usize> = HashMap::new();
        if let Some(prior) = prior {
            atoms = prior.atoms.clone();
            atom_ids = prior.atom_ids.clone();
        }
        let mut routes: Vec<Vec<RuleId>> = vec![Vec::new(); atoms.len()];
        let mut always: Vec<RuleId> = Vec::new();
        let mut yara_info: Vec<RuleAtomInfo> = Vec::new();
        let mut semgrep_info: Vec<RuleAtomInfo> = Vec::new();

        let mut intern = |atom: &str, atoms: &mut Vec<String>, routes: &mut Vec<Vec<RuleId>>| {
            let folded = atom.to_ascii_lowercase();
            *atom_ids.entry(folded.clone()).or_insert_with(|| {
                atoms.push(folded);
                routes.push(Vec::new());
                atoms.len() - 1
            })
        };

        if let Some(rules) = yara {
            for (ri, rule) in rules.rules.iter().enumerate() {
                let ra = rule.literal_atoms();
                let mut ids: Vec<u32> = Vec::new();
                if ra.exhaustive {
                    // An exhaustive empty atom set means the rule can
                    // never match (e.g. `condition: false`): no routes.
                    for atom in &ra.atoms {
                        let id = intern(atom, &mut atoms, &mut routes);
                        routes[id].push(RuleId::Yara(ri));
                        ids.push(id as u32);
                    }
                } else {
                    always.push(RuleId::Yara(ri));
                }
                ids.sort_unstable();
                ids.dedup();
                yara_info.push(RuleAtomInfo {
                    name: rule.rule.name.clone(),
                    atoms: ids,
                    exhaustive: ra.exhaustive,
                });
            }
        }
        if let Some(rules) = semgrep {
            for (ri, rule) in rules.rules.iter().enumerate() {
                let mut ids: Vec<u32> = Vec::new();
                let mut exhaustive = false;
                match rule.literal_atoms() {
                    Some(rule_atoms) if !rule_atoms.is_empty() => {
                        exhaustive = true;
                        for atom in &rule_atoms {
                            let id = intern(atom, &mut atoms, &mut routes);
                            routes[id].push(RuleId::Semgrep(ri));
                            ids.push(id as u32);
                        }
                    }
                    _ => always.push(RuleId::Semgrep(ri)),
                }
                ids.sort_unstable();
                ids.dedup();
                semgrep_info.push(RuleAtomInfo {
                    name: rule.id.clone(),
                    atoms: ids,
                    exhaustive,
                });
            }
        }

        PrefilterIndex {
            automaton: MultiLiteral::new(&atoms, MatchKind::CaseInsensitive),
            routes,
            always,
            atoms,
            atom_ids,
            yara_info,
            semgrep_info,
        }
    }

    /// The interned id of a folded atom text, if present.
    pub fn atom_id(&self, folded: &str) -> Option<usize> {
        self.atom_ids.get(folded).copied()
    }

    /// Diffs this (old) index against a new one, by rule name.
    ///
    /// Atom sets are compared by *text*, so the diff is correct whether
    /// or not `new` was seeded from `self`; `ChangedRule::atoms` carries
    /// texts for the same reason — they are meaningful to any consumer.
    pub fn diff(&self, new: &PrefilterIndex) -> RuleDelta {
        let mut delta = RuleDelta::default();

        let texts = |index: &PrefilterIndex, info: &RuleAtomInfo| -> Vec<String> {
            let mut v: Vec<String> = info
                .atoms
                .iter()
                .map(|&id| index.atoms[id as usize].clone())
                .collect();
            v.sort_unstable();
            v
        };
        let mut old_by_name: HashMap<(RuleEngine, &str), (Vec<String>, bool)> = HashMap::new();
        for (engine, infos) in [
            (RuleEngine::Yara, &self.yara_info),
            (RuleEngine::Semgrep, &self.semgrep_info),
        ] {
            for info in infos.iter() {
                old_by_name.insert(
                    (engine, info.name.as_str()),
                    (texts(self, info), info.exhaustive),
                );
            }
        }

        let mut matched = 0usize;
        for (engine, infos) in [
            (RuleEngine::Yara, &new.yara_info),
            (RuleEngine::Semgrep, &new.semgrep_info),
        ] {
            for (ri, info) in infos.iter().enumerate() {
                let atoms = texts(new, info);
                let kind = match old_by_name.get(&(engine, info.name.as_str())) {
                    None => DeltaKind::Added,
                    Some((old_atoms, old_exhaustive)) => {
                        matched += 1;
                        if *old_atoms == atoms && *old_exhaustive == info.exhaustive {
                            delta.unchanged += 1;
                            continue;
                        }
                        DeltaKind::AtomsChanged
                    }
                };
                delta.changed.push(ChangedRule {
                    engine,
                    index: ri,
                    name: info.name.clone(),
                    atoms,
                    exhaustive: info.exhaustive,
                    kind,
                });
            }
        }
        delta.removed = old_by_name.len().saturating_sub(matched);
        delta.new_atoms = new
            .atoms
            .iter()
            .filter(|a| !self.atom_ids.contains_key(a.as_str()))
            .cloned()
            .collect();
        delta.new_atoms.sort_unstable();
        delta
    }

    /// Number of distinct atoms in the automaton.
    pub fn atom_count(&self) -> usize {
        self.atoms.len()
    }

    /// Number of rules that bypass the prefilter.
    pub fn always_on_count(&self) -> usize {
        self.always.len()
    }

    /// Routes one package from its per-file analysis artifacts — the
    /// scan-path entry point since the parse-once refactor.
    ///
    /// YARA rules are routed from every file's raw bytes **and every
    /// decoded layer** (an atom hidden behind base64 still routes its
    /// rule, or layered scanning could never fire); Semgrep rules are
    /// routed from the Python files' bytes (what the structural matcher
    /// parses). Routing each engine from its own scan input keeps the
    /// skip sound for any request shape.
    pub fn route_artifacts_into(
        &self,
        artifacts: &[Arc<FileAnalysis>],
        routing: &mut Routing,
        scratch: &mut PrefilterScratch,
    ) {
        routing.reset(self.yara_info.len(), self.semgrep_info.len());
        for id in &self.always {
            routing.mark(*id);
        }
        for artifact in artifacts {
            self.mark_hits(&artifact.bytes, routing, true, artifact.is_python, scratch);
            for layer in &artifact.layers {
                self.mark_hits(&layer.data, routing, true, false, scratch);
            }
        }
    }

    /// One streaming automaton pass over `text`, marking hit atoms'
    /// routes for the selected engine(s). The pass stops early once every
    /// atom has been seen — at that point every route is already marked
    /// and the rest of the text cannot change the routing.
    fn mark_hits(
        &self,
        text: &[u8],
        routing: &mut Routing,
        mark_yara: bool,
        mark_semgrep: bool,
        scratch: &mut PrefilterScratch,
    ) {
        if self.atoms.is_empty() {
            return;
        }
        scratch.generation += 1;
        if scratch.seen.len() < self.routes.len() {
            scratch.seen.resize(self.routes.len(), 0);
        }
        let mut unseen = self.atoms.len();
        self.automaton.for_each_match(text, |m| {
            if scratch.seen[m.pattern] == scratch.generation {
                return true;
            }
            scratch.seen[m.pattern] = scratch.generation;
            unseen -= 1;
            for id in &self.routes[m.pattern] {
                match id {
                    RuleId::Yara(_) if mark_yara => routing.mark(*id),
                    RuleId::Semgrep(_) if mark_semgrep => routing.mark(*id),
                    _ => {}
                }
            }
            unseen > 0
        });
    }

    /// A routing that evaluates everything (prefilter disabled), written
    /// into a caller-owned routing.
    pub fn route_all_into(&self, routing: &mut Routing) {
        routing.yara.clear();
        routing.yara.resize(self.yara_info.len(), true);
        routing.semgrep.clear();
        routing.semgrep.resize(self.semgrep_info.len(), true);
    }
}

impl Routing {
    fn mark(&mut self, id: RuleId) {
        match id {
            RuleId::Yara(i) => self.yara[i] = true,
            RuleId::Semgrep(i) => self.semgrep[i] = true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NO_SOURCES: &[&str] = &[];

    /// Raw-buffer routing for the unit tests below (the hub routes from
    /// artifacts): YARA rules from `buffer`, Semgrep rules from `sources`.
    impl PrefilterIndex {
        fn route<S: AsRef<[u8]>>(&self, buffer: &[u8], sources: &[S]) -> Routing {
            let mut routing = Routing::empty();
            self.route_into(buffer, sources, &mut routing, &mut PrefilterScratch::new());
            routing
        }

        fn route_into<S: AsRef<[u8]>>(
            &self,
            buffer: &[u8],
            sources: &[S],
            routing: &mut Routing,
            scratch: &mut PrefilterScratch,
        ) {
            routing.reset(self.yara_info.len(), self.semgrep_info.len());
            for id in &self.always {
                routing.mark(*id);
            }
            self.mark_hits(buffer, routing, true, false, scratch);
            for source in sources {
                self.mark_hits(source.as_ref(), routing, false, true, scratch);
            }
        }

        fn route_all(&self) -> Routing {
            let mut routing = Routing::empty();
            self.route_all_into(&mut routing);
            routing
        }
    }

    fn yara(src: &str) -> CompiledRules {
        yara_engine::compile(src).expect("yara compiles")
    }

    fn semgrep(src: &str) -> CompiledSemgrepRules {
        semgrep_engine::compile(src).expect("semgrep compiles")
    }

    #[test]
    fn routes_only_rules_whose_atoms_occur() {
        let rules = yara(
            r#"
rule a { strings: $x = "os.system" condition: $x }
rule b { strings: $x = "socket.socket" condition: $x }
"#,
        );
        let index = PrefilterIndex::build(Some(&rules), None);
        let routing = index.route(b"import os\nos.system('id')\n", NO_SOURCES);
        assert_eq!(routing.yara, vec![true, false]);
        let routing = index.route(b"nothing suspicious", NO_SOURCES);
        assert_eq!(routing.yara_routed(), 0);
    }

    #[test]
    fn case_insensitive_routing_over_approximates() {
        let rules = yara("rule a { strings: $x = \"OS.System\" condition: $x }");
        let index = PrefilterIndex::build(Some(&rules), None);
        // The case-sensitive rule cannot match, but the prefilter must
        // still route it (only the scanner decides the final verdict).
        assert_eq!(index.route(b"os.system", NO_SOURCES).yara, vec![true]);
    }

    #[test]
    fn non_exhaustive_rules_are_always_routed() {
        let rules = yara("rule re { strings: $r = /a+b/ condition: $r }");
        let index = PrefilterIndex::build(Some(&rules), None);
        assert_eq!(index.always_on_count(), 1);
        assert_eq!(index.route(b"zzz", NO_SOURCES).yara, vec![true]);
    }

    #[test]
    fn never_matching_rule_is_never_routed() {
        let rules = yara("rule dead { condition: false }");
        let index = PrefilterIndex::build(Some(&rules), None);
        assert_eq!(index.always_on_count(), 0);
        assert_eq!(index.route(b"anything", NO_SOURCES).yara, vec![false]);
    }

    #[test]
    fn semgrep_any_of_semantics() {
        let rules = semgrep(
            "rules:\n  - id: t\n    languages: [python]\n    message: m\n    pattern-either:\n      - pattern: eval($X)\n      - pattern: exec($X)\n",
        );
        let index = PrefilterIndex::build(None, Some(&rules));
        assert_eq!(index.route(b"", &["exec(code)"]).semgrep, vec![true]);
        assert_eq!(index.route(b"", &["eval(code)"]).semgrep, vec![true]);
        assert_eq!(index.route(b"", &["print(code)"]).semgrep, vec![false]);
    }

    #[test]
    fn engines_route_from_their_own_scan_input() {
        let yara_rules = yara("rule a { strings: $x = \"os.system\" condition: $x }");
        let semgrep_rules = semgrep(
            "rules:\n  - id: t\n    languages: [python]\n    message: m\n    pattern: os.system($X)\n",
        );
        let index = PrefilterIndex::build(Some(&yara_rules), Some(&semgrep_rules));
        // Atom only in a source: Semgrep must be routed even though the
        // buffer (what YARA scans) is clean — raw requests make no
        // sources-are-a-substring-of-buffer promise.
        let routing = index.route(b"clean buffer", &["os.system('x')"]);
        assert_eq!(routing.yara, vec![false]);
        assert_eq!(routing.semgrep, vec![true]);
        // Atom only in the buffer: YARA routed, Semgrep not.
        let routing = index.route(b"os.system('x')", &["clean source"]);
        assert_eq!(routing.yara, vec![true]);
        assert_eq!(routing.semgrep, vec![false]);
    }

    #[test]
    fn atoms_are_deduplicated_across_rules() {
        let rules = yara(
            r#"
rule a { strings: $x = "os.system" condition: $x }
rule b { strings: $x = "os.system" $y = "curl" condition: all of them }
"#,
        );
        let index = PrefilterIndex::build(Some(&rules), None);
        assert_eq!(index.atom_count(), 2);
        // `curl` alone routes rule b (any-of semantics), which the
        // scanner then rejects — routing is a superset of matching.
        let routing = index.route(b"curl http://x", NO_SOURCES);
        assert_eq!(routing.yara, vec![false, true]);
    }

    #[test]
    fn empty_rule_sets() {
        let index = PrefilterIndex::build(None, None);
        let routing = index.route(b"data", NO_SOURCES);
        assert!(routing.yara.is_empty() && routing.semgrep.is_empty());
    }

    #[test]
    fn empty_buffer_routes_only_always_on_rules() {
        // An empty upload must not route atom-gated rules, but always-on
        // rules (regex-only, filesize conditions) still run.
        let rules = yara(
            r#"
rule atom { strings: $a = "os.system" condition: $a }
rule rx { strings: $r = /ab+c/ condition: $r }
rule size { condition: filesize > 10 }
"#,
        );
        let index = PrefilterIndex::build(Some(&rules), None);
        let routing = index.route(b"", NO_SOURCES);
        assert_eq!(routing.yara, vec![false, true, true]);
        assert_eq!(routing.yara_routed(), index.always_on_count());
    }

    #[test]
    fn empty_sources_route_no_semgrep_atom_rules() {
        let rules = semgrep(
            "rules:\n  - id: t\n    languages: [python]\n    message: m\n    pattern: eval($X)\n",
        );
        let index = PrefilterIndex::build(None, Some(&rules));
        // No sources at all: nothing to parse, nothing routed.
        let routing = index.route(b"eval marker only in buffer", NO_SOURCES);
        assert_eq!(routing.semgrep, vec![false]);
        // An empty source string: still nothing routed.
        let routing = index.route(b"", &[""]);
        assert_eq!(routing.semgrep, vec![false]);
    }

    #[test]
    fn route_all_covers_every_rule_even_dead_ones() {
        let rules = yara("rule dead { condition: false }");
        let index = PrefilterIndex::build(Some(&rules), None);
        assert_eq!(index.route_all().yara, vec![true]);
    }

    #[test]
    fn route_into_reuse_matches_fresh_route() {
        let yara_rules = yara(
            r#"
rule a { strings: $x = "os.system" condition: $x }
rule b { strings: $x = "socket.socket" condition: $x }
"#,
        );
        let semgrep_rules = semgrep(
            "rules:\n  - id: t\n    languages: [python]\n    message: m\n    pattern: eval($X)\n",
        );
        let index = PrefilterIndex::build(Some(&yara_rules), Some(&semgrep_rules));
        let mut routing = Routing::empty();
        let mut scratch = PrefilterScratch::new();
        let cases: [(&[u8], &[&str]); 4] = [
            (b"import os\nos.system('id')\n", &["eval(x)"]),
            (b"socket.socket()", &[]),
            (b"nothing", &["print(1)"]),
            (b"os.system socket.socket", &["eval(a)"]),
        ];
        for (buffer, sources) in cases {
            index.route_into(buffer, sources, &mut routing, &mut scratch);
            let fresh = index.route(buffer, sources);
            assert_eq!(routing.yara, fresh.yara);
            assert_eq!(routing.semgrep, fresh.semgrep);
        }
    }

    #[test]
    fn early_exit_after_all_atoms_seen_routes_everything() {
        let rules = yara(
            r#"
rule a { strings: $x = "aa" condition: $x }
rule b { strings: $x = "bb" condition: $x }
"#,
        );
        let index = PrefilterIndex::build(Some(&rules), None);
        // Both atoms occur early; the trailing text is skipped but the
        // routing is already complete.
        let mut buffer = b"aabb".to_vec();
        buffer.extend(std::iter::repeat_n(b'z', 1 << 16));
        buffer.extend_from_slice(b"aa");
        assert_eq!(index.route(&buffer, NO_SOURCES).yara, vec![true, true]);
    }

    #[test]
    fn artifact_routing_sees_decoded_layers_and_python_sources() {
        use crate::artifact::{ArtifactConfig, FileAnalysis};
        use crate::request::FileEntry;
        use std::sync::Arc;

        let yara_rules = yara(
            r#"
rule surface { strings: $x = "requests.post" condition: $x }
rule hidden { strings: $x = "os.system" condition: $x }
"#,
        );
        let semgrep_rules = semgrep(
            "rules:\n  - id: t\n    languages: [python]\n    message: m\n    pattern: eval($X)\n",
        );
        let index = PrefilterIndex::build(Some(&yara_rules), Some(&semgrep_rules));
        // The only occurrence of `os.system` is base64-encoded inside a
        // literal; `eval` appears in the python surface text.
        let payload = digest::base64::encode(b"import os;os.system('id')");
        let code = format!("blob = '{payload}'\neval(blob)\n");
        let entry = FileEntry::new("mod.py", code.into_bytes());
        let artifact = Arc::new(FileAnalysis::build(
            &entry,
            None,
            &ArtifactConfig::default(),
        ));
        let mut routing = Routing::empty();
        let mut scratch = PrefilterScratch::new();
        index.route_artifacts_into(std::slice::from_ref(&artifact), &mut routing, &mut scratch);
        assert_eq!(
            routing.yara,
            vec![false, true],
            "layer-only atom must route its rule"
        );
        assert_eq!(routing.semgrep, vec![true]);
        // With layer extraction disabled the hidden atom is invisible.
        let bare = Arc::new(FileAnalysis::build(
            &entry,
            None,
            &ArtifactConfig {
                max_decode_depth: 0,
                ..ArtifactConfig::default()
            },
        ));
        index.route_artifacts_into(std::slice::from_ref(&bare), &mut routing, &mut scratch);
        assert_eq!(routing.yara, vec![false, false]);
    }

    #[test]
    fn seeded_rebuild_keeps_atom_ids_stable() {
        let old_rules = yara(
            r#"
rule a { strings: $x = "os.system" condition: $x }
rule b { strings: $x = "socket.socket" condition: $x }
"#,
        );
        let old = PrefilterIndex::build(Some(&old_rules), None);
        // The new bundle reorders rules, drops one atom, adds another.
        let new_rules = yara(
            r#"
rule c { strings: $x = "curl http" condition: $x }
rule a { strings: $x = "os.system" condition: $x }
"#,
        );
        let new = PrefilterIndex::build_seeded(Some(&new_rules), None, Some(&old));
        // Shared atoms keep their interned ids; the dropped atom's id is
        // not recycled; the new atom extends the table.
        assert_eq!(new.atom_id("os.system"), old.atom_id("os.system"));
        assert_eq!(new.atom_id("socket.socket"), old.atom_id("socket.socket"));
        assert_eq!(new.atom_id("curl http"), Some(2));
        // Seeded-but-unused atoms never route anything...
        let routing = new.route(b"socket.socket()", NO_SOURCES);
        assert_eq!(routing.yara_routed(), 0);
        // ...and routing decisions match an unseeded build.
        let unseeded = PrefilterIndex::build(Some(&new_rules), None);
        for buffer in [
            b"curl http://x".as_slice(),
            b"os.system('id')",
            b"nothing here",
        ] {
            assert_eq!(
                new.route(buffer, NO_SOURCES).yara,
                unseeded.route(buffer, NO_SOURCES).yara
            );
        }
    }

    #[test]
    fn diff_reports_exactly_the_changed_rules() {
        let old_yara = yara(
            r#"
rule same { strings: $x = "os.system" condition: $x }
rule retuned { strings: $x = "curl" condition: $x }
rule dropped { strings: $x = "wget" condition: $x }
"#,
        );
        let old_semgrep = semgrep(
            "rules:\n  - id: sg-same\n    languages: [python]\n    message: m\n    pattern: eval($X)\n",
        );
        let old = PrefilterIndex::build(Some(&old_yara), Some(&old_semgrep));
        let new_yara = yara(
            r#"
rule same { strings: $x = "os.system" condition: $x }
rule retuned { strings: $x = "curl -fsSL" condition: $x }
rule added { strings: $x = "nc -e" condition: $x }
"#,
        );
        let new = PrefilterIndex::build_seeded(Some(&new_yara), Some(&old_semgrep), Some(&old));
        let delta = old.diff(&new);
        assert_eq!(delta.unchanged, 2, "`same` and `sg-same`");
        assert_eq!(delta.removed, 1, "`dropped`");
        let names: Vec<(&str, DeltaKind)> = delta
            .changed
            .iter()
            .map(|c| (c.name.as_str(), c.kind))
            .collect();
        assert_eq!(
            names,
            vec![
                ("retuned", DeltaKind::AtomsChanged),
                ("added", DeltaKind::Added),
            ]
        );
        assert!(delta.changed.iter().all(|c| c.exhaustive));
        assert_eq!(delta.changed[1].atoms, vec!["nc -e".to_owned()]);
        assert_eq!(
            delta.new_atoms,
            vec!["curl -fssl".to_owned(), "nc -e".to_owned()],
            "folded, sorted, old atoms excluded"
        );
        // Exhaustive-flag flips count as changes even with equal atoms.
        let relaxed = yara("rule same { strings: $x = /os\\.system/ condition: $x }");
        let relaxed_index = PrefilterIndex::build(Some(&relaxed), None);
        let flip = old.diff(&relaxed_index);
        assert_eq!(flip.changed.len(), 1);
        assert_eq!(flip.changed[0].kind, DeltaKind::AtomsChanged);
        assert!(!flip.changed[0].exhaustive);
    }

    #[test]
    fn diff_against_an_identical_bundle_is_empty() {
        let rules = yara("rule a { strings: $x = \"os.system\" condition: $x }");
        let old = PrefilterIndex::build(Some(&rules), None);
        let new = PrefilterIndex::build_seeded(Some(&rules), None, Some(&old));
        let delta = old.diff(&new);
        assert!(delta.changed.is_empty());
        assert!(delta.new_atoms.is_empty());
        assert_eq!(delta.unchanged, 1);
        assert_eq!(delta.removed, 0);
    }

    #[test]
    fn atom_spanning_buffer_end_is_found() {
        let rules = yara("rule a { strings: $x = \"needle\" condition: $x }");
        let index = PrefilterIndex::build(Some(&rules), None);
        let mut buffer = vec![b'x'; 4096];
        buffer.extend_from_slice(b"need");
        buffer.extend_from_slice(b"le");
        assert_eq!(index.route(&buffer, NO_SOURCES).yara, vec![true]);
    }
}
