//! The prefilter: which rules of a bundle can fire on a package.
//!
//! A YARA rule with an *exhaustive* atom set ([`yara_engine::RuleAtoms`])
//! cannot match unless one of its atom-backed strings has a hit, and each
//! artifact caches every string's hits on its bytes and decoded layers,
//! so [`yara_engine::HitGate`] routes it from those hits; a case-sensitive
//! string whose atom occurs only in another case routes nothing. A YARA
//! rule without an exhaustive atom set is routed always. Routing reads no
//! byte.
//!
//! Every Semgrep rule is routed always. The walk filters itself:
//! [`semgrep_engine::MatchSet`] sends each statement only to the pattern
//! leaves whose anchor identifiers it contains, so a second, byte-level
//! filter in front of it would only read every Python byte again. The
//! Semgrep atoms ([`semgrep_engine::SemgrepRule::literal_atoms`]) are
//! still kept: [`PrefilterIndex::diff`] and retro-hunt candidacy read
//! them.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use semgrep_engine::CompiledSemgrepRules;
use yara_engine::{CompiledRules, HitGate};

use crate::artifact::FileAnalysis;
use crate::retrohunt::TermProvenance;

/// Which rules of each engine a package must be scanned with.
#[derive(Debug, Clone, Default)]
pub struct Routing {
    /// Per YARA rule (declaration order): must this rule be evaluated?
    pub yara: Vec<bool>,
    /// Per Semgrep rule (file order): must this rule be evaluated? Every
    /// rule is: the walk's anchor index is the Semgrep filter.
    pub semgrep: Vec<bool>,
}

impl Routing {
    /// An empty routing, ready to be filled by
    /// [`PrefilterIndex::route_artifacts_into`] (workers keep one per thread).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Number of routed YARA rules.
    pub fn yara_routed(&self) -> usize {
        self.yara.iter().filter(|&&b| b).count()
    }

    /// Number of routed Semgrep rules.
    pub fn semgrep_routed(&self) -> usize {
        self.semgrep.iter().filter(|&&b| b).count()
    }

    /// Resizes to the given rule counts, every YARA mark set to `yara`
    /// and every Semgrep rule marked, reusing the allocations.
    fn reset(&mut self, yara: bool, yara_count: usize, semgrep_count: usize) {
        self.yara.clear();
        self.yara.resize(yara_count, yara);
        self.semgrep.clear();
        self.semgrep.resize(semgrep_count, true);
    }

    /// Marks one rule for evaluation.
    pub(crate) fn mark(&mut self, (engine, i): RuleId) {
        match engine {
            RuleEngine::Yara => self.yara[i] = true,
            RuleEngine::Semgrep => self.semgrep[i] = true,
        }
    }
}

/// The scratch [`PrefilterIndex::route_artifacts_into`] takes. Routing
/// reads only cached hits and needs none; the type is kept because the
/// benchmark names it.
#[derive(Debug, Default)]
pub struct PrefilterScratch;

impl PrefilterScratch {
    /// Creates the (empty) scratch.
    pub fn new() -> Self {
        PrefilterScratch
    }
}

/// A rule: its engine, and its position in that engine's ruleset.
pub(crate) type RuleId = (RuleEngine, usize);

/// Which engine a rule in a [`RuleDelta`] belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleEngine {
    /// A YARA rule (indexed by declaration order).
    Yara,
    /// A Semgrep rule (indexed by file order).
    Semgrep,
}

impl RuleEngine {
    /// Whether this engine reads a scan unit of `provenance` in a file,
    /// Python or not: YARA reads every file's bytes and every decoded
    /// layer, Semgrep only a Python file's bytes (its module). Retro-hunt
    /// candidacy follows it, which keeps its skips sound; routing reads
    /// the cached YARA hits of every unit and routes every Semgrep rule.
    pub(crate) fn reads(self, provenance: TermProvenance, is_python: bool) -> bool {
        match self {
            RuleEngine::Yara => true,
            RuleEngine::Semgrep => provenance == TermProvenance::Surface && is_python,
        }
    }
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
/// bundle's rules gate on that no rule of the old one did.
#[derive(Debug, Clone, Default)]
pub struct RuleDelta {
    /// Rules that are new or whose atom sets changed, in new-ruleset
    /// order (YARA first, then Semgrep).
    pub changed: Vec<ChangedRule>,
    /// Folded atom texts of the new bundle's rules absent from the old
    /// bundle's, sorted.
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
    /// Sorted, deduplicated folded atom texts; empty unless exhaustive.
    atoms: Vec<String>,
    exhaustive: bool,
}

impl RuleAtomInfo {
    /// A rule's info from its atoms, `None` when it has no exhaustive set.
    fn new(name: &str, atoms: Option<Vec<String>>) -> Self {
        let exhaustive = atoms.is_some();
        let mut atoms = atoms.unwrap_or_default();
        atoms.iter_mut().for_each(|a| a.make_ascii_lowercase());
        atoms.sort_unstable();
        atoms.dedup();
        let name = name.to_owned();
        RuleAtomInfo {
            name,
            atoms,
            exhaustive,
        }
    }
}

/// The compiled prefilter over one rule bundle.
#[derive(Debug)]
pub struct PrefilterIndex {
    /// Routes YARA rules from an artifact's cached hits.
    gate: HitGate,
    /// YARA rules that must always be evaluated (no exhaustive atom set).
    always: Vec<usize>,
    /// Per-rule atom metadata, in ruleset order, for delta diffs.
    yara_info: Vec<RuleAtomInfo>,
    semgrep_info: Vec<RuleAtomInfo>,
}

impl PrefilterIndex {
    /// Builds the index over the given rule sets.
    pub fn build(yara: Option<&CompiledRules>, semgrep: Option<&CompiledSemgrepRules>) -> Self {
        // An exhaustive empty atom set means the rule can never match
        // (e.g. `condition: false`): never routed.
        let yara_info = yara.iter().flat_map(|rules| &rules.rules).map(|rule| {
            let ra = rule.literal_atoms();
            RuleAtomInfo::new(&rule.rule.name, ra.exhaustive.then_some(ra.atoms))
        });
        let semgrep_info = semgrep.iter().flat_map(|rules| &rules.rules).map(|rule| {
            let atoms = rule.literal_atoms().filter(|atoms| !atoms.is_empty());
            RuleAtomInfo::new(&rule.id, atoms)
        });
        let yara_info: Vec<RuleAtomInfo> = yara_info.collect();
        let always = (0..yara_info.len()).filter(|&i| !yara_info[i].exhaustive);
        PrefilterIndex {
            gate: yara.map(HitGate::new).unwrap_or_default(),
            always: always.collect(),
            yara_info,
            semgrep_info: semgrep_info.collect(),
        }
    }

    /// [`PrefilterIndex::build`]; `prior` is not read. The index holds no
    /// state that a prior one could seed, and nothing keys on it across
    /// deployments: [`PrefilterIndex::diff`] compares atom texts.
    pub fn build_seeded(
        yara: Option<&CompiledRules>,
        semgrep: Option<&CompiledSemgrepRules>,
        _prior: Option<&PrefilterIndex>,
    ) -> Self {
        Self::build(yara, semgrep)
    }

    /// Diffs this (old) index against a new one, by rule name and atom
    /// text.
    pub fn diff(&self, new: &PrefilterIndex) -> RuleDelta {
        let mut delta = RuleDelta::default();
        let old_by_name: HashMap<(RuleEngine, &str), &RuleAtomInfo> = self
            .infos()
            .map(|((engine, _), info)| ((engine, info.name.as_str()), info))
            .collect();
        let old_atoms: BTreeSet<&str> = self.atoms().collect();
        let mut matched = 0usize;
        for ((engine, index), info) in new.infos() {
            let kind = match old_by_name.get(&(engine, info.name.as_str())) {
                None => DeltaKind::Added,
                Some(old) => {
                    matched += 1;
                    if old.atoms == info.atoms && old.exhaustive == info.exhaustive {
                        delta.unchanged += 1;
                        continue;
                    }
                    DeltaKind::AtomsChanged
                }
            };
            delta.changed.push(ChangedRule {
                engine,
                index,
                name: info.name.clone(),
                atoms: info.atoms.clone(),
                exhaustive: info.exhaustive,
                kind,
            });
        }
        delta.removed = old_by_name.len().saturating_sub(matched);
        let fresh: BTreeSet<&str> = new.atoms().filter(|a| !old_atoms.contains(a)).collect();
        delta.new_atoms = fresh.into_iter().map(str::to_owned).collect();
        delta
    }

    /// Number of distinct folded atoms across the bundle's exhaustive
    /// rules, both engines: what a deployment's diff and retro-hunt
    /// candidacy read. Only the YARA atoms gate routing, through the
    /// strings' cached hits.
    pub fn atom_count(&self) -> usize {
        self.atoms().collect::<BTreeSet<_>>().len()
    }

    /// Every rule's atom metadata, in delta order.
    fn infos(&self) -> impl Iterator<Item = (RuleId, &RuleAtomInfo)> {
        let yara = self.yara_info.iter().enumerate();
        let semgrep = self.semgrep_info.iter().enumerate();
        let yara = yara.map(|(i, info)| ((RuleEngine::Yara, i), info));
        yara.chain(semgrep.map(|(i, info)| ((RuleEngine::Semgrep, i), info)))
    }

    /// Every rule's folded atoms, with repeats.
    fn atoms(&self) -> impl Iterator<Item = &str> {
        self.infos()
            .flat_map(|(_, info)| info.atoms.iter().map(String::as_str))
    }

    /// Number of rules that bypass the prefilter: the YARA rules without
    /// an exhaustive atom set, and every Semgrep rule.
    pub fn always_on_count(&self) -> usize {
        self.always.len() + self.semgrep_info.len()
    }

    /// Routes one package from its per-file analysis artifacts.
    ///
    /// YARA rules are routed through the gate from every unit's cached
    /// hits (each file's bytes and each decoded layer, so an atom hidden
    /// behind base64 still routes its rule); every Semgrep rule is
    /// routed. No byte is read.
    pub fn route_artifacts_into(
        &self,
        artifacts: &[Arc<FileAnalysis>],
        routing: &mut Routing,
        _scratch: &mut PrefilterScratch,
    ) {
        routing.reset(false, self.yara_info.len(), self.semgrep_info.len());
        for &i in &self.always {
            routing.yara[i] = true;
        }
        for artifact in artifacts {
            for hits in artifact.yara_hits.iter().chain(&artifact.layer_hits) {
                self.gate.mark(hits, &mut routing.yara);
            }
        }
    }

    /// A routing that evaluates everything (prefilter disabled), written
    /// into a caller-owned routing.
    pub fn route_all_into(&self, routing: &mut Routing) {
        routing.reset(true, self.yara_info.len(), self.semgrep_info.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::ArtifactConfig;
    use crate::request::FileEntry;
    use yara_engine::Scanner;

    /// A bundle's index beside its YARA rules, routing the way a hub
    /// worker does: the file is built into an artifact with a scanner
    /// over the rules, and the artifact is routed.
    struct Router {
        yara: Option<CompiledRules>,
        index: PrefilterIndex,
    }

    impl Router {
        fn new(yara: Option<&str>, semgrep: Option<&str>) -> Self {
            let yara = yara.map(|src| yara_engine::compile(src).expect("yara compiles"));
            let semgrep =
                semgrep.map(|src| semgrep_engine::compile(src).expect("semgrep compiles"));
            let index = PrefilterIndex::build(yara.as_ref(), semgrep.as_ref());
            Router { yara, index }
        }

        fn artifact(&self, name: &str, bytes: &[u8], cfg: &ArtifactConfig) -> Arc<FileAnalysis> {
            let scanner = self.yara.as_ref().map(Scanner::new);
            let entry = FileEntry::new(name, bytes.to_vec());
            Arc::new(FileAnalysis::build(&entry, scanner.as_ref(), cfg))
        }

        /// Routes a one-file package, `name` holding `bytes`.
        fn route(&self, name: &str, bytes: &[u8]) -> Routing {
            let mut routing = Routing::empty();
            self.route_into(name, bytes, &mut routing, &mut PrefilterScratch::new());
            routing
        }

        fn route_into(
            &self,
            name: &str,
            bytes: &[u8],
            routing: &mut Routing,
            scratch: &mut PrefilterScratch,
        ) {
            let artifact = self.artifact(name, bytes, &ArtifactConfig::default());
            let artifacts = std::slice::from_ref(&artifact);
            self.index.route_artifacts_into(artifacts, routing, scratch);
        }
    }

    fn yara(src: &str) -> Router {
        Router::new(Some(src), None)
    }

    #[test]
    fn routes_only_rules_whose_atoms_occur() {
        let router = yara(
            r#"
rule a { strings: $x = "os.system" condition: $x }
rule b { strings: $x = "socket.socket" condition: $x }
"#,
        );
        let routing = router.route("setup.py", b"import os\nos.system('id')\n");
        assert_eq!(routing.yara, vec![true, false]);
        let routing = router.route("setup.py", b"nothing suspicious");
        assert_eq!(routing.yara_routed(), 0);
    }

    #[test]
    fn a_case_sensitive_string_routes_only_on_its_own_case() {
        let router = yara(
            r#"
rule exact { strings: $x = "OS.System" condition: $x }
rule folded { strings: $x = "OS.System" nocase condition: $x }
"#,
        );
        // The atom occurs case-insensitively, but the case-sensitive
        // string has no hit, so its rule cannot match and is not routed.
        assert_eq!(router.route("m.py", b"os.system").yara, vec![false, true]);
        assert_eq!(router.route("m.py", b"OS.System").yara, vec![true, true]);
    }

    #[test]
    fn hits_of_strings_without_an_atom_route_nothing() {
        // Exhaustive on `$a`: a regex or wide hit alone cannot satisfy it.
        let router = yara(
            r#"
rule rx { strings: $a = "marker" $r = /b+c/ condition: $a and $r }
rule utf16 { strings: $a = "marker" $w = "cmd" wide condition: $a and $w }
"#,
        );
        assert_eq!(
            router.route("x.bin", b"bbbc c\0m\0d\0").yara,
            vec![false, false]
        );
        assert_eq!(router.route("x.bin", b"marker").yara, vec![true, true]);
    }

    #[test]
    fn non_exhaustive_rules_are_always_routed() {
        let router = yara(
            r#"
rule re { strings: $r = /a+b/ condition: $r }
rule utf16 { strings: $w = "cmd" wide condition: $w }
"#,
        );
        assert_eq!(router.index.always_on_count(), 2);
        assert_eq!(router.route("m.py", b"zzz").yara, vec![true, true]);
    }

    #[test]
    fn never_matching_rule_is_never_routed() {
        let router = yara("rule dead { condition: false }");
        assert_eq!(router.index.always_on_count(), 0);
        assert_eq!(router.route("m.py", b"anything").yara, vec![false]);
    }

    #[test]
    fn atoms_are_deduplicated_across_rules() {
        let router = yara(
            r#"
rule a { strings: $x = "os.system" condition: $x }
rule b { strings: $x = "OS.System" $y = "curl" condition: all of them }
"#,
        );
        assert_eq!(router.index.atom_count(), 2, "counted folded");
        // `curl` alone routes rule b (any-of semantics), which the
        // scanner then rejects — routing is a superset of matching.
        let routing = router.route("m.sh", b"curl http://x");
        assert_eq!(routing.yara, vec![false, true]);
    }

    #[test]
    fn empty_rule_sets() {
        let router = Router::new(None, None);
        let routing = router.route("m.py", b"data");
        assert!(routing.yara.is_empty() && routing.semgrep.is_empty());
    }

    #[test]
    fn empty_file_routes_only_always_on_rules() {
        // An empty upload must not route atom-gated rules, but always-on
        // rules (regex-only, filesize conditions) still run.
        let router = yara(
            r#"
rule atom { strings: $a = "os.system" condition: $a }
rule rx { strings: $r = /ab+c/ condition: $r }
rule size { condition: filesize > 10 }
"#,
        );
        let routing = router.route("m.py", b"");
        assert_eq!(routing.yara, vec![false, true, true]);
        assert_eq!(routing.yara_routed(), router.index.always_on_count());
    }

    #[test]
    fn route_all_covers_every_rule_even_dead_ones() {
        let router = yara("rule dead { condition: false }");
        let mut routing = Routing::empty();
        router.index.route_all_into(&mut routing);
        assert_eq!(routing.yara, vec![true]);
    }

    #[test]
    fn route_into_reuse_matches_fresh_route() {
        let router = Router::new(
            Some(
                r#"
rule a { strings: $x = "os.system" condition: $x }
rule b { strings: $x = "socket.socket" condition: $x }
"#,
            ),
            Some("rules:\n  - id: t\n    languages: [python]\n    message: m\n    pattern: eval($X)\n"),
        );
        let mut routing = Routing::empty();
        let mut scratch = PrefilterScratch::new();
        let cases: [(&str, &[u8]); 4] = [
            ("a.py", b"import os\nos.system('id')\neval(x)\n"),
            ("b.txt", b"socket.socket() eval(x)"),
            ("c.py", b"print(1)"),
            ("d.py", b"os.system socket.socket\neval(a)\n"),
        ];
        for (name, bytes) in cases {
            router.route_into(name, bytes, &mut routing, &mut scratch);
            let fresh = router.route(name, bytes);
            assert_eq!(routing.yara, fresh.yara);
            assert_eq!(routing.semgrep, fresh.semgrep);
        }
    }

    #[test]
    fn a_layer_only_atom_routes_its_rule() {
        let router = Router::new(
            Some(
                r#"
rule surface { strings: $x = "requests.post" condition: $x }
rule hidden { strings: $x = "os.system" condition: $x }
"#,
            ),
            Some("rules:\n  - id: t\n    languages: [python]\n    message: m\n    pattern: eval($X)\n"),
        );
        // The only occurrence of `os.system` is base64-encoded inside a
        // literal; `eval` appears in the python surface text.
        let payload = digest::base64::encode(b"import os;os.system('id')");
        let code = format!("blob = '{payload}'\neval(blob)\n");
        let routing = router.route("mod.py", code.as_bytes());
        assert_eq!(
            routing.yara,
            vec![false, true],
            "layer-only atom must route its rule"
        );
        assert_eq!(routing.semgrep, vec![true]);
        // With layer extraction disabled the hidden atom is invisible.
        let cfg = ArtifactConfig {
            max_decode_depth: 0,
            ..ArtifactConfig::default()
        };
        let bare = router.artifact("mod.py", code.as_bytes(), &cfg);
        let mut routing = Routing::empty();
        let mut scratch = PrefilterScratch::new();
        let artifacts = std::slice::from_ref(&bare);
        router
            .index
            .route_artifacts_into(artifacts, &mut routing, &mut scratch);
        assert_eq!(routing.yara, vec![false, false]);
    }

    fn compiled(src: &str) -> CompiledRules {
        yara_engine::compile(src).expect("yara compiles")
    }

    #[test]
    fn diff_reports_exactly_the_changed_rules() {
        let old_yara = compiled(
            r#"
rule same { strings: $x = "os.system" condition: $x }
rule retuned { strings: $x = "curl" condition: $x }
rule dropped { strings: $x = "wget" condition: $x }
"#,
        );
        let old_semgrep = semgrep_engine::compile(
            "rules:\n  - id: sg-same\n    languages: [python]\n    message: m\n    pattern: eval($X)\n",
        )
        .expect("semgrep compiles");
        let old = PrefilterIndex::build(Some(&old_yara), Some(&old_semgrep));
        let new_yara = compiled(
            r#"
rule same { strings: $x = "os.system" condition: $x }
rule retuned { strings: $x = "curl -fsSL" condition: $x }
rule added { strings: $x = "nc -e" condition: $x }
"#,
        );
        let new = PrefilterIndex::build(Some(&new_yara), Some(&old_semgrep));
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
        let relaxed = compiled("rule same { strings: $x = /os\\.system/ condition: $x }");
        let relaxed_index = PrefilterIndex::build(Some(&relaxed), None);
        let flip = old.diff(&relaxed_index);
        assert_eq!(flip.changed.len(), 1);
        assert_eq!(flip.changed[0].kind, DeltaKind::AtomsChanged);
        assert!(!flip.changed[0].exhaustive);
        assert!(flip.changed[0].atoms.is_empty());
    }

    #[test]
    fn diff_against_an_identical_bundle_is_empty() {
        let rules = compiled("rule a { strings: $x = \"os.system\" condition: $x }");
        let old = PrefilterIndex::build(Some(&rules), None);
        let new = PrefilterIndex::build_seeded(Some(&rules), None, Some(&old));
        let delta = old.diff(&new);
        assert!(delta.changed.is_empty());
        assert!(delta.new_atoms.is_empty());
        assert_eq!(delta.unchanged, 1);
        assert_eq!(delta.removed, 0);
    }
}
