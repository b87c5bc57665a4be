//! Property-based tests for the YAML parser and the pattern matcher,
//! plus the differential suite proving the compiled matchers equivalent
//! to the seed's reparse-per-call oracle on generated rule/corpus pairs.

use std::sync::OnceLock;

use corpus::{mutate_dataset, CorpusConfig, Dataset};
use obfuscate::EvasionProfile;
use oracles::semgrep as reference;
use proptest::prelude::*;
use semgrep_engine::yaml::{self, Yaml};
use semgrep_engine::{compile, Finding, MatchScratch, MatchSet};

/// A small shared name pool so generated rules and sources collide often
/// (high hit rate exercises the anchored dispatch, not just the skips).
const NAMES: &[&str] = &[
    "os", "get", "send", "foo", "bar", "run", "sh", "conn", "load", "x",
];

fn name() -> impl Strategy<Value = String> {
    prop::sample::select(NAMES).prop_map(str::to_owned)
}

/// One generated pattern string covering every anchor class: dotted
/// calls, bare calls, assignments, imports, from-imports, metavariable
/// receivers and fully-opaque (always-on) shapes.
fn pattern() -> impl Strategy<Value = String> {
    prop_oneof![
        (name(), name()).prop_map(|(m, f)| format!("{m}.{f}($A)")),
        (name(), name()).prop_map(|(m, f)| format!("{m}.{f}(...)")),
        name().prop_map(|f| format!("{f}(...)")),
        (name(), name()).prop_map(|(f, a)| format!("{f}({a}, ...)")),
        (name(), name()).prop_map(|(m, f)| format!("$V = {m}.{f}(...)")),
        name().prop_map(|m| format!("import {m}")),
        (name(), name()).prop_map(|(m, f)| format!("from {m} import {f}")),
        name().prop_map(|f| format!("$X.{f}($Y)")),
        name().prop_map(|f| format!("{f}('trusted')")),
        Just("$A($B)".to_owned()),
    ]
}

/// One generated rule body: plain pattern, either-of-two, or a
/// conjunction with a `pattern-not`.
#[derive(Debug, Clone)]
enum RuleSpec {
    One(String),
    Either(String, String),
    NotPair(String, String),
}

fn rule_spec() -> impl Strategy<Value = RuleSpec> {
    prop_oneof![
        pattern().prop_map(RuleSpec::One),
        (pattern(), pattern()).prop_map(|(a, b)| RuleSpec::Either(a, b)),
        (pattern(), pattern()).prop_map(|(a, b)| RuleSpec::NotPair(a, b)),
    ]
}

fn ruleset_yaml(specs: &[RuleSpec]) -> String {
    let mut out = String::from("rules:\n");
    for (i, spec) in specs.iter().enumerate() {
        out.push_str(&format!(
            "  - id: r{i}\n    languages: [python]\n    message: m\n"
        ));
        match spec {
            RuleSpec::One(p) => out.push_str(&format!("    pattern: {p}\n")),
            RuleSpec::Either(a, b) => out.push_str(&format!(
                "    pattern-either:\n      - pattern: {a}\n      - pattern: {b}\n"
            )),
            RuleSpec::NotPair(a, b) => out.push_str(&format!(
                "    patterns:\n      - pattern: {a}\n      - pattern-not: {b}\n"
            )),
        }
    }
    out
}

/// One generated source statement from the same name pool.
fn statement() -> impl Strategy<Value = String> {
    prop_oneof![
        (name(), name(), name()).prop_map(|(m, f, a)| format!("{m}.{f}({a})")),
        (name(), name()).prop_map(|(f, a)| format!("{f}({a})")),
        (name(), name()).prop_map(|(f, a)| format!("{f}({a}, {a})")),
        (name(), name(), name()).prop_map(|(v, m, f)| format!("{v} = {m}.{f}(payload)")),
        name().prop_map(|m| format!("import {m}")),
        (name(), name()).prop_map(|(m, f)| format!("import {m}, {f}")),
        (name(), name()).prop_map(|(m, f)| format!("from {m} import {f}")),
        (name(), name()).prop_map(|(f, a)| format!("def helper_{f}():\n    {f}({a})")),
        name().prop_map(|f| format!("{f}('trusted')")),
        Just("unrelated = 1".to_owned()),
    ]
}

fn pairs(findings: &[Finding]) -> Vec<(String, usize)> {
    findings
        .iter()
        .map(|f| (f.rule_id.clone(), f.line))
        .collect()
}

/// One rule per anchor class and operator, for the hand-written cases.
const POOL: &str = r#"
rules:
  - id: sys
    languages: [python]
    message: m
    pattern: os.system($X)
  - id: dyn
    languages: [python]
    message: m
    pattern-either:
      - pattern: eval($X)
      - pattern: exec($X)
  - id: conj
    languages: [python]
    message: m
    patterns:
      - pattern: open($F, 'w')
      - pattern-not: open('log.txt', 'w')
  - id: opaque
    languages: [python]
    message: m
    pattern: $A(marker_zz)
  - id: imp
    languages: [python]
    message: m
    pattern: import socket
  - id: fromimp
    languages: [python]
    message: m
    pattern: from subprocess import Popen
"#;

#[test]
fn set_matches_equal_per_rule_matches() {
    let rules = compile(POOL).expect("compile");
    let set = MatchSet::new(&rules);
    let mut scratch = MatchScratch::new();
    for src in [
        "import os\nos.system('id')\n",
        "eval(a)\nexec(b)\n",
        "open(p, 'w')\n",
        "open('log.txt', 'w')\n",
        "f(marker_zz)\n",
        "import os, socket\nfrom subprocess import Popen, PIPE\n",
        "print('clean')\n",
        "def f():\n    os.system(x)\n    return eval(y)\n",
    ] {
        let module = pysrc::parse_module(src);
        let (set_findings, _) = set.match_module_set(&module, |_| true, &mut scratch);
        let mut per_rule = Vec::new();
        for rule in &rules.rules {
            per_rule.extend(crate::reference::match_module(rule, &module));
        }
        assert_eq!(
            pairs(&set_findings),
            pairs(&per_rule),
            "divergence on {src:?}"
        );
    }
}

#[test]
fn include_filters_rules_exactly() {
    let rules = compile(POOL).expect("compile");
    let set = MatchSet::new(&rules);
    let mut scratch = MatchScratch::new();
    let module = pysrc::parse_module("os.system('id')\neval(a)\nimport socket\n");
    for mask in 0u32..(1 << 6) {
        let include = |ri: usize| mask & (1 << ri) != 0;
        let (got, _) = set.match_module_set(&module, include, &mut scratch);
        let mut want = Vec::new();
        for (ri, rule) in rules.rules.iter().enumerate() {
            if include(ri) {
                want.extend(crate::reference::match_module(rule, &module));
            }
        }
        assert_eq!(pairs(&got), pairs(&want), "mask {mask:b}");
    }
}

#[test]
fn scratch_reuse_is_stateless_across_modules() {
    let rules = compile(POOL).expect("compile");
    let set = MatchSet::new(&rules);
    let mut reused = MatchScratch::new();
    let hot = pysrc::parse_module("os.system('id')\neval(a)\n");
    let cold = pysrc::parse_module("print('clean')\n");
    let (hot1, _) = set.match_module_set(&hot, |_| true, &mut reused);
    // A clean module scanned with the dirty scratch must find nothing.
    let (cold1, _) = set.match_module_set(&cold, |_| true, &mut reused);
    assert!(cold1.is_empty(), "stale leaf lines leaked: {cold1:?}");
    let (hot2, _) = set.match_module_set(&hot, |_| true, &mut reused);
    assert_eq!(pairs(&hot1), pairs(&hot2));
}

#[test]
fn anchor_dispatch_skips_unrelated_leaves() {
    let rules = compile(POOL).expect("compile");
    let set = MatchSet::new(&rules);
    assert_eq!(set.leaf_count(), 8);
    // Only `opaque` ($A(...)) lacks an anchor.
    assert_eq!(set.always_on_count(), 1);
    let mut scratch = MatchScratch::new();
    let module = pysrc::parse_module("print('hello')\nx = 1\n");
    let (findings, metrics) = set.match_module_set(&module, |_| true, &mut scratch);
    assert!(findings.is_empty());
    // Two statements, and only the single always-on leaf was tested
    // on each: anchored leaves never ran.
    assert_eq!(metrics.stmts_visited, 2);
    assert_eq!(metrics.leaf_tests, 2);
}

/// Backtracking over metavariable bindings: a trial that fails must
/// leave no binding behind, in the inline part of the undo log and past
/// it (the last two patterns bind nine and ten metavariables). Each case
/// has its known verdict, and `MatchSet` agrees with the oracle on it.
#[test]
fn bindings_backtrack_through_their_undo_log() {
    let nine = "f($A, $B, $C, $D, $E, $F, $G, $H, ..., $I, $I)";
    let ten = "f($A, $B, $C, $D, $E, $F, $G, $H, $I, ..., $J, $J, $A)";
    for (pattern, source, matches) in [
        ("f($X, ..., $X)", "f(a, b, a)", true),
        ("f($X, ..., $X)", "f(a, b, c)", false),
        ("f(..., $X, $X)", "f(a, b, b)", true),
        ("f(..., $X, $X)", "f(b, b, a)", false),
        // The keyword binds `$X` first; the positional then fails, and the
        // next trial must bind `$X` afresh.
        ("f(..., g($X, k=$X))", "f(g(b, k=a), g(c, k=c))", true),
        ("f(..., g($X, k=$X))", "f(g(b, k=a), g(c, k=d))", false),
        (nine, "f(1, 2, 3, 4, 5, 6, 7, 8, x, y, y)", true),
        (nine, "f(1, 2, 3, 4, 5, 6, 7, 8, x, y, z)", false),
        (ten, "f(1, 2, 3, 4, 5, 6, 7, 8, 9, x, y, y, 1)", true),
        (ten, "f(1, 2, 3, 4, 5, 6, 7, 8, 9, x, y, y, 2)", false),
    ] {
        let rules = compile(&format!(
            "rules:\n  - id: t\n    languages: [python]\n    message: m\n    pattern: {pattern}\n"
        ))
        .expect("compile");
        let module = pysrc::parse_module(&format!("{source}\n"));
        let got = pairs(&semgrep_engine::scan_module(&rules, &module));
        let want = pairs(&reference::match_module(&rules.rules[0], &module));
        assert_eq!(got, want, "{pattern} on {source}");
        assert_eq!(!got.is_empty(), matches, "{pattern} on {source}");
    }
}

/// Every Python module of the tiny corpus and its aggressive mutants
/// (seed 42).
fn corpus_modules() -> &'static [pysrc::Module] {
    static MODULES: OnceLock<Vec<pysrc::Module>> = OnceLock::new();
    MODULES.get_or_init(|| {
        let base = Dataset::generate(&CorpusConfig::tiny());
        let mutants = mutate_dataset(&base, &EvasionProfile::aggressive(), 42);
        let mut out = Vec::new();
        for dataset in [&base, &mutants] {
            let packages = dataset
                .malware
                .iter()
                .map(|m| &m.package)
                .chain(dataset.legit.iter().map(|l| &l.package));
            for file in packages.flat_map(|p| p.files()) {
                if file.path.ends_with(".py") {
                    out.push(pysrc::parse_module(&file.contents));
                }
            }
        }
        out
    })
}

/// Shapes the corpus's packages contain, beside [`POOL`]'s.
const CORPUS_RULES: &str = r#"
  - id: sock
    languages: [python]
    message: m
    pattern: $V = socket.socket(...)
  - id: b64
    languages: [python]
    message: m
    pattern-either:
      - pattern: base64.b64decode($X)
      - pattern: import base64
  - id: net
    languages: [python]
    message: m
    patterns:
      - pattern: requests.get(...)
      - pattern-not: requests.get('https://pypi.org')
"#;

proptest! {
    #[test]
    fn match_rules_reports_the_rules_match_module_set_finds(mask in any::<u32>()) {
        let rules = compile(&format!("{POOL}{CORPUS_RULES}")).expect("compile");
        let set = MatchSet::new(&rules);
        let mut scratch = MatchScratch::new();
        let include = |ri: usize| mask & (1 << ri) != 0;
        for module in corpus_modules() {
            let (findings, want_metrics) = set.match_module_set(module, include, &mut scratch);
            let mut want: Vec<&str> = findings.iter().map(|f| f.rule_id.as_str()).collect();
            want.dedup();
            let mut got = Vec::new();
            let metrics = set.match_rules(module, include, &mut scratch, |ri, _| {
                got.push(rules.rules[ri].id.as_str())
            });
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(metrics, want_metrics);
        }
    }
}

/// Vacuity guard of the property above: each rule of [`CORPUS_RULES`]
/// matches some module of the corpus.
#[test]
fn the_corpus_rules_match_the_corpus() {
    let rules = compile(&format!("rules:\n{CORPUS_RULES}")).expect("compile");
    let set = MatchSet::new(&rules);
    let mut scratch = MatchScratch::new();
    let mut matched = vec![false; rules.rules.len()];
    for module in corpus_modules() {
        set.match_rules(module, |_| true, &mut scratch, |ri, _| matched[ri] = true);
    }
    assert_eq!(matched, [true; 3]);
}

proptest! {
    #[test]
    fn yaml_parser_never_panics(src in "[ -~\\n]{0,300}") {
        let _ = yaml::parse(&src);
    }

    #[test]
    fn flat_mapping_roundtrips(
        entries in prop::collection::btree_map(
            "[a-z][a-z0-9]{0,8}",
            // Values must contain at least one non-space character, or the
            // entry legitimately parses as an empty (Null) value.
            "[a-zA-Z0-9._-][a-zA-Z0-9 ._-]{0,19}",
            1..6,
        ),
    ) {
        let mut src = String::new();
        for (k, v) in &entries {
            src.push_str(&format!("{k}: {v}\n"));
        }
        let doc = yaml::parse(&src).expect("well-formed mapping");
        for (k, v) in &entries {
            prop_assert_eq!(doc.get(k).and_then(Yaml::as_str), Some(v.trim()));
        }
    }

    #[test]
    fn sequence_roundtrips(items in prop::collection::vec("[a-zA-Z0-9._-]{1,16}", 1..8)) {
        let mut src = String::from("items:\n");
        for item in &items {
            src.push_str(&format!("  - {item}\n"));
        }
        let doc = yaml::parse(&src).expect("well-formed sequence");
        let seq = doc.get("items").and_then(Yaml::as_seq).expect("seq");
        prop_assert_eq!(seq.len(), items.len());
        for (y, item) in seq.iter().zip(&items) {
            prop_assert_eq!(y.as_str(), Some(item.as_str()));
        }
    }

    #[test]
    fn exact_call_pattern_is_an_oracle(
        func in "[a-z]{2,8}",
        arg in "[a-z]{1,8}",
        other in "[a-z]{2,8}",
    ) {
        prop_assume!(func != other);
        prop_assume!(!pysrc::is_keyword(&func) && !pysrc::is_keyword(&other));
        let rule_src = format!(
            "rules:\n  - id: t\n    languages: [python]\n    message: m\n    pattern: {func}($X)\n"
        );
        let rules = semgrep_engine::compile(&rule_src).expect("compile");
        let hit = format!("{func}({arg})\n");
        let miss = format!("{other}({arg})\n");
        prop_assert_eq!(semgrep_engine::scan_source(&rules, &hit).len(), 1);
        prop_assert!(semgrep_engine::scan_source(&rules, &miss).is_empty());
    }

    #[test]
    fn metavariable_binds_any_single_argument(arg in "[a-z0-9_]{1,12}") {
        let rules = semgrep_engine::compile(
            "rules:\n  - id: t\n    languages: [python]\n    message: m\n    pattern: eval($X)\n",
        )
        .expect("compile");
        let src = format!("eval({arg})\n");
        prop_assert_eq!(semgrep_engine::scan_source(&rules, &src).len(), 1);
        // Two arguments must not match a single-metavariable pattern.
        let two = format!("eval({arg}, {arg})\n");
        prop_assert!(semgrep_engine::scan_source(&rules, &two).is_empty());
    }

    #[test]
    fn ellipsis_matches_any_arity(n_args in 0usize..5) {
        let rules = semgrep_engine::compile(
            "rules:\n  - id: t\n    languages: [python]\n    message: m\n    pattern: run(...)\n",
        )
        .expect("compile");
        let args: Vec<String> = (0..n_args).map(|i| format!("a{i}")).collect();
        let src = format!("run({})\n", args.join(", "));
        prop_assert_eq!(semgrep_engine::scan_source(&rules, &src).len(), 1);
    }

    #[test]
    fn match_module_set_equals_reference_oracle(
        specs in prop::collection::vec(rule_spec(), 1..7),
        stmts in prop::collection::vec(statement(), 0..16),
        mask in any::<u32>(),
    ) {
        let rules = semgrep_engine::compile(&ruleset_yaml(&specs)).expect("generated rules compile");
        let mut src = stmts.join("\n");
        src.push('\n');
        let module = pysrc::parse_module(&src);

        // The oracle: the seed's reparse-per-call matcher, rule by rule.
        let mut want = Vec::new();
        for rule in &rules.rules {
            want.extend(reference::match_module(rule, &module));
        }

        // Single-pass multi-rule matcher ≡ oracle, and it never parses
        // pattern text.
        let set = MatchSet::new(&rules);
        let mut scratch = MatchScratch::new();
        let (got, _) = set.match_module_set(&module, |_| true, &mut scratch);
        prop_assert_eq!(pairs(&got), pairs(&want), "match_module_set diverged on {:?}", src);

        // Routed subset ≡ filtered oracle (the hub's prefilter path),
        // reusing the scratch from the previous pass.
        let include = |ri: usize| mask & (1 << (ri % 32)) != 0;
        let (subset, _) = set.match_module_set(&module, include, &mut scratch);
        let masked: Vec<Finding> = rules
            .rules
            .iter()
            .enumerate()
            .filter(|(ri, _)| include(*ri))
            .flat_map(|(_, r)| reference::match_module(r, &module))
            .collect();
        prop_assert_eq!(pairs(&subset), pairs(&masked), "routed subset diverged on {:?}", src);
    }

    #[test]
    fn scan_module_equals_oracle_on_arbitrary_text(
        specs in prop::collection::vec(rule_spec(), 1..5),
        body in "[ -~\\n]{0,200}",
    ) {
        // Arbitrary printable garbage: the compiled matcher must agree
        // with the oracle even on sources that parse into Other/Block
        // fallback shapes.
        let rules = semgrep_engine::compile(&ruleset_yaml(&specs)).expect("compile");
        let module = pysrc::parse_module(&body);
        let mut want = Vec::new();
        for rule in &rules.rules {
            want.extend(reference::match_module(rule, &module));
        }
        let got = semgrep_engine::scan_module(&rules, &module);
        prop_assert_eq!(pairs(&got), pairs(&want), "diverged on {:?}", body);
    }

    #[test]
    fn finding_lines_point_at_real_statements(pad in 0usize..10) {
        let rules = semgrep_engine::compile(
            "rules:\n  - id: t\n    languages: [python]\n    message: m\n    pattern: boom($X)\n",
        )
        .expect("compile");
        let mut src = String::new();
        for i in 0..pad {
            src.push_str(&format!("x{i} = {i}\n"));
        }
        src.push_str("boom(payload)\n");
        let findings = semgrep_engine::scan_source(&rules, &src);
        prop_assert_eq!(findings.len(), 1);
        prop_assert_eq!(findings[0].line, pad + 1);
    }
}
