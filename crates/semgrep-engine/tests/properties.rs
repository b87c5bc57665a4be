//! Property-based tests for the YAML parser and the pattern matcher,
//! plus the differential suite proving the compiled matchers equivalent
//! to the seed's reparse-per-call oracle on generated rule/corpus pairs.

use proptest::prelude::*;
use semgrep_engine::yaml::{self, Yaml};
use semgrep_engine::{Finding, MatchScratch, MatchSet};

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
            want.extend(semgrep_engine::reference::match_module(rule, &module));
        }

        // Single-pass multi-rule matcher ≡ oracle, and it never parses
        // pattern text.
        let set = MatchSet::new(&rules);
        let mut scratch = MatchScratch::new();
        let (got, metrics) = set.match_module_set(&module, |_| true, &mut scratch);
        prop_assert_eq!(pairs(&got), pairs(&want), "match_module_set diverged on {:?}", src);
        prop_assert_eq!(metrics.pattern_reparses, 0);

        // Routed subset ≡ filtered oracle (the hub's prefilter path),
        // reusing the scratch from the previous pass.
        let include = |ri: usize| mask & (1 << (ri % 32)) != 0;
        let (subset, _) = set.match_module_set(&module, include, &mut scratch);
        let masked: Vec<Finding> = rules
            .rules
            .iter()
            .enumerate()
            .filter(|(ri, _)| include(*ri))
            .flat_map(|(_, r)| semgrep_engine::reference::match_module(r, &module))
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
            want.extend(semgrep_engine::reference::match_module(rule, &module));
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
