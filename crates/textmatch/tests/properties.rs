//! Property-based tests for the regex and multi-literal engines: the
//! Pike VM against the seed's reference engine, the Teddy prefilter
//! against Aho-Corasick, and the lazy DFA against the Pike VM.

use oracles::ReferenceRegex;
use proptest::prelude::*;
use textmatch::{AhoCorasick, DfaOutcome, MatchKind, MultiLiteral, Regex, Teddy};

/// A corpus of patterns exercising every engine feature: literals,
/// classes, shorthands, quantifiers (greedy/bounded/nullable),
/// alternation, anchors, word boundaries, nesting and prefixes that
/// trigger each acceleration path (anchored, literal prefix, first-byte
/// set, none).
const DIFFERENTIAL_PATTERNS: &[&str] = &[
    "a",
    "ab",
    "abc",
    "a+",
    "a*",
    "a?",
    "a+b",
    "a*b*",
    "(ab)+",
    "(ab){2,3}",
    "a{3}",
    "a{1,2}b{1,2}",
    "a|b",
    "ab|b",
    "ab|abc",
    "cat|dog|bird",
    "a(b|c)d",
    "(a(b|c)d)+",
    "^a",
    "^ab+",
    "a$",
    "^a+$",
    "^",
    "$",
    "^$",
    r"\ba",
    r"\bab\b",
    r"\Ba",
    "[ab]",
    "[^a]",
    "[a-c]{2,4}",
    r"\d+",
    r"\w+",
    r"\s",
    ".",
    ".b",
    "a.c",
    ".*b",
    r"a\.b",
    "a.{0,5}c|bc",
    "ab|a.*c",
    // Assertions behind optional heads: a failed assertion stamp from one
    // offset must not suppress the same assertion at a later seed offset.
    r"a?\bb",
    r"a?\Bb",
    r"c*\bab",
];

/// Pattern fragments composed pairwise into two-piece patterns; every
/// concatenation is valid syntax, so random composition explores shapes
/// the fixed list misses.
const PIECES: &[&str] = &[
    "a",
    "b+",
    "(ab)*",
    "a|b",
    "^",
    "$",
    r"\b",
    "[ab]{1,3}",
    ".",
    "a?",
    "ba",
];

/// Asserts the single-pass Pike VM and the seed's restart-per-offset
/// engine agree on every public entry point for one (pattern, haystack)
/// pair.
fn engines_agree(pattern: &str, hay: &[u8]) -> Result<(), TestCaseError> {
    let pike = Regex::new(pattern).expect("pattern must compile");
    let reference = ReferenceRegex::from_regex(&pike);
    prop_assert_eq!(
        pike.is_match(hay),
        reference.is_match(hay),
        "is_match diverged on {:?} / {:?}",
        pattern,
        hay
    );
    prop_assert_eq!(
        pike.find(hay),
        reference.find(hay),
        "find diverged on {:?} / {:?}",
        pattern,
        hay
    );
    prop_assert_eq!(
        pike.find_all(hay),
        reference.find_all(hay),
        "find_all diverged on {:?} / {:?}",
        pattern,
        hay
    );
    for from in [1usize, 2, hay.len() / 2, hay.len()] {
        if from <= hay.len() {
            prop_assert_eq!(
                pike.find_at(hay, from),
                reference.find_at(hay, from),
                "find_at({}) diverged on {:?} / {:?}",
                from,
                pattern,
                hay
            );
        }
    }
    Ok(())
}

/// Escapes every regex metacharacter so a literal string becomes a pattern
/// matching exactly itself.
fn escape_literal(s: &str) -> String {
    let mut out = String::with_capacity(s.len() * 2);
    for c in s.chars() {
        if "\\.+*?()|[]{}^$/".contains(c) {
            out.push('\\');
        }
        out.push(c);
    }
    out
}

/// Naive substring search used as an oracle for Aho-Corasick.
fn naive_find_all(haystack: &[u8], needle: &[u8]) -> Vec<usize> {
    if needle.is_empty() || needle.len() > haystack.len() {
        return Vec::new();
    }
    (0..=haystack.len() - needle.len())
        .filter(|&i| &haystack[i..i + needle.len()] == needle)
        .collect()
}

/// Asserts the Teddy prefilter and Aho-Corasick agree on every public
/// entry point for one (pattern set, haystack) pair.
fn teddy_agrees_with_ac(
    needles: &[String],
    kind: MatchKind,
    hay: &[u8],
) -> Result<(), TestCaseError> {
    let teddy = Teddy::new(needles, kind);
    let ac = AhoCorasick::new(needles, kind);
    prop_assert_eq!(
        teddy.find_all(hay),
        ac.find_all(hay),
        "find_all diverged on {:?} / {:?}",
        needles,
        hay
    );
    prop_assert_eq!(teddy.is_match(hay), ac.is_match(hay));
    prop_assert_eq!(teddy.find_per_pattern(hay), ac.find_per_pattern(hay));
    // for_each_match streams in a different (but documented) order:
    // Teddy ascends by start, AC by end. The match *sets* are equal.
    #[allow(clippy::type_complexity)]
    let collect = |f: &dyn Fn(&mut dyn FnMut(textmatch::AcMatch) -> bool)| {
        let mut v: Vec<(usize, usize, usize)> = Vec::new();
        f(&mut |m| {
            v.push((m.pattern, m.start, m.end));
            true
        });
        v.sort_unstable();
        v
    };
    let teddy_set = collect(&|visit| teddy.for_each_match(hay, visit));
    let ac_set = collect(&|visit| ac.for_each_match(hay, visit));
    prop_assert_eq!(
        teddy_set,
        ac_set,
        "for_each_match sets diverged on {:?}",
        needles
    );
    Ok(())
}

proptest! {
    #[test]
    fn escaped_literal_matches_itself(s in "[ -~]{1,40}") {
        let re = Regex::new(&escape_literal(&s)).expect("escaped literal must compile");
        prop_assert!(re.is_match(s.as_bytes()));
    }

    #[test]
    fn escaped_literal_found_inside_padding(
        s in "[a-z]{1,20}",
        pre in "[A-Z0-9]{0,20}",
        post in "[A-Z0-9]{0,20}",
    ) {
        let re = Regex::new(&escape_literal(&s)).expect("compile");
        let hay = format!("{pre}{s}{post}");
        let m = re.find(hay.as_bytes()).expect("must match");
        prop_assert_eq!(m.start, pre.len());
        prop_assert_eq!(m.end, pre.len() + s.len());
    }

    #[test]
    fn is_match_consistent_with_find(pattern in "[a-c]{1,4}", hay in "[a-d]{0,30}") {
        let re = Regex::new(&pattern).expect("compile");
        prop_assert_eq!(re.is_match(hay.as_bytes()), re.find(hay.as_bytes()).is_some());
    }

    #[test]
    fn find_all_matches_are_non_overlapping_and_in_order(
        hay in "[ab]{0,50}",
    ) {
        let re = Regex::new("a+b").expect("compile");
        let all = re.find_all(hay.as_bytes());
        for w in all.windows(2) {
            prop_assert!(w[0].end <= w[1].start);
        }
        for m in &all {
            prop_assert!(hay.as_bytes()[m.start] == b'a');
            prop_assert!(hay.as_bytes()[m.end - 1] == b'b');
        }
    }

    #[test]
    fn char_class_agrees_with_membership(hay in "[ -~]{0,60}") {
        let re = Regex::new("[A-Za-z0-9+/]").expect("compile");
        let expected = hay.bytes().any(|b| b.is_ascii_alphanumeric() || b == b'+' || b == b'/');
        prop_assert_eq!(re.is_match(hay.as_bytes()), expected);
    }

    #[test]
    fn digit_shorthand_agrees(hay in "[ -~]{0,60}") {
        let re = Regex::new(r"\d").expect("compile");
        prop_assert_eq!(re.is_match(hay.as_bytes()), hay.bytes().any(|b| b.is_ascii_digit()));
    }

    #[test]
    fn nocase_matches_any_casing(word in "[a-z]{1,12}", upper in any::<bool>()) {
        let re = Regex::new_nocase(&word).expect("compile");
        let hay = if upper { word.to_uppercase() } else { word.clone() };
        prop_assert!(re.is_match(hay.as_bytes()));
    }

    #[test]
    fn ac_agrees_with_naive_search(
        needles in prop::collection::vec("[a-c]{1,5}", 1..5),
        hay in "[a-c]{0,60}",
    ) {
        let ac = AhoCorasick::new(&needles, MatchKind::CaseSensitive);
        let per = ac.find_per_pattern(hay.as_bytes());
        for (i, needle) in needles.iter().enumerate() {
            let expected = naive_find_all(hay.as_bytes(), needle.as_bytes());
            prop_assert_eq!(&per[i], &expected, "pattern {}", needle);
        }
    }

    #[test]
    fn ac_is_match_agrees_with_find_all(
        needles in prop::collection::vec("[a-b]{1,4}", 1..4),
        hay in "[a-b]{0,40}",
    ) {
        let ac = AhoCorasick::new(&needles, MatchKind::CaseSensitive);
        prop_assert_eq!(ac.is_match(hay.as_bytes()), !ac.find_all(hay.as_bytes()).is_empty());
    }

    #[test]
    fn parser_never_panics(pattern in "[ -~]{0,30}") {
        // Compiling arbitrary printable garbage must return Ok or Err,
        // never panic.
        let _ = Regex::new(&pattern);
    }

    #[test]
    fn bounded_repeat_counts(n in 1usize..6) {
        let re = Regex::new("a{3}").expect("compile");
        let hay = "a".repeat(n);
        prop_assert_eq!(re.is_match(hay.as_bytes()), n >= 3);
    }

    #[test]
    fn pike_vm_agrees_with_reference_engine(
        // Wide draw + modulo so newly appended patterns are sampled
        // without having to keep this range in sync with the list.
        pi in 0usize..10_000,
        hay in "[abcd \n.]{0,60}",
    ) {
        engines_agree(DIFFERENTIAL_PATTERNS[pi % DIFFERENTIAL_PATTERNS.len()], hay.as_bytes())?;
    }

    #[test]
    fn pike_vm_agrees_on_composed_patterns(
        a in 0usize..10_000,
        b in 0usize..10_000,
        hay in "[ab_ ]{0,40}",
    ) {
        let pattern = format!(
            "{}{}",
            PIECES[a % PIECES.len()],
            PIECES[b % PIECES.len()]
        );
        engines_agree(&pattern, hay.as_bytes())?;
    }

    #[test]
    fn pike_vm_agrees_on_nocase(pat in "[a-c]{1,4}", hay in "[a-cA-C]{0,30}") {
        let pike = Regex::new_nocase(&pat).expect("compile");
        let reference = ReferenceRegex::from_regex(&pike);
        prop_assert_eq!(pike.find_all(hay.as_bytes()), reference.find_all(hay.as_bytes()));
    }

    #[test]
    fn find_all_empty_matches_advance_one_byte(hay in "[ab]{0,30}") {
        // The documented contract: an empty match advances the scan by
        // one byte, so positions are strictly increasing and bounded.
        let re = Regex::new("a*").expect("compile");
        let all = re.find_all(hay.as_bytes());
        for w in all.windows(2) {
            prop_assert!(w[0].end <= w[1].start || (w[0].is_empty() && w[0].start < w[1].start));
            prop_assert!(w[0].start < w[1].start);
        }
        let reference = ReferenceRegex::new("a*").expect("compile");
        prop_assert_eq!(all, reference.find_all(hay.as_bytes()));
    }

    #[test]
    fn teddy_agrees_with_ac_on_random_sets(
        // Length 1..=6 over a 4-letter alphabet: overlapping and exact
        // duplicate patterns are drawn constantly, and 1-byte atoms
        // exercise the degenerate fingerprint path.
        needles in prop::collection::vec("[a-d]{1,6}", 1..10),
        hay in "[a-d]{0,150}",
        nocase in any::<bool>(),
    ) {
        let kind = if nocase { MatchKind::CaseInsensitive } else { MatchKind::CaseSensitive };
        teddy_agrees_with_ac(&needles, kind, hay.as_bytes())?;
        // The empty haystack is a fixed point worth hitting every case.
        teddy_agrees_with_ac(&needles, kind, b"")?;
    }

    #[test]
    fn teddy_agrees_with_ac_on_mixed_case_haystacks(
        needles in prop::collection::vec("[a-c]{2,5}", 1..8),
        hay in "[a-cA-C]{0,120}",
    ) {
        // Case-insensitive needles over a mixed-case haystack: the
        // folded fingerprint tables must agree with AC's folded walk.
        teddy_agrees_with_ac(&needles, MatchKind::CaseInsensitive, hay.as_bytes())?;
        // And case-sensitive needles must NOT fold.
        teddy_agrees_with_ac(&needles, MatchKind::CaseSensitive, hay.as_bytes())?;
    }

    #[test]
    fn multi_literal_tier_selection_is_transparent(
        // Mixing 1-byte atoms in forces the AC fallback tier on some
        // draws and Teddy on others; results must be identical either
        // way.
        needles in prop::collection::vec("[ab]{1,4}", 1..8),
        hay in "[ab]{0,100}",
    ) {
        let ml = MultiLiteral::new(&needles, MatchKind::CaseSensitive);
        let ac = AhoCorasick::new(&needles, MatchKind::CaseSensitive);
        prop_assert_eq!(ml.find_all(hay.as_bytes()), ac.find_all(hay.as_bytes()));
        prop_assert_eq!(ml.is_match(hay.as_bytes()), ac.is_match(hay.as_bytes()));
        prop_assert_eq!(
            ml.find_per_pattern(hay.as_bytes()),
            ac.find_per_pattern(hay.as_bytes())
        );
        let eligible = needles.iter().all(|n| n.len() >= 2);
        prop_assert_eq!(ml.uses_teddy(), eligible, "tier selection drifted");
    }

    #[test]
    fn lazy_dfa_agrees_with_pike_on_edge_patterns(
        pi in 0usize..10_000,
        hay in "[abcd \n.]{0,60}",
    ) {
        let pattern = DIFFERENTIAL_PATTERNS[pi % DIFFERENTIAL_PATTERNS.len()];
        let re = Regex::new(pattern).expect("pattern must compile");
        let hay = hay.as_bytes();
        // The public tiered entry points must equal the pure Pike VM.
        prop_assert_eq!(re.is_match(hay), re.is_match_pike(hay), "is_match on {:?}", pattern);
        prop_assert_eq!(re.find_all(hay), re.find_all_pike(hay), "find_all on {:?}", pattern);
        // The raw DFA (bypassing the haystack-size gate) must agree on
        // existence whenever the pattern is DFA-eligible.
        if let Some(outcome) = re.dfa_earliest_end(hay, 0) {
            match outcome {
                DfaOutcome::NoMatch => prop_assert!(
                    !re.is_match_pike(hay),
                    "DFA said no-match but Pike matched {:?} on {:?}",
                    pattern,
                    hay
                ),
                DfaOutcome::MatchEnd(end) => {
                    prop_assert!(re.is_match_pike(hay), "DFA over-matched {:?}", pattern);
                    prop_assert!(end <= hay.len());
                }
                DfaOutcome::GaveUp => {}
            }
        }
    }

    #[test]
    fn lazy_dfa_agrees_on_composed_patterns(
        a in 0usize..10_000,
        b in 0usize..10_000,
        hay in "[ab_ ]{0,40}",
    ) {
        let pattern = format!("{}{}", PIECES[a % PIECES.len()], PIECES[b % PIECES.len()]);
        let re = Regex::new(&pattern).expect("compile");
        let hay = hay.as_bytes();
        if let Some(outcome) = re.dfa_earliest_end(hay, 0) {
            let pike = re.is_match_pike(hay);
            match outcome {
                DfaOutcome::NoMatch => prop_assert!(!pike, "diverged on {:?}", pattern),
                DfaOutcome::MatchEnd(_) => prop_assert!(pike, "diverged on {:?}", pattern),
                DfaOutcome::GaveUp => {}
            }
        }
    }
}
