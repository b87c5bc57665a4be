//! Property-based tests: the compile → scan path must behave like a
//! substring oracle for simple rules, for arbitrary inputs.

use proptest::prelude::*;

fn yara_escape(text: &str) -> String {
    text.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
        .replace('\t', "\\t")
        .replace('\r', "\\r")
}

proptest! {
    #[test]
    fn literal_rule_matches_iff_substring_present(
        needle in "[ -~]{3,24}",
        pre in "[a-z\\n ]{0,40}",
        post in "[a-z\\n ]{0,40}",
    ) {
        let rule = format!(
            "rule t {{ strings: $a = \"{}\" condition: $a }}",
            yara_escape(&needle)
        );
        let compiled = yara_engine::compile(&rule)
            .unwrap_or_else(|e| panic!("escaped rule must compile: {e}\n{rule}"));
        let scanner = yara_engine::Scanner::new(&compiled);
        let hay = format!("{pre}{needle}{post}");
        prop_assert!(scanner.is_match(hay.as_bytes()));
        // A haystack provably without the needle must not match.
        let clean = "0".repeat(pre.len() + post.len());
        prop_assert_eq!(scanner.is_match(clean.as_bytes()), clean.contains(&needle));
    }

    #[test]
    fn count_conditions_agree_with_occurrences(n in 1usize..6, extra in 0usize..4) {
        let hay = "needle ".repeat(n + extra);
        let rule = format!(
            "rule t {{ strings: $a = \"needle\" condition: #a >= {n} }}"
        );
        let compiled = yara_engine::compile(&rule).expect("compile");
        let scanner = yara_engine::Scanner::new(&compiled);
        prop_assert!(scanner.is_match(hay.as_bytes()));
        let short = "needle ".repeat(n.saturating_sub(1));
        prop_assert_eq!(scanner.is_match(short.as_bytes()), n.saturating_sub(1) >= n);
    }

    #[test]
    fn parser_never_panics_on_garbage(src in "[ -~\\n]{0,200}") {
        let _ = yara_engine::compile(&src);
    }

    #[test]
    fn all_of_them_is_intersection(
        a in "[a-m]{4,10}",
        b in "[n-z]{4,10}",
        include_a in any::<bool>(),
        include_b in any::<bool>(),
    ) {
        let rule = format!(
            "rule t {{ strings: $a = \"{a}\" $b = \"{b}\" condition: all of them }}"
        );
        let compiled = yara_engine::compile(&rule).expect("compile");
        let scanner = yara_engine::Scanner::new(&compiled);
        let mut hay = String::from("prefix ");
        if include_a { hay.push_str(&a); }
        hay.push(' ');
        if include_b { hay.push_str(&b); }
        prop_assert_eq!(scanner.is_match(hay.as_bytes()), include_a && include_b);
    }

    #[test]
    fn any_of_them_is_union(
        a in "[a-m]{4,10}",
        b in "[n-z]{4,10}",
        include_a in any::<bool>(),
        include_b in any::<bool>(),
    ) {
        let rule = format!(
            "rule t {{ strings: $a = \"{a}\" $b = \"{b}\" condition: any of them }}"
        );
        let compiled = yara_engine::compile(&rule).expect("compile");
        let scanner = yara_engine::Scanner::new(&compiled);
        let mut hay = String::from("prefix ");
        if include_a { hay.push_str(&a); }
        hay.push(' ');
        if include_b { hay.push_str(&b); }
        prop_assert_eq!(scanner.is_match(hay.as_bytes()), include_a || include_b);
    }

    #[test]
    fn nocase_matches_any_casing(word in "[a-z]{4,12}", flip in any::<u8>()) {
        let rule = format!(
            "rule t {{ strings: $a = \"{word}\" nocase condition: $a }}"
        );
        let compiled = yara_engine::compile(&rule).expect("compile");
        let scanner = yara_engine::Scanner::new(&compiled);
        let mutated: String = word
            .chars()
            .enumerate()
            .map(|(i, c)| if (flip >> (i % 8)) & 1 == 1 { c.to_ascii_uppercase() } else { c })
            .collect();
        prop_assert!(scanner.is_match(mutated.as_bytes()));
    }

    #[test]
    fn match_offsets_are_exact(pre_len in 0usize..40) {
        let pre = "x".repeat(pre_len);
        let hay = format!("{pre}needle tail");
        let compiled = yara_engine::compile(
            "rule t { strings: $a = \"needle\" condition: $a }",
        )
        .expect("compile");
        let scanner = yara_engine::Scanner::new(&compiled);
        let hits = scanner.scan(hay.as_bytes());
        prop_assert_eq!(hits.len(), 1);
        prop_assert_eq!(&hits[0].strings[0].offsets, &vec![pre_len]);
    }
}

/// Words the gate property builds strings and haystacks from: short and
/// overlapping, so random haystacks hit them often.
const WORDS: [&str; 5] = ["ab", "bca", "Cab", "abc", "ca"];

/// One string definition: `kind` picks plain, `nocase`, `wide`,
/// `ascii wide`, `fullword` or a regex over the word.
fn string_def(i: usize, kind: u8, word: &str) -> String {
    match kind {
        0 => format!("$s{i} = \"{word}\""),
        1 => format!("$s{i} = \"{word}\" nocase"),
        2 => format!("$s{i} = \"{word}\" wide"),
        3 => format!("$s{i} = \"{word}\" ascii wide"),
        4 => format!("$s{i} = \"{word}\" fullword"),
        _ => format!("$s{i} = /{word}+/"),
    }
}

/// A condition over all `n` strings (the compiler rejects an
/// unreferenced one); `form` and `k` pick its shape.
fn condition(n: usize, form: u8, k: u64) -> String {
    match form {
        0 => "any of them".to_owned(),
        1 => "all of them".to_owned(),
        2 => format!("{} of them", k as usize % n + 1),
        3 => "$s0 and not all of them".to_owned(),
        4 => "not any of them".to_owned(),
        5 => format!("#s0 >= {} and any of them", k + 1),
        6 => format!("any of them or filesize < {}", k * 8),
        _ => format!("all of them and filesize > {k}"),
    }
}

proptest! {
    #[test]
    fn the_hit_gate_routes_every_match_and_only_atoms_that_occur(
        rules in prop::collection::vec(
            (prop::collection::vec((0u8..6, 0usize..5), 1..4), 0u8..8, 0u64..4),
            1..6,
        ),
        pieces in prop::collection::vec((0u8..4, 0usize..5), 0..12),
    ) {
        let src: String = rules
            .iter()
            .enumerate()
            .map(|(ri, (strings, form, k))| {
                let defs: Vec<String> = strings
                    .iter()
                    .enumerate()
                    .map(|(i, &(kind, w))| string_def(i, kind, WORDS[w]))
                    .collect();
                let cond = condition(strings.len(), *form, *k);
                format!("rule r{ri} {{ strings: {} condition: {cond} }}\n", defs.join(" "))
            })
            .collect();
        // Words as written, upper-cased, UTF-16LE, or a lone separator.
        let mut hay: Vec<u8> = Vec::new();
        for &(shape, w) in &pieces {
            let word = WORDS[w].as_bytes();
            match shape {
                0 => hay.extend_from_slice(word),
                1 => hay.extend(word.to_ascii_uppercase()),
                2 => hay.extend(word.iter().flat_map(|&b| [b, 0])),
                _ => hay.push(b' '),
            }
        }
        let compiled = yara_engine::compile(&src)
            .unwrap_or_else(|e| panic!("generated rules must compile: {e}\n{src}"));
        let scanner = yara_engine::Scanner::new(&compiled);
        let gate = yara_engine::HitGate::new(&compiled);
        let mut gated = vec![false; compiled.rules.len()];
        gate.mark(&scanner.collect_hits(&hay), &mut gated);
        let folded = hay.to_ascii_lowercase();
        for (ri, rule) in compiled.rules.iter().enumerate() {
            let atoms = rule.literal_atoms();
            let matched = scanner.scan(&hay).iter().any(|m| m.rule == rule.rule.name);
            prop_assert!(
                !matched || !atoms.exhaustive || gated[ri],
                "r{} matched with no gated hit\n{}", ri, src
            );
            let occurs = atoms.atoms.iter().any(|atom| {
                let atom = atom.to_ascii_lowercase();
                folded.windows(atom.len()).any(|w| w == atom.as_bytes())
            });
            prop_assert!(
                !gated[ri] || occurs,
                "r{} gated with no atom occurring\n{}", ri, src
            );
        }
    }
}
