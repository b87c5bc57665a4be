//! The typosquat audit (a Table II metadata signal) against its textbook
//! definition.
//!
//! `oss_registry::edit_distance` keeps two DP rows and skips no cell, and
//! `is_typosquat` skips the DP for a popular name whose length differs by
//! more than its thresholds accept. Both are checked here against the
//! plain forms kept in this file: a full-matrix Levenshtein DP over
//! collected chars, and the audit that runs it against every popular name
//! and builds its decorated names with `format!`.

use corpus::{mutate_dataset, CorpusConfig, Dataset};
use obfuscate::EvasionProfile;
use oss_registry::{edit_distance, is_typosquat, POPULAR_PACKAGES};
use proptest::prelude::*;

/// Levenshtein distance by the full `(|a| + 1) × (|b| + 1)` matrix.
fn textbook_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut d = vec![vec![0usize; b.len() + 1]; a.len() + 1];
    for (i, row) in d.iter_mut().enumerate() {
        row[0] = i;
    }
    for (j, cell) in d[0].iter_mut().enumerate() {
        *cell = j;
    }
    for i in 1..=a.len() {
        for j in 1..=b.len() {
            let cost = usize::from(a[i - 1] != b[j - 1]);
            d[i][j] = (d[i - 1][j] + 1)
                .min(d[i][j - 1] + 1)
                .min(d[i - 1][j - 1] + cost);
        }
    }
    d[a.len()][b.len()]
}

/// The audit as first written: every popular name's distance, then its
/// decorated forms, built as strings.
fn textbook_typosquat(name: &str) -> Option<&'static str> {
    let lowered = name.to_ascii_lowercase();
    if POPULAR_PACKAGES.contains(&lowered.as_str()) {
        return None;
    }
    for popular in POPULAR_PACKAGES {
        let d = textbook_distance(&lowered, popular);
        if (d == 1 && popular.len() >= 4) || (d == 2 && popular.len() >= 6) {
            return Some(popular);
        }
        if lowered.len() > popular.len() + 2
            && (lowered.starts_with(&format!("{popular}-"))
                || lowered.ends_with(&format!("-{popular}"))
                || lowered.starts_with(&format!("python-{popular}"))
                || lowered.ends_with(&format!("{popular}-python")))
        {
            return Some(popular);
        }
    }
    None
}

/// A name of `len` chars drawn from `alphabet`.
fn name_from(
    alphabet: &'static [char],
    len: std::ops::Range<usize>,
) -> impl Strategy<Value = String> {
    prop::collection::vec(prop::sample::select(alphabet), len)
        .prop_map(|chars| chars.into_iter().collect())
}

const ASCII: &[char] = &['a', 'b', 'e', 'q', 'r', 's', 't', 'u', '-', '_', '3'];
const WIDE: &[char] = &['a', 'é', 'ß', 'ü', 'e', '日', '本', '-', '\u{1F600}'];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn edit_distance_equals_the_full_matrix_on_ascii_names(
        a in name_from(ASCII, 0..14),
        b in name_from(ASCII, 0..14),
    ) {
        prop_assert_eq!(edit_distance(&a, &b), textbook_distance(&a, &b));
    }

    #[test]
    fn edit_distance_equals_the_full_matrix_on_non_ascii_names(
        a in name_from(WIDE, 0..14),
        b in name_from(WIDE, 0..14),
    ) {
        prop_assert_eq!(edit_distance(&a, &b), textbook_distance(&a, &b));
    }

    #[test]
    fn edit_distance_equals_the_full_matrix_past_the_stack_rows(
        a in name_from(ASCII, 0..100),
        b in name_from(WIDE, 60..140),
    ) {
        prop_assert_eq!(edit_distance(&a, &b), textbook_distance(&a, &b));
        prop_assert_eq!(edit_distance(&b, &a), textbook_distance(&b, &a));
        prop_assert_eq!(edit_distance(&b, &b), 0);
    }

    #[test]
    fn typosquat_verdicts_match_the_textbook_on_random_names(
        name in name_from(ASCII, 1..24),
    ) {
        prop_assert_eq!(is_typosquat(&name), textbook_typosquat(&name), "{:?}", name);
    }
}

#[test]
fn typosquat_verdicts_match_the_textbook_on_corpus_names() {
    let base = Dataset::generate(&CorpusConfig::tiny());
    let mutants = mutate_dataset(&base, &EvasionProfile::aggressive(), 42);
    let mut names = 0;
    for dataset in [&base, &mutants] {
        let packages = dataset
            .malware
            .iter()
            .map(|m| &m.package)
            .chain(dataset.legit.iter().map(|l| &l.package));
        for package in packages {
            let name = &package.metadata().name;
            assert_eq!(is_typosquat(name), textbook_typosquat(name), "{name:?}");
            names += 1;
        }
    }
    assert!(names > 50, "{names} names");
}

/// Every one-edit squat of every popular name (each deletion, each
/// substitution and each insertion, of a letter and of a separator), every
/// two-deletion and two-insertion squat, and decorated, upper-cased and
/// kilobyte-long names.
#[test]
fn typosquat_verdicts_match_the_textbook_on_generated_squats() {
    let mut names: Vec<String> = Vec::new();
    for popular in POPULAR_PACKAGES {
        let chars: Vec<char> = popular.chars().collect();
        let without = |skip: &[usize]| -> String {
            (0..chars.len())
                .filter(|i| !skip.contains(i))
                .map(|i| chars[i])
                .collect()
        };
        let with = |at: &[usize], c: char| -> String {
            let mut out = String::new();
            for i in 0..=chars.len() {
                for _ in at.iter().filter(|&&a| a == i) {
                    out.push(c);
                }
                if let Some(&ch) = chars.get(i) {
                    out.push(ch);
                }
            }
            out
        };
        for i in 0..=chars.len() {
            names.push(without(&[i]));
            names.push(with(&[i], 'x'));
            names.push(with(&[i], '-'));
            let mut swapped = chars.clone();
            if let Some(c) = swapped.get_mut(i) {
                *c = 'z';
            }
            names.push(swapped.into_iter().collect());
            for j in i..=chars.len() {
                names.push(without(&[i, j]));
                names.push(with(&[i, j], 'q'));
            }
        }
        for decorated in [
            format!("{popular}-py"),
            format!("py-{popular}"),
            format!("python-{popular}"),
            format!("{popular}-python"),
            format!("python-{popular}s"),
            popular.to_ascii_uppercase(),
            format!("{popular}{}", "s".repeat(1000)),
        ] {
            names.push(decorated);
        }
    }
    names.push("é".repeat(600));
    let mut squats = 0;
    for name in &names {
        let verdict = is_typosquat(name);
        assert_eq!(verdict, textbook_typosquat(name), "{name:?}");
        squats += usize::from(verdict.is_some());
    }
    // Vacuity guard: most of these are squats.
    assert!(
        squats * 2 > names.len(),
        "{squats} of {} names",
        names.len()
    );
}
