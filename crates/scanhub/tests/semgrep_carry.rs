//! A splice carries its sibling's Semgrep matches, swept over the tiny
//! corpus.
//!
//! Every [`STRIDE`]th Python file of the tiny corpus and of its
//! aggressive mutants (seed 42) takes edits at up to [`MAX_CUTS`] of its
//! cut points, spread over the file: a literal bound to a fresh name, an
//! inserted call a rule matches, and an inserted call that trips a rule's
//! `pattern-not`; and each file loses one statement a leaf matched. Each
//! edit must splice, carry the sibling's matches, walk only the
//! statements it inserted, and record what a walk of the whole edited
//! file records.

use std::sync::OnceLock;

use corpus::{mutate_dataset, CorpusConfig, Dataset};
use obfuscate::EvasionProfile;
use scanhub::{ArtifactConfig, FileAnalysis, FileEntry};
use semgrep_engine::{CompiledSemgrepRules, MatchScratch, MatchSet};

/// Files swept: one in `STRIDE`.
const STRIDE: usize = 3;
/// Cut points swept per file.
const MAX_CUTS: usize = 3;

/// Calls and imports the corpus makes, one rule that only a whole-file
/// conjunction fires, and two that a `safe(...)` call anywhere unfires.
const RULES: &str = "rules:
  - id: sys
    languages: [python]
    message: m
    pattern: os.system($X)
  - id: post
    languages: [python]
    message: m
    pattern-either:
      - pattern: requests.post(...)
      - pattern: requests.get(...)
  - id: spawn
    languages: [python]
    message: m
    pattern-either:
      - pattern: subprocess.run(...)
      - pattern: subprocess.check_output(...)
      - pattern: subprocess.call(...)
  - id: setup-with-os
    languages: [python]
    message: m
    patterns:
      - pattern: setup(...)
      - pattern: import os
  - id: unguarded-setup
    languages: [python]
    message: m
    patterns:
      - pattern: setup(...)
      - pattern-not: safe($X)
  - id: unguarded-import
    languages: [python]
    message: m
    patterns:
      - pattern: import os
      - pattern-not: safe($X)
";

/// Every Python file of the tiny corpus and its aggressive mutants.
fn python_sources() -> Vec<String> {
    let base = Dataset::generate(&CorpusConfig::tiny());
    let mutants = mutate_dataset(&base, &EvasionProfile::aggressive(), 42);
    let mut out = Vec::new();
    for dataset in [base, mutants] {
        let packages = dataset
            .malware
            .into_iter()
            .map(|m| m.package)
            .chain(dataset.legit.into_iter().map(|l| l.package));
        for package in packages {
            for file in package.files().iter().filter(|f| f.path.ends_with(".py")) {
                out.push(file.contents.clone());
            }
        }
    }
    out
}

fn matcher() -> MatchSet<'static> {
    static COMPILED: OnceLock<CompiledSemgrepRules> = OnceLock::new();
    MatchSet::new(COMPILED.get_or_init(|| semgrep_engine::compile(RULES).expect("rules")))
}

fn entry(code: &str) -> FileEntry {
    FileEntry::new("mod.py", code.as_bytes().to_vec())
}

/// A full build of `code`, its matches from a walk of every statement.
fn build(code: &str) -> FileAnalysis {
    let mut built = FileAnalysis::build(&entry(code), None, &ArtifactConfig::default());
    let (walk, carried) = built.record_matches(&matcher(), None, &mut MatchScratch::new());
    let module = built.module.as_ref().expect("python").get();
    assert_eq!(walk.stmts_visited, module.statements().len() as u64);
    assert!(!carried);
    built
}

/// `code` spliced onto `donor` with the donor's matches carried, checked
/// against a full build's; the carried artifact.
fn splice(donor: &FileAnalysis, code: &str) -> FileAnalysis {
    let cfg = ArtifactConfig::default();
    let spliced = FileAnalysis::build_spliced(&entry(code), donor, None, &cfg)
        .unwrap_or_else(|| panic!("fell back:\n{code}"));
    let (edit, mut a) = (spliced.edit, spliced.analysis);
    let (walk, carried) =
        a.record_matches(&matcher(), Some((donor, &edit)), &mut MatchScratch::new());
    assert!(carried, "{code}");
    let module = a.module.as_ref().expect("python").get();
    let inserted = module.statements_in(edit.inserted).len() as u64;
    assert_eq!(walk.stmts_visited, inserted, "{code}");
    assert_eq!(
        a.semgrep,
        build(code).semgrep,
        "carried matches diverge:\n{code}"
    );
    a
}

fn fired(a: &FileAnalysis) -> &[u32] {
    a.semgrep.as_ref().expect("recorded").fired()
}

#[test]
fn a_splice_carries_semgrep_matches_equal_to_a_fresh_walk() {
    let (mut files, mut cuts, mut deleted, mut unfired) = (0, 0, 0, 0);
    let sources = python_sources();
    for text in sources.iter().step_by(STRIDE) {
        let donor = build(text);
        // Cut points a line can go in front of: a blank gap (a splice
        // window starts at one) and a first byte no inserted line starts
        // with, so the edit does not reach into the statement there.
        let at: Vec<usize> = donor
            .cut_points
            .iter()
            .filter(|c| text[c.newline_end..c.at].trim().is_empty())
            .map(|c| c.at)
            .filter(|&at| !text[at..].starts_with(['_', 'o', 's']))
            .collect();
        let step = at.len().div_ceil(MAX_CUTS).max(1);
        for (n, &at) in at.iter().step_by(step).enumerate() {
            let insert = |line: &str| format!("{}{line}{}", &text[..at], &text[at..]);
            let bound = insert(&format!("_fresh_{n} = \"1.2.3\"\n"));
            let removed = splice(&splice(&donor, &bound), text);
            assert_eq!(removed.semgrep, donor.semgrep, "{text}");
            splice(&donor, &insert(&format!("os.system(_fresh_{n})\n")));
            let guarded = splice(&donor, &insert("safe(1)\n"));
            unfired += usize::from(fired(&guarded).len() < fired(&donor).len());
            cuts += 1;
        }
        // One statement a leaf matched, deleted: from its cut point to
        // the next.
        let module = donor.module.as_ref().expect("python").get();
        let matched = donor.semgrep.as_ref().expect("recorded").leaf_lines();
        let line_of = |at: usize| module.lines().line_of(at as u32) as u32;
        let statement = donor.cut_points.windows(2).find(|c| {
            let gap = text[c[0].newline_end..c[0].at].trim().is_empty();
            gap && matched.iter().any(|&(_, line)| line == line_of(c[0].at))
        });
        if let Some(c) = statement {
            splice(&donor, &format!("{}{}", &text[..c[0].at], &text[c[1].at..]));
            deleted += 1;
        }
        files += 1;
    }
    assert_eq!(files, sources.len().div_ceil(STRIDE));
    assert!(cuts > files, "only {cuts} cut points swept");
    // Vacuity guards: deletions removed matches, and an inserted
    // `safe(...)` unfired a rule the sibling fired.
    assert!(
        deleted * 4 > files,
        "only {deleted} of {files} files lost a match"
    );
    assert!(unfired > 0, "no inserted call tripped a pattern-not");
}
