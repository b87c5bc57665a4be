//! A splice carries its sibling's taint summary exactly when the taint
//! engine cannot read the edit, swept over the tiny corpus.
//!
//! Every [`STRIDE`]th Python file of the tiny corpus and of its
//! aggressive mutants (seed 42) — 101 of 302 — takes edits at up to
//! [`MAX_CUTS`] of its cut points, spread over the file. Three edits
//! only bind a literal to a fresh name, or state one: each must splice,
//! carry the summary and equal a full build. Three the engine reads — an
//! assignment to a name the file already uses, an import and a call —
//! must splice, run the engine and equal a full build.

use corpus::{mutate_dataset, CorpusConfig, Dataset};
use obfuscate::EvasionProfile;
use pysrc::Expr;
use scanhub::{ArtifactConfig, FileAnalysis, FileEntry, Spliced};

/// Files swept: one in `STRIDE`. The sweep builds twelve artifacts per
/// cut point, ~12 s in a debug build over every file and ~4 s over a
/// third of them.
const STRIDE: usize = 3;
/// Cut points swept per file.
const MAX_CUTS: usize = 3;

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

fn build(code: &str) -> FileAnalysis {
    FileAnalysis::build(
        &FileEntry::new("mod.py", code.as_bytes().to_vec()),
        None,
        &ArtifactConfig::default(),
    )
}

/// `code` spliced onto `donor`, checked field by field against a full
/// build of it.
fn splice(donor: &FileAnalysis, code: &str) -> Spliced {
    let entry = FileEntry::new("mod.py", code.as_bytes().to_vec());
    let spliced = FileAnalysis::build_spliced(&entry, donor, None, &ArtifactConfig::default())
        .unwrap_or_else(|| panic!("fell back:\n{code}"));
    let (a, full) = (&spliced.analysis, build(code));
    assert_eq!(a.cut_points, full.cut_points, "{code}");
    assert_eq!(
        a.module.as_ref().map(|m| m.get()),
        full.module.as_ref().map(|m| m.get()),
        "{code}"
    );
    assert_eq!(a.strings, full.strings, "{code}");
    assert_eq!(a.layers, full.layers, "{code}");
    assert_eq!(a.layer_hits, full.layer_hits, "{code}");
    assert_eq!(a.taint, full.taint, "taint diverges:\n{code}");
    spliced
}

#[test]
fn a_splice_carries_taint_exactly_when_the_engine_cannot_read_the_edit() {
    let (mut files, mut cuts, mut flows) = (0, 0, 0);
    let sources = python_sources();
    for text in sources.iter().step_by(STRIDE) {
        let donor = build(text);
        let module = donor.module.as_ref().expect("python").get();
        let names = module.expressions().iter().filter_map(|e| match *e {
            Expr::Name(n) => Some(n.text(module.source())),
            _ => None,
        });
        // Cut points a line can go in front of without the edit reaching
        // into the statement there: a blank gap (a splice window starts
        // at one) and a first byte no inserted line starts with.
        let at: Vec<usize> = donor
            .cut_points
            .iter()
            .filter(|c| text[c.newline_end..c.at].trim().is_empty())
            .map(|c| c.at)
            .filter(|&at| !text[at..].starts_with(['_', '"', 'i', 'p']))
            .collect();
        let step = at.len().div_ceil(MAX_CUTS).max(1);
        for (n, &at) in at.iter().step_by(step).enumerate() {
            let insert = |line: &str| format!("{}{line}{}", &text[..at], &text[at..]);
            let fresh = insert(&format!("_fresh_{n} = \"1.2.3\"\n"));
            let inserted = splice(&donor, &fresh);
            assert!(inserted.taint_carried, "{fresh}");
            let removed = splice(&inserted.analysis, text);
            assert!(removed.taint_carried, "{text}");
            let stated = insert("\"1.2.3\"\n");
            assert!(splice(&donor, &stated).taint_carried, "{stated}");
            let first = |name: &&str| name.as_bytes().first() == text.as_bytes().get(at);
            let used = names.clone().find(|name| !first(name));
            let read = used.map(|name| format!("{name} = \"1.2.3\"\n"));
            for line in read
                .iter()
                .map(String::as_str)
                .chain(["import os\n", "print(\"1.2.3\")\n"])
            {
                let code = insert(line);
                assert!(!splice(&donor, &code).taint_carried, "{code}");
            }
            cuts += 1;
        }
        files += 1;
        flows += donor.taint.as_ref().map_or(0, |t| t.flows.len());
    }
    assert_eq!(files, sources.len().div_ceil(STRIDE));
    // 138 over 101 files: a `setup.py` has few statements to cut at.
    assert!(cuts > files, "only {cuts} cut points swept");
    assert!(flows > 0, "no swept file has a flow to carry");
}
