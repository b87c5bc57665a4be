//! Golden digest pinning the taint engine's output over the whole tiny
//! corpus.
//!
//! `dataflow::analyze` feeds every artifact's flows and folded-constant
//! layers, so a rewrite of its internals must reproduce each summary to
//! the byte. `TAINT_DIGEST` folds an FNV-1a of the `Debug` rendering of
//! `analyze(&parse_module(src))` over every Python file of the tiny
//! corpus and of its aggressive mutants (seed 42) — the same files, in
//! the same order, as `LEX_DIGEST` / `PARSE_DIGEST` in
//! `crates/corpus/tests/front_end_golden.rs`.
//!
//! A change to the constant needs a stated reason in the commit that
//! makes it.

use corpus::{mutate_dataset, CorpusConfig, Dataset};
use obfuscate::EvasionProfile;

/// Recorded at commit 705df2b (before ISSUE 25 touched the engine).
const TAINT_DIGEST: u64 = 0xbc86_6135_47e3_7e1a;

#[test]
fn analyze_output_is_pinned() {
    let base = Dataset::generate(&CorpusConfig::tiny());
    let mutants = mutate_dataset(&base, &EvasionProfile::aggressive(), 42);
    let mut acc = 0u64;
    for dataset in [&base, &mutants] {
        let packages = dataset
            .malware
            .iter()
            .map(|m| &m.package)
            .chain(dataset.legit.iter().map(|l| &l.package));
        for package in packages {
            for file in package.files().iter().filter(|f| f.path.ends_with(".py")) {
                let summary = dataflow::analyze(&pysrc::parse_module(&file.contents));
                let mut bytes = acc.to_le_bytes().to_vec();
                bytes.extend_from_slice(format!("{summary:?}").as_bytes());
                acc = digest::fnv1a(&bytes);
            }
        }
    }
    assert_eq!(acc, TAINT_DIGEST, "taint digest is now {acc:#018x}");
}

/// The engine keeps its scratch per thread between calls, so a summary
/// must not depend on what ran on the thread before: every module's
/// summary is the same in forward order, in reverse order, and on a
/// fresh thread.
#[test]
fn summaries_do_not_depend_on_what_ran_before() {
    let base = Dataset::generate(&CorpusConfig::tiny());
    let mutants = mutate_dataset(&base, &EvasionProfile::aggressive(), 42);
    let modules: Vec<pysrc::Module> = [&base, &mutants]
        .iter()
        .flat_map(|d| {
            let malware = d.malware.iter().map(|m| &m.package);
            malware.chain(d.legit.iter().map(|l| &l.package))
        })
        .flat_map(|p| p.files().iter().filter(|f| f.path.ends_with(".py")))
        .map(|f| pysrc::parse_module(&f.contents))
        .collect();
    let forward: Vec<_> = modules.iter().map(dataflow::analyze).collect();
    let mut reverse: Vec<_> = modules.iter().rev().map(dataflow::analyze).collect();
    reverse.reverse();
    assert!(forward == reverse, "reverse order changed a summary");
    let fresh = std::thread::scope(|s| {
        s.spawn(|| modules.iter().map(dataflow::analyze).collect::<Vec<_>>())
            .join()
            .expect("analysis thread")
    });
    assert!(forward == fresh, "a fresh thread changed a summary");
    assert!(forward.iter().any(|s| !s.flows.is_empty()));
}
