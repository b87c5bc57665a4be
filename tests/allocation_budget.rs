//! Allocation budgets of the cold path, as exact counts.
//!
//! Allocation counts repeat to the bit where timings do not, so they are
//! what a tier-1 test can hold the lexer, the parser, the taint engine,
//! the YARA scanner, a whole artifact build and the Semgrep walk to. This
//! binary installs its own counting `#[global_allocator]`; each thread
//! counts into its own thread-locals, so tests running in parallel do not
//! see each other's allocations. A `realloc` counts as one allocation, as
//! in the benchmark's counter (`benchmark/src/alloc.rs`). Each allocation
//! is also booked to the [`Stage`] its thread is in, so a budget can name
//! the step of an artifact build that broke it.
//!
//! Every budget runs over the files of the tiny corpus and of its
//! aggressive mutants (seed 42): the front end's over their Python files,
//! the file set of the front-end golden digests, and those of
//! `FileAnalysis::build` and the YARA scanner over every file of every
//! upload, `PKG-INFO` included.

use std::alloc::{GlobalAlloc, Layout, System};
use std::borrow::Cow;
use std::cell::Cell;
use std::sync::OnceLock;

use corpus::{mutate_dataset, CorpusConfig, Dataset};
use obfuscate::EvasionProfile;
use oss_registry::Package;
use pysrc::TokenKind;
use scanhub::{ArtifactConfig, FileAnalysis, FileEntry, ScanRequest, Stage};
use semgrep_engine::{CompiledSemgrepRules, MatchScratch, MatchSet};
use yara_engine::{CompiledRules, Scanner};

struct Counting;

const STAGES: usize = Stage::ALL.len();

thread_local! {
    // Const-initialised and without a destructor: touching it from inside
    // the allocator neither allocates nor registers anything.
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BY_STAGE: [Cell<u64>; STAGES] = const { [const { Cell::new(0) }; STAGES] };
}

fn record() {
    // A thread being torn down has no slot left; its calls go uncounted.
    let _ = CALLS.try_with(|calls| calls.set(calls.get() + 1));
    let stage = Stage::current() as usize;
    let _ = BY_STAGE.try_with(|ledger| ledger[stage].set(ledger[stage].get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; `record` only touches a
// destructor-free thread-local and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record();
        // SAFETY: the caller's obligations are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record();
        // SAFETY: the caller's obligations are passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record();
        // SAFETY: the caller's obligations are passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations are passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s result and the allocations this thread made while running it.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = CALLS.with(Cell::get);
    let out = f();
    (out, CALLS.with(Cell::get) - before)
}

/// The allocations this thread made while running `f`, by stage.
fn ledger(f: impl FnOnce()) -> [u64; STAGES] {
    let read = || BY_STAGE.with(|ledger| ledger.each_ref().map(Cell::get));
    let before = read();
    f();
    let after = read();
    std::array::from_fn(|i| after[i] - before[i])
}

/// Every package of the tiny corpus and its aggressive mutants.
fn packages() -> Vec<Package> {
    let base = Dataset::generate(&CorpusConfig::tiny());
    let mutants = mutate_dataset(&base, &EvasionProfile::aggressive(), 42);
    let mut out = Vec::new();
    for dataset in [base, mutants] {
        out.extend(dataset.malware.into_iter().map(|m| m.package));
        out.extend(dataset.legit.into_iter().map(|l| l.package));
    }
    out
}

/// Every Python file of the tiny corpus and its aggressive mutants.
fn python_sources() -> Vec<String> {
    let mut out = Vec::new();
    for package in packages() {
        for file in package.files().iter().filter(|f| f.path.ends_with(".py")) {
            out.push(file.contents.clone());
        }
    }
    out
}

/// Every file of every upload of the tiny corpus and its aggressive
/// mutants, as the hub receives them.
fn upload_entries() -> Vec<FileEntry> {
    let requests = packages()
        .iter()
        .map(ScanRequest::from_package)
        .collect::<Vec<_>>();
    requests.iter().flat_map(|r| r.files().to_vec()).collect()
}

/// The serving-scale generated rulesets, YARA and Semgrep: rules from a
/// 64-package population, whose regex strings are one base64 pattern.
fn serving_rules() -> &'static (CompiledRules, CompiledSemgrepRules) {
    static RULES: OnceLock<(CompiledRules, CompiledSemgrepRules)> = OnceLock::new();
    RULES.get_or_init(|| {
        let training = Dataset::generate(&CorpusConfig {
            seed: 42,
            malware_unique: 64,
            malware_total: 64,
            legit_total: 0,
        });
        let generated = eval::experiments::run_rulellm(&training, rulellm::PipelineConfig::full());
        eval::experiments::compile_output(&generated)
    })
}

/// A scanner that has already scanned every one of `entries`.
fn warmed_scanner(entries: &[FileEntry]) -> Scanner<'static> {
    let scanner = Scanner::new(&serving_rules().0);
    for entry in entries {
        scanner.collect_hits(entry.bytes());
    }
    scanner
}

/// Tokens borrow the source: a lex allocates its output vector, plus
/// one buffer per string literal whose value differs from its bytes.
#[test]
fn a_lex_allocates_its_token_vector_and_owned_literals_only() {
    let (mut files, mut owned_total) = (0usize, 0u64);
    for src in python_sources() {
        let (tokens, calls) = counted(|| pysrc::lex_spanned(&src));
        let owned = tokens
            .iter()
            .filter(|t| {
                matches!(
                    t.kind(),
                    TokenKind::Str {
                        value: Cow::Owned(_),
                        ..
                    }
                )
            })
            .count() as u64;
        assert_eq!(calls, 1 + owned, "{src:?}");
        files += 1;
        owned_total += owned;
    }
    // Vacuity guard: the corpus has escapes and non-ASCII literals.
    assert!(
        files > 100 && owned_total > 0,
        "{files} files, {owned_total} owned"
    );
}

/// `parse_module` over the corpus stays within the 4 470 allocations it
/// was measured at, the lex's 1 338 included: per file, one copy of the
/// text, one `LineIndex`, the top-level ids and marks, and one buffer per
/// non-empty array of the tree (owned literal values and `Other`
/// renderings share one). The parser builds in arrays it keeps per
/// thread, grown here by a first pass, so that count does not depend on
/// what ran on the thread before. It made 210 921 at commit 3628db6,
/// when the tree was boxed and allocated its boxes, vectors and strings
/// per node, and 434 766 when it also owned every name as a `String`.
#[test]
fn a_parse_allocates_its_tree_not_its_text() {
    const BUDGET: u64 = 4_600;
    let sources = python_sources();
    // Grow this thread's parse arrays first, whatever ran on it before.
    for src in &sources {
        pysrc::parse_module(src);
    }
    let mut total = 0u64;
    for src in &sources {
        total += counted(|| pysrc::parse_module(src)).1;
    }
    println!("parse_module made {total} allocations");
    assert!(total <= BUDGET, "parse_module made {total} allocations");
}

/// A warm `dataflow::analyze` allocates the summary it returns and
/// nothing else: over the corpus, exactly as many allocations as cloning
/// the summaries takes, none for a module whose summary is empty, and the
/// same count for a module of 40 call statements as for one of 320. The
/// engine builds in scratch its thread keeps, grown here by a first pass.
/// It made 70 026 allocations over these files when each call collected
/// its argument values in a fresh vector, each binding copied its taint
/// chain and each fold built its own string; 181 247 while it re-lexed and
/// re-parsed every block header's rendered text; and 589 277 at commit
/// 705df2b, which cloned every constant it evaluated, cloned the whole
/// scope at each `def` and lexed every header into owned token text.
#[test]
fn the_taint_engine_stays_within_its_allocation_budget() {
    let modules: Vec<pysrc::Module> = python_sources()
        .iter()
        .map(|src| pysrc::parse_module(src))
        .collect();
    for module in &modules {
        dataflow::analyze(module);
    }
    let (mut total, mut empty) = (0u64, 0usize);
    for module in &modules {
        let (summary, calls) = counted(|| dataflow::analyze(module));
        let (_, own) = counted(|| summary.clone());
        assert_eq!(calls, own, "{summary:?}");
        total += calls;
        empty += usize::from(calls == 0);
    }
    println!(
        "analyze made {total} allocations over {} modules, none for {empty}",
        modules.len()
    );
    // Vacuity guard: some summaries are empty and some are not.
    assert!(
        empty > 0 && total > 0,
        "{empty} empty summaries, {total} allocations"
    );
    let calls = |n: usize| {
        let mut src = String::from("import os, requests\nc = requests.get('http://x').text\n");
        src.push_str(&"os.system(c + 'x')\n".repeat(n));
        let module = pysrc::parse_module(&src);
        dataflow::analyze(&module);
        counted(|| dataflow::analyze(&module)).1
    };
    assert_eq!(calls(40), calls(320));
}

/// A thread keeps its parse arrays and its taint scratch between calls
/// unless a call grew them past 4 MiB; then they are freed, and the next
/// call allocates them again.
#[test]
fn a_scratch_grown_past_four_mib_is_freed() {
    let small = "import os\nx = input()\nos.system(x)\n";
    let big: String = (0..100_000).map(|i| format!("v{i} = w{i}\n")).collect();
    let parse = |src: &str| counted(|| pysrc::parse_module(src)).1;
    parse(small);
    let warm = parse(small);
    parse(&big);
    assert!(parse(small) > warm, "the parse arrays were kept");
    assert_eq!(parse(small), warm);

    let (small, big) = (pysrc::parse_module(small), pysrc::parse_module(&big));
    let analyze = |module: &pysrc::Module| counted(|| dataflow::analyze(module)).1;
    analyze(&small);
    let warm = analyze(&small);
    analyze(&big);
    assert!(analyze(&small) > warm, "the taint scratch was kept");
    assert_eq!(analyze(&small), warm);
}

/// A warmed scanner keeps its offset scratch and its regex machines, so
/// `collect_hits` allocates exactly the `FileHits` it returns — as many
/// allocations as cloning them takes: the slot vector (when a string hit)
/// plus one offset vector per string that hit.
#[test]
fn a_warm_collect_hits_allocates_only_its_hits() {
    let entries = upload_entries();
    let scanner = warmed_scanner(&entries);
    let (mut units_hit, mut total) = (0usize, 0u64);
    for entry in &entries {
        let (hits, calls) = counted(|| scanner.collect_hits(entry.bytes()));
        let (_, own) = counted(|| hits.clone());
        assert_eq!(calls, own, "{} ({} hits)", entry.name(), hits.hit_count());
        units_hit += usize::from(!hits.is_empty());
        total += calls;
    }
    println!(
        "collect_hits made {total} allocations over {} files",
        entries.len()
    );
    // Vacuity guard: the regex and the literal passes both found strings.
    assert!(
        entries.len() > 300 && units_hit > entries.len() / 4,
        "{units_hit} of {} files hit",
        entries.len()
    );
}

/// `FileAnalysis::build` with a warmed scanner, over every upload file,
/// stays within the allocations it was measured at: 32 727 for the lex,
/// parse, intern, decode, taint and YARA passes of every file together,
/// its parse arrays and taint scratch grown by a first pass as the scanner
/// is warmed. While the taint engine allocated per call, binding and fold
/// the same builds made 98 517; with a boxed tree as well (commit 3628db6),
/// 304 968; and at commit 05c0f47, where each scan unit also got a fresh
/// offset scratch, Pike VM and lazy DFA and the decoder cloned every
/// literal into its queue, 369 384.
#[test]
fn an_artifact_build_stays_within_its_allocation_budget() {
    const BUDGET: u64 = 33_500;
    let entries = upload_entries();
    let scanner = warmed_scanner(&entries);
    let config = ArtifactConfig::default();
    for entry in &entries {
        FileAnalysis::build(entry, Some(&scanner), &config);
    }
    let mut total = 0u64;
    for entry in &entries {
        total += counted(|| FileAnalysis::build(entry, Some(&scanner), &config)).1;
    }
    println!(
        "FileAnalysis::build made {total} allocations over {} files",
        entries.len()
    );
    assert!(
        total <= BUDGET,
        "FileAnalysis::build made {total} allocations"
    );
}

/// A splice copies each of the donor's arrays in slices, so a one-line
/// bump allocates per array, not per statement: onto a donor of 40
/// literal-free statements and onto one of 320, it makes the same number
/// of allocations. When the splice cloned the donor's statements one by
/// one (commit 3628db6), assembling the module grew with the donor.
#[test]
fn a_splice_allocates_per_array_not_per_statement() {
    let config = ArtifactConfig {
        max_decode_depth: 0,
        dataflow: false,
    };
    let splice = |n: usize| {
        let code = |bump: &str| -> Vec<u8> {
            let line = |i: usize| format!("v{i} = w{i}{}\n", if i == n / 2 { bump } else { "" });
            (0..n).map(line).collect::<String>().into_bytes()
        };
        let donor = FileAnalysis::build(&FileEntry::new("mod.py", code("")), None, &config);
        let bumped = FileEntry::new("mod.py", code("x"));
        let (spliced, calls) =
            counted(|| FileAnalysis::build_spliced(&bumped, &donor, None, &config));
        assert!(spliced.is_some(), "a {n}-statement donor fell back");
        calls
    };
    let (small, large) = (splice(40), splice(320));
    println!("a splice made {small} allocations onto 40 statements, {large} onto 320");
    assert_eq!(small, large);
}

/// A warm Semgrep walk, the hub's per-module `MatchSet` pass with one
/// reused `MatchScratch` and one reused findings buffer, stays within the
/// allocations it was measured at over every Python module of the
/// corpus: 14 157 for 3 810 leaf tests and 365 findings. Each finding
/// owns its rule id and message (730 of them); the rest are the leaf
/// tests' expression lists and metavariable bindings and each matching
/// rule's line list. Nothing is allocated for pattern text, which
/// `compile` parsed: parsing a leaf's pattern again at each leaf test
/// would add a module's text, line index and arrays per test.
#[test]
fn a_warm_semgrep_walk_stays_within_its_allocation_budget() {
    const BUDGET: u64 = 14_500;
    let set = MatchSet::new(&serving_rules().1);
    let modules: Vec<pysrc::Module> = python_sources()
        .iter()
        .map(|src| pysrc::parse_module(src))
        .collect();
    let (mut scratch, mut findings) = (MatchScratch::new(), Vec::new());
    let mut walk = |module: &pysrc::Module| {
        findings.clear();
        set.match_module_set_into(module, |_| true, &mut scratch, &mut findings);
        findings.len()
    };
    // Grow the scratch's per-leaf slots and the buffer first.
    for module in &modules {
        walk(module);
    }
    let (mut total, mut found) = (0u64, 0usize);
    for module in &modules {
        let (n, calls) = counted(|| walk(module));
        total += calls;
        found += n;
    }
    println!(
        "the Semgrep walk made {total} allocations over {} modules, {found} findings",
        modules.len()
    );
    // Vacuity guard: the generated rules match the corpus.
    assert!(
        modules.len() >= 100 && found > 0,
        "{} modules, {found} findings",
        modules.len()
    );
    assert!(total <= BUDGET, "the Semgrep walk made {total} allocations");
}

/// The allocations of one cold package's artifact builds and of one
/// one-line splice, each booked to the build step it was made in, stay
/// within that step's budget; a failure names the step. Scanner, parse
/// arrays and taint scratch are warmed first, as a worker's are. Cold, the
/// taint step allocates only the package's summaries; a splice re-runs it,
/// and the decode and hits steps, over the whole file.
#[test]
fn each_build_step_stays_within_its_allocation_budget() {
    let check = |what: &str, spent: [u64; STAGES], budgets: &[(Stage, u64)]| {
        let steps = Stage::ALL.into_iter().zip(spent);
        let booked: Vec<_> = steps.clone().filter(|(_, n)| *n > 0).collect();
        println!("{what}: {booked:?}");
        for (stage, spent) in steps {
            let budget = budgets.iter().find(|b| b.0 == stage).map_or(0, |b| b.1);
            assert!(
                spent <= budget,
                "{what}: the {stage:?} step made {spent} allocations, over its budget of {budget}"
            );
        }
    };
    let entries = upload_entries();
    let scanner = warmed_scanner(&entries);
    let config = ArtifactConfig::default();
    for entry in &entries {
        FileAnalysis::build(entry, Some(&scanner), &config);
    }
    let package = ScanRequest::from_package(&packages()[0]);
    let cold = ledger(|| {
        for entry in package.files() {
            FileAnalysis::build(entry, Some(&scanner), &config);
        }
    });
    check(
        "a cold package",
        cold,
        &[
            (Stage::Lex, 4),
            (Stage::Parse, 22),
            (Stage::Intern, 46),
            (Stage::Decode, 5),
            (Stage::Taint, 9),
            (Stage::Hits, 17),
            (Stage::Assemble, 3),
        ],
    );

    let code = |bump: &str| -> Vec<u8> {
        let line = |i: usize| {
            format!(
                "v{i} = os.getenv('K{i}'){}\n",
                if i == 20 { bump } else { "" }
            )
        };
        let body: String = (0..40).map(line).collect();
        (body + "os.system(v20)\n").into_bytes()
    };
    let donor = FileAnalysis::build(&FileEntry::new("mod.py", code("")), Some(&scanner), &config);
    let bumped = FileEntry::new("mod.py", code(" + 'x'"));
    let splice = ledger(|| {
        let spliced = FileAnalysis::build_spliced(&bumped, &donor, Some(&scanner), &config);
        assert!(spliced.is_some(), "the splice fell back");
    });
    check(
        "a one-line splice",
        splice,
        &[
            (Stage::Lex, 1),
            (Stage::Parse, 9),
            (Stage::Intern, 58),
            (Stage::Decode, 3),
            (Stage::Taint, 9),
            (Stage::Hits, 5),
            (Stage::Assemble, 2),
        ],
    );
}
