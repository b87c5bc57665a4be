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
//! the step of an artifact build that broke it, and to a process-wide
//! ledger of the same stages, which is how a test reads what a hub's
//! worker threads spent.
//!
//! Every budget runs over the files of the tiny corpus and of its
//! aggressive mutants (seed 42): the front end's over their Python files,
//! the file set of the front-end golden digests, and those of
//! `FileAnalysis::build` and the YARA scanner over every file of every
//! upload, `PKG-INFO` included.

use std::alloc::{GlobalAlloc, Layout, System};
use std::borrow::Cow;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use corpus::{mutate_dataset, CorpusConfig, Dataset};
use obfuscate::EvasionProfile;
use oss_registry::Package;
use pysrc::TokenKind;
use scanhub::{ArtifactConfig, FileAnalysis, FileEntry, HubConfig, ScanHub, ScanRequest, Stage};
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

/// Every thread's allocations, by stage.
static ALL_BY_STAGE: [AtomicU64; STAGES] = [const { AtomicU64::new(0) }; STAGES];

/// Held by each test that runs a hub, so that no other hub's workers book
/// into [`ALL_BY_STAGE`] while a test reads it.
static HUB: Mutex<()> = Mutex::new(());

fn record() {
    // A thread being torn down has no slot left; its calls go uncounted.
    let _ = CALLS.try_with(|calls| calls.set(calls.get() + 1));
    let stage = Stage::current() as usize;
    let _ = BY_STAGE.try_with(|ledger| ledger[stage].set(ledger[stage].get() + 1));
    ALL_BY_STAGE[stage].fetch_add(1, Ordering::Relaxed);
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
/// within that step's budget; a failure names the step. Scanner, parse
/// arrays and taint scratch are warmed first, as a worker's are. Cold, the
/// taint step allocates only the package's summaries; a splice re-runs it,
/// and the decode and hits steps, over the whole file.
#[test]
fn each_build_step_stays_within_its_allocation_budget() {
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
    check_ledger(
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
    check_ledger(
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

/// The allocations of one retro-hunt and of its exhaustive rescan, each
/// booked to the stage it was made in, stay within that stage's budget;
/// a failure names the stage. A one-worker hub over the serving rules
/// holds every upload of the corpus and its mutants; the deployment adds
/// a YARA atom rule, a regex-only YARA rule (full candidacy) and a
/// Semgrep rule to that bundle. The hunt books its index query to
/// `RetroQuery`, each confirm scan to `RetroConfirm`, and the evaluator's
/// construction and the report's assembly to `Idle`; the rescan queries
/// no index.
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
    // While the evaluator collected findings and string matches to keep
    // only their names, the same hunt made RetroConfirm 660; while the
    // confirm scan kept its own evaluation path, per-rule digest sets and
    // name map, RetroQuery 648, RetroConfirm 1 023 and Idle 39.
    check_ledger(
        "a retro-hunt",
        spent,
        &[
            (Stage::RetroQuery, 648),
            (Stage::RetroConfirm, 488),
            (Stage::Idle, 68),
        ],
    );
    let mut rescan = None;
    let spent = ledger(|| rescan = hub.retro_rescan(&deployment));
    let rescan = rescan.expect("retro index enabled");
    // RetroConfirm 660, and 1 023 with Idle 657 before that.
    check_ledger(
        "its rescan",
        spent,
        &[(Stage::RetroConfirm, 488), (Stage::Idle, 689)],
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

/// Evaluating rules over cached artifacts allocates only the verdict. A
/// one-worker hub over the serving rules, with its verdict cache off,
/// scans every upload of the corpus and its mutants, then scans them all
/// again, every file an artifact hit. On the second pass the `Yara`,
/// `Layers` and `Semgrep` stages of each package book exactly what its
/// verdict holds: one string per YARA rule name, two per layer finding
/// (rule and file), one per Semgrep rule id, and the growth of each of
/// the three lists; a failure names the stage and the package.
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
    let (before, mut found) = (hub.stats(), [0usize; 3]);
    for (i, request) in requests.iter().enumerate() {
        let read = || ALL_BY_STAGE.each_ref().map(|n| n.load(Ordering::Relaxed));
        let start = read();
        let verdict = hub.submit(request.clone()).wait();
        let spent = read();
        let own = [
            (Stage::Yara, verdict.yara.len(), 1),
            (Stage::Layers, verdict.layers.len(), 2),
            (Stage::Semgrep, verdict.semgrep.len(), 1),
        ];
        for (k, (stage, n, strings)) in own.into_iter().enumerate() {
            let booked = spent[stage as usize] - start[stage as usize];
            let verdict_own = strings * n as u64 + list_growth(n);
            assert_eq!(
                booked, verdict_own,
                "package {i}: the {stage:?} stage made {booked} allocations for {n} findings"
            );
            found[k] += n;
        }
    }
    println!(
        "{} packages re-scanned: {} YARA names, {} layer findings, {} Semgrep ids",
        requests.len(),
        found[0],
        found[1],
        found[2]
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
