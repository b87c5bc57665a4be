//! Allocation budgets of the cold path's front end, as exact counts.
//!
//! Allocation counts repeat to the bit where timings do not, so they are
//! what a tier-1 test can hold the lexer, the parser and the taint engine
//! to. This binary installs its own counting `#[global_allocator]`; each
//! thread counts into its own thread-local, so tests running in parallel
//! do not see each other's allocations. A `realloc` counts as one allocation, as in
//! the benchmark's counter (`benchmark/src/alloc.rs`).
//!
//! Every budget runs over every Python file of the tiny corpus and of its
//! aggressive mutants (seed 42), the file set of the front-end golden
//! digests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::borrow::Cow;
use std::cell::Cell;

use corpus::{mutate_dataset, CorpusConfig, Dataset};
use obfuscate::EvasionProfile;
use pysrc::TokenKind;

struct Counting;

thread_local! {
    // Const-initialised and without a destructor: touching it from inside
    // the allocator neither allocates nor registers anything.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn record() {
    // A thread being torn down has no slot left; its calls go uncounted.
    let _ = CALLS.try_with(|calls| calls.set(calls.get() + 1));
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

/// Every Python file of the tiny corpus and its aggressive mutants.
fn python_sources() -> Vec<String> {
    let base = Dataset::generate(&CorpusConfig::tiny());
    let mutants = mutate_dataset(&base, &EvasionProfile::aggressive(), 42);
    let mut out = Vec::new();
    for dataset in [&base, &mutants] {
        let packages = dataset
            .malware
            .iter()
            .map(|m| &m.package)
            .chain(dataset.legit.iter().map(|l| &l.package));
        for package in packages {
            for file in package.files().iter().filter(|f| f.path.ends_with(".py")) {
                out.push(file.contents.clone());
            }
        }
    }
    out
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

/// `parse_module` over the corpus stays within half of the 434 766
/// allocations the parser made when its tree owned every name as a
/// `String`. It now makes 210 921, the lex's 1 338 included: the tree's
/// boxes and vectors, each header expression, one copy of the text and
/// one `LineIndex` per file, owned literal values and `Other` renderings.
#[test]
fn a_parse_allocates_its_tree_not_its_text() {
    const BUDGET: u64 = 217_000;
    let mut total = 0u64;
    for src in python_sources() {
        total += counted(|| pysrc::parse_module(&src)).1;
    }
    println!("parse_module made {total} allocations");
    assert!(total <= BUDGET, "parse_module made {total} allocations");
}

/// `dataflow::analyze` over the corpus stays within the allocations this
/// engine was measured at: 70 026. It made 181 247 while it
/// re-lexed and re-parsed every block header's rendered text (110 338 of
/// them), and the engine at commit 705df2b — which cloned every constant
/// it evaluated, cloned the whole scope at each `def` and lexed every
/// header into owned token text — made 589 277 on the same files.
#[test]
fn the_taint_engine_stays_within_its_allocation_budget() {
    const BUDGET: u64 = 71_000;
    let mut total = 0u64;
    for src in python_sources() {
        let module = pysrc::parse_module(&src);
        total += counted(|| dataflow::analyze(&module)).1;
    }
    println!("analyze made {total} allocations");
    assert!(total <= BUDGET, "analyze made {total} allocations");
}
