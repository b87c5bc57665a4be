//! Golden digests pinning RuleLLM's extraction leaves over the whole tiny
//! corpus: the basic-unit splitter (§IV-A) and the code embedder (§III-B).
//!
//! Every unit's text decides what the LLM audits and prompts on, and every
//! embedding bit decides the K-Means grouping, so a rewrite of either must
//! reproduce them to the byte. Both digests fold an FNV-1a over every
//! Python file of the tiny corpus and of its light, medium and aggressive
//! mutants (seed 42), in the shape of `LEX_DIGEST` / `PARSE_DIGEST` in
//! `crates/corpus/tests/front_end_golden.rs`. Each file is read twice: as
//! written, and wrapped into one `def` block whose lines end in `\r\r\n`,
//! so that every file over 4 000 bytes takes the oversized-unit split and
//! every line it re-reads drops the `\r` that `str::lines` leaves.
//!
//! - `UNITS_DIGEST` folds every basic unit's `start_line` and `code`;
//! - `EMBED_DIGEST` folds the f32 bit patterns of every `embed_source`
//!   mean and segment, over the files and over each of their units.
//!
//! A change to either constant needs a stated reason in the commit that
//! makes it.

use corpus::{mutate_dataset, CorpusConfig, Dataset};
use embedding::Embedder;
use obfuscate::EvasionProfile;

/// Recorded at commit cbccb08, before the splitter and the embedder
/// stopped copying their input.
const UNITS_DIGEST: u64 = 0xb2b5_de87_38ea_1b66;
const EMBED_DIGEST: u64 = 0xe703_a47e_56ff_b51f;

/// Every Python file of the tiny corpus and its standard mutants, then
/// each of them wrapped into one oversized `def` with `\r\r\n` endings.
fn sources() -> Vec<String> {
    let base = Dataset::generate(&CorpusConfig::tiny());
    let mut datasets = vec![base.clone()];
    for profile in EvasionProfile::standard() {
        datasets.push(mutate_dataset(&base, &profile, 42));
    }
    let mut files = Vec::new();
    for dataset in &datasets {
        let packages = dataset
            .malware
            .iter()
            .map(|m| &m.package)
            .chain(dataset.legit.iter().map(|l| &l.package));
        for package in packages {
            for file in package.files().iter().filter(|f| f.path.ends_with(".py")) {
                files.push(file.contents.clone());
            }
        }
    }
    let wrapped: Vec<String> = files
        .iter()
        .map(|src| {
            let mut out = String::from("def wrapped():\r\r\n");
            for line in src.lines() {
                out.push_str("    ");
                out.push_str(line);
                out.push_str("\r\r\n");
            }
            out
        })
        .collect();
    files.extend(wrapped);
    files
}

fn fold(acc: &mut u64, pieces: &[&[u8]]) {
    let mut bytes = acc.to_le_bytes().to_vec();
    for piece in pieces {
        bytes.extend_from_slice(piece);
    }
    *acc = digest::fnv1a(&bytes);
}

fn fold_embedding(acc: &mut u64, embedder: &Embedder, source: &str) {
    let embedding = embedder.embed_source(source);
    let bits =
        |v: &[f32]| -> Vec<u8> { v.iter().flat_map(|x| x.to_bits().to_le_bytes()).collect() };
    let count = embedding.segments.len().to_le_bytes();
    fold(acc, &[&count, &bits(&embedding.mean)]);
    for segment in &embedding.segments {
        fold(acc, &[&bits(segment)]);
    }
}

#[test]
fn basic_units_are_pinned() {
    let (mut acc, mut units, mut pieces) = (0u64, 0usize, 0usize);
    for src in sources() {
        for unit in rulellm::split_basic_units(&src) {
            fold(
                &mut acc,
                &[&unit.start_line.to_le_bytes(), unit.code.as_bytes()],
            );
            units += 1;
            // Only the oversized split opens a unit on an indented line.
            pieces += usize::from(unit.start_line > 1 && unit.code.starts_with(' '));
        }
    }
    // Vacuity guard: the wrapped files reach the oversized split.
    assert!(
        units > 1_000 && pieces > 0,
        "{units} units, {pieces} split pieces"
    );
    assert_eq!(acc, UNITS_DIGEST, "units digest is now {acc:#018x}");
}

#[test]
fn embeddings_are_pinned() {
    let embedder = Embedder::default();
    let mut acc = 0u64;
    for src in sources() {
        fold_embedding(&mut acc, &embedder, &src);
        for unit in rulellm::split_basic_units(&src) {
            fold_embedding(&mut acc, &embedder, &unit.code);
        }
    }
    assert_eq!(acc, EMBED_DIGEST, "embed digest is now {acc:#018x}");
}
