//! `textmatch` — pattern-matching substrate for the RuleLLM reproduction.
//!
//! The paper's YARA engine, Semgrep engine, score-based baseline and
//! basic-unit splitter all need text search primitives. This crate provides
//! two from-scratch engines:
//!
//! * [`Regex`] — a byte-oriented regular-expression engine (Thompson NFA,
//!   single-pass Pike-VM execution with literal acceleration) supporting
//!   the subset of syntax that appears in YARA rules: literals, escapes,
//!   character classes, `.`, anchors, alternation, groups, and
//!   bounded/unbounded quantifiers. `find`/`find_all` run in
//!   `O(len * insts)`; compile-time [`ScanInfo`] hints (anchoring,
//!   mandatory first bytes, literal prefixes) skip hopeless offsets.
//! * [`AhoCorasick`] — a multi-pattern substring scanner used to match the
//!   `strings:` section of many YARA rules against a package in one pass.
//!
//! On top of those sit the **tiered fast paths** the scan services use:
//!
//! * [`MultiLiteral`] — tier-selecting multi-pattern matcher that routes
//!   small/long pattern sets to a Teddy-style SWAR prefilter ([`Teddy`])
//!   and everything else to [`AhoCorasick`], with identical match
//!   streams either way.
//! * [`Regex`] transparently runs a bounded lazy DFA (built on demand
//!   from the same NFA) as an existence gate before Pike-VM span
//!   extraction, falling back to the Pike VM when a program is
//!   ineligible (word boundaries) or the state cache thrashes. A
//!   [`RegexCache`] keeps both machines across haystacks, so a scanner
//!   running one pattern over many units determinizes each DFA state
//!   once ([`Regex::find_each`], [`Regex::is_match_in`]). The uncached
//!   entry points ([`Regex::is_match`], [`Regex::find_at`],
//!   [`Regex::find_all`]) are those calls over a fresh cache.
//!
//! Tier activity is observable through [`engine_counters`]. The seed's
//! restart-per-offset scan that the Pike VM replaced is not shipped here:
//! it lives in the dev-only `oracles` crate, which runs the programs this
//! crate compiles through the hidden `internals` module.
//!
//! # Examples
//!
//! ```
//! use textmatch::Regex;
//!
//! let re = Regex::new(r"([A-Za-z0-9+/]{4}){2,}(==|=)?")?;
//! assert!(re.is_match(b"payload = aGVsbG8gd29ybGQ="));
//! # Ok::<(), textmatch::RegexError>(())
//! ```
//!
//! ```
//! use textmatch::{AhoCorasick, MatchKind};
//!
//! let ac = AhoCorasick::new(&["os.system", "subprocess"], MatchKind::CaseSensitive);
//! let hits = ac.find_all(b"import subprocess; os.system('id')");
//! assert_eq!(hits.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ac;
mod ast;
mod charclass;
mod counters;
mod dfa;
mod error;
mod literal;
mod multi;
mod nfa;
mod parser;
mod teddy;

pub use ac::{AcMatch, AhoCorasick, MatchKind};
pub use ast::{Ast, Quantifier};
pub use charclass::CharClass;
pub use counters::{engine_counters, EngineCounters};
pub use dfa::{DfaOutcome, MAX_DFA_STATES, MAX_FLUSHES_PER_SCAN};
pub use error::RegexError;
pub use literal::ScanInfo;
pub use multi::{MultiLiteral, MAX_TEDDY_PATTERNS, MIN_TEDDY_PATTERN_LEN};
pub use nfa::{Match, Program, Regex, RegexCache, DFA_MIN_HAYSTACK};
pub use parser::parse;
pub use teddy::Teddy;

/// What the `oracles` crate's seed regex engine reads, so that it runs
/// the exact program a [`Regex`] compiled. Not a stable API.
#[doc(hidden)]
pub mod internals {
    pub use crate::nfa::{is_word_byte, ByteSet, Inst};

    impl crate::Program {
        /// The program's instructions; execution starts at index 0.
        #[doc(hidden)]
        pub fn insts(&self) -> &[Inst] {
            &self.insts
        }
    }
}
