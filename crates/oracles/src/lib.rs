//! `oracles` — the seed engines the live matchers replaced, kept as
//! differential oracles.
//!
//! * [`ReferenceRegex`] — the restart-per-offset quadratic regex scan,
//!   running the exact program [`textmatch::Regex`] compiles;
//! * [`semgrep::match_module`] — the reparse-per-call structural matcher,
//!   running the leaf matcher [`semgrep_engine::MatchSet`] runs.
//!
//! Both read their engine's `#[doc(hidden)] internals` module, so an
//! oracle and its engine can differ only in the scan strategy. This crate
//! is reached through `[dev-dependencies]` only: no serving binary links
//! it.
//!
//! # Examples
//!
//! ```
//! let live = textmatch::Regex::new("a+b")?;
//! let reference = oracles::ReferenceRegex::from_regex(&live);
//! assert_eq!(live.find_all(b"aab ab"), reference.find_all(b"aab ab"));
//! # Ok::<(), textmatch::RegexError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod regex;
pub mod semgrep;

pub use regex::ReferenceRegex;
