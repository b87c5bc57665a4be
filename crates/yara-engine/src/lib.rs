//! `yara-engine` — a from-scratch YARA subset: lexer, parser, compiler and
//! scanner.
//!
//! The paper deploys its generated rules in the real YARA tool; the
//! alignment agent (Fig. 4, §IV-C) depends on the *compiler* to reject
//! malformed rules with actionable error messages, and the evaluation
//! (§V) depends on the *scanner* to match rules against packages. This
//! crate provides both, covering the subset of YARA that appears in
//! OSS-malware rules:
//!
//! * rule / meta / strings / condition structure with tags;
//! * text strings with `nocase`, `ascii`, `wide`, `fullword` modifiers;
//! * regex strings (`/.../i`) compiled by [`textmatch`];
//! * conditions: `and`/`or`/`not`, parentheses, string refs (`$a`),
//!   `all of them`, `any of them`, `N of ($p*)`, counts (`#a > 2`),
//!   offsets (`$a at 0`), `filesize` comparisons and boolean literals.
//!
//! Compile errors carry yara-style messages (`line 4: undefined string
//! "$url"`) because the LLM agent consumes them verbatim to repair rules.
//!
//! # Examples
//!
//! ```
//! use yara_engine::{compile, Scanner};
//!
//! let rules = compile(r#"
//! rule exec_b64 {
//!     meta:
//!         description = "base64 payload piped into exec"
//!     strings:
//!         $a = "base64.b64decode"
//!         $b = "exec("
//!     condition:
//!         all of them
//! }
//! "#)?;
//! let scanner = Scanner::new(&rules);
//! let hits = scanner.scan(b"exec(base64.b64decode(p))");
//! assert_eq!(hits.len(), 1);
//! # Ok::<(), yara_engine::CompileError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
mod atoms;
mod compiler;
mod error;
mod lexer;
mod parser;
mod scanner;

pub use ast::{Condition, MetaValue, Rule, RuleSet, StringDef, StringMods, StringValue};
pub use atoms::{literal_atoms, HitGate, RuleAtoms};
pub use compiler::{compile, CompiledRule, CompiledRules};
pub use error::CompileError;
pub use lexer::{lex, Token, TokenKind};
pub use parser::parse;
pub use scanner::{
    FileHits, HitDonor, Part, RuleMatch, ScanMetrics, ScanScratch, Scanner, StringMatch,
};
