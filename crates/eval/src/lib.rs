//! `rulellm-eval` — the paper's evaluation harness (§V).
//!
//! One module per concern:
//!
//! * [`metrics`] — confusion matrices and the accuracy / precision /
//!   recall / F1 derivations every table reports;
//! * [`scan`] — parallel package scanning against YARA and Semgrep
//!   rulesets (package-level detection: a package is flagged when at
//!   least one rule matches);
//! * [`experiments`] — one entry point per table and figure: Table VIII
//!   (main comparison), Table IX (LLM sweep), Table X (ablation),
//!   Table XI (rule counts), Table XII (taxonomy), Figures 5–11, and the
//!   §V-B variant-detection experiment;
//! * [`robustness`] — adversarial-mutation experiment: per-transform and
//!   per-profile recall/precision decay for every rule source, over
//!   corpora mutated by the `obfuscate` engine;
//! * [`report`] — text renderings that mirror the paper's layout, used by
//!   the `repro` binary in `rulellm-bench`.
//!
//! # Examples
//!
//! ```no_run
//! use corpus::CorpusConfig;
//! use eval::experiments::{table8, ExperimentContext};
//!
//! let ctx = ExperimentContext::new(&CorpusConfig::small());
//! let (rows, _matches) = table8(&ctx);
//! for row in &rows {
//!     println!("{}", row.render());
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod metrics;
pub mod report;
pub mod robustness;
pub mod scan;
