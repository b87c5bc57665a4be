//! `rulellm-bench` — the `repro` binary and the per-regex-class table.
//!
//! Timings live in `benchmark/` (see `benchmark/README.md`); the `repro`
//! binary regenerates the *content* of every table and figure in the
//! paper's evaluation section and writes no file:
//!
//! ```text
//! cargo run -p rulellm-bench --bin repro --release            # everything
//! cargo run -p rulellm-bench --bin repro --release -- --scale small
//! cargo run -p rulellm-bench --bin repro --release -- --only table8
//! ```
//!
//! Scales: `tiny` (seconds), `small` (default, ~a minute), `paper`
//! (full 1,633 + 500 corpus).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use corpus::CorpusConfig;

pub mod regexbench;

/// Resolves a scale name to a corpus configuration.
///
/// # Errors
///
/// Returns the unknown name back as the error.
pub fn scale_config(name: &str) -> Result<CorpusConfig, String> {
    match name {
        "tiny" => Ok(CorpusConfig::tiny()),
        "small" => Ok(CorpusConfig::small()),
        "paper" => Ok(CorpusConfig::paper()),
        other => Err(other.to_owned()),
    }
}

/// Validates a `repro --only <experiment>` selector.
///
/// # Errors
///
/// Returns a message naming the bad selector and listing every valid
/// experiment; the `repro` binary prints it and exits non-zero.
pub fn validate_experiment(name: &str) -> Result<(), String> {
    if EXPERIMENTS.contains(&name) {
        Ok(())
    } else {
        Err(format!("unknown experiment {name}; known: {EXPERIMENTS:?}"))
    }
}

/// The experiment names `repro --only` accepts.
pub const EXPERIMENTS: &[&str] = &[
    "table6",
    "table8",
    "table9",
    "table10",
    "table11",
    "table12",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "variants",
    "rag",
    "robustness",
    "regexbench",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_resolve() {
        assert_eq!(scale_config("tiny").map(|c| c.malware_unique), Ok(30));
        assert_eq!(scale_config("paper").map(|c| c.malware_unique), Ok(1633));
        assert!(scale_config("huge").is_err());
    }

    #[test]
    fn experiment_list_covers_all_tables_and_figures() {
        assert_eq!(EXPERIMENTS.len(), 17);
        assert!(EXPERIMENTS.contains(&"robustness"));
        assert!(EXPERIMENTS.contains(&"regexbench"));
    }

    #[test]
    fn unknown_experiments_are_rejected_with_the_valid_list() {
        for known in EXPERIMENTS {
            assert_eq!(validate_experiment(known), Ok(()));
        }
        // A typo, and the two timing selectors that moved to `benchmark/`.
        for bad in ["tabel8", "semgrepbench", "scanhubbench"] {
            let err = validate_experiment(bad).expect_err("must be rejected");
            assert!(err.contains(&format!("unknown experiment {bad};")));
            for known in EXPERIMENTS {
                assert!(err.contains(known), "error must list {known}");
            }
        }
    }
}
