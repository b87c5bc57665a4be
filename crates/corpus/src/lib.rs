//! `rulellm-corpus` — the synthetic package dataset.
//!
//! The paper evaluates on 3,200 GuardDog malware packages (1,633 after
//! signature dedup, avg 424 LoC) and 500 popular legitimate packages
//! (avg 3,052 LoC) — Table VI. GuardDog's corpus and the top-PyPI snapshot
//! are external data we cannot ship, so this crate *generates* a corpus
//! with the same observable structure (DESIGN.md substitution table):
//!
//! * ~40 malicious behavior templates spanning the paper's rule taxonomy
//!   (Table XII) — C2 beacons, base64-obfuscated `exec`, credential
//!   theft, install hooks, anti-VM checks, typosquatting metadata, ...;
//! * malware families that combine behaviors; variants within a family
//!   differ in identifiers, hosts and payloads (exercising clustering and
//!   variant detection, §V-B);
//! * byte-identical duplicates so signature dedup reproduces 3,200 → 1,633;
//! * legitimate packages with realistic bulk (utility modules, clients,
//!   tests) including benign `subprocess`/`base64`/`requests` usage that
//!   punishes over-general rules.
//!
//! Everything is seeded and deterministic.
//!
//! # Examples
//!
//! ```
//! use corpus::{CorpusConfig, Dataset};
//!
//! let dataset = Dataset::generate(&CorpusConfig::tiny());
//! assert!(dataset.malware.len() >= dataset.unique_malware().len());
//! assert!(dataset.legit.iter().all(|p| p.package.loc() > 50));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod behaviors;
mod dataset;
mod families;
mod legit;
mod malware;
mod mutants;
mod naming;

pub use behaviors::{Behavior, BehaviorTag, CATEGORIES};
pub use dataset::{CorpusConfig, Dataset, DatasetStats, LabeledLegit, LabeledMalware};
pub use families::{Family, MetadataStyle, FAMILIES};
pub use legit::generate_legit_package;
pub use malware::generate_malware_package;
pub use mutants::{mutate_dataset, mutated_legit, mutated_malware};
