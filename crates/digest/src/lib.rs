//! `rulellm-digest` — hashing and encoding substrate.
//!
//! The paper deduplicates the 3,200-package GuardDog corpus down to 1,633
//! unique packages by content signature (§V-A) and its malware samples
//! carry base64-obfuscated payloads. This crate provides the primitives
//! both of those need:
//!
//! * [`blake2b256`] / [`Blake2b256`] — BLAKE2b-256 (RFC 7693), the one
//!   content hash: package signatures for deduplication and the scan
//!   hub's cache keys.
//! * [`sha256`] / [`Sha256`] — SHA-256 (FIPS 180-4), no longer used for
//!   content keys.
//! * [`fnv1a`] — cheap 64-bit hashing for embedding feature buckets.
//! * [`base64`] — encode/decode used by the synthetic corpus to build (and
//!   the analyzers to unwrap) obfuscated payloads.
//! * [`shannon_entropy`] — string randomness score used by the score-based
//!   baseline (information-entropy component, §V-A).
//!
//! # Examples
//!
//! ```
//! let key = digest::blake2b256(b"malware-package-contents");
//! let mut hasher = digest::Blake2b256::new();
//! hasher.update(b"malware-");
//! hasher.update(b"package-contents");
//! assert_eq!(hasher.finalize(), key);
//! assert_eq!(digest::to_hex(&key).len(), 64);
//!
//! let enc = digest::base64::encode(b"import os");
//! assert_eq!(digest::base64::decode(&enc).unwrap(), b"import os");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod base64;
mod blake2b;
mod entropy;
mod fnv;
mod sha256;

pub use blake2b::{blake2b256, Blake2b256};
pub use entropy::shannon_entropy;
pub use fnv::fnv1a;
pub use sha256::{sha256, sha256_hex, Sha256};

/// Renders a raw digest as 64 lowercase hex chars.
pub fn to_hex(digest: &[u8; 32]) -> String {
    let mut s = String::with_capacity(64);
    for &b in digest {
        s.push(char::from_digit((b >> 4) as u32, 16).expect("nibble"));
        s.push(char::from_digit((b & 0xF) as u32, 16).expect("nibble"));
    }
    s
}
