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
//! * [`fnv1a`] / [`Fnv1a`] — cheap 64-bit hashing for embedding feature
//!   buckets, one-shot or streamed over a feature's parts.
//! * [`base64`] — encode/decode used by the synthetic corpus to build (and
//!   the analyzers to unwrap) obfuscated payloads.
//! * [`hex`] — [`to_hex`]/[`from_hex`] for digests, and
//!   [`hex::decode_into`], the one `bytes.fromhex(...)` decoder: the
//!   artifact builder's hex layers and the dataflow folder both call it.
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
pub mod hex;
mod sha256;

pub use blake2b::{blake2b256, Blake2b256};
pub use entropy::shannon_entropy;
pub use fnv::{fnv1a, Fnv1a};
pub use hex::{from_hex, to_hex};
pub use sha256::{sha256, sha256_hex, Sha256};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trips_and_rejects_malformed_input() {
        let key = blake2b256(b"import os");
        assert_eq!(from_hex(&to_hex(&key)), Some(key));
        assert_eq!(from_hex(&to_hex(&key).to_uppercase()), Some(key));
        let hex = to_hex(&key);
        assert_eq!(from_hex(&hex[..62]), None, "too short");
        assert_eq!(from_hex(&format!("{hex}00")), None, "too long");
        assert_eq!(from_hex(""), None);
        assert_eq!(from_hex(&format!("{}zz", &hex[..62])), None, "not hex");
        assert_eq!(from_hex(&format!("+{}", &hex[..63])), None, "a sign");
        // 64 bytes, but a non-ASCII char's bytes are no hex digits.
        assert_eq!(from_hex(&format!("é{}", &hex[..62])), None);
    }
}
