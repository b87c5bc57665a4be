//! BLAKE2b-256 against CPython's `hashlib.blake2b(digest_size=32)`.
//!
//! `golden/blake2b256.txt` is written by `scripts/blake2b-oracle.py`;
//! Python does not run here. Every message is checked one-shot, and each
//! message of at most 300 bytes also through [`Blake2b256::update`] in two
//! pieces split at every offset and in three pieces split at every pair
//! of offsets, which crosses the 128- and 256-byte boundaries where the
//! last full block must wait for the final compression.

use digest::{blake2b256, Blake2b256};

const GOLDEN: &str = include_str!("golden/blake2b256.txt");

/// Byte `i` of the length-`n` message, as the oracle script builds it.
fn message(n: usize) -> Vec<u8> {
    (0..n)
        .map(|i| ((251 * i + 17 * n + 1) % 256) as u8)
        .collect()
}

/// A golden line's 64 hex chars as the raw digest.
fn unhex(hex: &str) -> [u8; 32] {
    assert_eq!(hex.len(), 64, "{hex:?}");
    std::array::from_fn(|i| u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).expect("hex digit"))
}

/// The golden's messages with their expected digests.
fn cases() -> Vec<(Vec<u8>, [u8; 32])> {
    let mut out = Vec::new();
    for line in GOLDEN.lines().filter(|l| !l.starts_with('#')) {
        let (kind, rest) = line.split_once(' ').expect("kind");
        let (first, second) = rest.split_once(' ').expect("two fields");
        out.push(match kind {
            "bytes" => (message(first.parse().expect("length")), unhex(second)),
            "ascii" => (second.as_bytes().to_vec(), unhex(first)),
            other => panic!("unknown golden line kind {other:?}"),
        });
    }
    out
}

#[test]
fn every_golden_message_hashes_one_shot_to_cpython() {
    let cases = cases();
    assert_eq!(cases.len(), 301 + 3 + 3, "golden lines");
    for (data, want) in &cases {
        assert_eq!(blake2b256(data), *want, "{} bytes", data.len());
    }
}

#[test]
fn every_split_of_short_messages_streams_to_cpython() {
    let mut checked = 0;
    for (data, want) in cases().iter().filter(|(d, _)| d.len() <= 300) {
        let n = data.len();
        for i in 0..=n {
            let mut head = Blake2b256::new();
            head.update(&data[..i]);
            let mut two = head.clone();
            two.update(&data[i..]);
            assert_eq!(two.finalize(), *want, "{n} bytes split at {i}");
            for j in i..=n {
                let mut three = head.clone();
                three.update(&data[i..j]);
                three.update(&data[j..]);
                assert_eq!(three.finalize(), *want, "{n} bytes split at {i} and {j}");
                checked += 1;
            }
        }
    }
    // Vacuity guard: every pair of cuts of every length 0..=300, and the
    // short ASCII strings.
    assert!(checked > 4_500_000, "{checked} three-piece splits");
}
