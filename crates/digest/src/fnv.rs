//! FNV-1a 64-bit hash — feature bucketing for the embedding substrate.

const OFFSET: u64 = 0xcbf29ce484222325;
const PRIME: u64 = 0x100000001b3;

/// Computes the 64-bit FNV-1a hash of `data`.
///
/// Deterministic across platforms, which keeps the embedding (and therefore
/// clustering, rule generation and every downstream table) reproducible.
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(data);
    h.finish()
}

/// Streaming [`fnv1a`]: the pieces fed to [`Fnv1a::update`] hash as their
/// concatenation would, so a feature made of parts is hashed without
/// being joined into one buffer.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher that has read nothing.
    pub fn new() -> Self {
        Fnv1a(OFFSET)
    }

    /// Reads `data` after everything read so far.
    pub fn update(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// The hash of everything read.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Reference values for FNV-1a 64-bit.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn distinct_inputs_distinct_hashes() {
        assert_ne!(fnv1a(b"os.system"), fnv1a(b"os.popen"));
    }

    #[test]
    fn deterministic() {
        assert_eq!(fnv1a(b"token"), fnv1a(b"token"));
    }

    #[test]
    fn streamed_pieces_hash_as_their_concatenation() {
        let mut h = Fnv1a::new();
        for piece in [&b"foo"[..], b"", b"b", b"ar"] {
            h.update(piece);
        }
        assert_eq!(h.finish(), fnv1a(b"foobar"));
        assert_eq!(Fnv1a::default().finish(), fnv1a(b""));
    }
}
