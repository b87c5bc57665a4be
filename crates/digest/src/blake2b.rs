//! BLAKE2b-256 (RFC 7693) — the content hash of package signatures and
//! of the scan hub's cache keys.
//!
//! Unkeyed BLAKE2b with a 32-byte output: 128-bit collision resistance,
//! like SHA-256, at several times its speed in portable 64-bit code. The
//! twelve rounds are unrolled over `const` [`SIGMA`] rows, so every index
//! into the working state is a constant and the sixteen words stay in
//! registers.

const IV: [u64; 8] = [
    0x6a09e667f3bcc908,
    0xbb67ae8584caa73b,
    0x3c6ef372fe94f82b,
    0xa54ff53a5f1d36f1,
    0x510e527fade682d1,
    0x9b05688c2b3e6c1f,
    0x1f83d9abfb41bd6b,
    0x5be0cd19137e2179,
];

/// Message word schedule of each round; rounds 10 and 11 reuse rows 0
/// and 1.
const SIGMA: [[usize; 16]; 10] = [
    [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15],
    [14, 10, 4, 8, 9, 15, 13, 6, 1, 12, 0, 2, 11, 7, 5, 3],
    [11, 8, 12, 0, 5, 2, 15, 13, 10, 14, 3, 6, 7, 1, 9, 4],
    [7, 9, 3, 1, 13, 12, 11, 14, 2, 6, 5, 10, 4, 0, 15, 8],
    [9, 0, 5, 7, 2, 4, 10, 15, 14, 1, 11, 12, 6, 8, 3, 13],
    [2, 12, 6, 10, 0, 11, 8, 3, 4, 13, 7, 5, 15, 14, 1, 9],
    [12, 5, 1, 15, 14, 13, 4, 10, 0, 7, 6, 3, 9, 2, 8, 11],
    [13, 11, 7, 14, 12, 1, 3, 9, 5, 0, 15, 4, 8, 6, 2, 10],
    [6, 15, 14, 9, 11, 3, 0, 8, 12, 2, 13, 7, 1, 4, 10, 5],
    [10, 2, 8, 4, 7, 6, 1, 5, 15, 11, 9, 14, 3, 12, 13, 0],
];

const BLOCK: usize = 128;
const OUT: usize = 32;

/// An incremental BLAKE2b-256 hasher: feed slices with
/// [`Blake2b256::update`] and close with [`Blake2b256::finalize`], so a
/// composite message (length prefixes, names, large buffers) is hashed
/// without concatenating it first.
#[derive(Debug, Clone)]
pub struct Blake2b256 {
    h: [u64; 8],
    buf: [u8; BLOCK],
    buf_len: usize,
    /// Bytes compressed so far (the RFC's `t`).
    counter: u128,
}

impl Default for Blake2b256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Blake2b256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        let mut h = IV;
        // Parameter block: digest length 32, no key, fanout 1, depth 1.
        h[0] ^= 0x0101_0000 ^ OUT as u64;
        Blake2b256 {
            h,
            buf: [0; BLOCK],
            buf_len: 0,
            counter: 0,
        }
    }

    /// Absorbs `data`; equivalent to hashing the concatenation of every
    /// slice passed so far.
    ///
    /// A block is compressed only once a byte after it has arrived: the
    /// last block, full or not, waits in the buffer for
    /// [`Blake2b256::finalize`], which compresses it with the final flag.
    pub fn update(&mut self, mut data: &[u8]) {
        if data.len() > BLOCK - self.buf_len {
            if self.buf_len > 0 {
                let take = BLOCK - self.buf_len;
                self.buf[self.buf_len..].copy_from_slice(&data[..take]);
                data = &data[take..];
                let block = self.buf;
                self.compress(&block, BLOCK, false);
                self.buf_len = 0;
            }
            while data.len() > BLOCK {
                let (block, rest) = data.split_at(BLOCK);
                self.compress(block.try_into().expect("one block"), BLOCK, false);
                data = rest;
            }
        }
        self.buf[self.buf_len..self.buf_len + data.len()].copy_from_slice(data);
        self.buf_len += data.len();
    }

    /// Compresses the buffered last block and returns the digest.
    pub fn finalize(mut self) -> [u8; OUT] {
        self.buf[self.buf_len..].fill(0);
        let block = self.buf;
        self.compress(&block, self.buf_len, true);
        let mut out = [0u8; OUT];
        for (chunk, word) in out.chunks_exact_mut(8).zip(self.h) {
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// The RFC's `F`, over a block holding `len` message bytes.
    fn compress(&mut self, block: &[u8; BLOCK], len: usize, last: bool) {
        self.counter += len as u128;
        let mut m = [0u64; 16];
        for (word, bytes) in m.iter_mut().zip(block.chunks_exact(8)) {
            *word = u64::from_le_bytes(bytes.try_into().expect("8 bytes"));
        }
        let mut v = [0u64; 16];
        v[..8].copy_from_slice(&self.h);
        v[8..].copy_from_slice(&IV);
        v[12] ^= self.counter as u64;
        v[13] ^= (self.counter >> 64) as u64;
        if last {
            v[14] = !v[14];
        }

        macro_rules! g {
            ($a:literal, $b:literal, $c:literal, $d:literal, $x:expr, $y:expr) => {
                v[$a] = v[$a].wrapping_add(v[$b]).wrapping_add($x);
                v[$d] = (v[$d] ^ v[$a]).rotate_right(32);
                v[$c] = v[$c].wrapping_add(v[$d]);
                v[$b] = (v[$b] ^ v[$c]).rotate_right(24);
                v[$a] = v[$a].wrapping_add(v[$b]).wrapping_add($y);
                v[$d] = (v[$d] ^ v[$a]).rotate_right(16);
                v[$c] = v[$c].wrapping_add(v[$d]);
                v[$b] = (v[$b] ^ v[$c]).rotate_right(63);
            };
        }
        macro_rules! round {
            ($row:literal) => {{
                const S: [usize; 16] = SIGMA[$row];
                g!(0, 4, 8, 12, m[S[0]], m[S[1]]);
                g!(1, 5, 9, 13, m[S[2]], m[S[3]]);
                g!(2, 6, 10, 14, m[S[4]], m[S[5]]);
                g!(3, 7, 11, 15, m[S[6]], m[S[7]]);
                g!(0, 5, 10, 15, m[S[8]], m[S[9]]);
                g!(1, 6, 11, 12, m[S[10]], m[S[11]]);
                g!(2, 7, 8, 13, m[S[12]], m[S[13]]);
                g!(3, 4, 9, 14, m[S[14]], m[S[15]]);
            }};
        }
        round!(0);
        round!(1);
        round!(2);
        round!(3);
        round!(4);
        round!(5);
        round!(6);
        round!(7);
        round!(8);
        round!(9);
        round!(0);
        round!(1);

        for (i, h) in self.h.iter_mut().enumerate() {
            *h ^= v[i] ^ v[i + 8];
        }
    }
}

/// Computes the BLAKE2b-256 digest of `data`.
pub fn blake2b256(data: &[u8]) -> [u8; OUT] {
    let mut hasher = Blake2b256::new();
    hasher.update(data);
    hasher.finalize()
}
