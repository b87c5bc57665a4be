//! Property-based tests for the hashing/encoding substrate.

use proptest::prelude::*;

proptest! {
    #[test]
    fn base64_roundtrips_arbitrary_bytes(data in prop::collection::vec(any::<u8>(), 0..256)) {
        let encoded = digest::base64::encode(&data);
        prop_assert_eq!(digest::base64::decode(&encoded).expect("decode"), data);
    }

    #[test]
    fn base64_output_alphabet_is_clean(data in prop::collection::vec(any::<u8>(), 0..128)) {
        let encoded = digest::base64::encode(&data);
        prop_assert!(encoded
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'+' || b == b'/' || b == b'='));
        prop_assert_eq!(encoded.len() % 4, 0);
    }

    #[test]
    fn sha256_is_deterministic_and_sensitive(data in prop::collection::vec(any::<u8>(), 1..128)) {
        let a = digest::sha256(&data);
        let b = digest::sha256(&data);
        prop_assert_eq!(a, b);
        let mut mutated = data.clone();
        mutated[0] = mutated[0].wrapping_add(1);
        prop_assert_ne!(digest::sha256(&mutated), a);
    }

    #[test]
    fn sha256_hex_is_64_lower_hex(data in prop::collection::vec(any::<u8>(), 0..64)) {
        let hex = digest::sha256_hex(&data);
        prop_assert_eq!(hex.len(), 64);
        prop_assert!(hex.bytes().all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase()));
    }

    #[test]
    fn blake2b_is_deterministic_and_sensitive(
        data in prop::collection::vec(any::<u8>(), 1..512),
        at in any::<usize>(),
        bit in 0u32..8,
    ) {
        let a = digest::blake2b256(&data);
        prop_assert_eq!(digest::blake2b256(&data), a);
        let mut mutated = data.clone();
        mutated[at % data.len()] ^= 1 << bit;
        prop_assert_ne!(digest::blake2b256(&mutated), a);
    }

    #[test]
    fn blake2b_streamed_in_random_pieces_equals_one_shot(
        data in prop::collection::vec(any::<u8>(), 0..1024),
        whole_blocks in any::<bool>(),
        cuts in prop::collection::vec(any::<usize>(), 0..8),
    ) {
        // Half the messages end on a block boundary, where the last full
        // block must wait for `finalize`.
        let mut data = data;
        if whole_blocks {
            data.truncate(data.len() / 128 * 128);
        }
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
        cuts.sort_unstable();
        let mut hasher = digest::Blake2b256::new();
        let mut from = 0;
        for cut in cuts {
            hasher.update(&data[from..cut]);
            from = cut;
        }
        hasher.update(&data[from..]);
        prop_assert_eq!(hasher.finalize(), digest::blake2b256(&data));
    }

    #[test]
    fn entropy_bounds(data in prop::collection::vec(any::<u8>(), 0..512)) {
        let e = digest::shannon_entropy(&data);
        prop_assert!((0.0..=8.0).contains(&e), "{e}");
    }

    #[test]
    fn entropy_of_constant_is_zero(byte in any::<u8>(), len in 1usize..64) {
        let data = vec![byte; len];
        prop_assert_eq!(digest::shannon_entropy(&data), 0.0);
    }

    #[test]
    fn fnv_collision_free_on_small_distinct_pairs(a in "[a-z]{1,12}", b in "[a-z]{1,12}") {
        prop_assume!(a != b);
        // Not a guarantee in general, but at this scale a collision would
        // indicate a broken implementation.
        prop_assert_ne!(digest::fnv1a(a.as_bytes()), digest::fnv1a(b.as_bytes()));
    }
}
