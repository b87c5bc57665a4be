//! A `MultiLiteral` over no patterns streams nothing: over a 1 MiB
//! haystack its visitor is never called, every search answers empty, and
//! no tier counter moves.
//!
//! The counters are process-global, so this file holds exactly one test:
//! an integration-test file is its own process.

use textmatch::{engine_counters, MatchKind, MultiLiteral};

#[test]
fn an_empty_set_reads_no_haystack_and_books_no_scan() {
    let haystack = vec![b'a'; 1 << 20];
    let before = engine_counters();
    for kind in [MatchKind::CaseSensitive, MatchKind::CaseInsensitive] {
        let empty = MultiLiteral::new(&[] as &[&[u8]], kind);
        let mut visits = 0;
        empty.for_each_match(&haystack, |_| {
            visits += 1;
            true
        });
        assert_eq!(visits, 0);
        assert!(!empty.is_match(&haystack));
        assert!(empty.find_all(&haystack).is_empty());
        assert!(empty.find_per_pattern(&haystack).is_empty());
    }
    assert_eq!(engine_counters(), before, "an empty set booked a scan");
}
