//! Property suites for the log-linear histogram: quantile accuracy
//! against exact sorted-slice percentiles, and lossless concurrent
//! recording.

use proptest::prelude::*;
use telemetry::{bucket_bounds, bucket_index, FlightRecorder, Histogram, SUB_BUCKETS};

/// The exact sample of rank `ceil(q·n)` — the same rank definition the
/// histogram uses, so the two reports must land in the same bucket.
fn exact_percentile(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len() as u64;
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    sorted[(rank - 1) as usize]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Histogram percentiles are within one bucket of the exact
    /// percentile: same bucket, and relative error ≤ 1/SUB_BUCKETS.
    #[test]
    fn percentiles_within_one_bucket_of_exact(
        values in prop::collection::vec(0u64..1_000_000_000_000, 1..400),
        magnitude in 0u32..20,
    ) {
        // Shift magnitudes around so tiny-ns and whole-second samples
        // both get exercised.
        let values: Vec<u64> = values.iter().map(|v| v >> magnitude).collect();
        let hist = Histogram::new();
        for &v in &values {
            hist.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let snap = hist.snapshot();
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let exact = exact_percentile(&sorted, q);
            let reported = snap.percentile(q);
            // The reported value lies in the exact sample's bucket...
            let (lo, hi) = bucket_bounds(bucket_index(exact));
            prop_assert!(
                (lo..=hi).contains(&reported),
                "q={q}: reported {reported} outside bucket [{lo}, {hi}] of exact {exact}"
            );
            // ...so it overshoots by at most one bucket width.
            let err = reported.abs_diff(exact) as f64;
            let bound = (exact as f64 / SUB_BUCKETS as f64).max(1.0);
            prop_assert!(err <= bound, "q={q}: |{reported} - {exact}| > {bound}");
        }
        prop_assert_eq!(snap.percentile(1.0), *sorted.last().unwrap());
        prop_assert_eq!(snap.max, *sorted.last().unwrap());
        prop_assert_eq!(snap.count, values.len() as u64);
        prop_assert_eq!(snap.sum, values.iter().sum::<u64>());
    }
}

/// Concurrent recording from N threads loses no samples: the bucket
/// counts sum to the total record count, and count/sum/max all agree
/// with the ground truth.
#[test]
fn concurrent_recording_loses_no_counts() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 5_000;
    let hist = Histogram::new();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let hist = &hist;
            scope.spawn(move || {
                // A spread of magnitudes, deterministic per thread.
                for i in 0..PER_THREAD {
                    let v = (i * 2654435761 + t) % 1_000_000_007;
                    hist.record(v);
                }
            });
        }
    });
    let snap = hist.snapshot();
    let total = THREADS * PER_THREAD;
    assert_eq!(snap.count, total);
    assert_eq!(
        snap.buckets.iter().sum::<u64>(),
        total,
        "bucket increments lost under contention"
    );
    let mut expected_sum = 0u64;
    let mut expected_max = 0u64;
    for t in 0..THREADS {
        for i in 0..PER_THREAD {
            let v = (i * 2654435761 + t) % 1_000_000_007;
            expected_sum += v;
            expected_max = expected_max.max(v);
        }
    }
    assert_eq!(snap.sum, expected_sum);
    assert_eq!(snap.max, expected_max);
}

/// The flight recorder under concurrent load: capacity is a hard cap,
/// and the final ring holds exactly the newest records.
#[test]
fn recorder_capacity_is_a_hard_cap_under_load() {
    let rec = FlightRecorder::new(16);
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let (rec, stop) = (&rec, &stop);
        let poller = scope.spawn(move || {
            let mut polls = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                assert!(rec.len() <= 16, "ring exceeded capacity");
                polls += 1;
            }
            polls
        });
        std::thread::scope(|writers| {
            for t in 0..6 {
                writers.spawn(move || {
                    for i in 0..500 {
                        rec.record((t, i));
                    }
                });
            }
        });
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        assert!(poller.join().expect("poller") > 0);
    });
    assert_eq!(rec.recorded(), 3000);
    assert_eq!(rec.len(), 16);
}
