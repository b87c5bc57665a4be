//! A bounded flight recorder: the last N completed records, in
//! completion order.
//!
//! The recorder is a fixed-capacity ring — recording is O(1), the
//! oldest record is evicted when full, and the ring never grows past
//! its capacity regardless of how many threads push concurrently (a
//! single mutex serializes the pointer shuffle; records themselves are
//! moved, not cloned, on the way in).

use std::collections::VecDeque;
use std::sync::Mutex;

/// A concurrent ring buffer of the last `capacity` records.
#[derive(Debug)]
pub struct FlightRecorder<T> {
    capacity: usize,
    inner: Mutex<Inner<T>>,
}

#[derive(Debug)]
struct Inner<T> {
    ring: VecDeque<T>,
    recorded: u64,
}

impl<T: Clone> FlightRecorder<T> {
    /// A recorder holding the last `capacity` records (0 disables
    /// recording entirely).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            capacity,
            inner: Mutex::new(Inner {
                ring: VecDeque::with_capacity(capacity.min(1024)),
                recorded: 0,
            }),
        }
    }

    /// Appends one record, evicting the oldest when full.
    pub fn record(&self, item: T) {
        self.record_with(|_| item);
    }

    /// Appends the record built by `make`, which receives the record's
    /// zero-based global sequence number. The number is assigned under
    /// the ring lock, so ring order and sequence order always agree —
    /// even under concurrent recording. Returns the sequence number,
    /// or `None` when the recorder is disabled (capacity 0).
    pub fn record_with(&self, make: impl FnOnce(u64) -> T) -> Option<u64> {
        if self.capacity == 0 {
            return None;
        }
        let mut inner = self.inner.lock().expect("recorder lock");
        let seq = inner.recorded;
        let item = make(seq);
        if inner.ring.len() == self.capacity {
            inner.ring.pop_front();
        }
        inner.ring.push_back(item);
        inner.recorded += 1;
        Some(seq)
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.inner.lock().expect("recorder lock").ring.len()
    }

    /// True when nothing has been recorded (or capacity is 0).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total records ever pushed, including evicted ones.
    pub fn recorded(&self) -> u64 {
        self.inner.lock().expect("recorder lock").recorded
    }

    /// The held records, oldest first.
    pub fn snapshot(&self) -> Vec<T> {
        self.inner
            .lock()
            .expect("recorder lock")
            .ring
            .iter()
            .cloned()
            .collect()
    }

    /// The most recent record.
    pub fn latest(&self) -> Option<T> {
        self.inner
            .lock()
            .expect("recorder lock")
            .ring
            .back()
            .cloned()
    }

    /// The record with the greatest `key`, the newest of equals; only it
    /// is cloned.
    pub fn max_by_key<K: Ord>(&self, mut key: impl FnMut(&T) -> K) -> Option<T> {
        self.inner
            .lock()
            .expect("recorder lock")
            .ring
            .iter()
            .max_by_key(|t| key(t))
            .cloned()
    }

    /// The most recent record matching `pred` (newest first).
    pub fn find(&self, mut pred: impl FnMut(&T) -> bool) -> Option<T> {
        self.inner
            .lock()
            .expect("recorder lock")
            .ring
            .iter()
            .rev()
            .find(|t| pred(t))
            .cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_the_last_n_in_order() {
        let rec = FlightRecorder::new(3);
        for i in 0..7 {
            rec.record(i);
        }
        assert_eq!(rec.snapshot(), vec![4, 5, 6]);
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.recorded(), 7);
        assert_eq!(rec.latest(), Some(6));
        assert_eq!(rec.find(|&v| v % 2 == 0), Some(6));
        assert_eq!(rec.find(|&v| v < 6), Some(5), "newest match wins");
        assert_eq!(rec.find(|&v| v > 100), None);
    }

    #[test]
    fn max_by_key_picks_the_newest_of_equal_keys() {
        let rec = FlightRecorder::new(4);
        for pair in [(0, 3), (1, 9), (2, 9), (3, 1), (4, 2)] {
            rec.record(pair);
        }
        assert_eq!(rec.max_by_key(|&(_, key)| key), Some((2, 9)));
        assert_eq!(FlightRecorder::<u8>::new(4).max_by_key(|&v| v), None);
    }

    #[test]
    fn zero_capacity_disables_recording() {
        let rec = FlightRecorder::new(0);
        rec.record(1);
        assert!(rec.is_empty());
        assert_eq!(rec.recorded(), 0);
        assert_eq!(rec.latest(), None);
        assert_eq!(rec.record_with(|seq| seq as i32), None);
    }

    #[test]
    fn record_with_sequences_match_ring_order() {
        let rec = FlightRecorder::new(4);
        for _ in 0..10 {
            rec.record_with(|seq| seq);
        }
        assert_eq!(rec.snapshot(), vec![6, 7, 8, 9]);
        assert_eq!(rec.record_with(|seq| seq), Some(10));
    }

    #[test]
    fn concurrent_pushes_never_exceed_capacity() {
        let rec = FlightRecorder::new(8);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let rec = &rec;
                scope.spawn(move || {
                    for i in 0..100 {
                        rec.record(t * 1000 + i);
                        assert!(rec.len() <= 8);
                    }
                });
            }
        });
        assert_eq!(rec.len(), 8);
        assert_eq!(rec.recorded(), 400);
    }
}
