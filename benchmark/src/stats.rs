//! The statistics every reported number goes through.

/// Per-operation minimum across replays: `lat[k][i]` is operation `i`
/// in replay `k`. Noise on this machine is one-sided (a neighbour can
/// only slow a request), so the minimum over identical replays is the
/// estimate that repeats.
pub fn floor<R: AsRef<[u64]>>(lat: &[R]) -> Vec<u64> {
    let n = lat.first().map_or(0, |r| r.as_ref().len());
    assert!(
        lat.iter().all(|r| r.as_ref().len() == n),
        "replays differ in length"
    );
    (0..n)
        .map(|i| {
            lat.iter()
                .map(|r| r.as_ref()[i])
                .min()
                .expect("at least one replay")
        })
        .collect()
}

/// A nearest-rank percentile and how many samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    pub samples: usize,
    pub beyond: usize,
}

impl Percentile {
    /// A percentile other than the median is reported as supported
    /// only with at least ten samples beyond it.
    pub fn supported(&self) -> bool {
        self.beyond >= 10
    }
}

/// Nearest-rank percentile `p` (0 < p <= 100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> Percentile {
    assert!(!values.is_empty(), "percentile of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Percentile {
        value: sorted[rank - 1],
        samples: sorted.len(),
        beyond: sorted.len() - rank,
    }
}

/// Median with the mean of the two middle values for even counts.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(values,
/// n=4)` (the default exclusive method) gives them — the rule the
/// driver applies to the ten seeds.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// One traced interval. `parent` is the span that caused it; spans of
/// one request share `request`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<u32>,
    pub request: u32,
}

/// Self time per span, indexed like `spans`: the span's duration minus
/// the part of its interval that its direct children cover (children
/// that overlap each other are counted once, children are clipped to
/// the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: std::collections::HashMap<u32, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(&p) = span.parent.and_then(|p| index.get(&p)) {
            let (lo, hi) = (spans[p].start, spans[p].end);
            let clipped = (span.start.clamp(lo, hi), span.end.clamp(lo, hi));
            if clipped.1 > clipped.0 {
                children[p].push(clipped);
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start;
            for &(start, end) in kids.iter() {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            (span.end - span.start) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_takes_the_per_request_minimum_across_replays() {
        let lat = vec![vec![5, 9, 7], vec![6, 3, 7], vec![4, 8, 9]];
        assert_eq!(floor(&lat), vec![4, 3, 7]);
    }

    #[test]
    #[should_panic(expected = "replays differ")]
    fn floor_rejects_replays_of_different_length() {
        floor(&[vec![1, 2], vec![1]]);
    }

    #[test]
    fn p95_needs_two_hundred_samples_for_ten_beyond() {
        let values: Vec<f64> = (1..=200).map(f64::from).collect();
        let p95 = percentile(&values, 95.0);
        assert_eq!((p95.value, p95.samples, p95.beyond), (190.0, 200, 10));
        assert!(p95.supported());
        let short = percentile(&values[..199], 95.0);
        assert_eq!(short.beyond, 9);
        assert!(!short.supported());
        assert_eq!(percentile(&values, 50.0).value, 100.0);
        assert_eq!(percentile(&[7.0], 95.0).beyond, 0);
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
    }

    fn span(id: u32, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            id,
            name: "s",
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = vec![
            span(0, 0, 100, None),
            span(1, 10, 40, Some(0)),
            span(2, 15, 25, Some(1)),
            span(3, 60, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 10, 10]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips_to_parent() {
        let spans = vec![
            span(0, 100, 200, None),
            span(1, 110, 150, Some(0)),
            span(2, 130, 170, Some(0)),
            span(3, 120, 140, Some(0)),
            span(4, 190, 250, Some(0)),
            span(5, 0, 50, Some(0)),
        ];
        // covered: [110,170) = 60 and [190,200) = 10; span 5 lies outside.
        assert_eq!(self_times(&spans)[0], 30);
    }
}
