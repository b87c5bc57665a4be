//! The metric registry: named counters, gauges and histograms.
//!
//! Metrics are registered once (get-or-create keyed by name + label
//! set) and then updated through shared [`Arc`] handles, so the hot
//! path never touches the registry lock. A global `enabled` flag is the
//! switch timing code consults before it reads a clock.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::hist::Histogram;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the value (mirroring an externally maintained count
    /// into the registry at export time).
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Overwrites the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// One registered metric's identity and handle.
pub(crate) struct MetricEntry {
    pub name: String,
    pub help: String,
    pub labels: Vec<(String, String)>,
    pub handle: MetricHandle,
}

/// A shared handle to one registered metric.
#[derive(Clone)]
pub(crate) enum MetricHandle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl MetricHandle {
    fn kind(&self) -> &'static str {
        match self {
            MetricHandle::Counter(_) => "counter",
            MetricHandle::Gauge(_) => "gauge",
            MetricHandle::Histogram(_) => "histogram",
        }
    }
}

/// A collection of named metrics with a global on/off switch.
///
/// Registration is idempotent: asking for the same name + label set
/// returns the existing handle, so every component can `counter(...)`
/// its way to a shared metric without coordination. Registering the
/// same series under a different metric *type* panics — that is a
/// programming error, not a runtime condition.
#[derive(Default)]
pub struct Registry {
    enabled: AtomicBool,
    metrics: Mutex<Vec<MetricEntry>>,
}

impl Registry {
    /// An empty, enabled registry.
    pub fn new() -> Self {
        Registry {
            enabled: AtomicBool::new(true),
            metrics: Mutex::new(Vec::new()),
        }
    }

    /// Whether callers should time and record spans (counters and gauges
    /// always work — they are too cheap to gate).
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns span timing on or off at runtime.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Get-or-create an unlabelled counter.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with(name, help, &[])
    }

    /// Get-or-create a labelled counter series.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.get_or_insert(name, help, labels, || {
            MetricHandle::Counter(Arc::new(Counter::default()))
        }) {
            MetricHandle::Counter(c) => c,
            other => panic!("metric {name} already registered as a {}", other.kind()),
        }
    }

    /// Get-or-create an unlabelled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_with(name, help, &[])
    }

    /// Get-or-create a labelled gauge series.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.get_or_insert(name, help, labels, || {
            MetricHandle::Gauge(Arc::new(Gauge::default()))
        }) {
            MetricHandle::Gauge(g) => g,
            other => panic!("metric {name} already registered as a {}", other.kind()),
        }
    }

    /// Get-or-create an unlabelled histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.histogram_with(name, help, &[])
    }

    /// Get-or-create a labelled histogram series.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        match self.get_or_insert(name, help, labels, || {
            MetricHandle::Histogram(Arc::new(Histogram::new()))
        }) {
            MetricHandle::Histogram(h) => h,
            other => panic!("metric {name} already registered as a {}", other.kind()),
        }
    }

    fn get_or_insert(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> MetricHandle,
    ) -> MetricHandle {
        let mut metrics = self.metrics.lock().expect("registry lock");
        if let Some(entry) = metrics.iter().find(|e| {
            e.name == name
                && e.labels.len() == labels.len()
                && e.labels
                    .iter()
                    .zip(labels)
                    .all(|((k, v), (lk, lv))| k == lk && v == lv)
        }) {
            return entry.handle.clone();
        }
        let handle = make();
        metrics.push(MetricEntry {
            name: name.to_owned(),
            help: help.to_owned(),
            labels: labels
                .iter()
                .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
                .collect(),
            handle: handle.clone(),
        });
        handle
    }

    /// Runs `f` over every registered metric, in registration order.
    pub(crate) fn for_each(&self, mut f: impl FnMut(&MetricEntry)) {
        for entry in self.metrics.lock().expect("registry lock").iter() {
            f(entry);
        }
    }

    /// Number of registered series.
    pub fn len(&self) -> usize {
        self.metrics.lock().expect("registry lock").len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_register_once() {
        let reg = Registry::new();
        let a = reg.counter("requests_total", "requests");
        let b = reg.counter("requests_total", "requests");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3, "both handles hit the same counter");
        assert_eq!(reg.len(), 1);
        let g = reg.gauge("queue_depth", "depth");
        g.set(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn labels_distinguish_series() {
        let reg = Registry::new();
        let a = reg.counter_with("hits", "h", &[("stage", "yara")]);
        let b = reg.counter_with("hits", "h", &[("stage", "semgrep")]);
        a.inc();
        assert_eq!(b.get(), 0);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn type_conflicts_panic() {
        let reg = Registry::new();
        let _ = reg.counter("x", "");
        let _ = reg.gauge("x", "");
    }
}
