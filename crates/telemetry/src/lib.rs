//! `telemetry` — dependency-free service metrics.
//!
//! The scan hub (and anything else in the workspace) needs latency
//! *distributions*, not just counters: p50/p99 per pipeline stage,
//! tail-latency trends across PRs, and an after-the-fact record of
//! where any given request's time went. The build environment has no
//! registry access, so this crate provides the minimal production
//! shapes with zero external dependencies:
//!
//! * [`Histogram`] — a lock-free **log-linear histogram**: unit-width
//!   buckets below 16, then 16 linear sub-buckets per power-of-two
//!   octave, so any quantile read is within 1/16 relative error of the
//!   true sample. Recording is four relaxed atomic ops;
//!   [`HistogramSnapshot`] extracts p50/p90/p99/max/mean.
//! * [`FlightRecorder`] — a bounded ring of the last N completed
//!   records (the hub instantiates it with its `ScanTrace`), so every
//!   verdict stays explainable after the fact without unbounded memory.
//! * Exporters — [`render_prometheus`] (text exposition format, checked
//!   by [`validate_prometheus`]) and [`render_json`] (a `jsonmini`
//!   document). Both render a list of [`Series`] the caller builds at
//!   export time from whatever it already holds: counter values, gauge
//!   values and references to its histograms. There is no registry.
//!
//! # Examples
//!
//! ```
//! use telemetry::{Histogram, Sample, Series};
//!
//! let hist = Histogram::new();
//! hist.record(1_250);
//! let series = [
//!     Series {
//!         name: "stage_ns",
//!         help: "stage latency",
//!         label: Some(("stage", "scan")),
//!         sample: Sample::Histogram(&hist),
//!     },
//!     Series {
//!         name: "scans_total",
//!         help: "scans finished",
//!         label: None,
//!         sample: Sample::Counter(1),
//!     },
//! ];
//! let text = telemetry::render_prometheus(&series);
//! assert!(text.contains("stage_ns_count{stage=\"scan\"} 1"));
//! telemetry::validate_prometheus(&text).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod hist;
mod recorder;

pub use export::{render_json, render_prometheus, validate_prometheus, Sample, Series};
pub use hist::{
    bucket_bounds, bucket_index, Histogram, HistogramSnapshot, NUM_BUCKETS, SUB_BUCKETS,
};
pub use recorder::FlightRecorder;
