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
//! * [`Registry`] — named [`Counter`]s, [`Gauge`]s and [`Histogram`]s
//!   behind get-or-create registration (name + label set), with a
//!   global `enabled` switch that timing code consults before it reads
//!   a clock (the hub's `StageClock` reads none when it is off).
//! * [`FlightRecorder`] — a bounded ring of the last N completed
//!   records (the hub instantiates it with its `ScanTrace`), so every
//!   verdict stays explainable after the fact without unbounded memory.
//! * Exporters — [`Registry::render_prometheus`] (text exposition
//!   format, checked by [`validate_prometheus`]) and
//!   [`Registry::render_json`] (a `jsonmini` document).
//!
//! # Examples
//!
//! ```
//! let reg = telemetry::Registry::new();
//! let hist = reg.histogram_with("stage_ns", "stage latency", &[("stage", "scan")]);
//! hist.record(1_250);
//! assert_eq!(hist.count(), 1);
//! telemetry::validate_prometheus(&reg.render_prometheus()).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod hist;
mod recorder;
mod registry;

pub use export::validate_prometheus;
pub use hist::{
    bucket_bounds, bucket_index, Histogram, HistogramSnapshot, NUM_BUCKETS, SUB_BUCKETS,
};
pub use recorder::FlightRecorder;
pub use registry::{Counter, Gauge, Registry};
