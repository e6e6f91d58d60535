//! # cardest-obs — observability primitives for the serving stack
//!
//! Std-only building blocks threaded through the whole request path:
//!
//! - [`LogHistogram`] — lock-free log2-bucketed latency histograms, behind
//!   every stage span and the serve layer's one end-to-end latency.
//! - [`Stage`] / [`TraceBuilder`] / [`Trace`] — a zero-allocation span API
//!   over a monotonic clock: jobs carry a fixed-size [`TraceBuilder`] and
//!   each pipeline stage adds its elapsed time with one array store.
//! - [`Observer`] — per-service aggregation point: the end-to-end latency
//!   histogram (every finished request, tracing on or off), per-stage
//!   histograms, a bounded ring of sampled full traces, and a slow-query
//!   log capturing every request over a configurable threshold with its
//!   complete span breakdown plus epoch and answer source.
//! - [`MetricsSnapshot`] — a single coherent, ordered bag of counters,
//!   gauges, and histograms with Prometheus text exposition
//!   ([`MetricsSnapshot::render_prometheus`]) and JSON rendering
//!   ([`MetricsSnapshot::render_json`]), shared by the wire `Stats` frame
//!   and the HTTP metrics endpoint.
//! - [`sole_lock()`] — the runtime half of the workspace's one lock rule: a
//!   debug-build check that no thread takes a serve or obs lock while
//!   holding another.
//!
//! This crate depends on nothing (std only) so every layer — core, nn,
//! serve, bench — can feed it without dependency cycles.

pub mod hist;
pub mod snapshot;
mod sole_lock;
pub mod trace;

pub use hist::{bucket_midpoint_ns, bucket_of, HistogramSnapshot, LogHistogram, HIST_BUCKETS};
pub use snapshot::{json_f64, json_str, MetricsSnapshot};
pub use sole_lock::{sole_lock, SoleLock};
pub use trace::{ObsConfig, Observer, Stage, Trace, TraceBuilder, STAGES, STAGE_COUNT};
