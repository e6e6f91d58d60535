//! The unified metrics registry: one [`MetricsSnapshot`] aggregating every
//! counter the process keeps — [`ServiceStats`](crate::stats::ServiceStats)
//! atomics, the process-wide [`cardest_core::metrics`] API counters (live
//! worker threads *and* exited ones, via the global drain), and the
//! per-stage tracing histograms from the service's
//! [`Observer`].
//!
//! Every export surface reads through here — the wire `Stats` frame, the
//! HTTP `/metrics` (Prometheus text) and `/stats.json` endpoints, and the
//! CLI `stats` subcommand — so a counter scraped over HTTP, pulled over the
//! socket, and printed by the CLI is always the *same* counter read the
//! same way. Metric names are stable and prefixed `cardest_`.

use crate::stats::StatsSnapshot;
use cardest_obs::{MetricsSnapshot, Observer, STAGES};

/// Builds the unified snapshot. `stats` is the service's counter snapshot,
/// `obs` its tracing observer; API counters are read process-wide (the
/// core registry drains exiting worker threads into a retired slab, so
/// totals are exact even across worker churn).
pub fn metrics_snapshot(stats: &StatsSnapshot, obs: &Observer) -> MetricsSnapshot {
    let api = cardest_core::metrics::ApiCounters::process_totals();
    let mut m = MetricsSnapshot::new();

    // Request-path counters (ServiceStats).
    m.push_counter("cardest_requests_total", stats.requests);
    m.push_counter("cardest_answered_total", stats.answered());
    m.push_counter("cardest_exact_hits_total", stats.exact_hits);
    m.push_counter("cardest_bound_hits_total", stats.bound_hits);
    m.push_counter("cardest_computed_total", stats.computed);
    m.push_counter("cardest_coalesced_total", stats.coalesced);
    m.push_counter("cardest_errors_total", stats.errors);
    m.push_counter("cardest_shed_bracket_total", stats.shed_bracket);
    m.push_counter("cardest_shed_rejected_total", stats.shed_rejected);
    m.push_counter("cardest_quota_rejected_total", stats.quota_rejected);
    m.push_counter("cardest_batches_total", stats.batches);
    m.push_counter("cardest_batch_rows_total", stats.batch_size_sum);
    m.push_counter("cardest_ingress_bytes_total", stats.ingress_bytes);
    m.push_counter("cardest_ingress_frames_total", stats.ingress_frames);

    // Process-wide API counters (cardest_core::metrics, drained globally).
    m.push_counter("cardest_api_extractions_total", api.extractions);
    m.push_counter("cardest_api_encoder_passes_total", api.encoder_passes);
    m.push_counter("cardest_api_decoder_calls_total", api.decoder_calls);
    m.push_counter("cardest_api_encoder_ns_total", api.encoder_ns);
    m.push_counter("cardest_api_decoder_ns_total", api.decoder_ns);

    // Tracing counters.
    m.push_counter("cardest_traces_finished_total", obs.finished());
    m.push_counter("cardest_traces_captured_total", obs.captured());
    m.push_counter("cardest_slow_queries_total", obs.slow_seen());

    // Derived gauges.
    m.push_gauge("cardest_shed_rate", stats.shed_rate());
    m.push_gauge("cardest_cache_hit_rate", stats.hit_rate());
    m.push_gauge("cardest_saved_rate", stats.saved_rate());
    m.push_gauge("cardest_mean_batch_size", stats.mean_batch_size());
    m.push_gauge(
        "cardest_tracing_enabled",
        if obs.enabled() { 1.0 } else { 0.0 },
    );
    m.push_gauge("cardest_trace_sample_every", obs.sample_every() as f64);
    m.push_gauge(
        "cardest_slow_threshold_seconds",
        obs.slow_threshold_ns() as f64 / 1e9,
    );

    // Latency histograms: the end-to-end one plus one per pipeline stage.
    m.push_histogram("cardest_request_latency", obs.total_histogram());
    for &stage in STAGES.iter() {
        m.push_histogram(
            format!("cardest_stage_{}_latency", stage.name()),
            obs.stage_histogram(stage),
        );
    }
    m
}

/// The flat `(name, value)` counter list carried by a wire `Stats` frame:
/// every counter from the unified snapshot plus the histogram summaries
/// flattened into `_count` / `_sum_ns` / `_p50_ns` / `_p99_ns` entries, so
/// a socket client needs no histogram decoding to read quantiles.
pub fn wire_counters(stats: &StatsSnapshot, obs: &Observer) -> Vec<(String, u64)> {
    let m = metrics_snapshot(stats, obs);
    let mut out: Vec<(String, u64)> = m.counters().to_vec();
    for (name, hist) in m.histograms() {
        out.push((format!("{name}_count"), hist.count));
        out.push((format!("{name}_sum_ns"), hist.sum_ns));
        out.push((format!("{name}_p50_ns"), hist.quantile_ns(0.50)));
        out.push((format!("{name}_p99_ns"), hist.quantile_ns(0.99)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardest_obs::{ObsConfig, Stage, TraceBuilder};
    use std::time::Duration;

    fn observer_with_traffic() -> Observer {
        let obs = Observer::new(ObsConfig {
            sample_every: 1,
            ..ObsConfig::default()
        });
        let mut b = TraceBuilder::new();
        b.add(Stage::Model, Duration::from_micros(80));
        b.add(Stage::QueueWait, Duration::from_micros(10));
        obs.finish_trace(&b, Duration::from_micros(100), 1, 0);
        obs
    }

    #[test]
    fn snapshot_contains_stats_api_and_stage_metrics() {
        let stats = crate::stats::ServiceStats::new();
        stats.record_request();
        stats.record_exact_hit();
        stats.record_ingress(64, 1);
        let obs = observer_with_traffic();
        let m = metrics_snapshot(&stats.snapshot(), &obs);
        assert_eq!(m.counter("cardest_requests_total"), Some(1));
        assert_eq!(m.counter("cardest_exact_hits_total"), Some(1));
        assert_eq!(m.counter("cardest_ingress_bytes_total"), Some(64));
        assert_eq!(m.counter("cardest_traces_finished_total"), Some(1));
        // One histogram per stage plus the end-to-end one.
        assert_eq!(m.histograms().len(), 1 + STAGES.len());
        assert_eq!(m.histogram("cardest_stage_model_latency").unwrap().count, 1);
        // Renders parse-ably in both formats (shape is tested in cardest-obs;
        // here we only check the names made it through).
        let prom = m.render_prometheus();
        assert!(prom.contains("cardest_requests_total 1"));
        assert!(prom.contains("cardest_stage_model_latency_bucket"));
        let json = m.render_json();
        assert!(json.contains("\"cardest_requests_total\":1"));
    }

    #[test]
    fn wire_counters_flatten_histogram_summaries() {
        let stats = crate::stats::ServiceStats::new();
        stats.record_request();
        let obs = observer_with_traffic();
        let rows = wire_counters(&stats.snapshot(), &obs);
        let get = |name: &str| {
            rows.iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("missing wire counter {name}"))
        };
        assert_eq!(get("cardest_requests_total"), 1);
        assert_eq!(get("cardest_request_latency_count"), 1);
        assert!(get("cardest_request_latency_p99_ns") > 0);
        assert_eq!(get("cardest_stage_model_latency_count"), 1);
    }
}
