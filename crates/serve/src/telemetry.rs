//! Server-side metrics: request accounting, shed/drain counters and the
//! `/metrics` exposition.
//!
//! All series live in the engine's global registry
//! ([`deptree_core::engine::obs::registry`]), so one scrape covers the
//! HTTP layer and the engine internals (cache traffic, pool stealing,
//! budget exhaustions) alike. Handles are resolved once at first use;
//! the per-request cost is atomic adds plus one registry lock to intern
//! the `(route, status)` counter — negligible next to a discovery run.

use deptree_core::engine::obs::{self, Counter, Gauge, Histogram};
use std::sync::{Arc, OnceLock};

use crate::admission::ShedReason;

/// Pre-registered handles for the serve-layer series.
#[derive(Debug)]
pub struct ServeMetrics {
    /// Request latency from frame parse to response hand-off, seconds.
    pub latency: Arc<Histogram>,
    /// Requests currently executing: incremented when a parsed request
    /// enters the handler, decremented when the handler returns (the
    /// listener's panic barrier guarantees the decrement), so the gauge
    /// is live between scrapes instead of a scrape-time snapshot.
    pub inflight: Arc<Gauge>,
    /// Connections admitted past admission control.
    pub admitted: Arc<Counter>,
    /// Drain protocols started.
    pub drains: Arc<Counter>,
    /// Drains that had to hard-cancel in-flight work after the grace.
    pub drain_cancels: Arc<Counter>,
    /// Response-cache lookups answered from the cache.
    pub response_cache_hits: Arc<Counter>,
    /// Response-cache lookups that fell through to computation.
    pub response_cache_misses: Arc<Counter>,
    /// Cache entries removed (capacity pressure or dataset invalidation).
    pub response_cache_evictions: Arc<Counter>,
    /// Bytes currently held by the response cache (keys + values).
    pub response_cache_bytes: Arc<Gauge>,
    shed: [Arc<Counter>; 3],
}

const REQUESTS_NAME: &str = "deptree_requests_total";
const REQUESTS_HELP: &str = "Requests answered, by route and status.";

impl ServeMetrics {
    fn new() -> Self {
        let reg = obs::registry();
        // Eagerly register the engine families and seed the dynamic
        // request family, so a scrape before any traffic still exposes
        // every required series (at zero).
        let _ = obs::engine_metrics();
        let _ = reg.counter(
            REQUESTS_NAME,
            REQUESTS_HELP,
            &[("route", "/healthz"), ("status", "200")],
        );
        let shed = |reason: &'static str| {
            reg.counter(
                "deptree_shed_total",
                "Connections shed by admission control, by reason.",
                &[("reason", reason)],
            )
        };
        ServeMetrics {
            latency: reg.histogram(
                "deptree_request_duration_seconds",
                "Request latency from parsed frame to response hand-off.",
                &[],
                obs::LATENCY_BUCKETS,
            ),
            inflight: reg.gauge(
                "deptree_inflight_requests",
                "Task requests currently executing.",
                &[],
            ),
            admitted: reg.counter(
                "deptree_admitted_total",
                "Connections admitted past admission control.",
                &[],
            ),
            drains: reg.counter("deptree_drains_total", "Drain protocols started.", &[]),
            drain_cancels: reg.counter(
                "deptree_drain_cancels_total",
                "Drains that hard-cancelled in-flight work after the grace period.",
                &[],
            ),
            response_cache_hits: reg.counter(
                "deptree_response_cache_hits_total",
                "Response-cache lookups answered with a byte-identical cached reply.",
                &[],
            ),
            response_cache_misses: reg.counter(
                "deptree_response_cache_misses_total",
                "Response-cache lookups that fell through to computation.",
                &[],
            ),
            response_cache_evictions: reg.counter(
                "deptree_response_cache_evictions_total",
                "Response-cache entries removed by capacity pressure or dataset invalidation.",
                &[],
            ),
            response_cache_bytes: reg.gauge(
                "deptree_response_cache_bytes",
                "Bytes currently held by the response cache (keys and values).",
                &[],
            ),
            shed: [shed("connections"), shed("queue"), shed("closed")],
        }
    }

    /// The shed counter for one admission-refusal reason.
    pub fn shed(&self, reason: ShedReason) -> &Counter {
        match reason {
            ShedReason::Connections => &self.shed[0],
            ShedReason::Queue => &self.shed[1],
            ShedReason::Closed => &self.shed[2],
        }
    }

    /// The `(route, status)` request counter. Routes are normalized to
    /// the known endpoint set so a path-scanning client cannot inflate
    /// series cardinality.
    pub fn requests(&self, path: &str, status: u16) -> Arc<Counter> {
        obs::registry().counter(
            REQUESTS_NAME,
            REQUESTS_HELP,
            &[
                ("route", normalize_route(path)),
                ("status", status_str(status)),
            ],
        )
    }
}

/// The serve-layer metric handles, registered in the global registry on
/// first use. [`crate::spawn`] touches this at boot so every required
/// series exists (at zero) before the first request arrives.
pub fn serve_metrics() -> &'static ServeMetrics {
    static METRICS: OnceLock<ServeMetrics> = OnceLock::new();
    METRICS.get_or_init(ServeMetrics::new)
}

fn normalize_route(path: &str) -> &'static str {
    match path {
        "/healthz" => "/healthz",
        "/readyz" => "/readyz",
        "/metrics" => "/metrics",
        "/v1/datasets" => "/v1/datasets",
        "/v1/discover" => "/v1/discover",
        "/v1/validate" => "/v1/validate",
        "/v1/detect" => "/v1/detect",
        "/v1/repair" => "/v1/repair",
        "/v1/dedup" => "/v1/dedup",
        "/v1/batch" => "/v1/batch",
        "/admin/datasets" => "/admin/datasets",
        "/admin/datasets/drop" => "/admin/datasets/drop",
        "/admin/reload" => "/admin/reload",
        _ => "other",
    }
}

fn status_str(status: u16) -> &'static str {
    match status {
        200 => "200",
        400 => "400",
        404 => "404",
        405 => "405",
        408 => "408",
        413 => "413",
        429 => "429",
        500 => "500",
        503 => "503",
        _ => "other",
    }
}

/// Render the whole registry as Prometheus text. Every gauge —
/// including `deptree_inflight_requests`, which the listener maintains
/// at request start/end — is already live; nothing is refreshed at
/// scrape time.
pub fn render() -> String {
    let _ = serve_metrics();
    obs::registry().render()
}

/// Pre-registered handles for the gateway-layer series (cluster front).
#[derive(Debug)]
pub struct GatewayMetrics {
    /// Scatter/gather latency of one sharded fan-out, seconds.
    pub fanout_latency: Arc<Histogram>,
    /// Merged responses that had to report a `degraded` detail.
    pub degraded: Arc<Counter>,
    /// Single-dataset requests proxied to a home worker.
    pub proxied: Arc<Counter>,
    /// Workers currently quarantined for crash-looping.
    pub quarantined: Arc<Gauge>,
    /// Slices re-homed onto a survivor after their primary died.
    pub reshard: Arc<Counter>,
    /// Slice reads hedged to a second copy after the primary stalled.
    pub hedged_reads: Arc<Counter>,
    /// Children `SIGKILL`ed because the drain deadline expired.
    pub force_kill: Arc<Counter>,
}

impl GatewayMetrics {
    fn new() -> Self {
        let reg = obs::registry();
        GatewayMetrics {
            fanout_latency: reg.histogram(
                "deptree_gateway_fanout_duration_seconds",
                "Latency of one sharded discovery fan-out (scatter to merge).",
                &[],
                obs::LATENCY_BUCKETS,
            ),
            degraded: reg.counter(
                "deptree_gateway_degraded_total",
                "Merged responses marked partial because a worker died or timed out.",
                &[],
            ),
            proxied: reg.counter(
                "deptree_gateway_proxied_total",
                "Single-dataset requests proxied to a home worker.",
                &[],
            ),
            quarantined: reg.gauge(
                "deptree_gateway_workers_quarantined",
                "Workers currently quarantined for crash-looping.",
                &[],
            ),
            reshard: reg.counter(
                "deptree_reshard_total",
                "Slices re-homed onto a surviving worker after their primary died.",
                &[],
            ),
            hedged_reads: reg.counter(
                "deptree_hedged_reads_total",
                "Slice reads hedged to a second live copy after the first stalled.",
                &[],
            ),
            force_kill: reg.counter(
                "deptree_worker_force_kill_total",
                "Workers SIGKILLed because they outlived the drain grace deadline.",
                &[],
            ),
        }
    }
}

/// The gateway metric handles, registered on first use (gateway boot).
pub fn gateway_metrics() -> &'static GatewayMetrics {
    static METRICS: OnceLock<GatewayMetrics> = OnceLock::new();
    METRICS.get_or_init(GatewayMetrics::new)
}

/// Per-worker liveness gauge: `deptree_gateway_worker_up{worker="N"}`.
pub fn worker_up(worker: usize) -> Arc<Gauge> {
    let id = worker.to_string();
    obs::registry().gauge(
        "deptree_gateway_worker_up",
        "Whether the supervised worker is up and answering /readyz.",
        &[("worker", id.as_str())],
    )
}

/// Per-worker respawn counter:
/// `deptree_gateway_worker_restarts_total{worker="N"}`.
pub fn worker_restarts(worker: usize) -> Arc<Counter> {
    let id = worker.to_string();
    obs::registry().counter(
        "deptree_gateway_worker_restarts_total",
        "Times the supervisor respawned this worker after a crash or failed probes.",
        &[("worker", id.as_str())],
    )
}

/// Every state a supervised worker slot can be in, in wire order. The
/// lifecycle gauge emits one series per (slot, state) pair with exactly
/// one `1` per slot, so dashboards can plot the state machine directly.
pub const SLOT_STATES: [&str; 5] = ["up", "respawning", "quarantined", "probation", "draining"];

/// One `deptree_worker_slot_state{slot="N",state="S"}` gauge.
pub fn slot_state(slot: usize, state: &str) -> Arc<Gauge> {
    let id = slot.to_string();
    obs::registry().gauge(
        "deptree_worker_slot_state",
        "Worker slot lifecycle (one-hot per slot: up, respawning, quarantined, probation, draining).",
        &[("slot", id.as_str()), ("state", state)],
    )
}

/// Publish one slot's lifecycle state: set the named state's gauge to 1
/// and every other state in the family to 0 (one-hot encoding).
pub fn set_slot_state(slot: usize, state: &str) {
    for s in SLOT_STATES {
        slot_state(slot, s).set(i64::from(s == state));
    }
}

/// Per-worker in-flight gauge on the gateway side:
/// `deptree_gateway_worker_inflight{worker="N"}` — requests this
/// gateway currently has outstanding against the worker. The fan-out
/// reads it to pick the least-loaded live copy of a slice.
pub fn worker_inflight(worker: usize) -> Arc<Gauge> {
    let id = worker.to_string();
    obs::registry().gauge(
        "deptree_gateway_worker_inflight",
        "Requests the gateway currently has outstanding against this worker.",
        &[("worker", id.as_str())],
    )
}

/// Per-dataset resident-footprint gauge:
/// `deptree_dataset_bytes{dataset="NAME"}`. Set at preload from the
/// columnar `Relation::approx_bytes` estimate and refreshed after each
/// task touching the dataset, so a scrape shows what each loaded table
/// actually costs once its lazy views (sorted runs, packed numerics)
/// have materialized.
pub fn dataset_bytes(dataset: &str) -> Arc<Gauge> {
    obs::registry().gauge(
        "deptree_dataset_bytes",
        "Approximate resident bytes of a preloaded dataset (columnar estimate).",
        &[("dataset", dataset)],
    )
}

/// Re-emit one worker's `/metrics` exposition with a `worker="N"` label
/// on every sample, so the gateway's aggregated scrape keeps the
/// workers' series apart instead of colliding same-named series from
/// different processes into one.
///
/// `# HELP`/`# TYPE` comment lines are dropped: the family metadata
/// would otherwise repeat once per worker, which Prometheus parsers
/// reject as duplicate TYPE declarations. Sample lines keep their
/// existing labels (`le`, `route`, …) after the injected `worker`.
pub fn relabel_worker(exposition: &str, worker: usize) -> String {
    let mut out = String::with_capacity(exposition.len() + 64);
    for line in exposition.lines() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // A sample is `name value`, `name{labels} value`. The metric
        // name cannot contain '{' or ' ', so the first of either splits
        // name from the rest.
        let split = line.find(['{', ' ']);
        let Some(at) = split else { continue };
        let (name, rest) = line.split_at(at);
        if rest.starts_with('{') {
            let Some(close) = rest.find('}') else {
                continue;
            };
            let existing = &rest[1..close];
            let tail = &rest[close + 1..];
            if existing.is_empty() {
                out.push_str(&format!("{name}{{worker=\"{worker}\"}}{tail}\n"));
            } else {
                out.push_str(&format!("{name}{{worker=\"{worker}\",{existing}}}{tail}\n"));
            }
        } else {
            out.push_str(&format!("{name}{{worker=\"{worker}\"}}{rest}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn required_series_exist_at_boot() {
        let text = render();
        for series in [
            "deptree_requests_total",
            "deptree_shed_total",
            "deptree_request_duration_seconds",
            "deptree_inflight_requests",
            "deptree_cache_hits_total",
            "deptree_response_cache_hits_total",
            "deptree_response_cache_misses_total",
            "deptree_response_cache_evictions_total",
            "deptree_response_cache_bytes",
        ] {
            assert!(text.contains(series), "missing {series} in:\n{text}");
        }
    }

    #[test]
    fn relabel_injects_worker_on_bare_and_labeled_samples() {
        let exposition = "\
# HELP deptree_requests_total Requests answered.
# TYPE deptree_requests_total counter
deptree_requests_total{route=\"/v1/discover\",status=\"200\"} 3
deptree_inflight_requests 1
deptree_request_duration_seconds_bucket{le=\"0.01\"} 2
deptree_request_duration_seconds_sum 0.5
";
        let out = relabel_worker(exposition, 2);
        assert!(
            out.contains(
                "deptree_requests_total{worker=\"2\",route=\"/v1/discover\",status=\"200\"} 3"
            ),
            "{out}"
        );
        assert!(
            out.contains("deptree_inflight_requests{worker=\"2\"} 1"),
            "{out}"
        );
        assert!(
            out.contains("deptree_request_duration_seconds_bucket{worker=\"2\",le=\"0.01\"} 2"),
            "{out}"
        );
        // Comment lines are dropped: family metadata must not repeat
        // once per worker in the aggregated exposition.
        assert!(!out.contains('#'), "{out}");
    }

    #[test]
    fn relabel_keeps_same_named_series_from_two_workers_apart() {
        // The satellite's collision case: the same series scraped from
        // two workers must stay two lines, not intern into one.
        let series = "deptree_admitted_total 7\n";
        let a = relabel_worker(series, 0);
        let b = relabel_worker(series, 1);
        assert_ne!(a, b);
        let merged = format!("{a}{b}");
        assert!(merged.contains("deptree_admitted_total{worker=\"0\"} 7"));
        assert!(merged.contains("deptree_admitted_total{worker=\"1\"} 7"));
    }

    #[test]
    fn per_worker_registry_handles_are_distinct_series() {
        // Registry-level check for the label path: interning the same
        // family under different `worker` labels yields independent
        // handles, and both render.
        let a = worker_restarts(90);
        let b = worker_restarts(91);
        a.inc();
        b.inc();
        b.inc();
        assert_eq!(a.get(), 1);
        assert_eq!(b.get(), 2);
        let text = obs::registry().render();
        assert!(
            text.contains("deptree_gateway_worker_restarts_total{worker=\"90\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("deptree_gateway_worker_restarts_total{worker=\"91\"} 2"),
            "{text}"
        );
    }

    #[test]
    fn gateway_series_exist_at_boot() {
        let _ = gateway_metrics();
        let _ = worker_up(0);
        set_slot_state(0, "up");
        let _ = worker_inflight(0);
        let text = render();
        for series in [
            "deptree_gateway_fanout_duration_seconds",
            "deptree_gateway_degraded_total",
            "deptree_gateway_workers_quarantined",
            "deptree_gateway_worker_up",
            "deptree_reshard_total",
            "deptree_hedged_reads_total",
            "deptree_worker_force_kill_total",
            "deptree_gateway_worker_inflight",
        ] {
            assert!(text.contains(series), "missing {series} in:\n{text}");
        }
    }

    #[test]
    fn slot_state_gauge_is_one_hot() {
        set_slot_state(77, "quarantined");
        let text = obs::registry().render();
        assert!(
            text.contains("deptree_worker_slot_state{slot=\"77\",state=\"quarantined\"} 1"),
            "{text}"
        );
        for other in ["up", "respawning", "probation", "draining"] {
            let line = format!("deptree_worker_slot_state{{slot=\"77\",state=\"{other}\"}} 0");
            assert!(text.contains(&line), "missing {line} in:\n{text}");
        }
        // Moving state flips the hot bit, never leaves two set.
        set_slot_state(77, "probation");
        let text = obs::registry().render();
        assert!(
            text.contains("deptree_worker_slot_state{slot=\"77\",state=\"probation\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("deptree_worker_slot_state{slot=\"77\",state=\"quarantined\"} 0"),
            "{text}"
        );
    }

    #[test]
    fn unknown_routes_collapse_to_other() {
        let c = serve_metrics().requests("/etc/passwd", 404);
        let before = c.get();
        serve_metrics().requests("/../../x", 404).inc();
        assert_eq!(c.get(), before + 1, "both paths intern to the same series");
    }
}
