//! # t2fsnn-serve
//!
//! A batched online-inference server for T2FSNN models, std-only (the
//! workspace is offline): HTTP/1.1 is hand-rolled over
//! [`std::net::TcpListener`] in the same spirit as the serde/JSON shims.
//!
//! The request path:
//!
//! 1. **Admission** — connection workers parse requests (bounded read
//!    with a timeout and size caps, so a slow or malformed client cannot
//!    wedge a worker) and push inference jobs into a bounded
//!    [`queue::Queue`]; overflow is answered `429` immediately
//!    (backpressure, not buffering).
//! 2. **Micro-batching** — a single batcher thread coalesces queued jobs
//!    with the same `(model, early_exit)` key. A batch flushes as soon as
//!    it holds `min(max_batch, pool workers)` jobs — a batch runs one
//!    chunk per [`t2fsnn_tensor::ThreadPool`] worker, so more company
//!    buys no parallelism — taking any further queued jobs up to
//!    `max_batch` on the way; an under-filled batch waits at most
//!    `max_delay_us` after its first job (see [`batcher`]).
//! 3. **Execution** — batches run through [`t2fsnn::T2fsnn::infer`] on
//!    the scoped thread pool. Inference is **batch-invariant**: a
//!    request's bits are identical whether it ran solo, in any batch, or
//!    at any worker count, so batching is purely a throughput knob.
//! 4. **Anytime early-exit** — TTFS-native: the first output spike *is*
//!    the decision, so a request can report its label and decision
//!    timestep (and stop spending spikes/synops) before the time window
//!    closes. Per-request override via the `early_exit` field.
//!
//! `/metrics` exposes queue depth, the batch-size histogram,
//! latency quantiles, per-model per-stage latency histograms, response
//! counters and — when `T2FSNN_PROFILE` is set — the per-phase profiler
//! table.
//!
//! Observability is end-to-end and strictly read-only: every request
//! gets a trace id, its admission → queue wait → batch formation →
//! engine execution → respond phases land as spans in the
//! [`t2fsnn_tensor::trace`] flight recorder (`GET /debug/trace` exports
//! Chrome trace JSON), slow requests are captured as exemplars
//! (`GET /debug/slow`, see [`obs`]), responses carry an opt-in `timing`
//! breakdown, and lifecycle prints go through the structured JSON
//! logger ([`t2fsnn_tensor::log`], `T2FSNN_LOG`). Responses are
//! bit-identical with tracing on or off.
//!
//! Robustness is first-class (see [`batcher`] for the degradation
//! ladder, [`faults`] for the deterministic fault-injection layer, and
//! `/healthz` for readiness): requests may carry deadlines, overload
//! degrades to the TTFS anytime path before it sheds, batch panics are
//! isolated to their own requests, and a model that fails to load
//! answers `503` instead of killing the process.
//!
//! The registry is a *mutable* runtime component (see [`registry`] and
//! [`lifecycle`]): `POST /admin/models/<name>/{load,unload,reload}`
//! load, retire and hot-swap model versions under traffic. Promotion is
//! canary-gated (a seeded golden-input battery, checked bit-exact
//! against the recorded response digest) and atomic (an `Arc` slot
//! swap; in-flight requests finish on the version they were admitted
//! against), and a model that goes bad at runtime is quarantined by a
//! per-model circuit breaker with deterministic seeded-backoff canary
//! probes — `503` for that model only, everything else keeps serving.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batcher;
pub mod faults;
pub mod http;
pub mod lifecycle;
pub mod metrics;
pub mod obs;
pub mod protocol;
pub mod queue;
pub mod registry;
pub mod server;

use std::time::Duration;

pub use registry::{Registry, ServeModel};
pub use server::{start, ServerHandle};

/// Server configuration; every knob has an environment-variable twin
/// read by [`ServeConfig::from_env`] (documented per field).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`T2FSNN_SERVE_ADDR`, default `127.0.0.1:7878`;
    /// use port `0` to let the OS pick).
    pub addr: String,
    /// Scenario names to load into the registry at startup
    /// (`T2FSNN_SERVE_MODELS`, comma-separated, default `tiny`). The
    /// first entry is the default model for requests that name none.
    pub models: Vec<String>,
    /// Maximum images per micro-batch (`T2FSNN_SERVE_MAX_BATCH`,
    /// default 8).
    pub max_batch: usize,
    /// How long the batcher may hold the first job of an under-filled
    /// batch while waiting for company, in microseconds
    /// (`T2FSNN_SERVE_MAX_DELAY_US`, default 2000). A batch that reaches
    /// `min(max_batch, pool workers)` jobs flushes at once instead, so
    /// on a one-worker pool (`T2FSNN_THREADS=1`) nothing is ever held;
    /// a request's deadline also caps the hold.
    pub max_delay_us: u64,
    /// Bounded admission-queue capacity; a full queue answers `429`
    /// (`T2FSNN_SERVE_QUEUE`, default 128).
    pub queue_capacity: usize,
    /// Connection worker threads — the keep-alive concurrency limit
    /// (`T2FSNN_SERVE_WORKERS`, default 8).
    pub workers: usize,
    /// Default for requests that do not set `early_exit`
    /// (`T2FSNN_SERVE_EARLY_EXIT`, default on; `0` disables).
    pub early_exit: bool,
    /// Per-read socket timeout; a half-written request is answered
    /// `408` when it expires (`T2FSNN_SERVE_READ_TIMEOUT_MS`,
    /// default 2000).
    pub read_timeout: Duration,
    /// Request body cap in bytes; larger bodies are answered `413`
    /// (`T2FSNN_SERVE_MAX_BODY`, default 4 MiB).
    pub max_body_bytes: usize,
    /// Default deadline in milliseconds applied to requests that carry
    /// none (`T2FSNN_SERVE_DEADLINE_MS`, default 0 = no deadline).
    /// Requests override it with a `deadline_ms` JSON field or an
    /// `x-deadline-ms` header.
    pub default_deadline_ms: u64,
    /// Static slack threshold (µs) below which a full-window request is
    /// degraded to forced early-exit (`T2FSNN_SERVE_FORCE_EE_SLACK_US`,
    /// default 0 = adaptive: per-model full-window EWMA + `max_delay`).
    pub force_ee_slack_us: u64,
    /// Perturbation spec applied to every model at load time
    /// (`T2FSNN_SERVE_PERTURB`, default unset = clean). The grammar is
    /// [`t2fsnn_tensor::perturb::PerturbSpec::parse`]; event families
    /// (`jitter`, `drop`) become the model's noise config and weight
    /// families (`wgauss`, `wstuck`, `wbitflip`) rewrite the loaded
    /// weights deterministically. Robustness harness knob — a malformed
    /// spec fails startup loudly rather than silently serving clean.
    pub perturb: Option<String>,
    /// Per-model admission quota: the maximum queued jobs any single
    /// model may hold; overflow answers `429` with a per-model counter
    /// (`T2FSNN_SERVE_MODEL_QUOTA`, default 0 = off).
    pub model_quota: usize,
    /// Consecutive batch-execution failures that trip a model's
    /// quarantine (`T2FSNN_SERVE_QUARANTINE_THRESHOLD`, default 3).
    pub quarantine_threshold: u32,
    /// Base quarantine probe backoff in milliseconds; doubles per failed
    /// probe with deterministic seeded jitter
    /// (`T2FSNN_SERVE_QUARANTINE_BACKOFF_MS`, default 250).
    pub quarantine_backoff_ms: u64,
    /// Whether the server turns the span flight recorder on at startup
    /// so `/debug/trace` and slow-request exemplars always have data
    /// (`T2FSNN_SERVE_TRACE`, default on; `0` disables). Tracing is
    /// read-only — responses are bit-identical either way.
    pub trace: bool,
    /// Slow-request exemplar threshold in microseconds: a request whose
    /// end-to-end latency reaches it is captured in the bounded
    /// `/debug/slow` ring (`T2FSNN_SERVE_SLOW_US`, default 50 000;
    /// 0 disables capture).
    pub slow_us: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".to_string(),
            models: vec!["tiny".to_string()],
            max_batch: 8,
            max_delay_us: 2000,
            queue_capacity: 128,
            workers: 8,
            early_exit: true,
            read_timeout: Duration::from_millis(2000),
            max_body_bytes: 4 << 20,
            default_deadline_ms: 0,
            force_ee_slack_us: 0,
            perturb: None,
            model_quota: 0,
            quarantine_threshold: 3,
            quarantine_backoff_ms: 250,
            trace: true,
            slow_us: 50_000,
        }
    }
}

impl ServeConfig {
    /// Builds a config from the environment (see the field docs for the
    /// variable names); unset or unparsable variables keep defaults.
    pub fn from_env() -> Self {
        let mut config = ServeConfig::default();
        if let Ok(v) = std::env::var("T2FSNN_SERVE_ADDR") {
            if !v.trim().is_empty() {
                config.addr = v.trim().to_string();
            }
        }
        if let Ok(v) = std::env::var("T2FSNN_SERVE_MODELS") {
            let names: Vec<String> = v
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(str::to_string)
                .collect();
            if !names.is_empty() {
                config.models = names;
            }
        }
        if let Some(v) = env_parse::<usize>("T2FSNN_SERVE_MAX_BATCH") {
            config.max_batch = v.max(1);
        }
        if let Some(v) = env_parse::<u64>("T2FSNN_SERVE_MAX_DELAY_US") {
            config.max_delay_us = v;
        }
        if let Some(v) = env_parse::<usize>("T2FSNN_SERVE_QUEUE") {
            config.queue_capacity = v.max(1);
        }
        if let Some(v) = env_parse::<usize>("T2FSNN_SERVE_WORKERS") {
            config.workers = v.max(1);
        }
        if let Ok(v) = std::env::var("T2FSNN_SERVE_EARLY_EXIT") {
            config.early_exit = v.trim() != "0";
        }
        if let Some(v) = env_parse::<u64>("T2FSNN_SERVE_READ_TIMEOUT_MS") {
            config.read_timeout = Duration::from_millis(v.max(1));
        }
        if let Some(v) = env_parse::<usize>("T2FSNN_SERVE_MAX_BODY") {
            config.max_body_bytes = v.max(1024);
        }
        if let Some(v) = env_parse::<u64>("T2FSNN_SERVE_DEADLINE_MS") {
            config.default_deadline_ms = v;
        }
        if let Some(v) = env_parse::<u64>("T2FSNN_SERVE_FORCE_EE_SLACK_US") {
            config.force_ee_slack_us = v;
        }
        if let Ok(v) = std::env::var("T2FSNN_SERVE_PERTURB") {
            if !v.trim().is_empty() {
                config.perturb = Some(v.trim().to_string());
            }
        }
        if let Some(v) = env_parse::<usize>("T2FSNN_SERVE_MODEL_QUOTA") {
            config.model_quota = v;
        }
        if let Some(v) = env_parse::<u32>("T2FSNN_SERVE_QUARANTINE_THRESHOLD") {
            config.quarantine_threshold = v.max(1);
        }
        if let Some(v) = env_parse::<u64>("T2FSNN_SERVE_QUARANTINE_BACKOFF_MS") {
            config.quarantine_backoff_ms = v.max(1);
        }
        if let Ok(v) = std::env::var("T2FSNN_SERVE_TRACE") {
            config.trace = v.trim() != "0";
        }
        if let Some(v) = env_parse::<u64>("T2FSNN_SERVE_SLOW_US") {
            config.slow_us = v;
        }
        config
    }
}

fn env_parse<T: std::str::FromStr>(key: &str) -> Option<T> {
    std::env::var(key).ok().and_then(|v| v.trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ServeConfig::default();
        assert!(c.max_batch >= 1);
        assert!(c.queue_capacity >= 1);
        assert!(c.workers >= 1);
        assert_eq!(c.models, vec!["tiny".to_string()]);
    }
}
