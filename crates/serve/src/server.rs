//! The server loop: a polling accept thread, a bounded pool of
//! connection workers, and the batcher thread, tied together with a
//! shutdown flag.
//!
//! Thread layout (all joined by [`ServerHandle::join`]):
//!
//! * **accept** — non-blocking accept poll (so the shutdown flag is
//!   honored without a self-connect trick); accepted streams get their
//!   timeouts set and are pushed into a bounded connection queue. An
//!   overflowing connection queue is answered `503` right on the accept
//!   thread — bounded work, no buildup.
//! * **worker ×N** — pop connections, serve keep-alive request loops
//!   (bounded reads, see [`crate::http`]), push inference jobs and block
//!   on their reply channel.
//! * **batcher** — see [`crate::batcher`]; supervised — if the thread
//!   ever dies by panic (its batches already run under `catch_unwind`,
//!   so this is a backstop, exercised only by tests), the supervisor
//!   respawns it and counts `t2fsnn_serve_batcher_respawns_total`.
//! * **loader** — the model-lifecycle thread: executes
//!   `POST /admin/models/<name>/{load,reload}` commands (read the
//!   network → convert → canary → promote, all off the request path;
//!   the admin response is an immediate `202` and `/healthz` tracks
//!   progress) and
//!   runs the quarantine probe schedule. Exactly one loader means loads
//!   are serialized — no concurrent conversions fighting over cores —
//!   and the registry's `Loading` guard makes duplicate commands
//!   no-ops.
//!
//! Readiness: `GET /healthz` reports per-model availability and queue
//! saturation, answering `503` while draining or when no model serves —
//! a load balancer can stop routing here before clients see errors.
//!
//! Shutdown (the "ctrl channel"): `POST /admin/shutdown` — or
//! [`ServerHandle::shutdown`] from the embedding process — sets the
//! flag and closes both queues. Workers finish their current
//! connection, the batcher drains admitted jobs, accept stops; `join`
//! then returns. A `SIGTERM` falls back to the OS default (process
//! exit); the ctrl channel is the graceful path, and the load
//! generator's smoke mode exercises it.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use t2fsnn::scenario::Scenario;
use t2fsnn_tensor::{log, trace, ThreadPool};

use crate::batcher::{self, BatcherConfig, InferJob, JobError};
use crate::faults::{Faults, ReadFault, ResponseFault};
use crate::http::{Conn, HttpError, Request};
use crate::lifecycle;
use crate::metrics::Metrics;
use crate::obs::{SlowExemplar, SlowLog};
use crate::protocol::{
    ErrorResponse, HealthReport, InferRequest, InferResponse, LifecycleAck, ModelInfo, Timing,
};
use crate::queue::{PushError, Queue};
use crate::registry::{QuarantinePolicy, Registry, Resolution, ServeModel, SlotState};
use crate::ServeConfig;

/// How long a connection worker waits for its batch to answer before
/// giving up with `500` (generous: covers a cold model or a deep queue).
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// Accept-poll interval while idle; bounds shutdown-flag latency.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// How long the loader thread waits for a lifecycle command before
/// checking the quarantine probe schedule and the shutdown flag.
const LOADER_POLL: Duration = Duration::from_millis(25);

/// One queued lifecycle command for the loader thread.
struct LoadCommand {
    name: String,
}

/// Shared server state.
struct Ctx {
    config: ServeConfig,
    registry: Registry,
    metrics: Metrics,
    jobs: Queue<InferJob>,
    lifecycle: Queue<LoadCommand>,
    shutdown: AtomicBool,
    faults: Option<Faults>,
    /// Slow-request exemplars behind `GET /debug/slow`.
    slow: SlowLog,
}

/// A running server; dropping it does **not** stop the threads — call
/// [`ServerHandle::shutdown`] and/or [`ServerHandle::join`].
pub struct ServerHandle {
    addr: SocketAddr,
    ctx: Arc<Ctx>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's metric registry.
    pub fn metrics(&self) -> &Metrics {
        &self.ctx.metrics
    }

    /// Initiates a graceful shutdown (idempotent): stop admissions,
    /// drain admitted jobs, stop accepting.
    pub fn shutdown(&self) {
        initiate_shutdown(&self.ctx);
    }

    /// Waits for every server thread to exit. Call after
    /// [`ServerHandle::shutdown`] (or rely on `POST /admin/shutdown`).
    pub fn join(self) {
        for thread in self.threads {
            let _ = thread.join();
        }
    }
}

fn initiate_shutdown(ctx: &Ctx) {
    // Flag before the queue closes: the loader's wait returns
    // immediately on a closed queue, and the flag is what tells it to
    // exit instead of spinning.
    ctx.shutdown.store(true, Ordering::SeqCst);
    // Stop admissions; the batcher drains what was already accepted.
    ctx.jobs.close();
    ctx.lifecycle.close();
}

/// Binds and starts the server threads. Fault injection is read from
/// `T2FSNN_SERVE_FAULTS` (see [`crate::faults`]); unset means off.
///
/// # Errors
///
/// Returns the bind error, or `InvalidInput` for a malformed fault
/// spec (a chaos run must fail loudly, not silently run fault-free).
pub fn start(config: ServeConfig, mut registry: Registry) -> std::io::Result<ServerHandle> {
    let faults =
        Faults::from_env().map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
    // The flight recorder is on by default while serving so
    // `/debug/trace` and the slow-request exemplars always have data;
    // `T2FSNN_SERVE_TRACE=0` opts out. Tracing is read-only — the
    // bit-identity property tests pin that responses cannot change.
    trace::set_enabled(config.trace);
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    registry.set_quarantine_policy(QuarantinePolicy {
        threshold: config.quarantine_threshold.max(1),
        backoff: Duration::from_millis(config.quarantine_backoff_ms.max(1)),
        ..QuarantinePolicy::default()
    });
    let metrics = Metrics::new(config.max_batch);
    metrics.set_perturbation(
        registry.perturbed_models(),
        registry.perturbed_weight_rows(),
    );
    let jobs = Queue::new(config.queue_capacity);
    let workers = config.workers;
    let batcher_config = BatcherConfig {
        max_batch: config.max_batch,
        // A batch runs one chunk per pool worker, so waiting for more
        // company than that buys no parallelism.
        fill_target: config.max_batch.min(ThreadPool::global().workers()),
        max_delay: Duration::from_micros(config.max_delay_us),
        force_ee_slack_us: config.force_ee_slack_us,
    };
    let ctx = Arc::new(Ctx {
        config,
        registry,
        metrics,
        jobs,
        // Lifecycle commands are rare operator actions; a short queue
        // refuses floods with `429` instead of buffering them.
        lifecycle: Queue::new(16),
        shutdown: AtomicBool::new(false),
        faults,
        slow: SlowLog::default(),
    });
    // Connections queue: accepted streams waiting for a worker. Sized
    // past the worker count so short bursts park instead of bouncing.
    let conns: Arc<Queue<TcpStream>> = Arc::new(Queue::new(workers * 2));

    let mut threads = Vec::with_capacity(workers + 2);
    {
        let ctx = Arc::clone(&ctx);
        let conns = Arc::clone(&conns);
        threads.push(
            std::thread::Builder::new()
                .name("serve-accept".into())
                .spawn(move || accept_loop(&listener, &ctx, &conns))
                .expect("spawn accept thread"),
        );
    }
    for i in 0..workers {
        let ctx = Arc::clone(&ctx);
        let conns = Arc::clone(&conns);
        threads.push(
            std::thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || worker_loop(&ctx, &conns))
                .expect("spawn worker thread"),
        );
    }
    {
        let ctx = Arc::clone(&ctx);
        threads.push(
            std::thread::Builder::new()
                .name("serve-batcher-supervisor".into())
                .spawn(move || supervise_batcher(&ctx, &batcher_config))
                .expect("spawn batcher supervisor thread"),
        );
    }
    {
        let ctx = Arc::clone(&ctx);
        threads.push(
            std::thread::Builder::new()
                .name("serve-loader".into())
                .spawn(move || loader_loop(&ctx))
                .expect("spawn loader thread"),
        );
    }
    Ok(ServerHandle { addr, ctx, threads })
}

/// The loader thread: serialized lifecycle loads and the quarantine
/// probe schedule, all off the request path.
fn loader_loop(ctx: &Arc<Ctx>) {
    loop {
        if ctx.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let commands = ctx
            .lifecycle
            .collect_matching(Instant::now() + LOADER_POLL, 1, 1, |_| true);
        if ctx.shutdown.load(Ordering::SeqCst) {
            break;
        }
        for command in commands {
            perform_load(ctx, &command.name);
        }
        let now = Instant::now();
        while let Some((name, fenced, digest)) = ctx.registry.due_probe(now) {
            run_probe(ctx, &name, &fenced, digest);
        }
    }
}

/// One lifecycle load, end to end: ticket → convert (cache or train) →
/// canary → promote, with rollback on any failure. Runs on the loader
/// thread only; the registry lock is held just for the O(1) ticket and
/// swap operations.
fn perform_load(ctx: &Ctx, name: &str) {
    let ticket = match ctx.registry.begin_load(name) {
        Ok(ticket) => ticket,
        Err(e) => {
            log::warn(
                "load_skipped",
                &[("model", name.into()), ("reason", (&e).into())],
            );
            return;
        }
    };
    let spec = ctx.registry.perturb_spec();
    match Registry::convert_model(name, spec.as_ref(), ticket.version) {
        Err(error) => {
            log::error(
                "model_load_failed",
                &[("model", name.into()), ("error", (&error).into())],
            );
            ctx.registry.reject_load(name, error);
        }
        Ok(model) => {
            // The canary_fail burst poisons *runtime* re-promotions
            // only: a boot-shaped first load has no incumbent to
            // protect, so it does not consume burst hits.
            let injected =
                ticket.replaces_incumbent && ctx.faults.as_ref().is_some_and(Faults::canary_fault);
            let verdict = if injected {
                ctx.metrics.observe_fault_injected();
                Err("injected canary failure (fault spec)".to_string())
            } else {
                lifecycle::canary(&model, ticket.expected_digest)
            };
            match verdict {
                Ok(digest) => {
                    let version = model.version;
                    match ctx.registry.promote(name, model, digest) {
                        Ok(_) => {
                            ctx.metrics.observe_model_load();
                            let digest_hex = format!("{digest:#010x}");
                            log::info(
                                "model_promoted",
                                &[
                                    ("model", name.into()),
                                    ("version", version.into()),
                                    ("canary_digest", (&digest_hex).into()),
                                ],
                            );
                        }
                        Err(e) => log::warn(
                            "model_discarded",
                            &[
                                ("model", name.into()),
                                ("version", version.into()),
                                ("reason", (&e).into()),
                            ],
                        ),
                    }
                }
                Err(e) => {
                    ctx.metrics.observe_canary_rejection();
                    log::warn(
                        "canary_rejected",
                        &[
                            ("model", name.into()),
                            ("version", ticket.version.into()),
                            ("reason", (&e).into()),
                        ],
                    );
                    ctx.registry
                        .reject_load(name, format!("canary rejected: {e}"));
                }
            }
        }
    }
    // Lifecycle ops change which perturbed models serve.
    ctx.metrics.set_perturbation(
        ctx.registry.perturbed_models(),
        ctx.registry.perturbed_weight_rows(),
    );
}

/// One quarantine probe: a canary re-run on the fenced version — never
/// live traffic. A pass re-admits the exact fenced `Arc` (bits and
/// version unchanged); a failure escalates the deterministic backoff.
fn run_probe(ctx: &Ctx, name: &str, fenced: &Arc<ServeModel>, digest: Option<u32>) {
    ctx.metrics.observe_quarantine_probe();
    let injected = ctx.faults.as_ref().is_some_and(Faults::canary_fault);
    let verdict = if injected {
        ctx.metrics.observe_fault_injected();
        Err("injected canary failure (fault spec)".to_string())
    } else {
        lifecycle::canary(fenced, digest).map(|_| ())
    };
    match verdict {
        Ok(()) => {
            if let Some(version) = ctx.registry.readmit(name) {
                ctx.metrics.observe_quarantine_readmission();
                log::info(
                    "quarantine_readmitted",
                    &[("model", name.into()), ("version", version.into())],
                );
            }
        }
        Err(e) => {
            let probe = lifecycle::describe_probe(fenced);
            log::warn(
                "quarantine_probe_failed",
                &[("probe", (&probe).into()), ("reason", (&e).into())],
            );
            ctx.registry.probe_failed(name, Instant::now(), e);
        }
    }
}

/// Runs the batcher, respawning it if it ever dies by panic. Batch
/// panics are already caught inside [`batcher::run`]; this is the
/// respawn-on-death backstop for anything that escapes.
fn supervise_batcher(ctx: &Arc<Ctx>, config: &BatcherConfig) {
    loop {
        let child_ctx = Arc::clone(ctx);
        let child_config = BatcherConfig { ..*config };
        let handle = std::thread::Builder::new()
            .name("serve-batcher".into())
            .spawn(move || {
                let breaker = lifecycle::Breaker {
                    registry: &child_ctx.registry,
                    jobs: &child_ctx.jobs,
                    metrics: &child_ctx.metrics,
                };
                batcher::run(
                    &child_ctx.jobs,
                    &child_ctx.metrics,
                    &child_config,
                    child_ctx.faults.as_ref(),
                    Some(&breaker),
                )
            })
            .expect("spawn batcher thread");
        match handle.join() {
            // Clean exit: the queue closed and drained (shutdown).
            Ok(()) => break,
            Err(_) => {
                ctx.metrics.observe_batcher_respawn();
                log::error("batcher_respawned", &[]);
            }
        }
    }
}

fn accept_loop(listener: &TcpListener, ctx: &Ctx, conns: &Queue<TcpStream>) {
    loop {
        if ctx.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_read_timeout(Some(ctx.config.read_timeout));
                let _ = stream.set_write_timeout(Some(ctx.config.read_timeout));
                let _ = stream.set_nodelay(true);
                if let Err(PushError::Full(stream) | PushError::Closed(stream)) = conns.push(stream)
                {
                    // All workers busy and the parking lot is full:
                    // bounded refusal instead of unbounded buildup.
                    ctx.metrics.observe_response(503);
                    let mut conn = Conn::new(stream);
                    let _ = conn.write_response(
                        503,
                        "application/json",
                        &ErrorResponse::json("server overloaded"),
                        false,
                    );
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
    // No more connections will arrive; workers drain and exit.
    conns.close();
}

fn worker_loop(ctx: &Ctx, conns: &Queue<TcpStream>) {
    while let Some(stream) = conns.pop_blocking() {
        handle_connection(ctx, Conn::new(stream));
    }
}

/// Serves one connection's keep-alive loop.
fn handle_connection(ctx: &Ctx, mut conn: Conn) {
    loop {
        if let Some(faults) = &ctx.faults {
            match faults.read_fault() {
                Some(ReadFault::Delay(delay)) => {
                    ctx.metrics.observe_fault_injected();
                    std::thread::sleep(delay);
                }
                Some(ReadFault::Abort) => {
                    // Drop the connection cold: the client sees a
                    // closed socket where an answer should have been.
                    ctx.metrics.observe_fault_injected();
                    break;
                }
                None => {}
            }
        }
        match conn.read_request(ctx.config.max_body_bytes) {
            Ok(request) => {
                let keep_alive = request.keep_alive() && !ctx.shutdown.load(Ordering::SeqCst);
                let (status, body) = route(ctx, &request);
                ctx.metrics.observe_response(status);
                if let Some(faults) = &ctx.faults {
                    if let Some(ResponseFault::DropMid) = faults.response_fault() {
                        // Half the body, then the floor: exercises
                        // client-side detection of truncated responses.
                        ctx.metrics.observe_fault_injected();
                        let _ = conn.write_truncated_response(status, "application/json", &body);
                        break;
                    }
                }
                let keep_alive = keep_alive && !ctx.shutdown.load(Ordering::SeqCst);
                if conn
                    .write_response(status, "application/json", &body, keep_alive)
                    .is_err()
                    || !keep_alive
                {
                    break;
                }
            }
            Err(HttpError::Timeout { partial }) => {
                if partial {
                    // A half-written request: answer 408 and drop the
                    // connection — the worker is free again.
                    ctx.metrics.observe_response(408);
                    let _ = conn.write_response(
                        408,
                        "application/json",
                        &ErrorResponse::json("request incomplete after read timeout"),
                        false,
                    );
                }
                break;
            }
            Err(HttpError::TooLarge) => {
                ctx.metrics.observe_response(413);
                let _ = conn.write_response(
                    413,
                    "application/json",
                    &ErrorResponse::json("request exceeds size cap"),
                    false,
                );
                break;
            }
            Err(HttpError::Malformed(cause)) => {
                ctx.metrics.observe_response(400);
                let _ = conn.write_response(
                    400,
                    "application/json",
                    &ErrorResponse::json(format!("malformed request: {cause}")),
                    false,
                );
                break;
            }
            Err(HttpError::Closed) | Err(HttpError::Io(_)) => break,
        }
    }
}

/// Routes one request to its `(status, body)`.
fn route(ctx: &Ctx, request: &Request) -> (u16, Vec<u8>) {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => healthz_route(ctx),
        ("GET", "/metrics") => {
            ctx.metrics.set_queue_depth(ctx.jobs.len());
            (200, ctx.metrics.render().into_bytes())
        }
        // Flight-recorder export: the retained spans as Chrome
        // trace-event JSON (load in Perfetto / chrome://tracing). Empty
        // when tracing is off (`T2FSNN_SERVE_TRACE=0`).
        ("GET", "/debug/trace") => (200, trace::chrome_trace_json().into_bytes()),
        // Slow-request exemplars: trace ids + stage breakdown of the
        // most recent requests over the `slow_us` threshold.
        ("GET", "/debug/slow") => (200, ctx.slow.to_json(ctx.config.slow_us)),
        ("GET", "/v1/models") => {
            let infos: Vec<ModelInfo> = ctx.registry.models().iter().map(|m| m.info()).collect();
            match serde_json::to_vec(&infos) {
                Ok(body) => (200, body),
                Err(e) => (500, ErrorResponse::json(format!("serialization: {e}"))),
            }
        }
        ("POST", "/v1/infer") => infer_route(ctx, request),
        ("POST", "/admin/shutdown") => {
            initiate_shutdown(ctx);
            (200, b"{\"status\":\"shutting down\"}".to_vec())
        }
        ("POST", path) if path.starts_with("/admin/models/") => admin_model_route(ctx, path),
        ("GET" | "POST", _) => (404, ErrorResponse::json("no such endpoint")),
        _ => (405, ErrorResponse::json("method not allowed")),
    }
}

/// `POST /admin/models/<name>/{load,unload,reload}` — the lifecycle
/// control surface. Loads are asynchronous (`202`; the loader thread
/// converts, canaries and promotes — poll `/healthz`); unloads take
/// effect immediately, evicting the model's queued jobs to `503` in
/// admission order while in-flight batches finish on their pinned
/// version.
fn admin_model_route(ctx: &Ctx, path: &str) -> (u16, Vec<u8>) {
    let rest = &path["/admin/models/".len()..];
    let Some((name, action)) = rest.rsplit_once('/') else {
        return (
            404,
            ErrorResponse::json("expected /admin/models/<name>/<load|unload|reload>"),
        );
    };
    if name.is_empty() || name.contains('/') {
        return (404, ErrorResponse::json(format!("bad model name `{name}`")));
    }
    match action {
        "load" | "reload" => {
            if Scenario::from_name(name).is_none() && !ctx.registry.is_configured(name) {
                return (
                    404,
                    ErrorResponse::json(format!(
                        "unknown model `{name}` (not a scenario; see GET /v1/models)"
                    )),
                );
            }
            // A plain `load` of an already-serving model is a no-op
            // (idempotent); `reload` always converts a fresh version.
            if action == "load" {
                if let Some((SlotState::Ready, _)) = ctx.registry.lifecycle_state(name) {
                    return lifecycle_ack(name, action, "ready", 200);
                }
            }
            let command = LoadCommand {
                name: name.to_string(),
            };
            match ctx.lifecycle.push(command) {
                Ok(()) => lifecycle_ack(name, action, "loading", 202),
                Err(PushError::Full(_)) => (
                    429,
                    ErrorResponse::json("lifecycle queue full — retry with backoff"),
                ),
                Err(PushError::Closed(_)) => (503, ErrorResponse::json("server is shutting down")),
            }
        }
        "unload" => match ctx.registry.unload(name) {
            Ok(()) => {
                ctx.metrics.observe_model_unload();
                let evicted =
                    lifecycle::drain_model_jobs(&ctx.jobs, name, "was unloaded", &ctx.metrics);
                if evicted > 0 {
                    log::warn(
                        "unload_evicted_jobs",
                        &[("model", name.into()), ("evicted", evicted.into())],
                    );
                }
                log::info("model_unloaded", &[("model", name.into())]);
                lifecycle_ack(name, action, "unloaded", 200)
            }
            Err(e) => (404, ErrorResponse::json(e)),
        },
        _ => (
            404,
            ErrorResponse::json(format!(
                "unknown lifecycle action `{action}` (load, unload, reload)"
            )),
        ),
    }
}

/// Serialized [`LifecycleAck`] with its status code.
fn lifecycle_ack(model: &str, action: &str, state: &str, code: u16) -> (u16, Vec<u8>) {
    let ack = LifecycleAck {
        model: model.to_string(),
        action: action.to_string(),
        state: state.to_string(),
    };
    match serde_json::to_vec(&ack) {
        Ok(body) => (code, body),
        Err(e) => (500, ErrorResponse::json(format!("serialization: {e}"))),
    }
}

/// Readiness: `503` while draining or with no serving model, `200`
/// otherwise; the body always carries the full per-model picture.
fn healthz_route(ctx: &Ctx) -> (u16, Vec<u8>) {
    let draining = ctx.shutdown.load(Ordering::SeqCst);
    let models = ctx.registry.health();
    let any_ready = ctx.registry.any_ready();
    let status = if draining || !any_ready {
        "unavailable"
    } else if models.iter().all(|m| m.available) {
        "ok"
    } else {
        "degraded"
    };
    let report = HealthReport {
        status: status.to_string(),
        draining,
        queue_depth: ctx.jobs.len(),
        queue_capacity: ctx.config.queue_capacity,
        models,
    };
    let code = if draining || !any_ready { 503 } else { 200 };
    match serde_json::to_vec(&report) {
        Ok(body) => (code, body),
        Err(e) => (500, ErrorResponse::json(format!("serialization: {e}"))),
    }
}

/// The request's deadline budget in milliseconds: JSON field first,
/// then the `x-deadline-ms` header, then the server default (0 = none).
/// `Some(0)` is a valid budget — it is already due at admission and
/// deterministically sheds `504`.
fn deadline_budget_ms(ctx: &Ctx, request: &Request, parsed: &InferRequest) -> Option<u64> {
    parsed
        .deadline_ms
        .or_else(|| {
            request
                .header("x-deadline-ms")
                .and_then(|v| v.trim().parse().ok())
        })
        .or(if ctx.config.default_deadline_ms > 0 {
            Some(ctx.config.default_deadline_ms)
        } else {
            None
        })
}

fn infer_route(ctx: &Ctx, request: &Request) -> (u16, Vec<u8>) {
    // One trace per request: the `serve/request` root span covers
    // admission to response assembly on this worker thread; phases
    // measured elsewhere (queue wait, batch execution) are recorded
    // retroactively under it, and the batch's own trace is cross-linked
    // via the exec span's aux value.
    let trace_id = if trace::enabled() {
        trace::next_trace_id()
    } else {
        0
    };
    let _trace = trace::trace_scope(trace_id);
    let root = trace::span("serve/request");
    let parsed: InferRequest = {
        let _parse = trace::span("serve/parse");
        match serde_json::from_slice(&request.body) {
            Ok(p) => p,
            Err(e) => return (400, ErrorResponse::json(format!("bad request body: {e}"))),
        }
    };
    let model = match ctx.registry.resolve(parsed.model.as_deref()) {
        Resolution::Ready(m) => m,
        Resolution::Unavailable { name, error } => {
            ctx.metrics.observe_model_unavailable();
            return (
                503,
                ErrorResponse::json(format!("model `{name}` unavailable: {error}")),
            );
        }
        Resolution::Unknown => {
            return (
                404,
                ErrorResponse::json(format!(
                    "unknown model {:?} (see GET /v1/models)",
                    parsed.model.as_deref().unwrap_or("<default>")
                )),
            );
        }
    };
    if parsed.image.len() != model.input_len() {
        return (
            400,
            ErrorResponse::json(format!(
                "image has {} values, model `{}` expects {} (= {:?})",
                parsed.image.len(),
                model.name,
                model.input_len(),
                model.image_dims()
            )),
        );
    }
    // Per-model admission quota: one hot model may only hold a bounded
    // share of the queue, so it cannot starve the rest. The census and
    // the push are not atomic — a racing admission can overshoot by one
    // — which is fine for a fairness quota (a soft bound, not an
    // invariant).
    let quota = ctx.config.model_quota;
    if quota > 0 && ctx.jobs.count_matching(|j| j.model.name == model.name) >= quota {
        ctx.metrics.observe_model_quota_rejection(&model.name);
        return (
            429,
            ErrorResponse::json(format!(
                "model `{}` admission quota ({quota}) full — retry with backoff",
                model.name
            )),
        );
    }
    let early_exit = parsed.early_exit.unwrap_or(ctx.config.early_exit);
    let want_timing = parsed.timing.unwrap_or(false);
    let enqueued = Instant::now();
    let deadline =
        deadline_budget_ms(ctx, request, &parsed).map(|ms| enqueued + Duration::from_millis(ms));
    let (reply_tx, reply_rx) = mpsc::channel();
    let job = InferJob {
        model: Arc::clone(&model),
        image: parsed.image,
        early_exit,
        deadline,
        enqueued,
        reply: reply_tx,
    };
    match ctx.jobs.push(job) {
        Ok(()) => {}
        Err(PushError::Full(_)) => {
            ctx.metrics.observe_queue_rejection();
            return (
                429,
                ErrorResponse::json("admission queue full — retry with backoff"),
            );
        }
        Err(PushError::Closed(_)) => {
            return (503, ErrorResponse::json("server is shutting down"));
        }
    }
    ctx.metrics.set_queue_depth(ctx.jobs.len());
    match reply_rx.recv_timeout(REPLY_TIMEOUT) {
        Ok(Ok(outcome)) => {
            let latency_us = enqueued.elapsed().as_micros() as u64;
            ctx.metrics.observe_latency_us(latency_us);
            ctx.metrics.observe_request_stages(
                &model.name,
                outcome.queue_us,
                outcome.infer_us,
                latency_us,
            );
            if trace_id != 0 {
                // Queue wait and batch execution happened off this
                // thread; reconstruct them under the request root from
                // the batcher's measurements. The exec span's aux is
                // the batch's own trace id — follow it to the shared
                // `serve/batch_exec` tree with the engine phases.
                trace::record_complete(
                    "serve/queue_wait",
                    enqueued,
                    Duration::from_micros(outcome.queue_us),
                    trace_id,
                    root.id(),
                    0,
                );
                trace::record_complete(
                    "serve/exec",
                    enqueued + Duration::from_micros(outcome.queue_us),
                    Duration::from_micros(outcome.infer_us),
                    trace_id,
                    root.id(),
                    outcome.batch_trace,
                );
            }
            if ctx.config.slow_us > 0 && latency_us >= ctx.config.slow_us {
                ctx.slow.record(SlowExemplar {
                    trace: trace_id,
                    batch_trace: outcome.batch_trace,
                    model: model.name.clone(),
                    total_us: latency_us,
                    queue_us: outcome.queue_us,
                    infer_us: outcome.infer_us,
                    batch_size: outcome.batch_size,
                    degraded: outcome.degraded,
                });
                log::debug(
                    "slow_request",
                    &[
                        ("model", (&model.name).into()),
                        ("trace", trace_id.into()),
                        ("total_us", latency_us.into()),
                        ("queue_us", outcome.queue_us.into()),
                        ("infer_us", outcome.infer_us.into()),
                        ("batch_size", outcome.batch_size.into()),
                    ],
                );
            }
            let timing = want_timing.then_some(Timing {
                trace: trace_id,
                batch_trace: outcome.batch_trace,
                queue_us: outcome.queue_us,
                infer_us: outcome.infer_us,
                total_us: latency_us,
            });
            let _respond = trace::span("serve/respond");
            let response = InferResponse {
                model: model.name.clone(),
                version: model.version,
                label: outcome.result.label,
                decision_step: outcome.result.decision_step,
                steps: outcome.result.steps,
                top_potential: outcome.result.top_potential,
                input_spikes: outcome.result.input_spikes,
                hidden_spikes: outcome.result.hidden_spikes,
                synop_adds: outcome.result.synop_adds,
                synop_mults: outcome.result.synop_mults,
                energy_truenorth: outcome.energy_truenorth(),
                batch_size: outcome.batch_size,
                queue_us: outcome.queue_us,
                infer_us: outcome.infer_us,
                degraded: outcome.degraded,
                timing,
            };
            match serde_json::to_vec(&response) {
                Ok(body) => (200, body),
                Err(e) => (500, ErrorResponse::json(format!("serialization: {e}"))),
            }
        }
        Ok(Err(JobError::Shed { waited_us })) => (
            504,
            ErrorResponse::json(format!(
                "deadline exceeded before dispatch (waited {waited_us} µs in queue)"
            )),
        ),
        Ok(Err(JobError::Late { total_us })) => (
            504,
            ErrorResponse::json(format!(
                "deadline exceeded during execution (answer ready after {total_us} µs)"
            )),
        ),
        Ok(Err(JobError::Failed(message))) => (500, ErrorResponse::json(message)),
        // The eviction itself was already counted (model_unavailable)
        // by the drain; this arm only shapes the answer.
        Ok(Err(JobError::Evicted { model, reason })) => (
            503,
            ErrorResponse::json(format!("model `{model}` {reason} while request was queued")),
        ),
        Err(_) => (500, ErrorResponse::json("inference timed out")),
    }
}
