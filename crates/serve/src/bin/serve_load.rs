//! Closed-loop load generator and CI gate driver for `t2fsnn_serve`.
//!
//! ```sh
//! serve_load drive [--requests N] [--concurrency C]   # a server on 127.0.0.1:7878
//! serve_load smoke | chaos | overload | churn | perturb | obs
//! ```
//!
//! Every mode is a list of phases over one driver. A [`Server`] spawns
//! the sibling `t2fsnn_serve` binary on an ephemeral port (or wraps a
//! running one), sends `protocol` requests with bounded retries on
//! connection errors and `429` (seeded backoff jitter), scrapes
//! `/metrics` and `/healthz`, and shuts the child down over the ctrl
//! channel. A [`Gates`] collector records each failed condition; a gate
//! mode exits 1 if any failed. Every gate mode also requires each server
//! it spawns to exit 0 on shutdown. Timing is printed, never gated,
//! except where a mode says so.
//!
//! **drive** runs smoke's load against a server that is already
//! listening on the default address and prints what it saw; nothing is
//! asserted.
//!
//! **smoke** sends 120 requests at concurrency 4, cycling 32 `tiny`
//! images. Gates: the solo reference ran in a batch of one; ≥ 99 % of
//! requests answer `200` and none fails in transport; some micro-batch
//! exceeds size 1; every repeat of image 0 is bit-identical to the solo
//! reference; the server's `latency_us` histogram counted every `200`;
//! each client p50/p95/p99 is at least the lower edge of the histogram
//! bucket holding the same server-side quantile.
//!
//! **chaos** runs the server with [`CHAOS_FAULT_SPEC`] (the quarantine
//! breaker out of reach) and sends 160 requests at concurrency 6, by
//! index 70 % valid, 15 % malformed (a 7-pixel image) and 15 % doomed
//! (`deadline_ms: 0`). Gates: every request reaches a terminal outcome;
//! valid requests answer `200`, `500` or `429`, malformed ones `400`,
//! doomed ones `504`; at least half the answered valid requests succeed;
//! repeats of image 0 match the solo reference; `/healthz` is ok;
//! `/metrics` counts injected faults, batch panics and deadline sheds,
//! and zero batcher respawns.
//!
//! **overload** measures full-window capacity (200 requests at
//! concurrency 8), warms the anytime estimator, then offers 1500
//! full-window requests at concurrency 96 with a 15 ms deadline. Gates:
//! offered load ≥ 2× capacity; some request is answered; the p99 of the
//! answered requests' admission-to-answer time (`queue_us + infer_us`)
//! is within the deadline; the ladder forced an early exit; no
//! transport failure.
//!
//! **churn** runs four servers. (1) Runtime load of `mnist-like`, mixed
//! traffic at concurrency 2 and 8, then reload, unload and re-load under
//! traffic: no transport failure; every `200` bit-identical to its
//! model's solo reference with the expected `version`; both v1 and v2
//! answers during the reload; a monotone `200 → 503` cutover on unload;
//! `/healthz` degraded/unloaded, then ok; counters 3 loads, 1 unload,
//! 0 canary rejections, 0 quarantine trips. (2) Quota 2, max batch 1 and
//! 100 ms batch delays: 6-wide traffic draws `429`s, every answer is
//! `200` or `429`, and the labeled quota counter is non-zero. (3) A
//! `canary_fail` burst rejects the first reload; the incumbent keeps
//! answering v1 bit-exact; the next reload promotes; counters 1
//! rejection, 1 load. (4) A `model_panic` burst: three `500`s trip the
//! quarantine, the model answers `503` and reports quarantined, the
//! canary probe readmits v1 bit-exact; counters 1 trip, ≥ 1 probe,
//! 1 readmission, 3 panics.
//!
//! **perturb** sweeps [`PERTURB_SPEC`] over severities 0, 0.5 and 1.
//! Each severity restarts the server with `T2FSNN_SERVE_PERTURB` (event
//! and weight families) while the client perturbs the images (input
//! families). Gates: severity-0 answers are bit-identical to a clean
//! server's; all 64 requests at concurrency 4 answer `200`, each
//! bit-identical to its image's solo answer; `/healthz` is ok;
//! `perturbed_models_total` is 1 unless the spec is the identity; some
//! weight row is rewritten when `wgauss > 0` and none under the
//! identity.
//!
//! **obs** first runs `repro_fig6` (quick) with `T2FSNN_TRACE` set and
//! gates the export: Chrome trace JSON with `displayTimeUnit` `ms`,
//! complete spans with sane `ts`/`dur` and span ids, a `ttfs/*` span
//! and a parent link. It then drives two servers, tracing and
//! structured logging off and on, with 200 requests at concurrency 4
//! each: every request answers `200`; per-image answers are
//! bit-identical across the two; a `timing: true` request's trace id
//! and a `serve/request` span appear in `/debug/trace`; `/debug/slow`
//! serves its threshold body. Last, in process, solo `tiny` `infer`
//! with the flight recorder on must stay within 3 % of off (medians of
//! 40 interleaved blocks).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Deserialize;
use t2fsnn::scenario::{prepare, Scenario};
use t2fsnn::{InferOptions, T2fsnn, T2fsnnConfig};
use t2fsnn_serve::protocol::{HealthReport, InferRequest, InferResponse, ModelHealth};
use t2fsnn_tensor::perturb::PerturbSpec;
use t2fsnn_tensor::{trace, Tensor};

const USAGE: &str = "usage: serve_load <smoke|chaos|overload|churn|perturb|obs>\n       \
                     serve_load drive [--requests N] [--concurrency C]";

/// Model of every single-model mode.
const MODEL: Scenario = Scenario::Tiny;

/// Seed of the client's backoff-jitter streams.
const SEED: u64 = 42;

/// Where `drive` connects: the server's default listen address.
const DRIVE_ADDR: &str = "127.0.0.1:7878";

/// Fixed fault spec for `chaos`: every kind exercised, rates low
/// enough that most valid traffic still succeeds, panic rate high
/// enough that a run of ≥100 requests observes batch panics.
const CHAOS_FAULT_SPEC: &str =
    "1337:slow_read=0.05@20,abort_read=0.05,drop_resp=0.05,panic=0.15,batch_delay=0.05@5";

/// The perturbation spec `perturb` sweeps over severities.
const PERTURB_SPEC: &str = "9:igauss=0.15,jitter=2,drop=0.1,wgauss=0.05";

/// Per-request deadline of `overload`'s phase B.
const OVERLOAD_DEADLINE_MS: u64 = 15;

/// Bounded retry attempts per request (connection errors and `429`s).
const MAX_RETRIES: u32 = 3;

/// Size of one closed-loop run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Load {
    requests: usize,
    concurrency: usize,
}

const SMOKE: Load = Load {
    requests: 120,
    concurrency: 4,
};
const CHAOS: Load = Load {
    requests: 160,
    concurrency: 6,
};
const OVERLOAD: Load = Load {
    requests: 1500,
    concurrency: 96,
};
const PERTURB: Load = Load {
    requests: 64,
    concurrency: 4,
};
const OBS: Load = Load {
    requests: 200,
    concurrency: 4,
};

/// Byte-level identity of the inference-determined fields (`version`,
/// `batch_size`, `degraded` and the timings are scheduling metadata,
/// not inference output).
fn same_bits(a: &InferResponse, b: &InferResponse) -> bool {
    a.label == b.label
        && a.decision_step == b.decision_step
        && a.steps == b.steps
        && a.top_potential.to_bits() == b.top_potential.to_bits()
        && a.input_spikes == b.input_spikes
        && a.hidden_spikes == b.hidden_spikes
        && a.synop_adds == b.synop_adds
        && a.synop_mults == b.synop_mults
}

/// The one `/v1/infer` body constructor: early exit on, no deadline, no
/// timing. Callers override fields with struct-update syntax.
fn infer_request(model: &str, image: &[f32]) -> InferRequest {
    InferRequest {
        model: Some(model.to_string()),
        image: image.to_vec(),
        early_exit: Some(true),
        deadline_ms: None,
        timing: None,
    }
}

/// The first 32 images of a scenario's dataset, flattened (synthesis
/// only: the client never trains).
fn images(scenario: Scenario) -> Vec<Vec<f32>> {
    let data = scenario.dataset();
    let feature: usize = data.images.dims()[1..].iter().product();
    data.images
        .data()
        .chunks(feature)
        .take(32)
        .map(<[f32]>::to_vec)
        .collect()
}

/// Exponential backoff with jitter: 2/4/8 ms base plus up to one base
/// of seeded jitter.
fn backoff(attempt: u32, rng: &mut ChaCha8Rng) -> Duration {
    let base = 2u64 << attempt.min(8);
    Duration::from_millis(base + rng.gen_range(0..base))
}

/// Terminal status of one `/v1/infer` request (`None` = transport
/// failure after all retries) and, for a `200`, the parsed answer.
type Answer = (Option<u16>, Option<InferResponse>);

/// One keep-alive client connection with its own seeded backoff
/// stream; a transport error drops the connection and the next attempt
/// reconnects.
struct Conn<'a> {
    server: &'a Server,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    rng: ChaCha8Rng,
}

impl Conn<'_> {
    /// One request with bounded retry: reconnects on transport errors
    /// and backs off on `429`. `None` means the request never reached a
    /// terminal HTTP status.
    fn request(&mut self, method: &str, path: &str, body: &[u8]) -> Option<(u16, Vec<u8>)> {
        let mut attempt = 0u32;
        loop {
            let retries = match self.exchange(method, path, body) {
                Ok((429, _)) if attempt < MAX_RETRIES => &self.server.retries_429,
                Ok(reply) => return Some(reply),
                Err(_) => {
                    self.stream = None;
                    if attempt >= MAX_RETRIES {
                        return None;
                    }
                    &self.server.retries_transport
                }
            };
            retries.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(backoff(attempt, &mut self.rng));
            attempt += 1;
        }
    }

    /// Sends one request and reads one `Content-Length`-framed response,
    /// connecting first if needed.
    fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> std::io::Result<(u16, Vec<u8>)> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(&self.server.addr)?;
            stream.set_read_timeout(Some(Duration::from_secs(90)))?;
            stream.set_nodelay(true)?;
            self.buf.clear();
            self.stream = Some(stream);
        }
        let stream = self.stream.as_mut().expect("connected");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: load\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(body)?;
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            read_more(stream, &mut self.buf)?;
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line")
            })?;
        let content_length: usize = head
            .lines()
            .find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.trim()
                    .eq_ignore_ascii_case("content-length")
                    .then(|| v.trim().parse().ok())?
            })
            .unwrap_or(0);
        while self.buf.len() < head_end + content_length {
            read_more(stream, &mut self.buf)?;
        }
        let body = self.buf[head_end..head_end + content_length].to_vec();
        self.buf.drain(..head_end + content_length);
        Ok((status, body))
    }

    /// `POST /v1/infer` with retries.
    fn infer(&mut self, request: &InferRequest) -> Answer {
        let body = serde_json::to_vec(request).expect("serialize request");
        match self.request("POST", "/v1/infer", &body) {
            Some((status, body)) => (
                Some(status),
                (status == 200)
                    .then(|| serde_json::from_slice(&body).ok())
                    .flatten(),
            ),
            None => (None, None),
        }
    }
}

/// Reads one chunk from `stream` into `buf`; a closed connection is an
/// error (every response is `Content-Length`-framed).
fn read_more(stream: &mut TcpStream, buf: &mut Vec<u8>) -> std::io::Result<()> {
    let mut chunk = [0u8; 4096];
    match stream.read(&mut chunk)? {
        0 => Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed mid-response",
        )),
        n => {
            buf.extend_from_slice(&chunk[..n]);
            Ok(())
        }
    }
}

/// A server under test: the spawned child (none for `drive`), its
/// address, the seed source of each connection's backoff stream, and
/// the retry counters every summary reports.
struct Server {
    child: Option<Child>,
    addr: String,
    streams: AtomicU64,
    retries_429: AtomicU64,
    retries_transport: AtomicU64,
}

impl Server {
    fn at(addr: String, child: Option<Child>) -> Server {
        Server {
            child,
            addr,
            streams: AtomicU64::new(0),
            retries_429: AtomicU64::new(0),
            retries_transport: AtomicU64::new(0),
        }
    }

    /// Spawns the sibling `t2fsnn_serve` binary on an ephemeral port
    /// serving `models`, with `env` on top of the harness defaults, and
    /// waits for its readiness line.
    fn spawn(models: &str, env: &[(&str, &str)]) -> Server {
        let exe = std::env::current_exe().expect("current_exe");
        let server_bin = exe.with_file_name("t2fsnn_serve");
        if !server_bin.exists() {
            eprintln!(
                "[serve_load] FATAL: {} not found — build it first \
                 (cargo build --release -p t2fsnn-serve)",
                server_bin.display()
            );
            std::process::exit(2);
        }
        let mut command = Command::new(&server_bin);
        command
            .env("T2FSNN_SERVE_ADDR", "127.0.0.1:0")
            .env("T2FSNN_SERVE_MODELS", models)
            .env("T2FSNN_SERVE_MAX_BATCH", "8")
            .env("T2FSNN_SERVE_MAX_DELAY_US", "4000")
            .env("T2FSNN_SERVE_QUEUE", "256")
            .env("T2FSNN_SERVE_WORKERS", "8")
            .envs(env.iter().copied())
            .stdout(Stdio::piped());
        let mut child = command.spawn().expect("spawn t2fsnn_serve");
        let mut reader = BufReader::new(child.stdout.take().expect("child stdout"));
        let addr = loop {
            let mut line = String::new();
            if reader.read_line(&mut line).expect("read server stdout") == 0 {
                let status = child.wait().ok();
                eprintln!("[serve_load] FATAL: server exited before listening ({status:?})");
                std::process::exit(2);
            }
            print!("[server] {line}");
            if let Some(rest) = line.trim().strip_prefix("[serve] listening on ") {
                break rest.to_string();
            }
        };
        // Keep draining the child's stdout so it can never block on a
        // full pipe.
        std::thread::spawn(move || {
            for line in reader.lines().map_while(Result::ok) {
                println!("[server] {line}");
            }
        });
        Server::at(addr, Some(child))
    }

    /// A fresh connection with the next seeded backoff stream.
    fn conn(&self) -> Conn<'_> {
        let n = self.streams.fetch_add(1, Ordering::Relaxed);
        Conn {
            server: self,
            stream: None,
            buf: Vec::new(),
            rng: ChaCha8Rng::seed_from_u64(SEED ^ n),
        }
    }

    fn get(&self, path: &str) -> Option<(u16, Vec<u8>)> {
        self.conn().request("GET", path, b"")
    }

    fn post(&self, path: &str) -> Option<(u16, Vec<u8>)> {
        self.conn().request("POST", path, b"")
    }

    /// One inference request on a fresh connection.
    fn infer(&self, request: &InferRequest) -> Answer {
        self.conn().infer(request)
    }

    /// A solo reference answer (a batch of one), retried until a `200`
    /// parses: fault injection may eat attempts but never changes the
    /// bits of an answer, so any `200` is canonical.
    fn solo(&self, request: &InferRequest) -> InferResponse {
        for _ in 0..20 {
            if let (_, Some(answer)) = self.infer(request) {
                return answer;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        panic!(
            "could not obtain a solo reference response from {}",
            self.addr
        );
    }

    /// The `/metrics` exposition text.
    fn metrics(&self) -> Option<String> {
        match self.get("/metrics")? {
            (200, body) => Some(String::from_utf8_lossy(&body).into_owned()),
            _ => None,
        }
    }

    /// One `/metrics` scrape read as counters (a missing line reads 0);
    /// `None` when the scrape fails.
    fn counters<const N: usize>(&self, names: [&str; N]) -> Option<[u64; N]> {
        let text = self.metrics()?;
        Some(names.map(|name| counter(&text, name)))
    }

    /// `/healthz`, parsed whatever its status (a degraded report still
    /// carries the per-model states).
    fn health(&self) -> Option<HealthReport> {
        serde_json::from_slice(&self.get("/healthz")?.1).ok()
    }

    /// One model's `/healthz` entry, if the slot exists.
    fn model(&self, name: &str) -> Option<ModelHealth> {
        self.health()?.models.into_iter().find(|m| m.name == name)
    }

    /// `POST /admin/models/<name>/<action>`; the terminal status.
    fn admin(&self, name: &str, action: &str) -> Option<u16> {
        self.post(&format!("/admin/models/{name}/{action}"))
            .map(|(status, _)| status)
    }

    /// Calls `probe` every 25 ms until it yields a value or `timeout`
    /// expires.
    fn poll_until<T>(
        &self,
        timeout: Duration,
        mut probe: impl FnMut(&Server) -> Option<T>,
    ) -> Option<T> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(found) = probe(self) {
                return Some(found);
            }
            if Instant::now() >= deadline {
                return None;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    /// Runs the closed loop: `load.concurrency` workers, each with its
    /// own keep-alive connection and backoff stream, sending the next
    /// request as soon as the previous one reaches a terminal outcome.
    /// `make` builds request `i`.
    fn closed_loop(&self, load: Load, make: impl Fn(usize) -> InferRequest + Sync) -> LoadReport {
        let next = AtomicUsize::new(0);
        let sink = Mutex::new(Vec::with_capacity(load.requests));
        let retries =
            || [&self.retries_429, &self.retries_transport].map(|c| c.load(Ordering::Relaxed));
        let before = retries();
        let started = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..load.concurrency {
                let mut conn = self.conn();
                let (next, sink, make) = (&next, &sink, &make);
                scope.spawn(move || loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= load.requests {
                        break;
                    }
                    let request = make(index);
                    let sent = Instant::now();
                    let (status, response) = conn.infer(&request);
                    let latency_us = sent.elapsed().as_micros() as u64;
                    let outcome = Outcome {
                        index,
                        status,
                        latency_us,
                        response,
                    };
                    sink.lock().expect("sink").push(outcome);
                });
            }
        });
        let wall = started.elapsed();
        let after = retries();
        LoadReport {
            wall,
            outcomes: sink.into_inner().expect("sink"),
            retries_429: after[0] - before[0],
            retries_transport: after[1] - before[1],
        }
    }

    /// Requests the ctrl-channel shutdown (retrying: fault injection
    /// may eat the acknowledgment) and gates on exit 0. A child that
    /// never exits is killed and reaped.
    fn shutdown(mut self, gates: &mut Gates) {
        let Some(mut child) = self.child.take() else {
            return;
        };
        for _ in 0..10 {
            let _ = self.post("/admin/shutdown");
            let wait_until = Instant::now() + Duration::from_secs(3);
            while Instant::now() < wait_until {
                match child.try_wait() {
                    Ok(Some(status)) => {
                        gates.check(status.success(), format!("server exited with {status}"));
                        if status.success() {
                            println!("[serve_load] server shut down cleanly (exit 0)");
                        }
                        return;
                    }
                    _ => std::thread::sleep(Duration::from_millis(20)),
                }
            }
        }
        gates.fail("server did not exit after repeated shutdown requests");
        let _ = child.kill();
        let _ = child.wait();
    }
}

impl Drop for Server {
    /// A server whose mode panicked before shutting it down is killed
    /// and reaped, never left listening.
    fn drop(&mut self) {
        if let Some(child) = &mut self.child {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Failed gate conditions of one mode.
#[derive(Default)]
struct Gates(Vec<String>);

impl Gates {
    /// Records `failure` unless `ok`.
    fn check(&mut self, ok: bool, failure: impl Into<String>) {
        if !ok {
            self.0.push(failure.into());
        }
    }

    fn fail(&mut self, failure: impl Into<String>) {
        self.0.push(failure.into());
    }

    /// Prints the verdict; exits 1 if any gate failed.
    fn finish(self, mode: &str, held: &str) {
        if self.0.is_empty() {
            println!("[serve_load] {mode} OK — {held}");
            return;
        }
        for failure in &self.0 {
            eprintln!("[serve_load] {mode} GATE FAILED: {failure}");
        }
        std::process::exit(1);
    }
}

/// Terminal outcome of one closed-loop request after retries.
struct Outcome {
    index: usize,
    /// Final HTTP status; `None` = transport failure after all retries.
    status: Option<u16>,
    latency_us: u64,
    /// Parsed body of a `200`.
    response: Option<InferResponse>,
}

/// Everything a closed-loop run measured.
struct LoadReport {
    wall: Duration,
    outcomes: Vec<Outcome>,
    retries_429: u64,
    retries_transport: u64,
}

impl LoadReport {
    fn count_status(&self, status: u16) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.status == Some(status))
            .count()
    }

    fn ok_count(&self) -> usize {
        self.count_status(200)
    }

    fn transport_errors(&self) -> usize {
        self.outcomes.iter().filter(|o| o.status.is_none()).count()
    }

    /// Latencies of the requests that reached a status (`only` one
    /// status when given).
    fn latencies_us(&self, only: Option<u16>) -> Vec<u64> {
        self.outcomes
            .iter()
            .filter(|o| o.status.is_some() && only.is_none_or(|s| o.status == Some(s)))
            .map(|o| o.latency_us)
            .collect()
    }

    fn check_all_ok(&self, gates: &mut Gates, label: &str) {
        gates.check(
            self.ok_count() == self.outcomes.len(),
            format!(
                "{label}: only {}/{} requests answered 200",
                self.ok_count(),
                self.outcomes.len()
            ),
        );
    }

    fn responses(&self) -> impl Iterator<Item = (usize, &InferResponse)> {
        self.outcomes
            .iter()
            .filter_map(|o| o.response.as_ref().map(|r| (o.index, r)))
    }

    fn print(&self, label: &str) {
        let ok = self.ok_count();
        let latencies = self.latencies_us(None);
        println!(
            "[serve_load] {label}: {} outcomes in {:.2}s — {:.1} ok/s, 2xx {:.1}%, 504 {}, \
             {} transport failures, retries {} (429) + {} (transport)",
            self.outcomes.len(),
            self.wall.as_secs_f64(),
            ok as f64 / self.wall.as_secs_f64().max(1e-9),
            ok as f64 / self.outcomes.len().max(1) as f64 * 100.0,
            self.count_status(504),
            self.transport_errors(),
            self.retries_429,
            self.retries_transport,
        );
        println!(
            "[serve_load] {label} latency µs: mean {} min {} max {} p50 {} p95 {} p99 {}",
            latencies.iter().sum::<u64>() / latencies.len().max(1) as u64,
            latencies.iter().min().unwrap_or(&0),
            latencies.iter().max().unwrap_or(&0),
            quantile_us(&latencies, 0.5),
            quantile_us(&latencies, 0.95),
            quantile_us(&latencies, 0.99),
        );
    }
}

/// `q`-quantile (by ceil rank) of an unsorted latency sample; 0 when
/// empty.
fn quantile_us(latencies: &[u64], q: f64) -> u64 {
    if latencies.is_empty() {
        return 0;
    }
    let mut sorted = latencies.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil().max(1.0) as usize - 1).min(sorted.len() - 1);
    sorted[rank]
}

/// Value of the `name value` line in a metrics exposition; `name` may
/// carry labels (`x_total{model="tiny"}`). A missing line reads 0.
fn counter(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|line| line.strip_prefix(name)?.trim().parse().ok())
        .unwrap_or(0)
}

/// Parses `<name>{le="<edge>"} <count>` lines into ordered
/// `(upper_edge_us, count)` pairs. The server's histograms are
/// **per-bucket** (each line carries only its own slot's count, not a
/// cumulative tally); `+Inf` maps to `u64::MAX`.
fn histogram_buckets(text: &str, name: &str) -> Vec<(u64, u64)> {
    let prefix = format!("{name}{{le=\"");
    text.lines()
        .filter_map(|line| {
            let rest = line.strip_prefix(&prefix)?;
            let (edge, rest) = rest.split_once("\"}")?;
            let edge = if edge == "+Inf" {
                u64::MAX
            } else {
                edge.parse().ok()?
            };
            Some((edge, rest.trim().parse().ok()?))
        })
        .collect()
}

/// Lower edge (µs) of the bucket holding the `q`-quantile sample of a
/// per-bucket histogram — i.e. the previous bucket's upper edge, 0 for
/// the first. Every sample in that bucket is ≥ this edge, so it is a
/// sound lower bound for any client-side measurement of the same
/// population.
fn histogram_quantile_lower_us(buckets: &[(u64, u64)], q: f64) -> u64 {
    let total: u64 = buckets.iter().map(|(_, c)| c).sum();
    if total == 0 {
        return 0;
    }
    let rank = ((q * total as f64).ceil().max(1.0)) as u64;
    let mut seen = 0u64;
    let mut lower = 0u64;
    for &(edge, count) in buckets {
        seen += count;
        if seen >= rank {
            return lower;
        }
        lower = edge;
    }
    lower
}

/// Smoke's solo reference, load and gates against `server`.
fn smoke_load(server: &Server, load: Load, gates: &mut Gates) {
    let images = images(MODEL);
    let solo = server.solo(&infer_request(MODEL.name(), &images[0]));
    println!(
        "[serve_load] solo reference: label {}, steps {}, decision {:?}, batch {}",
        solo.label, solo.steps, solo.decision_step, solo.batch_size
    );
    gates.check(
        solo.batch_size == 1,
        format!("solo reference ran in a batch of {}", solo.batch_size),
    );

    println!(
        "[serve_load] closed loop: {} requests, concurrency {}, model `{}`",
        load.requests,
        load.concurrency,
        MODEL.name()
    );
    let report = server.closed_loop(load, |i| {
        infer_request(MODEL.name(), &images[i % images.len()])
    });
    report.print("load");

    let ok_ratio = report.ok_count() as f64 / report.outcomes.len().max(1) as f64;
    let max_batch_seen = report.responses().map(|(_, r)| r.batch_size).max();
    let batched = report.responses().filter(|(_, r)| r.batch_size > 1).count();
    println!(
        "[serve_load] batches: {batched}/{} responses ran in batches > 1 (max observed {})",
        report.responses().count(),
        max_batch_seen.unwrap_or(0)
    );
    gates.check(ok_ratio >= 0.99, format!("2xx ratio {ok_ratio:.3} < 0.99"));
    gates.check(
        report.transport_errors() == 0,
        format!("{} terminal transport failures", report.transport_errors()),
    );
    gates.check(
        max_batch_seen > Some(1),
        "no micro-batch beyond size 1 formed",
    );
    // Request `i` carried `images[i % len]`, so every index that is a
    // multiple of `len` repeated the solo reference image under
    // concurrent load — and must match it byte for byte.
    let repeats: Vec<_> = report
        .responses()
        .filter(|(i, _)| i % images.len() == 0)
        .collect();
    for (i, r) in &repeats {
        gates.check(
            same_bits(r, &solo),
            format!("response {i} for image[0] differs from solo run"),
        );
    }
    gates.check(
        !repeats.is_empty(),
        "load run never repeated the reference image",
    );
    println!(
        "[serve_load] bit-identity: {} duplicate-image responses matched solo",
        repeats.len()
    );

    // The server's `latency_us` histogram observed the very 200s this
    // client just timed (plus the solo reference). Client wall latency
    // adds transport to the server's admission-to-answer interval, so
    // each client quantile must be at least the *lower edge* of the
    // bucket holding the server-side quantile: a machine-speed-
    // independent bound tying the client's numbers to the serving-path
    // instrumentation.
    let Some(text) = server.metrics() else {
        gates.fail("cannot fetch /metrics after load");
        return;
    };
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.contains("_bucket"))
    {
        println!("[metrics] {line}");
    }
    let buckets = histogram_buckets(&text, "t2fsnn_serve_latency_us_bucket");
    let observed: u64 = buckets.iter().map(|(_, c)| c).sum();
    gates.check(
        observed >= report.ok_count() as u64,
        format!(
            "latency histogram observed only {observed} requests, client saw {} 200s",
            report.ok_count()
        ),
    );
    let ok_latencies = report.latencies_us(Some(200));
    for (q, name) in [(0.5, "p50"), (0.95, "p95"), (0.99, "p99")] {
        let client = quantile_us(&ok_latencies, q);
        let server_lower = histogram_quantile_lower_us(&buckets, q);
        println!(
            "[serve_load] {name} cross-check: client wall {client} µs vs server \
             histogram bucket lower edge {server_lower} µs"
        );
        gates.check(
            client >= server_lower,
            format!(
                "client {name} {client} µs below the server histogram's {name} \
                 bucket lower edge {server_lower} µs"
            ),
        );
    }
}

/// `drive`: smoke's load against a running server, reported, not gated.
fn drive(load: Load) {
    let server = Server::at(DRIVE_ADDR.to_string(), None);
    let mut gates = Gates::default();
    smoke_load(&server, load, &mut gates);
    for note in gates.0 {
        println!("[serve_load] note: {note}");
    }
}

fn smoke() {
    let server = Server::spawn(MODEL.name(), &[]);
    let mut gates = Gates::default();
    smoke_load(&server, SMOKE, &mut gates);
    server.shutdown(&mut gates);
    gates.finish("SMOKE", "all correctness gates passed");
}

/// Traffic class of chaos request `i` (deterministic by index): 70 %
/// valid, 15 % malformed (short image → `400`), 15 % doomed
/// (`deadline_ms: 0` → deterministic `504` shed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChaosKind {
    Valid,
    Malformed,
    Doomed,
}

fn chaos_kind(i: usize) -> ChaosKind {
    match i % 20 {
        0..=13 => ChaosKind::Valid,
        14..=16 => ChaosKind::Malformed,
        _ => ChaosKind::Doomed,
    }
}

fn chaos() {
    println!("[serve_load] chaos fault spec: {CHAOS_FAULT_SPEC}");
    // The per-model breaker trips on 3 consecutive failed batches, which
    // independent 15 % panics hit about once per 300 batches — in ~1 run
    // of 5 here, with the model then answering 503 until a probe
    // readmits it. Chaos gates panic isolation, not the breaker (the
    // churn gate's subject), so the breaker is kept out of reach.
    let server = Server::spawn(
        MODEL.name(),
        &[
            ("T2FSNN_SERVE_FAULTS", CHAOS_FAULT_SPEC),
            ("T2FSNN_SERVE_QUARANTINE_THRESHOLD", &u32::MAX.to_string()),
        ],
    );
    let images = images(MODEL);
    let mut gates = Gates::default();
    let solo = server.solo(&infer_request(MODEL.name(), &images[0]));
    println!(
        "[serve_load] chaos solo reference: label {}, steps {}, decision {:?}",
        solo.label, solo.steps, solo.decision_step
    );

    let count = |kind| {
        (0..CHAOS.requests)
            .filter(|&i| chaos_kind(i) == kind)
            .count()
    };
    println!(
        "[serve_load] chaos closed loop: {} requests ({} valid / {} malformed / {} doomed), \
         concurrency {}",
        CHAOS.requests,
        count(ChaosKind::Valid),
        count(ChaosKind::Malformed),
        count(ChaosKind::Doomed),
        CHAOS.concurrency
    );
    let report = server.closed_loop(CHAOS, |i| {
        let request = infer_request(MODEL.name(), &images[i % images.len()]);
        match chaos_kind(i) {
            ChaosKind::Valid => request,
            ChaosKind::Malformed => InferRequest {
                image: vec![0.0; 7],
                ..request
            },
            ChaosKind::Doomed => InferRequest {
                deadline_ms: Some(0),
                ..request
            },
        }
    });
    report.print("chaos");

    // The loop returning at all is the no-wedge gate; completeness
    // catches lost replies.
    gates.check(
        report.outcomes.len() == CHAOS.requests,
        format!(
            "only {}/{} requests reached a terminal outcome",
            report.outcomes.len(),
            CHAOS.requests
        ),
    );
    // Transport failures are legal everywhere (aborted reads / dropped
    // responses land on arbitrary requests); an HTTP answer, when
    // given, must be the *right* answer. 500 = a batch the injector
    // panicked; 429 = queue pressure that outlived the retries.
    let (mut valid_total, mut valid_ok) = (0usize, 0usize);
    for outcome in &report.outcomes {
        let (i, Some(status)) = (outcome.index, outcome.status) else {
            continue;
        };
        match chaos_kind(i) {
            ChaosKind::Valid => {
                valid_total += 1;
                valid_ok += usize::from(status == 200);
                gates.check(
                    matches!(status, 200 | 500 | 429),
                    format!("valid request {i} answered {status}"),
                );
            }
            ChaosKind::Malformed => gates.check(
                status == 400,
                format!("malformed request {i} answered {status} (want 400)"),
            ),
            ChaosKind::Doomed => gates.check(
                status == 504,
                format!("doomed request {i} answered {status} (want 504)"),
            ),
        }
    }
    gates.check(
        valid_total == 0 || valid_ok as f64 >= 0.5 * valid_total as f64,
        format!("only {valid_ok}/{valid_total} valid requests succeeded (< 50%)"),
    );
    let mut bits_checked = 0usize;
    for (i, r) in report.responses() {
        if chaos_kind(i) == ChaosKind::Valid && i % images.len() == 0 {
            bits_checked += 1;
            gates.check(
                same_bits(r, &solo),
                format!("response {i} for image[0] differs under chaos"),
            );
        }
    }
    gates.check(
        bits_checked > 0,
        "no reference-image response survived to bit-check",
    );
    println!("[serve_load] chaos bit-identity: {bits_checked} responses matched solo");

    let health = server.health();
    gates.check(
        health.as_ref().is_some_and(|h| h.status == "ok"),
        format!("healthz not ok after chaos: {health:?}"),
    );

    // Faults fired and panics stayed isolated: the in-loop catch
    // handled them, the supervisor backstop stayed idle.
    match server.counters([
        "t2fsnn_serve_faults_injected_total",
        "t2fsnn_serve_worker_panics_total",
        "t2fsnn_serve_batcher_respawns_total",
        "t2fsnn_serve_deadline_shed_total",
    ]) {
        Some([injected, panics, respawns, shed]) => {
            println!(
                "[serve_load] chaos metrics: {injected} faults injected, {panics} batch panics, \
                 {respawns} batcher respawns, {shed} deadline sheds"
            );
            gates.check(injected > 0, "no fault was injected");
            gates.check(panics > 0, "no batch panic observed (panic rate too low?)");
            gates.check(
                respawns == 0,
                format!("batcher needed {respawns} respawns — a panic escaped catch_unwind"),
            );
            gates.check(shed > 0, "no deadline shed recorded despite doomed traffic");
        }
        None => gates.fail("cannot fetch /metrics after chaos"),
    }

    server.shutdown(&mut gates);
    gates.finish("CHAOS", "all invariants held under fault injection");
}

/// Measures full-window capacity, then offers ≥2× with deadlines and
/// lets the degradation ladder degrade instead of collapse.
fn overload() {
    // Workers sized to the client concurrency so the pressure lands on
    // the admission queue and batcher (the ladder), not on the accept
    // loop's connection backpressure. The loop is closed, so offered
    // load can only exceed capacity through shedding: expired slots
    // recycle in ~deadline time, and concurrency 96 makes that recycling
    // rate clear 2× the full-window capacity.
    let server = Server::spawn(
        MODEL.name(),
        &[
            ("T2FSNN_SERVE_WORKERS", &OVERLOAD.concurrency.to_string()),
            ("T2FSNN_SERVE_QUEUE", "512"),
        ],
    );
    let images = images(MODEL);
    let mut gates = Gates::default();
    let early_exit = |i: usize| infer_request(MODEL.name(), &images[i % images.len()]);
    let full_window = |i: usize| InferRequest {
        early_exit: Some(false),
        ..early_exit(i)
    };

    let solo = server.solo(&full_window(0));
    println!(
        "[serve_load] overload solo (full window): label {}, steps {}",
        solo.label, solo.steps
    );

    // Phase A: sustainable full-window capacity, no deadlines.
    let at_8 = |requests| Load {
        requests,
        concurrency: 8,
    };
    println!("[serve_load] phase A: full-window capacity at c8");
    let capacity = server.closed_loop(at_8(200), full_window);
    capacity.print("capacity");
    let capacity_rps = capacity.ok_count() as f64 / capacity.wall.as_secs_f64().max(1e-9);

    // Rung 3 (unmeetable shed) stays disabled until the batcher has seen
    // an early-exit batch, so a cold phase B would answer its first
    // deadline-pressed batch late.
    println!("[serve_load] warm-up: anytime estimator (100 early-exit requests)");
    server.closed_loop(at_8(100), early_exit);

    // Phase B: full window requested, so every degraded answer is the
    // ladder's doing.
    println!(
        "[serve_load] phase B: overload at c{}, deadline {OVERLOAD_DEADLINE_MS} ms, {} requests",
        OVERLOAD.concurrency, OVERLOAD.requests
    );
    let overload = server.closed_loop(OVERLOAD, |i| InferRequest {
        deadline_ms: Some(OVERLOAD_DEADLINE_MS),
        ..full_window(i)
    });
    overload.print("overload");

    let answered = overload.ok_count();
    let degraded = overload.responses().filter(|(_, r)| r.degraded).count();
    let wall = overload.latencies_us(Some(200));
    // The deadline bounds admission to answer (the server's clock starts
    // when the request is parsed); the response's own `queue_us +
    // infer_us` is that interval. Client wall latency also counts
    // transport and the generator's own scheduling, so it is reported
    // but not gated.
    let server_us: Vec<u64> = overload
        .responses()
        .map(|(_, r)| r.queue_us + r.infer_us)
        .collect();
    let p99_server = quantile_us(&server_us, 0.99);
    let offered_rps = overload.outcomes.len() as f64 / overload.wall.as_secs_f64().max(1e-9);
    let ratio = offered_rps / capacity_rps.max(1e-9);
    let deadline_us = OVERLOAD_DEADLINE_MS * 1000;
    println!(
        "[serve_load] overload: offered {offered_rps:.1} req/s = {ratio:.2}× capacity \
         ({capacity_rps:.1}), answered {answered} (degraded {degraded}), shed {}, \
         admission-to-answer p50/p99 {}/{p99_server} µs (client-side wall {}/{} µs) vs \
         deadline {deadline_us} µs",
        overload.count_status(504),
        quantile_us(&server_us, 0.5),
        quantile_us(&wall, 0.5),
        quantile_us(&wall, 0.99),
    );

    let mut forced = 0;
    match server.counters([
        "t2fsnn_serve_deadline_shed_total",
        "t2fsnn_serve_unmeetable_shed_total",
        "t2fsnn_serve_forced_early_exit_total",
        "t2fsnn_serve_deadline_late_answers_total",
    ]) {
        Some([shed, unmeetable, forced_now, late]) => {
            forced = forced_now;
            println!(
                "[serve_load] overload metrics: {shed} sheds ({unmeetable} unmeetable), \
                 {forced} forced early-exits, {late} late answers"
            );
        }
        None => gates.fail("cannot fetch /metrics after overload"),
    }

    gates.check(
        ratio >= 2.0,
        format!("offered load only {ratio:.2}× capacity (need ≥ 2×)"),
    );
    gates.check(answered > 0, "no request was answered under overload");
    gates.check(
        p99_server <= deadline_us,
        format!("admission-to-answer p99 {p99_server} µs exceeds deadline {deadline_us} µs"),
    );
    gates.check(
        forced > 0,
        "ladder never forced an early-exit (overload too mild?)",
    );
    gates.check(
        overload.transport_errors() == 0,
        format!(
            "{} terminal transport failures under overload",
            overload.transport_errors()
        ),
    );

    server.shutdown(&mut gates);
    gates.finish("OVERLOAD", "deadline ladder held under ≥2× load");
}

fn perturb() {
    let base = PerturbSpec::parse(PERTURB_SPEC).expect("PERTURB_SPEC parses");
    let shape = MODEL.spec();
    let dims = [shape.channels, shape.height, shape.width];
    let images = images(MODEL);
    let probe = &images[..images.len().min(8)];
    let mut gates = Gates::default();

    // Clean-server baseline: the solo early-exit bits severity 0 must
    // reproduce exactly.
    println!(
        "[serve_load] perturb baseline: clean server, {} solo references",
        probe.len()
    );
    let clean = Server::spawn(MODEL.name(), &[]);
    let clean_refs: Vec<InferResponse> = probe
        .iter()
        .map(|image| clean.solo(&infer_request(MODEL.name(), image)))
        .collect();
    clean.shutdown(&mut gates);

    for severity in [0.0f32, 0.5, 1.0] {
        let spec = base.scaled(severity);
        let rendered = spec.render();
        println!("[serve_load] perturb severity {severity}: spec `{rendered}`");
        let server = Server::spawn(MODEL.name(), &[("T2FSNN_SERVE_PERTURB", &rendered)]);

        // The input families are the client's half of the split: the
        // request images carry them, the server carries event + weight.
        let view: Vec<InferRequest> = probe
            .iter()
            .map(|image| {
                let mut request = infer_request(MODEL.name(), image);
                spec.perturb_image(dims, &mut request.image);
                request
            })
            .collect();
        let solo: Vec<InferResponse> = view.iter().map(|r| server.solo(r)).collect();
        if severity == 0.0 {
            let mismatches = solo
                .iter()
                .zip(&clean_refs)
                .filter(|(s, r)| !same_bits(s, r))
                .count();
            gates.check(
                mismatches == 0,
                format!(
                    "severity 0: {mismatches}/{} responses differ from the clean baseline",
                    probe.len()
                ),
            );
        }

        // Batched, concurrent load over the same images must reproduce
        // each image's solo bits.
        let report = server.closed_loop(PERTURB, |i| view[i % view.len()].clone());
        report.print(&format!("perturb s={severity}"));
        report.check_all_ok(&mut gates, &format!("severity {severity}"));
        for (i, r) in report.responses() {
            gates.check(
                same_bits(r, &solo[i % view.len()]),
                format!("severity {severity}: response {i} differs from its solo reference"),
            );
        }

        // A perturbed server is a *healthy* server: degradation is for
        // broken artifacts, not requested perturbations.
        let health = server.health();
        gates.check(
            health.as_ref().is_some_and(|h| h.status == "ok"),
            format!("severity {severity}: healthz not ok ({health:?})"),
        );

        match server.counters([
            "t2fsnn_serve_perturbed_models_total",
            "t2fsnn_serve_perturbed_weight_rows_total",
        ]) {
            Some([models, rows]) => {
                println!(
                    "[serve_load] severity {severity}: {models} perturbed models, {rows} \
                     perturbed weight rows"
                );
                let want_models = u64::from(!spec.is_identity());
                gates.check(
                    models == want_models,
                    format!(
                        "severity {severity}: perturbed_models_total {models} (want {want_models})"
                    ),
                );
                gates.check(
                    spec.weight_gauss <= 0.0 || rows > 0,
                    format!("severity {severity}: wgauss > 0 but no weight row was rewritten"),
                );
                gates.check(
                    !spec.is_identity() || rows == 0,
                    format!("severity {severity}: identity spec rewrote {rows} weight rows"),
                );
            }
            None => gates.fail(format!("severity {severity}: cannot fetch /metrics")),
        }

        server.shutdown(&mut gates);
    }
    gates.finish("PERTURB", "severity sweep held every determinism gate");
}

/// Whether `answer` is a `200` bit-identical to `reference` from a
/// version `version` accepts.
fn exact(answer: &Answer, reference: &InferResponse, version: impl Fn(u64) -> bool) -> bool {
    matches!(answer, (Some(200), Some(r)) if same_bits(r, reference) && version(r.version))
}

/// Runs `action` while one sequential client per request keeps sending
/// it: traffic starts 100 ms before the action and stops `settle` after
/// it. Returns each client's answers, in order, and the action's result.
fn under_traffic<T>(
    server: &Server,
    requests: &[&InferRequest],
    settle: Duration,
    action: impl FnOnce() -> T,
) -> (Vec<Vec<Answer>>, T) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let clients: Vec<_> = requests
            .iter()
            .map(|&request| {
                let stop = &stop;
                scope.spawn(move || {
                    let mut conn = server.conn();
                    let mut answers = Vec::new();
                    while !stop.load(Ordering::Relaxed) {
                        answers.push(conn.infer(request));
                    }
                    answers
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(100));
        let result = action();
        std::thread::sleep(settle);
        stop.store(true, Ordering::Relaxed);
        let answers = clients
            .into_iter()
            .map(|c| c.join().expect("traffic client"))
            .collect();
        (answers, result)
    })
}

/// A `ready` entry for `name` at version ≥ `min_version`.
fn ready(server: &Server, name: &str, min_version: u64) -> Option<ModelHealth> {
    server
        .model(name)
        .filter(|m| m.state == "ready" && m.version >= min_version)
}

/// Churn phase 1: runtime load of a second model, mixed traffic, then
/// reload / unload / re-load under traffic. Returns tiny's solo
/// reference (conversion is deterministic, so the bits hold across
/// server processes).
fn churn_lifecycle(
    gates: &mut Gates,
    tiny: &InferRequest,
    mnist: &InferRequest,
) -> Option<InferResponse> {
    println!("[serve_load] churn phase 1: clean lifecycle (load / reload / unload under traffic)");
    let server = Server::spawn("tiny", &[]);
    let tiny_ref = server.solo(tiny);
    gates.check(
        tiny_ref.version == 1,
        format!("boot tiny serves v{} (want v1)", tiny_ref.version),
    );

    // Runtime load of a model the server was not booted with: 202, the
    // loader thread converts + canaries it, then /healthz flips ready.
    let ack = server.admin("mnist-like", "load");
    gates.check(
        ack == Some(202),
        format!("load mnist-like not acknowledged 202: {ack:?}"),
    );
    let Some(loaded) = server.poll_until(Duration::from_secs(300), |s| ready(s, "mnist-like", 0))
    else {
        gates.fail("mnist-like never became ready after load");
        server.shutdown(gates);
        return None;
    };
    println!("[serve_load] mnist-like promoted at v{}", loaded.version);
    gates.check(
        loaded.version == 1,
        format!("first mnist-like load is v{} (want v1)", loaded.version),
    );
    let mnist_ref = server.solo(mnist);

    // Mixed traffic across both models at two concurrencies: every
    // answer bit-identical to its model's solo reference, at v1.
    for concurrency in [2, 8] {
        let load = Load {
            requests: 80,
            concurrency,
        };
        let report = server.closed_loop(load, |i| if i % 2 == 0 { tiny } else { mnist }.clone());
        report.print(&format!("churn mixed c{concurrency}"));
        gates.check(
            report.transport_errors() == 0,
            format!(
                "c{concurrency}: {} transport failures in mixed traffic",
                report.transport_errors()
            ),
        );
        report.check_all_ok(gates, &format!("c{concurrency} mixed"));
        for (i, r) in report.responses() {
            let want = if r.model == "tiny" {
                &tiny_ref
            } else {
                &mnist_ref
            };
            gates.check(
                same_bits(r, want) && r.version == 1,
                format!(
                    "c{concurrency}: response {i} (model {}, v{}) differs from its solo reference",
                    r.model, r.version
                ),
            );
        }
    }

    // Reload under traffic: v1 answers until the atomic swap, v2 after,
    // both bit-identical (deterministic conversion), tiny untouched.
    let (answers, promoted) =
        under_traffic(&server, &[tiny, mnist], Duration::from_millis(200), || {
            (server.admin("mnist-like", "reload") == Some(202))
                .then(|| server.poll_until(Duration::from_secs(120), |s| ready(s, "mnist-like", 2)))
                .flatten()
        });
    let [tiny_out, mnist_out] = &answers[..] else {
        unreachable!("two traffic clients")
    };
    match promoted {
        Some(m) => println!("[serve_load] reload promoted mnist-like to v{}", m.version),
        None => gates.fail("reload of mnist-like was not promoted to v2"),
    }
    for answer in tiny_out {
        gates.check(
            exact(answer, &tiny_ref, |v| v == 1),
            format!("tiny answer under reload broke: {answer:?}"),
        );
    }
    let versions: Vec<u64> = mnist_out
        .iter()
        .filter_map(|(_, r)| r.as_ref().map(|r| r.version))
        .collect();
    gates.check(
        versions.contains(&1) && versions.contains(&2),
        format!("reload window saw versions {versions:?} (want both v1 and v2 answers)"),
    );
    for (i, answer) in mnist_out.iter().enumerate() {
        gates.check(
            exact(answer, &mnist_ref, |v| (1..=2).contains(&v)),
            format!("mnist answer {i} under reload broke: {answer:?}"),
        );
    }
    println!(
        "[serve_load] reload window: {} tiny + {} mnist answers, versions pinned",
        tiny_out.len(),
        mnist_out.len()
    );

    // Unload under traffic: a sequential client sees a monotone cutover
    // from bit-exact 200s to terminal 503s (evicted or rejected at
    // admission), and never a reordered or dropped answer.
    let (answers, unloaded) = under_traffic(&server, &[mnist], Duration::from_millis(150), || {
        server.admin("mnist-like", "unload")
    });
    gates.check(
        unloaded == Some(200),
        format!("unload of mnist-like not acknowledged 200: {unloaded:?}"),
    );
    let mut seen_503 = false;
    let mut ok_during_unload = 0usize;
    for (i, answer) in answers[0].iter().enumerate() {
        if exact(answer, &mnist_ref, |v| v == 2) {
            ok_during_unload += 1;
            gates.check(
                !seen_503,
                format!("answer {i}: 200 after the unload cutover"),
            );
        } else if answer.0 == Some(503) {
            seen_503 = true;
        } else {
            gates.fail(format!("mnist answer {i} under unload broke: {answer:?}"));
        }
    }
    gates.check(seen_503, "unload under traffic never produced a 503");
    println!(
        "[serve_load] unload window: {ok_during_unload} bit-exact 200s, then 503s \
         (monotone cutover)"
    );
    // The surviving model is untouched by its neighbor's unload.
    let tiny_again = server.solo(tiny);
    gates.check(
        same_bits(&tiny_again, &tiny_ref) && tiny_again.version == 1,
        "tiny bits changed across the mnist-like unload",
    );
    match server.health() {
        Some(h) => {
            let m = h.models.iter().find(|m| m.name == "mnist-like");
            gates.check(
                h.status == "degraded"
                    && matches!(m, Some(m) if m.state == "unloaded" && !m.available),
                format!(
                    "healthz after unload: status {} / {m:?} (want degraded + unloaded)",
                    h.status
                ),
            );
        }
        None => gates.fail("cannot fetch /healthz after unload"),
    }

    // Load again: a fresh version (the unload cleared the recorded
    // digest), same bits.
    let ack = server.admin("mnist-like", "load");
    gates.check(
        ack == Some(202),
        format!("re-load mnist-like not acknowledged 202: {ack:?}"),
    );
    match server.poll_until(Duration::from_secs(120), |s| ready(s, "mnist-like", 3)) {
        Some(m) => println!("[serve_load] re-load promoted mnist-like at v{}", m.version),
        None => gates.fail("mnist-like never became ready after re-load"),
    }
    gates.check(
        same_bits(&server.solo(mnist), &mnist_ref),
        "re-loaded mnist-like bits differ from v1",
    );
    let status = server.health().map(|h| h.status);
    gates.check(
        status.as_deref() == Some("ok"),
        format!("healthz not ok after re-load: {status:?}"),
    );

    // Three promotions (load, reload, re-load), one unload, and a clean
    // run has neither canary rejections nor trips.
    match server.counters([
        "t2fsnn_serve_model_loads_total",
        "t2fsnn_serve_model_unloads_total",
        "t2fsnn_serve_canary_rejections_total",
        "t2fsnn_serve_quarantine_trips_total",
    ]) {
        Some([loads, unloads, rejections, trips]) => {
            println!(
                "[serve_load] phase 1 metrics: {loads} loads, {unloads} unloads, \
                 {rejections} canary rejections, {trips} quarantine trips"
            );
            gates.check(
                loads == 3 && unloads == 1 && rejections == 0 && trips == 0,
                format!(
                    "phase 1 counters off: loads {loads} (want 3), unloads {unloads} (want 1), \
                     rejections {rejections} (want 0), trips {trips} (want 0)"
                ),
            );
        }
        None => gates.fail("cannot fetch /metrics after phase 1"),
    }

    server.shutdown(gates);
    Some(tiny_ref)
}

/// Churn phase 2: the per-model admission quota answers `429` with a
/// labeled counter when one model's queued jobs exceed the cap.
fn churn_quota(gates: &mut Gates, tiny: &InferRequest, tiny_ref: &InferResponse) {
    println!("[serve_load] churn phase 2: per-model admission quota");
    // Max batch 1 + a 100 ms delay on every batch makes the queue hold
    // jobs deterministically long; quota 2 then rejects the overflow of
    // 6-wide closed-loop traffic.
    let server = Server::spawn(
        "tiny",
        &[
            ("T2FSNN_SERVE_MAX_BATCH", "1"),
            ("T2FSNN_SERVE_MODEL_QUOTA", "2"),
            ("T2FSNN_SERVE_FAULTS", "7:batch_delay=1@100"),
        ],
    );
    let load = Load {
        requests: 18,
        concurrency: 6,
    };
    let report = server.closed_loop(load, |_| tiny.clone());
    report.print("churn quota");
    let ok = report.ok_count();
    let rejected = report.count_status(429);
    gates.check(
        report.transport_errors() == 0,
        format!(
            "{} transport failures under quota pressure",
            report.transport_errors()
        ),
    );
    gates.check(
        rejected > 0,
        "quota never rejected despite 6-wide traffic into quota 2",
    );
    gates.check(
        ok + rejected == report.outcomes.len(),
        format!(
            "quota outcomes: {ok} ok + {rejected} rejected != {} total",
            report.outcomes.len()
        ),
    );
    for (i, r) in report.responses() {
        gates.check(
            same_bits(r, tiny_ref),
            format!("quota-phase response {i} differs from solo reference"),
        );
    }
    match server.counters(["t2fsnn_serve_model_quota_rejections_total{model=\"tiny\"}"]) {
        Some([counted]) => {
            println!("[serve_load] quota: {rejected} terminal 429s, labeled counter {counted}");
            gates.check(
                counted > 0,
                "model_quota_rejections_total{model=\"tiny\"} is 0",
            );
        }
        None => gates.fail("cannot fetch /metrics after quota phase"),
    }
    server.shutdown(gates);
}

/// Churn phase 3: a `canary_fail` burst poisons the first reload — the
/// candidate must never serve a byte while the incumbent keeps
/// answering bit-exact, and the next reload promotes cleanly.
fn churn_canary(gates: &mut Gates, tiny: &InferRequest, tiny_ref: &InferResponse) {
    println!("[serve_load] churn phase 3: canary-gated promotion (injected rejection)");
    let server = Server::spawn("tiny", &[("T2FSNN_SERVE_FAULTS", "7:canary_fail=1@1")]);
    let solo = server.solo(tiny);
    gates.check(
        same_bits(&solo, tiny_ref) && solo.version == 1,
        "phase 3 boot bits differ from the phase 1 reference",
    );

    let ack = server.admin("tiny", "reload");
    gates.check(
        ack == Some(202),
        format!("poisoned reload not acknowledged 202: {ack:?}"),
    );
    let rejected = server.poll_until(Duration::from_secs(60), |s| {
        s.counters(["t2fsnn_serve_canary_rejections_total"])
            .filter(|[v]| *v >= 1)
    });
    gates.check(
        rejected.is_some(),
        "injected canary failure was never counted as a rejection",
    );
    let state = server.model("tiny");
    gates.check(
        matches!(&state, Some(m) if m.state == "ready" && m.version == 1 && m.available),
        format!("after rejected reload tiny should serve v1 ready, got {state:?}"),
    );
    // The failed canary never serves: the incumbent answers v1,
    // bit-exact, for every request.
    for i in 0..12 {
        let answer = server.infer(tiny);
        gates.check(
            exact(&answer, tiny_ref, |v| v == 1),
            format!("post-rejection answer {i} not a v1 bit-exact 200: {answer:?}"),
        );
    }
    println!("[serve_load] rejected candidate never served; incumbent answered v1 bit-exact");

    // Second reload: the one-shot burst is exhausted, promotion is
    // clean, bits unchanged (deterministic conversion).
    let ack = server.admin("tiny", "reload");
    gates.check(
        ack == Some(202),
        format!("clean reload not acknowledged 202: {ack:?}"),
    );
    match server.poll_until(Duration::from_secs(60), |s| ready(s, "tiny", 2)) {
        Some(m) => println!("[serve_load] clean reload promoted tiny to v{}", m.version),
        None => gates.fail("clean reload after burst exhaustion never promoted"),
    }
    let answer = server.infer(tiny);
    gates.check(
        exact(&answer, tiny_ref, |v| v >= 2),
        format!("post-promotion answer not a bit-exact 200 on the new version: {answer:?}"),
    );
    match server.counters([
        "t2fsnn_serve_canary_rejections_total",
        "t2fsnn_serve_model_loads_total",
    ]) {
        Some([rejections, loads]) => {
            println!("[serve_load] phase 3 metrics: {rejections} rejections, {loads} loads");
            gates.check(
                rejections == 1 && loads == 1,
                format!(
                    "phase 3 counters off: rejections {rejections} (want 1), loads {loads} (want 1)"
                ),
            );
        }
        None => gates.fail("cannot fetch /metrics after phase 3"),
    }
    server.shutdown(gates);
}

/// Churn phase 4: a `model_panic` burst trips the per-model quarantine;
/// the gate is the full `500 → trip → 503 → probe → readmit → 200` arc
/// with bit-identity after re-admission.
fn churn_quarantine(gates: &mut Gates, tiny: &InferRequest, tiny_ref: &InferResponse) {
    println!("[serve_load] churn phase 4: quarantine trip, probe, re-admission");
    let server = Server::spawn(
        "tiny",
        &[
            ("T2FSNN_SERVE_FAULTS", "7:model_panic=1@3"),
            ("T2FSNN_SERVE_QUARANTINE_THRESHOLD", "3"),
            // Long enough that the fenced window is observable from the
            // client before the probe readmits.
            ("T2FSNN_SERVE_QUARANTINE_BACKOFF_MS", "1500"),
        ],
    );

    // No warm-up request: the burst poisons exactly the first three
    // batch executions, which must each answer 500.
    for i in 0..3 {
        let answer = server.infer(tiny);
        gates.check(
            answer.0 == Some(500),
            format!("poisoned execution {i} should answer 500, got {answer:?}"),
        );
    }
    let tripped = server.poll_until(Duration::from_secs(10), |s| {
        s.counters(["t2fsnn_serve_quarantine_trips_total"])
            .filter(|[v]| *v >= 1)
    });
    gates.check(
        tripped.is_some(),
        "three consecutive panics never tripped the quarantine",
    );
    // Fenced: the model alone answers 503 while the breaker is open.
    let answer = server.infer(tiny);
    gates.check(
        answer.0 == Some(503),
        format!("quarantined model should answer 503, got {answer:?}"),
    );
    let state = server.model("tiny");
    gates.check(
        matches!(&state, Some(m) if m.state == "quarantined" && !m.available),
        format!("healthz during quarantine: {state:?}"),
    );

    // The seeded-backoff canary probe readmits; the exact fenced Arc
    // returns, so the version and bits are unchanged.
    let readmitted = server.poll_until(Duration::from_secs(30), |s| match s.infer(tiny) {
        (Some(503), _) => None,
        other => Some(other),
    });
    match &readmitted {
        Some(answer) if exact(answer, tiny_ref, |v| v == 1) => {
            println!("[serve_load] readmitted: v1 answers bit-exact again");
        }
        Some(answer) => gates.fail(format!(
            "first answer after the fence is not a v1 bit-exact 200: {answer:?}"
        )),
        None => gates.fail("model was never readmitted within 30 s"),
    }
    for i in 0..6 {
        let answer = server.infer(tiny);
        gates.check(
            exact(&answer, tiny_ref, |v| v == 1),
            format!("post-readmission answer {i} not a v1 bit-exact 200: {answer:?}"),
        );
    }
    let state = server.model("tiny");
    gates.check(
        matches!(&state, Some(m) if m.state == "ready" && m.available && m.version == 1),
        format!("healthz after re-admission: {state:?}"),
    );
    match server.counters([
        "t2fsnn_serve_quarantine_trips_total",
        "t2fsnn_serve_quarantine_probes_total",
        "t2fsnn_serve_quarantine_readmissions_total",
        "t2fsnn_serve_worker_panics_total",
    ]) {
        Some([trips, probes, readmissions, panics]) => {
            println!(
                "[serve_load] phase 4 metrics: {trips} trips, {probes} probes, \
                 {readmissions} readmissions, {panics} batch panics"
            );
            gates.check(
                trips == 1 && probes >= 1 && readmissions == 1 && panics == 3,
                format!(
                    "phase 4 counters off: trips {trips} (want 1), probes {probes} (want ≥1), \
                     readmissions {readmissions} (want 1), panics {panics} (want 3)"
                ),
            );
        }
        None => gates.fail("cannot fetch /metrics after phase 4"),
    }
    server.shutdown(gates);
}

fn churn() {
    let tiny = infer_request("tiny", &images(Scenario::Tiny)[0]);
    let mnist = infer_request("mnist-like", &images(Scenario::MnistLike)[0]);
    let mut gates = Gates::default();
    match churn_lifecycle(&mut gates, &tiny, &mnist) {
        Some(tiny_ref) => {
            churn_quota(&mut gates, &tiny, &tiny_ref);
            churn_canary(&mut gates, &tiny, &tiny_ref);
            churn_quarantine(&mut gates, &tiny, &tiny_ref);
        }
        None => gates.fail("phase 1 aborted; fault phases skipped"),
    }
    gates.finish(
        "CHURN",
        "lifecycle, quota, canary and quarantine gates held",
    );
}

/// The subset of a Chrome trace-event export the `obs` validator reads
/// (field names match the JSON keys).
#[derive(Deserialize)]
#[allow(non_snake_case)]
struct ChromeTrace {
    displayTimeUnit: String,
    traceEvents: Vec<ChromeEvent>,
}

#[derive(Deserialize)]
struct ChromeEvent {
    name: String,
    ph: String,
    ts: Option<f64>,
    dur: Option<f64>,
    args: Option<ChromeArgs>,
}

#[derive(Deserialize)]
struct ChromeArgs {
    span: Option<u64>,
    parent: Option<u64>,
}

/// Obs part A: runs the sibling `repro_fig6` (quick grid) with
/// `T2FSNN_TRACE` pointing at a scratch file and validates the export.
/// The ring keeps the newest events, so the expected keys are the
/// tail-biased inner-loop spans, not the whole run.
fn obs_fig6_trace(gates: &mut Gates) {
    let trace_path =
        std::env::temp_dir().join(format!("t2fsnn_obs_trace_{}.json", std::process::id()));
    let _ = std::fs::remove_file(&trace_path);
    let fig6 = std::env::current_exe()
        .expect("current_exe")
        .with_file_name("repro_fig6");
    if !fig6.exists() {
        eprintln!(
            "[serve_load] FATAL: {} not found — build it first \
             (cargo build --release -p t2fsnn-bench --bin repro_fig6)",
            fig6.display()
        );
        std::process::exit(2);
    }
    println!(
        "[serve_load] obs A: repro_fig6 (quick) with T2FSNN_TRACE={}",
        trace_path.display()
    );
    let status = Command::new(&fig6)
        .env("T2FSNN_QUICK", "1")
        .env("T2FSNN_TRACE", &trace_path)
        .stdout(Stdio::null())
        .status()
        .expect("spawn repro_fig6");
    if !status.success() {
        return gates.fail(format!("repro_fig6 exited with {status}"));
    }
    let bytes = match std::fs::read(&trace_path) {
        Ok(bytes) => bytes,
        Err(e) => return gates.fail(format!("no trace file written by repro_fig6: {e}")),
    };
    let _ = std::fs::remove_file(&trace_path);
    let doc: ChromeTrace = match serde_json::from_slice(&bytes) {
        Ok(doc) => doc,
        Err(e) => return gates.fail(format!("trace export is not well-formed Chrome JSON: {e}")),
    };
    gates.check(
        doc.displayTimeUnit == "ms",
        format!("displayTimeUnit `{}` (want `ms`)", doc.displayTimeUnit),
    );
    let spans: Vec<&ChromeEvent> = doc.traceEvents.iter().filter(|e| e.ph == "X").collect();
    println!(
        "[serve_load] obs A: {} events ({} complete spans) in the export",
        doc.traceEvents.len(),
        spans.len()
    );
    if spans.is_empty() {
        return gates.fail("trace export has no complete (ph=X) spans");
    }
    if let Some(e) = spans
        .iter()
        .find(|e| e.ts.is_none() || e.dur.is_none_or(|d| d < 0.0))
    {
        gates.fail(format!("span `{}` lacks a sane ts/dur", e.name));
    }
    if let Some(e) = spans
        .iter()
        .find(|e| e.args.as_ref().is_none_or(|a| a.span.unwrap_or(0) == 0))
    {
        gates.fail(format!("span `{}` lacks a recorder span id", e.name));
    }
    if !spans.iter().any(|e| e.name.starts_with("ttfs/")) {
        let mut names: Vec<&str> = spans.iter().map(|e| e.name.as_str()).collect();
        names.dedup();
        names.truncate(12);
        gates.fail(format!(
            "no ttfs/* engine-phase span in the export (saw {names:?})"
        ));
    }
    gates.check(
        spans
            .iter()
            .any(|e| e.args.as_ref().is_some_and(|a| a.parent.unwrap_or(0) != 0)),
        "no span carries a parent link (tree never nested)",
    );
}

/// One obs round: the closed loop against one half, returning the
/// first answer per image.
fn obs_round(
    server: &Server,
    label: &str,
    images: &[Vec<f32>],
    gates: &mut Gates,
) -> Vec<InferResponse> {
    let report = server.closed_loop(OBS, |i| {
        infer_request(MODEL.name(), &images[i % images.len()])
    });
    report.print(&format!("obs {label}"));
    report.check_all_ok(gates, label);
    let mut by_image: Vec<Option<InferResponse>> = vec![None; images.len()];
    for (i, r) in report.responses() {
        by_image[i % images.len()].get_or_insert_with(|| r.clone());
    }
    by_image.into_iter().flatten().collect()
}

/// The traced half's endpoint checks: a `timing: true` request must
/// answer with a usable breakdown, the flight recorder must hold that
/// very trace id, and `/debug/slow` must serve its threshold body.
fn obs_tagged_checks(server: &Server, image: &[f32], gates: &mut Gates) {
    let tagged = InferRequest {
        timing: Some(true),
        ..infer_request(MODEL.name(), image)
    };
    match server.infer(&tagged) {
        (Some(200), Some(answer)) => match answer.timing {
            Some(t) if t.trace != 0 && t.total_us > 0 => {
                println!(
                    "[serve_load] obs B: tagged request trace {} (batch trace {}): \
                     queue {} µs + infer {} µs of {} µs total",
                    t.trace, t.batch_trace, t.queue_us, t.infer_us, t.total_us
                );
                match server.get("/debug/trace") {
                    Some((200, body)) => {
                        let text = String::from_utf8_lossy(&body);
                        gates.check(
                            text.contains(&format!("\"trace\":{}", t.trace)),
                            format!("trace id {} absent from /debug/trace", t.trace),
                        );
                        gates.check(
                            text.contains("serve/request"),
                            "no serve/request span in /debug/trace",
                        );
                    }
                    other => gates.fail(format!("/debug/trace not 200: {other:?}")),
                }
            }
            other => gates.fail(format!(
                "timing opt-in answered without a usable breakdown: {other:?}"
            )),
        },
        other => gates.fail(format!("tagged request failed: {other:?}")),
    }
    let slow = server.get("/debug/slow");
    gates.check(
        matches!(&slow, Some((200, body)) if String::from_utf8_lossy(body).contains("threshold_us")),
        format!("/debug/slow not usable: {slow:?}"),
    );
}

/// Interleaved `infer` blocks per recorder state in the tracing-cost
/// gate, and solo calls per block.
const OBS_BLOCKS: usize = 40;
const OBS_CALLS_PER_BLOCK: usize = 16;

/// The tracing-cost gate: solo `tiny` `T2fsnn::infer` calls (early exit
/// on, the server default) with the flight recorder on vs off, in
/// interleaved blocks whose order alternates, so drift lands on both
/// sides. Returns the overhead of the median per-call time with the
/// recorder on over off. In-process timing resolves a 3 % budget on a
/// shared 2-vCPU box; two identical servers' throughput there differs by
/// ~20 % per round.
fn obs_infer_overhead() -> f64 {
    let prepared = prepare(MODEL);
    let model = T2fsnn::from_dnn(
        &prepared.dnn,
        T2fsnnConfig::new(MODEL.time_window()),
        MODEL.initial_kernel(),
    )
    .expect("convert the tiny model");
    let test = &prepared.test.images;
    let solo: Vec<Tensor> = (0..OBS_CALLS_PER_BLOCK.min(test.dims()[0]))
        .map(|i| {
            let img = test.index_axis0(i).expect("in range");
            let mut dims = vec![1];
            dims.extend_from_slice(img.dims());
            img.reshape(dims).expect("same numel")
        })
        .collect();
    let block = |on: bool| {
        trace::set_enabled(on);
        let t0 = Instant::now();
        for img in &solo {
            model.infer(img, InferOptions::early_exit()).expect("infer");
        }
        t0.elapsed().as_secs_f64() / solo.len() as f64
    };
    block(false); // warm-up
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for b in 0..OBS_BLOCKS {
        if b % 2 == 0 {
            off.push(block(false));
            on.push(block(true));
        } else {
            on.push(block(true));
            off.push(block(false));
        }
    }
    trace::set_enabled(false);
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let (off, on) = (median(&mut off), median(&mut on));
    println!(
        "[serve_load] obs B: solo tiny infer {:.1} µs off vs {:.1} µs on, median of {OBS_BLOCKS} \
         interleaved blocks ({:+.2} % overhead)",
        off * 1e6,
        on * 1e6,
        (on / off - 1.0) * 100.0
    );
    on / off - 1.0
}

fn obs() {
    let mut gates = Gates::default();
    obs_fig6_trace(&mut gates);

    println!("[serve_load] obs B: serve rounds, tracing off vs on");
    let images = images(MODEL);
    let off = Server::spawn(
        MODEL.name(),
        &[("T2FSNN_SERVE_TRACE", "0"), ("T2FSNN_LOG", "off")],
    );
    let on = Server::spawn(MODEL.name(), &[("T2FSNN_LOG", "debug")]);
    let off_answers = obs_round(&off, "trace-off", &images, &mut gates);
    let on_answers = obs_round(&on, "trace-on", &images, &mut gates);
    obs_tagged_checks(&on, &images[0], &mut gates);

    // Both streams cycled the same images, so the per-image answers
    // must match byte for byte.
    let paired = off_answers.len().min(on_answers.len());
    gates.check(
        paired > 0,
        "no paired responses to bit-check across the halves",
    );
    let diverged = off_answers
        .iter()
        .zip(&on_answers)
        .filter(|(a, b)| !same_bits(a, b))
        .count();
    gates.check(
        diverged == 0,
        format!("{diverged}/{paired} per-image responses differ between tracing off and on"),
    );
    println!(
        "[serve_load] obs B: {} of {paired} per-image responses bit-identical across halves",
        paired - diverged
    );
    off.shutdown(&mut gates);
    on.shutdown(&mut gates);

    // Timed after both servers are gone, so they cannot steal cycles.
    let overhead = obs_infer_overhead();
    gates.check(
        overhead <= 0.03,
        format!(
            "tracing overhead {:.2} % exceeds the 3 % budget",
            overhead * 100.0
        ),
    );
    gates.finish(
        "OBS",
        "flight recorder, bit-identity and overhead gates held",
    );
}

/// What to run: a gate mode, or `drive` against a running server.
#[derive(Debug, PartialEq)]
enum Mode {
    Drive(Load),
    Smoke,
    Chaos,
    Overload,
    Churn,
    Perturb,
    Obs,
}

/// Parses the arguments after the program name.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Mode, String> {
    let mode = match args.next().as_deref() {
        Some("drive") => {
            let mut load = SMOKE;
            while let Some(flag) = args.next() {
                let slot = match flag.as_str() {
                    "--requests" => &mut load.requests,
                    "--concurrency" => &mut load.concurrency,
                    other => return Err(format!("unknown argument `{other}`")),
                };
                let value = args
                    .next()
                    .ok_or_else(|| format!("missing value for {flag}"))?;
                *slot = value.parse().ok().filter(|&n| n > 0).ok_or_else(|| {
                    format!("bad value `{value}` for {flag} (want an integer ≥ 1)")
                })?;
            }
            return Ok(Mode::Drive(load));
        }
        Some("smoke") => Mode::Smoke,
        Some("chaos") => Mode::Chaos,
        Some("overload") => Mode::Overload,
        Some("churn") => Mode::Churn,
        Some("perturb") => Mode::Perturb,
        Some("obs") => Mode::Obs,
        Some(other) => return Err(format!("unknown mode `{other}`")),
        None => return Err("missing mode".to_string()),
    };
    match args.next() {
        Some(extra) => Err(format!(
            "unexpected argument `{extra}` (only `drive` takes flags)"
        )),
        None => Ok(mode),
    }
}

fn main() {
    let mode = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    match mode {
        Mode::Drive(load) => drive(load),
        Mode::Smoke => smoke(),
        Mode::Chaos => chaos(),
        Mode::Overload => overload(),
        Mode::Churn => churn(),
        Mode::Perturb => perturb(),
        Mode::Obs => obs(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Mode, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn modes_parse_and_drive_takes_its_sizes() {
        assert_eq!(parse(&["chaos"]), Ok(Mode::Chaos));
        assert_eq!(parse(&["obs"]), Ok(Mode::Obs));
        assert_eq!(parse(&["drive"]), Ok(Mode::Drive(SMOKE)));
        assert_eq!(
            parse(&["drive", "--concurrency", "8", "--requests", "500"]),
            Ok(Mode::Drive(Load {
                requests: 500,
                concurrency: 8
            }))
        );
    }

    #[test]
    fn bad_input_is_rejected() {
        for bad in [
            &[][..],
            &["--smoke"],
            &["soak"],
            &["smoke", "--requests", "10"],
            &["drive", "--requests", "abc"],
            &["drive", "--concurrency", "x"],
            &["drive", "--concurrency", "0"],
            &["drive", "--requests"],
            &["drive", "--seed", "1"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn quantile_uses_the_ceil_rank() {
        assert_eq!(quantile_us(&[], 0.5), 0);
        let sample = [40, 10, 30, 20];
        assert_eq!(quantile_us(&sample, 0.0), 10);
        assert_eq!(quantile_us(&sample, 0.5), 20);
        assert_eq!(quantile_us(&sample, 0.51), 30);
        assert_eq!(quantile_us(&sample, 0.99), 40);
        assert_eq!(quantile_us(&sample, 1.0), 40);
    }

    #[test]
    fn per_bucket_histogram_quantile_lower_edges() {
        let text = "# TYPE x_us histogram\n\
                    x_us_bucket{le=\"100\"} 5\n\
                    x_us_bucket{le=\"1000\"} 4\n\
                    x_us_bucket{le=\"+Inf\"} 1\n\
                    x_us_count 10\n";
        let buckets = histogram_buckets(text, "x_us_bucket");
        assert_eq!(buckets, vec![(100, 5), (1000, 4), (u64::MAX, 1)]);
        assert_eq!(histogram_quantile_lower_us(&buckets, 0.5), 0);
        assert_eq!(histogram_quantile_lower_us(&buckets, 0.6), 100);
        assert_eq!(histogram_quantile_lower_us(&buckets, 0.9), 100);
        assert_eq!(histogram_quantile_lower_us(&buckets, 0.95), 1000);
        assert_eq!(histogram_quantile_lower_us(&[], 0.5), 0);
    }

    #[test]
    fn counters_are_found_with_and_without_labels() {
        let text = "x_total{model=\"mnist-like\"} 2\n\
                    x_total{model=\"tiny\"} 7\n\
                    x_total 9\n\
                    x_total_extra 4\n";
        assert_eq!(counter(text, "x_total"), 9);
        assert_eq!(counter(text, "x_total{model=\"tiny\"}"), 7);
        assert_eq!(counter(text, "x_total{model=\"cifar10-like\"}"), 0);
        assert_eq!(counter(text, "y_total"), 0);
    }
}
