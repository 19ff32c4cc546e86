//! The serving workloads: an in-process `t2fsnn_serve` server driven by
//! closed-loop keep-alive clients, one thread per connection.
//!
//! The server runs on `ServeConfig::default()` with only the listen
//! address (port 0) and the tracing flag set, so batching, queueing,
//! worker and deadline behaviour are measured exactly as shipped.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use t2fsnn::{ImageInference, InferOptions, T2fsnn};
use t2fsnn_bench::{Prepared, Scenario};
use t2fsnn_serve::protocol::{InferRequest, InferResponse};
use t2fsnn_serve::{Registry, ServeConfig, ServerHandle};
use t2fsnn_tensor::{Tensor, ThreadPool};

use crate::spans::Spans;
use crate::stats::median;

/// The server configuration every serving workload uses.
pub fn config(trace: bool) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        trace,
        ..ServeConfig::default()
    }
}

/// Set-up time split into its two calls.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub registry_load: f64,
    pub start: f64,
}

/// `Registry::load` then `t2fsnn_serve::start`, timed separately.
///
/// # Errors
///
/// Fails when the model does not come up ready or the server cannot
/// bind.
pub fn set_up(
    scenario: Scenario,
    trace: bool,
    spans: &Spans,
) -> Result<(ServerHandle, SetupTimes), String> {
    let names = [scenario.name().to_string()];
    let (registry, load) = spans.time("serve.registry_load", || Registry::load(&names));
    let registry = registry?;
    if !registry.any_ready() {
        return Err(format!(
            "model `{}` did not load: {:?}",
            scenario.name(),
            registry.health()
        ));
    }
    let (handle, start) = spans.time("serve.start", || {
        t2fsnn_serve::start(config(trace), registry)
    });
    let handle = handle.map_err(|e| format!("server start: {e}"))?;
    Ok((
        handle,
        SetupTimes {
            registry_load: load.as_secs_f64(),
            start: start.as_secs_f64(),
        },
    ))
}

/// Stops a server and waits for all of its threads.
pub fn stop(handle: ServerHandle) {
    handle.shutdown();
    handle.join();
}

/// The test split as request bodies, in the run's seeded order.
pub struct Traffic {
    /// One serialized `InferRequest` per test image.
    bodies: Vec<Vec<u8>>,
    /// Test-image indices in the seeded order the clients walk.
    order: Vec<usize>,
    /// Test labels.
    pub labels: Vec<usize>,
    /// Test images, `[C, H, W]` each, for the in-process calls.
    images: Vec<Tensor>,
}

impl Traffic {
    /// Builds every request body of the test split (outside any timing)
    /// and shuffles the visiting order by `seed`.
    pub fn new(prepared: &Prepared, seed: u64) -> Traffic {
        let n = prepared.test.len();
        let images: Vec<Tensor> = (0..n)
            .map(|i| {
                prepared
                    .test
                    .images
                    .index_axis0(i)
                    .expect("index below the split length")
            })
            .collect();
        let bodies = images
            .iter()
            .map(|image| {
                serde_json::to_vec(&InferRequest {
                    model: None,
                    image: image.data().to_vec(),
                    early_exit: None,
                    deadline_ms: None,
                    timing: None,
                })
                .expect("a request body serializes")
            })
            .collect();
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut ChaCha8Rng::seed_from_u64(seed));
        Traffic {
            bodies,
            order,
            labels: prepared.test.labels.clone(),
            images,
        }
    }

    /// Test images in the split.
    pub fn len(&self) -> usize {
        self.bodies.len()
    }

    /// The `i`-th image of the seeded walk (wrapping).
    fn image_at(&self, i: usize) -> usize {
        self.order[i % self.order.len()]
    }

    /// Test images `which` as one `[N, C, H, W]` batch.
    fn batch(&self, which: &[usize]) -> Result<Tensor, String> {
        let parts: Vec<Tensor> = which.iter().map(|&i| self.images[i].clone()).collect();
        Tensor::stack(&parts).map_err(|e| format!("batching test images: {e}"))
    }
}

/// One keep-alive HTTP/1.1 client connection.
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            buf: Vec::with_capacity(4096),
        })
    }

    /// Posts one inference request and reads its `Content-Length`
    /// framed response: `(status, body)`.
    fn infer(&mut self, body: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
        let head = format!(
            "POST /v1/infer HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body)?;
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| bad_data("response head is not UTF-8"))?;
        let status = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad_data("bad status line"))?;
        let length: usize = head
            .lines()
            .find_map(|line| {
                let (key, value) = line.split_once(':')?;
                key.trim()
                    .eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .ok_or_else(|| bad_data("response without Content-Length"))?;
        while self.buf.len() < head_end + length {
            self.fill()?;
        }
        let body = self.buf[head_end..head_end + length].to_vec();
        self.buf.drain(..head_end + length);
        Ok((status, body))
    }

    fn fill(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 8192];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-response",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

fn bad_data(message: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message.to_string())
}

/// One request as the client saw it.
struct Sample {
    image: usize,
    /// HTTP status; 0 for a transport failure.
    status: u16,
    latency_us: f64,
    /// A `200`'s body, parsed once its latency is taken; a compact
    /// record keeps the client's memory from growing with the request
    /// count and showing up in the process's peak RSS.
    response: Option<Result<InferResponse, String>>,
    /// Sent during the warm-up pass (checked, but not in the timings).
    warm: bool,
}

/// Everything a closed-loop drive produced.
pub struct Drive {
    samples: Vec<Sample>,
    /// Wall time of the measured phase, first send to last answer.
    elapsed: f64,
}

/// Drives `connections` closed-loop clients: one untimed warm-up pass
/// over the test split, then `seconds` of measured traffic.
pub fn drive(
    addr: SocketAddr,
    traffic: &Traffic,
    connections: usize,
    seconds: f64,
    spans: &Spans,
) -> Drive {
    let next = AtomicUsize::new(0);
    let warm_total = traffic.len();
    let barrier = Barrier::new(connections);
    let per_thread: Vec<(Vec<Sample>, Instant, Instant)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..connections)
            .map(|_| {
                scope.spawn(|| {
                    let mut samples = Vec::new();
                    let mut client = Client::connect(addr).ok();
                    let mut send = |i: usize, warm: bool, samples: &mut Vec<Sample>| {
                        let image = traffic.image_at(i);
                        let t0 = Instant::now();
                        let reply = match client.as_mut() {
                            Some(c) => c.infer(&traffic.bodies[image]),
                            None => Err(bad_data("not connected")),
                        };
                        let took = t0.elapsed();
                        if !warm {
                            spans.record("serve.request", t0, took);
                        }
                        let (status, body) = reply.unwrap_or_else(|_| {
                            client = Client::connect(addr).ok();
                            (0, Vec::new())
                        });
                        samples.push(Sample {
                            image,
                            status,
                            latency_us: took.as_secs_f64() * 1e6,
                            response: (status == 200)
                                .then(|| serde_json::from_slice(&body).map_err(|e| e.to_string())),
                            warm,
                        });
                    };
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= warm_total {
                            break;
                        }
                        send(i, true, &mut samples);
                    }
                    barrier.wait();
                    let start = Instant::now();
                    let deadline = start + Duration::from_secs_f64(seconds);
                    while Instant::now() < deadline {
                        send(next.fetch_add(1, Ordering::Relaxed), false, &mut samples);
                    }
                    (samples, start, Instant::now())
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client threads do not panic"))
            .collect()
    });
    let first = per_thread
        .iter()
        .map(|t| t.1)
        .min()
        .expect("at least one connection");
    let last = per_thread
        .iter()
        .map(|t| t.2)
        .max()
        .expect("at least one connection");
    Drive {
        samples: per_thread.into_iter().flat_map(|t| t.0).collect(),
        elapsed: last.duration_since(first).as_secs_f64(),
    }
}

/// The in-process answer every `200` must reproduce: a solo
/// `T2fsnn::infer` of the same image with the server's default
/// early-exit.
pub fn reference(model: &T2fsnn, traffic: &Traffic) -> Result<Vec<ImageInference>, String> {
    (0..traffic.len())
        .map(|i| {
            model
                .infer(&traffic.batch(&[i])?, InferOptions::early_exit())
                .map_err(|e| format!("reference infer: {e}"))?
                .pop()
                .ok_or_else(|| "reference infer returned no result".to_string())
        })
        .collect()
}

fn same_bits(r: &InferResponse, want: &ImageInference) -> bool {
    r.label == want.label
        && r.decision_step == want.decision_step
        && r.steps == want.steps
        && r.top_potential.to_bits() == want.top_potential.to_bits()
        && r.input_spikes == want.input_spikes
        && r.hidden_spikes == want.hidden_spikes
        && r.synop_adds == want.synop_adds
        && r.synop_mults == want.synop_mults
}

/// A checked drive, reduced to the numbers the reports need.
pub struct Checked {
    /// Requests sent, warm-up included.
    pub attempted: u64,
    /// Non-`200` answers other than `429`, plus transport failures.
    pub failed: u64,
    /// `429` answers.
    pub refused: u64,
    /// `200` answers that differ from the in-process reference.
    pub wrong: u64,
    /// Client latency of every measured `200`, µs.
    pub latency_us: Vec<f64>,
    /// Measured `200`s per second.
    pub throughput: f64,
    /// Per measured `200`: the response's `queue_us` and `infer_us`,
    /// the rest of the client latency, and the batch size.
    pub queue_us: Vec<f64>,
    pub infer_us: Vec<f64>,
    pub overhead_us: Vec<f64>,
    pub batch_size: Vec<f64>,
    /// Per distinct image answered: the paper's measures.
    pub accuracy: f64,
    pub spikes_per_image: f64,
    pub steps_per_image: f64,
    pub synop_adds_per_image: f64,
    /// One line per problem found.
    pub problems: Vec<String>,
}

impl Checked {
    /// Failed, refused and wrong answers.
    pub fn failed_total(&self) -> u64 {
        self.failed + self.refused + self.wrong
    }

    /// Failed, refused and wrong answers over all attempts.
    pub fn error_rate(&self) -> f64 {
        self.failed_total() as f64 / self.attempted.max(1) as f64
    }
}

/// Checks every answer of `drive` against `reference` (outside any
/// timing) and reduces the drive to its report numbers.
pub fn check(drive: Drive, traffic: &Traffic, reference: &[ImageInference]) -> Checked {
    let mut c = Checked {
        attempted: drive.samples.len() as u64,
        failed: 0,
        refused: 0,
        wrong: 0,
        latency_us: Vec::new(),
        throughput: 0.0,
        queue_us: Vec::new(),
        infer_us: Vec::new(),
        overhead_us: Vec::new(),
        batch_size: Vec::new(),
        accuracy: 0.0,
        spikes_per_image: 0.0,
        steps_per_image: 0.0,
        synop_adds_per_image: 0.0,
        problems: Vec::new(),
    };
    let mut first: Vec<Option<InferResponse>> = vec![None; traffic.len()];
    for s in drive.samples {
        let response = match (s.status, s.response) {
            (200, Some(Ok(response))) => response,
            (200, _) => {
                c.wrong += 1;
                c.problems
                    .push(format!("image {}: unparsable 200 body", s.image));
                continue;
            }
            (429, _) => {
                c.refused += 1;
                continue;
            }
            (status, _) => {
                c.failed += 1;
                if c.problems.len() < 5 {
                    c.problems
                        .push(format!("image {}: status {status}", s.image));
                }
                continue;
            }
        };
        if !same_bits(&response, &reference[s.image]) {
            c.wrong += 1;
            if c.problems.len() < 5 {
                c.problems.push(format!(
                    "image {}: served answer differs from solo infer ({response:?} vs {:?})",
                    s.image, reference[s.image]
                ));
            }
            continue;
        }
        if !s.warm {
            c.latency_us.push(s.latency_us);
            c.queue_us.push(response.queue_us as f64);
            c.infer_us.push(response.infer_us as f64);
            c.overhead_us
                .push(s.latency_us - response.queue_us as f64 - response.infer_us as f64);
            c.batch_size.push(response.batch_size as f64);
        }
        let slot = &mut first[s.image];
        if slot.is_none() {
            *slot = Some(response);
        }
    }
    c.throughput = c.latency_us.len() as f64 / drive.elapsed.max(f64::MIN_POSITIVE);
    let answered: Vec<(usize, &InferResponse)> = first
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.as_ref().map(|r| (i, r)))
        .collect();
    if answered.len() < traffic.len() {
        c.problems.push(format!(
            "only {} of {} test images were answered",
            answered.len(),
            traffic.len()
        ));
    }
    let n = answered.len().max(1) as f64;
    let mean = |f: &dyn Fn(usize, &InferResponse) -> f64| {
        answered.iter().map(|&(i, r)| f(i, r)).sum::<f64>() / n
    };
    c.accuracy = mean(&|i, r| f64::from(u8::from(r.label == traffic.labels[i])));
    c.spikes_per_image = mean(&|_, r| (r.input_spikes + r.hidden_spikes) as f64);
    c.steps_per_image = mean(&|_, r| r.steps as f64);
    c.synop_adds_per_image = mean(&|_, r| r.synop_adds as f64);
    c
}

/// Direct `T2fsnn::infer` timings on the served model: the median solo
/// call, the median two-image call, and the per-call fixed cost those
/// two imply. The two-image call runs on a one-worker pool so both
/// images execute back to back and `pair − solo` is the marginal
/// per-image cost.
pub fn core_infer(
    model: &T2fsnn,
    traffic: &Traffic,
    calls: usize,
    spans: &Spans,
) -> Result<(f64, f64, f64), String> {
    let sequential = ThreadPool::new(1);
    let opts = InferOptions::early_exit();
    let mut solo = Vec::with_capacity(calls);
    let mut pair = Vec::with_capacity(calls);
    for i in 0..calls {
        let (a, b) = (traffic.image_at(2 * i), traffic.image_at(2 * i + 1));
        let one = traffic.batch(&[a])?;
        let (r, d) = spans.time("core.infer_solo", || model.infer(&one, opts));
        r.map_err(|e| format!("solo infer: {e}"))?;
        solo.push(d.as_secs_f64() * 1e6);
        let both = traffic.batch(&[a, b])?;
        let (r, d) = spans.time("core.infer_pair", || {
            model.infer_on(&both, opts, &sequential)
        });
        r.map_err(|e| format!("pair infer: {e}"))?;
        pair.push(d.as_secs_f64() * 1e6);
    }
    let (solo, pair) = (median(&solo), median(&pair));
    Ok((solo, pair, 2.0 * solo - pair))
}
