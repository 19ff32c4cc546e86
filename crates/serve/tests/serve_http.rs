//! End-to-end server tests over real sockets: routing, validation,
//! connection hygiene (half-written requests), micro-batching with
//! solo-vs-batched bit-identity, backpressure, and graceful ctrl-channel
//! shutdown.

mod common;

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use common::{read_response, request};
use t2fsnn_serve::protocol::{HealthReport, InferRequest, InferResponse, ModelInfo};
use t2fsnn_serve::{start, Registry, ServeConfig, ServerHandle};

fn infer_body(image: &[f32], model: Option<&str>) -> Vec<u8> {
    infer_body_deadline(image, model, None)
}

fn infer_body_deadline(image: &[f32], model: Option<&str>, deadline_ms: Option<u64>) -> Vec<u8> {
    serde_json::to_vec(&infer_request(image, model, deadline_ms)).unwrap()
}

fn infer_request(image: &[f32], model: Option<&str>, deadline_ms: Option<u64>) -> InferRequest {
    InferRequest {
        model: model.map(str::to_string),
        image: image.to_vec(),
        early_exit: None,
        deadline_ms,
        timing: None,
    }
}

/// A started tiny-model server plus a test image from its own dataset.
fn test_server(config: ServeConfig) -> (ServerHandle, Vec<Vec<f32>>) {
    let registry = Registry::load(&["tiny".to_string()]).expect("load tiny model");
    start_tiny(config, registry)
}

/// [`test_server`] serving a slow version of the tiny model: its time
/// window is `factor`× longer, so every batch executes long enough that
/// concurrent requests pile up behind it on any worker count. Tests
/// that need a busy batcher use this instead of the batching hold,
/// which a fill target of 1 (a one-worker pool) never applies.
fn slow_test_server(config: ServeConfig, factor: usize) -> (ServerHandle, Vec<Vec<f32>>) {
    let registry = Registry::load(&["tiny".to_string()]).expect("load tiny model");
    let ticket = registry.begin_load("tiny").expect("begin load");
    let mut slow = Registry::convert_model("tiny", None, ticket.version).expect("convert tiny");
    let mut model_config = slow.model.config();
    model_config.time_window *= factor;
    model_config.record_every = model_config.time_window;
    slow.model.set_config(model_config);
    registry
        .promote("tiny", slow, 0)
        .expect("promote the slow version");
    start_tiny(config, registry)
}

/// Starts a server over `registry` and returns it with eight images from
/// the tiny dataset.
fn start_tiny(config: ServeConfig, registry: Registry) -> (ServerHandle, Vec<Vec<f32>>) {
    let data = t2fsnn::scenario::Scenario::Tiny.dataset();
    let feature: usize = data.images.dims()[1..].iter().product();
    let images: Vec<Vec<f32>> = (0..8)
        .map(|i| data.images.data()[i * feature..(i + 1) * feature].to_vec())
        .collect();
    let handle = start(config, registry).expect("bind");
    (handle, images)
}

/// Time-window factor of the slow tiny model: each image then takes
/// ~15 ms (measured on a 2-vCPU container), against well under a
/// millisecond for the real model.
const SLOW: usize = 200;

fn base_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        read_timeout: Duration::from_millis(300),
        ..ServeConfig::default()
    }
}

#[test]
fn routes_validation_and_shutdown() {
    let (handle, images) = test_server(base_config());
    let addr = handle.addr();

    let (status, body) = request(addr, "GET", "/healthz", b"");
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    let health: HealthReport = serde_json::from_slice(&body).unwrap();
    assert_eq!(health.status, "ok");
    assert!(!health.draining);
    assert_eq!(health.queue_capacity, base_config().queue_capacity);
    assert_eq!(health.models.len(), 1);
    assert!(health.models[0].available);
    assert_eq!(health.models[0].name, "tiny");

    let (status, body) = request(addr, "GET", "/v1/models", b"");
    assert_eq!(status, 200);
    let models: Vec<ModelInfo> = serde_json::from_slice(&body).unwrap();
    assert_eq!(models.len(), 1);
    assert_eq!(models[0].name, "tiny");
    assert_eq!(models[0].classes, 4);

    // A valid inference: the full window.
    let (status, body) = request(addr, "POST", "/v1/infer", &infer_body(&images[0], None));
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    let resp: InferResponse = serde_json::from_slice(&body).unwrap();
    assert!(resp.label < 4);
    assert_eq!(resp.decision_step, None);
    assert_eq!(resp.steps, models[0].latency_steps);
    assert!(resp.batch_size >= 1);
    assert!(resp.input_spikes > 0);
    assert!(resp.synop_adds > 0);
    assert!(resp.energy_truenorth > 0.0);

    // Validation failures.
    let (status, _) = request(addr, "POST", "/v1/infer", b"{not json");
    assert_eq!(status, 400);
    let (status, _) = request(addr, "POST", "/v1/infer", &infer_body(&[0.5; 3], None));
    assert_eq!(status, 400);
    let (status, _) = request(
        addr,
        "POST",
        "/v1/infer",
        &infer_body(&images[0], Some("nope")),
    );
    assert_eq!(status, 404);
    let (status, _) = request(addr, "GET", "/no/such/path", b"");
    assert_eq!(status, 404);
    let (status, _) = request(addr, "DELETE", "/v1/infer", b"");
    assert_eq!(status, 405);

    // An already-expired deadline (budget 0) is deterministically shed
    // with 504 — via the JSON field and via the header.
    let (status, body) = request(
        addr,
        "POST",
        "/v1/infer",
        &infer_body_deadline(&images[0], None, Some(0)),
    );
    assert_eq!(status, 504, "{}", String::from_utf8_lossy(&body));
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(90)))
        .unwrap();
    let doomed = infer_body(&images[0], None);
    let head = format!(
        "POST /v1/infer HTTP/1.1\r\nHost: t\r\nx-deadline-ms: 0\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        doomed.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(&doomed).unwrap();
    let (status, _) = read_response(&mut stream);
    assert_eq!(status, 504);

    // Body cap: Content-Length beyond the max is refused up front.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(b"POST /v1/infer HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n")
        .unwrap();
    let (status, _) = read_response(&mut stream);
    assert_eq!(status, 413);

    // Graceful ctrl-channel shutdown: responds, then joins cleanly.
    let (status, _) = request(addr, "POST", "/admin/shutdown", b"");
    assert_eq!(status, 200);
    handle.join();
}

#[test]
fn half_written_request_gets_408_and_frees_the_worker() {
    let mut config = base_config();
    config.workers = 2;
    let (handle, images) = test_server(config);
    let addr = handle.addr();

    // Two wedge attempts — as many as there are workers.
    let mut stalled: Vec<TcpStream> = (0..2)
        .map(|_| {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"POST /v1/infer HTTP/1.1\r\nContent-Length: 512\r\n\r\n{\"half")
                .unwrap();
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            s
        })
        .collect();

    // Each must be answered 408 once the read timeout expires…
    for s in &mut stalled {
        let (status, _) = read_response(s);
        assert_eq!(status, 408);
    }
    // …and the workers must be free again for a real request.
    let (status, _) = request(addr, "POST", "/v1/infer", &infer_body(&images[1], None));
    assert_eq!(status, 200);

    handle.shutdown();
    handle.join();
}

#[test]
fn concurrent_load_batches_with_bit_identical_results() {
    // Batches form because requests queue behind a slow batch — not
    // because of the hold, which a one-worker pool (fill target 1) never
    // applies.
    let mut config = base_config();
    config.max_batch = 4;
    let (handle, images) = slow_test_server(config, SLOW);
    let addr = handle.addr();
    let image = &images[2];

    // Solo reference result (batch of one, before any load).
    let (status, body) = request(addr, "POST", "/v1/infer", &infer_body(image, None));
    assert_eq!(status, 200);
    let solo: InferResponse = serde_json::from_slice(&body).unwrap();
    assert_eq!(solo.batch_size, 1);

    // Concurrent identical requests: batches must form, bits must not move.
    let responses: Vec<InferResponse> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    (0..3)
                        .map(|_| {
                            let (status, body) =
                                request(addr, "POST", "/v1/infer", &infer_body(image, None));
                            assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
                            serde_json::from_slice::<InferResponse>(&body).unwrap()
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    assert_eq!(responses.len(), 12);
    assert!(
        responses.iter().any(|r| r.batch_size > 1),
        "no batch beyond size 1 formed under concurrent load"
    );
    for r in &responses {
        assert_eq!(r.label, solo.label);
        assert_eq!(r.decision_step, solo.decision_step);
        assert_eq!(r.steps, solo.steps);
        assert_eq!(r.top_potential.to_bits(), solo.top_potential.to_bits());
        assert_eq!(r.input_spikes, solo.input_spikes);
        assert_eq!(r.hidden_spikes, solo.hidden_spikes);
        assert_eq!(r.synop_adds, solo.synop_adds);
        assert_eq!(r.synop_mults, solo.synop_mults);
    }

    // The metrics endpoint reports the batching.
    let (status, body) = request(addr, "GET", "/metrics", b"");
    assert_eq!(status, 200);
    let text = String::from_utf8_lossy(&body);
    assert!(text.contains("t2fsnn_serve_batches_total"));
    let beyond_one: u64 = handle.metrics().batches_beyond_one();
    assert!(beyond_one > 0, "metrics: {text}");

    handle.shutdown();
    handle.join();
}

#[test]
fn full_admission_queue_answers_429() {
    // The queue fills while the slow first batch executes; the batching
    // hold plays no part (a one-worker pool never applies it).
    let mut config = base_config();
    config.max_batch = 4;
    config.queue_capacity = 2;
    config.workers = 12;
    let (handle, images) = slow_test_server(config, SLOW);
    let addr = handle.addr();
    let image = &images[3];

    // 12 concurrent requests against capacity batch(≤ 4) + queue(2): at
    // least two must be refused with 429, the rest must succeed.
    let statuses: Vec<u16> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..12)
            .map(|_| scope.spawn(|| request(addr, "POST", "/v1/infer", &infer_body(image, None)).0))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let ok = statuses.iter().filter(|&&s| s == 200).count();
    let rejected = statuses.iter().filter(|&&s| s == 429).count();
    assert_eq!(ok + rejected, 12, "unexpected statuses: {statuses:?}");
    assert!(rejected >= 2, "expected backpressure, got {statuses:?}");
    assert!(ok >= 1);

    handle.shutdown();
    handle.join();
}

#[test]
fn failed_model_degrades_to_503_and_healthz_reports_it() {
    // One good model, one that cannot load: the server still boots, the
    // broken slot answers 503 (not 404 — it *is* configured), health is
    // "degraded", and the good model keeps serving.
    let registry =
        Registry::load(&["tiny".to_string(), "broken".to_string()]).expect("registry boots");
    let scenario = t2fsnn::scenario::Scenario::Tiny;
    let data = scenario.dataset();
    let feature: usize = data.images.dims()[1..].iter().product();
    let image: Vec<f32> = data.images.data()[..feature].to_vec();
    let handle = start(base_config(), registry).expect("bind");
    let addr = handle.addr();

    let (status, body) = request(addr, "GET", "/healthz", b"");
    assert_eq!(status, 200, "one model still serves");
    let health: HealthReport = serde_json::from_slice(&body).unwrap();
    assert_eq!(health.status, "degraded");
    assert_eq!(health.models.len(), 2);
    assert!(health.models[0].available);
    assert!(!health.models[1].available);
    assert!(health.models[1].error.is_some());

    let (status, _) = request(
        addr,
        "POST",
        "/v1/infer",
        &infer_body(&image, Some("broken")),
    );
    assert_eq!(status, 503);
    let (status, _) = request(addr, "POST", "/v1/infer", &infer_body(&image, Some("tiny")));
    assert_eq!(status, 200);
    let (status, _) = request(
        addr,
        "POST",
        "/v1/infer",
        &infer_body(&image, Some("never-configured")),
    );
    assert_eq!(status, 404);

    handle.shutdown();
    handle.join();
}

#[test]
fn all_models_failed_still_boots_and_healthz_is_503() {
    let registry = Registry::load(&["broken".to_string()]).expect("registry boots");
    let handle = start(base_config(), registry).expect("bind");
    let addr = handle.addr();

    let (status, body) = request(addr, "GET", "/healthz", b"");
    assert_eq!(status, 503);
    let health: HealthReport = serde_json::from_slice(&body).unwrap();
    assert_eq!(health.status, "unavailable");

    let (status, _) = request(addr, "POST", "/v1/infer", &infer_body(&[0.0; 4], None));
    assert_eq!(status, 503);

    handle.shutdown();
    handle.join();
}

/// Every `200` is the full-window answer: `steps` is the model's
/// `latency_steps` and `decision_step` is `null`, with or without a
/// deadline. The request's `early_exit` field is accepted and ignored:
/// a body carrying `"early_exit": true` (or `false`) answers
/// bit-identical to the same body without it.
#[test]
fn early_exit_field_is_accepted_and_ignored() {
    let (handle, images) = test_server(base_config());
    let addr = handle.addr();
    let (status, body) = request(addr, "GET", "/v1/models", b"");
    assert_eq!(status, 200);
    let models: Vec<ModelInfo> = serde_json::from_slice(&body).unwrap();
    let latency_steps = models[0].latency_steps;

    let infer = |request_body: &InferRequest| {
        let bytes = serde_json::to_vec(request_body).unwrap();
        let (status, body) = request(addr, "POST", "/v1/infer", &bytes);
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
        let text = String::from_utf8_lossy(&body).into_owned();
        assert!(text.contains("\"decision_step\":null"), "{text}");
        let response: InferResponse = serde_json::from_slice(&body).unwrap();
        assert_eq!(response.steps, latency_steps);
        response
    };
    for image in &images[..4] {
        for deadline_ms in [None, Some(30_000)] {
            let plain = infer_request(image, None, deadline_ms);
            let want = infer(&plain);
            for early_exit in [Some(true), Some(false)] {
                let got = infer(&InferRequest {
                    early_exit,
                    ..plain.clone()
                });
                assert_eq!(got.label, want.label);
                assert_eq!(got.decision_step, want.decision_step);
                assert_eq!(got.steps, want.steps);
                assert_eq!(got.top_potential.to_bits(), want.top_potential.to_bits());
                assert_eq!(got.input_spikes, want.input_spikes);
                assert_eq!(got.hidden_spikes, want.hidden_spikes);
                assert_eq!(got.synop_adds, want.synop_adds);
                assert_eq!(got.synop_mults, want.synop_mults);
            }
        }
    }

    handle.shutdown();
    handle.join();
}
