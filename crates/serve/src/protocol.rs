//! The JSON wire protocol. Kept dependency-free on purpose: the server,
//! the `serve_load` gate driver, the repository benchmark and the tests
//! all use these types, so the field names here are the contract and
//! `tests::wire_field_names_are_pinned` pins them.

use serde::{Deserialize, Serialize};

/// `POST /v1/infer` request body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InferRequest {
    /// Registry model to run; the server's default model when omitted.
    pub model: Option<String>,
    /// Flat `[C·H·W]` image, channel-major, unit-range pixels.
    pub image: Vec<f32>,
    /// Accepted and ignored: every answer is the full-window answer.
    /// Kept for perfbench until ROADMAP item 6 repoints it.
    pub early_exit: Option<bool>,
    /// Relative deadline in milliseconds, measured from admission. A
    /// request that cannot start execution before its deadline is shed
    /// with `504` instead of answered late. The `x-deadline-ms` header
    /// sets the same budget; this JSON field wins when both are present.
    /// Omitted (and no header, and no `T2FSNN_SERVE_DEADLINE_MS` server
    /// default) means no deadline.
    pub deadline_ms: Option<u64>,
    /// Opt-in: `true` asks for a [`Timing`] breakdown in the response.
    /// Purely observational — the computed answer is bit-identical with
    /// or without it.
    pub timing: Option<bool>,
}

/// Per-request observability breakdown, present in [`InferResponse`]
/// only when the request set `timing: true`. Wall-clock figures, never
/// part of the model answer — bit-identity checks exclude it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Timing {
    /// The request's trace id — filter `/debug/trace` by
    /// `args.trace == <this>` to see the request's span tree.
    pub trace: u64,
    /// Trace id of the micro-batch that executed the request (its
    /// engine-phase spans are tagged with it); 0 when tracing is off.
    pub batch_trace: u64,
    /// Microseconds queued before the batch started.
    pub queue_us: u64,
    /// Microseconds the batch spent in inference.
    pub infer_us: u64,
    /// End-to-end microseconds from admission to response assembly.
    pub total_us: u64,
}

/// `POST /v1/infer` response body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InferResponse {
    /// Model that served the request.
    pub model: String,
    /// Version of the model that served the request. A request is
    /// pinned at admission: a swap promoted mid-flight does not change
    /// which version answers, and the echoed version proves it.
    pub version: u64,
    /// Predicted class.
    pub label: usize,
    /// Always `null`: every answer is the full-window answer. Kept for
    /// perfbench until ROADMAP item 6 repoints it.
    pub decision_step: Option<usize>,
    /// Steps the request was simulated for: the model's full pipeline
    /// window ([`ModelInfo::latency_steps`]).
    pub steps: usize,
    /// Winning output neuron's membrane potential (decision margin).
    pub top_potential: f32,
    /// Input-encoding spikes of this request.
    pub input_spikes: u64,
    /// Hidden-layer spikes of this request.
    pub hidden_spikes: u64,
    /// Synaptic accumulates charged to this request.
    pub synop_adds: u64,
    /// Kernel multiplies charged to this request.
    pub synop_mults: u64,
    /// TrueNorth-weighted energy estimate in the paper's relative
    /// units: `E_dyn·spikes + E_sta·steps`.
    pub energy_truenorth: f64,
    /// Size of the micro-batch this request executed in.
    pub batch_size: usize,
    /// Microseconds spent queued before its batch started.
    pub queue_us: u64,
    /// Microseconds its batch spent in inference.
    pub infer_us: u64,
    /// Observability breakdown; present only when the request asked via
    /// `timing: true`. Omitted (`null`) otherwise.
    pub timing: Option<Timing>,
}

/// One entry of `GET /v1/models`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelInfo {
    /// Registry name (scenario name).
    pub name: String,
    /// Serving version (1-based, bumped by every promoted load).
    pub version: u64,
    /// Input channels.
    pub channels: usize,
    /// Input height.
    pub height: usize,
    /// Input width.
    pub width: usize,
    /// Number of classes.
    pub classes: usize,
    /// Per-layer TTFS time window `T`.
    pub time_window: usize,
    /// Weighted (neuron-bearing) layer count.
    pub weighted_layers: usize,
    /// Deterministic full-window pipeline latency in steps.
    pub latency_steps: usize,
    /// Source-DNN test accuracy of the cached scenario network.
    pub dnn_accuracy: f32,
}

/// `GET /healthz` readiness report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HealthReport {
    /// `"ok"` (every model ready), `"degraded"` (some models
    /// unavailable but at least one ready) or `"unavailable"` (draining,
    /// or no model can serve); the latter is sent with status `503`.
    pub status: String,
    /// Whether the server is draining for shutdown.
    pub draining: bool,
    /// Jobs currently in the admission queue.
    pub queue_depth: usize,
    /// Admission-queue capacity (depth / capacity = saturation).
    pub queue_capacity: usize,
    /// Per-model availability.
    pub models: Vec<ModelHealth>,
}

/// One model's slot in the `GET /healthz` report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelHealth {
    /// Registry name.
    pub name: String,
    /// Whether the model is loaded and serving; `false` means requests
    /// naming it are answered `503`.
    pub available: bool,
    /// Lifecycle state: `ready`, `loading`, `failed`, `unloaded` or
    /// `quarantined`.
    pub state: String,
    /// Serving (or, while quarantined, fenced) version; 0 when no
    /// version exists.
    pub version: u64,
    /// Load/convert/canary/quarantine message for an unavailable model.
    pub error: Option<String>,
}

/// `POST /admin/models/<name>/{load,unload,reload}` response body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LifecycleAck {
    /// Model the action targeted.
    pub model: String,
    /// The action taken (`load`, `unload` or `reload`).
    pub action: String,
    /// Slot state right after the action was accepted (`loading` for
    /// the asynchronous load path — poll `/healthz` for promotion).
    pub state: String,
}

/// Any non-2xx response body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ErrorResponse {
    /// Human-readable cause.
    pub error: String,
}

impl ErrorResponse {
    /// Serialized error body.
    pub fn json(error: impl Into<String>) -> Vec<u8> {
        serde_json::to_vec(&ErrorResponse {
            error: error.into(),
        })
        .unwrap_or_else(|_| b"{\"error\":\"unknown\"}".to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optional_fields_default_when_missing() {
        let req: InferRequest = serde_json::from_str(r#"{"image": [0.5, 1.0]}"#).unwrap();
        assert_eq!(req.model, None);
        assert_eq!(req.early_exit, None);
        assert_eq!(req.deadline_ms, None);
        assert_eq!(req.timing, None);
        assert_eq!(req.image, vec![0.5, 1.0]);
    }

    /// The per-number semantics of `image`, pinned for any faster parser
    /// to keep: each JSON number reads as the nearest `f64`, then rounds
    /// to `f32` (two roundings, not one straight to `f32`), and `null`
    /// reads as NaN.
    #[test]
    fn image_numbers_read_as_f64_then_round_to_f32() {
        let cases = [
            // 17 significant digits. The first lies just above the
            // midpoint between 1 and the next f32, but its nearest f64 is
            // that midpoint, which then rounds to even: 1.0.
            "1.0000000596046448",
            "0.12345678901234567",
            "-3.1415926535897931",
            // Subnormals: the least f32 one, under half of it, the least
            // f64 one, and an underflow past f64.
            "1e-45",
            "7e-46",
            "1.1754942e-38",
            "4.9e-324",
            "-1e-400",
            // Integers: 2^24 + 1 (rounds to even), 2^53 + 1 (already
            // rounded as f64), and 2^127 and -3e38, beyond i128.
            "0",
            "3",
            "16777217",
            "-9007199254740993",
            "170141183460469231731687303715884105728",
            "-300000000000000000000000000000000000000",
            // Exponent forms, an f32 overflow and an f64 one.
            "5e-1",
            "5E-1",
            "2.5e+2",
            "1E2",
            "-0.5e0",
            "1e39",
            "1e400",
            // Negative zero keeps its sign, with or without a fraction.
            "-0",
            "-0.0",
        ];
        let body = format!(r#"{{"image": [{}]}}"#, cases.join(", "));
        let req: InferRequest = serde_json::from_str(&body).unwrap();
        assert_eq!(req.image.len(), cases.len());
        for (text, got) in cases.iter().zip(&req.image) {
            let want = text.parse::<f64>().unwrap() as f32;
            assert_eq!(got.to_bits(), want.to_bits(), "{text}");
        }
        assert_eq!(req.image[0], 1.0);
        assert_ne!(req.image[0], "1.0000000596046448".parse::<f32>().unwrap());
        assert_eq!(req.image[4], 0.0);
        assert!(req.image[cases.len() - 2].is_sign_negative());
        let req: InferRequest = serde_json::from_str(r#"{"image": [0.5, null]}"#).unwrap();
        assert_eq!(req.image[0], 0.5);
        assert!(req.image[1].is_nan());
    }

    /// The wire names every client depends on: renaming a field breaks
    /// clients silently, so each public body's exact serialization is
    /// pinned, key by key. (`optional_fields_default_when_missing`
    /// pins the other direction: a request body with every optional
    /// field omitted.)
    #[test]
    fn wire_field_names_are_pinned() {
        let request = InferRequest {
            model: Some("tiny".into()),
            image: vec![0.5],
            early_exit: Some(true),
            deadline_ms: Some(15),
            timing: Some(true),
        };
        assert_eq!(
            serde_json::to_string(&request).unwrap(),
            r#"{"model":"tiny","image":[0.5],"early_exit":true,"deadline_ms":15,"timing":true}"#
        );
        let timing = Timing {
            trace: 1,
            batch_trace: 2,
            queue_us: 3,
            infer_us: 4,
            total_us: 9,
        };
        let timing_json = r#"{"trace":1,"batch_trace":2,"queue_us":3,"infer_us":4,"total_us":9}"#;
        assert_eq!(serde_json::to_string(&timing).unwrap(), timing_json);
        let mut response = InferResponse {
            model: "tiny".into(),
            version: 1,
            label: 2,
            decision_step: None,
            steps: 96,
            top_potential: 0.5,
            input_spikes: 10,
            hidden_spikes: 20,
            synop_adds: 30,
            synop_mults: 40,
            energy_truenorth: 1.5,
            batch_size: 1,
            queue_us: 5,
            infer_us: 6,
            timing: None,
        };
        let response_json = |timing: &str| {
            format!(
                r#"{{"model":"tiny","version":1,"label":2,"decision_step":null,"steps":96,"top_potential":0.5,"input_spikes":10,"hidden_spikes":20,"synop_adds":30,"synop_mults":40,"energy_truenorth":1.5,"batch_size":1,"queue_us":5,"infer_us":6,"timing":{timing}}}"#
            )
        };
        assert_eq!(
            serde_json::to_string(&response).unwrap(),
            response_json("null")
        );
        response.timing = Some(timing);
        assert_eq!(
            serde_json::to_string(&response).unwrap(),
            response_json(timing_json)
        );
        let report = HealthReport {
            status: "ok".into(),
            draining: false,
            queue_depth: 0,
            queue_capacity: 256,
            models: vec![ModelHealth {
                name: "tiny".into(),
                available: true,
                state: "ready".into(),
                version: 1,
                error: None,
            }],
        };
        assert_eq!(
            serde_json::to_string(&report).unwrap(),
            r#"{"status":"ok","draining":false,"queue_depth":0,"queue_capacity":256,"models":[{"name":"tiny","available":true,"state":"ready","version":1,"error":null}]}"#
        );
    }

    #[test]
    fn deadline_field_parses() {
        let req: InferRequest =
            serde_json::from_str(r#"{"image": [0.5], "deadline_ms": 25}"#).unwrap();
        assert_eq!(req.deadline_ms, Some(25));
    }

    #[test]
    fn responses_round_trip() {
        let resp = InferResponse {
            model: "tiny".into(),
            version: 2,
            label: 3,
            decision_step: None,
            steps: 41,
            top_potential: 0.75,
            input_spikes: 100,
            hidden_spikes: 40,
            synop_adds: 12345,
            synop_mults: 140,
            energy_truenorth: 80.6,
            batch_size: 4,
            queue_us: 1500,
            infer_us: 900,
            timing: None,
        };
        let bytes = serde_json::to_vec(&resp).unwrap();
        let back: InferResponse = serde_json::from_slice(&bytes).unwrap();
        assert_eq!(back.label, 3);
        assert_eq!(back.version, 2);
        assert_eq!(back.decision_step, None);
        assert_eq!(back.batch_size, 4);
        assert!(back.timing.is_none());
    }

    /// The timing breakdown is additive: old clients that don't know
    /// the field must still parse responses carrying it, and a
    /// request-side `timing: true` must round-trip.
    #[test]
    fn timing_breakdown_round_trips() {
        let req: InferRequest =
            serde_json::from_str(r#"{"image": [0.5], "timing": true}"#).unwrap();
        assert_eq!(req.timing, Some(true));
        let timing = Timing {
            trace: 42,
            batch_trace: 43,
            queue_us: 120,
            infer_us: 800,
            total_us: 950,
        };
        let bytes = serde_json::to_vec(&timing).unwrap();
        let back: Timing = serde_json::from_slice(&bytes).unwrap();
        assert_eq!(back.trace, 42);
        assert_eq!(back.batch_trace, 43);
        assert_eq!(back.total_us, 950);
    }

    #[test]
    fn lifecycle_ack_round_trips() {
        let ack = LifecycleAck {
            model: "mnist-like".into(),
            action: "reload".into(),
            state: "loading".into(),
        };
        let bytes = serde_json::to_vec(&ack).unwrap();
        let back: LifecycleAck = serde_json::from_slice(&bytes).unwrap();
        assert_eq!(back.model, "mnist-like");
        assert_eq!(back.state, "loading");
    }

    #[test]
    fn health_report_round_trips() {
        let report = HealthReport {
            status: "degraded".into(),
            draining: false,
            queue_depth: 3,
            queue_capacity: 128,
            models: vec![
                ModelHealth {
                    name: "tiny".into(),
                    available: true,
                    state: "ready".into(),
                    version: 1,
                    error: None,
                },
                ModelHealth {
                    name: "mnist-like".into(),
                    available: false,
                    state: "failed".into(),
                    version: 0,
                    error: Some("conversion failed".into()),
                },
            ],
        };
        let bytes = serde_json::to_vec(&report).unwrap();
        let back: HealthReport = serde_json::from_slice(&bytes).unwrap();
        assert_eq!(back.status, "degraded");
        assert_eq!(back.models.len(), 2);
        assert!(!back.models[1].available);
    }
}
