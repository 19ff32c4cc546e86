//! Golden `/metrics` scrape: every exposed line must parse as
//! `name{labels} value`, series must be unique, and the documented
//! metric families must all be present — a pin against accidental
//! renames or malformed expositions (the README table and downstream
//! scrapers depend on these exact names).

mod common;

use std::collections::{BTreeMap, BTreeSet};

use common::request;
use t2fsnn_serve::protocol::InferRequest;
use t2fsnn_serve::{start, Registry, ServeConfig, ServerHandle};

fn test_server() -> (ServerHandle, Vec<f32>) {
    let registry = Registry::load(&["tiny".to_string()]).expect("load tiny model");
    let data = t2fsnn::scenario::Scenario::Tiny.dataset();
    let feature: usize = data.images.dims()[1..].iter().product();
    let image = data.images.data()[..feature].to_vec();
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    };
    let handle = start(config, registry).expect("bind");
    (handle, image)
}

/// One parsed series: metric name + sorted label pairs.
fn parse_line(line: &str) -> (String, BTreeMap<String, String>, f64) {
    let (series, value) = line
        .rsplit_once(' ')
        .unwrap_or_else(|| panic!("no value separator in {line:?}"));
    let value: f64 = value
        .parse()
        .unwrap_or_else(|_| panic!("unparsable value in {line:?}"));
    let (name, labels) = match series.split_once('{') {
        None => (series.to_string(), BTreeMap::new()),
        Some((name, rest)) => {
            let body = rest
                .strip_suffix('}')
                .unwrap_or_else(|| panic!("unclosed label set in {line:?}"));
            let mut labels = BTreeMap::new();
            for pair in body.split(',') {
                let (key, val) = pair
                    .split_once('=')
                    .unwrap_or_else(|| panic!("bad label pair {pair:?} in {line:?}"));
                let val = val
                    .strip_prefix('"')
                    .and_then(|v| v.strip_suffix('"'))
                    .unwrap_or_else(|| panic!("unquoted label value in {line:?}"));
                assert!(
                    labels.insert(key.to_string(), val.to_string()).is_none(),
                    "duplicate label key {key:?} in {line:?}"
                );
            }
            (name.to_string(), labels)
        }
    };
    assert!(
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
        "metric name {name:?} is not snake_case in {line:?}"
    );
    (name, labels, value)
}

/// The documented metric families (the README `/metrics` reference
/// table): all must be present on a live server that has served at
/// least one request. Renaming any of these is a breaking change for
/// scrapers — update the README table *and* this list deliberately.
const DOCUMENTED: &[&str] = &[
    "t2fsnn_serve_responses_total",
    "t2fsnn_serve_queue_depth",
    "t2fsnn_serve_queue_rejections_total",
    "t2fsnn_serve_batches_total",
    "t2fsnn_serve_batch_size_total",
    "t2fsnn_serve_latency_us_bucket",
    "t2fsnn_serve_latency_us_sum",
    "t2fsnn_serve_latency_us_count",
    "t2fsnn_serve_latency_us",
    "t2fsnn_serve_request_stage_us_bucket",
    "t2fsnn_serve_request_stage_us_sum",
    "t2fsnn_serve_request_stage_us_count",
    "t2fsnn_serve_infer_errors_total",
    "t2fsnn_serve_deadline_shed_total",
    "t2fsnn_serve_unmeetable_shed_total",
    "t2fsnn_serve_deadline_late_answers_total",
    "t2fsnn_serve_worker_panics_total",
    "t2fsnn_serve_batcher_respawns_total",
    "t2fsnn_serve_model_unavailable_total",
    "t2fsnn_serve_faults_injected_total",
    "t2fsnn_serve_perturbed_models_total",
    "t2fsnn_serve_perturbed_weight_rows_total",
    "t2fsnn_serve_canary_rejections_total",
    "t2fsnn_serve_quarantine_trips_total",
    "t2fsnn_serve_quarantine_probes_total",
    "t2fsnn_serve_quarantine_readmissions_total",
    "t2fsnn_serve_model_loads_total",
    "t2fsnn_serve_model_unloads_total",
    "t2fsnn_serve_dispatch_slack_us_bucket",
];

#[test]
fn metrics_scrape_is_wellformed_unique_and_complete() {
    let (handle, image) = test_server();
    let addr = handle.addr();

    // Serve a couple of requests so request-scoped families (latency,
    // per-model stage histograms) have series.
    let body = serde_json::to_vec(&InferRequest {
        model: None,
        image,
        early_exit: None,
        deadline_ms: None,
        timing: None,
    })
    .unwrap();
    for _ in 0..2 {
        let (status, reply) = request(addr, "POST", "/v1/infer", &body);
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&reply));
    }

    let (status, scrape) = request(addr, "GET", "/metrics", b"");
    assert_eq!(status, 200);
    let text = String::from_utf8(scrape).expect("metrics must be UTF-8");

    let mut seen_series = BTreeSet::new();
    let mut seen_names = BTreeSet::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        let (name, labels, value) = parse_line(line);
        assert!(
            value.is_finite() && value >= 0.0,
            "metric value out of range in {line:?}"
        );
        let series_key = format!("{name}{labels:?}");
        assert!(seen_series.insert(series_key), "duplicate series: {line:?}");
        seen_names.insert(name);
    }
    for family in DOCUMENTED {
        assert!(
            seen_names.contains(*family),
            "documented metric family `{family}` missing from scrape:\n{text}"
        );
    }
    // Label sanity on the structured families.
    let stage_lines: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("t2fsnn_serve_request_stage_us_bucket"))
        .collect();
    assert!(!stage_lines.is_empty());
    for line in &stage_lines {
        let (_, labels, _) = parse_line(line);
        assert_eq!(labels["model"], "tiny");
        assert!(matches!(
            labels["stage"].as_str(),
            "queue" | "exec" | "total"
        ));
        assert!(labels.contains_key("le"));
    }

    handle.shutdown();
    handle.join();
}
