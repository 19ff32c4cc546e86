//! Serving metrics: lock-free counters rendered as a Prometheus-style
//! text exposition at `GET /metrics`.
//!
//! Tracked: response counts per status, queue depth/rejections, the
//! batch-size histogram, request latency (histogram buckets → p50/p95/
//! p99 upper-bound estimates), per-model per-stage latency histograms
//! (queue wait / batch execution / end-to-end), the robustness
//! counters (deadline sheds, late answers, worker panics, batcher
//! respawns, per-model-unavailable refusals, injected faults, the
//! load-time perturbation footprint) with a slack-at-dispatch
//! histogram, and — when `T2FSNN_PROFILE` is enabled — the per-phase
//! profiler table ([`profile::entries`] drains every live thread, so the
//! endpoint never misses the batcher's spans).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use t2fsnn_tensor::profile;

/// Latency histogram bucket upper bounds, microseconds.
const LATENCY_BUCKETS_US: [u64; 14] = [
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 5_000_000,
];

/// Statuses with dedicated counters (anything else lands in the last
/// `other` slot).
const STATUSES: [u16; 9] = [200, 400, 404, 408, 413, 429, 500, 503, 504];

/// Slack-at-dispatch histogram bucket upper bounds, microseconds: how
/// much deadline budget a request had left when its batch started.
const SLACK_BUCKETS_US: [u64; 8] = [500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000];

/// The per-request lifecycle stages broken out per model in
/// `t2fsnn_serve_request_stage_us_*`: time queued before the batch
/// started, time the batch spent in inference, and end-to-end latency.
const STAGES: [&str; 3] = ["queue", "exec", "total"];

/// One stage's histogram over [`LATENCY_BUCKETS_US`] plus sum/count.
/// Plain integers — it lives behind the per-registry stage mutex.
#[derive(Default, Clone)]
struct StageHist {
    buckets: [u64; LATENCY_BUCKETS_US.len() + 1],
    sum_us: u64,
    count: u64,
}

impl StageHist {
    fn observe(&mut self, us: u64) {
        let slot = LATENCY_BUCKETS_US
            .iter()
            .position(|&b| us <= b)
            .unwrap_or(LATENCY_BUCKETS_US.len());
        self.buckets[slot] += 1;
        self.sum_us += us;
        self.count += 1;
    }
}

/// One model's stage histograms, indexed like [`STAGES`].
#[derive(Default, Clone)]
struct ModelStages([StageHist; STAGES.len()]);

/// The server's metric registry; shared by workers, batcher, loader and
/// the `/metrics` endpoint. All methods are `&self`; everything on the
/// hot path is lock-free (only the per-model quota-rejection map, an
/// off-hot-path refusal counter, takes a mutex).
pub struct Metrics {
    responses: [AtomicU64; 10],
    queue_depth: AtomicUsize,
    queue_rejections: AtomicU64,
    batches: AtomicU64,
    /// `batch_hist[k]` counts batches of size `k + 1`.
    batch_hist: Vec<AtomicU64>,
    /// `latency_hist[i]` counts requests at or under
    /// `LATENCY_BUCKETS_US[i]`; the extra slot is the overflow bucket.
    latency_hist: [AtomicU64; 15],
    latency_sum_us: AtomicU64,
    latency_count: AtomicU64,
    infer_errors: AtomicU64,
    deadline_shed: AtomicU64,
    unmeetable_shed: AtomicU64,
    deadline_late_answers: AtomicU64,
    worker_panics: AtomicU64,
    batcher_respawns: AtomicU64,
    model_unavailable: AtomicU64,
    faults_injected: AtomicU64,
    perturbed_models: AtomicU64,
    perturbed_weight_rows: AtomicU64,
    /// `slack_hist[i]` counts dispatches at or under
    /// `SLACK_BUCKETS_US[i]`; the extra slot is the overflow bucket.
    slack_hist: [AtomicU64; 9],
    canary_rejections: AtomicU64,
    quarantine_trips: AtomicU64,
    quarantine_probes: AtomicU64,
    quarantine_readmissions: AtomicU64,
    model_loads: AtomicU64,
    model_unloads: AtomicU64,
    /// Per-model quota rejections, keyed by model name; a `BTreeMap`
    /// keeps the exposition order deterministic. The lock is touched
    /// only on the (rare, already-refused) overflow path and at render.
    model_quota_rejections: Mutex<BTreeMap<String, u64>>,
    /// Per-model per-stage latency histograms; one short uncontended
    /// lock per completed request (all three stages land in one take).
    request_stages: Mutex<BTreeMap<String, ModelStages>>,
}

impl Metrics {
    /// A fresh registry sized for batches up to `max_batch`.
    pub fn new(max_batch: usize) -> Self {
        Metrics {
            responses: Default::default(),
            queue_depth: AtomicUsize::new(0),
            queue_rejections: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batch_hist: (0..max_batch.max(1)).map(|_| AtomicU64::new(0)).collect(),
            latency_hist: Default::default(),
            latency_sum_us: AtomicU64::new(0),
            latency_count: AtomicU64::new(0),
            infer_errors: AtomicU64::new(0),
            deadline_shed: AtomicU64::new(0),
            unmeetable_shed: AtomicU64::new(0),
            deadline_late_answers: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            batcher_respawns: AtomicU64::new(0),
            model_unavailable: AtomicU64::new(0),
            faults_injected: AtomicU64::new(0),
            perturbed_models: AtomicU64::new(0),
            perturbed_weight_rows: AtomicU64::new(0),
            slack_hist: Default::default(),
            canary_rejections: AtomicU64::new(0),
            quarantine_trips: AtomicU64::new(0),
            quarantine_probes: AtomicU64::new(0),
            quarantine_readmissions: AtomicU64::new(0),
            model_loads: AtomicU64::new(0),
            model_unloads: AtomicU64::new(0),
            model_quota_rejections: Mutex::new(BTreeMap::new()),
            request_stages: Mutex::new(BTreeMap::new()),
        }
    }

    /// Counts one response by status.
    pub fn observe_response(&self, status: u16) {
        let slot = STATUSES
            .iter()
            .position(|&s| s == status)
            .unwrap_or(STATUSES.len());
        self.responses[slot].fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a refused admission (`429`).
    pub fn observe_queue_rejection(&self) {
        self.queue_rejections.fetch_add(1, Ordering::Relaxed);
    }

    /// Updates the queue-depth gauge (called with `queue.len()` after
    /// pushes and batch formation).
    pub fn set_queue_depth(&self, depth: usize) {
        self.queue_depth.store(depth, Ordering::Relaxed);
    }

    /// Counts one executed batch of `size` images.
    pub fn observe_batch(&self, size: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        let slot = size.clamp(1, self.batch_hist.len()) - 1;
        self.batch_hist[slot].fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one completed request's end-to-end latency.
    pub fn observe_latency_us(&self, us: u64) {
        let slot = LATENCY_BUCKETS_US
            .iter()
            .position(|&b| us <= b)
            .unwrap_or(LATENCY_BUCKETS_US.len());
        self.latency_hist[slot].fetch_add(1, Ordering::Relaxed);
        self.latency_sum_us.fetch_add(us, Ordering::Relaxed);
        self.latency_count.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a failed batch execution.
    pub fn observe_infer_error(&self) {
        self.infer_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a request shed because its deadline had already passed
    /// before execution could start (`504`).
    pub fn observe_deadline_shed(&self) {
        self.deadline_shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a shed taken by the ladder's last rung: the request still
    /// had slack, but less than the execution reserve — it could not
    /// possibly have answered in time (also counted in
    /// `deadline_shed`).
    pub fn observe_unmeetable_shed(&self) {
        self.unmeetable_shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a request that was answered, but only after its deadline
    /// had passed (it was dispatched with slack and ran long).
    pub fn observe_deadline_late_answer(&self) {
        self.deadline_late_answers.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a batch execution that panicked and was isolated by the
    /// batcher (its requests answered `500`, the worker survived).
    pub fn observe_worker_panic(&self) {
        self.worker_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a batcher-thread death that the supervisor respawned (the
    /// backstop behind per-batch panic isolation).
    pub fn observe_batcher_respawn(&self) {
        self.batcher_respawns.fetch_add(1, Ordering::Relaxed);
    }

    /// Batcher respawns so far (the chaos gate asserts this stays 0
    /// when per-batch isolation is doing its job).
    pub fn batcher_respawns(&self) -> u64 {
        self.batcher_respawns.load(Ordering::Relaxed)
    }

    /// Counts a request refused because its model is loaded-but-broken
    /// (`503` per-model unavailability, not a shutdown).
    pub fn observe_model_unavailable(&self) {
        self.model_unavailable.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one injected fault firing (any kind).
    pub fn observe_fault_injected(&self) {
        self.faults_injected.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a model version refused promotion by the canary battery
    /// (the incumbent kept serving).
    pub fn observe_canary_rejection(&self) {
        self.canary_rejections.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a circuit-breaker trip: a model fenced off after repeated
    /// execution failures.
    pub fn observe_quarantine_trip(&self) {
        self.quarantine_trips.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a canary probe run against a quarantined model.
    pub fn observe_quarantine_probe(&self) {
        self.quarantine_probes.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a quarantined model re-admitted to serving after a
    /// passing probe.
    pub fn observe_quarantine_readmission(&self) {
        self.quarantine_readmissions.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a model version promoted to serving (boot loads excluded;
    /// this is the runtime lifecycle counter).
    pub fn observe_model_load(&self) {
        self.model_loads.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a model explicitly unloaded via the admin endpoint.
    pub fn observe_model_unload(&self) {
        self.model_unloads.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a request refused because its model's queued share hit
    /// the per-model admission quota (`429`).
    pub fn observe_model_quota_rejection(&self, model: &str) {
        let mut map = self
            .model_quota_rejections
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        *map.entry(model.to_string()).or_insert(0) += 1;
    }

    /// Records one completed request's stage breakdown against its
    /// model: queue wait, batch execution and end-to-end latency, all
    /// in one lock take.
    pub fn observe_request_stages(&self, model: &str, queue_us: u64, infer_us: u64, total_us: u64) {
        let mut map = self
            .request_stages
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let stages = match map.get_mut(model) {
            Some(s) => s,
            None => map.entry(model.to_string()).or_default(),
        };
        stages.0[0].observe(queue_us);
        stages.0[1].observe(infer_us);
        stages.0[2].observe(total_us);
    }

    /// Records the load-time perturbation footprint: how many models
    /// came up perturbed and how many weight rows were rewritten (set
    /// once at startup from the registry's counts; 0/0 = clean server).
    pub fn set_perturbation(&self, models: u64, weight_rows: u64) {
        self.perturbed_models.store(models, Ordering::Relaxed);
        self.perturbed_weight_rows
            .store(weight_rows, Ordering::Relaxed);
    }

    /// Records a deadline-carrying request's remaining slack when its
    /// batch was dispatched.
    pub fn observe_slack_us(&self, us: u64) {
        let slot = SLACK_BUCKETS_US
            .iter()
            .position(|&b| us <= b)
            .unwrap_or(SLACK_BUCKETS_US.len());
        self.slack_hist[slot].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of batches whose size exceeded one — the signal that
    /// micro-batching is actually engaging.
    pub fn batches_beyond_one(&self) -> u64 {
        self.batch_hist[1..]
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Latency quantile upper-bound estimate from the histogram, `q` in
    /// `0..=1`. Returns 0 with no observations.
    pub fn latency_quantile_us(&self, q: f64) -> u64 {
        let total = self.latency_count.load(Ordering::Relaxed);
        if total == 0 {
            return 0;
        }
        let rank = (q * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, count) in self.latency_hist.iter().enumerate() {
            seen += count.load(Ordering::Relaxed);
            if seen >= rank {
                return LATENCY_BUCKETS_US.get(i).copied().unwrap_or(u64::MAX);
            }
        }
        u64::MAX
    }

    /// The text exposition served at `GET /metrics`.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(2048);
        for (i, &status) in STATUSES.iter().enumerate() {
            let count = self.responses[i].load(Ordering::Relaxed);
            out.push_str(&format!(
                "t2fsnn_serve_responses_total{{code=\"{status}\"}} {count}\n"
            ));
        }
        out.push_str(&format!(
            "t2fsnn_serve_responses_total{{code=\"other\"}} {}\n",
            self.responses[STATUSES.len()].load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "t2fsnn_serve_queue_depth {}\n",
            self.queue_depth.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "t2fsnn_serve_queue_rejections_total {}\n",
            self.queue_rejections.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "t2fsnn_serve_batches_total {}\n",
            self.batches.load(Ordering::Relaxed)
        ));
        for (i, count) in self.batch_hist.iter().enumerate() {
            out.push_str(&format!(
                "t2fsnn_serve_batch_size_total{{size=\"{}\"}} {}\n",
                i + 1,
                count.load(Ordering::Relaxed)
            ));
        }
        for (i, &bound) in LATENCY_BUCKETS_US.iter().enumerate() {
            out.push_str(&format!(
                "t2fsnn_serve_latency_us_bucket{{le=\"{bound}\"}} {}\n",
                self.latency_hist[i].load(Ordering::Relaxed)
            ));
        }
        out.push_str(&format!(
            "t2fsnn_serve_latency_us_bucket{{le=\"+Inf\"}} {}\n",
            self.latency_hist[LATENCY_BUCKETS_US.len()].load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "t2fsnn_serve_latency_us_sum {}\n",
            self.latency_sum_us.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "t2fsnn_serve_latency_us_count {}\n",
            self.latency_count.load(Ordering::Relaxed)
        ));
        for (q, label) in [(0.5, "p50"), (0.95, "p95"), (0.99, "p99")] {
            out.push_str(&format!(
                "t2fsnn_serve_latency_us{{quantile=\"{label}\"}} {}\n",
                self.latency_quantile_us(q)
            ));
        }
        out.push_str(&format!(
            "t2fsnn_serve_infer_errors_total {}\n",
            self.infer_errors.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "t2fsnn_serve_deadline_shed_total {}\n",
            self.deadline_shed.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "t2fsnn_serve_unmeetable_shed_total {}\n",
            self.unmeetable_shed.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "t2fsnn_serve_deadline_late_answers_total {}\n",
            self.deadline_late_answers.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "t2fsnn_serve_worker_panics_total {}\n",
            self.worker_panics.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "t2fsnn_serve_batcher_respawns_total {}\n",
            self.batcher_respawns.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "t2fsnn_serve_model_unavailable_total {}\n",
            self.model_unavailable.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "t2fsnn_serve_faults_injected_total {}\n",
            self.faults_injected.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "t2fsnn_serve_perturbed_models_total {}\n",
            self.perturbed_models.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "t2fsnn_serve_perturbed_weight_rows_total {}\n",
            self.perturbed_weight_rows.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "t2fsnn_serve_canary_rejections_total {}\n",
            self.canary_rejections.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "t2fsnn_serve_quarantine_trips_total {}\n",
            self.quarantine_trips.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "t2fsnn_serve_quarantine_probes_total {}\n",
            self.quarantine_probes.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "t2fsnn_serve_quarantine_readmissions_total {}\n",
            self.quarantine_readmissions.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "t2fsnn_serve_model_loads_total {}\n",
            self.model_loads.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "t2fsnn_serve_model_unloads_total {}\n",
            self.model_unloads.load(Ordering::Relaxed)
        ));
        {
            let map = self
                .model_quota_rejections
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            for (model, count) in map.iter() {
                out.push_str(&format!(
                    "t2fsnn_serve_model_quota_rejections_total{{model=\"{model}\"}} {count}\n"
                ));
            }
        }
        {
            let map = self
                .request_stages
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            for (model, stages) in map.iter() {
                for (stage, hist) in STAGES.iter().zip(&stages.0) {
                    for (i, &bound) in LATENCY_BUCKETS_US.iter().enumerate() {
                        out.push_str(&format!(
                            "t2fsnn_serve_request_stage_us_bucket{{model=\"{model}\",\
                             stage=\"{stage}\",le=\"{bound}\"}} {}\n",
                            hist.buckets[i]
                        ));
                    }
                    out.push_str(&format!(
                        "t2fsnn_serve_request_stage_us_bucket{{model=\"{model}\",\
                         stage=\"{stage}\",le=\"+Inf\"}} {}\n",
                        hist.buckets[LATENCY_BUCKETS_US.len()]
                    ));
                    out.push_str(&format!(
                        "t2fsnn_serve_request_stage_us_sum{{model=\"{model}\",\
                         stage=\"{stage}\"}} {}\n",
                        hist.sum_us
                    ));
                    out.push_str(&format!(
                        "t2fsnn_serve_request_stage_us_count{{model=\"{model}\",\
                         stage=\"{stage}\"}} {}\n",
                        hist.count
                    ));
                }
            }
        }
        for (i, &bound) in SLACK_BUCKETS_US.iter().enumerate() {
            out.push_str(&format!(
                "t2fsnn_serve_dispatch_slack_us_bucket{{le=\"{bound}\"}} {}\n",
                self.slack_hist[i].load(Ordering::Relaxed)
            ));
        }
        out.push_str(&format!(
            "t2fsnn_serve_dispatch_slack_us_bucket{{le=\"+Inf\"}} {}\n",
            self.slack_hist[SLACK_BUCKETS_US.len()].load(Ordering::Relaxed)
        ));
        if profile::enabled() {
            for entry in profile::entries() {
                out.push_str(&format!(
                    "t2fsnn_profile_ms{{key=\"{}\"}} {:.3}\n",
                    entry.key,
                    entry.nanos as f64 / 1e6
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_quantiles() {
        let m = Metrics::new(4);
        m.observe_response(200);
        m.observe_response(200);
        m.observe_response(429);
        m.observe_response(418); // lands in `other`
        m.observe_batch(1);
        m.observe_batch(3);
        m.observe_batch(99); // clamped into the top bucket
        for us in [80, 90, 400, 30_000] {
            m.observe_latency_us(us);
        }
        m.set_queue_depth(7);
        assert_eq!(m.batches_beyond_one(), 2);
        assert_eq!(m.latency_quantile_us(0.5), 100);
        assert_eq!(m.latency_quantile_us(0.99), 50_000);
        let text = m.render();
        assert!(text.contains("t2fsnn_serve_responses_total{code=\"200\"} 2"));
        assert!(text.contains("t2fsnn_serve_responses_total{code=\"429\"} 1"));
        assert!(text.contains("t2fsnn_serve_responses_total{code=\"other\"} 1"));
        assert!(text.contains("t2fsnn_serve_batch_size_total{size=\"3\"} 1"));
        assert!(text.contains("t2fsnn_serve_batch_size_total{size=\"4\"} 1"));
        assert!(text.contains("t2fsnn_serve_queue_depth 7"));
        assert!(text.contains("quantile=\"p50\"} 100"));
    }

    #[test]
    fn robustness_counters_render() {
        let m = Metrics::new(2);
        m.observe_response(504);
        m.observe_deadline_shed();
        m.observe_deadline_shed();
        m.observe_deadline_late_answer();
        m.observe_worker_panic();
        m.observe_batcher_respawn();
        m.observe_model_unavailable();
        m.observe_fault_injected();
        m.set_perturbation(2, 37);
        m.observe_slack_us(400);
        m.observe_slack_us(7_000);
        m.observe_slack_us(999_999);
        assert_eq!(m.batcher_respawns(), 1);
        let text = m.render();
        assert!(text.contains("t2fsnn_serve_responses_total{code=\"504\"} 1"));
        assert!(text.contains("t2fsnn_serve_deadline_shed_total 2"));
        assert!(text.contains("t2fsnn_serve_deadline_late_answers_total 1"));
        assert!(text.contains("t2fsnn_serve_worker_panics_total 1"));
        assert!(text.contains("t2fsnn_serve_batcher_respawns_total 1"));
        assert!(text.contains("t2fsnn_serve_model_unavailable_total 1"));
        assert!(text.contains("t2fsnn_serve_faults_injected_total 1"));
        assert!(text.contains("t2fsnn_serve_perturbed_models_total 2"));
        assert!(text.contains("t2fsnn_serve_perturbed_weight_rows_total 37"));
        assert!(text.contains("t2fsnn_serve_dispatch_slack_us_bucket{le=\"500\"} 1"));
        assert!(text.contains("t2fsnn_serve_dispatch_slack_us_bucket{le=\"10000\"} 1"));
        assert!(text.contains("t2fsnn_serve_dispatch_slack_us_bucket{le=\"+Inf\"} 1"));
    }

    #[test]
    fn lifecycle_counters_render() {
        let m = Metrics::new(2);
        m.observe_canary_rejection();
        m.observe_quarantine_trip();
        m.observe_quarantine_probe();
        m.observe_quarantine_probe();
        m.observe_quarantine_readmission();
        m.observe_model_load();
        m.observe_model_load();
        m.observe_model_unload();
        m.observe_model_quota_rejection("tiny");
        m.observe_model_quota_rejection("tiny");
        m.observe_model_quota_rejection("mnist-like");
        let text = m.render();
        assert!(text.contains("t2fsnn_serve_canary_rejections_total 1"));
        assert!(text.contains("t2fsnn_serve_quarantine_trips_total 1"));
        assert!(text.contains("t2fsnn_serve_quarantine_probes_total 2"));
        assert!(text.contains("t2fsnn_serve_quarantine_readmissions_total 1"));
        assert!(text.contains("t2fsnn_serve_model_loads_total 2"));
        assert!(text.contains("t2fsnn_serve_model_unloads_total 1"));
        assert!(text.contains("t2fsnn_serve_model_quota_rejections_total{model=\"tiny\"} 2"));
        assert!(text.contains("t2fsnn_serve_model_quota_rejections_total{model=\"mnist-like\"} 1"));
        // Unhit models have no row at all (no spurious zero series).
        let empty = Metrics::new(2);
        assert!(!empty.render().contains("model_quota_rejections"));
    }

    #[test]
    fn stage_histograms_render_per_model() {
        let m = Metrics::new(2);
        m.observe_request_stages("tiny", 90, 400, 520);
        m.observe_request_stages("tiny", 30_000, 400, 31_000);
        m.observe_request_stages("mnist-like", 10, 10, 10_000_000);
        let text = m.render();
        assert!(text.contains(
            "t2fsnn_serve_request_stage_us_bucket{model=\"tiny\",stage=\"queue\",le=\"100\"} 1"
        ));
        assert!(text.contains(
            "t2fsnn_serve_request_stage_us_bucket{model=\"tiny\",stage=\"exec\",le=\"500\"} 2"
        ));
        assert!(text
            .contains("t2fsnn_serve_request_stage_us_sum{model=\"tiny\",stage=\"queue\"} 30090"));
        assert!(
            text.contains("t2fsnn_serve_request_stage_us_count{model=\"tiny\",stage=\"total\"} 2")
        );
        // Overflow lands in +Inf; untouched models get no series.
        assert!(text.contains(
            "t2fsnn_serve_request_stage_us_bucket{model=\"mnist-like\",stage=\"total\",le=\"+Inf\"} 1"
        ));
        assert!(!Metrics::new(2).render().contains("request_stage"));
    }

    #[test]
    fn empty_metrics_render() {
        let m = Metrics::new(2);
        assert_eq!(m.latency_quantile_us(0.5), 0);
        assert!(m.render().contains("t2fsnn_serve_latency_us_count 0"));
    }
}
