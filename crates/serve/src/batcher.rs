//! The dynamic micro-batcher: one thread that turns the admission queue
//! into inference batches, degrading deadline-pressed requests instead
//! of wedging on them.
//!
//! Batching policy: pop the oldest job, then gather company with the
//! same `(model, effective early-exit mode)` key. A batch runs one chunk
//! per thread-pool worker in parallel, so company beyond the worker
//! count buys no parallelism (it only spreads the per-call fixed cost
//! over more images): the batcher stops waiting as soon as the batch
//! holds its *fill target*, `min(max_batch, pool workers)` jobs.
//! Every scan of the queue still takes all queued matches up to
//! `max_batch`, so a backlog leaves in one batch. An under-filled batch
//! waits for company until the flush deadline — `max_delay` past the
//! first job's *enqueue* time, capped by its request deadline — expires;
//! a fill target of 1 (a one-worker pool) never waits. Jobs for other
//! keys stay queued in order for the next round.
//!
//! Deadline policy (the degradation ladder, applied per job every
//! cycle):
//!
//! 1. **Full window** — enough slack: the request runs exactly as
//!    asked.
//! 2. **Forced anytime early-exit** — slack below the full-window
//!    estimate (a per-model EWMA of batch execution time plus the batch
//!    wait, or the static `T2FSNN_SERVE_FORCE_EE_SLACK_US` override):
//!    the request is dispatched with `early_exit = true` even though it
//!    asked for a full-window answer. The response is bit-identical to
//!    an explicit `early_exit: true` request — the TTFS anytime path is
//!    the pressure valve, not a different model.
//! 3. **Shed** — the deadline has already passed, *or* the remaining
//!    slack is below even the anytime execution reserve (1.25× the
//!    per-model decaying peak of batch execution time, so the answer
//!    could not possibly land in time): the job is answered `504`
//!    without executing. *Queue*
//!    shedding ([`crate::queue::Queue::drain_matching`]) only ever
//!    takes already-expired jobs — it never touches a job with
//!    remaining slack and never reorders the survivors; the
//!    unmeetable-slack shed is a head-of-queue decision by the batcher
//!    (counted separately as `unmeetable_shed`).
//!
//! The company wait is capped so it never erodes the head's slack below
//! the execution reserve: a batch is flushed early rather than turning
//! a servable head into a late answer.
//!
//! Fault policy: batch execution runs under [`std::panic::catch_unwind`]
//! — a poisoned batch answers `500` for exactly its own requests and the
//! batcher thread survives to serve the next batch (the server
//! additionally respawns the whole thread as a backstop).
//!
//! Because [`t2fsnn::T2fsnn::infer`] is batch-invariant (bit-identical
//! per image regardless of batch composition), batching and forced
//! early-exit can never change the bits of a response relative to the
//! same image inferred solo in the same mode.

use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use t2fsnn::{ImageInference, InferOptions};
use t2fsnn_snn::energy::TRUENORTH;
use t2fsnn_tensor::{profile, trace, Tensor};

use crate::faults::{BatchFault, Faults};
use crate::lifecycle::Breaker;
use crate::metrics::Metrics;
use crate::queue::Queue;
use crate::registry::ServeModel;

/// One admitted inference job.
pub struct InferJob {
    /// Model to run (resolved at admission).
    pub model: Arc<ServeModel>,
    /// Flat `[C·H·W]` image (length validated at admission).
    pub image: Vec<f32>,
    /// Requested early-exit flag (request override or server default).
    pub early_exit: bool,
    /// Absolute deadline, when the request carries one; past it the job
    /// is shed with `504` instead of executed.
    pub deadline: Option<Instant>,
    /// Admission time, for the batching deadline and queue-time metric.
    pub enqueued: Instant,
    /// Where the outcome goes; the connection worker blocks on the
    /// receiving end.
    pub reply: mpsc::Sender<Result<JobOutcome, JobError>>,
}

impl InferJob {
    /// Whether the job's deadline has passed at `now`.
    pub fn expired_at(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| now >= d)
    }

    /// Remaining slack at `now` (`None` without a deadline).
    fn slack_at(&self, now: Instant) -> Option<Duration> {
        self.deadline.map(|d| d.saturating_duration_since(now))
    }
}

/// Why a job was answered without a result.
#[derive(Debug, Clone)]
pub enum JobError {
    /// The job could not be executed inside its deadline — either the
    /// deadline had already passed, or the remaining slack was below
    /// the anytime execution estimate (`504`); the carried value is how
    /// long the job had waited, in microseconds.
    Shed {
        /// Microseconds between admission and the shed decision.
        waited_us: u64,
    },
    /// The job executed, but its result landed after the deadline; the
    /// deadline contract is enforced strictly, so the stale result is
    /// withheld and the request answers `504` (counted as a late
    /// answer in `/metrics`).
    Late {
        /// Microseconds between admission and the (too-late) answer.
        total_us: u64,
    },
    /// Inference failed or the batch panicked (`500`).
    Failed(String),
    /// The job's model left service (unload or quarantine) while the
    /// job was still queued; it is answered `503` without executing.
    Evicted {
        /// The model that left service.
        model: String,
        /// Why it left (`"unloaded"` / `"was quarantined"`).
        reason: String,
    },
}

/// What the batcher hands back per successful job.
pub struct JobOutcome {
    /// The per-image inference result.
    pub result: ImageInference,
    /// Size of the batch the job executed in.
    pub batch_size: usize,
    /// Microseconds the job waited before its batch started.
    pub queue_us: u64,
    /// Microseconds the batch spent in inference.
    pub infer_us: u64,
    /// Whether the degradation ladder forced the anytime early-exit
    /// path on this job (it asked for a full-window answer).
    pub degraded: bool,
    /// Trace id of the micro-batch that executed the job (its
    /// `serve/batch_*` and engine-phase spans carry it); 0 when tracing
    /// is off. Lets a request's span tree cross-link to the shared
    /// batch execution it rode in.
    pub batch_trace: u64,
}

impl JobOutcome {
    /// TrueNorth-weighted relative energy of this request
    /// (`E_dyn·spikes + E_sta·steps`, the paper's estimator un-normalized).
    pub fn energy_truenorth(&self) -> f64 {
        TRUENORTH.e_dyn as f64 * self.result.total_spikes() as f64
            + TRUENORTH.e_sta as f64 * self.result.steps as f64
    }
}

/// Per-model EWMA of batch execution time in one mode (full-window or
/// anytime) — the ladder keeps one per rung: the full-window estimate
/// decides when to force early-exit, the anytime estimate decides when
/// even that cannot land in time.
#[derive(Default)]
struct ExecEstimator {
    /// Smoothed mean and decaying peak of batch execution time, µs.
    stats_us: HashMap<*const ServeModel, (u64, u64)>,
}

impl ExecEstimator {
    /// Smoothed mean execution time (0 until the first sample).
    fn get(&self, model: &Arc<ServeModel>) -> u64 {
        self.stats_us
            .get(&Arc::as_ptr(model))
            .map(|&(mean, _)| mean)
            .unwrap_or(0)
    }

    /// Decaying peak execution time (0 until the first sample): jumps
    /// to a spike instantly, then decays slowly back toward the mean.
    /// Batch time is composition-dependent — an anytime batch runs
    /// until its slowest image's first output spike — so the tail, not
    /// the mean, is what a deadline promise has to budget for.
    fn peak(&self, model: &Arc<ServeModel>) -> u64 {
        self.stats_us
            .get(&Arc::as_ptr(model))
            .map(|&(_, peak)| peak)
            .unwrap_or(0)
    }

    fn update(&mut self, model: &Arc<ServeModel>, infer_us: u64) {
        let (mean, peak) = self.stats_us.entry(Arc::as_ptr(model)).or_insert((0, 0));
        *mean = if *mean == 0 {
            infer_us
        } else {
            (*mean * 3 + infer_us) / 4
        };
        *peak = infer_us.max((*peak * 7 + infer_us) / 8);
    }
}

/// The execution reserve for a decaying-peak estimate: 1.25× the peak,
/// the margin the ladder insists on between dispatch and the deadline.
/// Zero while there is no sample yet (cold start serves
/// optimistically).
fn exec_reserve(peak_us: u64) -> Duration {
    Duration::from_micros(peak_us + peak_us / 4)
}

/// Knobs of one batching loop.
pub struct BatcherConfig {
    /// Maximum images per batch.
    pub max_batch: usize,
    /// Batch size at which the batcher stops waiting for company
    /// (`min(max_batch, pool workers)` as [`crate::start`] sets it; 1
    /// never waits).
    pub fill_target: usize,
    /// How long the first job of an under-filled batch may wait for
    /// company.
    pub max_delay: Duration,
    /// Static forced-early-exit slack threshold in microseconds; 0
    /// means adaptive (full-window EWMA + `max_delay`).
    pub force_ee_slack_us: u64,
}

impl BatcherConfig {
    /// The slack below which a full-window request is degraded to the
    /// anytime early-exit path.
    fn force_threshold(&self, full_estimate_us: u64) -> Duration {
        if self.force_ee_slack_us > 0 {
            Duration::from_micros(self.force_ee_slack_us)
        } else {
            Duration::from_micros(full_estimate_us) + self.max_delay
        }
    }
}

/// Runs the batching loop until the queue closes and drains. Intended
/// for a dedicated thread; shutdown is graceful — jobs admitted before
/// the close are still executed (or shed, when their deadline passed
/// while queued) and answered.
pub fn run(
    queue: &Queue<InferJob>,
    metrics: &Metrics,
    config: &BatcherConfig,
    faults: Option<&Faults>,
    breaker: Option<&Breaker<'_>>,
) {
    let mut full_estimator = ExecEstimator::default();
    let mut anytime_estimator = ExecEstimator::default();
    while let Some(first) = queue.pop_blocking() {
        let now = Instant::now();
        if first.expired_at(now) {
            shed(first, now, metrics);
            continue;
        }
        // Shed every queued job whose deadline has already passed —
        // survivors keep their exact order (drain_matching contract).
        for job in queue.drain_matching(|job| job.expired_at(now)) {
            shed(job, now, metrics);
        }

        // Degradation rung of the head job decides the batch mode.
        let full_estimate = full_estimator.get(&first.model);
        let threshold = config.force_threshold(full_estimate);
        let forced_head = !first.early_exit && first.slack_at(now).is_some_and(|s| s < threshold);
        let effective_ee = first.early_exit || forced_head;
        // Last rung: the head still has slack, but less than the
        // execution reserve of the mode it would run in — the answer
        // cannot possibly land before the deadline, so shed now instead
        // of burning a batch slot on a guaranteed-late response.
        let reserve = exec_reserve(if effective_ee {
            anytime_estimator.peak(&first.model)
        } else {
            full_estimator.peak(&first.model)
        });
        if !reserve.is_zero() && first.slack_at(now).is_some_and(|s| s < reserve) {
            metrics.observe_unmeetable_shed();
            shed(first, now, metrics);
            continue;
        }
        let model_ptr = Arc::as_ptr(&first.model);
        let mut flush = first.enqueued + config.max_delay;
        if let Some(d) = first.deadline {
            // Waiting for company past the point where the head can
            // still execute inside its deadline is pointless — it would
            // turn a servable job into a late answer or a shed.
            flush = flush.min(d.checked_sub(reserve).unwrap_or(now));
        }
        let mut batch = vec![first];
        if config.max_batch > 1 {
            let company = |job: &InferJob| {
                if Arc::as_ptr(&job.model) != model_ptr {
                    return false;
                }
                // Fresh clock per candidate: a doomed job that arrived
                // during the company wait must not ride into a batch.
                let now = Instant::now();
                if job.expired_at(now) {
                    return false;
                }
                // A candidate below the batch's execution reserve would
                // only ride to a late answer; leave it queued for the
                // head-of-queue ladder decision.
                if job.slack_at(now).is_some_and(|s| s < reserve) {
                    return false;
                }
                let forced = !job.early_exit && job.slack_at(now).is_some_and(|s| s < threshold);
                (job.early_exit || forced) == effective_ee
            };
            // Stop waiting once the batch holds its fill target; the
            // scans still take queued company up to `max_batch`.
            let enough = config.fill_target.saturating_sub(1);
            batch.extend(queue.collect_matching(flush, enough, config.max_batch - 1, company));
        }
        metrics.set_queue_depth(queue.len());

        // Dispatch-time accounting: per-job degradation flags and the
        // slack histogram.
        let dispatched = Instant::now();
        let degraded: Vec<bool> = batch
            .iter()
            .map(|job| effective_ee && !job.early_exit)
            .collect();
        for (job, &was_forced) in batch.iter().zip(&degraded) {
            if let Some(slack) = job.slack_at(dispatched) {
                metrics.observe_slack_us(slack.as_micros() as u64);
            }
            if was_forced {
                metrics.observe_forced_early_exit();
            }
        }
        // One trace id per batch: `serve/batch_form` covers pop-to-
        // dispatch (shedding + company gathering), `serve/batch_exec`
        // (inside `execute`) wraps inference, and every engine-phase
        // span on this thread nests under it. Requests cross-link via
        // `JobOutcome::batch_trace`.
        let batch_trace = if trace::enabled() {
            trace::next_trace_id()
        } else {
            0
        };
        if batch_trace != 0 {
            trace::record_complete(
                "serve/batch_form",
                now,
                dispatched.saturating_duration_since(now),
                batch_trace,
                0,
                batch.len() as u64,
            );
        }
        let infer_us = execute(
            &batch,
            effective_ee,
            &degraded,
            metrics,
            faults,
            batch_trace,
        );
        // Attribute the outcome to the model's slot: the circuit
        // breaker counts consecutive failures per model and fences a
        // repeat offender off without touching other models' traffic.
        if let Some(breaker) = breaker {
            breaker.record(&batch[0].model, infer_us.is_some());
        }
        if let Some(us) = infer_us {
            if effective_ee {
                anytime_estimator.update(&batch[0].model, us);
            } else {
                full_estimator.update(&batch[0].model, us);
            }
        }
        // Make this thread's profiler spans visible to `/metrics`.
        profile::flush();
    }
}

/// Answers one shed job (expired, or unmeetable within its remaining
/// slack) `504` and counts the shed.
fn shed(job: InferJob, now: Instant, metrics: &Metrics) {
    metrics.observe_deadline_shed();
    let waited_us = now.saturating_duration_since(job.enqueued).as_micros() as u64;
    let _ = job.reply.send(Err(JobError::Shed { waited_us }));
}

/// Executes one homogeneous batch under panic isolation and replies to
/// every job; returns the execution time on success. Reply sends ignore
/// errors: a worker that timed out and closed its receiver just loses
/// the (already-paid-for) answer.
fn execute(
    batch: &[InferJob],
    early_exit: bool,
    degraded: &[bool],
    metrics: &Metrics,
    faults: Option<&Faults>,
    batch_trace: u64,
) -> Option<u64> {
    // Tag inference (and the engine-phase spans it opens on this
    // thread) with the batch's trace id; guards drop in reverse order,
    // closing the exec span before the scope restores the context.
    let _batch_scope = trace::trace_scope(batch_trace);
    let _exec_span = trace::span_with_aux("serve/batch_exec", batch.len() as u64);
    let model = Arc::clone(&batch[0].model);
    let k = batch.len();
    metrics.observe_batch(k);
    let [c, h, w] = model.image_dims();
    let mut data = Vec::with_capacity(k * c * h * w);
    for job in batch {
        data.extend_from_slice(&job.image);
    }
    let fault = faults.and_then(Faults::batch_fault);
    // The model-attributed burst kind: deterministic consecutive panics
    // that drive the circuit breaker (distinct from the Bernoulli
    // `panic` kind, which scatters failures across the run).
    let model_fault = faults.is_some_and(Faults::model_panic_fault);
    if let Some(BatchFault::Delay(delay)) = fault {
        metrics.observe_fault_injected();
        std::thread::sleep(delay);
    }
    let started = Instant::now();
    // Panic isolation: a poisoned batch answers 500 for its own
    // requests only; the batcher lives on. The model and tensors are
    // not mutated by `infer`, so resuming with them after an unwind is
    // sound (AssertUnwindSafe).
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
        if matches!(fault, Some(BatchFault::Panic)) {
            metrics.observe_fault_injected();
            panic!("injected batch-execution fault");
        }
        if model_fault {
            metrics.observe_fault_injected();
            panic!("injected model-execution fault");
        }
        Tensor::from_vec(vec![k, c, h, w], data)
            .and_then(|images| model.model.infer(&images, InferOptions { early_exit }))
    }));
    let infer_us = started.elapsed().as_micros() as u64;
    match outcome {
        Ok(Ok(results)) => {
            debug_assert_eq!(results.len(), k);
            let answered = Instant::now();
            for ((job, result), &was_forced) in batch.iter().zip(results).zip(degraded) {
                metrics.observe_decision(result.decided());
                // Strict deadline contract: a result that lands past
                // the deadline is withheld — the client asked for an
                // answer *by* the deadline, not a stale one after it.
                if job.deadline.is_some_and(|d| answered > d) {
                    metrics.observe_deadline_late_answer();
                    let total_us =
                        answered.saturating_duration_since(job.enqueued).as_micros() as u64;
                    let _ = job.reply.send(Err(JobError::Late { total_us }));
                    continue;
                }
                let queue_us = started.saturating_duration_since(job.enqueued).as_micros() as u64;
                let _ = job.reply.send(Ok(JobOutcome {
                    result,
                    batch_size: k,
                    queue_us,
                    infer_us,
                    degraded: was_forced,
                    batch_trace,
                }));
            }
            Some(infer_us)
        }
        Ok(Err(e)) => {
            metrics.observe_infer_error();
            let message = format!("inference failed: {e}");
            for job in batch {
                let _ = job.reply.send(Err(JobError::Failed(message.clone())));
            }
            None
        }
        Err(_) => {
            metrics.observe_worker_panic();
            let message =
                "batch execution panicked; only this batch's requests are affected".to_string();
            for job in batch {
                let _ = job.reply.send(Err(JobError::Failed(message.clone())));
            }
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(spikes: u64, steps: usize) -> JobOutcome {
        JobOutcome {
            result: ImageInference {
                label: 0,
                decision_step: None,
                steps,
                top_potential: 0.0,
                input_spikes: spikes,
                hidden_spikes: 0,
                synop_adds: 0,
                synop_mults: 0,
            },
            batch_size: 1,
            queue_us: 0,
            infer_us: 0,
            degraded: false,
            batch_trace: 0,
        }
    }

    #[test]
    fn energy_estimate_weights_spikes_and_latency() {
        let a = outcome(100, 40);
        let b = outcome(10, 40);
        assert!(a.energy_truenorth() > b.energy_truenorth());
        let c = outcome(10, 400);
        assert!(c.energy_truenorth() > b.energy_truenorth());
        assert!((b.energy_truenorth() - (0.4 * 10.0 + 0.6 * 40.0)).abs() < 1e-4);
    }

    #[test]
    fn force_threshold_static_override_wins() {
        let adaptive = BatcherConfig {
            max_batch: 8,
            fill_target: 2,
            max_delay: Duration::from_micros(2_000),
            force_ee_slack_us: 0,
        };
        assert_eq!(
            adaptive.force_threshold(5_000),
            Duration::from_micros(7_000)
        );
        // No estimate yet: only the batch wait itself forces.
        assert_eq!(adaptive.force_threshold(0), Duration::from_micros(2_000));
        let fixed = BatcherConfig {
            force_ee_slack_us: 12_345,
            ..adaptive
        };
        assert_eq!(fixed.force_threshold(5_000), Duration::from_micros(12_345));
    }

    #[test]
    fn exec_reserve_scales_the_peak() {
        assert_eq!(exec_reserve(0), Duration::ZERO);
        assert_eq!(exec_reserve(4_000), Duration::from_micros(5_000));
        assert_eq!(exec_reserve(8), Duration::from_micros(10));
    }
}
