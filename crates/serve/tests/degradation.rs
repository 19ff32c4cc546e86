//! Degradation-ladder and shedding properties, driven directly against
//! the batcher and queue (no sockets):
//!
//! * shedding takes exactly the deadline-expired jobs — never a job
//!   with remaining slack — and never reorders the survivors;
//! * a full-window request forced onto the early-exit rung produces a
//!   response bit-identical to an explicit early-exit request, across
//!   batch compositions (including mixed explicit/forced batches) and
//!   worker counts {1, 2, 4};
//! * an injected batch panic fails only its own batch's requests and
//!   the batcher keeps serving (no respawn needed);
//! * a registry loaded with a severity-0 perturbation serves bits
//!   identical to a clean registry, and the forced-early-exit identity
//!   holds on a perturbed model too (the ladder and the perturbation
//!   subsystem compose);
//! * unloading a model mid-flight evicts exactly its queued jobs to
//!   `503` in admission order, while the other models' jobs are neither
//!   reordered nor dropped and keep their bit-exact answers;
//! * the fill rule: a batch that reaches its fill target dispatches at
//!   once whatever `max_delay` is, a backlog beyond the target still
//!   leaves in one batch, a fill target of 1 never waits, and a lone job
//!   keeps the hold (or its deadline cap).

use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use t2fsnn::{ImageInference, InferOptions};
use t2fsnn_serve::batcher::{self, BatcherConfig, InferJob, JobError, JobOutcome};
use t2fsnn_serve::faults::Faults;
use t2fsnn_serve::metrics::Metrics;
use t2fsnn_serve::queue::Queue;
use t2fsnn_serve::{Registry, ServeModel};
use t2fsnn_tensor::perturb::PerturbSpec;
use t2fsnn_tensor::{Tensor, ThreadPool};

/// The tiny scenario model (as the registry loads it) plus a pool of
/// request images from its own dataset.
fn tiny() -> (Arc<ServeModel>, Vec<Vec<f32>>) {
    let registry = Registry::load(&["tiny".to_string()]).expect("load tiny");
    let model = registry.get(None).expect("tiny ready");
    let data = t2fsnn::scenario::Scenario::Tiny.dataset();
    let feature: usize = data.images.dims()[1..].iter().product();
    let images = (0..8)
        .map(|i| data.images.data()[i * feature..(i + 1) * feature].to_vec())
        .collect();
    (model, images)
}

fn make_job(
    model: &Arc<ServeModel>,
    image: Vec<f32>,
    early_exit: bool,
    deadline: Option<Instant>,
) -> (InferJob, mpsc::Receiver<Result<JobOutcome, JobError>>) {
    let (tx, rx) = mpsc::channel();
    (
        InferJob {
            model: Arc::clone(model),
            image,
            early_exit,
            deadline,
            enqueued: Instant::now(),
            reply: tx,
        },
        rx,
    )
}

/// Property: `drain_matching` (the shedding primitive) removes exactly
/// the matching items in FIFO order and the survivors keep their exact
/// relative order — over random queue contents.
#[test]
fn shedding_never_reorders_survivors() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    for _ in 0..200 {
        let n = rng.gen_range(1..30);
        let items: Vec<(usize, bool)> = (0..n).map(|i| (i, rng.gen_range(0..100) < 40)).collect();
        let queue = Queue::new(64);
        for item in &items {
            queue.push(*item).expect("push");
        }
        let shed = queue.drain_matching(|(_, expired)| *expired);
        let expected_shed: Vec<_> = items.iter().copied().filter(|(_, e)| *e).collect();
        assert_eq!(shed, expected_shed, "shed set or order wrong");
        let survivors = queue.drain_matching(|_| true);
        let expected_survivors: Vec<_> = items.iter().copied().filter(|(_, e)| !*e).collect();
        assert_eq!(survivors, expected_survivors, "survivor order changed");
    }
}

/// Property: the batcher sheds exactly the jobs whose deadline has
/// passed (answering `Shed`), and every job with remaining slack is
/// executed and answered — over random doomed/healthy mixes.
#[test]
fn batcher_sheds_only_expired_jobs() {
    let (model, images) = tiny();
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    for round in 0..3 {
        let queue = Queue::new(64);
        let metrics = Metrics::new(8);
        let now = Instant::now();
        let mut receivers = Vec::new();
        for i in 0..16 {
            // First two pinned so both classes always occur.
            let doomed = match i {
                0 => true,
                1 => false,
                _ => rng.gen_range(0..100) < 40,
            };
            let deadline = if doomed {
                // Budget 0: already due when the batcher looks at it.
                Some(now)
            } else {
                Some(now + Duration::from_secs(600))
            };
            let (job, rx) = make_job(&model, images[i % images.len()].clone(), true, deadline);
            assert!(queue.push(job).is_ok(), "queue push must succeed");
            receivers.push((rx, doomed));
        }
        queue.close();
        let config = BatcherConfig {
            max_batch: 8,
            fill_target: 8,
            max_delay: Duration::from_micros(100),
            force_ee_slack_us: 0,
        };
        batcher::run(&queue, &metrics, &config, None, None);
        let mut sheds = 0;
        for (i, (rx, doomed)) in receivers.iter().enumerate() {
            match rx.try_recv().expect("every admitted job must be answered") {
                Ok(_) => assert!(!doomed, "round {round}: expired job {i} was executed"),
                Err(JobError::Shed { .. }) => {
                    sheds += 1;
                    assert!(doomed, "round {round}: job {i} had slack and was shed");
                }
                Err(JobError::Late { .. }) => {
                    panic!("round {round}: job {i} answered late despite huge slack")
                }
                Err(JobError::Failed(e)) => panic!("round {round}: job {i} failed: {e}"),
                Err(JobError::Evicted { .. }) => {
                    panic!("round {round}: job {i} evicted with no lifecycle op")
                }
            }
        }
        let rendered = metrics.render();
        assert!(
            rendered.contains(&format!("t2fsnn_serve_deadline_shed_total {sheds}")),
            "shed counter mismatch: {rendered}"
        );
    }
}

/// The ladder's bit-identity contract: forced early-exit equals
/// explicit early-exit, byte for byte, across batch compositions
/// (solo, partial, full, and mixed explicit/forced batches) and worker
/// counts {1, 2, 4}.
#[test]
fn forced_early_exit_matches_explicit_across_batches_and_workers() {
    let (model, images) = tiny();
    let [c, h, w] = model.image_dims();

    // Reference: explicit early-exit, solo, for every worker count —
    // all must agree bit-for-bit (worker invariance), giving one
    // canonical answer per image.
    let mut references: Vec<ImageInference> = Vec::new();
    for image in &images {
        let tensor = Tensor::from_vec(vec![1, c, h, w], image.clone()).expect("tensor");
        let mut per_worker: Vec<ImageInference> = [1usize, 2, 4]
            .iter()
            .map(|&workers| {
                let pool = ThreadPool::new(workers);
                model
                    .model
                    .infer_on(&tensor, InferOptions { early_exit: true }, &pool)
                    .expect("solo inference")
                    .remove(0)
            })
            .collect();
        let canonical = per_worker.remove(0);
        for other in &per_worker {
            assert_eq!(&canonical, other, "solo early-exit differs across workers");
            assert_eq!(
                canonical.top_potential.to_bits(),
                other.top_potential.to_bits()
            );
        }
        references.push(canonical);
    }

    // Ladder runs: odd-indexed jobs ask full-window with a deadline and
    // a huge static force threshold (always forced onto the early-exit
    // rung); even-indexed jobs ask early-exit explicitly — both modes
    // share batches because the effective mode is the batch key.
    for max_batch in [1usize, 3, 8] {
        let queue = Queue::new(64);
        let metrics = Metrics::new(8);
        let now = Instant::now();
        let mut receivers = Vec::new();
        for (i, image) in images.iter().enumerate() {
            let explicit = i % 2 == 0;
            let deadline = (!explicit).then(|| now + Duration::from_secs(5));
            let (job, rx) = make_job(&model, image.clone(), explicit, deadline);
            assert!(queue.push(job).is_ok(), "queue push must succeed");
            receivers.push((rx, explicit));
        }
        queue.close();
        let config = BatcherConfig {
            max_batch,
            fill_target: max_batch,
            max_delay: Duration::from_micros(100),
            force_ee_slack_us: u64::MAX,
        };
        batcher::run(&queue, &metrics, &config, None, None);
        for (i, (rx, explicit)) in receivers.iter().enumerate() {
            let outcome = rx
                .try_recv()
                .expect("answered")
                .expect("executed, not shed");
            assert_eq!(
                outcome.degraded, !explicit,
                "max_batch {max_batch}: job {i} degraded flag wrong"
            );
            assert_eq!(
                &outcome.result, &references[i],
                "max_batch {max_batch}: job {i} bits differ from explicit early-exit"
            );
            assert_eq!(
                outcome.result.top_potential.to_bits(),
                references[i].top_potential.to_bits()
            );
        }
        if max_batch == 8 {
            assert!(
                metrics
                    .render()
                    .contains("t2fsnn_serve_forced_early_exit_total 4"),
                "forced-EE counter should see the 4 deadline jobs"
            );
        }
    }
}

/// The perturbation gate: a registry loaded under a severity-0 spec
/// (every knob scaled to zero) serves responses bit-identical to a
/// clean registry — the perturbed code path must be exactly the clean
/// path when the knobs are zero, not merely close.
#[test]
fn severity_zero_perturbed_registry_serves_identical_bits() {
    let (clean, images) = tiny();
    let spec = PerturbSpec::parse("5:igauss=0.1,jitter=3,drop=0.2,wgauss=0.1,wbitflip=0.01")
        .expect("spec")
        .scaled(0.0);
    assert!(spec.is_identity(), "severity 0 must scale to identity");
    let registry =
        Registry::load_perturbed(&["tiny".to_string()], Some(&spec)).expect("load perturbed");
    assert_eq!(registry.perturbed_models(), 0, "identity counts nothing");
    assert_eq!(registry.perturbed_weight_rows(), 0);
    let perturbed = registry.get(None).expect("tiny ready");
    let [c, h, w] = clean.image_dims();
    let pool = ThreadPool::new(2);
    for (i, image) in images.iter().enumerate() {
        let tensor = Tensor::from_vec(vec![1, c, h, w], image.clone()).expect("tensor");
        for options in [
            InferOptions { early_exit: false },
            InferOptions { early_exit: true },
        ] {
            let a = clean
                .model
                .infer_on(&tensor, options, &pool)
                .expect("clean inference")
                .remove(0);
            let b = perturbed
                .model
                .infer_on(&tensor, options, &pool)
                .expect("perturbed inference")
                .remove(0);
            assert_eq!(a, b, "image {i}: severity-0 bits differ (ee={options:?})");
            assert_eq!(a.top_potential.to_bits(), b.top_potential.to_bits());
        }
    }
}

/// The ladder composes with the perturbation subsystem: on a model
/// loaded with a non-identity event+weight perturbation, forced
/// early-exit still equals explicit early-exit bit-for-bit across batch
/// compositions and worker counts.
#[test]
fn forced_early_exit_matches_explicit_under_perturbation() {
    let spec = PerturbSpec::parse("5:jitter=1,drop=0.05,wgauss=0.02").expect("spec");
    let registry =
        Registry::load_perturbed(&["tiny".to_string()], Some(&spec)).expect("load perturbed");
    assert_eq!(registry.perturbed_models(), 1);
    let model = registry.get(None).expect("tiny ready");
    let data = t2fsnn::scenario::Scenario::Tiny.dataset();
    let feature: usize = data.images.dims()[1..].iter().product();
    let images: Vec<Vec<f32>> = (0..6)
        .map(|i| data.images.data()[i * feature..(i + 1) * feature].to_vec())
        .collect();
    let [c, h, w] = model.image_dims();

    // Solo explicit-EE references, per worker count — the perturbed
    // model must stay worker-invariant (per-image content-keyed
    // streams), or the ladder identity below would be meaningless.
    let mut references: Vec<ImageInference> = Vec::new();
    for image in &images {
        let tensor = Tensor::from_vec(vec![1, c, h, w], image.clone()).expect("tensor");
        let mut per_worker: Vec<ImageInference> = [1usize, 2, 4]
            .iter()
            .map(|&workers| {
                let pool = ThreadPool::new(workers);
                model
                    .model
                    .infer_on(&tensor, InferOptions { early_exit: true }, &pool)
                    .expect("solo inference")
                    .remove(0)
            })
            .collect();
        let canonical = per_worker.remove(0);
        for other in &per_worker {
            assert_eq!(
                &canonical, other,
                "perturbed solo early-exit differs across workers"
            );
        }
        references.push(canonical);
    }

    for max_batch in [1usize, 3, 6] {
        let queue = Queue::new(64);
        let metrics = Metrics::new(8);
        let now = Instant::now();
        let mut receivers = Vec::new();
        for (i, image) in images.iter().enumerate() {
            let explicit = i % 2 == 0;
            let deadline = (!explicit).then(|| now + Duration::from_secs(5));
            let (job, rx) = make_job(&model, image.clone(), explicit, deadline);
            assert!(queue.push(job).is_ok(), "queue push must succeed");
            receivers.push((rx, explicit));
        }
        queue.close();
        let config = BatcherConfig {
            max_batch,
            fill_target: max_batch,
            max_delay: Duration::from_micros(100),
            force_ee_slack_us: u64::MAX,
        };
        batcher::run(&queue, &metrics, &config, None, None);
        for (i, (rx, explicit)) in receivers.iter().enumerate() {
            let outcome = rx
                .try_recv()
                .expect("answered")
                .expect("executed, not shed");
            assert_eq!(
                outcome.degraded, !explicit,
                "max_batch {max_batch}: job {i} degraded flag wrong"
            );
            assert_eq!(
                &outcome.result, &references[i],
                "max_batch {max_batch}: perturbed job {i} bits differ from explicit early-exit"
            );
        }
    }
}

/// Panic isolation: with `panic=1` every batch panics; each batch's own
/// jobs get `Failed`, the batcher survives all of them in one run, and
/// the panics are counted.
#[test]
fn injected_batch_panic_fails_only_its_batch() {
    let (model, images) = tiny();
    let faults = Faults::parse("1:panic=1").expect("spec");
    let queue = Queue::new(64);
    let metrics = Metrics::new(8);
    let mut receivers = Vec::new();
    for i in 0..6 {
        let (job, rx) = make_job(&model, images[i % images.len()].clone(), true, None);
        assert!(queue.push(job).is_ok(), "queue push must succeed");
        receivers.push(rx);
    }
    queue.close();
    let config = BatcherConfig {
        max_batch: 2,
        fill_target: 2,
        max_delay: Duration::from_micros(100),
        force_ee_slack_us: 0,
    };
    batcher::run(&queue, &metrics, &config, Some(&faults), None);
    for (i, rx) in receivers.iter().enumerate() {
        match rx.try_recv().expect("every job answered despite panics") {
            Err(JobError::Failed(message)) => {
                assert!(message.contains("panicked"), "job {i}: {message}")
            }
            Ok(_) => panic!("job {i}: expected Failed, got a successful outcome"),
            Err(JobError::Shed { .. }) => panic!("job {i}: expected Failed, got Shed"),
            Err(JobError::Late { .. }) => panic!("job {i}: expected Failed, got Late"),
            Err(JobError::Evicted { .. }) => panic!("job {i}: expected Failed, got Evicted"),
        }
    }
    let rendered = metrics.render();
    assert!(
        rendered.contains("t2fsnn_serve_worker_panics_total 3"),
        "three batches of two must have panicked: {rendered}"
    );
}

/// A second "model" for multi-model queue tests: the tiny scenario
/// loaded again under a different registry name, so jobs are
/// distinguishable by `model.name` while executing identically.
fn tiny_as(name: &str) -> Arc<ServeModel> {
    let registry = Registry::load(&["tiny".to_string()]).expect("load tiny");
    let arc = registry.get(None).expect("tiny ready");
    drop(registry);
    let mut model = Arc::try_unwrap(arc)
        .unwrap_or_else(|_| panic!("registry dropped; this must be the only Arc"));
    model.name = name.to_string();
    Arc::new(model)
}

/// Unload-under-load contract: draining a model's queued jobs answers
/// exactly that model's jobs `Evicted` (→ `503`) in admission order,
/// and the surviving jobs for other models are neither reordered nor
/// dropped — each is then executed and answers its own image's bits.
#[test]
fn unload_drains_only_the_named_model_in_admission_order() {
    let (keeper, images) = tiny();
    let doomed_model = tiny_as("tiny-b");
    let queue = Queue::new(64);
    let metrics = Metrics::new(8);

    // Solo references for the surviving model's jobs.
    let [c, h, w] = keeper.image_dims();
    let references: Vec<ImageInference> = images
        .iter()
        .map(|image| {
            let tensor = Tensor::from_vec(vec![1, c, h, w], image.clone()).expect("tensor");
            keeper
                .model
                .infer(&tensor, InferOptions { early_exit: true })
                .expect("solo inference")
                .remove(0)
        })
        .collect();

    // Interleave the two models' jobs: even indices tiny, odd tiny-b.
    let mut keeper_rx = Vec::new();
    let mut doomed_rx = Vec::new();
    for i in 0..12 {
        let image = images[(i / 2) % images.len()].clone();
        if i % 2 == 0 {
            let (job, rx) = make_job(&keeper, image, true, None);
            assert!(queue.push(job).is_ok());
            keeper_rx.push((rx, (i / 2) % images.len()));
        } else {
            let (job, rx) = make_job(&doomed_model, image, true, None);
            assert!(queue.push(job).is_ok());
            doomed_rx.push((rx, i));
        }
    }

    // The unload path: evict tiny-b's queued jobs, touch nothing else.
    let evicted =
        t2fsnn_serve::lifecycle::drain_model_jobs(&queue, "tiny-b", "was unloaded", &metrics);
    assert_eq!(evicted, doomed_rx.len(), "exactly tiny-b's jobs evicted");
    assert_eq!(queue.len(), keeper_rx.len(), "no survivor dropped");

    // Evictions answered immediately, in admission order: because the
    // drain replies in FIFO match order and each receiver is checked in
    // admission order, every receiver must already hold its answer.
    for (rx, i) in &doomed_rx {
        match rx.try_recv().expect("evicted job answered synchronously") {
            Err(JobError::Evicted { model, reason }) => {
                assert_eq!(model, "tiny-b", "job {i}");
                assert_eq!(reason, "was unloaded", "job {i}");
            }
            Ok(_) => panic!("job {i}: expected Evicted, got a successful outcome"),
            Err(e) => panic!("job {i}: expected Evicted, got {e:?}"),
        }
    }
    assert!(
        metrics
            .render()
            .contains(&format!("t2fsnn_serve_model_unavailable_total {evicted}")),
        "evictions must count as model-unavailable refusals"
    );

    // The survivors run as if the unload never happened: all answered,
    // none shed, each with its own image's solo bits.
    queue.close();
    let config = BatcherConfig {
        max_batch: 4,
        fill_target: 4,
        max_delay: Duration::from_micros(100),
        force_ee_slack_us: 0,
    };
    batcher::run(&queue, &metrics, &config, None, None);
    for (rx, image_index) in &keeper_rx {
        let outcome = rx
            .try_recv()
            .expect("surviving job answered")
            .expect("surviving job executed");
        assert_eq!(
            &outcome.result, &references[*image_index],
            "surviving job for image {image_index} lost bit-identity"
        );
    }
}

/// A hold far longer than any test waits for an answer: a batch that
/// comes back within [`ANSWER_WAIT`] was flushed by the fill rule, not
/// by `max_delay`.
const LONG_HOLD: Duration = Duration::from_secs(10);

/// How long a fill-rule test waits for one answer.
const ANSWER_WAIT: Duration = Duration::from_secs(5);

type Reply = mpsc::Receiver<Result<JobOutcome, JobError>>;

/// Pre-fills a queue with `jobs` (image index, deadline budget from
/// admission), runs the batcher on its own thread with the queue left
/// open — so the hold is live, unlike the closed-queue tests above — and
/// hands the replies to `check`. Closes the queue and joins the batcher
/// afterwards.
fn with_live_batcher(
    fill_target: usize,
    max_delay: Duration,
    jobs: &[(usize, Option<Duration>)],
    check: impl FnOnce(Vec<Reply>),
) {
    let (model, images) = tiny();
    let queue = Queue::new(64);
    let metrics = Metrics::new(8);
    let replies = jobs
        .iter()
        .map(|&(image, budget)| {
            let deadline = budget.map(|b| Instant::now() + b);
            let (job, rx) = make_job(&model, images[image].clone(), true, deadline);
            assert!(queue.push(job).is_ok(), "queue push must succeed");
            rx
        })
        .collect();
    let config = BatcherConfig {
        max_batch: 8,
        fill_target,
        max_delay,
        force_ee_slack_us: 0,
    };
    std::thread::scope(|scope| {
        let batcher = scope.spawn(|| batcher::run(&queue, &metrics, &config, None, None));
        // Close the queue even when a check fails, or the scope would
        // wait forever on the batcher.
        let checked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| check(replies)));
        queue.close();
        batcher.join().expect("the batcher thread does not panic");
        if let Err(failure) = checked {
            std::panic::resume_unwind(failure);
        }
    });
}

fn answer(rx: &Reply) -> JobOutcome {
    rx.recv_timeout(ANSWER_WAIT)
        .expect("answered before the hold could expire")
        .expect("executed")
}

/// Fill rule: once a batch holds its fill target it dispatches at once,
/// however long `max_delay` is.
#[test]
fn fill_target_dispatches_a_full_pair_without_the_hold() {
    with_live_batcher(2, LONG_HOLD, &[(0, None), (1, None)], |replies| {
        for rx in &replies {
            let outcome = answer(rx);
            assert_eq!(outcome.batch_size, 2);
            assert!(Duration::from_micros(outcome.queue_us) < ANSWER_WAIT);
        }
    });
}

/// An under-filled batch keeps today's hold: a lone job waits out
/// `max_delay`, or — when its deadline comes first — is capped by the
/// deadline (on a cold estimator the reserve is zero, so it waits right
/// up to the deadline and answers late rather than early).
#[test]
fn lone_job_still_waits_for_the_hold_or_its_deadline() {
    let hold = Duration::from_millis(300);
    with_live_batcher(2, hold, &[(0, None)], |replies| {
        let outcome = answer(&replies[0]);
        assert_eq!(outcome.batch_size, 1);
        assert!(
            Duration::from_micros(outcome.queue_us) >= hold,
            "dispatched after {} µs, before the {hold:?} hold",
            outcome.queue_us
        );
    });
    let budget = Duration::from_millis(300);
    with_live_batcher(
        2,
        LONG_HOLD,
        &[(0, Some(budget))],
        |replies| match replies[0].recv_timeout(ANSWER_WAIT).expect("answered") {
            Err(JobError::Late { total_us }) => assert!(
                Duration::from_micros(total_us) >= budget,
                "answered after {total_us} µs, before the deadline cap"
            ),
            Ok(outcome) => panic!(
                "a lone job dispatched after {} µs, before its deadline cap",
                outcome.queue_us
            ),
            Err(e) => panic!("expected a late answer at the deadline cap, got {e:?}"),
        },
    );
}

/// A backlog beyond the fill target leaves in one batch: the scan that
/// meets the target still takes every queued job up to `max_batch`.
#[test]
fn backlog_leaves_in_one_batch_beyond_the_fill_target() {
    let jobs: Vec<(usize, Option<Duration>)> = (0..5).map(|i| (i, None)).collect();
    with_live_batcher(2, LONG_HOLD, &jobs, |replies| {
        for rx in &replies {
            assert_eq!(answer(rx).batch_size, 5);
        }
    });
}

/// A fill target of 1 (a one-worker pool) never waits for company.
#[test]
fn fill_target_one_never_waits() {
    with_live_batcher(1, LONG_HOLD, &[(0, None)], |replies| {
        assert_eq!(answer(&replies[0]).batch_size, 1);
    });
}
