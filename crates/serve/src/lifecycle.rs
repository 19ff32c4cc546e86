//! Canary battery and per-model circuit breaker — the gatekeepers of
//! the registry's lifecycle.
//!
//! **Canary** ([`canary`]): before any model version serves a byte it
//! must run a fixed seeded golden-input battery through
//! [`t2fsnn::T2fsnn::infer`] and come out bit-exact. The battery checks
//! three contracts:
//!
//! 1. **Determinism / batch invariance** — the golden batch inferred
//!    together must match each image inferred solo, bit for bit.
//! 2. **Anytime consistency** — the early-exit pass must agree with the
//!    full-window pass on every label and never spend more spikes or
//!    synops on a decided image (sound because serving conversions
//!    leave early *firing* off, so a decided TTFS early-exit answer is
//!    the full-window answer by construction).
//! 3. **Digest stability** — the battery's responses are folded into a
//!    CRC-32 digest (the same CRC discipline as the `T2FB` artifact
//!    format); a reload's candidate must reproduce the digest recorded
//!    when the incumbent was promoted, or promotion is rejected and the
//!    incumbent keeps serving.
//!
//! A panic anywhere in the battery is a rejection, not a crash
//! ([`std::panic::catch_unwind`]).
//!
//! **Breaker** ([`Breaker`]): attributes every batch execution outcome
//! to its model slot; repeated failures trip the registry's quarantine
//! ([`crate::registry::Registry::record_execution`]), which fences that
//! model off (`503` for it alone) and drains its queued jobs in
//! admission order. Re-admission is by canary probe on the loader
//! thread — never by live traffic.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use t2fsnn::{ImageInference, InferOptions};
use t2fsnn_tensor::Tensor;

use crate::batcher::{InferJob, JobError};
use crate::metrics::Metrics;
use crate::queue::Queue;
use crate::registry::{Registry, ServeModel};

/// Images in the golden batch.
const CANARY_IMAGES: usize = 3;

/// Seed of the golden-input stream; fixed so every version of a model
/// with the same input dims sees the same pixels.
const CANARY_SEED: u64 = 0x7E_57CA_4A11;

/// Runs the canary battery on a candidate model version and returns its
/// response digest.
///
/// # Errors
///
/// Returns a structured message when any battery check fails — infer
/// error, panic, batch-invariance violation, early-exit inconsistency,
/// or (when `expected` carries the incumbent's recorded digest) a
/// digest mismatch. The caller keeps the old version serving on `Err`.
pub fn canary(model: &ServeModel, expected: Option<u32>) -> Result<u32, String> {
    let outcome = catch_unwind(AssertUnwindSafe(|| canary_battery(model)));
    let digest = match outcome {
        Ok(result) => result?,
        Err(_) => return Err("canary battery panicked".to_string()),
    };
    if let Some(want) = expected {
        if digest != want {
            return Err(format!(
                "response digest mismatch: recorded {want:#010x}, candidate {digest:#010x}"
            ));
        }
    }
    Ok(digest)
}

fn canary_battery(model: &ServeModel) -> Result<u32, String> {
    let [c, h, w] = model.image_dims();
    let pixel_count = c * h * w;
    let mut rng = ChaCha8Rng::seed_from_u64(CANARY_SEED);
    let data: Vec<f32> = (0..CANARY_IMAGES * pixel_count)
        .map(|_| rng.gen_range(0.0f32..1.0))
        .collect();

    // Full-window pass, batched.
    let batch = Tensor::from_vec(vec![CANARY_IMAGES, c, h, w], data.clone())
        .map_err(|e| format!("golden batch tensor: {e}"))?;
    let full = model
        .model
        .infer(&batch, InferOptions { early_exit: false })
        .map_err(|e| format!("full-window canary infer: {e}"))?;
    if full.len() != CANARY_IMAGES {
        return Err(format!(
            "full-window canary returned {} results for {CANARY_IMAGES} images",
            full.len()
        ));
    }

    // Batch invariance: each image solo must reproduce its batch bits.
    for (i, batched) in full.iter().enumerate() {
        let image = data[i * pixel_count..(i + 1) * pixel_count].to_vec();
        let solo_batch =
            Tensor::from_vec(vec![1, c, h, w], image).map_err(|e| format!("solo tensor: {e}"))?;
        let solo = model
            .model
            .infer(&solo_batch, InferOptions { early_exit: false })
            .map_err(|e| format!("solo canary infer: {e}"))?;
        if encode(&solo[0]) != encode(batched) {
            return Err(format!("canary image {i} is not batch-invariant"));
        }
    }

    // Anytime pass: early-exit labels must equal the full-window labels
    // (decided or not — serving conversions leave early firing off, so
    // the output fire phase starts after integration completes), and a
    // decided image froze early, so it cannot have spent more spikes or
    // synops than the full run. Note an *undecided* early-exit image
    // legitimately simulates past the full window (the output fire
    // phase extends the schedule), so step counts are not comparable.
    let ee_batch = Tensor::from_vec(vec![CANARY_IMAGES, c, h, w], data)
        .map_err(|e| format!("golden batch tensor: {e}"))?;
    let anytime = model
        .model
        .infer(&ee_batch, InferOptions { early_exit: true })
        .map_err(|e| format!("early-exit canary infer: {e}"))?;
    for (i, (ee, fw)) in anytime.iter().zip(&full).enumerate() {
        if ee.label != fw.label {
            return Err(format!(
                "canary image {i}: early-exit label {} != full-window label {}",
                ee.label, fw.label
            ));
        }
        if ee.decision_step.is_some()
            && (ee.total_spikes() > fw.total_spikes() || ee.synop_adds > fw.synop_adds)
        {
            return Err(format!(
                "canary image {i}: decided early-exit outspent the full window \
                 ({} vs {} spikes, {} vs {} adds)",
                ee.total_spikes(),
                fw.total_spikes(),
                ee.synop_adds,
                fw.synop_adds
            ));
        }
    }

    // Fold both passes into the response digest.
    let mut bytes = Vec::new();
    for r in full.iter().chain(anytime.iter()) {
        bytes.extend_from_slice(&encode(r));
    }
    Ok(t2fsnn::binfmt::crc32(&bytes))
}

/// Canonical byte encoding of one inference result — every
/// bit-identity-relevant field, fixed width, little-endian
/// (`top_potential` via its IEEE bits, `decision_step: None` as
/// `u64::MAX`).
fn encode(r: &ImageInference) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 * 8);
    out.extend_from_slice(&(r.label as u64).to_le_bytes());
    out.extend_from_slice(&r.decision_step.map_or(u64::MAX, |s| s as u64).to_le_bytes());
    out.extend_from_slice(&(r.steps as u64).to_le_bytes());
    out.extend_from_slice(&u64::from(r.top_potential.to_bits()).to_le_bytes());
    out.extend_from_slice(&r.input_spikes.to_le_bytes());
    out.extend_from_slice(&r.hidden_spikes.to_le_bytes());
    out.extend_from_slice(&r.synop_adds.to_le_bytes());
    out.extend_from_slice(&r.synop_mults.to_le_bytes());
    out
}

/// The batcher's hook into the circuit breaker: everything needed to
/// attribute a batch outcome and, on a trip, fence the model and drain
/// its queued jobs.
pub struct Breaker<'a> {
    /// The registry holding the per-slot failure counters.
    pub registry: &'a Registry,
    /// The admission queue, drained of the model's jobs on a trip.
    pub jobs: &'a Queue<InferJob>,
    /// Metrics sink for trip/eviction counters.
    pub metrics: &'a Metrics,
}

impl Breaker<'_> {
    /// Records one batch execution outcome for `model`'s slot. On the
    /// failure that trips the quarantine, counts the trip and evicts
    /// the model's queued jobs to `503` in admission order — jobs for
    /// other models are untouched and unreordered.
    pub fn record(&self, model: &ServeModel, ok: bool) {
        if let Some(trip) = self.registry.record_execution(&model.name, ok) {
            self.metrics.observe_quarantine_trip();
            t2fsnn_tensor::log::warn(
                "model_quarantined",
                &[
                    ("model", (&model.name).into()),
                    ("version", model.version.into()),
                    ("trip", trip.into()),
                ],
            );
            drain_model_jobs(self.jobs, &model.name, "was quarantined", self.metrics);
        }
    }
}

/// Evicts every queued job for `name` (any version) to `503` in
/// admission order, leaving the other models' jobs in their exact
/// relative order ([`Queue::drain_matching`] contract). In-flight jobs
/// already popped by a batcher finish on their pinned `Arc`. Returns
/// the eviction count.
pub fn drain_model_jobs(
    jobs: &Queue<InferJob>,
    name: &str,
    reason: &str,
    metrics: &Metrics,
) -> usize {
    let evicted = jobs.drain_matching(|job| job.model.name == name);
    let count = evicted.len();
    for job in evicted {
        metrics.observe_model_unavailable();
        let _ = job.reply.send(Err(JobError::Evicted {
            model: name.to_string(),
            reason: reason.to_string(),
        }));
    }
    count
}

/// A canary probe on a quarantined model, counted and attributed; used
/// by the loader thread's probe loop (`ok` = injected-fault-free canary
/// verdict).
pub fn describe_probe(model: &Arc<ServeModel>) -> String {
    format!("probe of `{}` v{}", model.name, model.version)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canary_digest_is_stable_and_gates_mismatches() {
        let registry = Registry::load(&["tiny".to_string()]).unwrap();
        let model = registry.get(None).unwrap();
        let a = canary(&model, None).expect("tiny passes its canary");
        let b = canary(&model, Some(a)).expect("same model, same digest");
        assert_eq!(a, b);
        let err = canary(&model, Some(a ^ 1)).expect_err("wrong digest rejected");
        assert!(err.contains("digest mismatch"), "{err}");
    }

    #[test]
    fn encode_is_injective_on_the_fields_that_matter() {
        let base = ImageInference {
            label: 1,
            decision_step: Some(3),
            steps: 40,
            top_potential: 0.5,
            input_spikes: 10,
            hidden_spikes: 20,
            synop_adds: 30,
            synop_mults: 40,
        };
        let same = encode(&base);
        assert_eq!(same, encode(&base.clone()));
        let mut other = base.clone();
        other.decision_step = None;
        assert_ne!(encode(&base), encode(&other));
        let mut flipped = base.clone();
        flipped.top_potential = -0.5;
        assert_ne!(encode(&base), encode(&flipped));
    }
}
