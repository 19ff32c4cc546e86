//! Neural coding schemes (Fig. 1 of the paper).
//!
//! A [`Coding`] defines how analog values become spike trains and back:
//! how the input image drives the first layer at each time step, how a
//! hidden IF population fires its membrane potential into an event list
//! (the one fire primitive, [`Coding::fire`]; the simulator's segment walk
//! carries the list on), and how bias currents are scaled so that decoded
//! values stay calibrated.
//!
//! Implementations: [`RateCoding`] (Diehl/Rueckauer-style), [`PhaseCoding`]
//! (weighted spikes, Kim et al. 2018) and [`BurstCoding`] (Park et al. DAC
//! 2019); reverse coding (TDSNN-like) enters only the Table III cost
//! analysis, through [`TdsnnCostModel`]. The paper's own contribution —
//! TTFS with dynamic threshold/dendrite kernels — lives in the `t2fsnn`
//! core crate.

mod burst;
mod phase;
mod rate;
mod reverse;

pub use burst::BurstCoding;
pub use phase::PhaseCoding;
pub use rate::{RateCoding, RateInput};
pub use reverse::TdsnnCostModel;

use t2fsnn_tensor::{SpikeBatch, Tensor};

/// A neural coding scheme for the clock-driven simulator.
///
/// The simulator calls [`Coding::encode`] once per time step to obtain the
/// input drive, then alternates integrate → [`Coding::fire`] through the
/// layer stack, carrying each fire phase's event list into the next
/// layer. All state beyond membrane potentials (e.g. an input RNG) lives
/// in the coding object itself.
///
/// `Send` is a supertrait so that [`Coding::boxed_clone`] copies can be
/// moved into the simulator's batch-chunk worker threads.
pub trait Coding: Send {
    /// Short name used in reports (e.g. `"rate"`).
    fn name(&self) -> &'static str;

    /// Clears any per-inference state (e.g. an input spike generator's
    /// RNG stream).
    /// Called by the simulator before each run. Stateless codings keep the
    /// default no-op.
    fn reset(&mut self) {}

    /// Input drive injected into the first op at time step `t`, plus the
    /// number of input spikes this step contributes to the spike count
    /// (0 for analog current injection).
    fn encode(&mut self, images: &Tensor, t: usize) -> (Tensor, u64);

    /// Fire phase of a hidden population at time `t`: converts its
    /// `[N, ...]` membrane potentials into outgoing spikes and resets
    /// them by the scheme's rule. `events` is rebuilt (reusing its
    /// allocations) with one event per firing neuron, carrying the value
    /// it transmits, ascending per image. Returns the spike count (a
    /// burst of `n` spikes counts `n`).
    fn fire(&mut self, potential: &mut Tensor, t: usize, events: &mut SpikeBatch) -> u64;

    /// Scale applied to bias currents at time `t` so that per-decoding-
    /// window bias contributions match the DNN bias.
    fn bias_scale(&self, t: usize) -> f32;

    /// Whether one synaptic event costs a multiply in addition to an add
    /// (Table III: rate coding is accumulate-only; weighted-spike schemes
    /// multiply by the spike weight, possibly via lookup table).
    fn synop_needs_mult(&self) -> bool;

    /// Number of time steps after which the output accumulator represents
    /// one full decoded value (used to normalize output potentials).
    fn decode_window(&self) -> usize;

    /// If the input encoding is periodic in `t` with this period, the
    /// simulator may cache the (deterministic) input-layer drive per phase
    /// and replay it — the arithmetic still *counts* every step, it is
    /// just not recomputed. `None` disables caching (stochastic or
    /// one-shot inputs).
    fn input_period(&self) -> Option<usize> {
        None
    }

    /// A boxed copy of this coding in its current configuration, used by
    /// the simulator to give each batch chunk its own state when running
    /// chunks in parallel. The copy is [`Coding::reset`] before use, so
    /// only configuration (not per-run state) needs to survive the clone.
    fn boxed_clone(&self) -> Box<dyn Coding>;

    /// Whether simulating disjoint sub-batches independently produces the
    /// same per-image results as one combined batch. True for codings
    /// whose `encode`/`fire` treat every element independently (all the
    /// bundled deterministic codings); `false` for codings with
    /// batch-order-dependent state such as a shared RNG stream, which the
    /// simulator then runs on a single thread.
    fn batch_divisible(&self) -> bool {
        true
    }
}

/// Shared threshold-fire-into-events loop (rate and phase coding): every
/// element with `u ≥ threshold` is reset by subtracting `threshold` and
/// emits one event carrying `spike_value`. Each image is one call of the
/// one-pass SIMD fire-and-reset ([`t2fsnn_tensor::simd::fire_subtract`]),
/// which packs the hit indices in ascending order straight onto the
/// event list, so no per-call buffer is allocated.
pub(crate) fn fire_subtract_events(
    potential: &mut Tensor,
    threshold: f32,
    spike_value: f32,
    events: &mut SpikeBatch,
) -> u64 {
    let feature: usize = potential.dims()[1..].iter().product();
    events.begin(&potential.dims()[1..]);
    let mut count = 0u64;
    for image in potential.data_mut().chunks_exact_mut(feature.max(1)) {
        count += events.push_image_with(spike_value, |hits| {
            t2fsnn_tensor::simd::fire_subtract(image, threshold, hits)
        }) as u64;
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All bundled codings must expose stable names — experiment tables key
    /// on them.
    #[test]
    fn coding_names_are_stable() {
        assert_eq!(RateCoding::new().name(), "rate");
        assert_eq!(PhaseCoding::new(8).name(), "phase");
        assert_eq!(BurstCoding::new(5).name(), "burst");
    }
}
