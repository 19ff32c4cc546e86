//! Neural coding schemes (Fig. 1 of the paper).
//!
//! A [`Coding`] defines how analog values become spike trains and back:
//! how the input image drives the first layer at each time step, how a
//! hidden IF population converts membrane potential into outgoing spikes,
//! and how bias currents are scaled so that decoded values stay calibrated.
//!
//! Implementations: [`RateCoding`] (Diehl/Rueckauer-style), [`PhaseCoding`]
//! (weighted spikes, Kim et al. 2018), [`BurstCoding`] (Park et al. DAC
//! 2019) and [`ReverseCoding`] (TDSNN-like, for the Table III cost
//! analysis). The paper's own contribution — TTFS with dynamic
//! threshold/dendrite kernels — lives in the `t2fsnn` core crate.

mod burst;
mod phase;
mod rate;
mod reverse;

pub use burst::BurstCoding;
pub use phase::PhaseCoding;
pub use rate::{RateCoding, RateInput};
pub use reverse::{ReverseCoding, TdsnnCostModel};

use t2fsnn_tensor::{SpikeBatch, Tensor};

/// A neural coding scheme for the clock-driven simulator.
///
/// The simulator calls [`Coding::encode`] once per time step to obtain the
/// input drive, then alternates [`propagate → integrate → fire`] through
/// the layer stack. All state beyond membrane potentials (e.g. phase
/// counters) lives in the coding object itself.
///
/// `Send` is a supertrait so that [`Coding::boxed_clone`] copies can be
/// moved into the simulator's batch-chunk worker threads.
pub trait Coding: Send {
    /// Short name used in reports (e.g. `"rate"`).
    fn name(&self) -> &'static str;

    /// Clears any per-inference state (refractory masks, phase counters).
    /// Called by the simulator before each run. Stateless codings keep the
    /// default no-op.
    fn reset(&mut self) {}

    /// Input drive injected into the first op at time step `t`, plus the
    /// number of input spikes this step contributes to the spike count
    /// (0 for analog current injection).
    fn encode(&mut self, images: &Tensor, t: usize) -> (Tensor, u64);

    /// Converts a hidden population's membrane potential into outgoing
    /// spikes at time `t`. Returns `(spike_tensor, spike_count)` and
    /// resets the potential according to the scheme's rule.
    fn fire(&mut self, potential: &mut Tensor, t: usize, layer: usize) -> (Tensor, u64);

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

    /// Fire phase emitting an event list instead of a dense spike
    /// tensor: `events` is rebuilt (reusing its allocations) with this
    /// step's spikes in row-major order, carrying exactly the values the
    /// dense [`Coding::fire`] tensor would hold. Returns the spike
    /// count. The default implementation wraps [`Coding::fire`];
    /// bundled codings override it to skip the dense intermediate, which
    /// is what makes the simulator's event engine cheap.
    fn fire_events(
        &mut self,
        potential: &mut Tensor,
        t: usize,
        layer: usize,
        events: &mut SpikeBatch,
    ) -> u64 {
        let (spikes, count) = self.fire(potential, t, layer);
        events
            .refill_bounded(&spikes, usize::MAX)
            .expect("potentials have a batch axis");
        count
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
/// emits one event carrying `spike_value` — exactly the updates and
/// values of the dense fire loops, minus the dense tensor. Each image is
/// one call of the one-pass SIMD fire-and-reset
/// ([`t2fsnn_tensor::simd::fire_subtract`]), which packs the hit indices
/// in ascending order straight onto the event list, so the emitted event
/// sequence is the dense scan's and no per-call buffer is allocated.
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
        assert_eq!(ReverseCoding::new(16).name(), "reverse");
    }
}
