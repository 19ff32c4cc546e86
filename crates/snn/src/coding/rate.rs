//! Rate coding: firing frequency carries the value.
//!
//! The oldest and most robust scheme (Adrian 1926; refs [7, 8] of the
//! paper): a neuron transmitting value `x ∈ [0, 1]` fires `x·T` spikes in a
//! window of `T` steps. Following Rueckauer et al. 2017, the input image is
//! injected as a constant analog current (more accurate than Poisson
//! spikes) and hidden IF neurons reset by subtraction.
//!
//! Characteristics the comparison experiments reproduce: high accuracy,
//! but a *large* number of spikes and slow convergence — the number of
//! spikes grows linearly with the simulation window.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use t2fsnn_tensor::{SpikeBatch, Tensor};

use super::Coding;

/// How the input image drives the first layer under rate coding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RateInput {
    /// Constant analog current equal to the pixel value (Rueckauer 2017's
    /// recommendation — lower variance, no input spikes to count).
    Analog,
    /// Bernoulli spike trains: each pixel spikes with probability equal to
    /// its value at every step (the classic Diehl 2015 Poisson-style
    /// input). Binary input spikes keep the whole network accumulate-only.
    Bernoulli {
        /// RNG seed, re-applied on every [`Coding::reset`].
        seed: u64,
    },
}

/// Rate coding with reset-by-subtraction hidden neurons and a choice of
/// input drive.
///
/// # Examples
///
/// ```
/// use t2fsnn_snn::coding::{Coding, RateCoding};
/// use t2fsnn_tensor::Tensor;
///
/// let mut coding = RateCoding::new();
/// let image = Tensor::full([1, 4], 0.5);
/// let (drive, input_spikes) = coding.encode(&image, 0);
/// assert_eq!(drive.data(), &[0.5, 0.5, 0.5, 0.5]); // analog current
/// assert_eq!(input_spikes, 0);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RateCoding {
    /// Firing threshold of hidden neurons.
    pub theta: f32,
    /// Input drive variant.
    pub input: RateInput,
    #[serde(skip)]
    rng: Option<ChaCha8Rng>,
}

impl PartialEq for RateCoding {
    fn eq(&self, other: &Self) -> bool {
        self.theta == other.theta && self.input == other.input
    }
}

impl RateCoding {
    /// Creates rate coding with the standard threshold θ = 1 (activations
    /// are normalized to `[0, 1]`) and analog-current input.
    pub fn new() -> Self {
        RateCoding {
            theta: 1.0,
            input: RateInput::Analog,
            rng: None,
        }
    }

    /// Creates rate coding with Bernoulli (Poisson-style) spiking input.
    pub fn bernoulli(seed: u64) -> Self {
        RateCoding {
            theta: 1.0,
            input: RateInput::Bernoulli { seed },
            rng: None,
        }
    }
}

impl Default for RateCoding {
    fn default() -> Self {
        RateCoding::new()
    }
}

impl Coding for RateCoding {
    fn name(&self) -> &'static str {
        "rate"
    }

    fn boxed_clone(&self) -> Box<dyn Coding> {
        Box::new(self.clone())
    }

    fn batch_divisible(&self) -> bool {
        // The Bernoulli input draws one RNG sample per element in batch
        // order, so splitting the batch would change each image's spike
        // train; analog input is element-independent.
        matches!(self.input, RateInput::Analog)
    }

    fn reset(&mut self) {
        self.rng = match self.input {
            RateInput::Analog => None,
            RateInput::Bernoulli { seed } => Some(ChaCha8Rng::seed_from_u64(seed)),
        };
    }

    fn encode(&mut self, images: &Tensor, _t: usize) -> (Tensor, u64) {
        match self.input {
            // Constant current injection: the image itself, every step.
            RateInput::Analog => (images.clone(), 0),
            RateInput::Bernoulli { seed } => {
                let rng = self
                    .rng
                    .get_or_insert_with(|| ChaCha8Rng::seed_from_u64(seed));
                let mut count = 0u64;
                let drive = Tensor::from_vec(
                    images.shape().clone(),
                    images
                        .iter()
                        .map(|&x| {
                            if rng.gen::<f32>() < x {
                                count += 1;
                                1.0
                            } else {
                                0.0
                            }
                        })
                        .collect(),
                )
                .expect("sized by construction");
                (drive, count)
            }
        }
    }

    fn fire(&mut self, potential: &mut Tensor, _t: usize, events: &mut SpikeBatch) -> u64 {
        super::fire_subtract_events(potential, self.theta, 1.0, events)
    }

    fn bias_scale(&self) -> f32 {
        // One full bias contribution per step matches the per-step analog
        // input current.
        1.0
    }

    fn synop_needs_mult(&self) -> bool {
        false // binary spikes: accumulate-only
    }

    fn decode_window(&self) -> usize {
        1
    }

    fn input_period(&self) -> Option<usize> {
        match self.input {
            RateInput::Analog => Some(1),
            RateInput::Bernoulli { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fire_rate_tracks_drive() {
        let mut coding = RateCoding::new();
        let mut u = Tensor::zeros([1, 1]);
        let mut events = SpikeBatch::empty();
        let x = 0.3f32;
        let mut spikes = 0u64;
        let steps = 100;
        for t in 0..steps {
            u.data_mut()[0] += x;
            spikes += coding.fire(&mut u, t, &mut events);
        }
        let rate = spikes as f32 / steps as f32;
        assert!((rate - x).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn values_above_one_saturate_at_one_spike_per_step() {
        let mut coding = RateCoding::new();
        let mut u = Tensor::from_vec([1, 1], vec![5.0]).unwrap();
        let mut events = SpikeBatch::empty();
        let n = coding.fire(&mut u, 0, &mut events);
        // One spike per step regardless of how far above threshold.
        assert_eq!(n, 1);
        assert_eq!(events.to_dense().data()[0], 1.0);
        assert_eq!(u.data()[0], 4.0);
    }

    #[test]
    fn fire_subtract_keeps_residual() {
        let mut coding = RateCoding::new();
        let mut u = Tensor::from_vec([1, 1], vec![1.7]).unwrap();
        let mut events = SpikeBatch::empty();
        assert_eq!(coding.fire(&mut u, 0, &mut events), 1);
        assert_eq!(events.to_dense().data(), &[1.0]);
        assert!((u.data()[0] - 0.7).abs() < 1e-6);
        // Second step without new input: no spike.
        assert_eq!(coding.fire(&mut u, 1, &mut events), 0);
        assert_eq!(events.nnz(), 0);
    }

    #[test]
    fn negative_potential_never_fires() {
        let mut coding = RateCoding::new();
        let mut u = Tensor::from_vec([1, 1], vec![-5.0]).unwrap();
        let mut events = SpikeBatch::empty();
        assert_eq!(coding.fire(&mut u, 0, &mut events), 0);
        assert_eq!(u.data()[0], -5.0);
    }

    #[test]
    fn encode_is_constant_current() {
        let mut coding = RateCoding::new();
        let img = Tensor::from_vec([1, 2], vec![0.2, 0.9]).unwrap();
        let (d0, _) = coding.encode(&img, 0);
        let (d9, _) = coding.encode(&img, 9);
        assert_eq!(d0, d9);
    }

    #[test]
    fn metadata() {
        let coding = RateCoding::new();
        assert!(!coding.synop_needs_mult());
        assert_eq!(coding.bias_scale(), 1.0);
        assert_eq!(coding.decode_window(), 1);
    }

    #[test]
    fn bernoulli_input_rate_tracks_pixel_value() {
        let mut coding = RateCoding::bernoulli(5);
        coding.reset();
        let img = Tensor::from_vec([1, 2], vec![0.25, 0.9]).unwrap();
        let steps = 2000;
        let mut counts = [0u64; 2];
        for t in 0..steps {
            let (d, _) = coding.encode(&img, t);
            for (c, &v) in counts.iter_mut().zip(d.iter()) {
                if v != 0.0 {
                    *c += 1;
                }
            }
        }
        let r0 = counts[0] as f32 / steps as f32;
        let r1 = counts[1] as f32 / steps as f32;
        assert!((r0 - 0.25).abs() < 0.05, "rate {r0}");
        assert!((r1 - 0.9).abs() < 0.05, "rate {r1}");
    }

    #[test]
    fn bernoulli_spikes_are_binary_and_counted() {
        let mut coding = RateCoding::bernoulli(6);
        coding.reset();
        let img = Tensor::full([1, 100], 0.5);
        let (d, count) = coding.encode(&img, 0);
        assert!(d.iter().all(|&v| v == 0.0 || v == 1.0));
        assert_eq!(count, d.iter().filter(|&&v| v != 0.0).count() as u64);
        assert!(count > 20 && count < 80, "{count}");
    }

    #[test]
    fn reset_reproduces_the_spike_train() {
        let mut coding = RateCoding::bernoulli(7);
        let img = Tensor::full([1, 32], 0.5);
        coding.reset();
        let (a, _) = coding.encode(&img, 0);
        coding.reset();
        let (b, _) = coding.encode(&img, 0);
        assert_eq!(a, b);
    }
}
