//! Phase coding: spike *position within a global oscillation* carries
//! weight.
//!
//! Following "Deep neural networks with weighted spikes" (Kim et al.,
//! Neurocomputing 2018 — ref [11] of the paper): time is divided into
//! periods of `K` phases and a spike in phase `k` carries weight
//! `2^-(1+k)`. A value `x ∈ [0, 1)` is transmitted once per period as its
//! `K`-bit binary expansion, so one period moves a full activation value —
//! much faster than rate coding, at one extra multiply per synaptic event
//! (realizable as a shift / lookup table).
//!
//! The paper's observation that phase coding can emit *more* spikes than
//! rate coding on easy datasets (Table II, MNIST) comes from the periodic
//! re-transmission: every neuron re-sends its bits every `K` steps.

use serde::{Deserialize, Serialize};
use t2fsnn_tensor::{SpikeBatch, Tensor};

use super::Coding;

/// Phase coding with a global `K`-phase oscillator.
///
/// # Examples
///
/// ```
/// use t2fsnn_snn::coding::{Coding, PhaseCoding};
/// use t2fsnn_tensor::Tensor;
///
/// let mut coding = PhaseCoding::new(8);
/// // 0.5 has binary expansion .1000…: a spike only in phase 0.
/// let image = Tensor::full([1, 1], 0.5);
/// let (d0, n0) = coding.encode(&image, 0);
/// assert_eq!(d0.data()[0], 0.5); // weight 2^-1
/// assert_eq!(n0, 1);
/// let (d1, n1) = coding.encode(&image, 1);
/// assert_eq!(d1.data()[0], 0.0);
/// assert_eq!(n1, 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseCoding {
    /// Number of phases per period (8 in the reference implementation).
    pub period: usize,
}

impl PhaseCoding {
    /// Creates phase coding with the given period.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0` or `period > 24` (weights would underflow
    /// `f32` usefulness).
    pub fn new(period: usize) -> Self {
        assert!(
            period > 0 && period <= 24,
            "phase period must be in 1..=24, got {period}"
        );
        PhaseCoding { period }
    }

    /// Weight of a spike in the phase of time step `t`: `2^-(1 + t mod K)`.
    pub fn phase_weight(&self, t: usize) -> f32 {
        let k = t % self.period;
        0.5f32.powi(k as i32 + 1)
    }

    /// Whether bit `k` of `x`'s binary expansion is set (bit 0 is the
    /// most significant fractional bit, weight 1/2).
    fn bit_of(&self, x: f32, k: usize) -> bool {
        // x in [0,1): shift left by k+1 bits and test the integer parity.
        let shifted = (x.clamp(0.0, 1.0 - f32::EPSILON)) * (1u32 << (k + 1)) as f32;
        (shifted as u32) % 2 == 1
    }
}

impl Coding for PhaseCoding {
    fn name(&self) -> &'static str {
        "phase"
    }

    fn boxed_clone(&self) -> Box<dyn Coding> {
        Box::new(*self)
    }

    fn encode(&mut self, images: &Tensor, t: usize) -> (Tensor, u64) {
        let k = t % self.period;
        let weight = self.phase_weight(t);
        let drive = images.map(|x| if self.bit_of(x, k) { weight } else { 0.0 });
        let count = images.iter().filter(|&&x| self.bit_of(x, k)).count() as u64;
        (drive, count)
    }

    fn fire(&mut self, potential: &mut Tensor, t: usize, events: &mut SpikeBatch) -> u64 {
        // A neuron fires a weighted spike whenever its membrane can afford
        // the current phase's weight. Reset by subtracting the transmitted
        // weight, so residual information carries into later phases.
        let weight = self.phase_weight(t);
        super::fire_subtract_events(potential, weight, weight, events)
    }

    fn bias_scale(&self, _t: usize) -> f32 {
        // One full value arrives per period, so spread the bias over it.
        1.0 / self.period as f32
    }

    fn synop_needs_mult(&self) -> bool {
        true // spike weight multiplies the synapse (shift/LUT in hardware)
    }

    fn decode_window(&self) -> usize {
        self.period
    }

    fn input_period(&self) -> Option<usize> {
        Some(self.period) // the bit pattern repeats every period
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_weights_halve() {
        let c = PhaseCoding::new(8);
        assert_eq!(c.phase_weight(0), 0.5);
        assert_eq!(c.phase_weight(1), 0.25);
        assert_eq!(c.phase_weight(7), 0.5f32.powi(8));
        assert_eq!(c.phase_weight(8), 0.5); // periodic
    }

    #[test]
    fn one_period_transmits_binary_expansion() {
        let mut c = PhaseCoding::new(8);
        let x = 0.6875f32; // 0.1011₂
        let img = Tensor::from_vec([1, 1], vec![x]).unwrap();
        let mut total = 0.0f32;
        let mut spikes = 0u64;
        for t in 0..8 {
            let (d, n) = c.encode(&img, t);
            total += d.data()[0];
            spikes += n;
        }
        assert!((total - x).abs() < 1.0 / 256.0, "decoded {total} vs {x}");
        assert_eq!(spikes, 3); // bits 1011 → 3 ones
    }

    #[test]
    fn encoding_repeats_each_period() {
        let mut c = PhaseCoding::new(8);
        let img = Tensor::from_vec([1, 1], vec![0.3]).unwrap();
        for t in 0..8 {
            let (a, _) = c.encode(&img, t);
            let (b, _) = c.encode(&img, t + 8);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn fire_retransmits_value_over_period() {
        let mut c = PhaseCoding::new(8);
        let v = 0.8125f32;
        let mut u = Tensor::from_vec([1, 1], vec![v]).unwrap();
        let mut events = SpikeBatch::empty();
        let mut sent = 0.0;
        for t in 0..8 {
            c.fire(&mut u, t, &mut events);
            sent += events.to_dense().data()[0];
        }
        assert!((sent - v).abs() < 1.0 / 128.0, "sent {sent} vs {v}");
    }

    #[test]
    fn bias_scale_spreads_over_period() {
        let c = PhaseCoding::new(8);
        let total: f32 = (0..8).map(|t| c.bias_scale(t)).sum();
        assert!((total - 1.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "period")]
    fn zero_period_panics() {
        let _ = PhaseCoding::new(0);
    }

    #[test]
    fn needs_mult() {
        assert!(PhaseCoding::new(8).synop_needs_mult());
    }
}
