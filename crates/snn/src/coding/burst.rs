//! Burst coding: short inter-spike-interval bursts carry exponentially
//! growing weight.
//!
//! Following "Fast and efficient information transmission with burst
//! spikes in deep spiking neural networks" (Park et al., DAC 2019 — ref
//! [10] of the paper): a neuron may emit a *burst* of up to `n_max` spikes
//! in one time step; the `i`-th spike of a burst carries weight `2^i·θ`, so
//! a burst of `n` spikes transmits `θ·(2^n − 1)`. Large membrane
//! potentials therefore drain in `O(log u)` spikes instead of the `O(u)`
//! spikes rate coding needs — the mechanism behind burst coding's large
//! spike-count reduction in Table II.

use serde::{Deserialize, Serialize};
use t2fsnn_tensor::{SpikeBatch, Tensor};

use super::Coding;

/// Burst coding with geometric intra-burst spike weights.
///
/// # Examples
///
/// ```
/// use t2fsnn_snn::coding::{BurstCoding, Coding};
/// use t2fsnn_tensor::{SpikeBatch, Tensor};
///
/// let mut coding = BurstCoding::new(5);
/// let mut u = Tensor::from_vec([1, 1], vec![3.0]).unwrap();
/// let mut events = SpikeBatch::empty();
/// let n = coding.fire(&mut u, 0, &mut events);
/// assert_eq!(n, 2);                             // burst of 2 spikes
/// assert_eq!(events.to_dense().data()[0], 3.0); // transmits θ(2²−1) = 3
/// assert_eq!(u.data()[0], 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BurstCoding {
    /// Maximum burst length per time step.
    pub n_max: u32,
    /// Base firing threshold.
    pub theta: f32,
}

impl BurstCoding {
    /// Creates burst coding with the given maximum burst length and θ = 1.
    ///
    /// # Panics
    ///
    /// Panics if `n_max == 0` or `n_max > 16`.
    pub fn new(n_max: u32) -> Self {
        assert!(
            (1..=16).contains(&n_max),
            "burst length must be in 1..=16, got {n_max}"
        );
        BurstCoding { n_max, theta: 1.0 }
    }

    /// Value transmitted by a burst of `n` spikes: `θ·(2ⁿ − 1)`.
    pub fn burst_value(&self, n: u32) -> f32 {
        self.theta * ((1u64 << n) - 1) as f32
    }

    /// Largest burst (≤ `n_max`) affordable by membrane potential `u`.
    fn burst_for(&self, u: f32) -> u32 {
        let mut n = 0u32;
        while n < self.n_max && self.burst_value(n + 1) <= u {
            n += 1;
        }
        n
    }
}

impl Coding for BurstCoding {
    fn name(&self) -> &'static str {
        "burst"
    }

    fn boxed_clone(&self) -> Box<dyn Coding> {
        Box::new(*self)
    }

    fn encode(&mut self, images: &Tensor, _t: usize) -> (Tensor, u64) {
        // Constant analog current, as in rate coding; bursts arise in the
        // hidden layers where potentials accumulate faster.
        (images.clone(), 0)
    }

    fn fire(&mut self, potential: &mut Tensor, _t: usize, events: &mut SpikeBatch) -> u64 {
        let feature: usize = potential.dims()[1..].iter().product();
        events.begin(&potential.dims()[1..]);
        let mut count = 0u64;
        // A burst needs `u ≥ burst_value(1) = θ`, so the SIMD threshold
        // scan finds exactly the bursting neurons (ascending order);
        // the per-neuron burst sizing stays scalar.
        let mut hits: Vec<u32> = Vec::new();
        for image in potential.data_mut().chunks_exact_mut(feature.max(1)) {
            hits.clear();
            t2fsnn_tensor::simd::collect_ge(image, self.theta, &mut hits);
            for &j in &hits {
                let u = &mut image[j as usize];
                let n = self.burst_for(*u);
                debug_assert!(n > 0, "collect_ge hit implies an affordable burst");
                let v = self.burst_value(n);
                *u -= v;
                events.push(j, v);
                count += n as u64;
            }
            events.end_image();
        }
        count
    }

    fn bias_scale(&self) -> f32 {
        1.0
    }

    fn synop_needs_mult(&self) -> bool {
        true // burst weight multiplies the synapse (LUT in hardware)
    }

    fn decode_window(&self) -> usize {
        1
    }

    fn input_period(&self) -> Option<usize> {
        Some(1) // constant analog current
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_value_is_geometric() {
        let c = BurstCoding::new(5);
        assert_eq!(c.burst_value(0), 0.0);
        assert_eq!(c.burst_value(1), 1.0);
        assert_eq!(c.burst_value(2), 3.0);
        assert_eq!(c.burst_value(3), 7.0);
    }

    #[test]
    fn large_potential_drains_logarithmically() {
        let mut c = BurstCoding::new(5);
        let mut u = Tensor::from_vec([1, 1], vec![30.0]).unwrap();
        let mut events = SpikeBatch::empty();
        // Rate coding would need 30 steps; bursts need far fewer.
        let mut steps = 0;
        let mut spikes = 0u64;
        while u.data()[0] >= 1.0 && steps < 10 {
            spikes += c.fire(&mut u, steps, &mut events);
            steps += 1;
        }
        assert!(steps <= 3, "drained in {steps} steps");
        assert!(spikes <= 10, "{spikes} spikes");
    }

    #[test]
    fn burst_respects_n_max() {
        let mut c = BurstCoding::new(2);
        let mut u = Tensor::from_vec([1, 1], vec![100.0]).unwrap();
        let mut events = SpikeBatch::empty();
        let n = c.fire(&mut u, 0, &mut events);
        assert_eq!(n, 2);
        assert_eq!(events.to_dense().data()[0], 3.0);
        assert_eq!(u.data()[0], 97.0);
    }

    #[test]
    fn transmitted_value_conserved() {
        // Whatever the potential, post-fire residual + transmitted = initial.
        let mut c = BurstCoding::new(5);
        let mut events = SpikeBatch::empty();
        for &v in &[0.5f32, 1.0, 2.7, 9.9, 31.5] {
            let mut u = Tensor::from_vec([1, 1], vec![v]).unwrap();
            c.fire(&mut u, 0, &mut events);
            assert!((u.data()[0] + events.to_dense().data()[0] - v).abs() < 1e-5);
        }
    }

    #[test]
    fn sub_threshold_is_silent() {
        let mut c = BurstCoding::new(5);
        let mut u = Tensor::from_vec([1, 1], vec![0.99]).unwrap();
        let mut events = SpikeBatch::empty();
        let n = c.fire(&mut u, 0, &mut events);
        assert_eq!(n, 0);
        assert_eq!(events.to_dense().data()[0], 0.0);
    }

    #[test]
    #[should_panic(expected = "burst length")]
    fn zero_burst_panics() {
        let _ = BurstCoding::new(0);
    }
}
