//! The computational-cost model of reverse coding (TDSNN-like).
//!
//! TDSNN (Zhang et al., AAAI 2019 — ref [12] of the paper) introduced
//! *reverse coding*: a TTFS variant where **larger** values fire **later**.
//! The original system needs auxiliary "ticking" neurons firing every time
//! step plus leaky IF neurons with an exponential update, which is exactly
//! the overhead the paper's Table III quantifies. TDSNN is closed source,
//! and the paper reports no latency or spike numbers for it, so this
//! module provides only [`TdsnnCostModel`], the analytic operation count
//! used for the Table III comparison, following the paper's own
//! description ("required computations are proportional to the time step
//! and number of neurons").

use serde::{Deserialize, Serialize};

/// Analytic operation-count model for TDSNN, per the paper's Sec. V.
///
/// * Multiplications: one exponential update per **leaky** IF neuron per
///   time step (computed via LUT/multiply in practice).
/// * Additions: the same per-step leak accumulation plus one accumulate per
///   ticking-neuron spike — ticking neurons fire every step.
///
/// # Examples
///
/// ```
/// use t2fsnn_snn::coding::TdsnnCostModel;
///
/// let model = TdsnnCostModel { neurons: 1_000, total_steps: 100, spikes: 5_000 };
/// assert_eq!(model.mults(), 100_000);
/// assert!(model.adds() > model.mults()); // ticking overhead dominates
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TdsnnCostModel {
    /// Total number of (leaky) IF neurons in the network.
    pub neurons: u64,
    /// Total simulated time steps (layers × per-layer window).
    pub total_steps: u64,
    /// Regular (non-ticking) spike count of the inference.
    pub spikes: u64,
}

impl TdsnnCostModel {
    /// Multiplication count: exponential leak per neuron per step.
    pub fn mults(&self) -> u64 {
        self.neurons * self.total_steps
    }

    /// Addition count: leak update per neuron-step, plus ticking-neuron
    /// accumulations (one ticking input per neuron per step), plus regular
    /// spike accumulations.
    pub fn adds(&self) -> u64 {
        2 * self.neurons * self.total_steps + self.spikes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_model_scales_with_neurons_and_steps() {
        let base = TdsnnCostModel {
            neurons: 100,
            total_steps: 10,
            spikes: 50,
        };
        let wider = TdsnnCostModel {
            neurons: 200,
            ..base
        };
        assert_eq!(wider.mults(), 2 * base.mults());
        assert!(wider.adds() > base.adds());
    }
}
