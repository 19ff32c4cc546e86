//! Computational-cost analysis (Table III of the paper).
//!
//! The paper compares million-operation counts for VGG-16 on CIFAR-100:
//! a dense DNN pays its full MAC count in both multiplies and adds; rate
//! coding pays one *accumulate per spike*; phase/burst (and T2FSNN) pay
//! one multiply **and** one add per spike (the weight/kernel factor,
//! realizable as a lookup table); TDSNN additionally pays per-step leaky
//! and ticking-neuron overheads modeled by
//! [`t2fsnn_snn::coding::TdsnnCostModel`].
//!
//! Note the paper's own convention: the spike-driven columns of Table III
//! equal the *spike counts* of Table II — operations are counted per spike
//! event, not per synaptic fan-out. This module follows that convention;
//! the simulator's exact per-synapse counts are additionally available on
//! every run/outcome as `synop_adds` / `synop_mults`.

use serde::{Deserialize, Serialize};
use t2fsnn_snn::coding::TdsnnCostModel;

use crate::eval::CodingMeasurement;

/// One Table III row: operation counts per inference (per image).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostRow {
    /// Scheme name (`"DNN"`, `"rate"`, `"phase"`, `"burst"`, `"TDSNN"`,
    /// `"T2FSNN"`).
    pub scheme: String,
    /// Multiplications per image (`None` renders as the paper's "-").
    pub mults: Option<f64>,
    /// Additions per image.
    pub adds: f64,
}

impl CostRow {
    /// Renders the mult column the way the paper prints it.
    pub fn mults_display(&self) -> String {
        match self.mults {
            Some(m) => format!("{:.3}", m / 1.0e6),
            None => "-".to_string(),
        }
    }
}

/// Builds the Table III cost comparison.
///
/// * `dnn_macs` — dense MAC count of the source network per image;
/// * `measurements` — per-coding spike measurements (rate is
///   accumulate-only; every other scheme multiplies per spike);
/// * `tdsnn` — the analytic TDSNN model (per image).
pub fn cost_table(
    dnn_macs: u64,
    measurements: &[CodingMeasurement],
    tdsnn: TdsnnCostModel,
) -> Vec<CostRow> {
    let mut rows = Vec::with_capacity(measurements.len() + 2);
    rows.push(CostRow {
        scheme: "DNN".to_string(),
        mults: Some(dnn_macs as f64),
        adds: dnn_macs as f64,
    });
    for m in measurements {
        let spikes = m.spikes_per_image();
        let is_rate = m.coding == "rate";
        rows.push(CostRow {
            scheme: m.coding.clone(),
            mults: if is_rate { None } else { Some(spikes) },
            adds: spikes,
        });
    }
    rows.push(CostRow {
        scheme: "TDSNN".to_string(),
        mults: Some(tdsnn.mults() as f64),
        adds: tdsnn.adds() as f64,
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measurement(coding: &str, spikes: u64, images: usize) -> CodingMeasurement {
        CodingMeasurement {
            coding: coding.to_string(),
            accuracy: 0.9,
            latency: 100,
            total_spikes: spikes,
            images,
        }
    }

    #[test]
    fn table_has_paper_structure() {
        let rows = cost_table(
            1_000_000,
            &[
                measurement("rate", 10_000, 10),
                measurement("phase", 5_000, 10),
                measurement("burst", 2_000, 10),
                measurement("T2FSNN", 100, 10),
            ],
            TdsnnCostModel {
                neurons: 1_000,
                total_steps: 160,
                spikes: 500,
            },
        );
        assert_eq!(rows.len(), 6);
        assert_eq!(rows[0].scheme, "DNN");
        assert_eq!(rows[0].mults, Some(1.0e6));
        // Rate has no multiplies — rendered as "-".
        assert_eq!(rows[1].mults, None);
        assert_eq!(rows[1].mults_display(), "-");
        assert_eq!(rows[1].adds, 1_000.0);
        // Weighted-spike schemes pay mult == add == spikes.
        assert_eq!(rows[2].mults, Some(500.0));
        assert_eq!(rows[2].adds, 500.0);
        // T2FSNN is by far the cheapest spiking row.
        assert!(rows[4].adds < rows[1].adds);
        assert!(rows[4].adds < rows[2].adds);
        assert!(rows[4].adds < rows[3].adds);
        // TDSNN's per-step overhead dwarfs T2FSNN.
        assert!(rows[5].adds > rows[4].adds);
        assert!(rows[5].mults.unwrap() > rows[4].mults.unwrap());
    }

    #[test]
    fn mults_display_scales_to_millions() {
        let row = CostRow {
            scheme: "x".into(),
            mults: Some(2_500_000.0),
            adds: 0.0,
        };
        assert_eq!(row.mults_display(), "2.500");
    }
}
