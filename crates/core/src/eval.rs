//! Evaluation harness: variant construction (ablation, Table I), unified
//! coding measurements (Table II) and normalized energy rows.

use rand::Rng;
use serde::{Deserialize, Serialize};
use t2fsnn_data::Dataset;
use t2fsnn_dnn::Network;
use t2fsnn_snn::energy::{EnergyModel, SPINNAKER, TRUENORTH};
use t2fsnn_snn::SimOutcome;
use t2fsnn_tensor::{Result, Tensor, TensorError};

use crate::kernel::KernelParams;
use crate::network::{T2fsnn, T2fsnnConfig};
use crate::optimize::{optimize_model_calibrated, GoCalibration, GoConfig};
use crate::pipeline::TtfsRun;

/// Which of the paper's two extensions a T2FSNN variant enables
/// (the four rows of Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Variant {
    /// Gradient-based kernel optimization (Sec. III-B).
    pub go: bool,
    /// Early firing (Sec. III-C).
    pub ef: bool,
}

impl Variant {
    /// All four ablation variants in the paper's Table I order.
    pub const ALL: [Variant; 4] = [
        Variant {
            go: false,
            ef: false,
        },
        Variant {
            go: true,
            ef: false,
        },
        Variant {
            go: false,
            ef: true,
        },
        Variant { go: true, ef: true },
    ];

    /// The paper's display name, e.g. `"T2FSNN+GO+EF"`.
    pub fn name(&self) -> String {
        let mut name = "T2FSNN".to_string();
        if self.go {
            name.push_str("+GO");
        }
        if self.ef {
            name.push_str("+EF");
        }
        name
    }
}

/// Builds a T2FSNN variant from a trained, normalized DNN: converts,
/// optionally runs kernel optimization (`go`), optionally enables early
/// firing (`ef`).
///
/// `calibration` supplies both the GO ground-truth activations and the
/// pixel distribution for the input encoder.
///
/// # Errors
///
/// Propagates conversion and optimization errors.
pub fn build_variant<R: Rng + ?Sized>(
    dnn: &mut Network,
    calibration: &Tensor,
    window: usize,
    variant: Variant,
    initial: KernelParams,
    go_config: &GoConfig,
    rng: &mut R,
) -> Result<T2fsnn> {
    if variant.go {
        let values = GoCalibration::collect(dnn, calibration)?;
        build_variant_calibrated(dnn, &values, window, variant, initial, go_config, rng)
    } else {
        build_variant_calibrated(
            dnn,
            // Non-GO variants never touch the calibration values.
            &GoCalibration::empty(),
            window,
            variant,
            initial,
            go_config,
            rng,
        )
    }
}

/// [`build_variant`] with precollected [`GoCalibration`] values: the
/// DNN forward over the calibration set runs once, however many variants
/// are built from the same network. Non-GO variants ignore the values
/// (pass [`GoCalibration::empty`] when no GO variant is built).
///
/// # Errors
///
/// Propagates conversion and optimization errors.
#[allow(clippy::too_many_arguments)]
pub fn build_variant_calibrated<R: Rng + ?Sized>(
    dnn: &Network,
    calibration: &GoCalibration,
    window: usize,
    variant: Variant,
    initial: KernelParams,
    go_config: &GoConfig,
    rng: &mut R,
) -> Result<T2fsnn> {
    let mut config = T2fsnnConfig::new(window);
    if variant.ef {
        config = config.with_early_firing();
    }
    let mut model = T2fsnn::from_dnn(dnn, config, initial)?;
    if variant.go {
        optimize_model_calibrated(&mut model, calibration, go_config, rng)?;
    }
    Ok(model)
}

/// One Table I row: a variant's latency, accuracy and spike count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationRow {
    /// Variant name (`"T2FSNN"`, `"T2FSNN+GO"`, …).
    pub method: String,
    /// Pipeline latency in time steps.
    pub latency: usize,
    /// Test accuracy (fraction, 0–1).
    pub accuracy: f32,
    /// Average spikes per image.
    pub spikes_per_image: f64,
}

/// Runs the full Table I ablation: all four variants on one dataset.
/// The GO calibration is collected once and shared by both GO variants.
///
/// # Errors
///
/// Propagates build/run errors.
pub fn ablation_table<R: Rng + ?Sized>(
    dnn: &mut Network,
    calibration: &Tensor,
    test: &Dataset,
    window: usize,
    initial: KernelParams,
    go_config: &GoConfig,
    rng: &mut R,
) -> Result<Vec<AblationRow>> {
    let values = GoCalibration::collect(dnn, calibration)?;
    let mut rows = Vec::with_capacity(Variant::ALL.len());
    for variant in Variant::ALL {
        let model =
            build_variant_calibrated(dnn, &values, window, variant, initial, go_config, rng)?;
        let run = model.run(&test.images, &test.labels)?;
        rows.push(AblationRow {
            method: variant.name(),
            latency: run.latency,
            accuracy: run.accuracy,
            spikes_per_image: run.spikes_per_image(),
        });
    }
    Ok(rows)
}

/// A coding-agnostic measurement: the columns of Table II before energy
/// normalization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CodingMeasurement {
    /// Scheme name (`"rate"`, `"phase"`, `"burst"`, `"T2FSNN+GO+EF"`, …).
    pub coding: String,
    /// Test accuracy (fraction).
    pub accuracy: f32,
    /// Latency in time steps.
    pub latency: usize,
    /// Total spikes over the whole evaluated batch.
    pub total_spikes: u64,
    /// Number of evaluated images.
    pub images: usize,
}

impl CodingMeasurement {
    /// Builds a measurement from a baseline-coding simulation, using the
    /// given accuracy tolerance to extract latency from the curve.
    pub fn from_sim(outcome: &SimOutcome, latency_tolerance: f32) -> Self {
        CodingMeasurement {
            coding: outcome.coding.clone(),
            accuracy: outcome.final_accuracy,
            latency: outcome.latency(latency_tolerance),
            total_spikes: outcome.total_spikes(),
            images: outcome.images,
        }
    }

    /// Builds a measurement from a T2FSNN run (latency is the
    /// deterministic pipeline length).
    pub fn from_ttfs(name: &str, run: &TtfsRun) -> Self {
        CodingMeasurement {
            coding: name.to_string(),
            accuracy: run.accuracy,
            latency: run.latency,
            total_spikes: run.total_spikes(),
            images: run.images,
        }
    }

    /// Average spikes per image.
    pub fn spikes_per_image(&self) -> f64 {
        if self.images == 0 {
            0.0
        } else {
            self.total_spikes as f64 / self.images as f64
        }
    }
}

/// One normalized-energy row (the TN/SN columns of Table II).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyRow {
    /// Scheme name.
    pub coding: String,
    /// Energy normalized against the reference row, TrueNorth parameters.
    pub truenorth: f64,
    /// Energy normalized against the reference row, SpiNNaker parameters.
    pub spinnaker: f64,
}

/// Computes normalized energy for every measurement against a reference
/// (by the paper's convention, the rate-coding measurement — whose rows
/// then read exactly 1.0).
///
/// # Errors
///
/// Returns an error if the reference has zero spikes or latency.
pub fn energy_table(
    measurements: &[CodingMeasurement],
    reference: &CodingMeasurement,
) -> Result<Vec<EnergyRow>> {
    if reference.total_spikes == 0 || reference.latency == 0 {
        return Err(TensorError::InvalidArgument {
            op: "energy_table",
            message: "reference measurement must have non-zero spikes and latency".to_string(),
        });
    }
    let normalize = |model: &EnergyModel, m: &CodingMeasurement| {
        model.normalized(
            m.spikes_per_image(),
            m.latency as f64,
            reference.spikes_per_image(),
            reference.latency as f64,
        )
    };
    Ok(measurements
        .iter()
        .map(|m| EnergyRow {
            coding: m.coding.clone(),
            truenorth: normalize(&TRUENORTH, m),
            spinnaker: normalize(&SPINNAKER, m),
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use t2fsnn_data::{DatasetSpec, SyntheticConfig};
    use t2fsnn_dnn::architectures::mlp_tiny;
    use t2fsnn_dnn::{normalize_for_snn, train, TrainConfig};

    fn fixture() -> (Network, Dataset, Dataset) {
        let mut rng = ChaCha8Rng::seed_from_u64(55);
        let data = SyntheticConfig::new(DatasetSpec::tiny(), 12)
            .with_noise(0.1)
            .generate(160);
        let (train_set, test_set) = data.split(128);
        let mut dnn = mlp_tiny(&mut rng, &data.spec);
        let config = TrainConfig {
            epochs: 10,
            ..TrainConfig::default()
        };
        train(&mut dnn, &train_set, &config, &mut rng).unwrap();
        normalize_for_snn(&mut dnn, &train_set.images, 0.999).unwrap();
        (dnn, train_set, test_set)
    }

    fn quick_go() -> GoConfig {
        GoConfig {
            passes: 1,
            batch_size: 512,
            record_every: 4096,
            ..GoConfig::default()
        }
    }

    #[test]
    fn variant_names_match_paper() {
        let names: Vec<String> = Variant::ALL.iter().map(Variant::name).collect();
        assert_eq!(
            names,
            vec!["T2FSNN", "T2FSNN+GO", "T2FSNN+EF", "T2FSNN+GO+EF"]
        );
    }

    #[test]
    fn ablation_reproduces_table1_shape() {
        let (mut dnn, train_set, test_set) = fixture();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let rows = ablation_table(
            &mut dnn,
            &train_set.images,
            &test_set,
            32,
            KernelParams::new(8.0, 0.0),
            &quick_go(),
            &mut rng,
        )
        .unwrap();
        assert_eq!(rows.len(), 4);
        // Every row's bits, pinned before the two GO variants shared one
        // calibration: the RNG draws and the rows must not move.
        assert_eq!(
            crate::binfmt::crc32(format!("{rows:?}").as_bytes()),
            4004751870
        );
        // EF variants must have strictly lower latency (Table I).
        assert!(rows[2].latency < rows[0].latency);
        assert!(rows[3].latency < rows[1].latency);
        assert_eq!(rows[0].latency, rows[1].latency);
        // Accuracy stays in a sane band for all variants.
        for row in &rows {
            assert!(
                row.accuracy > 0.3,
                "{} collapsed to {}",
                row.method,
                row.accuracy
            );
            assert!(row.spikes_per_image > 0.0);
        }
    }

    #[test]
    fn measurement_conversions() {
        let run = TtfsRun {
            accuracy: 0.9,
            curve: vec![],
            latency: 64,
            images: 10,
            input_spikes: 100,
            input_histogram: vec![],
            layers: vec![],
            synop_adds: 0,
            synop_mults: 0,
        };
        let m = CodingMeasurement::from_ttfs("T2FSNN", &run);
        assert_eq!(m.latency, 64);
        assert_eq!(m.total_spikes, 100);
        assert!((m.spikes_per_image() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn energy_table_reference_is_unity() {
        let reference = CodingMeasurement {
            coding: "rate".into(),
            accuracy: 0.9,
            latency: 1000,
            total_spikes: 100_000,
            images: 10,
        };
        let cheap = CodingMeasurement {
            coding: "T2FSNN".into(),
            accuracy: 0.91,
            latency: 100,
            total_spikes: 1_000,
            images: 10,
        };
        let rows = energy_table(&[reference.clone(), cheap], &reference).unwrap();
        assert!((rows[0].truenorth - 1.0).abs() < 1e-6);
        assert!((rows[0].spinnaker - 1.0).abs() < 1e-6);
        assert!(rows[1].truenorth < 0.2, "{}", rows[1].truenorth);
        assert!(rows[1].spinnaker < 0.1, "{}", rows[1].spinnaker);
    }

    #[test]
    fn energy_table_rejects_degenerate_reference() {
        let bad = CodingMeasurement {
            coding: "rate".into(),
            accuracy: 0.0,
            latency: 0,
            total_spikes: 0,
            images: 1,
        };
        assert!(energy_table(std::slice::from_ref(&bad), &bad).is_err());
    }
}
