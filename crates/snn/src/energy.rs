//! Neuromorphic energy estimation (Table II, "Normalized Energy").
//!
//! The paper estimates inference energy as
//! `E = (#spikes)·E_dyn + (latency)·E_sta`, with dynamic/static parameters
//! taken from TrueNorth (Merolla et al., Science 2014) and SpiNNaker
//! (Furber et al., Proc. IEEE 2014), and reports it *normalized against
//! rate coding* on the same dataset. This module implements exactly that
//! estimator with the paper's parameter pairs.

use serde::{DeError, Deserialize, Serialize, Value};

/// A neuromorphic platform's relative dynamic/static energy split.
///
/// The platform name is a `&'static str` so the [`TRUENORTH`]/
/// [`SPINNAKER`] presets can be `const`; deserialization therefore
/// cannot be derived and is implemented by hand — see the
/// [`Deserialize`] impl for the name-resolution rule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct EnergyModel {
    /// Platform name for reports.
    pub name: &'static str,
    /// Weight of the spike-count (dynamic) term.
    pub e_dyn: f32,
    /// Weight of the latency (static) term.
    pub e_sta: f32,
}

/// Interns a platform name as `&'static str`: preset names resolve to
/// the consts' own strings, and each distinct custom name is leaked
/// exactly once (subsequent deserializations reuse the interned copy),
/// so memory grows with the number of distinct platforms, not records.
fn intern_name(name: String) -> &'static str {
    use std::sync::Mutex;
    if let Some(preset) = [TRUENORTH, SPINNAKER]
        .iter()
        .find(|preset| preset.name == name)
    {
        return preset.name;
    }
    static INTERNED: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    let mut interned = INTERNED.lock().expect("intern table poisoned");
    if let Some(existing) = interned.iter().find(|s| **s == name) {
        return existing;
    }
    let leaked: &'static str = Box::leak(name.into_boxed_str());
    interned.push(leaked);
    leaked
}

/// Manual deserialization for the `&'static str` name, resolved through
/// `intern_name`.
impl Deserialize for EnergyModel {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let name: String = serde::__field(value, "name", "EnergyModel")?;
        let e_dyn: f32 = serde::__field(value, "e_dyn", "EnergyModel")?;
        let e_sta: f32 = serde::__field(value, "e_sta", "EnergyModel")?;
        Ok(EnergyModel {
            name: intern_name(name),
            e_dyn,
            e_sta,
        })
    }
}

/// TrueNorth parameters from the paper: `(E_dyn, E_sta) = (0.4, 0.6)`.
pub const TRUENORTH: EnergyModel = EnergyModel {
    name: "TrueNorth",
    e_dyn: 0.4,
    e_sta: 0.6,
};

/// SpiNNaker parameters from the paper: `(E_dyn, E_sta) = (0.64, 0.36)`.
pub const SPINNAKER: EnergyModel = EnergyModel {
    name: "SpiNNaker",
    e_dyn: 0.64,
    e_sta: 0.36,
};

impl EnergyModel {
    /// Normalized energy of a measurement against a reference (by
    /// convention the rate-coding run on the same dataset, which therefore
    /// scores exactly 1.0):
    ///
    /// `E_norm = E_dyn·(spikes/ref_spikes) + E_sta·(latency/ref_latency)`.
    ///
    /// # Panics
    ///
    /// Panics if either reference quantity is zero.
    pub fn normalized(&self, spikes: f64, latency: f64, ref_spikes: f64, ref_latency: f64) -> f64 {
        assert!(
            ref_spikes > 0.0 && ref_latency > 0.0,
            "reference spikes/latency must be positive"
        );
        self.e_dyn as f64 * (spikes / ref_spikes) + self.e_sta as f64 * (latency / ref_latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_scores_one() {
        for model in [TRUENORTH, SPINNAKER] {
            let e = model.normalized(1000.0, 200.0, 1000.0, 200.0);
            assert!((e - 1.0).abs() < 1e-6, "{}: {e}", model.name);
        }
    }

    #[test]
    fn parameters_sum_to_one() {
        assert!((TRUENORTH.e_dyn + TRUENORTH.e_sta - 1.0).abs() < 1e-6);
        assert!((SPINNAKER.e_dyn + SPINNAKER.e_sta - 1.0).abs() < 1e-6);
    }

    #[test]
    fn fewer_spikes_and_latency_cost_less() {
        let e = TRUENORTH.normalized(10.0, 20.0, 1000.0, 200.0);
        assert!(e < 1.0);
        // Spike-dominated platform (SpiNNaker) rewards spike reduction more.
        let tn = TRUENORTH.normalized(10.0, 200.0, 1000.0, 200.0);
        let sn = SPINNAKER.normalized(10.0, 200.0, 1000.0, 200.0);
        assert!(sn < tn);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_reference_panics() {
        let _ = TRUENORTH.normalized(1.0, 1.0, 0.0, 1.0);
    }

    #[test]
    fn presets_round_trip_through_json() {
        for model in [TRUENORTH, SPINNAKER] {
            let json = serde_json::to_vec(&model).unwrap();
            let back: EnergyModel = serde_json::from_slice(&json).unwrap();
            assert_eq!(back, model);
        }
    }

    #[test]
    fn custom_platforms_round_trip() {
        let custom = EnergyModel {
            name: "Loihi-2",
            e_dyn: 0.7,
            e_sta: 0.3,
        };
        let json = serde_json::to_vec(&custom).unwrap();
        let back: EnergyModel = serde_json::from_slice(&json).unwrap();
        assert_eq!(back, custom);
        assert_eq!(back.name, "Loihi-2");
        // Repeated deserializations reuse one interned allocation.
        let again: EnergyModel = serde_json::from_slice(&json).unwrap();
        assert!(std::ptr::eq(back.name.as_ptr(), again.name.as_ptr()));
    }

    #[test]
    fn deserialize_rejects_missing_fields() {
        let r: Result<EnergyModel, _> = serde_json::from_slice(br#"{"name":"x"}"#);
        assert!(r.is_err());
        let r: Result<EnergyModel, _> =
            serde_json::from_slice(br#"{"name":7,"e_dyn":0.5,"e_sta":0.5}"#);
        assert!(r.is_err());
    }
}
