//! Deterministic perturbation subsystem: seeded input-, event- and
//! model-level fault injection.
//!
//! Every perturbation draws from its own ChaCha8 stream, keyed on the
//! spec seed, a domain tag, and either the perturbed image's *content
//! hash* (input and event domains) or the weight row's `(layer, row)`
//! index (model domain). A stream is therefore a pure function of the
//! data being perturbed — never of batch composition, batch position,
//! worker count, SIMD path, or execution engine — which is what lets
//! perturbed runs join the workspace's standing bit-identity contract.
//!
//! Severity 0 is the identity *by construction*: a family whose knob is
//! zero takes no RNG draws and writes no values, so outputs (including
//! `-0.0` signs) are bit-identical to unperturbed runs.
//!
//! ## Spec grammar
//!
//! ```text
//! <seed>[:<kind>=<value>[,<kind>=<value>...]]
//! ```
//!
//! | kind       | level | value                                          |
//! |------------|-------|------------------------------------------------|
//! | `igauss`   | input | Gaussian σ added per pixel (clamped to \[0,1]) |
//! | `isalt`    | input | per-pixel salt-and-pepper probability          |
//! | `ioccl`    | input | occlusion patch side as a fraction of min(H,W) |
//! | `jitter`   | event | max spike-time jitter in timesteps (±)         |
//! | `drop`     | event | per-spike delivery-drop probability            |
//! | `wgauss`   | model | multiplicative Gaussian σ per weight           |
//! | `wstuck`   | model | per-row stuck-at-zero probability              |
//! | `wbitflip` | model | per-weight mantissa bit-flip probability       |
//!
//! Example: `7:igauss=0.1,drop=0.05,wstuck=0.01`.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::error::{Result, TensorError};

/// Domain tag for input-level (pixel) perturbation streams.
pub const DOMAIN_INPUT: u32 = 1;
/// Domain tag for event-level (spike jitter/drop) perturbation streams.
pub const DOMAIN_EVENT: u32 = 2;
/// Domain tag for model-level (weight) perturbation streams.
pub const DOMAIN_WEIGHT: u32 = 3;

/// FNV-1a over the image's `f32` bit patterns (little-endian bytes): a
/// stable content key that is identical for identical pixel data and
/// independent of where the image sits in a batch.
pub fn content_hash(data: &[f32]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for v in data {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

/// A ChaCha8 stream keyed on `(seed, domain, a, b)`. The full 32-byte
/// ChaCha key is populated (no `seed_from_u64` expansion), so distinct
/// keys give independent streams.
pub fn keyed_stream(seed: u64, domain: u32, a: u64, b: u64) -> ChaCha8Rng {
    let mut key = [0u8; 32];
    key[0..8].copy_from_slice(&seed.to_le_bytes());
    key[8..16].copy_from_slice(&a.to_le_bytes());
    key[16..24].copy_from_slice(&b.to_le_bytes());
    key[24..28].copy_from_slice(&domain.to_le_bytes());
    key[28..32].copy_from_slice(&0x5432_4653u32.to_le_bytes()); // "T2FS" marker
    ChaCha8Rng::from_seed(key)
}

/// The event-noise stream for one image: keyed on the image's *content*
/// so that solo and batched inference (any composition, any worker
/// count) consume identical draws for identical pixels.
pub fn event_stream(seed: u64, image: &[f32]) -> ChaCha8Rng {
    keyed_stream(seed, DOMAIN_EVENT, content_hash(image), 0)
}

/// A parsed, validated perturbation specification covering all three
/// fault levels. All-zero knobs (the default for every family) mean
/// "identity": nothing is drawn, nothing is touched.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerturbSpec {
    /// Base RNG seed shared by every stream the spec derives.
    pub seed: u64,
    /// Input: additive Gaussian σ per pixel (result clamped to [0, 1]).
    pub input_gauss: f32,
    /// Input: per-pixel salt-and-pepper probability.
    pub input_salt_pepper: f32,
    /// Input: occlusion patch side as a fraction of `min(H, W)`.
    pub input_occlude: f32,
    /// Event: maximum spike-time jitter in timesteps (±).
    pub event_jitter: usize,
    /// Event: per-spike delivery-drop probability.
    pub event_drop: f32,
    /// Model: multiplicative Gaussian σ per weight.
    pub weight_gauss: f32,
    /// Model: per-row stuck-at-zero probability.
    pub weight_stuck: f32,
    /// Model: per-weight mantissa bit-flip probability.
    pub weight_bitflip: f32,
}

impl PerturbSpec {
    /// An identity spec (no perturbation at any level) with `seed`.
    pub fn identity(seed: u64) -> Self {
        PerturbSpec {
            seed,
            input_gauss: 0.0,
            input_salt_pepper: 0.0,
            input_occlude: 0.0,
            event_jitter: 0,
            event_drop: 0.0,
            weight_gauss: 0.0,
            weight_stuck: 0.0,
            weight_bitflip: 0.0,
        }
    }

    /// Parses the `<seed>[:<kind>=<value>,...]` grammar (see the module
    /// docs for the kind table).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] on malformed syntax,
    /// unknown kinds, duplicate kinds, or out-of-range values
    /// (probabilities and fractions must lie in `[0, 1]`, σ must be
    /// finite and non-negative).
    pub fn parse(spec: &str) -> Result<Self> {
        let bad = |message: String| TensorError::InvalidArgument {
            op: "PerturbSpec::parse",
            message,
        };
        let spec = spec.trim();
        let (seed_text, rest) = match spec.split_once(':') {
            Some((s, r)) => (s, r),
            None => (spec, ""),
        };
        let seed: u64 = seed_text
            .trim()
            .parse()
            .map_err(|_| bad(format!("bad seed `{seed_text}` (want a u64 before `:`)")))?;
        let mut out = PerturbSpec::identity(seed);
        let mut seen: Vec<&str> = Vec::new();
        for entry in rest.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (kind, value) = entry
                .split_once('=')
                .ok_or_else(|| bad(format!("entry `{entry}` is not `<kind>=<value>`")))?;
            let (kind, value) = (kind.trim(), value.trim());
            if seen.contains(&kind) {
                return Err(bad(format!("duplicate kind `{kind}`")));
            }
            let unit = |knob: &mut f32| -> Result<()> {
                let v: f32 = value
                    .parse()
                    .map_err(|_| bad(format!("bad value `{value}` for `{kind}`")))?;
                if !(0.0..=1.0).contains(&v) {
                    return Err(bad(format!("`{kind}` must lie in [0, 1], got {v}")));
                }
                *knob = v;
                Ok(())
            };
            let sigma = |knob: &mut f32| -> Result<()> {
                let v: f32 = value
                    .parse()
                    .map_err(|_| bad(format!("bad value `{value}` for `{kind}`")))?;
                if !v.is_finite() || v < 0.0 {
                    return Err(bad(format!("`{kind}` must be finite and >= 0, got {v}")));
                }
                *knob = v;
                Ok(())
            };
            match kind {
                "igauss" => sigma(&mut out.input_gauss)?,
                "isalt" => unit(&mut out.input_salt_pepper)?,
                "ioccl" => unit(&mut out.input_occlude)?,
                "jitter" => {
                    out.event_jitter = value
                        .parse()
                        .map_err(|_| bad(format!("bad value `{value}` for `jitter`")))?;
                }
                "drop" => unit(&mut out.event_drop)?,
                "wgauss" => sigma(&mut out.weight_gauss)?,
                "wstuck" => unit(&mut out.weight_stuck)?,
                "wbitflip" => unit(&mut out.weight_bitflip)?,
                other => {
                    return Err(bad(format!(
                        "unknown kind `{other}` (valid: igauss, isalt, ioccl, jitter, drop, \
                         wgauss, wstuck, wbitflip)"
                    )));
                }
            }
            seen.push(kind);
        }
        Ok(out)
    }

    /// Renders the spec back into its canonical string form, such that
    /// `parse(render(s))` reproduces `s` exactly (float values use
    /// Rust's shortest round-trippable formatting).
    pub fn render(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        let float = |parts: &mut Vec<String>, kind: &str, v: f32| {
            if v > 0.0 {
                parts.push(format!("{kind}={v}"));
            }
        };
        float(&mut parts, "igauss", self.input_gauss);
        float(&mut parts, "isalt", self.input_salt_pepper);
        float(&mut parts, "ioccl", self.input_occlude);
        if self.event_jitter > 0 {
            parts.push(format!("jitter={}", self.event_jitter));
        }
        float(&mut parts, "drop", self.event_drop);
        float(&mut parts, "wgauss", self.weight_gauss);
        float(&mut parts, "wstuck", self.weight_stuck);
        float(&mut parts, "wbitflip", self.weight_bitflip);
        if parts.is_empty() {
            format!("{}", self.seed)
        } else {
            format!("{}:{}", self.seed, parts.join(","))
        }
    }

    /// The spec scaled to `severity`: every float knob multiplied by
    /// `severity` (probabilities and fractions clamped back to `[0, 1]`)
    /// and the jitter rounded to the nearest step. Severity `0.0` yields
    /// the identity spec; severity `1.0` yields `self`.
    pub fn scaled(&self, severity: f32) -> Self {
        let unit = |v: f32| (v * severity).clamp(0.0, 1.0);
        PerturbSpec {
            seed: self.seed,
            input_gauss: (self.input_gauss * severity).max(0.0),
            input_salt_pepper: unit(self.input_salt_pepper),
            input_occlude: unit(self.input_occlude),
            event_jitter: (self.event_jitter as f32 * severity).round() as usize,
            event_drop: unit(self.event_drop),
            weight_gauss: (self.weight_gauss * severity).max(0.0),
            weight_stuck: unit(self.weight_stuck),
            weight_bitflip: unit(self.weight_bitflip),
        }
    }

    /// Whether every knob at every level is zero (nothing perturbs).
    pub fn is_identity(&self) -> bool {
        !self.has_input() && !self.has_event() && !self.has_weight()
    }

    /// Whether any input-level (pixel) family is active.
    pub fn has_input(&self) -> bool {
        self.input_gauss > 0.0 || self.input_salt_pepper > 0.0 || self.input_occlude > 0.0
    }

    /// Whether any event-level (spike jitter/drop) family is active.
    pub fn has_event(&self) -> bool {
        self.event_jitter > 0 || self.event_drop > 0.0
    }

    /// Whether any model-level (weight) family is active.
    pub fn has_weight(&self) -> bool {
        self.weight_gauss > 0.0 || self.weight_stuck > 0.0 || self.weight_bitflip > 0.0
    }

    /// Applies the input-level families to one `[C, H, W]` image in
    /// place, in fixed order: Gaussian noise, salt-and-pepper, then the
    /// occlusion patch. The stream is keyed on the *clean* image's
    /// content hash, so the result is a pure function of `(spec, image)`.
    /// With no input family active this is the identity (no draws, no
    /// writes).
    ///
    /// # Panics
    ///
    /// Panics when `image.len() != c * h * w`.
    pub fn perturb_image(&self, dims: [usize; 3], image: &mut [f32]) {
        let [c, h, w] = dims;
        assert_eq!(image.len(), c * h * w, "image length must match dims");
        if !self.has_input() || image.is_empty() {
            return;
        }
        let mut rng = keyed_stream(self.seed, DOMAIN_INPUT, content_hash(image), 0);
        if self.input_gauss > 0.0 {
            for px in image.iter_mut() {
                *px = (*px + self.input_gauss * gauss(&mut rng)).clamp(0.0, 1.0);
            }
        }
        if self.input_salt_pepper > 0.0 {
            for px in image.iter_mut() {
                if rng.gen::<f32>() < self.input_salt_pepper {
                    *px = if rng.gen::<bool>() { 1.0 } else { 0.0 };
                }
            }
        }
        if self.input_occlude > 0.0 && h > 0 && w > 0 {
            let short = h.min(w);
            let side = ((self.input_occlude * short as f32).round() as usize).clamp(1, short);
            let y0 = rng.gen_range(0..=h - side);
            let x0 = rng.gen_range(0..=w - side);
            for ci in 0..c {
                for yi in y0..y0 + side {
                    let row = ci * h * w + yi * w;
                    image[row + x0..row + x0 + side].fill(0.0);
                }
            }
        }
    }

    /// Applies the model-level families to one weight row in place. The
    /// stream is keyed on `(seed, layer, row)` — independent of every
    /// other row, so rows may be visited in any order (or in parallel)
    /// with identical results. Returns whether any value in the row
    /// changed bitwise.
    ///
    /// Order: a stuck-at draw first (a stuck row is zeroed and wins
    /// outright), then per-weight multiplicative Gaussian noise, then
    /// per-weight mantissa bit-flips. Bit-flips touch mantissa bits only
    /// (bits 0–22), so finite weights stay finite.
    pub fn perturb_weight_row(&self, layer: usize, row: usize, weights: &mut [f32]) -> bool {
        if !self.has_weight() || weights.is_empty() {
            return false;
        }
        let mut rng = keyed_stream(self.seed, DOMAIN_WEIGHT, layer as u64, row as u64);
        if self.weight_stuck > 0.0 && rng.gen::<f32>() < self.weight_stuck {
            let changed = weights.iter().any(|w| w.to_bits() != 0);
            weights.fill(0.0);
            return changed;
        }
        let mut changed = false;
        if self.weight_gauss > 0.0 {
            for weight in weights.iter_mut() {
                let next = *weight * (1.0 + self.weight_gauss * gauss(&mut rng));
                changed |= next.to_bits() != weight.to_bits();
                *weight = next;
            }
        }
        if self.weight_bitflip > 0.0 {
            for weight in weights.iter_mut() {
                if rng.gen::<f32>() < self.weight_bitflip {
                    let bit = rng.gen_range(0..23u32);
                    *weight = f32::from_bits(weight.to_bits() ^ (1 << bit));
                    changed = true;
                }
            }
        }
        changed
    }
}

/// One standard-normal draw via Box–Muller (two uniform draws; the
/// log argument is kept strictly positive).
fn gauss(rng: &mut ChaCha8Rng) -> f32 {
    let mut u1: f32 = rng.gen();
    if u1 <= f32::MIN_POSITIVE {
        u1 = f32::MIN_POSITIVE;
    }
    let u2: f32 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parse_full_grammar() {
        let spec =
            PerturbSpec::parse("7:igauss=0.1,isalt=0.05,ioccl=0.25,jitter=3,drop=0.2,wgauss=0.02,wstuck=0.01,wbitflip=0.001")
                .unwrap();
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.input_gauss, 0.1);
        assert_eq!(spec.input_salt_pepper, 0.05);
        assert_eq!(spec.input_occlude, 0.25);
        assert_eq!(spec.event_jitter, 3);
        assert_eq!(spec.event_drop, 0.2);
        assert_eq!(spec.weight_gauss, 0.02);
        assert_eq!(spec.weight_stuck, 0.01);
        assert_eq!(spec.weight_bitflip, 0.001);
        assert!(!spec.is_identity());
        assert!(spec.has_input() && spec.has_event() && spec.has_weight());
    }

    #[test]
    fn parse_seed_only_is_identity() {
        for text in ["42", "42:", " 42 "] {
            let spec = PerturbSpec::parse(text).unwrap();
            assert_eq!(spec.seed, 42);
            assert!(spec.is_identity(), "`{text}` should parse as identity");
        }
    }

    #[test]
    fn parse_rejects_bad_specs() {
        for bad in [
            "",
            "x:drop=0.1",
            "1:drop",
            "1:drop=1.5",
            "1:drop=-0.1",
            "1:wgauss=nan",
            "1:wgauss=-1",
            "1:unknown=0.5",
            "1:drop=0.1,drop=0.2",
            "1:jitter=-2",
        ] {
            assert!(PerturbSpec::parse(bad).is_err(), "`{bad}` should fail");
        }
    }

    #[test]
    fn render_parse_round_trip() {
        let text = "9:igauss=0.15,jitter=2,drop=0.1,wstuck=0.5";
        let spec = PerturbSpec::parse(text).unwrap();
        let rendered = spec.render();
        assert_eq!(PerturbSpec::parse(&rendered).unwrap(), spec);
        assert_eq!(PerturbSpec::identity(3).render(), "3");
    }

    #[test]
    fn scaling_hits_identity_at_zero_and_self_at_one() {
        let spec = PerturbSpec::parse("5:igauss=0.2,jitter=4,drop=0.3,wbitflip=0.01").unwrap();
        assert!(spec.scaled(0.0).is_identity());
        assert_eq!(spec.scaled(1.0), spec);
        let half = spec.scaled(0.5);
        assert_eq!(half.event_jitter, 2);
        assert!(half.event_drop < spec.event_drop);
        // Probabilities never scale beyond 1.
        assert!(spec.scaled(100.0).event_drop <= 1.0);
    }

    #[test]
    fn severity_zero_image_is_bit_identical() {
        let spec = PerturbSpec::identity(1);
        let original: Vec<f32> = (0..48)
            .map(|i| -0.0_f32.max(i as f32 / 48.0) - 0.5)
            .collect();
        let mut image = original.clone();
        spec.perturb_image([3, 4, 4], &mut image);
        for (a, b) in original.iter().zip(&image) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn severity_zero_weights_are_bit_identical() {
        let spec = PerturbSpec::identity(1);
        let original = vec![0.5f32, -0.0, 1.25, -3.5];
        let mut row = original.clone();
        assert!(!spec.perturb_weight_row(0, 0, &mut row));
        for (a, b) in original.iter().zip(&row) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn image_perturbation_is_a_pure_function_of_content() {
        let spec = PerturbSpec::parse("11:igauss=0.2,isalt=0.1,ioccl=0.3").unwrap();
        let image: Vec<f32> = (0..64).map(|i| (i as f32 / 64.0).min(1.0)).collect();
        let mut a = image.clone();
        let mut b = image.clone();
        spec.perturb_image([1, 8, 8], &mut a);
        spec.perturb_image([1, 8, 8], &mut b);
        assert_eq!(
            a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_ne!(
            a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            image.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "an active spec must actually perturb"
        );
    }

    #[test]
    fn weight_rows_are_independent_of_visit_order() {
        let spec = PerturbSpec::parse("13:wgauss=0.1,wstuck=0.2,wbitflip=0.05").unwrap();
        let rows: Vec<Vec<f32>> = (0..6)
            .map(|r| (0..8).map(|i| (r * 8 + i) as f32 * 0.01 - 0.2).collect())
            .collect();
        let mut forward = rows.clone();
        for (r, row) in forward.iter_mut().enumerate() {
            spec.perturb_weight_row(1, r, row);
        }
        let mut backward = rows.clone();
        for (r, row) in backward.iter_mut().enumerate().rev() {
            spec.perturb_weight_row(1, r, row);
        }
        assert_eq!(forward, backward);
    }

    #[test]
    fn bitflips_keep_weights_finite() {
        let spec = PerturbSpec::parse("17:wbitflip=1").unwrap();
        let mut row: Vec<f32> = vec![1.0, -2.5, 0.125, 3.0e30, -1.0e-30];
        spec.perturb_weight_row(0, 0, &mut row);
        assert!(row.iter().all(|w| w.is_finite()), "{row:?}");
    }

    #[test]
    fn occlusion_zeroes_a_patch_in_every_channel() {
        let spec = PerturbSpec::parse("19:ioccl=0.5").unwrap();
        let (c, h, w) = (2, 8, 8);
        let mut image = vec![0.7f32; c * h * w];
        spec.perturb_image([c, h, w], &mut image);
        let zeros = image.iter().filter(|v| **v == 0.0).count();
        // A 4×4 patch in both channels.
        assert_eq!(
            zeros,
            2 * 16,
            "occlusion should zero side² pixels per channel"
        );
    }

    #[test]
    fn event_streams_key_on_content_not_position() {
        let a: Vec<f32> = (0..16).map(|i| i as f32 * 0.05).collect();
        let b: Vec<f32> = (0..16).map(|i| 1.0 - i as f32 * 0.05).collect();
        let mut s1 = event_stream(7, &a);
        let mut s2 = event_stream(7, &a);
        let mut s3 = event_stream(7, &b);
        let (x1, x2, x3) = (s1.gen::<u64>(), s2.gen::<u64>(), s3.gen::<u64>());
        assert_eq!(x1, x2, "same content, same stream");
        assert_ne!(x1, x3, "different content, different stream");
        assert_ne!(
            keyed_stream(7, DOMAIN_EVENT, content_hash(&a), 0).gen::<u64>(),
            keyed_stream(7, DOMAIN_INPUT, content_hash(&a), 0).gen::<u64>(),
            "domains must not share streams"
        );
    }

    proptest! {
        #[test]
        fn render_round_trips_any_spec(
            seed in 0u64..u64::MAX,
            ig in 0.0f32..1.0,
            sp in 0.0f32..1.0,
            oc in 0.0f32..1.0,
            jit in 0usize..8,
            dr in 0.0f32..1.0,
            wg in 0.0f32..0.5,
            ws in 0.0f32..1.0,
            wb in 0.0f32..1.0,
        ) {
            let spec = PerturbSpec {
                seed,
                input_gauss: ig,
                input_salt_pepper: sp,
                input_occlude: oc,
                event_jitter: jit,
                event_drop: dr,
                weight_gauss: wg,
                weight_stuck: ws,
                weight_bitflip: wb,
            };
            prop_assert_eq!(PerturbSpec::parse(&spec.render()).unwrap(), spec);
        }

        #[test]
        fn identity_never_touches_data(pixels in prop::collection::vec(-2.0f32..2.0, 12)) {
            let spec = PerturbSpec::identity(99);
            let mut image = pixels.clone();
            spec.perturb_image([3, 2, 2], &mut image);
            let mut row = pixels.clone();
            prop_assert!(!spec.perturb_weight_row(2, 5, &mut row));
            for (a, b) in pixels.iter().zip(&image) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            for (a, b) in pixels.iter().zip(&row) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}
