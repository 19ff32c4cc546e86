//! Procedural class-conditional image synthesis.
//!
//! Substitutes the paper's MNIST/CIFAR benchmarks (see the README's
//! *Datasets and scaled networks*): each
//! class is assigned a deterministic *prototype* — a superposition of an
//! oriented grating, a Gaussian blob and a low-frequency colour ramp, all
//! parameterized from a class-seeded RNG — and each sample is the prototype
//! under a random translation, amplitude jitter and pixel noise. The
//! resulting task is learnable by a small CNN yet non-trivial (classes
//! overlap under noise), which is what the coding-scheme comparison needs:
//! a trained network with a realistic spread of activation values.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use t2fsnn_tensor::Tensor;

use crate::spec::DatasetSpec;

/// Parameters of one class's prototype pattern.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ClassPrototype {
    /// Grating spatial frequency (cycles across the image), per channel.
    freq: Vec<f32>,
    /// Grating orientation in radians, per channel.
    theta: Vec<f32>,
    /// Grating phase, per channel.
    phase: Vec<f32>,
    /// Blob center (row, col) in unit coordinates.
    blob: (f32, f32),
    /// Blob radius in unit coordinates.
    blob_r: f32,
    /// Mixing weights for (grating, blob, ramp).
    mix: (f32, f32, f32),
}

impl ClassPrototype {
    /// Builds class `class`'s prototype on a *separated parameter grid*:
    /// the class index is decomposed into three digits (base ⌈∛K⌉) that
    /// select well-spaced orientation, frequency and blob-position cells.
    /// Purely random draws collide badly at 100 classes (near-duplicate
    /// prototypes make the task unlearnable for a small CNN); the grid
    /// guarantees every pair of classes differs in at least one coarse
    /// attribute, while a class-seeded RNG still jitters within the cell.
    fn for_class(seed: u64, class: usize, total_classes: usize, channels: usize) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(
            seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(class as u64 + 1)),
        );
        let base = (total_classes as f32).cbrt().ceil().max(2.0) as usize;
        let d0 = class % base;
        let d1 = (class / base) % base;
        let d2 = class / (base * base);
        let cell = |d: usize| (d as f32 + 0.5) / base as f32;
        let theta0 = std::f32::consts::PI * cell(d0);
        let freq0 = 1.5 + 4.5 * cell(d1);
        let ring = std::f32::consts::TAU * cell(d2);
        let blob = (0.5 + 0.28 * ring.sin(), 0.5 + 0.28 * ring.cos());
        let freq = (0..channels)
            .map(|_| freq0 + rng.gen_range(-0.2f32..0.2))
            .collect();
        let theta = (0..channels)
            .map(|_| theta0 + rng.gen_range(-0.1f32..0.1))
            .collect();
        let phase = (0..channels)
            .map(|_| rng.gen_range(0.0f32..std::f32::consts::TAU))
            .collect();
        let blob_r = rng.gen_range(0.12f32..0.2);
        let g = rng.gen_range(0.45f32..0.65);
        let b = rng.gen_range(0.35f32..0.55);
        let r = rng.gen_range(0.1f32..0.25);
        ClassPrototype {
            freq,
            theta,
            phase,
            blob,
            blob_r,
            mix: (g, b, r),
        }
    }

    /// Evaluates the noiseless prototype at unit coordinates `(y, x)` for
    /// channel `c`, in `[0, 1]`.
    fn eval(&self, c: usize, y: f32, x: f32) -> f32 {
        let (mg, mb, mr) = self.mix;
        let dir = self.theta[c];
        let u = x * dir.cos() + y * dir.sin();
        let grating = 0.5 + 0.5 * (std::f32::consts::TAU * self.freq[c] * u + self.phase[c]).sin();
        let dy = y - self.blob.0;
        let dx = x - self.blob.1;
        let blob = (-(dx * dx + dy * dy) / (2.0 * self.blob_r * self.blob_r)).exp();
        let ramp = 0.5 * (x + y);
        let v = mg * grating + mb * blob + mr * ramp;
        v.clamp(0.0, 1.0)
    }
}

/// Configuration of the synthetic generator.
///
/// # Examples
///
/// ```
/// use t2fsnn_data::{DatasetSpec, SyntheticConfig};
///
/// let cfg = SyntheticConfig::new(DatasetSpec::tiny(), 7);
/// let ds = cfg.generate(32);
/// assert_eq!(ds.len(), 32);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyntheticConfig {
    /// Dataset shape/classes being synthesized.
    pub spec: DatasetSpec,
    /// Master seed; the same seed always generates the same dataset.
    pub seed: u64,
    /// Standard deviation of additive Gaussian pixel noise.
    pub noise_std: f32,
    /// Maximum circular translation of the prototype, in pixels.
    pub max_shift: usize,
    /// Multiplicative amplitude jitter range `[1-a, 1+a]`.
    pub amplitude_jitter: f32,
}

impl SyntheticConfig {
    /// Creates a configuration with the default difficulty
    /// (noise σ = 0.20, shift ≤ 2 px, amplitude jitter ±0.3).
    ///
    /// The defaults are deliberately *hard*: heavy pixel noise keeps the
    /// class-conditional logit gaps small, which is what forces rate-coded
    /// SNNs into long integration windows — the regime the paper's
    /// latency comparisons live in. (A clean, trivially separable task
    /// would let rate coding converge in tens of steps and invert the
    /// paper's orderings.)
    pub fn new(spec: DatasetSpec, seed: u64) -> Self {
        SyntheticConfig {
            spec,
            seed,
            noise_std: 0.20,
            max_shift: 2,
            amplitude_jitter: 0.3,
        }
    }

    /// Builder-style override of the pixel-noise level.
    pub fn with_noise(mut self, noise_std: f32) -> Self {
        self.noise_std = noise_std;
        self
    }

    /// Builder-style override of the maximum translation.
    pub fn with_max_shift(mut self, max_shift: usize) -> Self {
        self.max_shift = max_shift;
        self
    }

    /// Generates `n` labeled samples with round-robin class balance.
    ///
    /// Determinism: the pair `(seed, n)` fully determines the dataset.
    pub fn generate(&self, n: usize) -> Dataset {
        let spec = &self.spec;
        let prototypes: Vec<ClassPrototype> = (0..spec.classes)
            .map(|k| ClassPrototype::for_class(self.seed, k, spec.classes, spec.channels))
            .collect();
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed.wrapping_add(1));
        let (c, h, w) = (spec.channels, spec.height, spec.width);
        let mut images = Vec::with_capacity(n * spec.image_numel());
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let class = i % spec.classes;
            labels.push(class);
            let proto = &prototypes[class];
            let shift_y = rng.gen_range(0..=2 * self.max_shift) as isize - self.max_shift as isize;
            let shift_x = rng.gen_range(0..=2 * self.max_shift) as isize - self.max_shift as isize;
            let amp = 1.0 + rng.gen_range(-self.amplitude_jitter..=self.amplitude_jitter);
            for ci in 0..c {
                for yi in 0..h {
                    for xi in 0..w {
                        let sy = (yi as isize + shift_y).rem_euclid(h as isize) as usize;
                        let sx = (xi as isize + shift_x).rem_euclid(w as isize) as usize;
                        let y = sy as f32 / h as f32;
                        let x = sx as f32 / w as f32;
                        let mut v = amp * proto.eval(ci, y, x);
                        if self.noise_std > 0.0 {
                            // Box–Muller normal draw.
                            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
                            let u2: f32 = rng.gen_range(0.0f32..1.0);
                            let z = (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos();
                            v += self.noise_std * z;
                        }
                        images.push(v.clamp(0.0, 1.0));
                    }
                }
            }
        }
        let images = Tensor::from_vec([n, c, h, w], images).expect("sized by construction");
        Dataset {
            spec: spec.clone(),
            images,
            labels,
        }
    }
}

/// An in-memory labeled image dataset.
///
/// Images are stored as one `[N, C, H, W]` tensor with values in `[0, 1]`
/// (the range the paper's data-based normalization assumes).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    /// Shape/class metadata.
    pub spec: DatasetSpec,
    /// All images, `[N, C, H, W]`.
    pub images: Tensor,
    /// Class label of every image (`labels.len() == N`).
    pub labels: Vec<usize>,
}

impl Dataset {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Returns `true` if the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Copies sample `i` as a `[C, H, W]` tensor with its label.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn sample(&self, i: usize) -> (Tensor, usize) {
        let img = self
            .images
            .index_axis0(i)
            .expect("index checked by caller contract");
        (img, self.labels[i])
    }

    /// Splits into `(first, rest)` at sample `at` (no shuffling; generation
    /// is already class-balanced round-robin): a copy, then
    /// [`split_off`](Dataset::split_off).
    ///
    /// # Panics
    ///
    /// Panics if `at > self.len()`.
    pub fn split(&self, at: usize) -> (Dataset, Dataset) {
        let mut first = self.clone();
        let rest = first.split_off(at);
        (first, rest)
    }

    /// Keeps samples `[0, at)` and returns the rest, like
    /// `Vec::split_off`: the kept samples stay in this dataset's image
    /// buffer, and only the returned tail is copied, as one contiguous
    /// run of `[N, C, H, W]` storage.
    ///
    /// # Panics
    ///
    /// Panics if `at > self.len()`.
    pub fn split_off(&mut self, at: usize) -> Dataset {
        assert!(at <= self.len(), "split point {at} beyond {}", self.len());
        let [c, h, w] = [self.spec.channels, self.spec.height, self.spec.width];
        let mut data = std::mem::replace(&mut self.images, Tensor::zeros([0])).into_vec();
        let rest = data.split_off(at * c * h * w);
        self.images = Tensor::from_vec([at, c, h, w], data).expect("a run of whole images");
        let labels = self.labels.split_off(at);
        Dataset {
            spec: self.spec.clone(),
            images: Tensor::from_vec([labels.len(), c, h, w], rest).expect("a run of whole images"),
            labels,
        }
    }

    /// Iterates over `(images, labels)` mini-batches of at most
    /// `batch_size` samples, in order.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub fn batches(&self, batch_size: usize) -> Batches<'_> {
        assert!(batch_size > 0, "batch size must be positive");
        Batches {
            dataset: self,
            batch_size,
            cursor: 0,
        }
    }

    /// Returns a copy with samples reordered by `perm` (a permutation of
    /// `0..len`). Used by the trainer for epoch shuffling.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of the right length.
    pub fn permuted(&self, perm: &[usize]) -> Dataset {
        assert_eq!(perm.len(), self.len(), "permutation length mismatch");
        let parts: Vec<Tensor> = perm
            .iter()
            .map(|&i| self.images.index_axis0(i).expect("permutation in range"))
            .collect();
        Dataset {
            spec: self.spec.clone(),
            images: Tensor::stack(&parts).expect("same shapes"),
            labels: perm.iter().map(|&i| self.labels[i]).collect(),
        }
    }

    /// Per-class sample counts, length `spec.classes`.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.spec.classes];
        for &y in &self.labels {
            counts[y] += 1;
        }
        counts
    }
}

/// Iterator over dataset mini-batches; see [`Dataset::batches`].
#[derive(Debug)]
pub struct Batches<'a> {
    dataset: &'a Dataset,
    batch_size: usize,
    cursor: usize,
}

impl Iterator for Batches<'_> {
    type Item = (Tensor, Vec<usize>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.cursor >= self.dataset.len() {
            return None;
        }
        let end = (self.cursor + self.batch_size).min(self.dataset.len());
        let parts: Vec<Tensor> = (self.cursor..end)
            .map(|i| self.dataset.images.index_axis0(i).expect("in range"))
            .collect();
        let images = Tensor::stack(&parts).expect("same shapes");
        let labels = self.dataset.labels[self.cursor..end].to_vec();
        self.cursor = end;
        Some((images, labels))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_dataset(n: usize) -> Dataset {
        SyntheticConfig::new(DatasetSpec::tiny(), 3).generate(n)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = tiny_dataset(16);
        let b = tiny_dataset(16);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = SyntheticConfig::new(DatasetSpec::tiny(), 1).generate(8);
        let b = SyntheticConfig::new(DatasetSpec::tiny(), 2).generate(8);
        assert_ne!(a.images, b.images);
    }

    #[test]
    fn pixels_are_in_unit_range() {
        let ds = tiny_dataset(64);
        assert!(ds.images.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn labels_are_round_robin_balanced() {
        let ds = tiny_dataset(16);
        assert_eq!(ds.class_counts(), vec![4, 4, 4, 4]);
    }

    #[test]
    fn class_prototypes_are_distinct() {
        // Mean images of two classes must differ much more than noise.
        let ds = SyntheticConfig::new(DatasetSpec::tiny(), 5)
            .with_noise(0.0)
            .with_max_shift(0)
            .generate(8);
        let (img0, l0) = ds.sample(0);
        let (img1, l1) = ds.sample(1);
        assert_ne!(l0, l1);
        let diff = img0.sub(&img1).unwrap().map(f32::abs).mean();
        assert!(diff > 0.02, "class prototypes too similar: {diff}");
    }

    #[test]
    fn same_class_samples_are_similar_without_noise() {
        let ds = SyntheticConfig::new(DatasetSpec::tiny(), 5)
            .with_noise(0.0)
            .with_max_shift(0)
            .generate(8);
        let (a, la) = ds.sample(0);
        let (b, lb) = ds.sample(4); // same class, round-robin with 4 classes
        assert_eq!(la, lb);
        // Only amplitude jitter differs.
        let diff = a.sub(&b).unwrap().map(f32::abs).mean();
        assert!(diff < 0.2, "same-class divergence {diff}");
    }

    #[test]
    fn split_partitions_samples() {
        let ds = tiny_dataset(10);
        let (train, test) = ds.split(6);
        assert_eq!(train.len(), 6);
        assert_eq!(test.len(), 4);
        assert_eq!(train.labels[..], ds.labels[..6]);
        assert_eq!(test.sample(0).0, ds.sample(6).0);
        assert_eq!(test.sample(3).0, ds.sample(9).0);
        let (all, none) = ds.split(10);
        assert_eq!(all, ds);
        assert_eq!(none.images.dims(), &[0, 1, 8, 8]);
    }

    #[test]
    fn split_off_keeps_the_head_buffer_and_returns_the_tail() {
        let ds = tiny_dataset(10);
        let mut head = ds.clone();
        let buffer = head.images.data().as_ptr();
        let tail = head.split_off(6);
        assert_eq!(
            head.images.data().as_ptr(),
            buffer,
            "the head is not copied"
        );
        assert_eq!(head.images.dims(), &[6, 1, 8, 8]);
        assert_eq!(tail.images.dims(), &[4, 1, 8, 8]);
        let (first, rest) = ds.images.data().split_at(6 * 64);
        assert_eq!((head.images.data(), tail.images.data()), (first, rest));
        let (first, rest) = ds.labels.split_at(6);
        assert_eq!((&head.labels[..], &tail.labels[..]), (first, rest));
        assert_eq!(head.split_off(6).images.dims(), &[0, 1, 8, 8]);
    }

    #[test]
    fn batches_cover_dataset_in_order() {
        let ds = tiny_dataset(10);
        let batches: Vec<_> = ds.batches(4).collect();
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0].0.dims()[0], 4);
        assert_eq!(batches[2].0.dims()[0], 2);
        let all: Vec<usize> = batches.iter().flat_map(|(_, l)| l.clone()).collect();
        assert_eq!(all, ds.labels);
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_size_panics() {
        let ds = tiny_dataset(4);
        let _ = ds.batches(0);
    }

    #[test]
    fn permuted_reorders_samples() {
        let ds = tiny_dataset(4);
        let perm = [3, 2, 1, 0];
        let p = ds.permuted(&perm);
        assert_eq!(p.labels, vec![3, 2, 1, 0]);
        assert_eq!(p.sample(0).0, ds.sample(3).0);
    }

    #[test]
    fn cifar_like_shapes() {
        let ds = SyntheticConfig::new(DatasetSpec::cifar10_like(), 9).generate(4);
        assert_eq!(ds.images.dims(), &[4, 3, 32, 32]);
    }

    #[test]
    fn hundred_class_generation() {
        let ds = SyntheticConfig::new(DatasetSpec::cifar100_like(), 9).generate(200);
        assert_eq!(ds.class_counts(), vec![2; 100]);
    }
}
